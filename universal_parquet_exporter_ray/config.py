"""Job configuration: dataclass + environment loader.

Parity with the reference's config surface: the plain config object
(``/root/reference/config/database_config.py:1-14``) and the validated
environment loader (``SQLServerConfig.from_environment``,
``/root/reference/config/sqlserver_config.py:53-106``) — same shape
(required fields raise with a clear message; optional fields default), but
the fields describe an encode job instead of a DB connection.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class EncodeJobConfig:
    source: str                       # parquet file/dir of the input table
    out_dir: str                      # encoded output root
    partition_by: Optional[str] = "repo"
    hash_cols: list[str] = field(default_factory=lambda: ["path"])
    target_rows_per_partition: int = 100_000
    resume: bool = True
    run_id: str = "run0"              # caller-supplied: no wall clock in workers
    extra: dict = field(default_factory=dict)  # passthrough (reference `extra`)

    def validate(self) -> None:
        if not self.source:
            raise ValueError("source is required")
        if not self.out_dir:
            raise ValueError("out_dir is required")
        if self.target_rows_per_partition <= 0:
            raise ValueError("target_rows_per_partition must be positive")

    @classmethod
    def from_environment(cls) -> "EncodeJobConfig":
        """Build from ``UPXR_*`` environment variables (reference parity:
        required vars raise ValueError naming the variable)."""
        def req(name: str) -> str:
            v = os.environ.get(name)
            if not v:
                raise ValueError(f"required environment variable {name} is not set")
            return v

        cfg = cls(
            source=req("UPXR_SOURCE"),
            out_dir=req("UPXR_OUT_DIR"),
            partition_by=os.environ.get("UPXR_PARTITION_BY", "repo") or None,
            hash_cols=os.environ.get("UPXR_HASH_COLS", "path").split(","),
            target_rows_per_partition=int(
                os.environ.get("UPXR_TARGET_ROWS", "100000")
            ),
            resume=os.environ.get("UPXR_RESUME", "1") not in ("0", "false", "no"),
            run_id=os.environ.get("UPXR_RUN_ID", "run0"),
        )
        cfg.validate()
        return cfg
