"""Table loading over the driver-provided Parquet test tables (TESTDATA.md).

The engine's source role — replacing the reference's DB connectors
(``/root/reference/src/database/mysql_connection.py:11-18``,
``sqlserver_connection.py:238-298``) — is a column-pruned
``ray.data.read_parquet``; connection validation becomes path/schema
validation at pipeline build time.
"""

from __future__ import annotations

import os
from typing import Optional

import ray.data

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def table_path(sf_dir: str, name: str) -> str:
    p = os.path.join(sf_dir, f"{name}.parquet")
    if not os.path.exists(p):
        raise FileNotFoundError(f"table {name!r} not found under {sf_dir}")
    return p


def read_parquet_clean(
    path: str,
    columns: Optional[list[str]] = None,
) -> "ray.data.Dataset":
    """``read_parquet`` with an explicit metadata-free (projected) schema.

    Pandas-written parquet (the driver's test tables included) carries a
    ``b'pandas'`` schema-metadata dict that makes ``pyarrow.Schema``
    unhashable in pyarrow 16, which tripped Ray's schema-dedup hash inside
    every read/shuffle of these tables ("Failed to hash the schemas" log
    spam). Stripping at the scan keeps every downstream block schema
    hashable."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    sample = path
    if os.path.isdir(path):
        for root, _dirs, fnames in os.walk(path):
            pqs = sorted(f for f in fnames if f.endswith(".parquet"))
            if pqs:
                sample = os.path.join(root, pqs[0])
                break
    full = pq.read_schema(sample).remove_metadata()
    schema = pa.schema([full.field(c) for c in columns]) if columns else full
    return ray.data.read_parquet(path, columns=columns, schema=schema)


def load_table(
    sf_dir: str, name: str, columns: Optional[list[str]] = None
) -> "ray.data.Dataset":
    """Column-pruned Parquet scan of one logical table."""
    from ..context import tune_for_cluster

    tune_for_cluster()
    return read_parquet_clean(table_path(sf_dir, name), columns=columns)
