"""Export-run orchestrator + config loader tests (reference parity:
per-query error isolation, summary parquet, env config validation)."""

from __future__ import annotations

import pandas as pd
import pyarrow.parquet as pq
import pytest

from universal_parquet_exporter_ray.config import EncodeJobConfig
from universal_parquet_exporter_ray.pipelines.runner import run_export


def test_run_export_isolation_and_summary(tmp_path):
    def good():
        return pd.DataFrame({"a": [1, 2, 3]})

    def bad():
        raise RuntimeError("boom")

    summary = run_export(
        {"good_query": good, "bad_query": bad, "also_good": good},
        str(tmp_path),
        run_id="testrun",
    )
    # one failing export must not abort the run (reference advanced:102-114)
    assert len(summary) == 3
    assert summary.set_index("query").loc["bad_query", "status"] == "error"
    assert summary.successful.iloc[0] == 2
    assert summary.success_rate.iloc[0] == pytest.approx(66.67, abs=0.01)
    out = pq.read_table(tmp_path / "testrun" / "good_query.parquet")
    assert out.num_rows == 3
    s = pq.read_table(tmp_path / "testrun" / "export_summary.parquet")
    assert s.num_rows == 3
    assert not (tmp_path / "testrun" / "bad_query.parquet").exists()


def test_config_env_loader(monkeypatch):
    monkeypatch.delenv("UPXR_SOURCE", raising=False)
    with pytest.raises(ValueError, match="UPXR_SOURCE"):
        EncodeJobConfig.from_environment()
    monkeypatch.setenv("UPXR_SOURCE", "/x/in.parquet")
    monkeypatch.setenv("UPXR_OUT_DIR", "/x/out")
    monkeypatch.setenv("UPXR_HASH_COLS", "repo,path")
    monkeypatch.setenv("UPXR_TARGET_ROWS", "5000")
    cfg = EncodeJobConfig.from_environment()
    assert cfg.hash_cols == ["repo", "path"]
    assert cfg.target_rows_per_partition == 5000


def test_config_validation():
    with pytest.raises(ValueError):
        EncodeJobConfig(source="", out_dir="x").validate()
    with pytest.raises(ValueError):
        EncodeJobConfig(source="a", out_dir="b", target_rows_per_partition=0).validate()
