"""Driver-mimic: run every queries() entry and its oracle_sql() twin on the
same sf dir, compare row count, column names, and order-insensitive values.

Usage: python tools/check_oracle.py SF_DIR [query ...] [--strict-dtypes]
           [--num-cpus N]

Checks the package of the checkout this script is in, on the driver and on
the Ray workers, whatever the current directory.
"""

from __future__ import annotations

import argparse
import os
import sys

import duckdb
import numpy as np
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def dtype_family(s: pd.Series) -> str:
    if pd.api.types.is_bool_dtype(s):
        return "bool"
    if pd.api.types.is_integer_dtype(s):
        return "int"
    if pd.api.types.is_float_dtype(s):
        return "float"
    if pd.api.types.is_datetime64_any_dtype(s):
        return "datetime"
    return "object"


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame, strict: bool = False) -> str:
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        return f"COLUMNS ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}"
    if len(ray_df) != len(sql_df):
        return f"ROWS ray={len(ray_df)} sql={len(sql_df)}"
    if strict:
        # the round-3 sequence_pack lesson: the driver's value hash is
        # dtype-sensitive, so an int64 Ray column vs a HUGEINT→float64
        # oracle column hash-mismatches even when numerically identical.
        # Flag any cross-family dtype pair a byte hash could distinguish.
        bad = [
            (c, str(ray_df[c].dtype), str(sql_df[c].dtype))
            for c in ray_df.columns
            if dtype_family(ray_df[c]) != dtype_family(sql_df[c])
        ]
        if bad:
            return f"DTYPE-FAMILY {bad}"
    a, b = canon(ray_df), canon(sql_df)
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if pd.api.types.is_float_dtype(a[c]):
            ok = np.allclose(av, bv, rtol=0, atol=0, equal_nan=True)
        else:
            ok = (pd.Series(av).astype(object) == pd.Series(bv).astype(object)) | (
                pd.Series(av).isna() & pd.Series(bv).isna()
            )
            ok = bool(ok.all())
        if not ok:
            mism = None
            try:
                bad = np.flatnonzero(av != bv)[:3]
                mism = [(c, i, av[i], bv[i]) for i in bad]
            except Exception:
                pass
            return f"VALUES col={c} sample={mism}"
    return "OK"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sf_dir", help="directory of <table>.parquet")
    ap.add_argument("queries", nargs="*", metavar="query")
    ap.add_argument("--strict-dtypes", action="store_true")
    ap.add_argument("--num-cpus", type=int, default=8)
    args = ap.parse_args()
    sf_dir, only, strict = os.path.abspath(args.sf_dir), set(args.queries), args.strict_dtypes

    import ray

    # Ray workers put the driver's cwd ahead of its PYTHONPATH and ignore
    # its sys.path, so run from the root whose package is checked
    sys.path.insert(0, ROOT)
    os.chdir(ROOT)
    ray.init(
        address="local",
        num_cpus=args.num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    queries = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    import time

    n_ok = n_bad = 0
    t_start = time.perf_counter()
    for name, fn in queries.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"{name:24s} RAY-ERROR {type(e).__name__}: {e}")
            n_bad += 1
            continue
        ray_s = time.perf_counter() - t0
        if name not in oracles:
            print(
                f"{name:24s} rows-only: {len(ray_df)} rows, "
                f"cols={list(ray_df.columns)} [{ray_s:.2f}s]"
            )
            n_ok += 1
            continue
        try:
            sql_df = con.execute(oracles[name]).fetchdf()
        except Exception as e:
            print(f"{name:24s} SQL-ERROR {e}")
            n_bad += 1
            continue
        verdict = compare(name, ray_df, sql_df, strict=strict)
        print(f"{name:24s} {verdict} [{ray_s:.2f}s]")
        n_ok += verdict == "OK"
        n_bad += verdict != "OK"
    print(f"\n{n_ok} ok, {n_bad} bad ({time.perf_counter() - t_start:.1f}s total)")
    ray.shutdown()
    sys.exit(1 if n_bad else 0)


if __name__ == "__main__":
    main()
