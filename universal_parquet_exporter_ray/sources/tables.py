"""Table loading over the driver-provided Parquet test tables (TESTDATA.md).

The engine's source role — replacing the reference's DB connectors
(``/root/reference/src/database/mysql_connection.py:11-18``,
``sqlserver_connection.py:238-298``) — is a column-pruned
``ray.data.read_parquet``; connection validation becomes path/schema
validation at pipeline build time.
"""

from __future__ import annotations

import os
from typing import Optional, Union

import ray.data

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def table_path(sf_dir: str, name: str) -> str:
    p = os.path.join(sf_dir, f"{name}.parquet")
    if not os.path.exists(p):
        raise FileNotFoundError(f"table {name!r} not found under {sf_dir}")
    return p


def _parquet_files(path: Union[str, list[str]]) -> list[str]:
    """The Parquet files a read of ``path`` covers: the list itself, the
    one file, or every ``*.parquet`` under the directory, sorted."""
    if not isinstance(path, str):
        return list(path)
    if not os.path.isdir(path):
        return [path]
    return sorted(
        os.path.join(root, f)
        for root, _dirs, fnames in os.walk(path)
        for f in fnames
        if f.endswith(".parquet")
    )


def read_parquet_clean(
    path: Union[str, list[str]],
    columns: Optional[list[str]] = None,
) -> "ray.data.Dataset":
    """``read_parquet`` of a file, a directory or a list of files, with an
    explicit metadata-free (projected) schema, in ``block_count`` blocks of
    the files' on-disk bytes.

    Pandas-written parquet (the driver's test tables included) carries a
    ``b'pandas'`` schema-metadata dict that makes ``pyarrow.Schema``
    unhashable in pyarrow 16, which tripped Ray's schema-dedup hash inside
    every read/shuffle of these tables ("Failed to hash the schemas" log
    spam). Stripping at the scan keeps every downstream block schema
    hashable.

    The block count replaces Ray's autodetect, whose ``2 × CPUs`` floor
    split even a 1.5 KB table into 2 blocks on 1 CPU: each block is one
    more task in every downstream operator, and a split read keeps Ray
    from fusing the next map into the read."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..context import block_count

    files = _parquet_files(path)
    sample = files[0] if files else path
    full = pq.read_schema(sample).remove_metadata()
    schema = pa.schema([full.field(c) for c in columns]) if columns else full
    nbytes = sum(os.path.getsize(f) for f in files)
    return ray.data.read_parquet(
        path, columns=columns, schema=schema, override_num_blocks=block_count(nbytes)
    )


def load_table(
    sf_dir: str, name: str, columns: Optional[list[str]] = None
) -> "ray.data.Dataset":
    """Column-pruned Parquet scan of one logical table."""
    from ..context import tune_for_cluster

    tune_for_cluster()
    return read_parquet_clean(table_path(sf_dir, name), columns=columns)
