"""Table loading over the driver-provided Parquet test tables (TESTDATA.md).

The engine's source role — replacing the reference's DB connectors
(``/root/reference/src/database/mysql_connection.py:11-18``,
``sqlserver_connection.py:238-298``) — is a column-pruned Parquet scan;
connection validation becomes path/schema validation at pipeline build time.

Every package read (``read_parquet_clean``; ``load_table`` calls it) is
planned from the files' Parquet footers by ``FooterDatasource``, not by
``ray.data.read_parquet``. Ray's reader builds a ``pyarrow.ParquetDataset``
on every call and blocks on a remote sampling task before the Dataset
exists: 11–19 ms per read of an sf0.01 table on one CPU, before any
execution starts. Here one footer pass per file (``row_groups``) gives
each read task its exact row count and Ray's size estimate, and the
encoding-ratio sample is read on the driver: 4–8 ms per read.
"""

from __future__ import annotations

import functools
import os
from typing import Optional, Union

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def table_path(sf_dir: str, name: str) -> str:
    p = os.path.join(sf_dir, f"{name}.parquet")
    if not os.path.exists(p):
        raise FileNotFoundError(f"table {name!r} not found under {sf_dir}")
    return p


def parquet_files(path: Union[str, list[str]]) -> list[str]:
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


def row_groups(files: list[str]) -> list[list[tuple[int, int]]]:
    """``(rows, total_byte_size)`` of every row group of every file, in
    file order, from the footers, read in a driver loop."""
    out = []
    for f in files:
        md = pq.read_metadata(f)
        rgs = (md.row_group(i) for i in range(md.num_row_groups))
        out.append([(rg.num_rows, rg.total_byte_size) for rg in rgs])
    return out


def _schema_and_ratio(
    files: list[str], footers: list, columns: Optional[list[str]]
) -> tuple[pa.Schema, float]:
    """The read's metadata-free (projected) schema, from the first file, and
    Ray's Parquet encoding ratio: the mean over a few evenly spaced files
    of sampled Arrow bytes/row ÷ the file's footer bytes/row, at least 1.
    Each sample is the first rows of the file's first row group, projected;
    a file without rows counts as 1. Files, rows, constants and arithmetic
    are those of ``ray.data.read_parquet`` (its constants are imported, and
    ``DataContext.decoding_size_estimation = False`` gives its default
    ratio), so a read's ``size_bytes()`` and Ray's split decisions are the
    ones Ray's reader gives."""
    import numpy as np
    from ray.data._internal.datasource import parquet_datasource as rp

    first = pq.ParquetFile(files[0])
    schema = first.schema_arrow.remove_metadata()
    if columns:
        schema = pa.schema([schema.field(c) for c in columns])
    if not ray.data.DataContext.get_current().decoding_size_estimation:
        return schema, float(rp.PARQUET_ENCODING_RATIO_ESTIMATE_DEFAULT)
    n = len(files)
    k = int(n * rp.PARQUET_ENCODING_RATIO_ESTIMATE_SAMPLING_RATIO)
    k = min(k, min(rp.PARQUET_ENCODING_RATIO_ESTIMATE_MAX_NUM_SAMPLES, n))
    k = max(k, min(rp.PARQUET_ENCODING_RATIO_ESTIMATE_MIN_NUM_SAMPLES, n))
    floor = float(rp.PARQUET_ENCODING_RATIO_ESTIMATE_LOWER_BOUND)
    ratios = []
    for i in np.linspace(0, n - 1, k).astype(int).tolist():
        rows = sum(r for r, _ in footers[i])
        batches = (first if i == 0 else pq.ParquetFile(files[i])).iter_batches(
            batch_size=max(1, min(rows, rp.PARQUET_ENCODING_RATIO_ESTIMATE_NUM_ROWS)),
            row_groups=[0] if footers[i] else [],
            columns=columns,
            use_threads=False,
        )
        batch = next(batches, None)
        if batch is None or not batch.num_rows:
            ratios.append(floor)
            continue
        footer_bytes = sum(b for _, b in footers[i])
        ratios.append((batch.nbytes / batch.num_rows) / (footer_bytes / rows))
    return schema, max(float(np.mean(ratios)), floor)


def _read_ranges(
    ranges: list[tuple[str, list[int]]],
    columns: Optional[list[str]],
    schema: pa.Schema,
    batch_rows: int,
):
    """One read task's body: stream its row groups, file by file, as
    ``schema`` tables of at most ``batch_rows`` rows; a task whose row
    groups hold no rows gives one typed empty table."""
    empty = True
    for path, rgs in ranges:
        batches = pq.ParquetFile(path).iter_batches(
            batch_size=batch_rows, row_groups=rgs, columns=columns, use_threads=False
        )
        for batch in batches:
            if batch.num_rows:
                empty = False
                yield pa.Table.from_batches([batch]).select(schema.names).cast(schema)
    if empty:
        yield schema.empty_table()


class FooterDatasource(Datasource):
    """A Parquet read planned from footers. Each read task is a contiguous
    range of row groups in file order, ``min(parallelism, row groups)`` of
    them; its metadata holds the footer row count and ``Σ total_byte_size
    × ratio``, Ray's in-memory estimate. A one-row-group table is one task
    that Ray then splits to the requested block count, as it splits its own
    one-file read; a file of several row groups gives one task per block,
    so the next map fuses into the read at any CPU count."""

    def __init__(self, files, footers, columns, schema, ratio):
        self._units = [
            (f, i, rows, nbytes)
            for f, rgs in zip(files, footers)
            for i, (rows, nbytes) in enumerate(rgs)
        ]
        self._columns = columns
        self._schema = schema
        self._ratio = ratio

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> float:
        return sum(u[3] for u in self._units) * self._ratio

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        target = ray.data.DataContext.get_current().target_max_block_size
        n = max(1, min(parallelism, len(self._units)))
        step, extra = divmod(len(self._units), n)
        tasks, start = [], 0
        for t in range(n):
            units = self._units[start : start + step + (t < extra)]
            start += len(units)
            ranges: list[tuple[str, list[int]]] = []
            for f, i, _rows, _nbytes in units:
                if not ranges or ranges[-1][0] != f:
                    ranges.append((f, []))
                ranges[-1][1].append(i)
            rows = sum(u[2] for u in units)
            size = int(sum(u[3] for u in units) * self._ratio)
            # tables of at most target_max_block_size, by the size estimate
            batch_rows = min(rows, target * rows // size) if target and size else rows
            meta = BlockMetadata(
                num_rows=rows,
                size_bytes=size,
                input_files=[f for f, _ in ranges],
                exec_stats=None,
            )
            read = functools.partial(
                _read_ranges,
                ranges,
                self._columns,
                self._schema,
                max(1, batch_rows),
            )
            tasks.append(ReadTask(read, meta, schema=self._schema))
        return tasks


def read_parquet_clean(
    path: Union[str, list[str]],
    columns: Optional[list[str]] = None,
) -> "ray.data.Dataset":
    """Lazy read of a file, a directory or a list of files, with the
    metadata-free (projected) schema of the first file, in
    ``context.block_count(on-disk bytes)`` blocks.

    Pandas-written parquet (the driver's test tables included) carries a
    ``b'pandas'`` schema-metadata dict that makes ``pyarrow.Schema``
    unhashable in pyarrow 16, which tripped Ray's schema-dedup hash inside
    every read/shuffle of these tables ("Failed to hash the schemas" log
    spam). Stripping at the scan keeps every downstream block schema
    hashable.

    The plan comes from one footer pass (``row_groups``) and a driver-side
    sample (``_schema_and_ratio``): no ``ParquetDataset`` and no sampling
    task. ``count()`` and ``size_bytes()`` are answered from the read tasks'
    metadata without an execution. ``block_count`` replaces Ray's
    autodetect, whose ``2 × CPUs`` floor split even a 1.5 KB table into 2
    blocks on 1 CPU: each block is one more task in every downstream
    operator. The operator is still named ``ReadParquet``."""
    from ..context import block_count

    files = parquet_files(path)
    if not files:
        raise FileNotFoundError(f"no Parquet files under {path!r}")
    footers = row_groups(files)
    schema, ratio = _schema_and_ratio(files, footers, columns)
    source = FooterDatasource(files, footers, columns, schema, ratio)
    nbytes = sum(os.path.getsize(f) for f in files)
    return ray.data.read_datasource(source, override_num_blocks=block_count(nbytes))


def load_table(
    sf_dir: str, name: str, columns: Optional[list[str]] = None
) -> "ray.data.Dataset":
    """Column-pruned Parquet scan of one logical table."""
    from ..context import tune_for_cluster

    tune_for_cluster()
    return read_parquet_clean(table_path(sf_dir, name), columns=columns)
