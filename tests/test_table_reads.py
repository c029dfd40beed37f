"""Package table reads (``sources.tables.read_parquet_clean``) against
pyarrow and against Ray's own ``read_parquet``: the same values, row order
and metadata-free schema; the same ``size_bytes()``; ``count()`` and
``size_bytes()`` answered without an execution; and read tasks over
row-group ranges, so a map fuses into a multi-row-group read."""

from __future__ import annotations

import os
import pathlib

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from universal_parquet_exporter_ray.sources.tables import TABLES

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def ordered(monkeypatch):
    """Blocks come back in read-task order, so row order can be compared."""
    from ray.data import DataContext

    opts = DataContext.get_current().execution_options
    monkeypatch.setattr(opts, "preserve_order", True)


@pytest.fixture
def executions(monkeypatch):
    """The ``StreamingExecutor.execute`` counter of
    ``tools/query_executions.py``, undone after the test."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    monkeypatch.syspath_prepend(str(TOOLS))
    monkeypatch.setattr(StreamingExecutor, "execute", StreamingExecutor.execute)
    from query_executions import count_executions

    return count_executions()


def _arrow(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _want(files, columns=None) -> pa.Table:
    tabs = [pq.read_table(f, columns=columns) for f in files]
    return pa.concat_tables(tabs).replace_schema_metadata(None)


def _assert_same(ds, want: pa.Table) -> None:
    got = _arrow(ds)
    assert got.schema.equals(want.schema, check_metadata=True)
    assert got.schema.metadata is None
    assert got.equals(want)


def _copies(src: str, dirpath: pathlib.Path, n_files: int, rg_rows: int) -> list[str]:
    """``n_files`` copies of the ``src`` table, each in row groups of
    ``rg_rows`` rows, with the file index in its first column's values."""
    t = pq.read_table(src)
    dirpath.mkdir()
    out = []
    for i in range(n_files):
        p = str(dirpath / f"part{i}.parquet")
        first = pc.add(t.column(0), pa.scalar(i * 1000, t.field(0).type))
        pq.write_table(t.set_column(0, t.field(0), first), p, row_group_size=rg_rows)
        out.append(p)
    return out


@pytest.mark.parametrize("project", [False, True], ids=["all", "projected"])
@pytest.mark.parametrize("name", TABLES)
def test_table_read_matches_pyarrow(
    ray_session, sf_small, ordered, executions, name, project
):
    """Every sf0.001 table, whole and projected (two columns, reversed):
    pyarrow's values, order and metadata-free schema; ``count()`` and
    ``size_bytes()`` run no execution, and ``size_bytes()`` is the one
    Ray's ``read_parquet`` estimates for the same file and columns."""
    import ray

    from universal_parquet_exporter_ray.sources import load_table, table_path

    path = table_path(sf_small, name)
    full = pq.read_schema(path).remove_metadata()
    columns = full.names[:2][::-1] if project else None
    ds = load_table(sf_small, name, columns)
    before = executions[0]
    assert ds.count() == pq.read_metadata(path).num_rows
    size = ds.size_bytes()
    assert executions[0] == before
    schema = pa.schema([full.field(c) for c in columns]) if columns else full
    ray_read = ray.data.read_parquet(path, columns=columns, schema=schema)
    assert size == ray_read.size_bytes()
    _assert_same(ds, _want([path], columns))


def test_multi_file_reads_match_pyarrow(
    ray_session, sf_small, ordered, executions, tmp_path, monkeypatch
):
    """A directory of 3 files × 3 row groups (4 read tasks at 4 CPUs, two of
    them across a file boundary), the same files as a list in another
    order, and zero-row files. Where a file has several row groups Ray
    samples only the first one against the whole file's footer bytes/row:
    ``size_bytes()`` is still Ray's, with and without
    ``decoding_size_estimation``, and runs no execution."""
    import ray
    from ray.data import DataContext

    from universal_parquet_exporter_ray.sources import tables
    from universal_parquet_exporter_ray.sources.tables import read_parquet_clean

    files = _copies(tables.table_path(sf_small, "nation"), tmp_path / "d", 3, 9)
    assert [pq.read_metadata(f).num_row_groups for f in files] == [3, 3, 3]
    ds = read_parquet_clean(str(tmp_path / "d"))
    tasks = ds._logical_plan.dag._datasource.get_read_tasks(4)
    assert [t.metadata.num_rows for t in tasks] == [25, 18, 16, 16]
    assert [len(t.metadata.input_files) for t in tasks] == [1, 1, 2, 1]
    _assert_same(ds, _want(files))
    assert ds.materialize().num_blocks() == 4

    listed = [files[2], files[0]]
    columns = ["n_name", "n_nationkey"]
    _assert_same(read_parquet_clean(listed, columns), _want(listed, columns))

    # nation's sampled ratio is below Ray's floor of 1; part's is above it,
    # and its first row group's footer bytes/row differ from its file's
    parts = _copies(tables.table_path(sf_small, "part"), tmp_path / "p", 3, 67)
    assert [pq.read_metadata(f).num_row_groups for f in parts] == [3, 3, 3]
    assert read_parquet_clean(parts)._logical_plan.dag._datasource._ratio > 1
    opts = DataContext.get_current()
    for estimate in (True, False):
        monkeypatch.setattr(opts, "decoding_size_estimation", estimate)
        for path, cols, first in [
            (str(tmp_path / "d"), None, files[0]),
            (listed, columns, files[0]),
            (str(tmp_path / "p"), None, parts[0]),
            (parts[::-1], ["p_name", "p_retailprice"], parts[0]),
        ]:
            before = executions[0]
            size = read_parquet_clean(path, cols).size_bytes()
            assert executions[0] == before
            full = pq.read_schema(first).remove_metadata()
            sch = pa.schema([full.field(c) for c in cols]) if cols else full
            ray_read = ray.data.read_parquet(path, columns=cols, schema=sch)
            assert size == ray_read.size_bytes(), (path, cols, estimate)

    # a zero-row file, as pyarrow writes it (one empty row group) and with
    # no row group at all
    empty = str(tmp_path / "empty.parquet")
    pq.write_table(pq.read_table(files[0]).slice(0, 0), empty)
    no_rg = str(tmp_path / "no_row_groups.parquet")
    pq.ParquetWriter(no_rg, pq.read_schema(files[0])).close()
    assert [pq.read_metadata(f).num_row_groups for f in (empty, no_rg)] == [1, 0]
    for path in (empty, no_rg):
        ds = read_parquet_clean(path)
        assert ds.count() == 0
        assert ds.schema().base_schema.equals(_want([path]).schema)
        _assert_same(ds, _want([path]))


def _operators(ds) -> list[str]:
    """``"<operator>: <n> tasks"`` per operator of a materialized Dataset."""
    return [
        line.split(" ", 2)[2].split(" executed")[0]
        for line in ds.stats().splitlines()
        if line.startswith("Operator ")
    ]


def test_map_fuses_into_a_multi_row_group_read(ray_session, sf_small, tmp_path):
    """At 4 CPUs a 4-row-group copy of lineitem is 4 read tasks, and the next
    map fuses into them: one ``ReadParquet->MapBatches`` operator of 4
    tasks. A one-row-group table is still one read task that Ray splits
    into 4 blocks, with the map as its own operator."""
    from universal_parquet_exporter_ray import context
    from universal_parquet_exporter_ray.sources import load_table, table_path
    from universal_parquet_exporter_ray.sources.tables import read_parquet_clean

    assert context.cpu_slots() == 4
    src = table_path(sf_small, "lineitem")
    path = str(tmp_path / "lineitem4.parquet")
    pq.write_table(pq.read_table(src), path, row_group_size=1500)
    assert pq.read_metadata(path).num_row_groups == 4
    assert context.block_count(os.path.getsize(path)) == 4

    def same(batch):
        return batch

    ds = read_parquet_clean(path).map_batches(same, batch_format="pyarrow").materialize()
    assert _operators(ds) == ["ReadParquet->MapBatches(same): 4 tasks"]
    assert (ds.num_blocks(), ds.count()) == (4, 6000)

    ds = load_table(sf_small, "lineitem").map_batches(same, batch_format="pyarrow")
    ds = ds.materialize()
    assert _operators(ds) == [
        "ReadParquet->SplitBlocks(4): 1 tasks",
        "MapBatches(same): 4 tasks",
    ]
    assert (ds.num_blocks(), ds.count()) == (4, 6000)


@pytest.mark.parametrize(
    "name, n_exec",
    [
        ("minhash_lsh_pairs", 2),
        ("dedup_clusters", 2),
        ("decontaminate_neardup", 2),
        ("ngram_jaccard_pairs", 2),
    ],
)
def test_near_dup_queries_scan_documents_once(
    ray_session, sf_small, executions, name, n_exec
):
    """A near-dup query shingles ``documents`` once: banding (or the prefix
    index) and the verify read one materialized shingle table, and the
    in-budget verify runs on the driver. Pinned on sf0.001: its Ray Data
    executions and its table scans (``ReadParquet`` operators executed,
    the ``scans`` column of ``tools/query_executions.py``)."""
    from universal_parquet_exporter_ray.pipelines.textops import QUERIES
    from universal_parquet_exporter_ray.stages.agg import to_frame

    before, scans_before = executions[0], executions[2]
    assert len(to_frame(QUERIES[name](sf_small))) > 0
    assert (executions[0] - before, executions[2] - scans_before) == (n_exec, 1)


def test_segment_dedup_sorts_nothing(
    ray_session, sf_small, executions, monkeypatch
):
    """Within the final's caps ``segment_dedup`` counts its segment hashes
    in one execution and drops the duplicated ones in one per-batch stage
    over ``documents``: 2 executions and 2 table scans on sf0.001, and no
    sort (``co_partition``)."""
    import ray.data
    from query_executions import count_sorts

    from universal_parquet_exporter_ray.pipelines.textops import QUERIES
    from universal_parquet_exporter_ray.stages.agg import to_frame

    monkeypatch.setattr(ray.data.Dataset, "sort", ray.data.Dataset.sort)
    sorts = count_sorts()
    before, scans_before = executions[0], executions[2]
    assert len(to_frame(QUERIES["segment_dedup"](sf_small))) > 0
    assert (executions[0] - before, executions[2] - scans_before) == (2, 2)
    assert sorts == [0]
