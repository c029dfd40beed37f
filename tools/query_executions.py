"""Ray Data executions and wall time per registry query.

Usage: python tools/query_executions.py QUERY... --tables DIR [--repeat N]
           [--num-cpus N]

Runs each named ``__ray_entry__.queries()`` entry ``--repeat`` times (default
5) on the tables in DIR, pulls every result to the driver as pandas, and
prints one row per query: the Ray Data executions of one run (every call of
``StreamingExecutor.execute``: a ``materialize``, a ``count`` that is not a
metadata read, a ``to_pandas``, an iteration), the sorts of one run (every
call of ``Dataset.sort``; each ``co_partition`` is one), the table scans
of one run (the ``ReadParquet`` operators, fused or not, in the plans of
those executions; a scan of a materialized Dataset is not one), the blocks its
table reads make (summed over every ``read_parquet_clean`` call of the last
run; each of those reads is materialized on its own after the timed runs,
and these executions are not counted), the min / median wall time over
the runs, ``plan_s``: the min over the runs of the driver wall time
from the query call to the start of its first Ray Data execution (the
whole run for a query that starts none), where building its reads and
plans is spent, and ``schema_warn``: Ray Data's "Operator produced a
RefBundle with a different schema" warnings of one run (a block whose
columns differ from its operator's earlier blocks, such as the columnless
block of an empty sort partition or of a map task that got only zero-row
blocks).
One warm-up query runs first, so worker start-up is not charged to the
first query named.
"""

from __future__ import annotations

import argparse
import logging
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_operators(dag) -> int:
    """The ``ReadParquet`` operators (a fused ``ReadParquet->MapBatches(…)``
    counts) in the physical plan ending at ``dag``."""
    seen, stack, n = set(), [dag], 0
    while stack:
        op = stack.pop()
        if id(op) not in seen:
            seen.add(id(op))
            n += "ReadParquet" in op.name
            stack.extend(op.input_dependencies)
    return n


def count_executions():
    """Wrap ``StreamingExecutor.execute``; return a three-item list holding
    the number of executions started since the wrap, the
    ``time.perf_counter()`` at which the first execution started since the
    caller last set the second item to ``None``, and the number of table
    scans (``read_operators``) those executions ran."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = [0, None, 0]
    execute = StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        calls[0] += 1
        calls[2] += read_operators(dag)
        if calls[1] is None:
            calls[1] = time.perf_counter()
        return execute(self, dag, *args, **kwargs)

    StreamingExecutor.execute = counted
    return calls


def count_sorts():
    """Wrap ``Dataset.sort``; return a one-item list holding the number of
    sorts built since the wrap."""
    from ray.data import Dataset

    calls = [0]
    sort = Dataset.sort

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return sort(self, *args, **kwargs)

    Dataset.sort = counted
    return calls


SCHEMA_WARNING = "Operator produced a RefBundle with a different schema"


def count_schema_warnings():
    """Attach a handler to the ``ray.data`` logger; return a one-item
    list holding the number of ``SCHEMA_WARNING`` records logged since."""
    calls = [0]

    class Counted(logging.Handler):
        def emit(self, record):
            calls[0] += record.getMessage().startswith(SCHEMA_WARNING)

    logging.getLogger("ray.data").addHandler(Counted(logging.WARNING))
    return calls


def record_reads():
    """Wrap ``sources.tables.read_parquet_clean``; return the list the
    Datasets it builds are appended to."""
    from universal_parquet_exporter_ray.sources import tables

    reads = []
    read = tables.read_parquet_clean

    def recorded(*args, **kwargs):
        ds = read(*args, **kwargs)
        reads.append(ds)
        return ds

    tables.read_parquet_clean = recorded
    return reads


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("queries", nargs="+", metavar="QUERY")
    ap.add_argument("--tables", required=True, help="directory of <table>.parquet")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--num-cpus", type=int, default=os.cpu_count() or 1)
    args = ap.parse_args()

    import ray
    from ray.data import DataContext

    args.tables = os.path.abspath(args.tables)
    sys.path.insert(0, ROOT)
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    # Ray workers import from the driver's cwd, not from its sys.path
    os.chdir(ROOT)
    import __ray_entry__
    from check_oracle import to_pandas

    registry = __ray_entry__.queries()
    unknown = [n for n in args.queries if n not in registry]
    if unknown:
        sys.exit(f"unknown queries: {' '.join(unknown)}")

    ray.init(
        address="local",
        num_cpus=args.num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
    )
    DataContext.get_current().enable_progress_bars = False
    calls = count_executions()
    sorts = count_sorts()
    reads = record_reads()
    warns = count_schema_warnings()
    to_pandas(registry["count_distinct"](args.tables))

    print(
        f"{'query':24s} {'executions':>10s} {'scans':>5s} {'sorts':>5s} "
        f"{'read_blocks':>11s} "
        f"{'min_s':>8s} {'median_s':>8s} {'plan_s':>8s} {'schema_warn':>11s}"
    )
    for name in args.queries:
        runs, scan_runs, sort_runs, warn_runs, secs, plans = [], [], [], [], [], []
        for _ in range(args.repeat):
            before, scans_before, sorts_before = calls[0], calls[2], sorts[0]
            warns_before = warns[0]
            reads.clear()
            calls[1] = None
            t0 = time.perf_counter()
            to_pandas(registry[name](args.tables))
            t1 = time.perf_counter()
            secs.append(t1 - t0)
            plans.append((calls[1] or t1) - t0)
            runs.append(calls[0] - before)
            scan_runs.append(calls[2] - scans_before)
            sort_runs.append(sorts[0] - sorts_before)
            warn_runs.append(warns[0] - warns_before)
        blocks = sum(ds.materialize().num_blocks() for ds in reads)
        # a query's plan is fixed for given tables, so every run counts the same
        n_exec, n_scan, n_sort, n_warn = (
            c[0] if len(set(c)) == 1 else "/".join(map(str, c))
            for c in (runs, scan_runs, sort_runs, warn_runs)
        )
        print(
            f"{name:24s} {n_exec!s:>10s} {n_scan!s:>5s} {n_sort!s:>5s} "
            f"{blocks:11d} {min(secs):8.3f} "
            f"{statistics.median(secs):8.3f} {min(plans):8.4f} {n_warn!s:>11s}"
        )
    ray.shutdown()


if __name__ == "__main__":
    main()
