"""Combiner-first grouped aggregation (SURVEY.md §2.5 at scale).

``Dataset.groupby().aggregate()`` sort-shuffles EVERY input row to its key
partition before reducing — correct, but for low-cardinality keys (TPC-H
Q1's 6 groups, per-nation revenue's 25) the all-to-all costs ~0.8 s of pure
coordination at any input size, and at 100 TB moves the whole corpus.  The
engine's standing pattern (VERDICT r2/r3: "push aggregation partial") is a
per-batch pandas combiner that collapses each block to at most #groups
partial rows, so only combiner-sized partials ever reach the exchange.

``combiner_groupby`` packages that pattern with a size-thresholded FINAL
reduce, mirroring ``joins.thresholded_join``: the partial stream is
materialized (object-store-light — it is combiner-sized, never
corpus-sized), its row count read from metadata, and

- below ``final_cap`` rows OR ``UPXR_FINAL_REDUCE_BYTES`` (64 MB default —
  driver memory is the true constraint) the final combine runs driver-side
  in pandas, returning a pandas DataFrame; ``final_cap=0`` forces the
  distributed path (tests, scale rehearsal);
- above both gates the final combine co-partitions the partials on the
  key columns (``stages.co_partition``) and runs the same vectorized pandas
  ``finish`` once per sorted block — NOT ``groupby().aggregate()``,
  which iterates groups in per-row Python at block boundaries and measured
  285× slower at 236k groups — returning a Dataset.

Float determinism note: partial sums change the summation ORDER, exactly as
Ray's own block-parallel Sum does; every consumer exports sums through
``scaled_int`` fixed-point columns where a ulp of drift cannot change the
value, so the oracle hash comparison is unaffected.
"""

from __future__ import annotations

import os
from typing import Optional

import pandas as pd

from . import co_partition

__all__ = ["combiner_groupby", "FINAL_REDUCE_CAP"]

# Partial rows below this go to a driver-side pandas combine; above it the
# final reduce stays a distributed groupby.  200k narrow rows is a few MB —
# trivially driver-safe — while corpus-scaling key spaces (user ids at
# 100 TB) blow past it and shuffle.
FINAL_REDUCE_CAP = 200_000


class _AggSpec:
    """Column bookkeeping for one grouped aggregate: which input column
    feeds which partial column and which output name."""

    def __init__(self, keys, sums, means, mins, maxs, count):
        self.keys = list(keys)
        self.sums, self.means = sums, means
        self.mins, self.maxs, self.count = mins, maxs, count
        self.sum_cols = {c: f"__s_{c}" for c in {**sums, **means}}
        self.cnt_cols = {c: f"__n_{c}" for c in means}
        self.min_cols = {c: f"__lo_{c}" for c in mins}
        self.max_cols = {c: f"__hi_{c}" for c in maxs}


def make_partial(spec: _AggSpec):
    """Per-batch combiner: collapse a block to ≤ #groups partial rows.
    Module-level (not a closure inside combiner_groupby) so the
    partial∘finish algebra is directly property-testable without Ray."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(spec.keys, sort=False, dropna=False)
        out = {}
        for c, p in spec.sum_cols.items():
            out[p] = g[c].sum()
        for c, p in spec.cnt_cols.items():
            out[p] = g[c].count()
        for c, p in spec.min_cols.items():
            out[p] = g[c].min()
        for c, p in spec.max_cols.items():
            out[p] = g[c].max()
        if spec.count is not None:
            out["__rows"] = g.size()
        return pd.DataFrame(out).reset_index()

    return partial


def make_finish(spec: _AggSpec):
    """Final combine over a frame of partial rows (any block split)."""

    def finish(pf: pd.DataFrame) -> pd.DataFrame:
        g = pf.groupby(spec.keys, sort=False, dropna=False)
        res = {}
        for c, name in spec.sums.items():
            res[name] = g[spec.sum_cols[c]].sum()
        for c, name in spec.means.items():
            # float64 division: an all-null group is 0.0/0 -> NaN (SQL AVG
            # of no values is NULL), never a Python-int ZeroDivisionError
            res[name] = g[spec.sum_cols[c]].sum().astype("float64") / g[
                spec.cnt_cols[c]
            ].sum()
        for c, name in spec.mins.items():
            res[name] = g[spec.min_cols[c]].min()
        for c, name in spec.maxs.items():
            res[name] = g[spec.max_cols[c]].max()
        if spec.count is not None:
            res[spec.count] = g["__rows"].sum().astype("int64")
        return pd.DataFrame(res).reset_index()

    return finish


def combiner_groupby(
    ds,
    keys: list[str],
    *,
    sums: Optional[dict[str, str]] = None,
    means: Optional[dict[str, str]] = None,
    mins: Optional[dict[str, str]] = None,
    maxs: Optional[dict[str, str]] = None,
    count: Optional[str] = None,
    final_cap: int = FINAL_REDUCE_CAP,
    empty_like: Optional[pd.DataFrame] = None,
):
    """Grouped SUM / AVG / MIN / MAX / COUNT(*) with per-batch partials and
    a size-thresholded final reduce.

    ``sums``/``means``/``mins``/``maxs`` map input column -> output name;
    ``count`` names a COUNT(*) output.  AVG follows SQL semantics (ignores
    nulls): each mean column carries its own non-null-count partial.  SUM
    over an all-null group follows PANDAS semantics (0, not SQL's NULL) —
    every consumer that can hit that case wraps the sum in COALESCE(x, 0)
    on both the engine and oracle sides, so the two conventions agree;
    MIN/MAX of an all-null group is null on both.  Null
    keys form a group, as in SQL GROUP BY.  Returns a pandas DataFrame
    (driver final) or a Dataset (distributed final) — both shapes are
    accepted by the oracle comparison and by ``scale_cols``.  With
    ``final_cap=0`` the result is ALWAYS a Dataset, including on empty
    inputs, so scale rehearsals can rely on the return shape.
    """
    spec = _AggSpec(keys, dict(sums or {}), dict(means or {}),
                    dict(mins or {}), dict(maxs or {}), count)
    sum_cols, cnt_cols, min_cols, max_cols = (
        spec.sum_cols, spec.cnt_cols, spec.min_cols, spec.max_cols
    )
    partial, finish = make_partial(spec), make_finish(spec)

    # combiner-sized stream: materializing it is object-store-light and
    # makes the row count a free metadata read for the threshold decision
    partials = ds.map_batches(partial, batch_format="pandas").materialize()

    n_partials = partials.count()
    if n_partials == 0:
        cols = (
            list(keys)
            + list(sum_cols.values())
            + list(cnt_cols.values())
            + list(min_cols.values())
            + list(max_cols.values())
            + (["__rows"] if count is not None else [])
        )
        # Ray keeps NO dtype evidence for an all-empty stream (schema() is
        # None and iter_batches yields nothing, both verified), so typed
        # emptiness must come from the caller: ``empty_like`` is a zero-row
        # TYPED exemplar of the input batch; running the partial on it
        # reproduces the exact partial dtypes.  Callers whose input can be
        # legitimately empty AND whose result feeds a dtype-strict consumer
        # should pass it; without it the empty result is float64-typed.
        empty = (
            finish(partial(empty_like.iloc[0:0]))
            if empty_like is not None
            else finish(pd.DataFrame({c: [] for c in cols}))
        )
        if final_cap == 0:
            # final_cap=0 explicitly forces the distributed path, so honor
            # the documented 'final_cap=0 => Dataset' return-shape contract
            # on empty inputs too (ADVICE r4); an Arrow block keeps the
            # zero-row schema where an empty pandas block would lose it
            import pyarrow as pa
            import ray.data as rd

            return rd.from_arrow(pa.Table.from_pandas(empty, preserve_index=False))
        return empty
    # The driver final is gated on BYTES as well as rows: driver memory is
    # the real constraint, and a narrow 300k-row / few-MB partial stream
    # (hash-keyed dedup partials at bench scale) costs a full sort shuffle
    # under a rows-only gate while being a ~0.1 s pandas combine.  Both
    # metadata reads are free on the materialized stream.  final_cap=0
    # explicitly forces the distributed final (tests, scale rehearsal).
    bytes_cap = int(os.environ.get("UPXR_FINAL_REDUCE_BYTES", str(64 << 20)))
    if final_cap and (
        n_partials <= final_cap or partials.size_bytes() <= bytes_cap
    ):
        return finish(partials.to_pandas())

    # Distributed final: co-partition the partial rows on the key COLUMNS
    # and run the SAME vectorized pandas ``finish`` on each sorted block.
    # ``groupby(keys).aggregate(...)`` would be semantically identical but
    # iterates groups in per-row Python at block boundaries — measured
    # 45.7 s vs 0.16 s on a 248k-row / 236k-group partial stream (285×),
    # which at corpus-scaling key cardinality is the difference between a
    # working 100-TB final and a stalled one.  Bucket count scales with the
    # partial stream so one bucket (the least a sorted block holds) stays
    # worker-heap-sized.
    return co_partition(
        partials, keys, finish, max(32, n_partials // 1_000_000)
    )
