"""Grouped aggregation: per-batch partials and one shared final.

Every grouped aggregate in the package ends the same way. A per-batch
combiner collapses each block to at most one partial row per key, and
``final_reduce(partials, keys, finish)`` materializes the partial stream
(it is combiner-sized, never corpus-sized) and decides where the final
combine runs. It is the one place the package makes that choice:

- at most ``FINAL_REDUCE_CAP`` partial rows, or at most
  ``FINAL_REDUCE_BYTES`` of them, and ``finish`` runs once on the driver
  over ``partials.to_pandas()``, returning a pandas DataFrame. Both are
  metadata reads of the materialized stream. Driver memory is the real
  constraint, so a narrow many-row stream (hash-keyed dedup partials)
  stays a ~0.1 s pandas combine instead of a sort shuffle;
- above both, the partials ``co_partition`` on the key columns and the
  same ``finish`` runs once per sorted block, returning a Dataset: the
  100-TB path, where the key space scales with the corpus.

``FINAL_REDUCE_CAP`` is read when the final runs, and 0 forces the
distributed final (``monkeypatch.setattr(agg, "FINAL_REDUCE_CAP", 0)``
in the tests that pin plan agreement). A pandas ``partials`` is already
on the driver, so two finals chain with no shape fork.

The finals that run through it: ``combiner_groupby``;
``dedup_keep_best``'s keep-best merge; ``latest_event``'s argmax merge;
``stratified_sample``'s per-language top-m; both levels of
``top_terms_by_lang``; the token sums of ``train_unigram_model`` and
``train_doc_freq``; ``_ppm_topk`` (``ann_topk`` and the ``ann_ivf_*``
queries); ``knn_join``'s ``final_knn``; and ``verify_pairs``' candidate
pair dedup. A ``co_partition`` elsewhere reduces raw rows, not partials.

``combiner_groupby`` is SUM / AVG / MIN / MAX / COUNT(*) on top of it. Ray's
``groupby().aggregate()`` is not used anywhere: it sort-shuffles every
input row before reducing (~0.8 s of coordination for TPC-H Q1's 6 groups
at any input size), and at 236k groups its per-group Python measured 285×
slower than one vectorized ``finish`` per block.

What a query does after its final is written once for both shapes:
``map_any`` applies one pandas body to a frame or to each batch of a
Dataset, and ``to_frame`` collects a result bounded by construction.

A zero-row result is typed in one place. ``map_batches`` never calls its
function on a zero-row block, so no per-batch body or ``co_partition``
reducer has an empty-input branch, and an input that filters to nothing
leaves a stream with no blocks at all. ``to_frame(out, dtypes)`` gives
such a result the query's declared columns and dtypes at the collect,
and ``combiner_groupby`` types its empty result from its own input.

Float determinism note: partial sums change the summation ORDER, exactly as
Ray's own block-parallel Sum does; every consumer exports sums through
``scaled_int`` fixed-point columns where a ulp of drift cannot change the
value, so the oracle hash comparison is unaffected.
"""

from __future__ import annotations

from typing import Optional

import pandas as pd
import pyarrow as pa

from . import co_partition

__all__ = [
    "FINAL_REDUCE_BYTES",
    "FINAL_REDUCE_CAP",
    "combiner_groupby",
    "final_reduce",
    "map_any",
    "to_frame",
]

# Partial rows up to this go to the driver final.  200k narrow rows is a
# few MB, trivially driver-safe, while corpus-scaling key spaces (user ids
# at 100 TB) blow past it and co-partition.
FINAL_REDUCE_CAP = 200_000
# Partial bytes up to this go to the driver final whatever their row count.
FINAL_REDUCE_BYTES = 64 << 20


def final_reduce(partials, keys: list[str], finish):
    """``finish`` over a partial stream: on the driver (a pandas
    DataFrame) when the stream is within ``FINAL_REDUCE_CAP`` rows or
    ``FINAL_REDUCE_BYTES`` bytes, else once per sorted block of a ``keys``
    co-partition (a Dataset). A Dataset ``partials`` is materialized here,
    so both sizes are metadata reads; a pandas frame is already on the
    driver, and ``finish`` runs on it as it is. ``finish`` must reduce per
    key over any split of the partial rows, and never sees zero rows: a
    zero-row stream comes back as a zero-row frame, typed at the collect
    (``to_frame``). A call holds one sort partition, and the sort makes
    one per block of ``partials``, so a call is about one block of
    partial rows; a key adds at most one partial row per combined
    batch."""
    if not isinstance(partials, pd.DataFrame):
        partials = partials.materialize()
        n = partials.count()
        if n and not (
            FINAL_REDUCE_CAP
            and (n <= FINAL_REDUCE_CAP or partials.size_bytes() <= FINAL_REDUCE_BYTES)
        ):
            return co_partition(partials, keys, finish)
        partials = to_frame(partials)
    return finish(partials) if len(partials) else partials


def map_any(out, fn):
    """One per-batch pandas body ``fn`` over a final's result: applied to a
    pandas DataFrame directly, or to each batch of a Dataset."""
    if isinstance(out, pd.DataFrame):
        return fn(out)
    return out.map_batches(fn, batch_format="pandas")


def to_frame(out, dtypes: Optional[dict] = None) -> pd.DataFrame:
    """A final's result as a pandas DataFrame. Only for results bounded by
    construction (groups, languages, bins, registers), never corpus-sized.

    A result with no rows comes back with the columns and dtypes of
    ``dtypes`` (column → dtype) when given, else with the Dataset's own
    schema: Ray's ``to_pandas()`` drops the columns of an all-empty
    Dataset, so a query whose result can be empty collects it here."""
    frame = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    if len(frame):
        return frame
    if dtypes is not None:
        return pd.DataFrame({c: pd.Series([], dtype=d) for c, d in dtypes.items()})
    return frame if isinstance(out, pd.DataFrame) else _zero_rows(out)


def _zero_rows(ds) -> pd.DataFrame:
    """A zero-row frame with the columns and dtypes of Dataset ``ds``'s
    schema (pandas or Arrow blocks); a schemaless (blockless) Dataset
    gives a columnless frame."""
    schema = ds.schema()
    if schema is None:
        return pd.DataFrame()
    base = schema.base_schema
    if isinstance(base, pa.Schema):
        return base.empty_table().to_pandas()
    return pd.DataFrame(
        {c: pd.Series([], dtype=t) for c, t in zip(base.names, base.types)}
    )


class _AggSpec:
    """Column bookkeeping for one grouped aggregate: which input column
    feeds which partial column and which output name."""

    def __init__(self, keys, sums, means, mins, maxs, count):
        self.keys = list(keys)
        self.inputs = list(dict.fromkeys([*keys, *sums, *means, *mins, *maxs]))
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
):
    """Grouped SUM / AVG / MIN / MAX / COUNT(*) with per-batch partials and
    the shared ``final_reduce``.

    ``sums``/``means``/``mins``/``maxs`` map input column -> output name;
    ``count`` names a COUNT(*) output.  AVG follows SQL semantics (ignores
    nulls): each mean column carries its own non-null-count partial.  SUM
    over an all-null group follows PANDAS semantics (0, not SQL's NULL) —
    every consumer that can hit that case wraps the sum in COALESCE(x, 0)
    on both the engine and oracle sides, so the two conventions agree;
    MIN/MAX of an all-null group is null on both.  Null
    keys form a group, as in SQL GROUP BY.  ``ds`` is a Dataset or a
    pandas frame already on the driver.  Returns a pandas DataFrame
    (driver final) or a Dataset (distributed final) — both shapes are
    accepted by the oracle comparison, by ``map_any`` and by ``to_frame``.
    With ``FINAL_REDUCE_CAP = 0`` the result is ALWAYS a Dataset, including
    on empty inputs, so scale rehearsals can rely on the return shape.

    An input with no rows gives a zero-row result with the dtypes the
    input's own columns give: the partial and the final run on a zero-row
    frame of the input (a driver frame's ``iloc[:0]``, a Dataset's
    ``schema()``, read only on this path).
    """
    spec = _AggSpec(keys, dict(sums or {}), dict(means or {}),
                    dict(mins or {}), dict(maxs or {}), count)
    partial, finish = make_partial(spec), make_finish(spec)

    # a driver frame's partials are built where it is, with no map
    # execution, and reach the final as a Dataset, so a zero cap still
    # co-partitions them
    import ray.data as rd

    if isinstance(ds, pd.DataFrame):
        partials = rd.from_pandas(partial(ds))
    else:
        partials = ds.map_batches(partial, batch_format="pandas")
    out = final_reduce(partials, keys, finish)
    if not isinstance(out, pd.DataFrame) or len(out):
        return out
    # a zero-row stream: ``partial`` never ran (Ray skips zero-row blocks),
    # so the partials carry no schema; the input's zero rows type the
    # result (a blockless Dataset has no schema: its columns come back
    # float64)
    zero = ds.iloc[:0] if isinstance(ds, pd.DataFrame) else _zero_rows(ds)
    empty = finish(partial(zero.reindex(columns=spec.inputs)))
    if FINAL_REDUCE_CAP == 0:
        # a zero cap forces the distributed final, so honor the 'zero cap
        # => Dataset' return-shape contract on empty inputs too; an Arrow
        # block keeps the zero-row schema where an empty pandas block
        # would lose it
        return rd.from_arrow(pa.Table.from_pandas(empty, preserve_index=False))
    return empty
