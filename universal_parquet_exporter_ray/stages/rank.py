"""Distributed global RANK and exclusive prefix scans: range-partition +
per-range local pass + exact range offsets.

The classic scale plan for ``RANK() OVER (ORDER BY v)`` (reference:
``/root/reference/examples/advanced_integration_example.py:229``): no global
sorted pass, no driver-side distinct-value table (``o_totalprice`` is
near-unique, so that table is corpus-sized). ``_range_plan`` runs it for
all three entry points:

1. **Splitters** (bounded): a per-batch stride sample of the order column is
   reduced to ≤``max_splitters`` quantile splitters on the driver.
2. **Exact range totals** (tiny): per-batch ``searchsorted`` + a segmented
   reduce (row counts, value sums or value maxes) per range, folded in the
   calling process into exact exclusive offsets per range (``K`` integers,
   independent of data size).
3. **Range pass**: ``co_partition`` on the range — each block holds whole
   ranges, ranks or scans them locally per range and adds the range's
   offset (``min`` rank method = SQL RANK ties).

Equal values always share a range (ranges are split on sampled values with a
consistent ``side``), so ties never straddle ranges and the result is exact.
Driver state is O(K); every data-sized structure stays in workers.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from . import co_partition


def _sample_stage(col: str, per_batch: int = 32):
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        v = df[col].dropna().to_numpy()
        if len(v) == 0:
            return pd.DataFrame({col: pd.Series([], dtype="float64")})
        step = max(1, len(v) // per_batch)
        return pd.DataFrame({col: v[::step][:per_batch]})

    return fn


def _segment_reduce(r, v, ufunc, identity, n_ranges: int) -> np.ndarray:
    """``ufunc`` over the ``v`` values of each range ``r`` (``identity`` for
    an empty range): one stable sort + ``reduceat``, not ``ufunc.at``'s
    unbuffered scatter (10-30x slower, see the KMeansPartial note)."""
    out = np.full(n_ranges, identity, dtype=np.int64)
    order = np.argsort(r, kind="stable")
    present, starts = np.unique(r[order], return_index=True)
    if len(present):
        out[present] = ufunc.reduceat(v[order], starts)
    return out


def _range_plan(
    ds, col: str, cols, values, ufunc, identity, block_pass, *,
    max_splitters: int, reverse: bool = False,
):
    """The shared plan of this module (steps 1-3 of the module docstring).

    ``values(df)`` gives each row's int64 contribution to its range total
    (reduced with ``ufunc``, ``identity`` for an empty range); a range's
    offset is the ``ufunc`` of every range before it (after it when
    ``reverse``). ``block_pass(block, rng, off)`` gets a block of whole
    ranges with each row's range and offset and returns the output rows.
    Returns ``(dataset, totals)``."""
    sample = (
        ds.select_columns([col])
        .map_batches(_sample_stage(col), batch_format="pandas")
        .to_pandas()[col]
        .to_numpy()
    )
    qs = np.linspace(0, 1, max_splitters + 2)[1:-1]
    splitters = np.unique(np.quantile(sample, qs)) if len(sample) else np.array([])
    n_ranges = len(splitters) + 1

    def range_of(df: pd.DataFrame) -> np.ndarray:
        return np.searchsorted(splitters, df[col].to_numpy(), side="right").astype(np.int64)

    def batch_totals(df: pd.DataFrame) -> pd.DataFrame:
        t = _segment_reduce(range_of(df), values(df), ufunc, identity, n_ranges)
        return pd.DataFrame({"rng": np.arange(n_ranges, dtype=np.int64), "t": t})

    partials = (
        ds.select_columns(list(cols))
        .map_batches(batch_totals, batch_format="pandas")
        .to_pandas()
    )
    # the fold reads batches × K partial rows (tiny, so ufunc.at is fine)
    totals = np.full(n_ranges, identity, dtype=np.int64)
    ufunc.at(totals, partials["rng"].to_numpy(np.int64), partials["t"].to_numpy(np.int64))
    t = totals[::-1] if reverse else totals
    offsets = np.concatenate([[identity], ufunc.accumulate(t)[:-1]]).astype(np.int64)
    if reverse:
        offsets = offsets[::-1]

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_rng"] = range_of(df)
        return df

    def run(block: pd.DataFrame) -> pd.DataFrame:
        rng = block["_rng"].to_numpy(np.int64)
        return block_pass(block.drop(columns=["_rng"]), rng, offsets[rng])

    assigned = ds.map_batches(assign, batch_format="pandas")
    ranged = co_partition(assigned, ["_rng"], run)
    return ranged, totals


def rank_block(col: str, out_col: str, descending: bool):
    """Range pass of ``distributed_rank``: ``out_col`` = the row's ``min``
    rank among the rows of its range + the range's offset."""

    def fn(block: pd.DataFrame, rng: np.ndarray, off: np.ndarray) -> pd.DataFrame:
        local = block[col].groupby(rng).rank(method="min", ascending=not descending)
        block = block.copy()
        block[out_col] = local.to_numpy().astype(np.int64) + off
        return block

    return fn


def scan_block(order_col: str, val_col: str, out_col: str, ufunc, identity):
    """Range pass of the prefix scans: per range in ``order_col`` order,
    ``out_col`` = ``ufunc`` of the range's offset and of every earlier
    ``val_col`` of the range (``identity`` before the first)."""
    scan = {np.add: "cumsum", np.maximum: "cummax"}[ufunc]

    def fn(block: pd.DataFrame, rng: np.ndarray, off: np.ndarray) -> pd.DataFrame:
        order = np.argsort(block[order_col].to_numpy(), kind="stable")
        block, rng = block.iloc[order].reset_index(drop=True), rng[order]
        v = block[val_col].to_numpy(dtype=np.int64)
        incl = getattr(pd.Series(v).groupby(rng), scan)()
        excl = incl.groupby(rng).shift(1, fill_value=identity).to_numpy(np.int64)
        block[out_col] = ufunc(excl, off[order])
        return block

    return fn


def distributed_rank(
    ds: "ray.data.Dataset",
    col: str,
    out_col: str,
    *,
    descending: bool = True,
    max_splitters: int = 63,
    return_total: bool = False,
) -> "ray.data.Dataset":
    """Append ``out_col`` = RANK() OVER (ORDER BY col [DESC]) to ``ds``.

    ``return_total=True`` → ``(dataset, n_rows)``: the total is the sum of
    the per-range counts this machinery already computes, so callers that
    need n (PERCENT_RANK's denominator) avoid a second full corpus scan."""
    # a range's offset counts the rows ranked before it: for a descending
    # rank the highest range (largest values) comes first
    ranked, counts = _range_plan(
        ds, col, [col],
        lambda df: np.ones(len(df), dtype=np.int64), np.add, 0,
        rank_block(col, out_col, descending),
        max_splitters=max_splitters, reverse=descending,
    )
    if return_total:
        return ranked, int(counts.sum())
    return ranked


def distributed_prefix_sum(
    ds: "ray.data.Dataset",
    order_col: str,
    val_col: str,
    out_col: str,
    *,
    max_splitters: int = 63,
) -> "ray.data.Dataset":
    """Append ``out_col`` = exclusive prefix sum of ``val_col`` over
    ``order_col`` ascending — ``SUM(val) OVER (ORDER BY key ROWS UNBOUNDED
    PRECEDING AND 1 PRECEDING)`` at scale, same plan as ``distributed_rank``:
    bounded splitter sample on the order key, exact per-range partial SUMS
    (one (range, sum) row per batch), driver-side exclusive cumsum over the
    O(K) range totals, then a per-range local sort + cumsum + offset.
    ``order_col`` must be unique (a key); equal keys would make the local
    shift order ambiguous."""
    return _range_plan(
        ds, order_col, [order_col, val_col],
        lambda df: df[val_col].to_numpy(dtype=np.int64), np.add, 0,
        scan_block(order_col, val_col, out_col, np.add, 0),
        max_splitters=max_splitters,
    )[0]


# sentinel: no preceding row exists. It is a reserved value: a ``val_col``
# row equal to int64 min would be indistinguishable from "no prev" (its
# successors would read NULL), so ``distributed_prefix_max`` rejects it.
_NO_PREV = np.iinfo(np.int64).min


def distributed_prefix_max(
    ds: "ray.data.Dataset",
    order_col: str,
    val_col: str,
    out_col: str,
    *,
    max_splitters: int = 63,
) -> "ray.data.Dataset":
    """Append ``out_col`` = exclusive prefix MAX of ``val_col`` (int64) over
    ``order_col`` ascending — ``MAX(val) OVER (ORDER BY key ROWS UNBOUNDED
    PRECEDING AND 1 PRECEDING)`` at scale. This is the streaming WATERMARK
    primitive: with ``order_col`` = arrival sequence and ``val_col`` = event
    time, each row sees the high-water event time of everything that arrived
    before it. Same plan as ``distributed_prefix_sum`` (bounded splitter
    sample → exact per-range partial MAXES, O(K) driver state → per-range
    local scan + offset); the globally-first row gets NULL (pandas NA in the
    nullable Int64 output). ``order_col`` must be unique. int64 min is
    reserved (``_NO_PREV``, the "no preceding row" sentinel): a ``val_col``
    holding it raises ``ValueError``."""

    def values(df: pd.DataFrame) -> np.ndarray:
        v = df[val_col].to_numpy(dtype=np.int64)
        if len(v) and v.min() <= _NO_PREV:
            raise ValueError(
                f"distributed_prefix_max: {val_col!r} holds int64 min, the "
                "reserved no-preceding-row sentinel"
            )
        return v

    scan = scan_block(order_col, val_col, out_col, np.maximum, _NO_PREV)

    def block_pass(block, rng, off):
        block = scan(block, rng, off)
        wm = block[out_col].to_numpy()
        out = pd.array(wm, dtype="Int64")
        out[wm == _NO_PREV] = pd.NA
        block[out_col] = out
        return block

    return _range_plan(
        ds, order_col, [order_col, val_col], values, np.maximum, _NO_PREV,
        block_pass, max_splitters=max_splitters,
    )[0]
