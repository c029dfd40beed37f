"""Distributed global RANK: range-partition + per-range local rank + exact
range offsets.

The classic scale plan for ``RANK() OVER (ORDER BY v)`` (reference:
``/root/reference/examples/advanced_integration_example.py:229``): no global
sorted pass, no driver-side distinct-value table (``o_totalprice`` is
near-unique, so that table is corpus-sized).

1. **Splitters** (bounded): a per-batch stride sample of the rank column is
   reduced to ≤``max_splitters`` quantile splitters on the driver.
2. **Exact range counts** (tiny): per-batch ``searchsorted`` + ``bincount``
   partials summed on the driver → exact exclusive offsets per range
   (``K`` integers, independent of data size).
3. **Rank pass**: ``groupby(range).map_groups`` — each range sorts locally
   and emits ``offset + local_rank`` (``min`` method = SQL RANK ties).

Equal values always share a range (ranges are split on sampled values with a
consistent ``side``), so ties never straddle ranges and the result is exact.
Driver state is O(K); every data-sized structure stays in workers.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data


def _sample_stage(col: str, per_batch: int = 32):
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        v = df[col].dropna().to_numpy()
        if len(v) == 0:
            return pd.DataFrame({col: pd.Series([], dtype="float64")})
        step = max(1, len(v) // per_batch)
        return pd.DataFrame({col: v[::step][:per_batch]})

    return fn


def _range_counts_stage(col: str, splitters: np.ndarray, n_ranges: int):
    ref = ray.put(splitters)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        sp = ray.get(ref)
        r = np.searchsorted(sp, df[col].to_numpy(), side="right")
        counts = np.bincount(r, minlength=n_ranges)
        return pd.DataFrame(
            {
                "rng": np.arange(n_ranges, dtype=np.int64),
                "n": counts.astype(np.int64),
            }
        )

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
    # 1. bounded splitter sample (stride per batch → quantiles on the driver)
    sample = (
        ds.select_columns([col])
        .map_batches(_sample_stage(col), batch_format="pandas")
        .to_pandas()[col]
        .to_numpy()
    )
    qs = np.linspace(0, 1, max_splitters + 2)[1:-1]
    splitters = np.unique(np.quantile(sample, qs)) if len(sample) else np.array([])
    n_ranges = len(splitters) + 1

    # 2. exact per-range counts (partial bincount per batch, tiny driver merge)
    partials = (
        ds.select_columns([col])
        .map_batches(_range_counts_stage(col, splitters, n_ranges), batch_format="pandas")
        .to_pandas()
    )
    counts = (
        partials.groupby("rng")["n"].sum().reindex(range(n_ranges), fill_value=0).to_numpy()
    )
    # exclusive offset: rows ranked BEFORE range r. For descending rank the
    # highest range (largest values) comes first.
    if descending:
        offsets = np.concatenate([[0], np.cumsum(counts[::-1])[:-1]])[::-1].copy()
    else:
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    off_ref = ray.put(offsets)
    sp_ref = ray.put(splitters)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        sp = ray.get(sp_ref)
        df = df.copy()
        df["_rng"] = np.searchsorted(sp, df[col].to_numpy(), side="right").astype(
            np.int64
        )
        return df

    def rank_group(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        rng = int(g["_rng"].iloc[0])
        local = g[col].rank(method="min", ascending=not descending).astype("int64")
        g = g.drop(columns=["_rng"]).copy()
        g[out_col] = local + int(off[rng])
        return g

    ranked = (
        ds.map_batches(assign, batch_format="pandas")
        .groupby("_rng")
        .map_groups(rank_group, batch_format="pandas")
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
    sample = (
        ds.select_columns([order_col])
        .map_batches(_sample_stage(order_col), batch_format="pandas")
        .to_pandas()[order_col]
        .to_numpy()
    )
    qs = np.linspace(0, 1, max_splitters + 2)[1:-1]
    splitters = np.unique(np.quantile(sample, qs)) if len(sample) else np.array([])
    n_ranges = len(splitters) + 1
    sp_ref = ray.put(splitters)

    def range_sums(df: pd.DataFrame) -> pd.DataFrame:
        sp = ray.get(sp_ref)
        r = np.searchsorted(sp, df[order_col].to_numpy(), side="right")
        v = df[val_col].to_numpy(dtype=np.int64)
        sums = np.bincount(r, weights=v, minlength=n_ranges).astype(np.int64)
        return pd.DataFrame(
            {"rng": np.arange(n_ranges, dtype=np.int64), "s": sums}
        )

    partials = (
        ds.select_columns([order_col, val_col])
        .map_batches(range_sums, batch_format="pandas")
        .to_pandas()
    )
    totals = (
        partials.groupby("rng")["s"].sum().reindex(range(n_ranges), fill_value=0).to_numpy()
    )
    offsets = np.concatenate([[0], np.cumsum(totals)[:-1]])
    off_ref = ray.put(offsets)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        sp = ray.get(sp_ref)
        df = df.copy()
        df["_rng"] = np.searchsorted(sp, df[order_col].to_numpy(), side="right").astype(
            np.int64
        )
        return df

    def scan_group(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        rng = int(g["_rng"].iloc[0])
        g = g.sort_values(order_col).drop(columns=["_rng"]).copy()
        v = g[val_col].to_numpy(dtype=np.int64)
        g[out_col] = np.concatenate([[0], np.cumsum(v)[:-1]]) + int(off[rng])
        return g

    return (
        ds.map_batches(assign, batch_format="pandas")
        .groupby("_rng")
        .map_groups(scan_group, batch_format="pandas")
    )


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
    sample = (
        ds.select_columns([order_col])
        .map_batches(_sample_stage(order_col), batch_format="pandas")
        .to_pandas()[order_col]
        .to_numpy()
    )
    qs = np.linspace(0, 1, max_splitters + 2)[1:-1]
    splitters = np.unique(np.quantile(sample, qs)) if len(sample) else np.array([])
    n_ranges = len(splitters) + 1
    sp_ref = ray.put(splitters)

    def range_maxes(df: pd.DataFrame) -> pd.DataFrame:
        sp = ray.get(sp_ref)
        r = np.searchsorted(sp, df[order_col].to_numpy(), side="right")
        v = df[val_col].to_numpy(dtype=np.int64)
        if len(v) and v.min() <= _NO_PREV:
            raise ValueError(
                f"distributed_prefix_max: {val_col!r} holds int64 min, the "
                "reserved no-preceding-row sentinel"
            )
        # segmented max via sort + reduceat: np.maximum.at's unbuffered
        # scatter is the 10-30x-slower path the codebase avoids elsewhere
        # (KMeansPartial note), and this runs once per batch of the corpus
        maxes = np.full(n_ranges, _NO_PREV, dtype=np.int64)
        order = np.argsort(r, kind="stable")
        rs, vs = r[order], v[order]
        present, starts = np.unique(rs, return_index=True)
        if len(present):
            maxes[present] = np.maximum.reduceat(vs, starts)
        return pd.DataFrame(
            {"rng": np.arange(n_ranges, dtype=np.int64), "m": maxes}
        )

    partials = (
        ds.select_columns([order_col, val_col])
        .map_batches(range_maxes, batch_format="pandas")
        .to_pandas()
    )
    totals = (
        partials.groupby("rng")["m"]
        .max()
        .reindex(range(n_ranges), fill_value=_NO_PREV)
        .to_numpy()
    )
    # exclusive running max over the O(K) range maxes: range r's incoming
    # watermark is the max of every range strictly before it
    offsets = np.concatenate(
        [[_NO_PREV], np.maximum.accumulate(totals)[:-1]]
    ).astype(np.int64)
    off_ref = ray.put(offsets)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        sp = ray.get(sp_ref)
        df = df.copy()
        df["_rng"] = np.searchsorted(
            sp, df[order_col].to_numpy(), side="right"
        ).astype(np.int64)
        return df

    def scan_group(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        rng = int(g["_rng"].iloc[0])
        g = g.sort_values(order_col).drop(columns=["_rng"]).copy()
        v = g[val_col].to_numpy(dtype=np.int64)
        local = np.concatenate(
            [[_NO_PREV], np.maximum.accumulate(v)[:-1]]
        )
        combined = np.maximum(local, int(off[rng]))
        out = pd.array(combined, dtype="Int64")
        out[combined == _NO_PREV] = pd.NA
        g[out_col] = out
        return g

    return (
        ds.map_batches(assign, batch_format="pandas")
        .groupby("_rng")
        .map_groups(scan_group, batch_format="pandas")
    )
