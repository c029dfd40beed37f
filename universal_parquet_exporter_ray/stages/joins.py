"""Join strategies (SURVEY.md §2.4).

Two physical plans, chosen by the pipeline author per join:

- ``broadcast_merge``: dimension-side broadcast. The small side is ``ray.put``
  once (driver) and each ``map_batches`` task merges against the
  shared-memory copy — NO shuffle. This is the 100 TB-scale plan whenever one
  side fits in the object store (nation/customer-style dims, lookup maps).
- ``hash_join``: Ray Data's hash-partitioned join for two large sides
  (both sides shuffled on the key).

Semi/anti joins broadcast the key set and filter inside ``map_batches``.
"""

from __future__ import annotations

from typing import Literal, Optional

import pandas as pd

import ray


def broadcast_merge(
    ds: "ray.data.Dataset",
    small: pd.DataFrame,
    *,
    left_on: list[str],
    right_on: Optional[list[str]] = None,
    how: Literal["inner", "left"] = "inner",
) -> "ray.data.Dataset":
    """Hash-free dimension join: ``small`` is shipped to the object store once
    and merged into every batch with a vectorized pandas merge."""
    ref = ray.put(small)
    right_keys = right_on or left_on

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        dim = ray.get(ref)  # zero-copy read from local object store
        out = batch.merge(
            dim, how=how, left_on=left_on, right_on=right_keys, sort=False
        )
        for rk, lk in zip(right_keys, left_on):
            if rk != lk and rk in out.columns:
                out = out.drop(columns=[rk])
        return out

    return ds.map_batches(merge, batch_format="pandas")


# Broadcast budget: dimension sides below this row count ship via the object
# store (one ray.put, zero shuffle); anything larger goes through Ray's
# hash-partitioned join.  2M rows of a few narrow columns is tens of MB —
# comfortably inside a worker heap and the object store broadcast budget,
# while customer-sized tables at 100-TB scale (growing linearly with the
# corpus) exceed it and must shuffle.
BROADCAST_ROW_LIMIT = 2_000_000

_RAY_JOIN_TYPE = {"inner": "inner", "left": "left_outer"}

# share of the cluster's CPUs and memory one hash join reserves for its
# aggregator actors
JOIN_RESOURCE_SHARE = 0.25


def hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    left_on: list[str],
    right_on: Optional[list[str]] = None,
    how: Literal["inner", "left"] = "inner",
    num_partitions: Optional[int] = None,
) -> "ray.data.Dataset":
    """``Dataset.join`` sized to the cluster. ``num_partitions`` defaults to
    the shuffle parallelism ``tune_for_cluster`` sets (~2 per CPU). The
    aggregator actors together reserve at most ``JOIN_RESOURCE_SHARE`` of
    the cluster's memory (and never more than Ray's own estimate) and of
    its CPUs but one, so a whole CPU stays free for the read and map tasks
    that feed them. Ray's defaults assume a cluster config that a local
    session does not have: 0.125 CPU and 7 × 128 MiB per partition, so a
    32-partition join reserves 4 CPUs and 28 GiB, and on a smaller node the
    aggregators it cannot place never start and the join hangs (seen:
    join_multiway's hash plan on a 4-CPU, 15 GB session made no progress
    in 5 minutes)."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    n = num_partitions or ctx.default_hash_shuffle_parallelism
    res = ray.cluster_resources()
    share = JOIN_RESOURCE_SHARE / n
    block = ctx.target_max_block_size or 128 << 20
    return left.join(
        right,
        join_type=_RAY_JOIN_TYPE[how],
        num_partitions=n,
        on=tuple(left_on),
        right_on=tuple(right_on or left_on),
        aggregator_ray_remote_args={
            "num_cpus": min(1.0, max(0.0, res.get("CPU", 1) - 1) * share),
            "memory": int(min(7 * block, res.get("memory", 0) * share)),
            "scheduling_strategy": "SPREAD",
        },
    )


def thresholded_join(
    large: "ray.data.Dataset",
    small: "ray.data.Dataset",
    *,
    left_on: list[str],
    right_on: Optional[list[str]] = None,
    how: Literal["inner", "left"] = "inner",
    broadcast_limit: int = BROADCAST_ROW_LIMIT,
    num_partitions: Optional[int] = None,
) -> "ray.data.Dataset":
    """Size-thresholded join strategy (round-2 verdict item): broadcast the
    small side when it fits the object-store budget, hash-partition
    (``Dataset.join``) when it scales with the corpus.

    The probe is ``small.limit(broadcast_limit + 1).count()`` — streaming
    early-stop, so an over-limit side is never materialized just to be
    counted.  Both physical plans yield the same columns: the right-side
    key columns that duplicate the left's are dropped."""
    right_keys = right_on or left_on
    probe = small.limit(broadcast_limit + 1).count()
    if probe <= broadcast_limit:
        return broadcast_merge(
            large, small.to_pandas(), left_on=left_on, right_on=right_keys, how=how
        )
    joined = hash_join(
        large,
        small,
        left_on=left_on,
        right_on=right_keys,
        how=how,
        num_partitions=num_partitions,
    )
    drop = [rk for rk, lk in zip(right_keys, left_on) if rk != lk]
    if drop:
        cols_ref = {"drop": drop}

        def strip(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.drop(
                columns=[c for c in cols_ref["drop"] if c in batch.columns]
            )

        joined = joined.map_batches(strip, batch_format="pandas")
    return joined


def broadcast_semi(
    ds: "ray.data.Dataset", keys: set, col: str, *, anti: bool = False
) -> "ray.data.Dataset":
    """Semi (or anti) join: broadcast the key set, filter per batch."""
    ref = ray.put(keys)

    def filt(batch: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(ref)
        mask = batch[col].isin(ks)
        return batch[~mask] if anti else batch[mask]

    return ds.map_batches(filt, batch_format="pandas")


def asof_prev_group(
    time_col: str,
    type_col: str,
    left_type: str,
    right_type: str,
    id_col: str,
    no_match: int = -1,
):
    """map_groups reducer for a key-partitioned AS-OF join: within one key
    group, match every ``left_type`` row to the most recent ``right_type``
    row with time ≤ its own (sort once per group + one vectorized
    ``np.searchsorted`` merge; emits the microsecond gap, ``no_match`` when
    no prior row exists).

    Partitioning assumption (documented per the custom-operator contract):
    the join key co-locates each entity's full history on one worker — the
    standard distributed as-of form. When a single key's history exceeds a
    worker, switch to time-range partitioning with one-row boundary
    replication per range."""
    import numpy as np
    import pandas as pd

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(time_col, kind="stable")
        ts = g[time_col].to_numpy("datetime64[us]").astype(np.int64)
        et = g[type_col].to_numpy()
        lmask = et == left_type
        lids = g[id_col].to_numpy(np.int64)[lmask]
        lts = ts[lmask]
        rts = ts[et == right_type]
        if len(lts) == 0:
            return pd.DataFrame(
                {
                    id_col: pd.Series([], dtype="int64"),
                    "gap_us": pd.Series([], dtype="int64"),
                }
            )
        if len(rts) == 0:
            # np.where evaluates both branches eagerly; an empty right side
            # would index into an empty array even though the mask is all
            # False — short-circuit to the sentinel instead
            gap = np.full(len(lts), np.int64(no_match))
        else:
            idx = np.searchsorted(rts, lts, side="right") - 1
            gap = np.where(
                idx >= 0, lts - rts[np.clip(idx, 0, None)], np.int64(no_match)
            )
        return pd.DataFrame({id_col: lids, "gap_us": gap.astype(np.int64)})

    return reduce
