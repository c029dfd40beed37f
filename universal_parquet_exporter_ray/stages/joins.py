"""Join strategies (SURVEY.md §2.4).

Two physical plans; ``thresholded_join`` is the one place that picks
between them:

- ``broadcast_merge``: dimension-side broadcast. The small side rides in
  the ``map_batches`` closure, which Ray Data puts in the object store
  once per operator, and each task merges it into its batches — NO
  shuffle. This is the 100 TB-scale plan whenever one side fits in the
  object store (nation/customer-style dims, lookup maps).
- ``hash_join``: Ray Data's hash-partitioned join for two large sides
  (both sides shuffled on the key).

Semi/anti joins capture the key set the same way and filter inside
``map_batches``.
"""

from __future__ import annotations

from typing import Literal, Optional

import pandas as pd

import ray

from .agg import to_frame


def broadcast_merge(
    ds: "ray.data.Dataset",
    small: pd.DataFrame,
    *,
    left_on: list[str],
    right_on: Optional[list[str]] = None,
    how: Literal["inner", "left"] = "inner",
) -> "ray.data.Dataset":
    """Hash-free dimension join: ``small`` rides in the closure (one object
    store copy per operator) and is merged into every batch with a
    vectorized pandas merge."""
    right_keys = right_on or left_on

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.merge(
            small, how=how, left_on=left_on, right_on=right_keys, sort=False
        )
        for rk, lk in zip(right_keys, left_on):
            if rk != lk and rk in out.columns:
                out = out.drop(columns=[rk])
        return out

    return ds.map_batches(merge, batch_format="pandas")


# Broadcast budget: dimension sides below this row count ship in the map
# closure (one object-store copy, zero shuffle); anything larger goes
# through Ray's hash-partitioned join.  2M rows of a few narrow columns is
# tens of MB — comfortably inside a worker heap and the object store
# broadcast budget, while customer-sized tables at 100-TB scale (growing
# linearly with the corpus) exceed it and must shuffle.
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

    from ..context import tune_for_cluster

    # Ray's default parallelism is 200 until something tunes the context
    tune_for_cluster()
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
    small: "ray.data.Dataset | pd.DataFrame",
    *,
    left_on: list[str],
    right_on: Optional[list[str]] = None,
    how: Literal["inner", "left"] = "inner",
) -> "ray.data.Dataset":
    """Size-thresholded join strategy, the package's one broadcast-vs-
    partition choice: broadcast the small side when it fits the
    object-store budget, hash-partition (``Dataset.join``) when it scales
    with the corpus.

    A pandas ``small`` (a result already on the driver, e.g. a final
    within ``stages.agg.final_reduce``'s caps) broadcasts without a probe.
    A Dataset is probed with ``small.limit(BROADCAST_ROW_LIMIT +
    1).count()``, with the limit read when the join runs — streaming
    early-stop, so an over-limit side is never materialized just to be
    counted.  Both physical plans yield the same columns: the right-side
    key columns that duplicate the left's are dropped."""
    right_keys = right_on or left_on
    limit = BROADCAST_ROW_LIMIT
    if isinstance(small, pd.DataFrame) or small.limit(limit + 1).count() <= limit:
        return broadcast_merge(
            large, to_frame(small), left_on=left_on, right_on=right_keys, how=how
        )
    joined = hash_join(
        large,
        small,
        left_on=left_on,
        right_on=right_keys,
        how=how,
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
    """Semi (or anti) join: the key set rides in the closure, each batch
    is filtered against it."""

    def filt(batch: pd.DataFrame) -> pd.DataFrame:
        mask = batch[col].isin(keys)
        return batch[~mask] if anti else batch[mask]

    return ds.map_batches(filt, batch_format="pandas")


def asof_prev_group(
    key_col: str,
    time_col: str,
    type_col: str,
    left_type: str,
    right_type: str,
    id_col: str,
    no_match: int = -1,
):
    """Reducer for a key-partitioned AS-OF join over a frame holding any
    number of keys: match every ``left_type`` row to the most recent
    ``right_type`` row of the same ``key_col`` value with time ≤ its own,
    and emit the microsecond gap (``no_match`` when no prior row exists).

    One sort on (key, time, side), right rows before left rows at equal
    time so a right row at ``l.ts`` counts (tie rule ``r.ts <= l.ts``).
    A running max over right-row positions then gives each row the last
    right row at or before it; it is a match when that row has the same
    key. No per-key Python.

    Partitioning assumption (documented per the custom-operator contract):
    the join key co-locates each entity's full history in one call — the
    standard distributed as-of form (``stages.co_partition``). When a
    single key's history exceeds a worker, switch to time-range
    partitioning with one-row boundary replication per range."""
    import numpy as np
    import pandas as pd

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        et = g[type_col].to_numpy()
        is_left = et == left_type
        keep = is_left | (et == right_type)
        key = g[key_col].to_numpy()[keep]
        ts = g[time_col].to_numpy("datetime64[us]").astype(np.int64)[keep]
        ids = g[id_col].to_numpy(np.int64)[keep]
        is_left = is_left[keep]
        order = np.lexsort((is_left, ts, key))
        key, ts, ids, is_left = key[order], ts[order], ids[order], is_left[order]
        # last right row at or before each row; -1 (none yet) clips to row
        # 0, which is then a left row and never a hit
        last_r = np.maximum.accumulate(np.where(is_left, -1, np.arange(len(ts))))
        last_r = np.clip(last_r, 0, None)
        hit = ~is_left[last_r] & (key[last_r] == key)
        gap = np.where(hit, ts - ts[last_r], np.int64(no_match))
        return pd.DataFrame(
            {id_col: ids[is_left], "gap_us": gap[is_left].astype(np.int64)}
        )

    return reduce
