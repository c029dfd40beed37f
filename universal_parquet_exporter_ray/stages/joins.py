"""Join strategies (SURVEY.md §2.4).

Two physical plans; ``thresholded_join`` is the one place that picks
between them, and both yield the same columns and rows:

- ``broadcast_merge``: dimension-side broadcast. The small side rides in
  the ``map_batches`` closure, which Ray Data puts in the object store
  once per operator, and each task merges it into its batches — NO
  shuffle. This is the 100 TB-scale plan whenever one side fits in the
  object store (nation/customer-style dims, lookup maps).
- ``hash_join``: two large sides co-located on the key by
  ``stages.co_partition`` (a tagged union sorted on the key hash, in
  plain tasks), one pandas merge per sorted block.

Both follow SQL for null keys: the right side's null-key rows are
dropped before the merge (pandas would match NaN to NaN), so an inner
join drops a left null-key row and a left join keeps it unmatched.

Semi/anti joins capture the key set the same way and filter inside
``map_batches``.
"""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from .agg import to_frame


def _merge(
    left: pd.DataFrame,
    right: pd.DataFrame,
    left_on: list[str],
    right_on: list[str],
    how: str,
) -> pd.DataFrame:
    """The one merge of both plans: a right side with no null key, and the
    right-side key columns that duplicate the left's dropped."""
    out = left.merge(right, how=how, left_on=left_on, right_on=right_on, sort=False)
    drop = [rk for rk, lk in zip(right_on, left_on) if rk != lk and rk in out.columns]
    return out.drop(columns=drop)


def broadcast_merge(
    ds: "ray.data.Dataset",
    small: pd.DataFrame,
    *,
    left_on: list[str],
    right_on: Optional[list[str]] = None,
    how: Literal["inner", "left"] = "inner",
) -> "ray.data.Dataset":
    """Hash-free dimension join: ``small``, its null-key rows dropped once
    on the driver, rides in the closure (one object store copy per
    operator) and is merged into every batch with a vectorized pandas
    merge."""
    right_keys = right_on or left_on
    small = small.dropna(subset=right_keys)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        return _merge(batch, small, left_on, right_keys, how)

    return ds.map_batches(merge, batch_format="pandas")


# Broadcast budget: dimension sides below this row count ship in the map
# closure (one object-store copy, zero shuffle); anything larger goes
# through ``hash_join``.  2M rows of a few narrow columns is tens of MB —
# comfortably inside a worker heap and the object store broadcast budget,
# while customer-sized tables at 100-TB scale (growing linearly with the
# corpus) exceed it and must shuffle.
BROADCAST_ROW_LIMIT = 2_000_000

# private columns of ``hash_join``'s tagged union: the side of a row
# (0 left, 1 right), and the prefix that keeps the right side's non-key
# columns apart from the left's
_SIDE = "__join_side"
_RIGHT = "__right."


def _placeholder(t: pa.DataType, n: int) -> pa.Array:
    """``n`` values of type ``t`` for the other side's columns in a row of
    ``hash_join``'s tagged union; the block body never reads them. Integer
    and boolean columns get zeros, because pandas turns such a column that
    holds a null into float64 (corrupting ids above 2^53) or object; any
    other type gets nulls, which pandas keeps in the column's own dtype."""
    if pa.types.is_integer(t) or pa.types.is_boolean(t):
        return pa.array(np.zeros(n, t.to_pandas_dtype()), t)
    return pa.nulls(n, t)


def hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    left_on: list[str],
    right_on: Optional[list[str]] = None,
    how: Literal["inner", "left"] = "inner",
) -> "ray.data.Dataset":
    """Join of two large sides through ``co_partition``: the rows of a key
    from both sides land in one sorted block, and each block runs the
    pandas merge of ``broadcast_merge`` (same columns, same SQL null-key
    rule).

    Each side is tagged in Arrow: the left side as it is, the right side
    with its keys under the left's key names and its other columns
    prefixed. Both sides then enter the union with one schema, each row
    carrying the other side's columns as ``_placeholder`` values: no
    schema-mismatch warning, and no int64 column that pandas would turn
    into float64. That needs both schemas before the union. A side whose
    schema the plan knows (a table read) streams into the sort; any other
    side is tagged and materialized when ``hash_join`` is called, which
    adds no pass over the data (the sort waits for every input block
    anyway). The block body splits the rows by side and drops the right
    side's null-key rows before the merge."""
    from . import co_partition

    right_on = right_on or left_on
    to_left = dict(zip(right_on, left_on))

    def tag_left(t: pa.Table) -> pa.Table:
        return t.append_column(_SIDE, pa.array(np.zeros(len(t), np.int8)))

    def tag_right(t: pa.Table) -> pa.Table:
        names = [to_left.get(c, _RIGHT + c) for c in t.column_names]
        side = pa.array(np.ones(len(t), np.int8))
        return t.rename_columns(names).append_column(_SIDE, side)

    def tagged(ds, tag):
        known = ds.schema(fetch_if_missing=False)
        if known is not None and isinstance(known.base_schema, pa.Schema):
            schema = tag(known.base_schema.empty_table()).schema
            return ds.map_batches(tag, batch_format="pyarrow"), schema
        ds = ds.map_batches(tag, batch_format="pyarrow").materialize()
        schema = ds.schema()  # None: no block, so no row
        return ds, schema and schema.base_schema

    (lds, lschema), (rds, rschema) = tagged(left, tag_left), tagged(right, tag_right)
    if lschema is None:
        return lds
    if rschema is None:
        # no right row: only a left join's left rows remain, without the
        # right side's columns (no block carries their schema)
        kept = lds if how == "left" else lds.limit(0)
        return kept.drop_columns([_SIDE])
    union = pa.unify_schemas([lschema, rschema], promote_options="permissive")
    union = union.remove_metadata()

    def fill(t: pa.Table) -> pa.Table:
        cols = [
            t[f.name] if f.name in t.column_names else _placeholder(f.type, len(t))
            for f in union
        ]
        return pa.Table.from_arrays(cols, names=union.names).cast(union)

    left_cols = [c for c in lschema.names if c != _SIDE]
    right_cols = [c for c in rschema.names if c != _SIDE]
    to_right = {lk: rk for rk, lk in to_left.items()}
    to_right.update({c: c[len(_RIGHT) :] for c in right_cols if c.startswith(_RIGHT)})

    def merge_block(g: pd.DataFrame) -> pd.DataFrame:
        is_right = g[_SIDE].to_numpy() == 1
        r = g.loc[is_right, right_cols].rename(columns=to_right)
        r = r.dropna(subset=right_on)
        return _merge(g.loc[~is_right, left_cols], r, left_on, right_on, how)

    filled = [ds.map_batches(fill, batch_format="pyarrow") for ds in (lds, rds)]
    return co_partition(filled, left_on, merge_block)


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
    object-store budget, co-partition both sides (``hash_join``) when it
    scales with the corpus.

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
    return hash_join(large, small, left_on=left_on, right_on=right_keys, how=how)


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
