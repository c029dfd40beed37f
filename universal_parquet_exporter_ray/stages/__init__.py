import numpy as np
import pandas as pd
import pyarrow as pa

from .encoder import PART_COL, PartitionDecoder, PartitionEncoder  # noqa: F401
from .salting import AssignPartitions, build_salt_map  # noqa: F401

# private key-hash column stamped by co_partition(); never reaches ``fn``
_HASH = "__co_part"


def partition_of(frame: pd.DataFrame, keys) -> np.ndarray:
    """int64 64-bit hash of each row's ``keys`` values: the one place the
    engine computes the hash a groupby or a co-partitioned (tagged-union)
    join shuffles on.

    ``pd.util.hash_pandas_object`` is deterministic across processes
    (unlike Python ``hash``), hashes strings by content, combines several
    key columns, and gives every null key one hash. Numeric keys hash as
    float64 (``-0.0`` folded into ``0.0``) so a value gets the same hash
    whatever dtype its block carries: an Arrow int64 column becomes int64
    in a null-free pandas batch but float64 in a batch with nulls."""
    cols = {}
    for i, k in enumerate(keys):
        s = frame[k]
        if pd.api.types.is_numeric_dtype(s.dtype):
            s = pd.Series(s.to_numpy(np.float64, na_value=np.nan) + 0.0)
        cols[i] = s.reset_index(drop=True)
    h = pd.util.hash_pandas_object(pd.DataFrame(cols), index=False)
    return h.to_numpy(np.uint64).view(np.int64)


def co_partition(ds, keys, fn):
    """``fn`` over key co-partitions of ``ds``: every row of one ``keys``
    value reaches exactly one ``fn(frame)`` call, so per-key reductions
    inside ``fn`` (vectorized pandas groupbys, dedups, pair enumeration)
    are global.

    ``ds`` is one Dataset or a list of them with the same columns (a
    tagged-union join): each input is stamped before the union, so each
    stamp fuses into the map that tags its side.

    ``fn`` runs once per sorted block, not once per key: one call sees
    many keys, so it must reduce per key itself and never assume its frame
    holds one key. It never sees a zero-row frame: the sort's empty
    partitions are zero-row blocks, and Ray's ``map_batches`` never calls
    its function on one (``test_map_batches_skips_zero_row_blocks``), so
    no ``fn`` and no per-batch stage needs an empty-input branch.

    The key hash (``partition_of``) is stamped by a ``map_batches`` in the
    block's own format (no pandas/Arrow conversion; Ray fuses it into the
    stage before it) and dropped before ``fn`` sees the frame.
    ``sort(hash)`` range-partitions on the hash with sampled boundaries,
    so all rows of a key land in one block, with no Python loop over the
    groups of each block. The sort makes one partition per input block,
    so the input's blocks (sized by bytes, ``context.block_count``) set
    the shuffle width; no caller picks a bucket count. Besides this, only
    ``joins.hash_join`` (Ray's ``Dataset.join``, above
    ``BROADCAST_ROW_LIMIT``) co-locates the rows of a key."""
    keys = list(keys)

    def stamp(batch):
        if isinstance(batch, pa.Table):
            part = partition_of(batch.select(keys).to_pandas(), keys)
            return batch.append_column(_HASH, pa.array(part))
        out = batch.copy(deep=False)
        out[_HASH] = partition_of(batch, keys)
        return out

    def run(block: pd.DataFrame):
        return fn(block.drop(columns=_HASH))

    first, *rest = ds if isinstance(ds, (list, tuple)) else [ds]
    both = first.map_batches(stamp, batch_format=None)
    if rest:
        both = both.union(*(d.map_batches(stamp, batch_format=None) for d in rest))
    return both.sort(_HASH).map_batches(run, batch_size=None, batch_format="pandas")


def per_key(frame: pd.DataFrame, key: str, fn) -> pd.DataFrame:
    """``fn`` once per ``key`` group of a ``co_partition`` block, results
    concatenated: the form for reducers whose per-key work is a matmul or
    a file write rather than a vectorized groupby. ``frame`` has rows (a
    ``co_partition`` block always does)."""
    return pd.concat(
        [fn(g) for _, g in frame.groupby(key, sort=False, dropna=False)],
        ignore_index=True,
    )


def map_stage(ds, cls, ctor=None, **mb):
    """``ds.map_batches`` of the callable-class stage ``cls(**ctor)``: the
    package's one per-batch stage form, and its one way to ship driver
    state (models, idf tables, blob arrays, probe sets) to a stage.

    ``ctor`` rides in the closure, which Ray Data puts in the object store
    once per operator, so every task of the stage fetches it from there
    and no caller sizes a payload or holds a ref. The stage runs as plain
    tasks on the workers earlier stages already warmed, and each batch
    builds ``cls(**ctor)``: every stage constructor stores its arrays or
    compiles a few regexes, microseconds against an actor's process spawn
    and imports (~1 s)."""
    ctor = ctor or {}

    def run(batch):
        return cls(**ctor)(batch)

    run.__name__ = cls.__name__
    return ds.map_batches(run, **mb)
