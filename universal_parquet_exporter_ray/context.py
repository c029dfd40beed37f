"""Cluster sizing: how many blocks a read or a task wave gets, and the
DataContext cap on the read floor.

``block_count(nbytes)`` is the one block-count rule: every package table
read (``sources.tables.read_parquet_clean``) and the decode
(``pipelines.verify.decoded_dataset``) size themselves with it, and the
encode wave (``pipelines.encode._wave_bins``) packs one bin per slot
while it gives one block per slot. A read counts on-disk (compressed)
bytes and asks for ``block_count`` blocks; Ray's own autodetect would
floor it at ``2 × CPUs`` (a 1.5 KB table became 2 blocks on 1 CPU and 8
on 4), each block one more task in every downstream operator. A table
read makes one read task per contiguous range of row groups, at most one
per block: a file of at least ``block_count`` row groups gives one task
per block, and the next map fuses into the read; a file of fewer row
groups gives fewer tasks, whose output Ray splits to the block count, and
a splitting read does not fuse. Ray still splits any read block whose
estimated in-memory size passes ``target_max_block_size``.
``file_chunks`` deals the files of a task wave (the encode's key counts)
into one chunk per CPU slot.

Ray Data's read floor (``read_op_min_num_blocks = 200``) is sized for
large multi-node clusters; on an N-CPU node it splits a read that Ray
autodetects into 200 blocks of fixed scheduling overhead.
``tune_for_cluster`` caps it at ~2×CPUs (never raising it). The package
sets no shuffle width: ``stages.co_partition``'s sort makes one partition
per input block, and no package operator reads Ray's hash-shuffle
parallelism. Called lazily by sources.load_table so it runs once per
session, only after the CALLER has initialised Ray."""

from __future__ import annotations

import math

# smallest input, in bytes, worth one Ray Data block beyond one per CPU
# slot: below it the fixed per-task cost outweighs the parallelism
MIN_BLOCK_BYTES = 16 << 20

_tuned = False


def cpu_slots() -> int:
    """CPUs of the Ray cluster (at least 1). Like a Ray Data read, it
    starts a local Ray when none is running."""
    import ray
    from ray._private.auto_init_hook import auto_init_ray

    auto_init_ray()
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def block_count(nbytes: int) -> int:
    """Blocks (tasks) for ``nbytes`` of input: one per CPU slot, and more
    only once each would still hold ``MIN_BLOCK_BYTES``."""
    return max(cpu_slots(), math.ceil(nbytes / MIN_BLOCK_BYTES))


def file_chunks(files: list[str]) -> list[list[str]]:
    """``files`` dealt round-robin into at most one chunk per CPU slot: ONE
    task wave. A file count above the slot count otherwise quantizes into
    several scheduling waves of ~ms tasks, and a serial driver loop costs
    ~ms × #files on every run and every resume (review r5)."""
    n = min(len(files), cpu_slots())
    return [files[i::n] for i in range(n)]


def tune_for_cluster() -> None:
    """Cap the read floor at ``max(8, 2 × CPUs)``. Package reads pass
    their own block count (``block_count``), so the cap only still matters
    for reads a caller builds with Ray's autodetect (``read_sql``); it
    cannot lower Ray's ``2 × CPUs`` read floor."""
    global _tuned
    if _tuned:
        return
    try:
        import ray
        from ray.data import DataContext

        if not ray.is_initialized():
            return
        target = max(8, 2 * cpu_slots())
        ctx = DataContext.get_current()
        # read_op_min_num_blocks is the Ray 2.10+ name; touching the old
        # min_parallelism alias logs a deprecation warning on every job
        # (accessing the NEW name has no such side effect, so a plain
        # instance hasattr probe is safe)
        attr = (
            "read_op_min_num_blocks"
            if hasattr(ctx, "read_op_min_num_blocks")
            else "min_parallelism"
        )
        if getattr(ctx, attr, 0) and getattr(ctx, attr) > target:
            setattr(ctx, attr, target)
        _tuned = True
    except Exception:
        pass
