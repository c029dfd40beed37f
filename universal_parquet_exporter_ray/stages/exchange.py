"""Explicit file-based exchange: the encode pipeline's shuffle, in place of
Ray's sort-based groupby shuffle.

Why: a sort shuffle moves every row through the sort machinery and its
coordination cost dominates medium-sized jobs; at cluster scale the same
pattern (map-side hash split → shared-storage chunk files → one reduce task
per partition) is the classic external shuffle used by production engines on
object storage. Here the "shared storage" is a directory (on a cluster:
NFS/S3-style storage reachable by all nodes).

Stage 1 (``SpillPartitions``): each input batch is vectorized-split by the
``_part`` column (one dictionary-encode + one take) and the partition slices
are IPC-serialized back-to-back into one uniquely-named map-output file per
batch, ``<uuid>-<rows>.arrow`` (atomic temp+rename). The stage emits one
**ack row per slice** carrying (pid, raw key, file name, offset, rows,
bytes).

Correctness under retries is COMMIT-BY-ACK, not content addressing: stage 2
reads exactly the ranges named in the ack rows the spill calls returned. Ray
discards the output of a failed task attempt, so orphan files written by a
failed-then-retried spill task are never read; and two distinct batches
whose slices happen to be byte-identical (duplicate-heavy corpora) get
distinct file names, so no rows are ever silently dropped. (An earlier
design used crc32-content-addressed names; identical-content slices from
different batches then collapsed into one file — a silent row loss.)

Stage 2 (``ExchangeEncoder``): one task per partition-group reads exactly the
acked ranges (sorted by file name and offset) and encodes each
partition via ``PartitionEncoder.encode_partition``.
"""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .encoder import PART_COL, PartitionEncoder
from ..state.manifest import sanitize_partition_id

ACK_SCHEMA = pa.schema(
    [
        ("pid", pa.string()),
        ("raw", pa.string()),
        ("file", pa.string()),
        ("off", pa.int64()),
        ("rows", pa.int64()),
        ("bytes", pa.int64()),
        # per-call timing, recorded on the FIRST ack row of each spill call
        # (0 elsewhere): wall + thread-CPU seconds inside the fused
        # read→assign→split→spill UDF. Summed by encode_dataset into
        # LAST_PHASES["spill_busy_s"/"spill_cpu_s"] so scaling decompositions
        # can split the spill phase into task busy time vs scheduling gaps.
        ("busy_s", pa.float64()),
        ("cpu_s", pa.float64()),
        ("sys_s", pa.float64()),
    ]
)

# per-worker-process rusage watermark: successive spill calls report the
# process CPU delta since the previous call, so the sum over all ack rows
# equals total worker CPU spent in the fused read→spill stage (parquet
# decode included — the read fuses into the same task/process). Keyed by the
# job's exchange dir: a reused worker's first call in a NEW job re-baselines
# instead of absorbing the previous job's post-spill CPU.
_LAST_RU: list = []  # [utime, stime, job_key]


def _ipc_table_buffer(table: pa.Table) -> pa.Buffer:
    """IPC-serialize one spill chunk, lz4-frame-compressed.

    Exchange bytes are shuffle bytes: on a real cluster they cross the
    network and land on disk, and even on the single-box /dev/shm tier the
    dominant cost under memory pressure is allocating the pages themselves
    — lz4 cuts both ~2-3× on text-heavy tables for a few hundred MB/s/core
    of scalable CPU (zstd measured slower end to end). Arrow IPC body
    compression is self-describing, so the reader needs no flag."""
    opts = pa.ipc.IpcWriteOptions(compression="lz4")
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema, options=opts) as w:
        w.write_table(table)
    return sink.getvalue()


def read_ipc_range(path: str, off: int, length: int) -> pa.Table:
    """One partition slice out of a map-output file: zero-copy slice of the
    memory map + IPC stream open on the slice."""
    buf = pa.memory_map(path).read_buffer()
    with pa.ipc.open_stream(buf.slice(off, length)) as r:
        return r.read_all()


class SpillPartitions:
    """Spill stage: split a batch by ``_part`` and write ONE map-output
    file per batch — every partition slice IPC-serialized back-to-back, with
    per-slice (offset, length) recorded in the ack rows (the Spark-style
    shuffle-file layout). Emits one ack row per slice; downstream reads ONLY
    acked (file, offset, length) ranges (commit-by-ack).

    Round-4: replaces one-file-per-(batch × partition) — at 256 partitions
    the per-chunk create/rename/close overhead alone cost ~4.5 ms × 36k
    chunks ≈ 160 worker-seconds on the 8M-row scaling fixture; one file per
    batch cuts the filesystem ops by the partition count while keeping the
    same retry story (a failed attempt's orphan FILE is simply never read)."""

    def __init__(self, exchange_dir: str):
        self.exchange_dir = exchange_dir

    def __call__(self, batch: pa.Table) -> pa.Table:
        import resource
        import time as _time

        _t0 = _time.monotonic()
        if batch.num_rows == 0:
            return ACK_SCHEMA.empty_table()
        # vectorized split: dictionary-encode the key, sort by code, slice runs
        codes_arr = pc.dictionary_encode(batch[PART_COL].combine_chunks())
        codes = codes_arr.indices.to_numpy(zero_copy_only=False)
        labels = codes_arr.dictionary.to_pylist()
        order = np.argsort(codes, kind="stable")
        sorted_batch = batch.take(pa.array(order))
        sorted_codes = codes[order]
        boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [len(codes)]])
        acks = {k: [] for k in ("pid", "raw", "off", "rows", "bytes")}
        data = sorted_batch.drop_columns([PART_COL])
        bufs = []
        off = 0
        for s, e in zip(starts, ends):
            raw_pid = str(labels[sorted_codes[s]])
            pid = sanitize_partition_id(raw_pid)
            sl = data.slice(int(s), int(e - s))
            buf = _ipc_table_buffer(sl)
            bufs.append(buf)
            acks["pid"].append(pid)
            acks["raw"].append(raw_pid)
            acks["off"].append(off)
            acks["rows"].append(sl.num_rows)
            acks["bytes"].append(len(buf))
            off += len(buf)
        # unique name per written map file: identical-content batches never
        # collide; a retried task's orphan file is excluded because only
        # THIS attempt's ack rows are consumed
        name = f"{uuid.uuid4().hex}-{batch.num_rows}.arrow"
        tmp = os.path.join(self.exchange_dir, f".tmp-{name}")
        with open(tmp, "wb") as f:
            for buf in bufs:
                f.write(buf)
        os.replace(tmp, os.path.join(self.exchange_dir, name))
        ru = resource.getrusage(resource.RUSAGE_SELF)
        if _LAST_RU and _LAST_RU[2] == self.exchange_dir:
            cpu_s = ru.ru_utime - _LAST_RU[0]
            sys_s = ru.ru_stime - _LAST_RU[1]
            _LAST_RU[0], _LAST_RU[1] = ru.ru_utime, ru.ru_stime
        else:
            # first call in this worker for this job: no baseline (process
            # lifetime / prior-job CPU would overcount) — report 0
            cpu_s = sys_s = 0.0
            _LAST_RU[:] = [ru.ru_utime, ru.ru_stime, self.exchange_dir]
        n = len(bufs)
        timing = lambda v: pa.array([v] + [0.0] * (n - 1), type=pa.float64())  # noqa: E731
        return pa.table(
            {
                "pid": pa.array(acks["pid"], type=pa.string()),
                "raw": pa.array(acks["raw"], type=pa.string()),
                "file": pa.array([name] * n, type=pa.string()),
                "off": pa.array(acks["off"], type=pa.int64()),
                "rows": pa.array(acks["rows"], type=pa.int64()),
                "bytes": pa.array(acks["bytes"], type=pa.int64()),
                "busy_s": timing(_time.monotonic() - _t0),
                "cpu_s": timing(cpu_s),
                "sys_s": timing(sys_s),
            }
        )


class ExchangeEncoder(PartitionEncoder):
    """Stage-2 worker: each input row is one partition bundle (pids, raw
    keys, acked chunk-file lists); reads exactly those chunks and encodes
    each as one partition."""

    def __init__(self, out_dir: str, exchange_dir: str, lineage: dict | None = None):
        super().__init__(out_dir, lineage)
        self.exchange_dir = exchange_dir

    def __call__(self, batch) -> pa.Table:
        import time as _time

        import json as _json

        outs = []
        for row in batch.to_pylist():
            for pid, raw_pid, ranges_json in zip(
                row["pids"], row["raws"], row["files"]
            ):
                ranges = _json.loads(ranges_json)
                t0 = _time.monotonic()
                tables = [
                    read_ipc_range(
                        os.path.join(self.exchange_dir, f), int(off), int(ln)
                    )
                    for f, off, ln in sorted(ranges, key=lambda r: (r[0], r[1]))
                ]
                # no table-level combine_chunks: encode_partition combines
                # per column anyway, and the table-level pass duplicated the
                # whole partition once more (measured ~0.2 s/partition of
                # pure memcpy at 16 workers)
                data = pa.concat_tables(tables)
                # surfaced as phase_s["read"] in the manifest lineage so
                # scaling decompositions separate spill-read cost from
                # encode compute (wall_s alone undercounts task busy time)
                self._read_s = _time.monotonic() - t0
                outs.append(self.encode_partition(data, raw_pid))
        return pa.concat_tables(outs)


# task-form encode wave: plain Ray TASKS reuse the worker processes
# already warmed by the spill stage (an actor pool pays ~1s+ per actor of
# process spawn + imports — measurably 100+ worker-seconds at 32 CPUs), and
# Ray's scheduler work-steals around stragglers at task granularity. The
# encoder (with its per-column FSST cache) is cached per worker process.
_ENCODER_CACHE: dict = {}


def exchange_encode_task(
    batch, *, out_dir: str, exchange_dir: str, lineage_json: str
) -> pa.Table:
    import json

    key = (out_dir, exchange_dir, lineage_json)
    enc = _ENCODER_CACHE.get(key)
    if enc is None:
        _ENCODER_CACHE.clear()  # one live job per worker; drop stale caches
        enc = _ENCODER_CACHE[key] = ExchangeEncoder(
            out_dir, exchange_dir, json.loads(lineage_json)
        )
    return enc(batch)
