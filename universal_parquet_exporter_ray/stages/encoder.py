"""Encoder / decoder stages for the columnar-encode pipeline.

``PartitionEncoder`` is the encode stage replacing the reference's
``ParquetWriter.write_to_parquet`` (``/root/reference/src/export/parquet_writer.py:8-17``):
instead of one pandas ``to_parquet`` call, every column of a partition is
encoded with a lightweight codec picked by size trials (stats → candidates
→ trial encode, ``selector.select_codec``).

The pick is made once per job, not per partition or per worker:
``choose_codecs`` trials each column on one sample range of the spill, and
its choice (codec plus trained state, e.g. an FSST symbol table: the north
rule's stateful encoder) then encodes that column in every partition. A
partition re-trials a column on its own data only when the job's codec
fails on it or compresses it more than ``CHOICE_RATIO_GUARD`` × worse than
on the sample. Nothing is cached between partitions, so a partition's bytes
do not depend on which worker encodes it or in what order.

Used through ``stages/exchange.py::exchange_encode_task``, one
``encode_partition`` call per partition. Mirrors the reference's empty-input
``ValueError`` (``parquet_writer.py:10-11``) at the pipeline level (see
pipelines/encode.py).
"""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa

from ..codecs import decode_column, encode_column
from ..selector import select_codec
from ..state.manifest import (
    manifest_path,
    parts_path,
    sanitize_partition_id,
    write_atomic_parquet,
)

PART_COL = "_part"

ENCODED_SCHEMA = pa.schema(
    [
        ("partition_id", pa.string()),
        ("column", pa.string()),
        ("codec", pa.string()),
        ("payload", pa.large_binary()),
        ("meta", pa.string()),
        ("n_rows", pa.int64()),
        ("type_ipc", pa.binary()),
        ("input_bytes", pa.int64()),
        ("encoded_bytes", pa.int64()),
    ]
)

# re-export: the schema lives next to the manifest read/write protocol in
# state/manifest.py (read_manifest pins it to avoid first-file-schema drops)
from ..state.manifest import MANIFEST_SCHEMA  # noqa: F401

ZONEMAP_STR_CHARS = 80  # truncate long string bounds (lower bound stays sound)


def column_zonemaps(data: pa.Table) -> dict:
    """Per-column min/max zone maps recorded in the manifest so decoded
    reads can prune whole partitions before touching their payload bytes
    (the classic columnar-engine zone-map / block-range-index pattern).

    Soundness contract (what the pruner in ``pipelines/verify.py`` relies
    on): a partition may be skipped ONLY if no row in it can satisfy the
    predicate under IEEE/SQL comparison semantics. Therefore:
    - NaN floats are excluded from the bounds (``flag: has_nan``) — IEEE
      comparisons with NaN are always false, so such rows can never match
      a range predicate anyway;
    - temporal bounds are stored as epoch NANOSECONDS (exact ints), never
      as formatted strings;
    - a string max longer than ``ZONEMAP_STR_CHARS`` is stored truncated with
      ``max_open`` set — the pruner then treats the upper bound as +inf;
      the truncated MIN needs no flag (a prefix is always <= the string).
    Unsupported types (binary, nested) simply record no entry, which the
    pruner treats as "could match"."""
    import numpy as np
    import pyarrow.compute as pc

    zm: dict[str, dict] = {}
    for name in data.column_names:
        col = data[name]
        t = col.type
        n_null = col.null_count
        if len(col) == n_null:
            continue
        entry: dict | None = None
        try:
            if pa.types.is_integer(t) or pa.types.is_boolean(t):
                mm = pc.min_max(col)
                entry = {
                    "kind": "num",
                    "min": mm["min"].as_py(),
                    "max": mm["max"].as_py(),
                }
            elif pa.types.is_floating(t):
                v = col.combine_chunks().drop_null().to_numpy(zero_copy_only=False)
                finite = v[~np.isnan(v)]
                if len(finite) == 0:
                    continue
                entry = {
                    "kind": "num",
                    "min": float(finite.min()),
                    "max": float(finite.max()),
                }
                if len(finite) != len(v):
                    entry["has_nan"] = True
            elif (
                pa.types.is_timestamp(t)
                or pa.types.is_date(t)
            ):
                import pandas as pd

                mm = pc.min_max(col)
                entry = {
                    "kind": "temporal",
                    "min": int(pd.Timestamp(mm["min"].as_py()).value),
                    "max": int(pd.Timestamp(mm["max"].as_py()).value),
                }
                # record the column tz: .value normalizes tz-aware stamps to
                # UTC ns, so the probe side must localize naive probe values
                # into this tz before comparing (ADVICE r3)
                col_tz = getattr(t, "tz", None)
                if col_tz is not None:
                    entry["tz"] = col_tz
            elif pa.types.is_string(t) or pa.types.is_large_string(t):
                mm = pc.min_max(col)
                lo, hi = mm["min"].as_py(), mm["max"].as_py()
                entry = {"kind": "str", "min": lo[:ZONEMAP_STR_CHARS]}
                if len(hi) > ZONEMAP_STR_CHARS:
                    entry["max"] = hi[:ZONEMAP_STR_CHARS]
                    entry["max_open"] = True
                else:
                    entry["max"] = hi
        except Exception:
            entry = None  # never fail an encode over a statistics frill
        if entry is not None:
            if n_null:
                entry["n_null"] = n_null
            zm[name] = entry
    return zm


def _rusage_delta(ru0) -> dict:
    """CPU/fault counters since ``ru0`` — separates real compute (utime)
    from allocator/paging stalls (minflt, majflt) and scheduler pressure
    (nivcsw) when a scaling run's worker-seconds inflate."""
    import resource

    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "utime": round(ru1.ru_utime - ru0.ru_utime, 3),
        "stime": round(ru1.ru_stime - ru0.ru_stime, 3),
        "minflt": ru1.ru_minflt - ru0.ru_minflt,
        "majflt": ru1.ru_majflt - ru0.ru_majflt,
        "nivcsw": ru1.ru_nivcsw - ru0.ru_nivcsw,
    }


def _ratio(row: dict) -> float:
    return row["encoded_bytes"] / max(1, row["input_bytes"])


def choose_codecs(sample: pa.Table) -> dict:
    """The job's codec choices, ``{column: (CodecChoice, ratio)}``: one
    ``select_codec`` per column of ``sample`` (one acked spill range, picked
    by ``pipelines/encode.py``), with the ratio the chosen codec reaches on
    that whole column. A column whose chosen codec fails on the sample gets
    no entry, so every partition trials it on its own data."""
    out = {}
    for name in sample.column_names:
        arr = sample[name].combine_chunks()
        choice = select_codec(arr)
        try:
            out[name] = (choice, _ratio(encode_column(arr, choice.codec, choice.state)))
        except Exception:
            pass
    return out


class PartitionEncoder:
    """Encode one partition group → write ``parts/<pid>/data.parquet`` +
    ``manifest/<pid>.parquet`` atomically → emit the manifest row.

    ``choices`` are the job's (``choose_codecs``); a column without one is
    trialed on the partition's own data."""

    CHOICE_RATIO_GUARD = 1.5  # re-trial when the job's codec does this much worse

    def __init__(self, out_dir: str, lineage: dict | None = None, choices: dict | None = None):
        self.out_dir = out_dir
        self.lineage = lineage or {}
        self.choices = choices or {}

    def _job_encode(self, name: str, arr: pa.Array) -> dict | None:
        """``arr`` encoded with the job's choice for column ``name``, or None
        when there is no choice, its encode fails (the choice was made on a
        sample), or its ratio is past ``CHOICE_RATIO_GUARD`` × the job's."""
        job = self.choices.get(name)
        if job is None:
            return None
        choice, job_ratio = job
        try:
            row = encode_column(arr, choice.codec, choice.state)
        except Exception:
            return None
        return row if _ratio(row) <= self.CHOICE_RATIO_GUARD * job_ratio else None

    def encode_partition(
        self, data: pa.Table, raw_pid: str, read_s: float | None = None
    ) -> pa.Table:
        """Encode one partition table (no PART_COL) → write data + manifest
        atomically → return the manifest row. ``read_s``: seconds spent
        reading ``data``, recorded in the lineage."""
        t0 = time.monotonic()
        import resource

        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        pid = sanitize_partition_id(raw_pid)
        rows = []
        codec_map: dict[str, str] = {}
        retrial: list[str] = []
        phase = {"select": 0.0, "encode": 0.0}
        if read_s is not None:
            phase["read"] = read_s
        for name in data.column_names:
            arr = data[name].combine_chunks()
            tp = time.monotonic()
            select_s = 0.0
            row = self._job_encode(name, arr)
            if row is None:
                if name in self.choices:
                    retrial.append(name)
                ts = time.monotonic()
                choice = select_codec(arr)
                select_s = time.monotonic() - ts
                try:
                    row = encode_column(arr, choice.codec, choice.state)
                except Exception:
                    # the trial ran on a sample; the winner can fail on the
                    # full chunk
                    row = encode_column(arr, "zstd")
            row["partition_id"] = pid
            row["column"] = name
            codec_map[name] = row["codec"]
            rows.append(row)
            dt = time.monotonic() - tp - select_s
            phase["select"] += select_s
            phase["encode"] += dt
            ck = f"enc_{row['codec']}"
            phase[ck] = phase.get(ck, 0.0) + dt
        tp = time.monotonic()
        enc_table = pa.Table.from_pylist(rows, schema=ENCODED_SCHEMA)
        write_atomic_parquet(
            enc_table,
            os.path.join(parts_path(self.out_dir), pid, "data.parquet"),
            raw_columns=("payload",),
        )
        phase["write"] = time.monotonic() - tp
        input_bytes = sum(r["input_bytes"] for r in rows)
        encoded_bytes = sum(r["encoded_bytes"] for r in rows)
        manifest_row = {
            "partition_id": pid,
            "n_rows": data.num_rows,
            "n_columns": len(rows),
            "input_bytes": input_bytes,
            "encoded_bytes": encoded_bytes,
            "ratio": encoded_bytes / max(1, input_bytes),
            "codecs": json.dumps(codec_map, separators=(",", ":")),
            "lineage": json.dumps(
                {
                    **self.lineage,
                    "raw_partition_key": raw_pid,
                    # columns whose job codec failed or missed the ratio guard
                    **({"retrial": retrial} if retrial else {}),
                    # per-phase seconds: cheap diagnostics for scaling-run
                    # decomposition (which phase inflates under contention)
                    "phase_s": {k: round(v, 3) for k, v in phase.items()},
                    "ru": _rusage_delta(ru0),
                },
                separators=(",", ":"),
            ),
            "zonemaps": json.dumps(column_zonemaps(data), separators=(",", ":")),
            "wall_s": time.monotonic() - t0,
        }
        mtable = pa.Table.from_pylist([manifest_row], schema=MANIFEST_SCHEMA)
        write_atomic_parquet(mtable, os.path.join(manifest_path(self.out_dir), f"{pid}.parquet"))
        return mtable


class PartitionDecoder:
    """Inverse stage: rows of encoded column blobs (one partition per group)
    → the decoded Arrow table, bit-identical to the encoder's input."""

    def __call__(self, group: pa.Table) -> pa.Table:
        pid = group["partition_id"][0].as_py()
        cols: dict[str, pa.Array] = {}
        for row in group.to_pylist():
            cols[row["column"]] = decode_column(row)
        out = pa.table(cols)
        return out.append_column(
            PART_COL, pa.array([pid] * out.num_rows, type=pa.string())
        )


def decode_partition_table(enc_table: pa.Table) -> pa.Table:
    """Driver-side helper: decode one partition's encoded table (no Ray)."""
    cols = {row["column"]: decode_column(row) for row in enc_table.to_pylist()}
    return pa.table(cols)
