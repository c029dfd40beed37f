"""Encoder / decoder stages for the columnar-encode pipeline.

``PartitionEncoder`` is the actor-pool stage replacing the reference's
``ParquetWriter.write_to_parquet`` (``/root/reference/src/export/parquet_writer.py:8-17``):
instead of one pandas ``to_parquet`` call, every column of a partition is
trial-selected (stats → candidates → trial encode) and encoded with the
winning lightweight codec; FSST symbol tables / dictionaries trained on the
partition sample are reused for the full partition (north-rule statefulness).

Used via ``groupby(PART_COL).map_groups(PartitionEncoder(out_dir), ...)`` —
one call per partition; the callable-class form makes Ray run it in an actor
pool so the codec registry import cost is paid once per actor, not per batch.
Mirrors the reference's empty-input ``ValueError``
(``parquet_writer.py:10-11``) at the pipeline level (see pipelines/encode.py).
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

ZONEMAP_STR_CAP = 80  # truncate long string bounds (lower bound stays sound)


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
    - a string max longer than ``ZONEMAP_STR_CAP`` is stored truncated with
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
                entry = {"kind": "str", "min": lo[:ZONEMAP_STR_CAP]}
                if len(hi) > ZONEMAP_STR_CAP:
                    entry["max"] = hi[:ZONEMAP_STR_CAP]
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


class PartitionEncoder:
    """Encode one partition group → write ``parts/<pid>/data.parquet`` +
    ``manifest/<pid>.parquet`` atomically → emit the manifest row."""

    FSST_CACHE_REFRESH = 16  # retrain a cached symbol table every N partitions
    CHOICE_CACHE_REFRESH = 16  # re-trial a cached codec choice every N parts
    CHOICE_RATIO_GUARD = 1.5  # re-trial early if ratio degrades this much

    def __init__(self, out_dir: str, lineage: dict | None = None):
        self.out_dir = out_dir
        self.lineage = lineage or {}
        # per-actor FSST symbol-table cache: column → (table, uses). Every
        # encoded chunk stores its own table, so reuse across partitions is
        # correctness-neutral; periodic refresh bounds ratio drift.
        self._fsst_cache: dict[str, tuple[list, int]] = {}
        # per-actor codec-CHOICE cache: column → (CodecChoice, uses,
        # fresh_ratio). Profiling showed the per-partition trial encodes
        # (select_codec) cost ~5× the winning encode itself — the dominant
        # term of the saturated-socket encode worker-seconds. Every chunk
        # stores its own codec name, so reusing last partition's winner is
        # correctness-neutral; the periodic refresh plus a ratio guard
        # (re-trial immediately when a cached choice compresses ≥1.5× worse
        # than it did when freshly trialed) bounds ratio drift.
        self._choice_cache: dict[str, tuple[object, int, float]] = {}

    def _cached_fsst(self, column: str):
        entry = self._fsst_cache.get(column)
        if entry is None or entry[1] >= self.FSST_CACHE_REFRESH:
            return None
        self._fsst_cache[column] = (entry[0], entry[1] + 1)
        return entry[0]

    def _remember_fsst(self, name: str, choice) -> None:
        """Cache a freshly trained full-FSST table for ``name``. Called only
        after ``encode_column`` succeeded with ``choice``: a table whose
        encode just failed must not seed later trials. fsst2's pairs-only
        table is never cached — fed back as fsst/fsst_zstd state it would
        degrade their trials."""
        if choice.codec in ("fsst", "fsst_zstd") and isinstance(choice.state, list):
            if name not in self._fsst_cache or self._fsst_cache[name][0] is not choice.state:
                self._fsst_cache[name] = (choice.state, 0)

    def _select(self, name: str, arr: pa.Array):
        """Size-trial selection with a per-column choice cache.
        Returns (choice, fresh)."""
        entry = self._choice_cache.get(name)
        if entry is not None and entry[1] < self.CHOICE_CACHE_REFRESH:
            self._choice_cache[name] = (entry[0], entry[1] + 1, entry[2])
            return entry[0], False
        choice = select_codec(arr, fsst_state=self._cached_fsst(name))
        return choice, True

    def encode_partition(self, data: pa.Table, raw_pid: str) -> pa.Table:
        """Encode one partition table (no PART_COL) → write data + manifest
        atomically → return the manifest row."""
        t0 = time.monotonic()
        import resource

        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        pid = sanitize_partition_id(raw_pid)
        rows = []
        codec_map: dict[str, str] = {}
        phase = {"select": 0.0, "encode": 0.0}
        read_s = getattr(self, "_read_s", None)
        if read_s is not None:
            phase["read"] = read_s
            self._read_s = None
        for name in data.column_names:
            arr = data[name].combine_chunks()
            tp = time.monotonic()
            choice, fresh = self._select(name, arr)
            phase["select"] += time.monotonic() - tp
            tp = time.monotonic()
            try:
                row = encode_column(arr, choice.codec, choice.state)
                self._remember_fsst(name, choice)
            except Exception:
                # stats were sampled; a codec can fail on the full chunk
                # (e.g. "constant" when the tail has a second value)
                self._choice_cache.pop(name, None)
                choice, fresh = None, False
                row = encode_column(arr, "zstd")
            if choice is not None:
                ratio = row["encoded_bytes"] / max(1, row["input_bytes"])
                if fresh:
                    self._choice_cache[name] = (choice, 0, ratio)
                else:
                    fresh_ratio = self._choice_cache[name][2]
                    if ratio > self.CHOICE_RATIO_GUARD * max(1e-9, fresh_ratio):
                        # data drifted away from the cached choice: re-trial
                        # now and re-encode with the fresh winner
                        choice = select_codec(
                            arr, fsst_state=self._cached_fsst(name)
                        )
                        try:
                            row = encode_column(arr, choice.codec, choice.state)
                            # the re-trial's fresh FSST table must replace
                            # the stale cached one too, or the drift the
                            # guard corrects persists in the other cache
                            # (review r5)
                            self._remember_fsst(name, choice)
                            self._choice_cache[name] = (
                                choice,
                                0,
                                row["encoded_bytes"]
                                / max(1, row["input_bytes"]),
                            )
                        except Exception:
                            # mirror the primary failure path: drop the
                            # entry — caching the choice that just FAILED
                            # against the zstd fallback's ratio would retry
                            # the known-bad codec every partition (review r5)
                            self._choice_cache.pop(name, None)
                            row = encode_column(arr, "zstd")
            row["partition_id"] = pid
            row["column"] = name
            codec_map[name] = row["codec"]
            rows.append(row)
            dt = time.monotonic() - tp
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

    def __call__(self, group: pa.Table) -> pa.Table:
        raw_pid = str(group[PART_COL][0].as_py())
        return self.encode_partition(group.drop_columns([PART_COL]), raw_pid)


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
