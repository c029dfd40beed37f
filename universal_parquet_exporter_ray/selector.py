"""Codec auto-selector: stats-pruned candidate list → trial-encode a sample →
pick the smallest (cost-factor adjusted) → return (codec, trained state).

The encode stage calls it once per column per job, on one sample range,
and the returned choice — the codec and the state trained here, e.g. an
FSST symbol table — then encodes that column in every partition (north
rule: stateful encoders; see ``stages/encoder.py``).
The zstd candidate is always in the list, which guarantees the encoded size
can always fall back to ≤ general-purpose compression (SURVEY.md §7.4).

Trials run cheap-first: every candidate except the full-FSST pair (dict,
rle, fsst2 and the zstd twins — all vectorized or C) is trialed before
``fsst``/``fsst_zstd``, whose shared trial is a pure-Python training pass
costing 40-60 ms per string column, tens of times a zstd trial. That trial
runs only when ``_full_fsst_can_win``: fsst2 (the pairs-only table) came
within ``FSST2_MARGIN`` of the best cheap size, AND the 254 most frequent
3-grams of the training bytes cover ≥ ``GRAM3_COVERAGE`` of its 3-gram
positions (multi-byte symbols have repeats to exploit). Together they
skip the trial for hex ids and source code, which FSST loses, and keep it
for short-token text (natural-language documents, token vocabularies),
which FSST can win. File paths and URLs still run it and lose: in both
signals they sit among the columns FSST wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .codecs.base import combine, get_codec, is_int_like, is_string_like, unpack_blobs
from .codecs.fsst import MAX_SYMBOLS, TRAIN_SAMPLE_BYTES, _string_buffer
from .stats import ColumnStats, column_stats

TRIAL_ROWS = 2048


@dataclass
class CodecChoice:
    codec: str
    state: Any
    trial_bytes: int
    stats: ColumnStats


def candidate_codecs(t: pa.DataType, stats: ColumnStats) -> list[str]:
    """Stats-driven pruning of the trial list (cheap gates, not final says)."""
    cands: list[str] = []
    if is_string_like(t):
        if stats.distinct_ratio < 0.5:
            cands.append("dict")
        if stats.avg_run_len >= 1.5:
            cands.append("rle")
        # FSST pays off on shortish strings with sub-maximal byte entropy;
        # skip the slow trial when the column is essentially random bytes OR
        # low-cardinality enough that dictionary encoding dominates anyway.
        if (
            stats.byte_entropy < 6.5
            and stats.avg_len <= 4096
            and stats.n_distinct > 64
        ):
            cands.append("fsst2")  # vectorized pairs-only variant, no penalty
            cands.append("fsst")
            cands.append("fsst_zstd")
        cands.append("zstd")
        # level-3 twin: wins (via its 0.93 cost bonus) whenever level 6 buys
        # <7% extra size — the dominant source-text case, where level 3
        # encodes 2.6× faster per core and stresses memory bandwidth far
        # less under 16-way concurrency (see Zstd3Codec docstring)
        cands.append("zstd3")
        # level-2 fast twin (0.83 cost bonus): another 1.5× per-core speedup
        # on source text at +9.7% size, and strictly better than level 3 on
        # hex ids (see Zstd2Codec docstring for the measurements)
        cands.append("zstd2")
    elif is_int_like(t):
        cands.append("forpack")
        cands.append("delta")
        cands.append("bshuf_zstd")
        if stats.avg_run_len >= 1.5:
            cands.append("rle")
        if stats.distinct_ratio < 0.1:
            cands.append("dict")
        cands.append("zstd")
    elif pa.types.is_floating(t):
        if stats.avg_run_len >= 1.5:
            cands.append("rle")
        cands.append("alp")
        cands.append("bshuf_zstd")
        cands.append("zstd")
    else:
        from .codecs.vector import _is_vector_type

        if _is_vector_type(t):
            # numeric list columns (embedding vectors): byte-shuffling the
            # flat values beats whole-array IPC+zstd (0.85 vs 0.94 measured)
            cands.append("vec_bshuf_zstd")
        cands.append("zstd")
        cands.append("plain")
    return cands


TRIAL_STRING_BYTES = 64 * 1024
TRIAL_MIN_ROWS = 64


def _cap_string_sample(sample: pa.Array) -> pa.Array:
    """Cap a string trial sample by BYTES, not rows: FSST/zstd trial cost is
    linear in bytes and a 2048-row code-text sample can be megabytes."""
    lens = pc.binary_length(sample).to_numpy(zero_copy_only=False)
    cum = np.cumsum(lens)
    k = int(np.searchsorted(cum, TRIAL_STRING_BYTES)) + 1
    k = max(TRIAL_MIN_ROWS, min(k, len(sample)))
    return sample.slice(0, k)


# Full-FSST gate (see module docstring). Each threshold leaves headroom
# beyond the FSST wins seen in sampled trials of ~1,150 random short-token
# vocabulary columns and of every string column of source_files and the
# sf0.01/sf0.1 tables: every win had fsst2 within 2.75× the best (long rows
# of 5-letter tokens; sf0.1 documents.text, whose partitions fsst_zstd
# wins, sits at 2.43×) and 3-gram coverage ≥ 0.62. The coverage is what
# skips hex ids (0.13) and source code (0.50-0.54); the margin skips
# columns that dict or zstd beat by far (e.g. names at 8-18×). A path
# column (1.93×, coverage 0.73) still runs the trial and loses it: in both
# signals it sits among the wins, so no thresholds skip it safely.
FSST2_MARGIN = 3.5
GRAM3_COVERAGE = 0.58
_FULL_FSST = ("fsst", "fsst_zstd")


def _gram3_coverage(sample: pa.Array) -> float:
    """Share of the training bytes' 3-gram positions covered by the
    ``MAX_SYMBOLS`` most frequent 3-grams (one ``np.unique``, ~1 ms)."""
    data, _ = _string_buffer(sample)
    d = np.frombuffer(data[:TRAIN_SAMPLE_BYTES], dtype=np.uint8).astype(np.int32)
    if len(d) < 3:
        return 0.0
    _, counts = np.unique((d[:-2] << 16) | (d[1:-1] << 8) | d[2:], return_counts=True)
    if len(counts) > MAX_SYMBOLS:
        counts = np.partition(counts, -MAX_SYMBOLS)[-MAX_SYMBOLS:]
    return float(counts.sum()) / (len(d) - 2)


def _full_fsst_can_win(
    sample: pa.Array, fsst2_size: Optional[float], best_size: Optional[float]
) -> bool:
    """Whether the full-FSST trial is worth running after the cheap ones:
    (a) fsst2's cost-adjusted trial size is ≤ ``FSST2_MARGIN`` × the best so
    far, and (b) the top 3-grams cover ≥ ``GRAM3_COVERAGE`` of the training
    bytes. A failed fsst2 trial (no size) rules full FSST out too."""
    return (
        fsst2_size is not None
        and fsst2_size <= FSST2_MARGIN * best_size
        and _gram3_coverage(sample) >= GRAM3_COVERAGE
    )


def select_codec(
    arr: pa.Array | pa.ChunkedArray, stats: Optional[ColumnStats] = None
) -> CodecChoice:
    """Trial the candidates on a sample of ``arr`` and return the winner
    with its trained state. Every encoded chunk stores its own state (e.g.
    its symbol table), so encoding other data with the choice costs ratio,
    never correctness."""
    arr = combine(arr)
    if stats is None:
        stats = column_stats(arr)
    n = len(arr)
    if n > TRIAL_ROWS:
        step = n // TRIAL_ROWS
        idx = pa.array(np.arange(0, n, step, dtype=np.int64)[:TRIAL_ROWS])
        sample = combine(arr.take(idx))
    else:
        sample = arr
    sample_nn = sample.drop_null() if sample.null_count else sample
    if len(sample_nn) == 0:
        return CodecChoice("plain", None, 0, stats)
    if is_string_like(arr.type):
        sample_nn = _cap_string_sample(sample_nn)
    names = candidate_codecs(arr.type, stats)
    best_name, best_state, best_size = "plain", None, None

    def consider(name: str, state, size: float):
        nonlocal best_name, best_state, best_size
        if best_size is None or size < best_size:
            best_name, best_state, best_size = name, state, int(size)

    def trial(name: str):
        """Trial-encode ``name`` on the sample and consider it; returns
        (encoded, state, cost-adjusted size), or None if the codec fails."""
        codec = get_codec(name)
        try:
            state = codec.train(sample_nn)
            enc = codec.encode(sample_nn, state=state)
        except Exception:
            return None
        size = len(enc.payload) * codec.cost_factor
        consider(name, state, size)
        return enc, state, size

    # cheap candidates first; candidate_codecs lists fsst and fsst_zstd as a
    # pair, trialed last and only when the gate says they can still win
    fsst2_size = None
    for name in names:
        if name not in _FULL_FSST:
            res = trial(name)
            if name == "fsst2" and res is not None:
                fsst2_size = res[2]
    if "fsst" in names and _full_fsst_can_win(sample_nn, fsst2_size, best_size):
        res = trial("fsst")
        if res is not None and "fsst_zstd" in names:
            # fsst and fsst_zstd share the one expensive pure-Python trial:
            # fsst_zstd's size is estimated by zstd-compressing the fsst
            # output buffer, not by a second full encode
            enc, state, _ = res
            blobs = unpack_blobs(enc.payload)
            zdata = pa.Codec("zstd", compression_level=6).compress(
                blobs["data"], asbytes=True
            )
            est = (len(enc.payload) - len(blobs["data"]) + len(zdata)) * get_codec(
                "fsst_zstd"
            ).cost_factor
            consider("fsst_zstd", state, est)
    if best_size is None:
        enc = get_codec("plain").encode(sample_nn)
        best_size = len(enc.payload)
    return CodecChoice(best_name, best_state, int(best_size), stats)
