"""FSST string compression (pure Python/numpy, from the public paper:
"FSST: Fast Random Access String Compression", PVLDB 13(9), 2020).

Simplified faithfully: a ≤254-entry symbol table of byte sequences (length
1–8) is trained on a ≤64 KiB sample by iterated parse-and-count (gain =
frequency × length, as in the paper); encoding replaces each greedy
longest-match symbol occurrence with its 1-byte code, escaping bytes not
covered by the table as ``0xFF <literal>``.

Block layout: the codec encodes the **concatenated data buffer** of the whole
string column chunk (symbols may span row boundaries — this is a block codec,
not a random-access one) and stores the original row lengths forpacked, so the
decoded buffer + offsets rebuild the column bit-identically.

The symbol table is per-partition state: ``train()`` returns it and the
encoder actor reuses it across batches of the same partition (north-rule
requirement: "stateful encoder actors ... build and reuse FSST symbol tables
and dictionaries per partition").
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Any, Optional

import numpy as np
import pyarrow as pa

from .base import (
    Codec,
    Encoded,
    combine,
    get_codec,
    is_string_like,
    pack_blobs,
    unpack_blobs,
)

ESCAPE = 255
MAX_SYMBOLS = 254  # codes 0..253; 255 reserved for escape
MAX_SYMBOL_LEN = 8
TRAIN_SAMPLE_BYTES = 16 * 1024  # paper trains on small samples; 16 KiB keeps
TRAIN_ITERATIONS = 3            # per-partition training cost ~0.1 s


def _string_buffer(arr: pa.Array) -> tuple["memoryview | bytes", np.ndarray]:
    """(concatenated utf8/bytes buffer VIEW, int64 offsets starting at 0).

    The buffer is a zero-copy ``memoryview`` over the Arrow data buffer —
    ``re`` and ``np.frombuffer`` both accept it — so encoding a column never
    duplicates its payload (the former two copies per chunk, ``to_pybytes``
    + the slice, dominated the encode's fresh-page demand; on hosts where a
    page fault is expensive that demand IS the scaling bottleneck)."""
    arr = combine(arr)
    t = arr.type
    if len(arr) == 0:
        return b"", np.zeros(1, dtype=np.int64)
    if pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        off_dtype = np.int64
    else:
        off_dtype = np.int32
    buffers = arr.buffers()
    offsets = np.frombuffer(buffers[1], dtype=off_dtype)[
        arr.offset : arr.offset + len(arr) + 1
    ].astype(np.int64)
    data_buf = buffers[2]
    data = (
        memoryview(data_buf)[int(offsets[0]) : int(offsets[-1])]
        if data_buf is not None
        else b""
    )
    return data, offsets - offsets[0]


def _strings_from_buffer(data: bytes, lengths: np.ndarray, dtype: pa.DataType) -> pa.Array:
    n = len(lengths)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    if pa.types.is_large_string(dtype) or pa.types.is_large_binary(dtype):
        off_buf = pa.py_buffer(offsets.tobytes())
    else:
        off_buf = pa.py_buffer(offsets.astype(np.int32).tobytes())
    return pa.Array.from_buffers(dtype, n, [None, off_buf, pa.py_buffer(data)])


def _pack_table(symbols: list[bytes]) -> bytes:
    out = [bytes([len(symbols)])]
    for s in symbols:
        out.append(bytes([len(s)]))
        out.append(s)
    return b"".join(out)


def _unpack_table(buf: bytes) -> list[bytes]:
    n = buf[0]
    out = []
    off = 1
    for _ in range(n):
        ln = buf[off]
        off += 1
        out.append(buf[off : off + ln])
        off += ln
    return out


def _trie_regex(symbols: list[bytes]) -> bytes:
    """Prefix-trie-structured alternation equivalent to trying the symbols
    longest-first: children of a node are disjoint on their next byte, and
    the empty alternative (accept the shorter symbol ending here) is always
    LAST, so sre's ordered alternation yields exact greedy longest-match.
    A flat 254-literal alternation costs O(#symbols) comparisons per input
    position in sre; the trie costs O(match depth + fanout)."""
    trie: dict = {}
    TERM = -1
    for s in symbols:
        node = trie
        for ch in s:
            node = node.setdefault(ch, {})
        node[TERM] = True

    def render(node: dict) -> bytes:
        term = TERM in node
        parts = [
            re.escape(bytes([ch])) + render(child)
            for ch, child in sorted(node.items())
            if ch != TERM
        ]
        if not parts:
            return b""
        body = b"|".join(parts)
        if term:
            return b"(?:" + body + b"|)"
        if len(parts) == 1:
            # single mandatory continuation: no group needed
            return parts[0]
        return b"(?:" + body + b")"

    return render(trie)


def _compile(symbols: list[bytes]):
    """Greedy longest-match tokenizer: trie-structured alternation (see
    ``_trie_regex``) with a catch-all single byte as the last alternative."""
    pattern = (_trie_regex(symbols) + b"|" if symbols else b"") + b"(?s:.)"
    rx = re.compile(pattern)
    repl: dict[bytes, bytes] = {}
    for code, s in enumerate(symbols):
        repl[s] = bytes([code])
    for b in range(256):
        sb = bytes([b])
        if sb not in repl:
            repl[sb] = bytes([ESCAPE, b])
    return rx, repl


def train_table(sample: bytes) -> list[bytes]:
    """Iterated parse-and-count symbol table construction (paper §3)."""
    sample = sample[:TRAIN_SAMPLE_BYTES]
    if not sample:
        return []
    symbols: list[bytes] = []
    for _ in range(TRAIN_ITERATIONS):
        rx, _repl = _compile(symbols)
        tokens = rx.findall(sample)
        singles: Counter = Counter(tokens)
        pairs: Counter = Counter()
        for a, b in zip(tokens, tokens[1:]):
            if len(a) + len(b) <= MAX_SYMBOL_LEN:
                pairs[a + b] += 1
        gains: Counter = Counter()
        for s, f in singles.items():
            gains[s] += f * len(s)
        for s, f in pairs.items():
            gains[s] += f * len(s)
        # deterministic top-k: gain desc, then symbol bytes (heap beats a
        # full sort over ~10⁵ candidate pairs)
        import heapq

        ranked = heapq.nsmallest(
            MAX_SYMBOLS, gains.items(), key=lambda kv: (-kv[1], kv[0])
        )
        symbols = [s for s, g in ranked if g > len(s)]
    return symbols


def train_pair_table(sample: bytes) -> list[bytes]:
    """Train a pairs-only symbol table (max symbol length 2): one counting
    pass over byte pairs + frequent single bytes, ranked by gain. The
    restricted table enables the exact-greedy vectorized encoder below."""
    sample = sample[:TRAIN_SAMPLE_BYTES]
    if not sample:
        return []
    d = np.frombuffer(sample, dtype=np.uint8)
    gains: Counter = Counter()
    if len(d) >= 2:
        pair_ids = d[:-1].astype(np.int32) * 256 + d[1:]
        ids, counts = np.unique(pair_ids, return_counts=True)
        for pid, c in zip(ids.tolist(), counts.tolist()):
            gains[bytes([pid >> 8, pid & 255])] = c * 2
    ids, counts = np.unique(d, return_counts=True)
    for b, c in zip(ids.tolist(), counts.tolist()):
        gains[bytes([b])] = c  # saves the escape byte
    import heapq

    ranked = heapq.nsmallest(MAX_SYMBOLS, gains.items(), key=lambda kv: (-kv[1], kv[0]))
    return [s for s, g in ranked if g > len(s)]


# Bound the vectorized encoder's working set. ~10 int32/bool temporaries per
# chunk → working set ≈ 10×chunk per worker; at 16 workers a 2 MiB chunk
# totals ~320 MB, just over this box's 260 MiB shared L3, while 1 MiB fits
# (round-4 scaling experiment).
PAIRS_CHUNK = 1 << 20


def _encode_pairs(data, symbols: list[bytes]) -> bytes:
    """Exact-greedy vectorized encoder for a pairs-only table: identical
    semantics to the leftmost-longest regex tokenizer when every symbol has
    length ≤ 2, but pure numpy. Decoding uses the generic FSST decoder.

    Processes the buffer in ``PAIRS_CHUNK`` windows: the ~10 int32/bool
    temporaries then total ≈ 10×chunk instead of 10×column, so a worker's
    scratch stays small and is reused from the (untrimmed, see
    ``_tune_allocator``) heap call after call instead of being re-faulted.
    A pair split at a window boundary encodes as two singles — tokenization
    changes, decoded bytes never do (same argument as ``ENCODE_CHUNK``)."""
    full = np.frombuffer(data, dtype=np.uint8)
    if len(full) == 0:
        return b""
    P = np.full(65536, -1, dtype=np.int16)
    S = np.full(256, -1, dtype=np.int16)
    for code, s in enumerate(symbols):
        if len(s) == 2:
            P[s[0] * 256 + s[1]] = code
        elif len(s) == 1:
            S[s[0]] = code
    parts = []
    for lo in range(0, len(full), PAIRS_CHUNK):
        d = full[lo : lo + PAIRS_CHUNK]
        n = len(d)
        if n >= 2:
            pair_code = P[d[:-1].astype(np.int32) * 256 + d[1:]]
            can = pair_code >= 0
            # greedy scan = even offsets within each maximal run of pairable
            # positions (arrival at a run start is always exact: the position
            # before it cannot start a pair)
            idx = np.arange(n - 1, dtype=np.int32)
            run_start = can & np.concatenate([[True], ~can[:-1]])
            last = np.maximum.accumulate(np.where(run_start, idx, np.int32(-1)))
            take = can & ((idx - last) % 2 == 0)
            take_pos = np.flatnonzero(take)
        else:
            pair_code = np.zeros(0, dtype=np.int16)
            take_pos = np.zeros(0, dtype=np.int64)
        covered = np.zeros(n, dtype=bool)
        covered[take_pos] = True
        covered[take_pos + 1] = True
        single_mask = ~covered
        scode = S[d]
        esc_mask = single_mask & (scode < 0)
        sing_mask = single_mask & (scode >= 0)
        lens = np.zeros(n, dtype=np.int32)
        lens[take_pos] = 1
        lens[sing_mask] = 1
        lens[esc_mask] = 2
        out_off = np.cumsum(lens, dtype=np.int32) - lens
        out = np.empty(int(lens.sum()), dtype=np.uint8)
        out[out_off[take_pos]] = pair_code[take_pos].astype(np.uint8)
        sp = np.flatnonzero(sing_mask)
        out[out_off[sp]] = scode[sp].astype(np.uint8)
        ep = np.flatnonzero(esc_mask)
        out[out_off[ep]] = ESCAPE
        out[out_off[ep] + 1] = d[ep]
        parts.append(out.tobytes())
    return b"".join(parts) if len(parts) > 1 else parts[0]


class FsstCodec(Codec):
    """FSST over the column's concatenated data buffer; lengths forpacked."""

    name = "fsst"
    cost_factor = 1.15  # bias selector away from the slower pure-Python codec

    def __init__(self, compress: bool = False, name: Optional[str] = None):
        self.compress = compress
        if name:
            self.name = name

    def can_encode(self, t: pa.DataType) -> bool:
        return is_string_like(t)

    def train(self, sample: pa.Array) -> list[bytes]:
        data, _ = _string_buffer(sample)
        return train_table(data)

    # Encode the concatenated buffer in cache-sized chunks: the token list
    # of a multi-MB findall is millions of small PyBytes whose allocation
    # and pointer-chasing dominate at a saturated socket (memory latency,
    # round-2 scaling decomposition). A 256 KiB window keeps the working
    # set near L2-sized; a greedy match split at a chunk boundary only
    # changes the tokenization (never the decoded bytes), costing <0.1%
    # ratio on the bench fixture.
    ENCODE_CHUNK = 256 * 1024

    def encode(self, arr: pa.Array, state: Any = None) -> Encoded:
        data, offsets = _string_buffer(arr)
        symbols = state if state is not None else train_table(data)
        rx, repl = _compile(symbols)
        # findall + map(dict.__getitem__) + join stays in C — re.sub with a
        # Python replacement lambda costs ~1µs per emitted token
        parts = []
        for lo in range(0, len(data), self.ENCODE_CHUNK):
            tokens = rx.findall(data[lo : lo + self.ENCODE_CHUNK])
            parts.append(b"".join(map(repl.__getitem__, tokens)))
        encoded = b"".join(parts)
        lengths = np.diff(offsets)
        len_enc = get_codec("forpack").encode(pa.array(lengths))
        if self.compress:
            codec = pa.Codec("zstd", compression_level=6)
            payload_data = codec.compress(encoded, asbytes=True)
        else:
            payload_data = encoded
        payload = pack_blobs(
            {"table": _pack_table(symbols), "data": payload_data, "lens": len_enc.payload}
        )
        meta = {
            "len_meta": len_enc.meta,
            "enc_size": len(encoded),
            "z": self.compress,
        }
        return Encoded(self.name, payload, meta, len(arr))

    def decode(self, enc: Encoded, dtype: pa.DataType) -> pa.Array:
        blobs = unpack_blobs(enc.payload)
        symbols = _unpack_table(blobs["table"])
        raw = blobs["data"]
        if enc.meta.get("z"):
            raw = pa.Codec("zstd").decompress(raw, int(enc.meta["enc_size"]), asbytes=True)
        data = _fsst_decode(raw, symbols)
        len_enc = Encoded("forpack", blobs["lens"], enc.meta["len_meta"], enc.n_rows)
        lengths = (
            get_codec("forpack")
            .decode(len_enc, pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        return _strings_from_buffer(data, lengths, dtype)


def _fsst_decode(encoded: bytes, symbols: list[bytes]) -> bytes:
    """Vectorized FSST decode: classify each byte as escape / literal / code,
    then scatter symbol bytes by code (≤254 vectorized scatters)."""
    enc = np.frombuffer(encoded, dtype=np.uint8)
    n = len(enc)
    if n == 0:
        return b""
    is_esc_byte = enc == ESCAPE
    # within a maximal run of 0xFF bytes, even offsets are escapes, odd are
    # their literals; the literal of an odd-length run's last escape is the
    # (non-0xFF) byte after the run.
    idx = np.arange(n, dtype=np.int64)
    run_start_marker = np.where(is_esc_byte & np.concatenate([[True], ~is_esc_byte[:-1]]), idx, -1)
    last_start = np.maximum.accumulate(run_start_marker)
    esc = is_esc_byte & ((idx - last_start) % 2 == 0)
    esc_pos = np.flatnonzero(esc)
    lit = np.zeros(n, dtype=bool)
    lit[esc_pos + 1] = True
    sym_mask = ~esc & ~lit

    sym_lens = np.ones(256, dtype=np.int64)
    for code, s in enumerate(symbols):
        sym_lens[code] = len(s)
    lens = np.where(sym_mask, sym_lens[enc], 0)
    lens[lit] = 1
    out_off = np.cumsum(lens) - lens
    total = int(out_off[-1] + lens[-1]) if n else 0
    out = np.empty(total, dtype=np.uint8)
    lit_pos = np.flatnonzero(lit)
    out[out_off[lit_pos]] = enc[lit_pos]
    for code, s in enumerate(symbols):
        pos = np.flatnonzero(sym_mask & (enc == code))
        if len(pos) == 0:
            continue
        sarr = np.frombuffer(s, dtype=np.uint8)
        out[out_off[pos][:, None] + np.arange(len(s))] = sarr
    return out.tobytes()


class Fsst2Codec(FsstCodec):
    """Pairs-only FSST: slightly weaker ratio than the full 8-byte-symbol
    table, but the encoder is fully vectorized (numpy ``_encode_pairs``) —
    a throughput choice the selector can pick with no cost penalty.
    Decoding reuses the generic FSST decoder (the table is just shorter)."""

    name = "fsst2"
    cost_factor = 1.0

    def __init__(self):
        super().__init__(compress=False, name="fsst2")

    def train(self, sample: pa.Array) -> list[bytes]:
        data, _ = _string_buffer(sample)
        return train_pair_table(data)

    def encode(self, arr: pa.Array, state: Any = None) -> Encoded:
        data, offsets = _string_buffer(arr)
        symbols = state if state is not None else train_pair_table(data)
        encoded = _encode_pairs(data, symbols)
        lengths = np.diff(offsets)
        len_enc = get_codec("forpack").encode(pa.array(lengths))
        payload = pack_blobs(
            {"table": _pack_table(symbols), "data": encoded, "lens": len_enc.payload}
        )
        meta = {"len_meta": len_enc.meta, "enc_size": len(encoded), "z": False}
        return Encoded(self.name, payload, meta, len(arr))
