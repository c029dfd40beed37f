"""Per-codec round-trip tests: the engine analogue of the reference's writer
round-trip test (``/root/reference/tests/test_parquet_writer.py:38-58``) and
its NULL / special-char cases (``tests/test_query_executor.py:100-126``).

Invariant everywhere: encode → decode is bit-identical (``pa.Array.equals``,
which includes null positions)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from universal_parquet_exporter_ray.codecs import decode_column, encode_column

RNG = np.random.default_rng(42)


def roundtrip(arr: pa.Array, codec: str):
    row = encode_column(arr, codec)
    dec = decode_column(row)
    assert arr.equals(dec), f"{codec} mismatch: {arr[:5]} vs {dec[:5]}"
    return row


# ---- integers ----------------------------------------------------------


@pytest.mark.parametrize("codec", ["forpack", "rle", "zstd", "plain", "dict"])
def test_int_roundtrip(codec):
    roundtrip(pa.array(RNG.integers(-(10**9), 10**9, 5000)), codec)


def test_bitpack_nonnegative():
    roundtrip(pa.array(RNG.integers(0, 1 << 20, 5000)), "bitpack")


def test_forpack_extremes():
    roundtrip(pa.array([np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max]), "forpack")


def test_forpack_compresses_narrow_range():
    arr = pa.array(RNG.integers(1_000_000, 1_000_100, 10000))
    row = roundtrip(arr, "forpack")
    assert row["encoded_bytes"] < row["input_bytes"] / 5


@pytest.mark.parametrize(
    "dtype", [pa.int8(), pa.int16(), pa.int32(), pa.uint8(), pa.uint32(), pa.uint64()]
)
def test_int_width_variants(dtype):
    hi = 100
    arr = pa.array(RNG.integers(0, hi, 1000)).cast(dtype)
    roundtrip(arr, "forpack")


def test_timestamp_roundtrip():
    arr = pa.array(RNG.integers(1_500_000_000_000_000, 1_600_000_000_000_000, 3000)).cast(
        pa.timestamp("us")
    )
    roundtrip(arr, "forpack")
    roundtrip(arr, "zstd")


def test_bool_roundtrip():
    arr = pa.array(RNG.integers(0, 2, 1000).astype(bool))
    roundtrip(arr, "forpack")
    roundtrip(arr, "rle")


# ---- runs / dictionaries ----------------------------------------------


def test_rle_long_runs():
    arr = pa.array(np.repeat(RNG.integers(0, 5, 100), 100))
    row = roundtrip(arr, "rle")
    assert row["encoded_bytes"] < row["input_bytes"] / 50


def test_dict_low_cardinality_strings():
    arr = pa.array(RNG.choice(["py", "c", "cpp", "java"], 5000))
    row = roundtrip(arr, "dict")
    assert row["encoded_bytes"] < row["input_bytes"] / 4


# ---- strings / FSST ----------------------------------------------------

WORDS = ["def", "return", "import", "value", "table", "scan", "batch", "part"]


def _texts(n, m=40):
    return pa.array([" ".join(RNG.choice(WORDS, RNG.integers(3, m))) for _ in range(n)])


@pytest.mark.parametrize("codec", ["fsst", "fsst_zstd", "zstd", "dict", "rle", "plain"])
def test_string_roundtrip(codec):
    roundtrip(_texts(300), codec)


def test_fsst_compresses():
    row = roundtrip(_texts(500), "fsst")
    assert row["encoded_bytes"] < row["input_bytes"] / 2


def test_special_chars_and_unicode():
    # mirrors reference special-char tests (realDB:273-297)
    arr = pa.array(
        ["O'Connor & Co", 'quote " inside', "你好 wörld", "tab\there\nnl", "", "a&b+c"] * 50
    )
    for codec in ["fsst", "fsst_zstd", "zstd", "dict"]:
        roundtrip(arr, codec)


def test_binary_roundtrip():
    arr = pa.array([RNG.bytes(RNG.integers(0, 100)) for _ in range(200)], type=pa.binary())
    roundtrip(arr, "zstd")
    roundtrip(arr, "fsst")


def test_large_string_roundtrip():
    arr = pa.array(["x" * 100, "y" * 50] * 100, type=pa.large_string())
    roundtrip(arr, "fsst")
    roundtrip(arr, "zstd")


# ---- nulls (reference NULL round-trip parity) --------------------------


@pytest.mark.parametrize(
    "codec,values",
    [
        ("forpack", [1, None, 3, None, -5]),
        ("rle", [1, 1, None, None, 2]),
        ("dict", ["a", None, "a", "b", None]),
        ("fsst", ["hello", None, "", "world", None]),
        ("zstd", [1.5, None, 2.5, None, None]),
    ],
)
def test_null_roundtrip(codec, values):
    roundtrip(pa.array(values * 40), codec)


def test_all_null():
    arr = pa.array([None] * 100, type=pa.string())
    row = encode_column(arr, "dict")
    assert row["codec"] == "allnull"
    assert arr.equals(decode_column(row))


def test_empty_arrays():
    for t, codec in [(pa.string(), "fsst"), (pa.int64(), "forpack"), (pa.string(), "zstd")]:
        arr = pa.array([], type=t)
        roundtrip(arr, codec)


# ---- floats / doubles --------------------------------------------------


def test_float_roundtrip():
    arr = pa.array(RNG.normal(0, 1e6, 3000))
    roundtrip(arr, "zstd")
    roundtrip(arr, "plain")


def test_float_special_values():
    arr = pa.array([0.0, -0.0, np.inf, -np.inf, 1e-300, np.nan])
    row = encode_column(arr, "zstd")
    dec = decode_column(row)
    # NaN != NaN under equals? Arrow equals treats NaN positions structurally
    assert dec.is_null().equals(arr.is_null())
    assert np.array_equal(
        arr.to_numpy(zero_copy_only=False),
        dec.to_numpy(zero_copy_only=False),
        equal_nan=True,
    )


# ---- property tests (hypothesis) ---------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.one_of(st.none(), st.integers(-(2**62), 2**62)), max_size=300),
    codec=st.sampled_from(["forpack", "rle", "zstd", "dict"]),
)
def test_prop_int(data, codec):
    arr = pa.array(data, type=pa.int64())
    row = encode_column(arr, codec)
    assert arr.equals(decode_column(row))


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.one_of(st.none(), st.text(max_size=50)), max_size=200),
    codec=st.sampled_from(["fsst", "fsst_zstd", "zstd", "dict", "rle"]),
)
def test_prop_string(data, codec):
    arr = pa.array(data, type=pa.string())
    row = encode_column(arr, codec)
    assert arr.equals(decode_column(row))


# ---- delta codec -------------------------------------------------------


@pytest.mark.parametrize(
    "values",
    [
        list(range(1000)),
        list(range(1000, 0, -1)),
        [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1],
        [5, None, 7, None, 9] * 50,
    ],
)
def test_delta_roundtrip(values):
    roundtrip(pa.array(values, type=pa.int64()), "delta")


def test_delta_wins_on_sequential():
    arr = pa.array(np.arange(50000) + 10**12)
    d = roundtrip(arr, "delta")
    f = encode_column(arr, "forpack")
    assert d["encoded_bytes"] < f["encoded_bytes"] / 5


def test_delta_sorted_timestamps():
    ts = pa.array(np.sort(RNG.integers(1_700_000_000_000_000, 1_700_100_000_000_000, 20000))).cast(
        pa.timestamp("us")
    )
    roundtrip(ts, "delta")


@settings(max_examples=25, deadline=None)
@given(data=st.lists(st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)), max_size=200))
def test_prop_delta(data):
    arr = pa.array(data, type=pa.int64())
    row = encode_column(arr, "delta")
    assert arr.equals(decode_column(row))


def test_decimal_roundtrip():
    # reference round-trips DECIMAL(10,2) (realDB:98): zstd/plain are the
    # lossless paths for decimal128
    import decimal

    arr = pa.array(
        [decimal.Decimal("123.45"), None, decimal.Decimal("-0.01")] * 100,
        type=pa.decimal128(10, 2),
    )
    for codec in ["zstd", "plain"]:
        roundtrip(arr, codec)


# ---- ALP (adaptive lossless float) --------------------------------------


def test_alp_decimal_floats_compress():
    prices = np.round(RNG.uniform(0, 100000, 20000), 2)
    arr = pa.array(prices)
    row = roundtrip(arr, "alp")
    z = encode_column(arr, "zstd")
    assert row["encoded_bytes"] < z["encoded_bytes"]


def test_alp_true_reals_roundtrip():
    # all-exception path: every value fails the decimal round trip
    arr = pa.array(RNG.normal(0, 1, 3000))
    roundtrip(arr, "alp")


def test_alp_special_values_bit_identical():
    vals = [1.25, None, float("nan"), float("inf"), -float("inf"), -0.0, 0.1, 1e300, -1e-300] * 50
    arr = pa.array(vals, type=pa.float64())
    row = encode_column(arr, "alp")
    dec = decode_column(row)
    assert dec.is_null().equals(arr.is_null())
    assert np.array_equal(
        arr.to_numpy(zero_copy_only=False).view(np.int64),
        dec.to_numpy(zero_copy_only=False).view(np.int64),
    )


def test_alp_float32():
    arr = pa.array(np.round(RNG.uniform(0, 100, 5000), 2).astype(np.float32))
    row = roundtrip(arr, "alp")
    assert row["encoded_bytes"] < row["input_bytes"]


def test_alp_empty():
    roundtrip(pa.array([], type=pa.float64()), "alp")


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(
        st.one_of(
            st.none(),
            st.floats(allow_nan=False),
            st.decimals(places=2, allow_nan=False, allow_infinity=False).map(float),
        ),
        max_size=200,
    )
)
def test_prop_alp(data):
    arr = pa.array(data, type=pa.float64())
    row = encode_column(arr, "alp")
    dec = decode_column(row)
    assert dec.is_null().equals(arr.is_null())
    assert np.array_equal(
        arr.to_numpy(zero_copy_only=False).view(np.int64),
        dec.to_numpy(zero_copy_only=False).view(np.int64),
    )


# ---- byte-shuffle zstd -------------------------------------------------


@pytest.mark.parametrize(
    "arr",
    [
        pa.array(RNG.normal(1000, 50, 5000)),
        pa.array(RNG.integers(0, 10**6, 5000)),
        pa.array(RNG.integers(1_500_000_000_000_000, 1_600_000_000_000_000, 2000)).cast(
            pa.timestamp("us")
        ),
        pa.array([1.5, None, 3.25] * 100),
    ],
)
def test_bshuf_zstd_roundtrip(arr):
    roundtrip(arr, "bshuf_zstd")


def test_bshuf_zstd_empty():
    roundtrip(pa.array([], type=pa.float64()), "bshuf_zstd")


# ---- fsst2 (vectorized pairs-only) -------------------------------------


@pytest.mark.parametrize(
    "arr",
    [
        None,  # filled in test: hex strings
    ],
)
def test_fsst2_hex(arr):
    hexes = pa.array([bytes(RNG.bytes(20)).hex() for _ in range(2000)])
    row = roundtrip(hexes, "fsst2")
    # pairs table covers hex-pair space: ~2x compression
    assert row["encoded_bytes"] < row["input_bytes"] * 0.55


def test_fsst2_matches_general_decode():
    # fsst2 payloads decode via the generic FSST decoder path
    arr = pa.array(["abcabcabc", "", "a", "\xff\xff escape-ish", "你好"] * 100)
    roundtrip(arr, "fsst2")


def test_fsst2_nulls_and_empty():
    roundtrip(pa.array(["x", None, ""] * 50), "fsst2")
    roundtrip(pa.array([], type=pa.string()), "fsst2")


@settings(max_examples=30, deadline=None)
@given(data=st.lists(st.one_of(st.none(), st.text(max_size=60)), max_size=150))
def test_prop_fsst2(data):
    arr = pa.array(data, type=pa.string())
    row = encode_column(arr, "fsst2")
    assert arr.equals(decode_column(row))


@settings(max_examples=20, deadline=None)
@given(raw=st.binary(max_size=400))
def test_prop_fsst2_binary(raw):
    # raw bytes incl. 0xFF runs exercise the escape-run decoder logic
    arr = pa.array([raw, b"", raw[::-1]], type=pa.binary())
    row = encode_column(arr, "fsst2")
    assert arr.equals(decode_column(row))


# ---- round-2 regression fixes ------------------------------------------


def test_nested_list_with_null_roundtrip():
    """list<float64> with nulls: no scalar fill exists — the envelope keeps
    nulls inline and zstd/plain serialize the validity bitmap losslessly."""
    arr = pa.array([[1.0, 2.0], None, [3.5], [], None], type=pa.list_(pa.float64()))
    for codec in ("zstd", "plain"):
        roundtrip(arr, codec)


def test_nested_null_rerouted_from_non_ipc_codec():
    # a non-IPC codec name on a nested nullable column reroutes to zstd
    arr = pa.array([[1, 2], None, [3]], type=pa.list_(pa.int64()))
    row = encode_column(arr, "rle")
    assert row["codec"] == "zstd"
    assert decode_column(row).equals(arr)


def test_struct_with_null_roundtrip():
    arr = pa.array(
        [{"a": 1, "b": "x"}, None, {"a": 2, "b": None}],
        type=pa.struct([("a", pa.int64()), ("b", pa.string())]),
    )
    roundtrip(arr, "zstd")


def test_rle_negative_zero_bit_identity():
    """-0.0 and 0.0 are equal by value but distinct bit patterns; RLE must
    not merge them into one run (bit-identical round-trip invariant)."""
    arr = pa.array([0.0, -0.0, -0.0, 0.0, 1.5, 1.5])
    row = encode_column(arr, "rle")
    dec = decode_column(row)
    src_bits = arr.to_numpy(zero_copy_only=False).view(np.int64)
    dec_bits = dec.to_numpy(zero_copy_only=False).view(np.int64)
    assert np.array_equal(src_bits, dec_bits)


def test_rle_nan_runs_bit_identical():
    nan = float("nan")
    arr = pa.array([nan, nan, nan, 1.0, 1.0, nan])
    row = encode_column(arr, "rle")
    dec = decode_column(row)
    src_bits = arr.to_numpy(zero_copy_only=False).view(np.int64)
    dec_bits = dec.to_numpy(zero_copy_only=False).view(np.int64)
    assert np.array_equal(src_bits, dec_bits)


# ---- zero-copy buffer paths (sliced arrays, offset buffers) -------------


def test_string_codecs_on_sliced_arrays():
    """_string_buffer returns a zero-copy view; a slice with a non-zero
    array offset must window the data buffer correctly for every
    string codec path (fsst trie, fsst2 pairs, zstd string fast path)."""
    base = pa.array(
        ["row-%06d %s" % (i, "lorem ipsum dolor " * (i % 7)) for i in range(3000)]
    )
    for codec in ("fsst", "fsst2", "fsst_zstd", "zstd", "plain"):
        for sl in (base.slice(17, 2500), base.slice(0, 1), base.slice(2999, 1)):
            row = encode_column(sl, codec)
            assert decode_column(row).equals(sl), (codec, sl.offset)


def test_zstd_string_fast_path_and_generic():
    # null-free strings take the string-buffer fast path...
    arr = pa.array(["alpha", "", "beta" * 50] * 400)
    row = roundtrip(arr, "zstd")
    # ...nulls and non-string types take the generic IPC path
    roundtrip(pa.array(["a", None, "b"] * 200), "zstd")
    roundtrip(pa.array(np.arange(1000, dtype=np.int64)), "zstd")
    # large_string exercises the int64-offset branch of the fast path
    roundtrip(pa.array(["xy" * 100] * 500, type=pa.large_string()), "zstd")


def test_zstd3_roundtrip_and_selection_bias():
    # same wire format as zstd (the frame carries its own level): both the
    # string-buffer fast path and the generic IPC path must roundtrip
    arr = pa.array(["def f(x):\n    return x + %d\n" % i for i in range(2000)])
    roundtrip(arr, "zstd3")
    roundtrip(pa.array(["a", None, "b"] * 200), "zstd3")
    roundtrip(pa.array(np.arange(1000, dtype=np.int64)), "zstd3")
    # the mechanism: zstd3 is trialed for strings with a 0.93 cost bonus, so
    # it beats zstd whenever level 6 buys <7% size (data-dependent — on this
    # highly repetitive fixture level 6 may legitimately win; assert the
    # candidate wiring and the cost-adjusted comparison itself)
    from universal_parquet_exporter_ray.codecs import get_codec
    from universal_parquet_exporter_ray.selector import candidate_codecs, select_codec
    from universal_parquet_exporter_ray.stats import column_stats

    stats = column_stats(arr)
    cands = candidate_codecs(arr.type, stats)
    assert "zstd3" in cands and "zstd" in cands
    assert get_codec("zstd3").cost_factor == 0.93
    choice = select_codec(arr)
    e6 = get_codec("zstd").encode(arr)
    e3 = get_codec("zstd3").encode(arr)
    if choice.codec in ("zstd", "zstd3"):
        want = "zstd3" if len(e3.payload) * 0.93 < len(e6.payload) else "zstd"
        assert choice.codec == want


def test_zstd2_roundtrip_gate_and_selection_bias():
    # same wire format as zstd/zstd3 (frame carries its own level)
    arr = pa.array(["def f(x):\n    return x + %d\n" % i for i in range(2000)])
    roundtrip(arr, "zstd2")
    roundtrip(pa.array(["a", None, "b"] * 200), "zstd2")
    roundtrip(pa.array(np.arange(1000, dtype=np.int64)), "zstd2")
    from universal_parquet_exporter_ray.codecs import get_codec
    from universal_parquet_exporter_ray.selector import candidate_codecs, select_codec
    from universal_parquet_exporter_ray.stats import column_stats

    stats = column_stats(arr)
    cands = candidate_codecs(arr.type, stats)
    assert "zstd2" in cands
    assert get_codec("zstd2").cost_factor == 0.83
    # cost-adjusted comparison is honored among the zstd twins (selector
    # ranks a 64KB sample, we rank the full array — allow sampling noise)
    choice = select_codec(arr)
    if choice.codec in ("zstd", "zstd2", "zstd3"):
        sizes = {
            n: len(get_codec(n).encode(arr).payload) * get_codec(n).cost_factor
            for n in ("zstd", "zstd2", "zstd3")
        }
        assert sizes[choice.codec] <= min(sizes.values()) * 1.05


def test_fsst2_chunk_boundary_escapes():
    """Chunked pairs encoding: 0xFF-heavy binary data stresses the
    escape-run invariant across PAIRS_CHUNK boundaries."""
    from universal_parquet_exporter_ray.codecs import fsst as fsst_mod

    old = fsst_mod.PAIRS_CHUNK
    fsst_mod.PAIRS_CHUNK = 64  # force many tiny chunks
    try:
        payload = (b"\xff" * 7 + b"ab" * 40 + b"\xff") * 300
        arr = pa.array([payload[i : i + 37] for i in range(0, len(payload), 37)],
                       type=pa.binary())
        roundtrip(arr, "fsst2")
    finally:
        fsst_mod.PAIRS_CHUNK = old


# ---- vector (numeric list) codec ----------------------------------------


def _rand_vecs(n, dim, dtype=np.float32):
    return pa.array(
        [RNG.normal(size=dim).astype(dtype) for _ in range(n)],
        type=pa.list_(pa.from_numpy_dtype(dtype)),
    )


def test_vec_bshuf_roundtrip_float32():
    roundtrip(_rand_vecs(500, 64), "vec_bshuf_zstd")


def test_vec_bshuf_roundtrip_float64_varlen():
    vals = [RNG.normal(size=int(k)).astype(np.float64) for k in RNG.integers(0, 9, 300)]
    roundtrip(pa.array(vals, type=pa.list_(pa.float64())), "vec_bshuf_zstd")


def test_vec_bshuf_roundtrip_int_lists():
    vals = [RNG.integers(-1000, 1000, int(k)) for k in RNG.integers(0, 5, 200)]
    roundtrip(pa.array(vals, type=pa.list_(pa.int64())), "vec_bshuf_zstd")


def test_vec_bshuf_inner_nulls():
    arr = pa.array(
        [[1.0, None, 3.0], [], [None, None], [4.5]], type=pa.list_(pa.float32())
    )
    roundtrip(arr, "vec_bshuf_zstd")


def test_vec_bshuf_fixed_size_list_inner_nulls():
    """fixed_size_list + inner nulls exercises the
    FixedSizeListArray.from_arrays rebuild in decode — previously untested
    (ADVICE r3): a pyarrow regression there would have shipped unnoticed."""
    arr = pa.array(
        [[1.0, None, 3.0], [None, 5.0, None], [7.0, 8.0, 9.0], [None, None, None]],
        type=pa.list_(pa.float32(), 3),
    )
    roundtrip(arr, "vec_bshuf_zstd")
    # sliced variant: offsets into the validity bitmap must stay aligned
    sl = arr.slice(1, 2)
    row = encode_column(sl, "vec_bshuf_zstd")
    assert sl.equals(decode_column(row))


def test_vec_bshuf_sliced_input():
    base = _rand_vecs(400, 16)
    sl = base.slice(37, 201)
    row = encode_column(sl, "vec_bshuf_zstd")
    assert sl.equals(decode_column(row))


def test_vec_bshuf_large_and_fixed_lists():
    vals = [list(map(float, RNG.normal(size=8))) for _ in range(100)]
    roundtrip(pa.array(vals, type=pa.large_list(pa.float32())), "vec_bshuf_zstd")
    roundtrip(pa.array(vals, type=pa.list_(pa.float32(), 8)), "vec_bshuf_zstd")


def test_vec_bshuf_empty():
    roundtrip(pa.array([], type=pa.list_(pa.float32())), "vec_bshuf_zstd")


def test_vec_outer_nulls_roundtrip_via_envelope():
    # outer nulls route nested arrays to the IPC-lossless path inside
    # encode_column; the round-trip must still be exact
    arr = pa.array([[1.0, 2.0], None, [3.0]], type=pa.list_(pa.float32()))
    row = encode_column(arr, "vec_bshuf_zstd")
    assert decode_column(row).equals(arr)


def test_selector_prefers_vec_codec_on_embeddings():
    from universal_parquet_exporter_ray.selector import select_codec

    arr = _rand_vecs(2000, 64)
    choice = select_codec(arr)
    assert choice.codec == "vec_bshuf_zstd"
    z = encode_column(arr, "zstd")
    v = encode_column(arr, "vec_bshuf_zstd")
    assert len(v["payload"]) < len(z["payload"])
