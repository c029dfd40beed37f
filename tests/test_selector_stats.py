"""Stats + auto-selector behavior: the selector must pick sensible codecs per
column shape and must never lose to the always-available zstd fallback by more
than the trial-sampling noise (north rule: ≤ reference-writer size)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from universal_parquet_exporter_ray.codecs import encode_column
from universal_parquet_exporter_ray.selector import select_codec
from universal_parquet_exporter_ray.stats import column_stats

RNG = np.random.default_rng(7)


def test_stats_shapes():
    s = column_stats(pa.array(["aa"] * 500 + ["bb"] * 500))
    assert s.n_distinct == 2
    assert s.avg_run_len > 100
    s2 = column_stats(pa.array(RNG.integers(0, 2**60, 2000)))
    assert s2.distinct_ratio > 0.9
    s3 = column_stats(pa.array([None] * 50, type=pa.string()))
    assert s3.n_nulls == 50


def test_selector_constant():
    """A single-valued column is trialed like any other; the winner is no
    larger than its dictionary encoding."""
    for arr in (pa.array(["x"] * 2000), pa.array([7] * 2000, type=pa.int64())):
        choice = select_codec(arr)
        size = encode_column(arr, choice.codec, choice.state)["encoded_bytes"]
        assert size <= encode_column(arr, "dict")["encoded_bytes"]


def test_selector_low_cardinality():
    arr = pa.array(RNG.choice(["py", "go", "rs"], 5000))
    assert select_codec(arr).codec in ("dict", "rle")


def test_selector_sorted_runs_prefers_rle_or_dict():
    arr = pa.array(np.sort(RNG.integers(0, 20, 5000)))
    assert select_codec(arr).codec in ("rle", "dict", "forpack")


def test_selector_narrow_ints():
    arr = pa.array(RNG.integers(5_000_000, 5_000_255, 5000))
    assert select_codec(arr).codec == "forpack"


def test_selected_never_worse_than_zstd_by_much():
    cases = [
        pa.array([" ".join(RNG.choice(["def", "ret", "imp", "val"], 30)) for _ in range(500)]),
        pa.array([bytes(RNG.bytes(20)).hex() for _ in range(1000)]),
        pa.array(RNG.integers(-100, 100, 5000)),
        pa.array(RNG.normal(0, 1, 5000)),
    ]
    for arr in cases:
        choice = select_codec(arr)
        chosen = encode_column(arr, choice.codec, choice.state)["encoded_bytes"]
        z = encode_column(arr, "zstd")["encoded_bytes"]
        assert chosen <= z * 1.30, (choice.codec, chosen, z)


def _vocab_column(seed: int, n_tokens: int, length: int, lo: int, hi: int, rows: int):
    """Rows of ``lo``..``hi`` space-separated tokens drawn from a vocabulary
    of ``n_tokens`` random lowercase tokens of ``length`` letters — the
    short-token shape where full FSST (+zstd) can beat the zstd levels."""
    rng = np.random.default_rng(seed)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    toks = ["".join(rng.choice(letters, length)) for _ in range(n_tokens)]
    return pa.array(
        [" ".join(rng.choice(toks, rng.integers(lo, hi + 1))) for _ in range(rows)]
    )


def test_selector_state_reused_for_fsst():
    arr = _vocab_column(seed=0, n_tokens=60, length=3, lo=3, hi=9, rows=20_000)
    choice = select_codec(arr)
    assert choice.codec.startswith("fsst"), choice.codec
    assert isinstance(choice.state, list)  # trained symbol table
    row = encode_column(arr, choice.codec, choice.state)
    from universal_parquet_exporter_ray.codecs import decode_column

    assert arr.equals(decode_column(row))


def _gate_columns():
    from universal_parquet_exporter_ray.datagen import generate_source_files

    src = generate_source_files(2400, seed=101)
    cols = [
        (f"source/{c}/{k}", src[c].slice(k * 800, 800).combine_chunks(), True)
        for k in range(3)
        for c in src.column_names
    ]
    for seed, shape in [
        (0, (60, 3, 3, 9)),  # fsst_zstd wins
        (1, (50, 3, 3, 6)),  # fsst_zstd wins
        (2, (60, 4, 2, 8)),  # fsst_zstd wins
        (0, (30, 5, 5, 20)),  # fsst_zstd wins with fsst2 at ~2.75× the best
        (3, (120, 4, 2, 8)),  # zstd2 wins
        (4, (200, 8, 2, 8)),  # zstd2 wins
    ]:
        cols.append((f"vocab{shape}", _vocab_column(seed, *shape, rows=20_000), False))
    return cols


def test_full_fsst_gate_keeps_choice(monkeypatch):
    """The full-FSST gate only skips trials FSST would lose: on source_files
    columns and short-token vocabulary columns the gated choice equals the
    choice with the trial always run, and no full FSST table is trained for
    the source columns other than ``path`` (its fsst2 margin and 3-gram
    coverage sit among FSST's wins, so its trial still runs, and loses)."""
    from universal_parquet_exporter_ray import selector
    from universal_parquet_exporter_ray.codecs.fsst import FsstCodec

    trains = []
    real_train = FsstCodec.train

    def spy(self, sample):
        trains.append(self.name)
        return real_train(self, sample)

    monkeypatch.setattr(FsstCodec, "train", spy)
    fsst_wins = 0
    for name, arr, is_source in _gate_columns():
        trains.clear()
        gated = select_codec(arr)
        if is_source and not name.startswith("source/path/"):
            assert trains == [], (name, trains)
        with monkeypatch.context() as m:
            m.setattr(selector, "_full_fsst_can_win", lambda *a: True)
            ungated = select_codec(arr)
        assert gated.codec == ungated.codec, (name, gated.codec, ungated.codec)
        assert gated.trial_bytes == ungated.trial_bytes, name
        fsst_wins += gated.codec.startswith("fsst")
    assert fsst_wins == 4
