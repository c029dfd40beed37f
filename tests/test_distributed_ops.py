"""Round-2 distributed-operator tests: range-partitioned rank, exact
bucket-pair all-pairs, distributed LSH verify helpers, SQL ingestion."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray.data


def test_distributed_rank_matches_pandas(ray_session):
    from universal_parquet_exporter_ray.stages.rank import distributed_rank

    rng = np.random.default_rng(3)
    # duplicates AND near-unique values, multiple blocks
    v = np.concatenate([rng.integers(0, 50, 500), rng.normal(0, 1, 1500)])
    df = pd.DataFrame({"k": np.arange(len(v), dtype=np.int64), "v": v})
    ds = ray.data.from_pandas(df).repartition(7)
    out = (
        distributed_rank(ds, "v", "r", descending=True, max_splitters=15)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    expected = df["v"].rank(method="min", ascending=False).astype("int64")
    assert np.array_equal(out["r"].to_numpy(), expected.to_numpy())


def test_distributed_rank_ascending_and_ties(ray_session):
    from universal_parquet_exporter_ray.stages.rank import distributed_rank

    df = pd.DataFrame({"k": np.arange(12, dtype=np.int64),
                       "v": [5.0, 5.0, 1.0, 3.0, 3.0, 3.0, 9.0, 1.0, 1.0, 2.0, 9.0, 5.0]})
    ds = ray.data.from_pandas(df).repartition(3)
    out = (
        distributed_rank(ds, "v", "r", descending=False, max_splitters=3)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    expected = df["v"].rank(method="min", ascending=True).astype("int64")
    assert np.array_equal(out["r"].to_numpy(), expected.to_numpy())


def test_pair_group_all_pairs_exact(ray_session):
    """Bucket-pair groups find EXACTLY the brute-force cosine pairs."""
    from universal_parquet_exporter_ray.stages import co_partition
    from universal_parquet_exporter_ray.stages.ann import (
        PairGroupReplicate,
        _normalize,
        all_pairs_group,
    )

    rng = np.random.default_rng(11)
    n, dim, G, thr = 120, 16, 3, 0.5
    mat = rng.normal(0, 1, (n, dim))
    mat[10] = mat[40] * 1.01  # guaranteed near-dup pair
    ids = np.arange(n, dtype=np.int64)
    df = pd.DataFrame({"vec_id": ids, "embedding": list(mat)})
    ds = ray.data.from_pandas(df).repartition(4)
    rep = ds.map_batches(
        PairGroupReplicate, fn_constructor_kwargs={"n_buckets": G},
        batch_format="pandas", concurrency=2,
    )
    pairs = (
        co_partition(rep, ["pg"], all_pairs_group(thr, G))
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    nm = _normalize(mat.astype(np.float64))
    sims = nm @ nm.T
    ai, bi = np.nonzero(np.triu(sims >= thr, k=1))
    assert len(pairs) == len(ai) > 0
    assert pairs["id_a"].tolist() == ids[ai].tolist()
    assert pairs["id_b"].tolist() == ids[bi].tolist()
    ppm = (np.sign(sims[ai, bi] * 1e6) * np.floor(np.abs(sims[ai, bi] * 1e6) + 0.5)).astype(np.int64)
    assert pairs["cos_ppm"].tolist() == ppm.tolist()


def test_bucket_partition_colocates_and_enumerates_pairs():
    import numpy as np

    from universal_parquet_exporter_ray.stages.dedup import partition_to_pairs

    df = pd.DataFrame(
        {
            "band": np.array([0, 0, 3, 3, 7], dtype=np.int64),
            "band_hash": np.array([11, 11, 99, 99, 5], dtype=np.uint64),
            "doc_id": np.array([1, 2, 4, 3, 9], dtype=np.int64),
        }
    )
    # pair enumeration: only collision buckets emit, always doc_a < doc_b
    pairs = partition_to_pairs(df)
    got = set(map(tuple, pairs[["doc_a", "doc_b"]].to_numpy()))
    assert got == {(1, 2), (3, 4)}
    # singleton-only partition → typed empty frame
    empty = partition_to_pairs(df.iloc[[4]])
    assert len(empty) == 0 and list(empty.columns) == ["doc_a", "doc_b"]


def test_co_partition_colocates_keys(ray_session):
    """Every row of a key value reaches exactly one ``fn`` call, for int,
    string, two-column and null-bearing keys, under a one-block and a
    seven-block layout; both layouts give the same per-key result and an
    empty input gives 0 rows. ``fn`` runs once per sorted block (one call
    for a one-block input, however many keys; seven calls for a unique key
    over seven blocks) and never sees a zero-row frame, also when a filter
    empties input blocks and the sort leaves partitions empty."""
    from universal_parquet_exporter_ray.stages import co_partition, partition_of

    def _key_label(g: pd.DataFrame, keys: list[str]) -> pd.Series:
        # one string per row naming its key value, the same whether a
        # numeric key arrives as int64 or (in a batch with nulls) float64
        parts = []
        for k in keys:
            s = g[k]
            if pd.api.types.is_numeric_dtype(s.dtype):
                s = s.astype("Int64")
            parts.append(s.astype(str).reset_index(drop=True))
        return parts[0].str.cat(parts[1:], sep="|") if len(parts) > 1 else parts[0]

    n = 60
    i = np.arange(n)
    table = pa.table(
        {
            "rid": pa.array(i, pa.int64()),
            "k_int": pa.array(i % 7, pa.int64()),
            "k_str": pa.array([["a", "bb", "ccc", None][j % 4] for j in i]),
            # nulls only in the first rows: most blocks of the 7-block layout
            # carry this column as int64, the first one as float64
            "k_null": pa.array(
                [None if j < 2 else int(j % 3) for j in i], pa.int64()
            ),
        }
    )
    cols = set(table.column_names)
    frame = table.to_pandas()
    # the hash of a numeric value does not depend on the block's dtype
    assert (
        partition_of(pd.DataFrame({"k": [1, 2, 3]}), ["k"])
        == partition_of(pd.DataFrame({"k": [1.0, 2.0, 3.0]}), ["k"])
    ).all()

    def run(keys, layout):
        def fn(g: pd.DataFrame) -> pd.DataFrame:
            assert set(g.columns) == cols  # the hash column is private
            assert len(g) > 0
            per_row = pd.DataFrame(
                {"key": _key_label(g, keys), "call": int(g["rid"].min())}
            )
            return per_row.groupby("key", as_index=False).agg(
                call=("call", "first"), n=("call", "size")
            )

        ds = ray.data.from_arrow(table).repartition(layout)
        return co_partition(ds, keys, fn).to_pandas()

    for keys in (["k_int"], ["k_str"], ["k_str", "k_int"], ["k_null"]):
        expect = _key_label(frame, keys).value_counts().to_dict()
        got = {}
        for layout in (1, 7):
            out = run(keys, layout)
            # one output row per (call, key): a unique key means one call
            assert out["key"].is_unique, (keys, layout)
            got[layout] = dict(zip(out["key"], out["n"].astype(int)))
            assert got[layout] == expect, (keys, layout)
        assert got[1] == got[7]
    assert "<NA>" in expect  # the null key formed one group

    # one block, 7 keys: one call sees every key
    def one_call(g: pd.DataFrame) -> pd.DataFrame:
        assert len(g) > 0
        return pd.DataFrame({"rows": [len(g)], "keys": [g["k_int"].nunique()]})

    calls = co_partition(
        ray.data.from_arrow(table).repartition(1), ["k_int"], one_call
    ).to_pandas()
    assert calls.to_dict("records") == [{"rows": n, "keys": 7}]

    # a unique key over seven blocks: one call per block, the input's
    # blocks and not a bucket count set the shuffle width
    def by_call(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"rid": g["rid"], "call": int(g["rid"].min())})

    rids = co_partition(
        ray.data.from_arrow(table).repartition(7), ["rid"], by_call
    ).to_pandas()
    assert rids["call"].nunique() == 7
    assert sorted(rids["rid"]) == list(range(n))

    empty = ray.data.from_arrow(table.slice(0, 0))
    assert co_partition(empty, ["k_int"], lambda g: g).count() == 0

    # a filter that empties six of seven input blocks, and four keys over
    # seven sort partitions: zero-row blocks on both sides of the sort,
    # and ``fn`` still only gets rows
    def sizes(g: pd.DataFrame) -> pd.DataFrame:
        assert len(g) > 0
        return pd.DataFrame({"rows": [len(g)]})

    few = ray.data.from_arrow(table).repartition(7).map_batches(
        lambda t: t.filter(pc.less(t["rid"], 8)), batch_format="pyarrow"
    )
    got = co_partition(few, ["k_str"], sizes).to_pandas()
    assert got["rows"].sum() == 8 and len(got) <= 4


@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
@pytest.mark.parametrize("batch_size", ["default", None])
def test_map_batches_skips_zero_row_blocks(ray_session, batch_format, batch_size):
    """The contract the package's per-batch stages and ``co_partition``
    reducers rely on instead of an empty-input branch: Ray's
    ``map_batches`` never calls its function on a zero-row block, whether
    the block comes from the source, from a filtering map fused before it,
    or from a materialized filtering map, at the default ``batch_size``
    and at ``None``, in pandas and pyarrow format. If a Ray upgrade breaks
    this, this test fails first."""
    n = 40
    table = pa.table({"rid": pa.array(np.arange(n), pa.int64())})
    # zero-row source blocks between full ones
    src = ray.data.from_arrow(
        [table.slice(0, 0), table.slice(0, 20), table.slice(20, 0), table.slice(20, 20)]
    )
    kw = {} if batch_size == "default" else {"batch_size": None}

    def keep_below(limit):
        def fn(batch):
            if batch_format == "pyarrow":
                return batch.filter(pc.less(batch["rid"], limit))
            return batch[batch["rid"] < limit]

        return fn

    def sizes(batch):
        # one row per call: a zero-row call would show up as n == 0
        return pd.DataFrame({"n": [len(batch)]})

    def call_sizes(ds) -> list[int]:
        calls = ds.map_batches(sizes, batch_format=batch_format, **kw).to_pandas()
        return calls["n"].tolist() if len(calls) else []  # no call: no columns

    for limit, kept in ((5, 5), (-1, 0)):
        filtered = src.map_batches(keep_below(limit), batch_format=batch_format)
        for ds in (filtered, filtered.materialize()):  # fusable, then not
            seen = call_sizes(ds)
            assert all(k > 0 for k in seen) and sum(seen) == kept, seen
    seen = call_sizes(src)
    assert all(k > 0 for k in seen) and sum(seen) == n, seen


def test_co_partition_list_input_stamps_each_side(ray_session):
    """``co_partition([a, b], ...)`` co-locates the keys of both inputs, as
    a co-partition of their union does, and stamps each input before the
    union: the stamp fuses into the map that tags each side."""
    from universal_parquet_exporter_ray.stages import co_partition

    left = pd.DataFrame({"k": np.arange(40) % 9, "x": np.arange(40)})
    right = pd.DataFrame({"k": np.arange(30) % 11, "x": -np.arange(30) - 1})

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(side=0)

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(side=1)

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False).agg(
            n=("x", "size"), s=("x", "sum"), sides=("side", "nunique")
        )

    sides = [
        ray.data.from_pandas(left).map_batches(tag_left, batch_format="pandas"),
        ray.data.from_pandas(right).map_batches(tag_right, batch_format="pandas"),
    ]
    ds = co_partition(sides, ["k"], per_key).materialize()
    got = ds.to_pandas().sort_values("k").reset_index(drop=True)
    union = co_partition(sides[0].union(sides[1]), ["k"], per_key).to_pandas()
    both = pd.concat([left, right])
    assert got["k"].is_unique
    assert got["n"].tolist() == both.groupby("k").size().tolist()
    assert got["s"].tolist() == both.groupby("k")["x"].sum().tolist()
    pd.testing.assert_frame_equal(got, union.sort_values("k").reset_index(drop=True))
    stats = ds.stats()
    for tag in ("tag_left", "tag_right"):
        assert f"MapBatches({tag})->MapBatches(stamp)" in stats


def test_pair_shingle_emit_and_partition_jaccard():
    """``PairShingleEmit`` is a membership merge over the blob rows: it
    keeps the candidate docs' blobs as they are, re-shingling nothing."""
    from universal_parquet_exporter_ray.stages.dedup import (
        PairShingleEmit,
        ShingleBlobStage,
        jaccard_from_sets,
        pair_blob_partition_jaccard,
        word_shingle_hashes,
    )

    a = "the quick brown fox jumps over the lazy dog again and again"
    b = "the quick brown fox jumps over the lazy cat again and again"
    c = "completely different text with other words entirely here now"
    members = pd.DataFrame({"doc_id": [1, 2], "doc_a": [1, 1], "doc_b": [2, 2]})
    blobs = ShingleBlobStage()(pd.DataFrame({"doc_id": [1, 2, 3], "text": [a, b, c]}))
    out = PairShingleEmit(members=members)(blobs)
    # doc 3 is not a candidate → only the pair's two rows are emitted
    assert len(out) == 2 and set(zip(out["doc_a"], out["doc_b"])) == {(1, 2)}
    assert list(out.columns) == ["doc_a", "doc_b", "doc_id", "sh", "n_sh"]
    by_id = blobs.set_index("doc_id")
    for _, row in out.iterrows():
        assert row["sh"] == by_id.loc[row["doc_id"], "sh"]
        assert row["n_sh"] == by_id.loc[row["doc_id"], "n_sh"]
    assert len(PairShingleEmit(members=members)(blobs[blobs.doc_id == 3])) == 0
    g = pair_blob_partition_jaccard(out)
    jac = jaccard_from_sets(word_shingle_hashes(a), word_shingle_hashes(b))
    assert g["inter"].iloc[0] / g["union"].iloc[0] == pytest.approx(jac)
    assert (g["doc_a"].iloc[0], g["doc_b"].iloc[0]) == (1, 2)


def test_verify_pairs_broadcast_and_distributed_agree(ray_session, monkeypatch):
    """Threshold-switch unit test (VERDICT r3 item 5): verify_pairs must
    produce identical (doc_a, doc_b, inter, union) through all its plans
    over one materialized shingle table: the broadcast-blob verify on the
    driver (a frame) and over pair blocks (the pair cut at 0, a Dataset),
    the broadcast-pair merge and the over-budget distributed join."""
    from universal_parquet_exporter_ray.stages import dedup
    from universal_parquet_exporter_ray.stages.agg import to_frame
    from universal_parquet_exporter_ray.stages.dedup import shingle_table, verify_pairs

    texts = {
        1: "the quick brown fox jumps over the lazy dog again and again",
        2: "the quick brown fox jumps over the lazy cat again and again",
        3: "completely different text with other words entirely here now",
        4: "completely different text with other words entirely here too",
        5: "unrelated content that matches nothing else in this corpus at all",
    }
    docs = ray.data.from_pandas(
        pd.DataFrame(
            {"doc_id": list(texts), "text": [texts[k] for k in texts]}
        )
    ).repartition(3)
    blobs = shingle_table(docs)
    cand = ray.data.from_pandas(
        pd.DataFrame(
            # duplicated candidate rows on purpose (band dups must dedup)
            {"doc_a": [1, 3, 1, 1], "doc_b": [2, 4, 5, 2]}
        )
    ).repartition(2)

    def run():
        out = verify_pairs(blobs, cand)
        frame = to_frame(out)[["doc_a", "doc_b", "inter", "union"]]
        return out, frame.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

    # blob plan on the driver (default: blob table far under budget)
    out, via_driver = run()
    assert isinstance(out, pd.DataFrame)
    # blob plan over pair blocks (the driver pair cut forced to 0)
    monkeypatch.setattr(dedup, "DRIVER_VERIFY_PAIRS", 0)
    out, via_blob = run()
    assert isinstance(out, ray.data.Dataset)
    # broadcast-pair plan (blob budget forced to 0)
    monkeypatch.setattr(dedup, "BLOB_BROADCAST_BUDGET", 0)
    _, via_broadcast = run()
    # distributed plan (pair budget forced to 0)
    monkeypatch.setattr(dedup, "BROADCAST_PAIR_BUDGET", 0)
    _, via_join = run()
    assert len(via_join) == 3  # (1,2), (1,5), (3,4) — deduped
    for other in (via_driver, via_blob, via_broadcast):
        pd.testing.assert_frame_equal(other, via_join)


def test_shingle_explode_and_posting_pairs():
    """ShingleExplode emits the posting rows of the shingle index: one row
    per distinct shingle of a doc, with the doc's shingle count on each."""
    from universal_parquet_exporter_ray.stages.dedup import (
        ShingleBlobStage,
        ShingleExplode,
        word_shingle_hashes,
    )

    a = "w1 w2 w3 w4 w5"
    b = "w1 w2 w3 x y"
    c = "p q r s t"
    ex = ShingleExplode()(
        ShingleBlobStage()(pd.DataFrame({"doc_id": [1, 2, 3], "text": [a, b, c]}))
    )
    # one row per distinct shingle, n carried on every row
    na, nb = len(word_shingle_hashes(a)), len(word_shingle_hashes(b))
    assert (ex[ex.doc_id == 1]["n"] == na).all() and len(ex[ex.doc_id == 1]) == na
    assert (ex[ex.doc_id == 2]["n"] == nb).all() and len(ex[ex.doc_id == 2]) == nb
    # docs 1 and 2 share exactly the shingle "w1 w2 w3"; doc 3 shares none
    shared = set(ex[ex.doc_id == 1]["sh"]) & set(ex[ex.doc_id == 2]["sh"])
    assert len(shared) == 1
    assert not shared & set(ex[ex.doc_id == 3]["sh"])


def test_asof_prev_group_matches_latest_prior():
    import numpy as np

    from universal_parquet_exporter_ray.stages.joins import asof_prev_group

    ts = pd.to_datetime(
        [
            "2024-01-01 10:00:00",  # click
            "2024-01-01 10:00:05",  # click (latest prior for first purchase)
            "2024-01-01 10:00:05",  # purchase -> equal-ts click counts, gap 0
            "2024-01-01 11:00:00",  # purchase -> gap vs 10:00:05
            "2024-01-01 09:00:00",  # purchase BEFORE any click -> -1
        ]
    )
    g = pd.DataFrame(
        {
            "event_id": np.arange(5, dtype=np.int64),
            "user_id": np.zeros(5, dtype=np.int64),
            "ts": ts,
            "event_type": ["click", "click", "purchase", "purchase", "purchase"],
        }
    )
    out = asof_prev_group(
        "user_id", "ts", "event_type", "purchase", "click", "event_id"
    )(g)
    gaps = dict(zip(out["event_id"], out["gap_us"]))
    assert gaps[2] == 0
    assert gaps[3] == 3_595_000_000  # 59 min 55 s in micros
    assert gaps[4] == -1


def test_simhash_md5_parity_with_duckdb():
    """Engine token hash == DuckDB md5_number_upper — the oracle contract."""
    import duckdb
    import hashlib

    from universal_parquet_exporter_ray.stages.dedup import SimHashStage

    con = duckdb.connect()
    for tok in ["abc", "hello", "Zebra42"]:
        sql_h = con.execute("SELECT md5_number_upper(?)", [tok]).fetchone()[0]
        py_h = int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "little")
        assert sql_h == py_h
    # full simhash reproducible
    s = SimHashStage.simhash64("a b c a")
    assert s == SimHashStage.simhash64("a b c a")


def test_distributed_prefix_sum_exact(ray_session):
    """Exclusive prefix sum matches numpy cumsum across many ranges and
    shuffled input block order."""
    import numpy as np
    import ray.data as rd

    from universal_parquet_exporter_ray.stages.rank import distributed_prefix_sum

    rng = np.random.default_rng(7)
    keys = rng.permutation(2000).astype(np.int64)
    vals = rng.integers(0, 50, size=2000).astype(np.int64)
    t = pa.table({"k": keys, "v": vals})
    ds = rd.from_arrow(t).repartition(13)
    out = (
        distributed_prefix_sum(ds, "k", "v", "pre", max_splitters=7)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    order = np.argsort(keys)
    expect = np.concatenate([[0], np.cumsum(vals[order])[:-1]])
    assert (out["pre"].to_numpy() == expect).all()
    assert (out["k"].to_numpy() == keys[order]).all()


def test_watermark_window_flags_late_events(ray_session, tmp_path):
    """The testdata fixture's event_ids arrive in ts order, so its oracle
    pass never exercises the LATE branch; this fixture has genuinely
    out-of-order arrivals. An event arriving after the watermark passed its
    window end must be excluded from the aggregate but counted late, and
    the engine must match the DuckDB window-function oracle exactly."""
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.relational import (
        QUERIES,
        WATERMARK_ORACLE_SQL,
    )

    ts = pd.to_datetime(
        [
            "2024-01-01 00:10:00",  # id 0: window 00:00, wm=None
            "2024-01-01 02:30:00",  # id 1: window 02:00 — pushes wm far ahead
            "2024-01-01 00:20:00",  # id 2: window 00:00; wm 02:30-10min
                                    #   = 02:20 > 01:00 end -> LATE
            "2024-01-01 02:45:00",  # id 3: window 02:00; wm 02:20 < 03:00 on time
            "2024-01-01 02:05:00",  # id 4: window 02:00; wm 02:45-10min
                                    #   = 02:35 < 03:00 -> on time (in lateness budget)
        ]
    )
    tbl = pa.table(
        {
            "event_id": pa.array(range(5), type=pa.int64()),
            "ts": pa.array(ts, type=pa.timestamp("us")),
            "user_id": pa.array([1] * 5, type=pa.int64()),
            "event_type": pa.array(["a", "a", "a", "a", "a"]),
            "value": pa.array([1.0, 2.0, 4.0, 8.0, 16.0], type=pa.float64()),
            "props": pa.array(["{}"] * 5),
        }
    )
    pq.write_table(tbl, str(tmp_path / "events.parquet"))

    out = QUERIES["watermark_window"](str(tmp_path))
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    out = out.sort_values(["event_type", "window_start"]).reset_index(drop=True)

    assert int(out["n_late"].sum()) == 1  # exactly event 2 is late
    w0 = out[out["window_start"] == pd.Timestamp("2024-01-01 00:00:00")]
    assert int(w0["n_on_time"].iloc[0]) == 1  # event 0 only
    assert int(w0["sum_value_dm"].iloc[0]) == 10000  # late value 4.0 excluded

    import duckdb

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW events AS SELECT * FROM read_parquet("
        f"'{tmp_path}/events.parquet')"
    )
    oracle = (
        con.execute(WATERMARK_ORACLE_SQL)
        .df()
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )
    con.close()
    cols = ["event_type", "window_start", "n_on_time", "n_late", "sum_value_dm"]
    pd.testing.assert_frame_equal(out[cols], oracle[cols], check_dtype=False)


def test_range_window_peer_semantics(ray_session, tmp_path):
    """SQL RANGE frames span the full PEER GROUP of the current timestamp:
    two events at the same instant must each see both values; an event
    exactly 1h after another includes it (inclusive frame start); 1h+1µs
    excludes it."""
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.relational import QUERIES

    base = pd.Timestamp("2024-05-01 00:00:00")
    rows = [
        (0, 1, base, 1.0),
        (1, 1, base, 2.0),                                   # peer of event 0
        (2, 1, base + pd.Timedelta(hours=1), 4.0),            # exactly 1h: includes 0,1
        (3, 1, base + pd.Timedelta(hours=2, microseconds=1), 8.0),  # 1h+1µs after 2: alone
    ]
    tbl = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "ts": pa.array(
                pd.to_datetime([r[2] for r in rows]), type=pa.timestamp("us")
            ),
            "user_id": pa.array([r[1] for r in rows], type=pa.int64()),
            "event_type": pa.array(["a"] * 4),
            "value": pa.array([r[3] for r in rows], type=pa.float64()),
            "props": pa.array(["{}"] * 4),
        }
    )
    pq.write_table(tbl, str(tmp_path / "events.parquet"))
    out = QUERIES["range_window"](str(tmp_path))
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    got = out.set_index("event_id")["roll_1h_dm"]
    assert got[0] == 30000 and got[1] == 30000  # peers: both see 1+2
    assert got[2] == 70000                       # 1+2+4, inclusive 1h back
    assert got[3] == 80000                       # alone


def test_latest_event_tie_break(ray_session, tmp_path):
    """Argmax-per-group: ties on ts resolve to the larger event_id (the
    SQL twin's ORDER BY ts DESC, event_id DESC), across batch boundaries."""
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.relational import QUERIES

    base = pd.Timestamp("2024-06-01")
    tbl = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "ts": pa.array(
                pd.to_datetime([base, base, base + pd.Timedelta(hours=1), base]),
                type=pa.timestamp("us"),
            ),
            "user_id": pa.array([7, 7, 7, 9], type=pa.int64()),
            "event_type": pa.array(["a", "b", "c", "d"]),
            "value": pa.array([1.0, 2.0, 3.0, 4.0], type=pa.float64()),
            "props": pa.array(["{}"] * 4),
        }
    )
    pq.write_table(tbl, str(tmp_path / "events.parquet"))
    out = QUERIES["latest_event"](str(tmp_path))
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    got = out.set_index("user_id")
    assert int(got.loc[7, "event_id"]) == 3  # later ts wins
    assert int(got.loc[9, "event_id"]) == 4
    assert len(out) == 2


def test_rollup_agg_subtotals(ray_session):
    """ROLLUP levels are internally consistent on the real corpus: the
    grand-total row equals the sum of the per-flag subtotals, which equal
    the sum of the finest rows; NULL indicators mark rolled-up keys."""
    from universal_parquet_exporter_ray.pipelines.relational import QUERIES

    out = QUERIES["rollup_agg"]("/root/testdata/sf0.001")
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    fine = out[out["l_returnflag"].notna() & out["l_linestatus"].notna()]
    lvl1 = out[out["l_returnflag"].notna() & out["l_linestatus"].isna()]
    total = out[out["l_returnflag"].isna() & out["l_linestatus"].isna()]
    assert len(total) == 1
    assert int(total["n"].iloc[0]) == int(fine["n"].sum()) == int(lvl1["n"].sum())
    per_flag = fine.groupby("l_returnflag")["n"].sum()
    for r in lvl1.itertuples():
        assert int(r.n) == int(per_flag[r.l_returnflag])


def test_range_join_boundaries_and_oracle(ray_session, tmp_path):
    """Interval-containment join: both interval ends are INCLUSIVE, events
    route to one bucket only (no double counting across the bucket
    boundaries an interval spans), and the engine matches the DuckDB
    non-equi-join oracle exactly on a fixture with boundary-exact events."""
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.relational import (
        QUERIES,
        RANGE_JOIN_ORACLE_SQL,
    )

    base = pd.Timestamp("2024-03-01 00:00:00")
    rows = [
        # user 0's window: [00:30, 02:30] (min ts + 2h)
        (0, 0, base + pd.Timedelta(minutes=30), 1.0),
        (1, 0, base + pd.Timedelta(hours=2, minutes=30), 2.0),   # == t1, inclusive
        (2, 5, base + pd.Timedelta(hours=1, minutes=45), 4.0),   # inside, crosses hour buckets
        (3, 99, base + pd.Timedelta(hours=2, minutes=31), 8.0),  # 1 min past t1 — out
        # user 1's window: [10:00, 12:00] — isolated
        (4, 1, base + pd.Timedelta(hours=10), 16.0),
        (5, 99, base + pd.Timedelta(hours=11, minutes=59), 32.0),
    ]
    tbl = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "ts": pa.array(
                pd.to_datetime([r[2] for r in rows]), type=pa.timestamp("us")
            ),
            "user_id": pa.array([r[1] for r in rows], type=pa.int64()),
            "event_type": pa.array(["a"] * len(rows)),
            "value": pa.array([r[3] for r in rows], type=pa.float64()),
            "props": pa.array(["{}"] * len(rows)),
        }
    )
    pq.write_table(tbl, str(tmp_path / "events.parquet"))

    out = QUERIES["range_join"](str(tmp_path))
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    out = out.sort_values("iv_id").reset_index(drop=True)
    got = out.set_index("iv_id")
    # user 0: events 0 (start), 1 (== t1 inclusive), 2 (inside) — not 3
    assert int(got.loc[0, "n_events"]) == 3
    assert int(got.loc[0, "sum_value_dm"]) == 70000  # (1+2+4) * 10000
    # user 1: events 4 and 5
    assert int(got.loc[1, "n_events"]) == 2
    assert int(got.loc[1, "sum_value_dm"]) == 480000
    # user 5's own window [01:45, 03:45] contains events 1, 2, 3
    assert int(got.loc[5, "n_events"]) == 3

    import duckdb

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW events AS SELECT * FROM read_parquet("
        f"'{tmp_path}/events.parquet')"
    )
    oracle = (
        con.execute(RANGE_JOIN_ORACLE_SQL)
        .df()
        .sort_values("iv_id")
        .reset_index(drop=True)
    )
    con.close()
    cols = ["iv_id", "n_events", "sum_value_dm"]
    pd.testing.assert_frame_equal(out[cols], oracle[cols], check_dtype=False)


def test_distributed_prefix_max_exact(ray_session):
    """Exclusive prefix MAX (the watermark primitive) matches numpy's
    shifted cummax across many ranges and shuffled block order; the
    globally-first row is NULL."""
    import numpy as np
    import ray.data as rd

    from universal_parquet_exporter_ray.stages.rank import distributed_prefix_max

    rng = np.random.default_rng(13)
    keys = rng.permutation(2000).astype(np.int64)
    vals = rng.integers(-1000, 1000, size=2000).astype(np.int64)
    t = pa.table({"k": keys, "v": vals})
    ds = rd.from_arrow(t).repartition(13)
    out = (
        distributed_prefix_max(ds, "k", "v", "wm", max_splitters=7)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    order = np.argsort(keys)
    cummax = np.maximum.accumulate(vals[order])
    assert pd.isna(out["wm"].iloc[0])
    assert (out["wm"].to_numpy()[1:] == cummax[:-1]).all()
    assert (out["k"].to_numpy() == keys[order]).all()


def test_distributed_prefix_max_rejects_reserved_sentinel(ray_session):
    """int64 min is ``_NO_PREV`` ("no preceding row"): a value equal to it
    would read back as NULL, so the primitive refuses it."""
    import numpy as np
    import ray.data as rd

    from universal_parquet_exporter_ray.stages.rank import distributed_prefix_max

    vals = np.array([5, np.iinfo(np.int64).min, 7], dtype=np.int64)
    ds = rd.from_arrow(pa.table({"k": np.arange(3, dtype=np.int64), "v": vals}))
    with pytest.raises(Exception, match="reserved no-preceding-row sentinel"):
        distributed_prefix_max(ds, "k", "v", "wm").materialize()


def _make_sql_peer(engine: str, db: str):
    """Create a 100-row table `t` in a fresh file DB and return its
    read-only connection factory — `engine` picks between the two live
    DB-API peers with different cursor semantics (VERDICT r4 #4)."""
    from universal_parquet_exporter_ray.sources.sql import (
        duckdb_factory,
        sqlite_factory,
    )

    if engine == "duckdb":
        import duckdb

        con = duckdb.connect(db)
        con.execute(
            "CREATE TABLE t AS SELECT range AS id, 'v' || range AS name FROM range(100)"
        )
        con.close()
        return duckdb_factory(db)
    import sqlite3

    con = sqlite3.connect(db)
    con.execute("CREATE TABLE t (id INTEGER, name TEXT)")
    con.executemany(
        "INSERT INTO t VALUES (?, ?)", [(i, f"v{i}") for i in range(100)]
    )
    con.commit()
    con.close()
    return sqlite_factory(db)


@pytest.mark.parametrize("engine", ["duckdb", "sqlite"])
def test_read_sql_roundtrip(ray_session, tmp_path, engine):
    from universal_parquet_exporter_ray.sources.sql import (
        read_sql_query,
        validate_connection,
    )

    db = str(tmp_path / "src.db")
    factory = _make_sql_peer(engine, db)
    validate_connection(factory)
    ds = read_sql_query("SELECT id, name FROM t", factory)
    df = ds.to_pandas().sort_values("id").reset_index(drop=True)
    assert len(df) == 100
    assert df["name"].iloc[7] == "v7"


@pytest.mark.parametrize("engine", ["duckdb", "sqlite"])
def test_read_sql_validate_fails_fast(tmp_path, engine):
    """Both peers must fail the preflight on a missing database file —
    sqlite3 would silently CREATE the file on a plain connect, so this also
    pins the factory's URI read-only mode."""
    from universal_parquet_exporter_ray.sources.sql import (
        duckdb_factory,
        sqlite_factory,
        validate_connection,
    )

    fac = duckdb_factory if engine == "duckdb" else sqlite_factory
    missing = str(tmp_path / "missing.db")
    with pytest.raises(Exception):
        validate_connection(fac(missing))
    assert not os.path.exists(missing)  # preflight must not create the file


def test_driver_autodetect_preference_order(tmp_path):
    """detect_drivers mirrors the reference's ODBC autodetect: usable
    candidates only, preference-ordered, extras appended after."""
    import duckdb

    from universal_parquet_exporter_ray.sources.sql import (
        ConnectError,
        detect_drivers,
        duckdb_factory,
        select_factory,
        validate_prerequisites,
    )

    db = str(tmp_path / "src.db")
    con = duckdb.connect(db)
    con.execute("CREATE TABLE t AS SELECT 1 AS x")
    con.close()

    def broken():
        raise OSError("driver not installed")

    def mysql_like():
        # a REAL unavailable candidate: the module genuinely does not exist
        # in this environment, so the probe hits an actual ImportError the
        # way the reference's autodetect hits a missing ODBC driver
        import pymysql  # noqa: F401 - intentionally absent

        return pymysql.connect()

    from universal_parquet_exporter_ray.sources.sql import sqlite_factory

    sdb = str(tmp_path / "src.sqlite")
    import sqlite3

    scon = sqlite3.connect(sdb)
    scon.execute("CREATE TABLE t (x INTEGER)")
    scon.commit()
    scon.close()

    cands = {
        "legacy": duckdb_factory(db),
        "broken-driver": broken,
        "mysql": mysql_like,
        "preferred": duckdb_factory(db),
        "sqlite": sqlite_factory(sdb),
    }
    assert detect_drivers(cands, ["preferred", "mysql", "broken-driver"]) == [
        "preferred",
        "legacy",
        "sqlite",
    ]
    # a DIFFERENT live engine can be the preferred driver too
    assert detect_drivers(cands, ["mysql", "sqlite"])[0] == "sqlite"
    name, factory = select_factory(cands, ["broken-driver", "preferred"])
    assert name == "preferred"
    factory().close()
    diag = validate_prerequisites(cands, ["preferred"])
    assert diag["ok"] and diag["recommended_driver"] == "preferred"
    with pytest.raises(ConnectError, match="no usable"):
        select_factory({"broken-driver": broken, "mysql": mysql_like})


def test_connect_with_recovery_patch_retry():
    """One-shot patch-and-retry protocol: classifier-gated, cleanup on
    double failure, combined error message (reference TLS-patch retry)."""
    from universal_parquet_exporter_ray.sources.sql import (
        ConnectError,
        connect_with_recovery,
    )

    state = {"patched": False, "cleaned": False, "attempts": 0}

    def flaky_factory():
        state["attempts"] += 1
        if not state["patched"]:
            raise OSError("TCP Provider: error 10054 legacy TLS")
        return object()

    def classify(e):
        return "10054" in str(e)

    def patch():
        state["patched"] = True

        def cleanup():
            state["cleaned"] = True

        return cleanup

    conn = connect_with_recovery(flaky_factory, is_recoverable=classify, apply_patch=patch)
    assert conn is not None and state["attempts"] == 2 and not state["cleaned"]

    # non-matching error: no retry, single ConnectError
    state.update(patched=False, attempts=0)

    def hard_fail():
        state["attempts"] += 1
        raise OSError("login failed for user")

    with pytest.raises(ConnectError, match="connection failed"):
        connect_with_recovery(hard_fail, is_recoverable=classify, apply_patch=patch)
    assert state["attempts"] == 1

    # patch applied but retry still fails: cleanup runs, combined message
    state.update(patched=False, cleaned=False, attempts=0)

    def always_tls():
        state["attempts"] += 1
        raise OSError("TCP Provider: error 10054")

    def patch_noop():
        def cleanup():
            state["cleaned"] = True

        return cleanup

    with pytest.raises(ConnectError, match="Original error"):
        connect_with_recovery(always_tls, is_recoverable=classify, apply_patch=patch_noop)
    assert state["attempts"] == 2 and state["cleaned"]


def test_decimal_column_through_encode(ray_session, tmp_path):
    """decimal128(12,2) survives the full encode→decode pipeline."""
    import pyarrow.compute as pc

    import ray.data as rd

    from universal_parquet_exporter_ray.pipelines.encode import encode_dataset
    from universal_parquet_exporter_ray.pipelines.verify import decoded_dataset

    vals = pa.array([1234.56, 0.01, 99999.99, 7.5] * 100)
    dec = pc.cast(vals, pa.decimal128(12, 2))
    t = pa.table({"k": pa.array(range(400), type=pa.int64()), "price": dec})
    out = str(tmp_path / "out")
    encode_dataset(
        rd.from_arrow(t), out, partition_by=None, hash_cols=["k"],
        target_rows_per_partition=150,
    )
    df = decoded_dataset(out).to_pandas().sort_values("k").reset_index(drop=True)
    assert [str(x) for x in df["price"]] == [str(x) for x in t["price"].to_pylist()]


# ---- property tests (hypothesis, pure helpers vs brute force) ----------

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.sets(st.integers(0, 30), max_size=12),  # side-a shingles
            st.sets(st.integers(0, 30), max_size=12),  # side-b shingles
        ),
        min_size=1,
        max_size=20,
    )
)
def test_count_pair_intersections_matches_set_intersection(pairs):
    """The lexsort adjacent-equal kernel equals per-pair set intersection
    for ANY per-side-distinct shingle multiset layout."""
    from universal_parquet_exporter_ray.stages.dedup import (
        _count_pair_intersections,
    )

    sh_all, pair_idx, want = [], [], []
    for i, (sa, sb) in enumerate(pairs):
        sh_all.extend(sorted(sa))
        pair_idx.extend([i] * len(sa))
        sh_all.extend(sorted(sb))
        pair_idx.extend([i] * len(sb))
        want.append(len(sa & sb))
    got = _count_pair_intersections(
        np.array(sh_all, dtype=np.int64),
        np.array(pair_idx, dtype=np.int64),
        len(pairs),
    )
    assert got.tolist() == want


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 6),
    c=st.integers(1, 8),
    k=st.integers(1, 6),
    data=st.data(),
)
def test_topk_rows_matches_pandas_nlargest(m, c, k, data):
    """_topk_rows (nbr-presorted stable argsort) equals a per-row pandas
    sort by (ppm desc, nbr asc) head-k, for any ppm matrix including ties
    and any candidate-id order."""
    from universal_parquet_exporter_ray.stages.ann import _topk_rows

    ppm = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(-1_000_000, 1_000_000),
                         min_size=c, max_size=c),
                min_size=m,
                max_size=m,
            )
        ),
        dtype=np.int64,
    )
    cand = np.array(
        data.draw(
            st.lists(st.integers(0, 10_000), min_size=c, max_size=c,
                     unique=True)
        ),
        dtype=np.int64,
    )
    src = np.arange(m, dtype=np.int64) * 100
    got = _topk_rows(src, ppm.copy(), cand.copy(), k)
    for i in range(m):
        exp = (
            pd.DataFrame({"nbr": cand, "cos_ppm": ppm[i]})
            .sort_values(["cos_ppm", "nbr"], ascending=[False, True],
                         kind="stable")
            .head(k)
        )
        g = got[got["vec_id"] == src[i]]
        assert g["nbr"].tolist() == exp["nbr"].tolist()
        assert g["cos_ppm"].tolist() == exp["cos_ppm"].tolist()


# (user, minute, kind, value in quarters): few users and minutes force
# equal-ts ties and users with no right rows; quarter values sum exactly
_user_events = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 120),
        st.sampled_from(["l", "r", "x"]),
        st.integers(-40, 40),
    ),
    min_size=1,
    max_size=60,
)


def _events_frame(events) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "event_id": np.arange(len(events), dtype=np.int64),
            "user_id": np.array([e[0] for e in events], dtype=np.int64),
            "ts": pd.to_datetime([e[1] * 60_000_000 for e in events], unit="us"),
            "event_type": [e[2] for e in events],
            "value": np.array([e[3] / 4 for e in events], dtype=np.float64),
        }
    )


@settings(max_examples=60, deadline=None)
@given(events=_user_events)
def test_asof_prev_group_matches_bruteforce(events):
    """Many users in one frame: each left row gets the gap to the latest
    right row of its own user with r.ts <= l.ts, -1 when there is none."""
    from universal_parquet_exporter_ray.stages.joins import asof_prev_group

    out = asof_prev_group("user_id", "ts", "event_type", "l", "r", "event_id")(
        _events_frame(events)
    )
    got = dict(zip(out["event_id"], out["gap_us"]))
    assert len(got) == len(out)
    for eid, (user, minute, kind, _) in enumerate(events):
        if kind != "l":
            assert eid not in got
            continue
        prior = [m for u, m, k, _ in events if u == user and k == "r" and m <= minute]
        expect = (minute - max(prior)) * 60_000_000 if prior else -1
        assert got[eid] == expect


@settings(max_examples=60, deadline=None)
@given(events=_user_events)
def test_user_window_blocks_match_bruteforce(events):
    """The sessionization, lag and rolling block bodies on a many-user
    frame equal a per-user loop over (ts, event_id)-sorted events."""
    from universal_parquet_exporter_ray.pipelines.relational import (
        prev_gaps,
        rolling3,
        session_counts,
    )

    df = _events_frame(events)
    sessions, gaps, rolls = {}, {}, {}
    for user in sorted({e[0] for e in events}):
        mine = sorted(
            (m, eid, v) for eid, (u, m, _, v) in enumerate(events) if u == user
        )
        starts = [i == 0 or m - mine[i - 1][0] > 30 for i, (m, _, _) in enumerate(mine)]
        sessions[user] = (sum(starts), len(mine))
        for i, (m, eid, _) in enumerate(mine):
            gaps[eid] = (m - mine[i - 1][0]) * 60_000_000 if i else -1
            rolls[eid] = sum(v for _, _, v in mine[max(0, i - 2) : i + 1]) * 2500

    out = session_counts(df)
    assert {
        u: (s, n) for u, s, n in out[["user_id", "n_sessions", "n_events"]].itertuples(index=False)
    } == sessions
    assert len(out) == len(sessions)
    out = prev_gaps(df)
    assert dict(zip(out["event_id"], out["prev_gap_us"])) == gaps
    assert len(out) == len(gaps)
    out = rolling3(df)
    assert dict(zip(out["event_id"], out["roll3_dm"])) == rolls
    assert len(out) == len(rolls)
    assert all(str(out[c].dtype) == "int64" for c in out.columns)


@settings(max_examples=40, deadline=None)
@given(
    vals=st.lists(
        st.floats(0, 1e6, allow_nan=False, width=64), min_size=1, max_size=200
    ),
    qnum=st.sampled_from([25, 50, 90, 99]),
)
def test_order_statistic_via_rank_filter(vals, qnum):
    """The quantiles query's selection rule: the k-th order statistic equals
    max{v : rank_min(v) <= k}."""
    import numpy as np

    v = np.array(vals, dtype=np.float64)
    n = len(v)
    k = (n - 1) * qnum // 100 + 1
    ranks = pd.Series(v).rank(method="min").to_numpy()
    got = v[ranks <= k].max()
    assert got == np.sort(v)[k - 1]


def test_quantiles_query_matches_numpy(ray_session):
    """Distributed exact-quantile query e2e vs numpy order statistics on
    the real sf0.001 orders table."""
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.relational import QUERIES

    sf = "/root/testdata/sf0.001"
    out = QUERIES["quantiles"](sf)
    v = np.sort(
        pq.read_table(f"{sf}/orders.parquet", columns=["o_totalprice"])
        .to_pandas()["o_totalprice"]
        .to_numpy()
    )
    n = len(v)
    for name, qnum in [("p25_c", 25), ("p50_c", 50), ("p90_c", 90), ("p99_c", 99)]:
        k = (n - 1) * qnum // 100 + 1
        expect = int(np.floor(np.abs(v[k - 1] * 100) + 0.5) * np.sign(v[k - 1]))
        assert int(out[name].iloc[0]) == expect


def _prefix_pipeline_sim(df):
    """Run the prefix-filtered candidate stages on the pipeline's co-partition
    keys, one group per key value: explode → per-sh df stamp → per-doc_id
    prefix select → per-sh pair emit."""
    from universal_parquet_exporter_ray.stages.dedup import (
        ShingleBlobStage,
        ShingleExplode,
        df_stamp_route,
        prefix_posting_pairs,
        prefix_select,
    )

    ex = ShingleExplode()(ShingleBlobStage()(df))
    routed = pd.concat(
        [df_stamp_route(g) for _, g in ex.groupby("sh")], ignore_index=True
    )
    if routed.empty:
        return pd.DataFrame({"doc_a": [], "doc_b": []})
    prefixes = pd.concat(
        [prefix_select(g) for _, g in routed.groupby("doc_id")], ignore_index=True
    )
    if prefixes.empty:
        return pd.DataFrame({"doc_a": [], "doc_b": []})
    return pd.concat(
        [prefix_posting_pairs(g) for _, g in prefixes.groupby("sh")],
        ignore_index=True,
    ).drop_duplicates()


@settings(max_examples=30, deadline=None)
@given(
    docs=st.lists(
        st.text(alphabet="ab ", min_size=0, max_size=40), min_size=2, max_size=12
    )
)
def test_prefix_filter_recall(docs):
    """Prefix filtering must keep EVERY pair with Jaccard >= 1/3 as a
    candidate (the exactness-preserving bound the ngram join rests on)."""
    import numpy as np

    from universal_parquet_exporter_ray.stages.dedup import word_shingle_hashes

    df = pd.DataFrame(
        {"doc_id": np.arange(len(docs), dtype=np.int64), "text": docs}
    )
    cands = _prefix_pipeline_sim(df)
    got = (
        set(zip(cands["doc_a"].astype(int), cands["doc_b"].astype(int)))
        if len(cands)
        else set()
    )
    sets = [set(word_shingle_hashes(t).tolist()) for t in docs]
    for a in range(len(docs)):
        for b in range(a + 1, len(docs)):
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            if union and 3 * inter >= union:
                assert (a, b) in got, (a, b, inter, union)


def test_prefix_filter_bounds_stop_shingle_emission():
    """A stop-shingle shared by m docs (each otherwise unique) must NOT
    produce the exhaustive index's m(m-1)/2 candidate pairs: the hot
    shingle has maximal document frequency, sorts LAST in canonical
    order, and falls outside every doc's prefix."""
    import numpy as np

    m = 200
    # each doc: one shared trigram ("common stop phrase") + 8 unique tokens
    docs = [
        f"common stop phrase u{i}a u{i}b u{i}c u{i}d u{i}e u{i}f u{i}g u{i}h"
        for i in range(m)
    ]
    df = pd.DataFrame({"doc_id": np.arange(m, dtype=np.int64), "text": docs})
    cands = _prefix_pipeline_sim(df)
    # exhaustive emission would be m(m-1)/2 = 19900 pairs; true J of any
    # pair is tiny (3 shared trigrams of ~10 each => J < 1/3), so the
    # prefix index should emit (near) zero candidates
    assert len(cands) < m, f"stop-shingle blowup: {len(cands)} candidate rows"


def test_thresholded_join_both_plans_agree(ray_session, monkeypatch):
    """The size-thresholded join must produce identical rows whether the
    small side broadcasts (under the limit) or hash-partitions (over it),
    with distinct or identical key names on the two sides. A pandas small
    side is already on the driver: it broadcasts at any limit."""
    from universal_parquet_exporter_ray.stages import joins
    from universal_parquet_exporter_ray.stages.joins import thresholded_join

    large_df = pd.DataFrame({"k": [1, 2, 2, 3, 5], "v": [10, 20, 21, 30, 50]})
    small_df = pd.DataFrame({"rk": [1, 2, 3, 4], "name": ["a", "b", "c", "d"]})
    large = ray.data.from_pandas(large_df)
    hash_joins, real = [], joins.hash_join

    def spy(left, right, **kw):
        hash_joins.append(kw["right_on"])
        return real(left, right, **kw)

    monkeypatch.setattr(joins, "hash_join", spy)

    def run(limit, how, small, right_on):
        monkeypatch.setattr(joins, "BROADCAST_ROW_LIMIT", limit)
        hash_joins.clear()
        out = thresholded_join(
            large, small, left_on=["k"], right_on=right_on, how=how
        ).to_pandas()
        return (
            out[sorted(out.columns)]
            .sort_values(sorted(out.columns))
            .reset_index(drop=True)
        )

    def norm_nulls(df: pd.DataFrame) -> pd.DataFrame:
        # the two plans may surface unmatched-row nulls as nan vs None in
        # object columns (both are Arrow null); future pandas treats those
        # as not-equal in assert_frame_equal
        return df.astype(object).where(pd.notna(df), None)

    same_df = small_df.rename(columns={"rk": "k"})
    for how in ("inner", "left"):
        for small, right_on in ((small_df, ["rk"]), (same_df, None)):
            ds = ray.data.from_pandas(small)
            bcast = run(10**6, how, ds, right_on)
            assert hash_joins == []
            hashed = run(0, how, ds, right_on)
            assert hash_joins == [right_on or ["k"]]
            frame = run(0, how, small, right_on)
            assert hash_joins == []
            assert list(bcast.columns) == list(hashed.columns) == ["k", "name", "v"]
            pd.testing.assert_frame_equal(
                norm_nulls(bcast), norm_nulls(hashed), check_dtype=False
            )
            pd.testing.assert_frame_equal(frame, bcast)


_HASH_JOIN_FRESH_SESSION = r"""
import json
import sys

import pandas as pd
import ray
from ray.data import DataContext, Dataset

ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
from universal_parquet_exporter_ray.stages.joins import hash_join

planned, join = [], Dataset.join


def spy(self, *args, **kw):
    planned.append(kw["num_partitions"])
    return join(self, *args, **kw)


Dataset.join = spy
left = pd.DataFrame({"k": [1, 2, 2, 3, 5], "v": [10, 20, 21, 30, 50]})
right = pd.DataFrame({"k": [1, 2, 3, 4], "name": ["a", "b", "c", "d"]})
got = hash_join(
    ray.data.from_pandas(left), ray.data.from_pandas(right), left_on=["k"]
).to_pandas()
want = left.merge(right, on="k")
cols = sorted(want.columns)
got = got[cols].sort_values(cols).reset_index(drop=True)
want = want[cols].sort_values(cols).reset_index(drop=True)
pd.testing.assert_frame_equal(got, want, check_dtype=False)
print(json.dumps({"planned": planned}))
"""


def test_hash_join_sizes_itself_in_a_fresh_session(tmp_path):
    """``hash_join`` tunes the context before it reads the shuffle
    parallelism, so a join of a caller's own Datasets in a fresh 2-CPU
    session (no table read has run there) plans at most ``max(8, 2 × CPUs)``
    partitions instead of Ray's 200, and matches the pandas merge. Runs in
    its own process: this session's context is tuned already."""
    import json
    import subprocess
    import sys

    script = tmp_path / "hash_join_fresh.py"
    script.write_text(_HASH_JOIN_FRESH_SESSION)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # Ray workers import the package from the driver's cwd
    res = subprocess.run(
        [sys.executable, str(script)],
        cwd=root,
        env={**os.environ, "PYTHONPATH": root},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    planned = json.loads(res.stdout.strip().splitlines()[-1])["planned"]
    assert len(planned) == 1 and planned[0] <= max(8, 2 * 2)


@pytest.mark.parametrize("name", ["join_compound", "join_left_coalesce"])
def test_gated_joins_hash_plan_agrees(ray_session, monkeypatch, name):
    """A query that joins a grouped aggregate gives its default frame
    (driver final, broadcast) when the final runs as co-partitions and the
    join hash-partitions (``FINAL_REDUCE_CAP = 0``,
    ``BROADCAST_ROW_LIMIT = 0``). ``join_compound`` hash-joins on the
    same key names on both sides."""
    from universal_parquet_exporter_ray.pipelines.relational import QUERIES
    from universal_parquet_exporter_ray.stages import agg, joins

    hash_joins, real = [], joins.hash_join

    def spy(left, right, **kw):
        hash_joins.append(kw["right_on"])
        return real(left, right, **kw)

    monkeypatch.setattr(joins, "hash_join", spy)

    def run():
        out = QUERIES[name]("/root/testdata/sf0.001")
        df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    default = run()
    assert hash_joins == [] and len(default) > 0
    monkeypatch.setattr(agg, "FINAL_REDUCE_CAP", 0)
    monkeypatch.setattr(joins, "BROADCAST_ROW_LIMIT", 0)
    forced = run()
    keys = {"join_compound": ["user_id", "event_type"], "join_left_coalesce": ["o_custkey"]}
    assert hash_joins == [keys[name]]
    pd.testing.assert_frame_equal(forced, default)


def test_join_multiway_gated_plans_agree(ray_session, sf_small, monkeypatch):
    """join_multiway gates its dimension pulls on footer counts. With the
    broadcast budget between the customer and orders counts, customer⋈nation
    broadcasts into a hash-joined orders side; at 0, customer⋈nation stays a
    Dataset and no customer rows reach the driver. Each plan returns the
    default (all-broadcast) plan's frame, and matches the DuckDB twin with
    strict dtypes. The default plan reads its dimensions on the driver and
    runs one Ray Data execution."""
    import duckdb
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from tools.check_oracle import canon, compare, to_pandas
    from universal_parquet_exporter_ray.pipelines import relational
    from universal_parquet_exporter_ray.pipelines.relational import q_join_multiway
    from universal_parquet_exporter_ray.stages import joins
    from universal_parquet_exporter_ray.stages.joins import BROADCAST_ROW_LIMIT

    import __ray_entry__

    hash_joins = []

    def spy(left, right, **kw):
        hash_joins.append(kw["right_on"])
        return joins.hash_join(left, right, **kw)

    monkeypatch.setattr(relational, "hash_join", spy)
    executions = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        executions.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)

    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_small}/{t}.parquet')")
    want = con.execute(__ray_entry__.oracle_sql()["join_multiway"]).fetchdf()
    default = to_pandas(q_join_multiway(sf_small))
    assert compare("join_multiway", default, want, strict=True) == "OK"
    assert hash_joins == [] and len(executions) == 1
    n_cust = ray.data.read_parquet(f"{sf_small}/customer.parquet").count()
    # the hash joins each plan runs: lineitem⋈orders, then also orders⋈dim
    for limit, plan in ((n_cust, [["o_orderkey"]]), (0, [["c_custkey"], ["o_orderkey"]])):
        assert limit < BROADCAST_ROW_LIMIT
        monkeypatch.setattr(joins, "BROADCAST_ROW_LIMIT", limit)
        hash_joins.clear()
        got = to_pandas(q_join_multiway(sf_small))
        assert hash_joins == plan
        assert compare("join_multiway", got, want, strict=True) == "OK"
        pd.testing.assert_frame_equal(canon(got), canon(default))


def test_unigram_logprob_scores_rare_docs_higher(ray_session):
    """The broadcast unigram LM assigns higher mean NLL to docs made of
    rarer tokens; every scored doc gets a finite positive score (the model
    is trained on the same corpus, so no token is OOV) and the operator is
    deterministic across reruns."""
    from universal_parquet_exporter_ray.pipelines.textops import QUERIES

    sf = "/root/testdata/sf0.001"
    a = QUERIES["unigram_logprob"](sf).to_pandas().sort_values("doc_id")
    b = QUERIES["unigram_logprob"](sf).to_pandas().sort_values("doc_id")
    assert len(a) > 0
    assert (a["mean_nll_milli"] > 0).all()
    assert a["mean_nll_milli"].tolist() == b["mean_nll_milli"].tolist()
    # corpus-frequency sanity: scores vary across docs (not a constant)
    assert a["mean_nll_milli"].nunique() > 1


def test_dedup_clusters_components(ray_session, tmp_path):
    """Connected components over the near-dup graph: three identical docs
    form one cluster keyed by the min doc_id, two other identical docs a
    second cluster, and a unique doc appears in no cluster."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.textops import QUERIES

    t1 = "alpha beta gamma delta epsilon zeta eta theta " * 5
    t2 = "one two three four five six seven eight nine ten " * 5
    t3 = "totally different words nothing shared here at all " * 5
    docs = pa.table(
        {
            "doc_id": pa.array([10, 11, 12, 20, 21, 30], type=pa.int64()),
            "text": [t1, t1, t1, t2, t2, t3],
            "lang": ["en"] * 6,
            "n_chars": pa.array([len(t1)] * 3 + [len(t2)] * 2 + [len(t3)], type=pa.int64()),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = QUERIES["dedup_clusters"](str(tmp_path))
    assert isinstance(out, pd.DataFrame)  # the pairs are on the driver
    out = out.set_index("doc_id")["cluster_id"]
    assert out.to_dict() == {10: 10, 11: 10, 12: 10, 20: 20, 21: 20}


def test_embedding_near_dup_size_guard(ray_session, monkeypatch):
    """The exact all-pairs twin must refuse to run quadratic on a large
    corpus (VERDICT r4 #3): above NEAR_DUP_EXACT_MAX_ROWS it raises
    with a pointer to the LSH scale path; under the budget it runs."""
    from universal_parquet_exporter_ray.pipelines import textops
    from universal_parquet_exporter_ray.pipelines.textops import QUERIES

    sf = "/root/testdata/sf0.001"
    monkeypatch.setattr(textops, "NEAR_DUP_EXACT_MAX_ROWS", 10)
    with pytest.raises(ValueError, match="embedding_near_dup_lsh"):
        QUERIES["embedding_near_dup"](sf)
    monkeypatch.undo()
    out = QUERIES["embedding_near_dup"](sf)
    assert list(out.columns) == ["id_a", "id_b", "cos_ppm"]


def test_decontaminate_neardup_ignores_sub3_token_docs(ray_session, tmp_path):
    """Docs with <3 tokens have NO word-3-gram shingles: the SQL oracle
    emits nothing for them, and (ADVICE r4) the engine must not flag them
    via its 0-sentinel / zero-padded shingles. Two empty docs straddling
    the bench/train split must NOT collide; a genuine near-dup pair across
    the split still must. Engine and DuckDB oracle must agree exactly."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.textops import (
        DECON_NEARDUP_ORACLE_SQL,
        QUERIES,
    )

    t1 = "alpha beta gamma delta epsilon zeta eta theta " * 5
    docs = pa.table(
        {
            # bench = doc_id % 10 == 0 → 10, 20, 30; train → 11, 25, 35
            "doc_id": pa.array([10, 11, 20, 25, 30, 35], type=pa.int64()),
            # (10, 11): genuine cross-split near-dup (identical text);
            # (20, 25): empty docs straddling the split — must not flag;
            # (30, 35): identical 2-token docs straddling the split — ditto
            "text": [t1, t1, "", "", "one two", "one two"],
            "lang": ["en"] * 6,
            "n_chars": pa.array(
                [len(t1), len(t1), 0, 0, 7, 7], type=pa.int64()
            ),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))

    eng = QUERIES["decontaminate_neardup"](str(tmp_path))
    if not isinstance(eng, pd.DataFrame):
        eng = eng.to_pandas()
    eng = eng.sort_values("doc_id").reset_index(drop=True)

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM read_parquet("
        f"'{tmp_path}/documents.parquet')"
    )
    oracle = (
        con.execute(DECON_NEARDUP_ORACLE_SQL)
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con.close()

    assert 11 in eng["doc_id"].tolist()          # real contamination caught
    assert 25 not in eng["doc_id"].tolist()      # empty doc not flagged
    assert 35 not in eng["doc_id"].tolist()      # 2-token doc not flagged
    pd.testing.assert_frame_equal(
        eng[["doc_id", "n_bench_matches", "max_jac_ppm"]],
        oracle[["doc_id", "n_bench_matches", "max_jac_ppm"]],
        check_dtype=False,
    )


def test_tfidf_keywords_topk_shape(ray_session):
    """Every doc yields at most k=3 keywords; scores are non-negative
    (idf >= 0 since df <= N); corpus-common tokens score 0 and genuinely
    distinctive tokens rank above them; deterministic across reruns."""
    from universal_parquet_exporter_ray.pipelines.textops import QUERIES

    sf = "/root/testdata/sf0.001"
    a = QUERIES["tfidf_keywords"](sf).to_pandas().sort_values(["doc_id", "tok"])
    b = QUERIES["tfidf_keywords"](sf).to_pandas().sort_values(["doc_id", "tok"])
    assert len(a) > 0
    assert (a.groupby("doc_id").size() <= 3).all()
    assert (a["tfidf_milli"] >= 0).all()
    assert a["tfidf_milli"].max() > 0
    pd.testing.assert_frame_equal(a.reset_index(drop=True), b.reset_index(drop=True))


def test_shuffle_order_is_deterministic_permutation(ray_session):
    """The training-order shuffle assigns every doc a unique 1..n position
    (md5 keyed hash → distributed rank), identically across reruns, and
    uint64 hash order is preserved exactly through the rank machinery."""
    from universal_parquet_exporter_ray.pipelines.textops import QUERIES

    sf = "/root/testdata/sf0.001"
    a = QUERIES["shuffle_order"](sf).to_pandas().sort_values("doc_id")
    b = QUERIES["shuffle_order"](sf).to_pandas().sort_values("doc_id")
    n = len(a)
    assert n > 0
    assert sorted(a["pos"].tolist()) == list(range(1, n + 1))
    assert a["pos"].tolist() == b["pos"].tolist()


def _components(edges: pd.DataFrame, container: str, monkeypatch, blocks: int):
    """``connected_components`` of ``edges`` given as a pandas frame or as a
    ``blocks``-block Dataset, as a pandas frame. The frame form must return
    a frame without starting a Ray Data execution."""
    from universal_parquet_exporter_ray.stages.dedup import connected_components

    if container == "dataset":
        ds = ray.data.from_pandas(edges).repartition(blocks)
        return connected_components(ds).to_pandas()
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    def refuse(self, *args, **kwargs):
        raise AssertionError("the frame path started a Ray Data execution")

    monkeypatch.setattr(StreamingExecutor, "execute", refuse)
    out = connected_components(edges)
    assert isinstance(out, pd.DataFrame)
    return out


@pytest.mark.parametrize("container", ["frame", "dataset"])
def test_connected_components_chain_graph(ray_session, container, monkeypatch):
    """Worst-case diameter: a chain 0-1-2-...-63 plus a second component.
    The alternating star algorithm must converge in O(log n) rounds with no
    graph-sized driver structure (driver state is one checksum per round)."""
    n = 64
    chain = pd.DataFrame(
        {"u": np.arange(n - 1, dtype=np.int64) + 100,
         "v": np.arange(1, n, dtype=np.int64) + 100}
    )
    other = pd.DataFrame({"u": [7, 8], "v": [8, 9]})
    edges = pd.concat([chain, other], ignore_index=True)
    out = _components(edges, container, monkeypatch, 5).sort_values("doc_id")
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    for i in range(100, 100 + n):
        assert got[i] == 100
    for i in (7, 8, 9):
        assert got[i] == 7
    assert len(out) == n + 3


def test_connected_components_empty_frame(ray_session, monkeypatch):
    """No edges: a typed-empty int64 (doc_id, cluster_id) frame, so a query
    with no near-dup pairs needs no empty branch of its own."""
    empty = pd.DataFrame({"u": pd.Series([], dtype="int64"), "v": pd.Series([], dtype="int64")})
    out = _components(empty, "frame", monkeypatch, 1)
    assert list(out.columns) == ["doc_id", "cluster_id"]
    assert len(out) == 0
    assert out.dtypes.tolist() == [np.dtype("int64")] * 2


def test_edge_checksum_ignores_block_layout(ray_session):
    """The convergence signature of one edge set is the same however its
    rows are split into blocks, equals the signature of the same edges as
    a pandas frame, and is the sum mod 2**64 of the per-row hashes."""
    from universal_parquet_exporter_ray.stages.dedup import _edge_checksum

    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {"u": rng.integers(0, 10**9, 1000), "v": rng.integers(0, 10**9, 1000)}
    ).drop_duplicates()
    h = pd.util.hash_pandas_object(
        df["u"] * np.int64(1000003) + df["v"], index=False
    ).to_numpy(np.uint64)
    expect = (len(df), sum(int(x) for x in h) % (1 << 64))
    assert _edge_checksum(df) == expect
    for blocks in (1, 2, 3, 7):
        ds = ray.data.from_pandas(df).repartition(blocks).materialize()
        assert _edge_checksum(ds) == _edge_checksum(df), blocks


def test_edge_checksum_skips_columnless_empty_block(ray_session):
    """A sort reducer that gets no rows gives back a block with no columns;
    such a block adds 0 to the checksum instead of failing on a missing
    ``u``."""
    from universal_parquet_exporter_ray.stages.dedup import _edge_checksum

    df = pd.DataFrame({"u": [1, 2, 3], "v": [4, 5, 6]})
    ds = ray.data.from_pandas([df, pd.DataFrame()]).materialize()
    assert _edge_checksum(ds) == _edge_checksum(ray.data.from_pandas(df).materialize())


@pytest.mark.parametrize("container", ["frame", "dataset"])
def test_connected_components_matches_bruteforce(ray_session, container, monkeypatch):
    """Random sparse graph vs a reference union-find computed in the test."""
    rng = np.random.default_rng(11)
    m, n_nodes = 300, 200
    a = rng.integers(0, n_nodes, m).astype(np.int64)
    b = rng.integers(0, n_nodes, m).astype(np.int64)
    keep = a != b
    a, b = a[keep], b[keep]

    parent = {}
    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for x, y in zip(a.tolist(), b.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    nodes = sorted(set(a.tolist()) | set(b.tolist()))
    expected = {v: find(v) for v in nodes}
    # canonical min per component
    comp_min = {}
    for v, r in expected.items():
        comp_min[find(r)] = min(comp_min.get(find(r), v), v)
    expected = {v: comp_min[find(v)] for v in nodes}

    out = _components(pd.DataFrame({"u": a, "v": b}), container, monkeypatch, 4)
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got == expected


def test_unigram_vocab_cutoff_caps_broadcast(ray_session):
    """Hapax-heavy fixture: 1000 docs, each contributing unique tokens plus
    a small shared head vocabulary.  With min_count=3 the broadcast model
    must be bounded by the head vocabulary, not the corpus (the 100-TB
    bound, in code — VERDICT r3 item 3)."""
    from universal_parquet_exporter_ray.pipelines.textops import train_unigram_model

    head = ["the", "of", "and", "data", "ray"]
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(1000, dtype=np.int64),
            "text": [
                f"{head[i % 5]} {head[(i + 1) % 5]} uniq{i}a uniq{i}b uniq{i}c"
                for i in range(1000)
            ],
        }
    )
    ds = ray.data.from_pandas(docs).repartition(6)
    logp, oov_lp = train_unigram_model(ds, min_count=3)
    # 3000 hapax tokens collapse into the OOV bucket; only the head survives
    assert len(logp) == len(head)
    assert set(logp.index) == set(head)
    # probabilities still normalize over the FULL corpus token count
    total_mass = float(np.exp(logp.to_numpy()).sum() + np.exp(oov_lp))
    assert abs(total_mass - 1.0) < 1e-9
    # uncut run keeps everything and has no OOV mass
    logp_all, oov_all = train_unigram_model(ds, min_count=1)
    assert len(logp_all) == len(head) + 3000
    assert oov_all == float("-inf")


def test_tfidf_min_df_cutoff_is_exact(ray_session):
    """min_df=2 cuts exactly the df==1 tail, and the default idf equals the
    exact idf of a df==1 token, so scores are identical with or without the
    cutoff."""
    from universal_parquet_exporter_ray.pipelines.textops import train_doc_freq

    docs = pd.DataFrame(
        {
            "doc_id": np.arange(200, dtype=np.int64),
            "text": [f"alpha beta rare{i}" for i in range(200)],
        }
    )
    ds = ray.data.from_pandas(docs).repartition(4)
    idf_cut, default_idf, n = train_doc_freq(ds, min_df=2)
    idf_all, _, n2 = train_doc_freq(ds, min_df=1)
    assert n == n2 == 200.0
    assert set(idf_cut.index) == {"alpha", "beta"}
    assert len(idf_all) == 2 + 200
    # the default reproduces the exact idf of every cut (df==1) token
    for t in ("rare0", "rare37", "rare199"):
        assert idf_all[t] == default_idf
    for t in ("alpha", "beta"):
        assert idf_cut[t] == idf_all[t]


def test_combiner_groupby_small_and_distributed_finals_agree(ray_session, monkeypatch):
    """combiner_groupby must produce identical grouped SUM/AVG/MIN/MAX/COUNT
    results whether the thresholded final reduce runs driver-side (pandas)
    or distributed (forced with FINAL_REDUCE_CAP = 0)."""
    import numpy as np
    import pandas as pd
    import ray

    from universal_parquet_exporter_ray.stages import agg
    from universal_parquet_exporter_ray.stages.agg import combiner_groupby

    rng = np.random.default_rng(11)
    n = 5000
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 7, n),
            "v": rng.normal(10.0, 3.0, n),
            "w": rng.integers(0, 100, n).astype("int64"),
        }
    )
    # nulls in the mean column: AVG must ignore them (SQL semantics)
    df.loc[df.index % 13 == 0, "v"] = np.nan
    ds = ray.data.from_pandas(df).repartition(8)

    kwargs = dict(
        sums={"w": "sum_w"},
        means={"v": "avg_v"},
        mins={"w": "min_w"},
        maxs={"w": "max_w"},
        count="n_rows",
    )
    small = combiner_groupby(ds, ["k"], **kwargs)
    assert isinstance(small, pd.DataFrame)  # under the cap -> driver final
    monkeypatch.setattr(agg, "FINAL_REDUCE_CAP", 0)
    large = combiner_groupby(ds, ["k"], **kwargs)
    assert not isinstance(large, pd.DataFrame)  # forced distributed final
    large = large.to_pandas()

    canon = lambda d: d.sort_values("k").reset_index(drop=True)[sorted(d.columns)]
    small, large = canon(small), canon(large)
    pd.testing.assert_frame_equal(small, large, check_dtype=False)

    # cross-check against plain pandas on the whole frame
    exp = (
        df.groupby("k", dropna=False)
        .agg(
            sum_w=("w", "sum"),
            avg_v=("v", "mean"),
            min_w=("w", "min"),
            max_w=("w", "max"),
            n_rows=("w", "size"),
        )
        .reset_index()
    )
    pd.testing.assert_frame_equal(small, canon(exp), check_dtype=False)


def test_combiner_groupby_empty_input_honors_return_shape(ray_session, monkeypatch):
    """On an EMPTY partial stream, a zero FINAL_REDUCE_CAP must still
    return a Dataset (the documented 'zero cap => Dataset' contract), and
    the default path a DataFrame, both typed from the input's own schema."""
    import ray

    from universal_parquet_exporter_ray.stages import agg
    from universal_parquet_exporter_ray.stages.agg import combiner_groupby

    empty = pd.DataFrame(
        {"k": pd.Series([], dtype="int64"), "v": pd.Series([], dtype="int64")}
    )
    ds = ray.data.from_pandas(empty)
    kwargs = dict(sums={"v": "sum_v"}, count="n")

    small = combiner_groupby(ds, ["k"], **kwargs)
    assert isinstance(small, pd.DataFrame) and len(small) == 0
    assert small["sum_v"].dtype == "int64"

    monkeypatch.setattr(agg, "FINAL_REDUCE_CAP", 0)
    forced = combiner_groupby(ds, ["k"], **kwargs)
    assert not isinstance(forced, pd.DataFrame)  # Dataset, per contract
    assert forced.count() == 0
    # the empty Dataset still carries the typed result schema (Ray's own
    # to_pandas() drops columns on a 0-block stream, so check schema())
    assert set(forced.schema().names) == {"k", "sum_v", "n"}
    # and to_frame turns it into the same typed empty frame
    got = agg.to_frame(forced)
    assert len(got) == 0
    assert got.dtypes.astype(str).to_dict() == small.dtypes.astype(str).to_dict()


@pytest.mark.parametrize("cap", ["default", 0])
def test_combiner_groupby_types_a_filtered_out_input(ray_session, monkeypatch, cap):
    """A Dataset whose filtering map keeps no row still has a schema, and
    the empty grouped result takes its dtypes from it: an int64 and a
    string key stay int64 and object under the driver final and the
    forced distributed one (they came back float64 when the empty result
    was typed from the partial column names alone)."""
    from universal_parquet_exporter_ray.stages import agg
    from universal_parquet_exporter_ray.stages.agg import combiner_groupby, to_frame

    if cap == 0:
        monkeypatch.setattr(agg, "FINAL_REDUCE_CAP", 0)
    src = pd.DataFrame(
        {
            "doc_id": np.arange(30, dtype=np.int64),
            "h": [f"h{i % 4}" for i in range(30)],
            "lang": "de",
        }
    )
    gated = ray.data.from_pandas(src).repartition(3).map_batches(
        lambda df: df.loc[df["lang"] == "en", ["doc_id", "h"]],
        batch_format="pandas",
    )
    out = combiner_groupby(gated, ["h"], mins={"doc_id": "doc_id"})
    assert isinstance(out, pd.DataFrame) == (cap == "default")
    got = to_frame(out)
    assert len(got) == 0
    assert got.dtypes.astype(str).to_dict() == {"h": "object", "doc_id": "int64"}


def test_hopping_window_normalizes_ts_unit(ray_session, tmp_path):
    """ADVICE r4: a ns- (or ms-) unit ts column must produce the same hop
    windows as the us-unit fixture — the integer hop math runs after an
    explicit cast to timestamp[us], not on raw storage integers."""
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.relational import QUERIES

    ts = pd.to_datetime(
        ["2024-01-01 00:05:00", "2024-01-01 00:40:00", "2024-01-01 01:10:00"]
    )
    base = {
        "event_type": ["a", "a", "b"],
        "value": [1.0, 2.0, 3.0],
    }
    outs = {}
    for unit in ("us", "ns", "ms"):
        d = tmp_path / unit
        d.mkdir()
        unit_ts = ts
        if unit == "ns":
            # genuine sub-µs components must TRUNCATE to the µs grid
            # (DuckDB's native precision), not raise (review r5)
            unit_ts = ts + pd.Timedelta(nanoseconds=500)
        tbl = pa.table(
            {
                "event_type": pa.array(base["event_type"]),
                "ts": pa.array(unit_ts, type=pa.timestamp(unit)),
                "value": pa.array(base["value"], type=pa.float64()),
            }
        )
        pq.write_table(tbl, str(d / "events.parquet"))
        out = QUERIES["hopping_window"](str(d))
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        outs[unit] = out.sort_values(
            ["event_type", "window_start"]
        ).reset_index(drop=True)
    pd.testing.assert_frame_equal(outs["us"], outs["ns"])
    pd.testing.assert_frame_equal(outs["us"], outs["ms"])
    # each event lands in exactly window/hop = 4 windows
    assert outs["us"]["n"].sum() == 4 * len(ts)


def test_kmeans_centroids_rejects_gapped_vec_ids(ray_session, tmp_path):
    """ADVICE r4: seeding reads vec_ids 0..k-1; a corpus with gapped or
    non-zero-based ids must raise, not silently fit fewer clusters."""
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.textops import (
        _kmeans_centroids,
    )

    vecs = np.random.default_rng(3).normal(0, 1, (6, 4))
    tbl = pa.table(
        {
            # gapped, non-zero-based ids: 5, 7, 9, ... — seeds 0..3 missing
            "vec_id": pa.array([5, 7, 9, 11, 13, 15], type=pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs],
                type=pa.list_(pa.float64()),
            ),
        }
    )
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))
    with pytest.raises(ValueError, match="vec_ids 0..3"):
        _kmeans_centroids(str(tmp_path), k=4, iters=1)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 3)),    # key (None = SQL null group)
            st.one_of(st.none(), st.floats(-1e6, 1e6)), # mean col with nulls
            st.integers(-1000, 1000),                   # sum/min/max col
        ),
        min_size=1,
        max_size=50,
    ),
    n_chunks=st.integers(1, 6),
    data=st.data(),
)
def test_combiner_partial_finish_matches_pandas(rows, n_chunks, data):
    """partial∘finish over ANY block split must equal a direct pandas
    groupby on the whole frame — the algebra combiner_groupby relies on
    (pure-pandas property test; the Ray paths are covered by the
    equality test above and the query oracles)."""
    from universal_parquet_exporter_ray.stages.agg import (
        _AggSpec,
        make_finish,
        make_partial,
    )

    df = pd.DataFrame(rows, columns=["k", "v", "w"])
    df["k"] = df["k"].astype("Int64")
    # Arrow batches deliver float columns as float64-with-NaN, never object
    df["v"] = df["v"].astype("float64")
    spec = _AggSpec(
        ["k"],
        sums={"w": "sum_w"},
        means={"v": "avg_v"},
        mins={"w": "min_w"},
        maxs={"w": "max_w"},
        count="n_rows",
    )
    partial, finish = make_partial(spec), make_finish(spec)

    # random contiguous split into n_chunks blocks
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(0, len(df)), min_size=n_chunks - 1, max_size=n_chunks - 1
            )
        )
    )
    bounds = [0] + cuts + [len(df)]
    parts = [
        partial(df.iloc[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a
    ]
    got = (
        finish(pd.concat(parts, ignore_index=True))
        .sort_values("k", na_position="last")
        .reset_index(drop=True)
    )

    exp = (
        df.groupby("k", dropna=False)
        .agg(
            sum_w=("w", "sum"),
            avg_v=("v", "mean"),
            min_w=("w", "min"),
            max_w=("w", "max"),
            n_rows=("w", "size"),
        )
        .reset_index()
        .sort_values("k", na_position="last")
        .reset_index(drop=True)
    )
    got = got[exp.columns.tolist()]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_keep_best_partial_merge_algebra():
    """Merging per-chunk keep-best partials is exact regardless of how the
    member rows are split into batches (algebraic aggregate property)."""
    import numpy as np

    from universal_parquet_exporter_ray.stages.dedup import (
        merge_keep_best_partials,
    )

    rng = np.random.default_rng(7)
    n = 500
    rows = pd.DataFrame(
        {
            "cluster_id": rng.integers(0, 40, n).astype(np.int64),
            "kept_doc": np.arange(n, dtype=np.int64),
            "best_tok": rng.integers(0, 30, n).astype(np.int64),
        }
    )
    direct = merge_keep_best_partials(rows, counts_col=None)
    for n_chunks in (1, 3, 7):
        chunks = np.array_split(np.arange(n), n_chunks)
        partials = pd.concat(
            [
                merge_keep_best_partials(
                    rows.iloc[idx].reset_index(drop=True), counts_col=None
                )
                for idx in chunks
            ],
            ignore_index=True,
        )
        merged = merge_keep_best_partials(partials)
        pd.testing.assert_frame_equal(
            merged.sort_values("cluster_id").reset_index(drop=True), direct
        )


def test_lsh_band_emit_banding_properties():
    """Pure-unit LshBandEmit: one replica per band, band index in the high
    bits, identical vectors collide in EVERY band, and r=0 degenerates to a
    single global bucket with one replica."""
    from universal_parquet_exporter_ray.stages.ann import LshBandEmit

    rng = np.random.default_rng(3)
    bands, r, dim, n = 4, 5, 8, 30
    planes = rng.standard_normal((bands * r, dim))
    mat = rng.normal(0, 1, (n, dim))
    mat[7] = mat[19]  # identical pair -> collides in all bands
    df = pd.DataFrame(
        {"vec_id": np.arange(n, dtype=np.int64), "embedding": list(mat)}
    )
    out = LshBandEmit(planes, bands, r)(df)
    assert len(out) == n * bands
    per_row = out.groupby("vec_id")["bh"].apply(
        lambda s: sorted(s.to_numpy() >> r)
    )
    assert all(list(v) == list(range(bands)) for v in per_row)
    bh7 = set(out.loc[out["vec_id"] == 7, "bh"])
    bh19 = set(out.loc[out["vec_id"] == 19, "bh"])
    assert bh7 == bh19 and len(bh7) == bands
    degen = LshBandEmit(planes[:0], 1, 0)(df)
    assert len(degen) == n and (degen["bh"] == 0).all()


def test_near_dup_lsh_fullband_twin_is_exact(ray_session):
    """The rows_per_band=0 twin routes all rows through ONE bucket of the
    identical LSH machinery and must equal the exact all-pairs plan."""
    from universal_parquet_exporter_ray.pipelines.textops import (
        q_embedding_near_dup,
        q_embedding_near_dup_lsh_fullband,
    )

    sf = "/root/testdata/sf0.001"
    exact = q_embedding_near_dup(sf).reset_index(drop=True)
    twin = q_embedding_near_dup_lsh_fullband(sf).reset_index(drop=True)
    pd.testing.assert_frame_equal(exact, twin)


def test_near_dup_lsh_precision_and_recall(ray_session):
    """LSH near-dup on the real fixture: every emitted pair is a true
    near-dup with the exact plan's cos_ppm (precision 1.0 — verify is fused
    into the bucket), and recall at the default (bands=16, r=4) clears the
    1-(1-s^r)^b analytic floor comfortably (measured 0.94 on this fixture,
    pinned at ≥0.85 for seed robustness)."""
    from universal_parquet_exporter_ray.pipelines.textops import (
        q_embedding_near_dup,
        q_embedding_near_dup_lsh,
    )

    sf = "/root/testdata/sf0.001"
    exact = q_embedding_near_dup(sf)
    lsh = q_embedding_near_dup_lsh(sf)
    merged = lsh.merge(
        exact, on=["id_a", "id_b"], how="left", indicator=True,
        suffixes=("", "_exact"),
    )
    assert (merged["_merge"] == "both").all()  # precision 1.0
    assert (merged["cos_ppm"] == merged["cos_ppm_exact"]).all()
    assert len(lsh) / len(exact) >= 0.85


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 40),
    bands=st.integers(1, 6),
    r=st.integers(1, 8),
    thr=st.floats(0.0, 0.9),
)
def test_lsh_pipeline_matches_bruteforce_banding(seed, n, bands, r, thr):
    """Pure-unit property: LshBandEmit ∘ per-bucket lsh_bucket_pairs ∘
    grouped-MAX dedup must emit EXACTLY the brute-force pairs that (a) agree
    on all bits of ≥1 band and (b) have cos ≥ threshold — for any data,
    banding shape, and threshold. This is the whole LSH semantics with no
    Ray in the loop (the Ray paths are covered by the twin-parity and
    fixture recall tests)."""
    from universal_parquet_exporter_ray.stages.ann import (
        LshBandEmit,
        _normalize,
        lsh_bucket_pairs,
    )

    rng = np.random.default_rng(seed)
    dim = 6
    mat = rng.normal(0, 1, (n, dim))
    ids = np.arange(n, dtype=np.int64) * 7 + 3  # non-contiguous ids
    df = pd.DataFrame({"vec_id": ids, "embedding": list(mat)})
    planes = np.random.default_rng(seed + 1).standard_normal((bands * r, dim))

    emitted = LshBandEmit(planes, bands, r)(df)
    reducer = lsh_bucket_pairs(thr)
    parts = [
        reducer(g.reset_index(drop=True))
        for _, g in emitted.groupby("bh", sort=False)
    ]
    got = pd.concat(parts, ignore_index=True) if parts else None
    got = (
        got.groupby(["id_a", "id_b"], as_index=False)["cos_ppm"].max()
        if got is not None and len(got)
        else pd.DataFrame(columns=["id_a", "id_b", "cos_ppm"])
    )
    got = got.sort_values(["id_a", "id_b"]).reset_index(drop=True)

    # brute force: same-band collision mask ∧ cosine threshold
    emb = _normalize(mat)
    bits = (emb @ planes.T) >= 0.0
    codes = bits.reshape(n, bands, r)
    sims = emb @ emb.T
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            share = any(
                (codes[i, b] == codes[j, b]).all() for b in range(bands)
            )
            if share and sims[i, j] >= thr:
                a, b2 = sorted((ids[i], ids[j]))
                c = sims[i, j] if ids[i] < ids[j] else sims[j, i]
                ppm = int(np.sign(c * 1e6) * np.floor(abs(c * 1e6) + 0.5))
                rows.append((a, b2, ppm))
    want = (
        pd.DataFrame(rows, columns=["id_a", "id_b", "cos_ppm"])
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    if len(want):
        assert (got["id_a"].to_numpy() == want["id_a"].to_numpy()).all()
        assert (got["id_b"].to_numpy() == want["id_b"].to_numpy()).all()
        assert (got["cos_ppm"].to_numpy() == want["cos_ppm"].to_numpy()).all()


# ---- exact-substring (sliding-window) dedup --------------------------------


def _brute_substr(docs, w):
    """Brute-force ExactSubstr semantics: every w-token window occurring
    >=2 times corpus-wide is removed at all but its (doc, pos)-first
    occurrence; per-doc spans merge. Returns {doc_id: (n_occ, tokens)}."""
    occ: dict = {}
    for did, t in enumerate(docs):
        toks = t.split()
        for i in range(len(toks) - w + 1):
            occ.setdefault(tuple(toks[i : i + w]), []).append((did, i))
    rem: dict = {}
    for lst in occ.values():
        if len(lst) >= 2:
            for did, pos in sorted(lst)[1:]:
                rem.setdefault(did, []).append(pos)
    out = {}
    for did, poss in rem.items():
        poss = sorted(poss)
        total, start, end = 0, poss[0], poss[0] + w
        for p in poss[1:]:
            if p <= end:
                end = max(end, p + w)
            else:
                total += end - start
                start, end = p, p + w
        total += end - start
        out[did] = (len(poss), total)
    return out


@settings(max_examples=40, deadline=None)
@given(
    docs=st.lists(
        st.text(alphabet="ab ", min_size=0, max_size=40), min_size=1, max_size=12
    ),
    w=st.sampled_from([1, 2, 3]),
)
def test_exact_substr_matches_bruteforce(docs, w):
    """The full broadcast-plan semantics (window emission -> dup table ->
    filter+span merge) against brute force, any docs/window size — pure
    pandas, no Ray in the loop."""
    import numpy as np

    from universal_parquet_exporter_ray.stages.dedup import (
        SubstrFilterStage,
        emit_token_windows,
    )

    df = pd.DataFrame(
        {"doc_id": np.arange(len(docs), dtype=np.int64), "text": docs}
    )
    wins = emit_token_windows(df, w)
    if len(wins):
        g = (
            wins.groupby(["h1", "h2"])
            .agg(c=("packed", "size"), first=("packed", "min"))
            .reset_index()
        )
        dup = g[g["c"] >= 2]
    else:
        dup = pd.DataFrame(
            {
                "h1": pd.Series([], dtype="int64"),
                "h2": pd.Series([], dtype="int64"),
                "first": pd.Series([], dtype="int64"),
            }
        )
    got = SubstrFilterStage(
        dup["h1"].to_numpy(), dup["h2"].to_numpy(), dup["first"].to_numpy(), w
    )(df)
    want = _brute_substr(docs, w)
    assert len(got) == len(want)
    for r in got.itertuples():
        assert want[int(r.doc_id)] == (int(r.dup_windows), int(r.removed_tokens))


def test_exact_substr_both_plans_agree(ray_session):
    """Broadcast (combiner + second-scan filter) and distributed (coarse
    hash-bucket groupby + doc-bucket span merge) plans produce identical
    frames on the real corpus."""
    from universal_parquet_exporter_ray.pipelines.textops import QUERIES

    sf = "/root/testdata/sf0.001"
    a = (
        QUERIES["exact_substr_dedup"](sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        QUERIES["exact_substr_dedup"](sf, force_distributed=True)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(a) > 0
    assert a.equals(b)
    assert (a["removed_tokens"] >= a["dup_windows"] * 0 + 1).all()


def test_exact_substr_no_duplicates_empty(ray_session, tmp_path):
    """A corpus with no repeated window keeps every doc untouched: both
    plans return an EMPTY typed frame (no rows, int64 schema)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.textops import QUERIES

    docs = [
        " ".join(f"tok{i}_{j}" for j in range(12)) for i in range(6)
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(6), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    for kw in ({}, {"force_distributed": True}):
        out = QUERIES["exact_substr_dedup"](str(tmp_path), **kw)
        df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
        assert len(df) == 0
        assert list(df.columns) == ["doc_id", "dup_windows", "removed_tokens"]
        assert all(str(t) == "int64" for t in df.dtypes)


def _distinct_docs(n=12, n_tok=30):
    return [" ".join(f"u{i}_{j}" for j in range(n_tok)) for i in range(n)]


# query, the kwargs of its plan, the kwargs that empty the result, and a
# small corpus that gives no result row: (texts, lang) for ``documents``,
# or None for a random ``embeddings`` table
EMPTY_RESULT_CASES = {
    "minhash_lsh_pairs": ("minhash_lsh_pairs", {}, {}, (_distinct_docs(), "en")),
    "ngram_jaccard_pairs": ("ngram_jaccard_pairs", {}, {}, (_distinct_docs(), "en")),
    "decontaminate_neardup": (
        "decontaminate_neardup", {}, {}, (_distinct_docs(), "en")
    ),
    # distinct texts: every doc is its own cluster, so rows, not none
    "dedup_keep_best": ("dedup_keep_best", {}, {}, (_distinct_docs(), "en")),
    "exact_substr_dedup[broadcast]": (
        "exact_substr_dedup", {}, {}, (["a b c d e"] * 6, "en")
    ),
    "exact_substr_dedup[distributed]": (
        "exact_substr_dedup",
        {"force_distributed": True},
        {},
        (["a b c d e"] * 6, "en"),
    ),
    "curate_corpus": ("curate_corpus", {}, {}, (_distinct_docs(n_tok=40), "de")),
    # doc ids 0 and 10 are the bench docs, both under 3 tokens
    "bloom_decontaminate": (
        "bloom_decontaminate",
        {},
        {},
        (
            ["x y" if i % 10 == 0 else t for i, t in enumerate(_distinct_docs(14))],
            "en",
        ),
    ),
    "embedding_near_dup": ("embedding_near_dup", {}, {"threshold": 1.5}, None),
    "embedding_near_dup_lsh": (
        "embedding_near_dup_lsh", {}, {"threshold": 1.5}, None
    ),
}


def _as_frame(out) -> pd.DataFrame:
    return out if isinstance(out, pd.DataFrame) else out.to_pandas()


@pytest.mark.parametrize("case", sorted(EMPTY_RESULT_CASES))
def test_empty_result_keeps_the_query_dtypes(ray_session, tmp_path, sf_small, case):
    """A query whose per-batch bodies and reducers have no empty-input
    branch still returns a typed result when a real corpus gives no result
    row: the same columns and dtypes as its sf0.001 result, typed once at
    the collect (``agg.to_frame``) or by ``combiner_groupby`` from its
    input."""
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.textops import QUERIES

    name, plan_kw, empty_kw, corpus = EMPTY_RESULT_CASES[case]
    if corpus is None:
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((24, 8)).astype(np.float32)
        tbl = pa.table(
            {
                "vec_id": pa.array(np.arange(24), pa.int64()),
                "embedding": pa.array(list(emb), pa.list_(pa.float32())),
            }
        )
        pq.write_table(tbl, tmp_path / "embeddings.parquet")
    else:
        texts, lang = corpus
        tbl = pa.table(
            {
                "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array([lang] * len(texts), pa.string()),
            }
        )
        pq.write_table(tbl, tmp_path / "documents.parquet")

    got = _as_frame(QUERIES[name](str(tmp_path), **plan_kw, **empty_kw))
    ref = _as_frame(QUERIES[name](sf_small, **plan_kw))
    assert len(ref) > 0
    assert len(got) == (len(texts) if name == "dedup_keep_best" else 0)
    assert list(got.columns) == list(ref.columns)
    assert got.dtypes.astype(str).to_dict() == ref.dtypes.astype(str).to_dict()


# every query whose grouped aggregate ends in ``stages.agg.final_reduce``
# and whose step after it is written once for both result shapes
FINAL_PLAN_QUERIES = [
    "case_bucket",
    "having",
    "distinct_rows",
    "datediff",
    "dedup_exact",
    "decontaminate_neardup",
    "curate_corpus",
    "heavy_hitters",
    "exact_substr_dedup",
    "group_agg",
    "count_distinct",
    "join_left_coalesce",
    "dedup_keep_best",
]


@pytest.mark.parametrize("name", FINAL_PLAN_QUERIES)
def test_final_plans_agree(ray_session, monkeypatch, name):
    """A query gives the same frame, with the same column order and dtypes,
    whether its finals run on the driver (the default on sf0.001) or, with
    ``FINAL_REDUCE_CAP = 0``, as co-partitions; only the forced run goes
    through the shared final's ``co_partition``. For ``exact_substr_dedup``
    this pins the sf0.1 incident too: the distributed final must keep the
    exact 64-bit window hashes (int64 bit view, never float64)."""
    from universal_parquet_exporter_ray.pipelines.relational import (
        QUERIES as REL,
    )
    from universal_parquet_exporter_ray.pipelines.textops import QUERIES as TXT
    from universal_parquet_exporter_ray.stages import agg

    query = {**REL, **TXT}[name]
    calls, real = [], agg.co_partition

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(agg, "co_partition", spy)

    def run():
        out = query("/root/testdata/sf0.001")
        df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    driver = run()
    assert calls == []
    monkeypatch.setattr(agg, "FINAL_REDUCE_CAP", 0)
    forced = run()
    assert calls
    assert len(driver) > 0
    if name == "exact_substr_dedup":
        assert all(str(t) == "int64" for t in driver.dtypes)
    assert list(forced.columns) == list(driver.columns)
    pd.testing.assert_frame_equal(forced, driver)


def test_combiner_groupby_distributed_final_string_and_null_keys(ray_session, monkeypatch):
    """The bucket-hash distributed final must co-partition string and NULL
    keys consistently across partial blocks: exactly one output row per
    (k1, k2) group including the null-key groups, equal to the driver
    final."""
    import numpy as np

    import ray

    from universal_parquet_exporter_ray.stages import agg
    from universal_parquet_exporter_ray.stages.agg import combiner_groupby

    rng = np.random.default_rng(7)
    n = 4000
    k1 = pd.Series(rng.choice(["alpha", "beta", "gamma", None], n))
    df = pd.DataFrame(
        {
            "k1": k1,
            "k2": rng.integers(0, 5, n).astype("int64"),
            "v": rng.integers(0, 1000, n).astype("int64"),
        }
    )
    ds = ray.data.from_pandas(df).repartition(8)
    kwargs = dict(sums={"v": "sum_v"}, count="n_rows")
    small = combiner_groupby(ds, ["k1", "k2"], **kwargs)
    monkeypatch.setattr(agg, "FINAL_REDUCE_CAP", 0)
    large = combiner_groupby(ds, ["k1", "k2"], **kwargs).to_pandas()

    canon = lambda d: (
        d.sort_values(["k1", "k2"], na_position="last")
        .reset_index(drop=True)[sorted(d.columns)]
    )
    pd.testing.assert_frame_equal(canon(small), canon(large), check_dtype=False)
    # one row per group, nulls included: 4 k1 values x 5 k2 values
    assert len(large) == 20
    assert large["k1"].isna().sum() == 5
    # an Arrow int64 key with nulls in its first rows only reaches the
    # final as float64 in the first partial block and int64 in the others;
    # each value must still form ONE group
    k3 = pa.array([None, None] + rng.integers(0, 3, n - 2).tolist(), pa.int64())
    ds3 = ray.data.from_arrow(pa.table({"k3": k3, "v": df["v"]})).repartition(8)
    out3 = combiner_groupby(ds3, ["k3"], count="n_rows").to_pandas()
    assert len(out3) == 4 and int(out3["n_rows"].sum()) == n


def test_decontaminate_neardup_flags_train_side_only(ray_session, tmp_path):
    """A training doc (id%10!=0) near-duplicating a benchmark doc (id%10==0)
    is flagged with its match count; bench docs and train-train near-dups
    are never flagged; disjoint docs don't appear."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.textops import QUERIES

    base = " ".join(f"w{i}" for i in range(40))
    other = " ".join(f"q{i}" for i in range(40))
    docs = {
        10: base,                      # benchmark member
        3: base + " tail3",            # train, near-dups the bench doc
        7: other,                      # train
        13: other + " tail13",         # train, near-dups ANOTHER TRAIN doc
        21: " ".join(f"z{i}" for i in range(40)),  # train, unique
    }
    tbl = pa.table(
        {
            "doc_id": pa.array(list(docs), pa.int64()),
            "text": pa.array(list(docs.values()), pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    out = QUERIES["decontaminate_neardup"](str(tmp_path))
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    assert df["doc_id"].tolist() == [3]
    assert df["n_bench_matches"].tolist() == [1]
    assert 500_000 <= df["max_jac_ppm"].iloc[0] <= 1_000_000


def test_decontaminate_neardup_no_matches_empty(ray_session, tmp_path):
    """No cross-set near-dups: empty result with the output columns intact
    (exercises combiner_groupby's empty-partial-stream guard)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.textops import QUERIES

    docs = {i: " ".join(f"u{i}_{j}" for j in range(30)) for i in range(8)}
    tbl = pa.table(
        {
            "doc_id": pa.array(list(docs), pa.int64()),
            "text": pa.array(list(docs.values()), pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    out = QUERIES["decontaminate_neardup"](str(tmp_path))
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    assert len(df) == 0
    assert list(df.columns) == ["doc_id", "n_bench_matches", "max_jac_ppm"]
    assert all(str(t) == "int64" for t in df.dtypes)  # strict-dtype safe


def test_quantiles_hist_within_bin_width_of_exact(ray_session):
    """The histogram-sketch quantiles land within one bin width of the
    exact rank-machinery quantiles on the real table (the sketch's error
    bound), and the output is a single typed row."""
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.relational import QUERIES

    sf = "/root/testdata/sf0.001"
    approx = QUERIES["quantiles_hist"](sf)
    exact = QUERIES["quantiles"](sf)
    assert len(approx) == 1 and len(exact) == 1
    t = pq.read_table(f"{sf}/orders.parquet", columns=["o_totalprice"])
    col = t["o_totalprice"].to_numpy()
    bin_c = (col.max() - col.min()) / 4096 * 100  # one bin width, in cents
    for p in ("p50_c", "p90_c", "p99_c"):
        got, want = int(approx[p].iloc[0]), int(exact[p].iloc[0])
        assert abs(got - want) <= bin_c + 1, (p, got, want, bin_c)


def test_clz64_matches_bit_length():
    """Vectorized count-leading-zeros against Python int.bit_length on
    boundary and random uint64 values."""
    import numpy as np

    from universal_parquet_exporter_ray.pipelines.relational import _clz64

    rng = np.random.default_rng(3)
    vals = np.concatenate(
        [
            np.array([1, 2, 3, (1 << 63), (1 << 64) - 1, 5, 1 << 32], dtype=np.uint64),
            rng.integers(1, 1 << 63, 500).astype(np.uint64),
        ]
    )
    got = _clz64(vals)
    want = np.array([64 - int(v).bit_length() for v in vals], dtype=np.int64)
    assert (got == want).all()


def test_hll_count_distinct_accuracy_and_determinism(ray_session):
    """The HLL estimate lands within 5% (> 3 sigma at p=12) of the exact
    distinct count on the real table, and is bit-deterministic across
    runs."""
    from universal_parquet_exporter_ray.pipelines.relational import QUERIES

    for sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01"):
        est = QUERIES["hll_count_distinct"](sf)
        exact = int(QUERIES["global_count_distinct"](sf)["n_custs"].iloc[0])
        e = int(est["n_custs_est"].iloc[0])
        assert abs(e - exact) / exact < 0.05, (sf, e, exact)
        again = int(QUERIES["hll_count_distinct"](sf)["n_custs_est"].iloc[0])
        assert again == e


def test_kmeans_embeddings_matches_numpy_reference(ray_session):
    """The distributed Lloyd's k-means (partial-sum combiner + driver fold)
    produces EXACTLY the same assignments as a single-machine NumPy run of
    the identical algorithm on the full table, is deterministic across
    reruns, and uses every cluster on the real corpus."""
    import numpy as np
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.textops import QUERIES
    from universal_parquet_exporter_ray.stages.ann import _normalize

    sf = "/root/testdata/sf0.001"
    k, iters = 8, 5
    out = (
        QUERIES["kmeans_embeddings"](sf, k=k, iters=iters)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )

    tbl = pq.read_table(
        f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).to_pandas().sort_values("vec_id")
    emb = _normalize(np.stack(tbl["embedding"].to_numpy()).astype(np.float64))
    cent = emb[:k].copy()
    for _ in range(iters):
        assign = np.argmax(emb @ cent.T, axis=1)
        for j in range(k):
            m = emb[assign == j]
            if len(m):
                # mirror the engine's fixed-point partial sums exactly
                # (per-element round(e * 2^20), int64 sum; the scale
                # cancels in the spherical normalization)
                s = np.rint(m * (1 << 20)).astype(np.int64).sum(axis=0).astype(np.float64)
                n = np.linalg.norm(s)
                if n > 0:
                    cent[j] = s / n
    want = np.argmax(emb @ cent.T, axis=1)

    assert len(out) == len(tbl)
    assert (out["cluster_id"].to_numpy() == want).all()
    assert out["cluster_id"].nunique() == k
    again = (
        QUERIES["kmeans_embeddings"](sf, k=k, iters=iters)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert (again["cluster_id"].to_numpy() == out["cluster_id"].to_numpy()).all()


def test_semdedup_matches_numpy_reference(ray_session):
    """SemDeDup's distributed plan (kmeans -> cluster co-partition ->
    greedy in-cluster cosine prune) equals a single-machine NumPy run of
    the identical algorithm; the kept set is non-trivial both ways (some
    drop, some survive) at a threshold chosen against the corpus."""
    import numpy as np
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.textops import QUERIES
    from universal_parquet_exporter_ray.stages.ann import _normalize

    sf = "/root/testdata/sf0.001"
    k, iters, thr = 8, 5, 0.4
    got = (
        QUERIES["semdedup"](sf, k=k, iters=iters, threshold=thr)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )

    tbl = pq.read_table(
        f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).to_pandas().sort_values("vec_id")
    emb = _normalize(np.stack(tbl["embedding"].to_numpy()).astype(np.float64))
    cent = emb[:k].copy()
    for _ in range(iters):
        assign = np.argmax(emb @ cent.T, axis=1)
        for j in range(k):
            m = emb[assign == j]
            if len(m):
                # fixed-point partial sums, mirroring the engine exactly
                s = np.rint(m * (1 << 20)).astype(np.int64).sum(axis=0).astype(np.float64)
                n = np.linalg.norm(s)
                if n > 0:
                    cent[j] = s / n
    assign = np.argmax(emb @ cent.T, axis=1)
    ids = tbl["vec_id"].to_numpy(np.int64)
    kept = {}
    for c in range(k):
        member = np.nonzero(assign == c)[0]
        member = member[np.argsort(ids[member])]
        sims = emb[member] @ emb[member].T
        kidx = []
        for i in range(len(member)):
            if not kidx or not (sims[i, kidx] > thr).any():
                kidx.append(i)
        for i in range(len(member)):
            kept[int(ids[member[i]])] = i in kidx
    assert len(got) == len(tbl)
    assert (got["cluster_id"].to_numpy() == assign[np.argsort(ids)]).all()
    for r in got.itertuples():
        assert kept[int(r.vec_id)] == bool(r.kept)
    n_kept = int(got["kept"].sum())
    assert 0 < n_kept < len(got)


def test_quality_filter_threshold_and_ties(ray_session, tmp_path):
    """Relative quality filter: the p75 order-statistic threshold is
    corpus-derived, docs AT the threshold are kept (>=, matching the SQL
    twin), and the engine agrees with DuckDB exactly on a fixture with
    ties at the boundary."""
    import duckdb
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.textops import (
        QUALITY_FILTER_ORACLE_SQL,
        QUERIES,
    )

    # alpha ratios: 4 docs low, 4 docs exactly at the future threshold
    texts = ["aa 11 22 33"] * 4 + ["aaaa bb 11"] * 4  # distinct alpha ppm
    tbl = pa.table(
        {
            "doc_id": pa.array(range(8), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * 8),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    out = QUERIES["quality_filter"](str(tmp_path))
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM read_parquet("
        f"'{tmp_path}/documents.parquet')"
    )
    oracle = (
        con.execute(QUALITY_FILTER_ORACLE_SQL)
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con.close()
    # the 4 high-alpha docs tie AT the p75 threshold: all kept
    assert set(out["doc_id"]) == {4, 5, 6, 7}
    pd.testing.assert_frame_equal(
        out[["doc_id", "alpha_ppm"]],
        oracle[["doc_id", "alpha_ppm"]],
        check_dtype=False,
    )


@pytest.mark.parametrize("texts", [[], ["", ""]], ids=["no_docs", "all_empty_text"])
def test_quality_filter_empty_corpus(ray_session, tmp_path, texts):
    """No document with text leaves no p75 to threshold on: the filter
    returns an empty (doc_id, alpha_ppm) frame instead of crashing."""
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.textops import QUERIES

    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(["en"] * len(texts), type=pa.string()),
            "n_chars": pa.array([0] * len(texts), type=pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    out = QUERIES["quality_filter"](str(tmp_path))
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    assert len(out) == 0
    assert list(out.columns) == ["doc_id", "alpha_ppm"]


def test_mixture_sample_rebalances_shares(ray_session, tmp_path):
    """Mixture rebalancing semantics on a skewed corpus: a language at 8×
    the uniform share is downsampled toward the uniform cap, languages at
    or under the uniform share keep EVERY doc (cap = n_lang ⇒ accept-all),
    and the selection is deterministic."""
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.textops import QUERIES

    langs = ["en"] * 800 + ["fr"] * 100 + ["de"] * 60 + ["sw"] * 40
    n = len(langs)
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), type=pa.int64()),
            "text": pa.array([f"doc {i} text body" for i in range(n)]),
            "lang": pa.array(langs),
            "n_chars": pa.array([15] * n, type=pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    out = QUERIES["mixture_sample"](str(tmp_path))
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    shares = out["lang"].value_counts()
    uniform = n // 4  # 250

    # under-represented languages are untouched (cap == n_lang)
    assert shares.get("fr", 0) == 100
    assert shares.get("de", 0) == 60
    assert shares.get("sw", 0) == 40
    # the hot language's EXPECTED share is the uniform cap (250 of 800);
    # the Bernoulli realization concentrates near it
    assert 175 <= shares.get("en", 0) <= 325
    # deterministic
    again = QUERIES["mixture_sample"](str(tmp_path))
    if not isinstance(again, pd.DataFrame):
        again = again.to_pandas()
    pd.testing.assert_frame_equal(
        out.sort_values("doc_id").reset_index(drop=True),
        again.sort_values("doc_id").reset_index(drop=True),
    )


def test_bloom_decontaminate_no_false_negatives(ray_session):
    """Bloom decontamination on the real corpus: every training doc that
    ACTUALLY shares a word-3-gram with the bench split is flagged (no false
    negatives, by Bloom construction), each flagged doc's n_hits upper-
    bounds its true shared-shingle count, the false-positive doc set is
    within the standard bound, and the result is deterministic."""
    from universal_parquet_exporter_ray.pipelines.textops import QUERIES
    from universal_parquet_exporter_ray.stages.dedup import word_shingle_hashes
    import pyarrow.parquet as pq

    sf = "/root/testdata/sf0.001"
    got = QUERIES["bloom_decontaminate"](sf)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()

    docs = pq.read_table(
        f"{sf}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    docs = docs[docs["text"].fillna("").str.count(r"\S+") >= 3]
    ids = docs["doc_id"].to_numpy(np.int64)
    sets = {
        int(i): set(word_shingle_hashes(t).tolist())
        for i, t in zip(ids, docs["text"])
    }
    bench_union = set()
    for i in ids[ids % 10 == 0]:
        bench_union |= sets[int(i)]
    exact = {
        int(i): len(sets[int(i)] & bench_union)
        for i in ids[ids % 10 != 0]
        if sets[int(i)] & bench_union
    }

    flagged = dict(
        zip(got["doc_id"].to_numpy(np.int64), got["n_hits"].to_numpy(np.int64))
    )
    # no false negatives, and n_hits >= true shared-shingle count per doc
    for d, n_true in exact.items():
        assert d in flagged, f"contaminated doc {d} not flagged"
        assert flagged[d] >= n_true
    # false positives bounded: with n_bits set and k=4 hashes over m=2^20
    # bits the per-shingle FP rate is tiny at this corpus size — allow a
    # generous 1% of clean docs before calling it broken
    n_clean = int((ids % 10 != 0).sum()) - len(exact)
    n_fp = len(set(flagged) - set(exact))
    assert n_fp <= max(2, n_clean // 100)
    # deterministic
    again = QUERIES["bloom_decontaminate"](sf)
    if not isinstance(again, pd.DataFrame):
        again = again.to_pandas()
    pd.testing.assert_frame_equal(got, again)


def test_heavy_hitters_bounds_contain_exact_counts(ray_session):
    """Misra–Gries guarantee on the real corpus: every reported token's
    [count_lo, count_hi] interval contains its exact corpus count, the
    intervals are tight enough to be useful (deduction <= tokens/m), and
    the true top-5 tokens all appear; deterministic on a fixed layout."""
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.textops import QUERIES

    sf = "/root/testdata/sf0.001"
    k, m = 20, 256  # small m to make the trim actually bite
    got = QUERIES["heavy_hitters"](sf, k=k, m=m)
    assert list(got.columns) == ["token", "count_lo", "count_hi"]
    assert len(got) == k

    texts = pq.read_table(f"{sf}/documents.parquet", columns=["text"])[
        "text"
    ].to_pylist()
    exact = pd.Series(
        [t for d in texts for t in d.split()], dtype="object"
    ).value_counts()
    n_tokens = int(exact.sum())
    deduction = int(got["count_hi"].iloc[0] - got["count_lo"].iloc[0])
    # the MG bound: summed per-batch cuts never exceed tokens/(m+1)
    assert deduction <= n_tokens // (m + 1) + 1
    for r in got.itertuples():
        true = int(exact.get(r.token, 0))
        assert r.count_lo <= true <= r.count_hi, (r.token, true)
    # every true heavy hitter above the deduction must be present
    must = exact[exact > deduction].index
    assert set(must[:5]).issubset(set(got["token"]))
    again = QUERIES["heavy_hitters"](sf, k=k, m=m)
    assert got.equals(again)


def test_quantiles_hist_constant_column(ray_session, tmp_path):
    """A constant aggregation column (hi == lo) short-circuits to the value
    itself instead of dividing by zero in the bin expression."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from universal_parquet_exporter_ray.pipelines.relational import QUERIES

    tbl = pa.table(
        {"o_totalprice": pa.array([42.5] * 100, pa.float64())}
    )
    pq.write_table(tbl, tmp_path / "orders.parquet")
    out = QUERIES["quantiles_hist"](str(tmp_path))
    assert out.iloc[0].tolist() == [4250, 4250, 4250]


@settings(max_examples=40, deadline=None)
@given(
    docs=st.lists(
        st.text(alphabet="abc ", min_size=0, max_size=30), min_size=1, max_size=20
    ),
    n_splits=st.integers(1, 5),
    m=st.sampled_from([1, 2, 4]),
)
def test_mg_partial_merge_bounds_any_split(docs, n_splits, m):
    """Misra–Gries merge algebra, pure (no Ray): for ANY split of the corpus
    into batches and ANY summary size m, summed partials give
    count_lo ≤ true ≤ count_lo + Σ cuts for EVERY token, and
    Σ cuts ≤ total_tokens/(m+1)."""
    from universal_parquet_exporter_ray.pipelines.textops import (
        _MG_DEDUCT,
        mg_partial,
    )

    frames = [
        pd.DataFrame({"text": docs[i::n_splits]}) for i in range(n_splits)
    ]
    parts = pd.concat(
        [mg_partial(f, m) for f in frames if len(f)], ignore_index=True
    )
    merged = parts.groupby("token")["c"].sum()
    deducted = int(merged.get(_MG_DEDUCT, 0))
    exact = pd.Series(
        [t for d in docs for t in d.split()], dtype="object"
    ).value_counts()
    total = int(exact.sum())
    assert deducted <= total // (m + 1) + n_splits  # per-batch floor slack
    for tok, true in exact.items():
        lo = int(merged.get(tok, 0))
        assert lo <= true <= lo + deducted, (tok, lo, true, deducted)


def test_mg_partial_tokens_match_str_split():
    """``mg_partial`` counts Arrow ``utf8_split_whitespace`` tokens; they
    are exactly Python ``str.split()``'s, including the ASCII separators
    \\x1c-\\x1f and the Unicode spaces \\xa0, \\u2028 and \\u3000, and
    leading, trailing and repeated whitespace adds no empty token."""
    from universal_parquet_exporter_ray.pipelines.textops import mg_partial

    docs = [
        "a\x1cb\x1dc\x1ed\x1fe",
        " \xa0f\u2028g\u3000\u3000h\t\n",
        "",
        "   ",
        "a a  b",
    ]
    got = mg_partial(pd.DataFrame({"text": docs}), 100)
    want = pd.Series([t for d in docs for t in d.split()]).value_counts()
    assert dict(zip(got["token"], got["c"])) == want.to_dict()
    assert got["c"].dtype == "int64" and got["token"].dtype == object
