"""Every ``co_partition`` reducer of the package gets a block holding many
keys. Ray-free properties: one call on a shuffled many-key frame gives the
same rows as one call per key; and no module calls Ray's ``map_groups``
or ``groupby().aggregate`` (``co_partition`` is the one grouped shuffle)."""

from __future__ import annotations

import ast
import pathlib
import re
import tempfile

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "universal_parquet_exporter_ray"


def _embeddings(rng, n, dim=4):
    # few distinct directions so near-duplicates (and cosine ties) occur
    base = rng.normal(0, 1, (max(1, n // 3), dim))
    mat = base[rng.integers(0, len(base), n)] + rng.normal(0, 0.05, (n, dim))
    return list(mat)


def _ranged(rng, n, n_keys):
    """Rows of ``n_keys`` value ranges with their range ``_rng`` and the
    range's offset ``_off`` (what ``stages.rank._range_plan`` hands its
    range pass)."""
    k = rng.permutation(n * 3)[:n].astype(np.int64)
    splitters = np.sort(rng.integers(0, n * 3, n_keys - 1))
    return pd.DataFrame(
        {
            "k": k,
            "v": rng.integers(-5, 5, n).astype(np.int64),
            "_rng": np.searchsorted(splitters, k, side="right").astype(np.int64),
            "_off": rng.integers(-20, 20, n_keys)[
                np.searchsorted(splitters, k, side="right")
            ].astype(np.int64),
        }
    )


def _range_pass(block_pass):
    def fn(frame):
        return block_pass(
            frame.drop(columns=["_rng", "_off"]),
            frame["_rng"].to_numpy(np.int64),
            frame["_off"].to_numpy(np.int64),
        )

    return fn


def _case(name, rng, n, n_keys, tmp):
    from universal_parquet_exporter_ray.pipelines.relational import (
        interval_partials,
        range_sums_1h,
        top10_by_priority,
    )
    from universal_parquet_exporter_ray.pipelines.textops import (
        lowest_hash_rows,
        top_terms,
    )
    from universal_parquet_exporter_ray.stages import ann, rank

    key = rng.integers(0, n_keys, n).astype(np.int64)
    if name == "final_topk":
        frame = pd.DataFrame(
            {
                "query_id": key,
                "vec_id": rng.permutation(n).astype(np.int64),
                "cos": rng.integers(-4, 4, n) / 4.0,
            }
        )
        return ann.final_topk(int(rng.integers(1, 4))), frame, "query_id"
    if name == "final_knn":
        frame = pd.DataFrame(
            {
                "vec_id": key,
                "nbr": rng.permutation(n).astype(np.int64),
                "cos_ppm": rng.integers(-3, 3, n).astype(np.int64),
            }
        )
        return ann.final_knn(int(rng.integers(1, 4))), frame, "vec_id"
    if name == "top10_by_priority":
        frame = pd.DataFrame(
            {
                "o_orderpriority": np.array(["1-URGENT", "2-HIGH", "3-LOW", "4-X", "5-Y"])[key],
                "o_orderkey": rng.permutation(n).astype(np.int64),
                "o_totalprice": rng.integers(0, 4, n).astype(np.float64),
            }
        )
        return top10_by_priority, frame, "o_orderpriority"
    if name == "stratified_final":
        frame = pd.DataFrame(
            {
                "lang": np.array(list("abcde"))[key],
                "doc_id": rng.permutation(n).astype(np.int64),
                "h": rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64),
            }
        )
        m = int(rng.integers(1, 4))
        return lambda f: lowest_hash_rows(f, m)[["lang", "doc_id"]], frame, "lang"
    if name == "top_terms_final":
        frame = pd.DataFrame(
            {
                "lang": np.array(list("abcde"))[key],
                "tok": [f"t{i}" for i in rng.permutation(n)],
                "n": rng.integers(1, 4, n).astype(np.int64),
            }
        )
        k = int(rng.integers(1, 4))
        return lambda f: top_terms(f, k)[["lang", "tok", "n"]], frame, "lang"
    if name == "range_sums_1h":
        frame = pd.DataFrame(
            {
                "event_id": rng.permutation(n).astype(np.int64),
                "user_id": key,
                "ts_us": rng.integers(0, 12, n).astype(np.int64) * 900_000_000,
                "value": rng.integers(-40, 40, n) / 4.0,
            }
        )
        return range_sums_1h, frame, "user_id"
    if name == "rank_block":
        desc = bool(rng.integers(0, 2))
        return _range_pass(rank.rank_block("v", "r", desc)), _ranged(rng, n, n_keys), "_rng"
    if name in ("scan_block_sum", "scan_block_max"):
        uf, ident = (np.add, 0) if name.endswith("sum") else (np.maximum, rank._NO_PREV)
        fn = _range_pass(rank.scan_block("k", "v", "pre", uf, ident))
        return fn, _ranged(rng, n, n_keys), "_rng"
    if name in ("all_pairs_group", "knn_group"):
        G = int(rng.integers(1, 4))
        frame = ann.PairGroupReplicate(G)(
            pd.DataFrame(
                {"vec_id": rng.permutation(n).astype(np.int64), "embedding": _embeddings(rng, n)}
            )
        )
        fn = ann.all_pairs_group(0.5, G) if name == "all_pairs_group" else ann.knn_group(2, G)
        return fn, frame, "pg"
    if name == "lsh_bucket_pairs":
        planes = rng.standard_normal((2 * 2, 4))
        frame = ann.LshBandEmit(planes, 2, 2)(
            pd.DataFrame(
                {"vec_id": rng.permutation(n).astype(np.int64), "embedding": _embeddings(rng, n)}
            )
        )
        return ann.lsh_bucket_pairs(0.5), frame, "bh"
    if name == "rebuild_segments":
        from universal_parquet_exporter_ray.stages.dedup import rebuild_segments

        # docs of 0-9 tokens in 2-token segments, and drop rows naming
        # some of their segments (a few past the doc's last one)
        ids = rng.permutation(n).astype(np.int64)
        texts = [" ".join(rng.choice(list("abcd"), rng.integers(0, 10))) for _ in ids]
        drop_doc = rng.choice(ids, n)
        drop_seg = rng.integers(0, 6, n).astype(np.int64)
        frame = pd.DataFrame(
            {
                "doc_id": np.concatenate([ids, drop_doc]),
                "text": pd.Series(texts + [None] * n, dtype="object"),
                "seg_no": np.concatenate([np.full(n, -1, np.int64), drop_seg]),
            }
        )
        return (lambda f: rebuild_segments(f, 2).to_pandas()), frame, "doc_id"
    emb = pd.DataFrame(
        {"vec_id": rng.permutation(n).astype(np.int64), "embedding": _embeddings(rng, n)}
    )
    if name == "bucket_knn":
        return ann.bucket_knn(2), emb.assign(bucket=key), "bucket"
    if name == "semdedup_cluster":
        return (lambda f: ann.semdedup_cluster(f, 0.8)), emb.assign(cluster_id=key), "cluster_id"
    if name == "bucket_writer":
        return ann.bucket_writer(tmp, 3), emb.assign(bucket=key), "bucket"
    assert name == "interval_partials"
    role = rng.integers(0, 2, n).astype(np.int64)
    t = rng.integers(0, 10, n).astype(np.int64)
    frame = pd.DataFrame(
        {
            "bucket": key,
            "role": role,
            "iv_id": np.where(role == 1, rng.integers(0, 4, n), 0).astype(np.int64),
            "t0": t,
            "t1": np.where(role == 1, t + rng.integers(0, 5, n), t).astype(np.int64),
            "value": rng.integers(-8, 8, n) / 4.0,
        }
    )
    return interval_partials, frame, "bucket"


REDUCERS = [
    "final_topk", "final_knn", "top10_by_priority", "stratified_final",
    "top_terms_final", "range_sums_1h", "rank_block", "scan_block_sum",
    "scan_block_max", "all_pairs_group", "knn_group", "lsh_bucket_pairs",
    "bucket_knn", "semdedup_cluster", "bucket_writer", "interval_partials",
    "rebuild_segments",
]


def _rows(df: pd.DataFrame) -> pd.DataFrame:
    """Comparable form: list cells as tuples, rows sorted on every column."""
    df = df.map(lambda x: tuple(x) if isinstance(x, np.ndarray) else x)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("name", REDUCERS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 40), n_keys=st.integers(1, 5))
def test_reducer_block_equals_per_key_calls(name, seed, n, n_keys):
    """One call on a shuffled many-key frame (what a ``co_partition``
    block is) equals the concatenation of one call per key."""
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        fn, frame, key = _case(name, rng, n, n_keys, tmp)
        frame = frame.sample(frac=1, random_state=seed).reset_index(drop=True)
        whole = fn(frame)
        parts = pd.concat(
            [fn(g.reset_index(drop=True)) for _, g in frame.groupby(key, sort=False)],
            ignore_index=True,
        )
    assert list(whole.columns) == list(parts.columns)
    assert whole.dtypes.to_dict() == parts.dtypes.to_dict()
    pd.testing.assert_frame_equal(_rows(whole), _rows(parts))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 40), n_users=st.integers(1, 5))
def test_range_sums_1h_matches_bruteforce(seed, n, n_users):
    """Per event: the sum over the same user's events with ts in
    [ts - 1 h, ts] (peers included); quarter values sum exactly."""
    from universal_parquet_exporter_ray.pipelines.relational import range_sums_1h

    rng = np.random.default_rng(seed)
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, n_users, n).astype(np.int64),
            "ts_us": rng.integers(0, 12, n).astype(np.int64) * 900_000_000,
            "value": rng.integers(-40, 40, n) / 4.0,
        }
    )
    out = range_sums_1h(df.sample(frac=1, random_state=seed).reset_index(drop=True))
    got = dict(zip(out["event_id"], out["roll_1h_dm"]))
    for e in df.itertuples(index=False):
        mine = df[
            (df["user_id"] == e.user_id)
            & (df["ts_us"] >= e.ts_us - 3_600_000_000)
            & (df["ts_us"] <= e.ts_us)
        ]
        assert got[e.event_id] == round(mine["value"].sum() * 10000)
    assert len(got) == n == len(out)


def _grouped_shuffle(node) -> bool:
    """A call of Ray's sort-shuffle groupby: ``.map_groups(...)``, or an
    ``.aggregate(...)`` chained on a ``.groupby(...)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr == "map_groups":
        return True
    inner = node.func.value
    return (
        node.func.attr == "aggregate"
        and isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Attribute)
        and inner.func.attr == "groupby"
    )


def test_no_module_calls_map_groups():
    """``stages.co_partition`` is the package's one grouped shuffle: no
    module calls Ray's ``groupby(...).map_groups`` or
    ``groupby(...).aggregate``."""
    calls = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _grouped_shuffle(node)
    ]
    assert calls == []
    # the scan sees both forms, and not a plain global ``ds.aggregate``
    sample = ast.parse(
        "ds.groupby('k').map_groups(f)\n"
        "ds.groupby(['k']).aggregate(Count())\n"
        "ds.aggregate(Count())\n"
    )
    assert sum(map(_grouped_shuffle, ast.walk(sample))) == 2


def _pool_kwargs(node) -> bool:
    """A ``.map_batches(...)`` call that sizes or feeds an actor pool: it
    passes ``concurrency=`` or ``fn_constructor_kwargs=``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "map_batches"
        and any(
            kw.arg in ("concurrency", "fn_constructor_kwargs")
            for kw in node.keywords
        )
    )


def _ray_put(node) -> bool:
    """A ``ray.put(...)`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "put"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "ray"
    )


def _ray_join(node) -> bool:
    """A ``.join(...)`` call with keyword arguments: Ray's
    ``Dataset.join`` always needs ``join_type=``, and ``str.join`` takes
    none."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "join"
        and bool(node.keywords)
    )


_GATE_NAME = re.compile(r"[A-Z][A-Z0-9_]*(_BUDGET|_LIMIT|_CAP|_PAIRS)")


def _gate_constants(tree) -> set:
    """The module-level int constants of ``tree`` named like a plan gate
    (``*_BUDGET``, ``*_LIMIT``, ``*_CAP``, ``*_PAIRS``)."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if not (isinstance(target, ast.Name) and _GATE_NAME.fullmatch(target.id)):
            continue
        leaves = [n for n in ast.walk(value) if not isinstance(n, (ast.BinOp, ast.operator))]
        if all(isinstance(n, ast.Constant) and type(n.value) is int for n in leaves):
            names.add(target.id)
    return names


def test_stage_state_rides_in_the_closure():
    """Driver state reaches a stage one way: in its ``map_batches``
    closure (``stages.map_stage``'s constructor kwargs, or a captured
    frame, key set or splitter array), which Ray Data puts in the object
    store once per operator. No module, ``stages/__init__.py`` included,
    passes ``concurrency=`` or ``fn_constructor_kwargs=`` to
    ``map_batches``, and ``ray.put`` appears only in the encode's raw-task
    wave, as its tasks' argument. No module calls Ray's ``Dataset.join``,
    whose hash shuffle runs in actors: a join that shuffles runs through
    ``joins.hash_join`` (``co_partition``). The plan gates of
    ``stages/`` and ``pipelines/`` are a fixed list, so a new gate is
    added to it on purpose."""
    trees = {
        str(path.relative_to(PACKAGE)): ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    pools = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if _pool_kwargs(node)
    ]
    assert pools == []
    puts = {
        name: sum(map(_ray_put, ast.walk(tree)))
        for name, tree in trees.items()
        if any(map(_ray_put, ast.walk(tree)))
    }
    assert puts == {"pipelines/encode.py": 1}
    joins = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if _ray_join(node)
    ]
    assert joins == []
    gates = set().union(
        *(
            _gate_constants(tree)
            for name, tree in trees.items()
            if name.split("/")[0] in ("stages", "pipelines")
        )
    )
    assert gates == {
        "BROADCAST_ROW_LIMIT",
        "FINAL_REDUCE_CAP",
        "DRIVER_VERIFY_PAIRS",
        "BLOB_BROADCAST_BUDGET",
        "SUBSTR_DUP_BUDGET",
    }
    # the scans see both keywords, the put and Ray's join, and not a plain
    # stage or a str.join; the gate scan sees module-level int gates only
    sample = ast.parse(
        "ds.map_batches(Cls, concurrency=(1, 4))\n"
        "ds.map_batches(Cls, fn_constructor_kwargs={'k': 1})\n"
        "ds.map_batches(fn, batch_format='pandas')\n"
        "ref = ray.put(small)\n"
        "d.put(k, v)\n"
        "a.join(b, join_type='inner', num_partitions=8, on=' '.join(keys))\n"
    )
    assert sum(map(_pool_kwargs, ast.walk(sample))) == 2
    assert sum(map(_ray_put, ast.walk(sample))) == 1
    assert sum(map(_ray_join, ast.walk(sample))) == 1
    gate_sample = ast.parse(
        "A_BUDGET = 64 << 20\n"
        "B_CAP: int = 2_000_000\n"
        "C_PAIRS = {'doc_a': 'int64'}\n"
        "D_LIMIT = float(1 << 51)\n"
        "_E_PAIRS = pd.DataFrame()\n"
        "F_BYTES = 1\n"
        "def f():\n"
        "    G_LIMIT = 3\n"
    )
    assert _gate_constants(gate_sample) == {"A_BUDGET", "B_CAP"}


def _ray_read_parquet(node) -> bool:
    """A call of Ray's reader, ``<ray>.data.read_parquet(...)`` under any
    name for ``ray``, or an import of ``read_parquet`` from Ray."""
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "ray" and any(
            alias.name == "read_parquet" for alias in node.names
        )
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "read_parquet"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "data"
    )


def test_no_module_calls_ray_read_parquet():
    """Every package read goes through ``sources.tables.read_parquet_clean``,
    planned from the footers: no module calls ``ray.data.read_parquet``,
    which builds a ``ParquetDataset`` and waits on a sampling task for
    every read."""
    calls = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _ray_read_parquet(node)
    ]
    assert calls == []
    # the scan sees the call under any alias and the import, and not
    # pandas' reader or DuckDB's SQL function
    sample = ast.parse(
        "ray.data.read_parquet(p)\n"
        "_ray.data.read_parquet(p, columns=c)\n"
        "from ray.data import read_parquet\n"
        "pd.read_parquet(p)\n"
        "con.execute(\"SELECT * FROM read_parquet('x')\")\n"
    )
    assert sum(map(_ray_read_parquet, ast.walk(sample))) == 3
