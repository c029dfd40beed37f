"""Full-pipeline integration: encode → manifest → verify → resume → size
bound vs the reference writer (SURVEY.md §5.2 "Pipeline integration")."""

from __future__ import annotations

import glob
import json
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from universal_parquet_exporter_ray.pipelines import (
    decoded_dataset,
    encode_dataset,
    verify_roundtrip,
)


@pytest.fixture(scope="module")
def encoded(ray_session, source_files_path, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("enc") / "out")
    manifest = encode_dataset(
        source_files_path,
        out,
        partition_by="repo",
        hash_cols=["path"],
        target_rows_per_partition=500,
    )
    return source_files_path, out, manifest.to_pandas()


def test_manifest_contents(encoded):
    src, out, mdf = encoded
    assert len(mdf) >= 4
    assert mdf.n_rows.sum() == pq.read_metadata(src).num_rows
    assert (mdf.encoded_bytes > 0).all()
    codecs = json.loads(mdf.codecs.iloc[0])
    assert set(codecs) == {"repo", "path", "commit", "lang", "content"}
    lineage = json.loads(mdf.lineage.iloc[0])
    assert lineage["partition_by"] == "repo"
    assert "raw_partition_key" in lineage


def test_monorepo_salted_into_buckets(encoded):
    _, _, mdf = encoded
    # repo0 is the zipf hot key: must have been split into >1 salt bucket
    keys = [json.loads(l)["raw_partition_key"] for l in mdf.lineage]
    repo0 = [k for k in keys if k.startswith("org0/repo0#")]
    assert len(repo0) > 1
    # and no partition vastly exceeds the target
    assert mdf.n_rows.max() <= 500 * 1.5


def test_roundtrip_bit_identical(encoded):
    src, out, _ = encoded
    rep = verify_roundtrip(src, out)
    assert rep.ok.all(), rep[~rep.ok]


def test_decoded_row_values_match_source(encoded):
    src, out, _ = encoded
    dec = (
        decoded_dataset(out)
        .to_pandas()
        .drop(columns=["_part"])
        .sort_values(["repo", "path", "commit"])
        .reset_index(drop=True)
    )
    srcdf = (
        pq.read_table(src)
        .to_pandas()
        .sort_values(["repo", "path", "commit"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(dec[srcdf.columns.tolist()], srcdf)


def test_size_beats_reference_writer(encoded, tmp_path):
    src, out, mdf = encoded
    # the reference writer is pandas to_parquet w/ pyarrow snappy
    # (/root/reference/src/export/parquet_writer.py:17)
    baseline = tmp_path / "ref.parquet"
    pq.read_table(src).to_pandas().to_parquet(baseline, index=False)
    assert mdf.encoded_bytes.sum() <= os.path.getsize(baseline)


def test_resume_skips_completed(encoded):
    src, out, mdf = encoded
    before = sorted(glob.glob(os.path.join(out, "manifest", "*.parquet")))
    victims = before[: len(before) // 3]
    mtimes_kept = {f: os.path.getmtime(f) for f in before[len(before) // 3 :]}
    for f in victims:
        pid = os.path.splitext(os.path.basename(f))[0]
        os.remove(f)
        shutil.rmtree(os.path.join(out, "parts", pid))
    m2 = encode_dataset(
        src, out, partition_by="repo", hash_cols=["path"], target_rows_per_partition=500
    ).to_pandas()
    assert len(m2) == len(before)
    # untouched partitions were NOT re-encoded
    for f, mt in mtimes_kept.items():
        assert os.path.getmtime(f) == mt
    # the returned manifest (wave-returned rows for the re-encoded victims,
    # merged with the disk rows of resume-skipped partitions) must equal
    # the on-disk manifest read back whole
    from universal_parquet_exporter_ray.state.manifest import read_manifest

    disk = (
        read_manifest(out)
        .to_pandas()
        .sort_values("partition_id")
        .reset_index(drop=True)
    )
    ret = m2.sort_values("partition_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(ret[disk.columns.tolist()], disk)
    assert verify_roundtrip(src, out).ok.all()


@pytest.mark.parametrize("stage", ["spill", "encode"])
def test_encode_survives_killed_worker(source_files_path, tmp_path, stage):
    """A worker killed by ``os._exit`` right after the first spill call (its
    map-output file written, its ack rows lost) or the first partition encode
    (partition and manifest row written, result lost) is survived by task
    retry, commit-by-ack and atomic partition writes. The helper runs its own
    2-CPU Ray session with the kill armed through a worker setup hook, and
    compares against a clean encode in the same session."""
    import subprocess
    import sys

    here = os.path.dirname(os.path.abspath(__file__))
    res = subprocess.run(
        [sys.executable, os.path.join(here, "fault_inject.py"),
         source_files_path, str(tmp_path / "work"), stage],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    rep = json.loads(res.stdout.strip().splitlines()[-1])
    assert rep["fired"], "no worker was killed"
    assert rep["clean_verified"] and rep["verified"]
    assert rep["rows"] == pq.read_metadata(source_files_path).num_rows
    assert rep["same_frame"] and rep["same_pids"] and rep["same_on_disk"]
    assert rep["dup_pids"] == 0


def test_empty_input_raises(ray_session, tmp_path):
    import pyarrow as pa

    empty = tmp_path / "empty.parquet"
    pq.write_table(
        pa.table({"repo": pa.array([], type=pa.string()), "content": pa.array([], type=pa.string())}),
        empty,
    )
    # reference semantic: ValueError on empty export (parquet_writer.py:10-11)
    with pytest.raises(ValueError):
        encode_dataset(str(empty), str(tmp_path / "out"))


def test_unpartitioned_hash_mode(ray_session, source_files_path, tmp_path):
    out = str(tmp_path / "hashed")
    mdf = encode_dataset(
        source_files_path,
        out,
        partition_by=None,
        hash_cols=["repo", "path"],
        target_rows_per_partition=700,
    ).to_pandas()
    assert len(mdf) == 3  # ceil(2000/700)
    assert verify_roundtrip(source_files_path, out).ok.all()


def test_embeddings_encode_uses_vector_codec(ray_session, tmp_path):
    """End-to-end over a numeric list column: the selector must pick the
    vec_bshuf_zstd codec for the vector column (not the IPC fallback), and
    the decoded table must round-trip bit-identical."""
    import numpy as np

    from universal_parquet_exporter_ray.pipelines.verify import decoded_dataset

    rng = np.random.default_rng(7)
    src = str(tmp_path / "emb.parquet")
    tbl = pa.table(
        {
            "vec_id": pa.array(range(800), type=pa.int64()),
            "embedding": pa.array(
                [rng.normal(size=32).astype(np.float32) for _ in range(800)],
                type=pa.list_(pa.float32()),
            ),
        }
    )
    pq.write_table(tbl, src)
    out = str(tmp_path / "emb_out")
    mdf = encode_dataset(
        src, out, partition_by=None, hash_cols=["vec_id"], target_rows_per_partition=400
    ).to_pandas()
    codecs_used = {json.loads(c)["embedding"] for c in mdf["codecs"]}
    assert codecs_used == {"vec_bshuf_zstd"}
    # the fingerprint verifier must hash list cells (ndarray rows) correctly
    assert verify_roundtrip(src, out).ok.all()
    dec = decoded_dataset(out).to_pandas().sort_values("vec_id").reset_index(drop=True)
    srcdf = tbl.to_pandas()
    assert len(dec) == 800
    for a, b in zip(dec["embedding"], srcdf["embedding"]):
        assert np.array_equal(np.asarray(a), np.asarray(b))


def test_encode_job_cli(ray_session, source_files_path, tmp_path):
    # the ray-job-submit entrypoint, run in-process (session already owned
    # by the fixture; the script's init guard must respect it)
    import json
    import subprocess
    import sys

    out = str(tmp_path / "cli")
    res = subprocess.run(
        [
            sys.executable,
            "jobs/encode_job.py",
            "--source", source_files_path,
            "--out-dir", out,
            "--target-rows", "500",
            "--verify",
            "--num-cpus", "4",
        ],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        timeout=600,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    report = json.loads(res.stdout.strip().splitlines()[-1])
    assert report["verified"] is True
    assert report["rows"] == 2000


def test_column_pruned_decode(encoded):
    src, out, _ = encoded
    from universal_parquet_exporter_ray.pipelines.verify import (
        compression_report,
        decoded_dataset,
    )

    two = decoded_dataset(out, columns=["repo", "lang"]).to_pandas()
    assert sorted(c for c in two.columns if c != "_part") == ["lang", "repo"]
    assert len(two) == pq.read_metadata(src).num_rows
    rep = compression_report(out)
    assert set(rep.column) == {"repo", "path", "commit", "lang", "content"}
    assert (rep.ratio <= 1.0).all()
    assert rep.set_index("column").loc["content", "input_bytes"] > 0


def test_partition_assignment_stable_across_parallelism(
    ray_session, source_files_path, tmp_path
):
    # parallelism independence: the same rows must map to the same partition
    # ids and row counts however many blocks (hence spill tasks) the input
    # is split into (retries and resume depend on it)
    import ray

    df = pq.read_table(source_files_path).to_pandas()
    outs = []
    for blocks in (1, 7):
        out = str(tmp_path / f"b{blocks}")
        mdf = encode_dataset(
            ray.data.from_pandas(df).repartition(blocks),
            out,
            partition_by="repo",
            hash_cols=["path"],
            target_rows_per_partition=500,
        ).to_pandas()
        outs.append(mdf.set_index("partition_id").n_rows.sort_index())
    assert len(outs[0]) >= 4
    pd.testing.assert_series_equal(outs[0], outs[1])


def test_decoded_dataset_projection_validation(tmp_path, ray_session):
    """Unknown projected columns raise once, driver-side, with a clear
    message; an empty/missing output dir raises instead of silently
    returning an empty dataset."""
    from universal_parquet_exporter_ray.pipelines import encode_dataset
    from universal_parquet_exporter_ray.pipelines.verify import decoded_dataset

    src = tmp_path / "src.parquet"
    pq.write_table(
        pa.table(
            {
                "repo": ["r1"] * 6 + ["r2"] * 6,
                "path": [f"f{i}" for i in range(12)],
                "content": [f"body {i}" for i in range(12)],
            }
        ),
        src,
    )
    out = str(tmp_path / "out")
    encode_dataset(str(src), out, hash_cols=["path"], target_rows_per_partition=6).to_pandas()

    with pytest.raises(ValueError, match="no_such_col"):
        decoded_dataset(out, columns=["no_such_col"])
    with pytest.raises(ValueError, match="no encoded partitions"):
        decoded_dataset(str(tmp_path / "nowhere"))

    got = decoded_dataset(out, columns=["content"]).to_pandas()
    assert sorted(got["content"]) == sorted(f"body {i}" for i in range(12))


# ---- zone maps (manifest min/max → partition-pruned decoded reads) -------


def test_column_zonemaps_kinds():
    import numpy as np

    from universal_parquet_exporter_ray.stages.encoder import (
        ZONEMAP_STR_CHARS,
        column_zonemaps,
    )

    t = pa.table(
        {
            "i": pa.array([3, None, -7, 12]),
            "f": pa.array([1.5, float("nan"), -2.0, None]),
            "s": pa.array(["b", "a", "zz", None]),
            "long": pa.array(["x" * 200, "a" * 200, "m", "n"]),
            "ts": pa.array(
                pd.to_datetime(["1997-01-01", "1998-06-02", "1997-05-05", "1997-06-06"])
            ),
            "bin": pa.array([b"a", b"b", b"c", b"d"], type=pa.binary()),
            "allnull": pa.array([None] * 4, type=pa.int64()),
        }
    )
    zm = column_zonemaps(t)
    assert zm["i"] == {"kind": "num", "min": -7, "max": 12, "n_null": 1}
    assert zm["f"]["min"] == -2.0 and zm["f"]["max"] == 1.5 and zm["f"]["has_nan"]
    assert zm["s"] == {"kind": "str", "min": "a", "max": "zz", "n_null": 1}
    assert zm["long"]["max_open"] and len(zm["long"]["max"]) == ZONEMAP_STR_CHARS
    assert zm["ts"]["kind"] == "temporal"
    assert zm["ts"]["min"] == pd.Timestamp("1997-01-01").value
    assert zm["ts"]["max"] == pd.Timestamp("1998-06-02").value
    assert "bin" not in zm and "allnull" not in zm


def test_zonemap_pruned_decode(ray_session, tmp_path):
    import numpy as np

    from universal_parquet_exporter_ray.pipelines.verify import zonemap_keep_pids

    # 4 range-disjoint buckets on k
    n = 4000
    df = pd.DataFrame(
        {
            "bucket": [str(i // 1000) for i in range(n)],
            "k": np.arange(n, dtype=np.int64),
            "content": [f"row {i}" for i in range(n)],
        }
    )
    src = str(tmp_path / "zm_src.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src)
    out = str(tmp_path / "zm_out")
    encode_dataset(
        src, out, partition_by="bucket", hash_cols=["k"], target_rows_per_partition=900
    )
    kept, total = zonemap_keep_pids(out, "k", ">=", 3000)
    assert total >= 4 and 0 < len(kept) < total
    dec = decoded_dataset(out, zone_filter=("k", ">=", 3000)).to_pandas()
    got = dec[dec.k >= 3000].sort_values("k").reset_index(drop=True)
    want = df[df.k >= 3000].reset_index(drop=True)
    assert got.k.tolist() == want.k.tolist()
    assert got.content.tolist() == want.content.tolist()
    # an impossible predicate prunes everything and yields an empty dataset
    # that keeps the read's typed columns
    empty = decoded_dataset(out, zone_filter=("k", ">", 10**9)).to_pandas()
    assert len(empty) == 0
    assert list(empty.columns) == ["bucket", "k", "content", "_part"]
    # equality prune keeps exactly the covering bucket
    kept_eq, _ = zonemap_keep_pids(out, "k", "==", 1500)
    assert len(kept_eq) >= 1 and len(kept_eq) < total


def test_fully_pruned_read_keeps_typed_columns(ray_session, tmp_path):
    """A zone-pruned, projected read equals the full read filtered and
    projected, in rows, columns and dtypes — also when the filter prunes
    every partition, which must still yield the read's typed columns, not
    a schemaless empty frame."""
    import operator

    import numpy as np

    n = 3000
    tbl = pa.table(
        {
            "bucket": [str(i // 1000) for i in range(n)],
            "k": np.arange(n, dtype=np.int64),
            "f": np.linspace(0, 1, n),
            "content": [f"row {i}" for i in range(n)],
        }
    )
    src = str(tmp_path / "src.parquet")
    pq.write_table(tbl, src)
    out = str(tmp_path / "out")
    encode_dataset(
        src, out, partition_by="bucket", hash_cols=["k"], target_rows_per_partition=900
    )
    ops = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "==": operator.eq}
    for cols in (["k"], ["content", "f", "k"], None):
        full = decoded_dataset(out, columns=cols).to_pandas()
        assert len(full) == n
        names = sorted(full.columns)
        for op, v in ((">", 10**9), (">=", 2000), ("<", 500), ("==", 1500)):
            got = decoded_dataset(out, columns=cols, zone_filter=("k", op, v)).to_pandas()
            got = got[ops[op](got["k"], v)][names].sort_values("k")
            want = full[ops[op](full["k"], v)][names].sort_values("k")
            pd.testing.assert_frame_equal(
                got.reset_index(drop=True), want.reset_index(drop=True)
            )
    # everything pruned, projected onto columns without the filter key
    empty = decoded_dataset(out, columns=["content", "f"], zone_filter=("k", ">", 10**9))
    got = empty.to_pandas()
    assert len(got) == 0 and list(got.columns) == ["content", "f", "_part"]
    assert [str(t) for t in got.dtypes] == ["object", "float64", "object"]


def test_make_assigner_partial_groupby_fallback(ray_session, monkeypatch):
    """Extreme-key-cardinality path (VERDICT r3 item 7): when the key-count
    final runs as a co-partition (forced with FINAL_REDUCE_CAP = 0), the
    resulting plan is identical to the driver-final plan."""
    import numpy as np
    import pandas as pd
    import ray.data

    from universal_parquet_exporter_ray.pipelines.encode import make_assigner
    from universal_parquet_exporter_ray.stages import agg

    rng = np.random.default_rng(5)
    keys = [f"repo{i % 500}" for i in range(4000)]
    df = pd.DataFrame({"repo": keys, "path": [f"p{i}" for i in range(4000)]})
    ds = ray.data.from_pandas(df).repartition(8)
    a_drv = make_assigner(ds, "repo", ["path"], 200)
    monkeypatch.setattr(agg, "FINAL_REDUCE_CAP", 0)
    a_fb = make_assigner(ds, "repo", ["path"], 200)
    assert a_fb.total_rows == a_drv.total_rows == 4000
    # same plan, in the same key order, whichever final counted the keys
    assert list(a_fb.salt_map.items()) == list(a_drv.salt_map.items())
    assert list(a_fb.merge_map.items()) == list(a_drv.merge_map.items())


def test_spill_selfread_parity(ray_session, tmp_path):
    """The two spill forms agree: a path source (spill tasks read their own
    row groups, salt plan from per-file key counts) and the same files as a
    ``ray.data.read_parquet`` Dataset (``map_batches`` spill over its blocks,
    salt plan from the distributed counting pass) give the same partitions,
    the same row counts and the same decoded rows."""
    import ray

    src = str(tmp_path / "src")
    os.makedirs(src)
    n = 3000
    df = pd.DataFrame(
        {
            "repo": [f"r{i % 7}" for i in range(n)],
            "path": [f"p{i}" for i in range(n)],
            "content": [f"line {i} " * (i % 5 + 1) for i in range(n)],
        }
    )
    # two files, multiple small row groups each — exercises row-group bundling
    pq.write_table(pa.Table.from_pandas(df[: n // 2]), f"{src}/a.parquet", row_group_size=400)
    pq.write_table(pa.Table.from_pandas(df[n // 2 :]), f"{src}/b.parquet", row_group_size=400)

    results = []
    for name, source in (("path", src), ("dataset", ray.data.read_parquet(src))):
        out = str(tmp_path / name)
        m = encode_dataset(
            source, out, partition_by="repo", hash_cols=["path"], target_rows_per_partition=300
        ).to_pandas()
        dec = (
            decoded_dataset(out)
            .to_pandas()
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        results.append((m.sort_values("partition_id").reset_index(drop=True), dec))

    (m1, d1), (m0, d0) = results
    assert len(m1) >= 7
    assert m1.partition_id.tolist() == m0.partition_id.tolist()
    assert m1.n_rows.tolist() == m0.n_rows.tolist()
    # NOT encoded_bytes: the two forms spill different batches, so a
    # partition's ranges (and its row order) differ between them, and
    # order-sensitive codecs (RLE) may differ by a few bytes. Content is
    # the invariant.
    pd.testing.assert_frame_equal(d1, d0)
    want = df.sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(d1[df.columns.tolist()], want)


def test_encode_reproduces_part_files(ray_session, tmp_path, monkeypatch):
    """Two encodes of one source write byte-identical part files, also when
    partitions span several spill files: the wave reads a partition's
    ranges in map-file name order (crc of the content first) and every
    partition encodes with the job's codec choices, whichever worker runs
    it and whatever it encoded before."""
    from universal_parquet_exporter_ray.pipelines import encode as encode_mod

    monkeypatch.setattr(encode_mod, "SPILL_BATCH_ROWS", 500)
    n = 4000
    src = str(tmp_path / "src.parquet")
    df = pd.DataFrame(
        {
            "repo": [f"r{i % 9}" if i % 3 else "hot" for i in range(n)],
            "path": [f"src/m{i % 97}/f{i}.py" for i in range(n)],
            "stars": [(i * 37) % 1000 for i in range(n)],
            "content": [f"def f{i}():\n    return {i % 13} " * (i % 4 + 1) for i in range(n)],
        }
    )
    pq.write_table(pa.Table.from_pandas(df), src, row_group_size=100)

    digests = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        encode_dataset(src, out, partition_by="repo", hash_cols=["path"], target_rows_per_partition=400)
        parts = sorted(glob.glob(os.path.join(out, "parts", "*", "data.parquet")))
        digests.append({os.path.relpath(p, out): open(p, "rb").read() for p in parts})
    assert len(digests[0]) >= 8
    assert digests[0].keys() == digests[1].keys()
    assert [k for k in digests[0] if digests[0][k] != digests[1][k]] == []


def test_encode_from_dataset_source(ray_session, source_files_path, tmp_path):
    """encode_dataset accepts an in-memory ``ray.data.Dataset`` source (no
    parquet files on disk): the salt plan then comes from the distributed
    counting pass and the spill runs ``map_batches`` over the Dataset's
    blocks — the path a file source never takes (its plan comes from the
    file footers and its spill tasks read their own row groups)."""
    import ray

    df = (
        pq.read_table(source_files_path)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    ds = ray.data.from_pandas(df).repartition(6)
    out = str(tmp_path / "from_ds")
    mdf = encode_dataset(
        ds,
        out,
        partition_by="repo",
        hash_cols=["path"],
        target_rows_per_partition=500,
    ).to_pandas()
    assert int(mdf.n_rows.sum()) == len(df)
    dec = (
        decoded_dataset(out)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(dec[df.columns.tolist()], df)


def test_plan_key_counts_cached_by_source_fingerprint(ray_session, tmp_path, monkeypatch):
    """The salt-plan key counts are cached against (path, size, mtime) of
    the source files: a re-run (resume/retry/bench rep) skips the key-count
    scan; touching a source file invalidates the cache."""
    import time

    from universal_parquet_exporter_ray.pipelines.encode import (
        _plan_cache_path,
        _plan_key_counts,
    )

    src = str(tmp_path / "t.parquet")
    pq.write_table(
        pa.table({"repo": ["a", "a", "b"], "path": ["1", "2", "3"]}), src
    )
    monkeypatch.setenv("UPXR_PLAN_CACHE_DIR", str(tmp_path / "plancache"))

    r1 = _plan_key_counts([src], "repo")
    assert r1 == {"a": 2, "b": 1}
    cache = _plan_cache_path([src], "repo")
    assert cache is not None and os.path.exists(cache)

    # prove the cache is READ: plant altered counts and observe them served
    pq.write_table(
        pa.table({"k": pa.array(["a", "b"]), "n": pa.array([7, 9], pa.int64())}),
        cache,
    )
    assert _plan_key_counts([src], "repo") == {"a": 7, "b": 9}

    # any source change (mtime here) must MISS and recompute the truth
    time.sleep(0.01)
    os.utime(src)
    assert _plan_key_counts([src], "repo") == {"a": 2, "b": 1}

    # default root: per user, closed to other users
    monkeypatch.delenv("UPXR_PLAN_CACHE_DIR")
    root = f"/tmp/upxr_plan_cache-{os.getuid()}"
    default = _plan_cache_path([src], "repo")
    assert default is not None and os.path.dirname(default) == root
    assert os.stat(root).st_mode & 0o777 == 0o700

    # kill switch
    monkeypatch.setenv("UPXR_PLAN_CACHE", "0")
    assert _plan_cache_path([src], "repo") is None


def _inline_wave_bins(pids: list[str], sizes: list[int], n: int) -> list[list[str]]:
    """The encode wave's bin packing as it was written inline before
    ``lpt_bins``: heap LPT over ``min(n, len(pids))`` bins, non-empty bins
    heaviest first."""
    import heapq

    order = sorted(range(len(pids)), key=lambda i: -sizes[i])
    n_bins = max(1, min(n, len(pids)))
    bins: list[list[str]] = [[] for _ in range(n_bins)]
    loads = [0] * n_bins
    heap = [(0, j) for j in range(n_bins)]
    for i in order:
        load, j = heapq.heappop(heap)
        bins[j].append(pids[i])
        loads[j] = load + sizes[i]
        heapq.heappush(heap, (loads[j], j))
    heavy_first = sorted(range(n_bins), key=lambda j: -loads[j])
    return [bins[j] for j in heavy_first if bins[j]]


def test_lpt_bins_matches_inline_wave_packing():
    import random

    from universal_parquet_exporter_ray.pipelines.encode import lpt_bins

    rng = random.Random(5)
    cases = [
        ([7, 7, 7, 7, 3, 3, 1], 3),  # ties in size and in load
        ([100, 1, 1, 1, 1, 1], 2),
        ([5, 4, 3], 12),  # more bins than items
        ([9], 1),
        ([rng.randint(1, 10_000) for _ in range(300)], 48),
    ]
    for sizes, n in cases:
        pids = [f"p{i:03d}" for i in range(len(sizes))]
        got = [[pids[i] for i in b] for b in lpt_bins(sizes, n)]
        assert got == _inline_wave_bins(pids, sizes, n)
        loads = [sum(sizes[int(p[1:])] for p in b) for b in got]
        assert loads == sorted(loads, reverse=True)


def test_block_count_and_wave_bins(monkeypatch):
    """``block_count`` gives one block per CPU slot and more only once each
    holds ``MIN_BLOCK_BYTES``; the encode wave packs one bin per slot while
    ``block_count`` does, else ``WAVE_BINS_PER_SLOT`` per slot. No Ray:
    slots and the block size are patched."""
    from universal_parquet_exporter_ray import context
    from universal_parquet_exporter_ray.pipelines import encode

    monkeypatch.setattr(context, "cpu_slots", lambda: 2)
    monkeypatch.setattr(encode, "cpu_slots", lambda: 2)
    monkeypatch.setattr(context, "MIN_BLOCK_BYTES", 100)
    assert [context.block_count(b) for b in (0, 1, 200, 201, 1000)] == [2, 2, 2, 3, 10]

    def n_bins(sizes):
        return len(encode._wave_bins(sizes))

    assert n_bins([10] * 20) == 2  # 200 B: one bin per slot
    assert n_bins([10] * 30) == 2 * encode.WAVE_BINS_PER_SLOT  # 300 B
    assert n_bins([100] * 60) == 2 * encode.WAVE_BINS_PER_SLOT
    assert n_bins([1000]) == 1  # never more bins than partitions
    bins = encode._wave_bins([50, 10, 40, 30, 20, 70])
    assert sorted(i for b in bins for i in b) == list(range(6))


def test_table_reads_sized_by_bytes(ray_session, sf_small, tmp_path, monkeypatch):
    """A package table read makes ``block_count(on-disk bytes)`` blocks, not
    Ray's ``2 × CPUs``: a small table or file list is one block per CPU
    slot (4 here, where Ray's autodetect gives 8), and a smaller
    ``MIN_BLOCK_BYTES`` gives more blocks."""
    from universal_parquet_exporter_ray import context
    from universal_parquet_exporter_ray.sources import load_table, table_path
    from universal_parquet_exporter_ray.sources.tables import read_parquet_clean

    slots = context.cpu_slots()
    assert slots == 4
    for name in ("nation", "lineitem"):
        assert load_table(sf_small, name).materialize().num_blocks() == slots
    files = [str(tmp_path / f"nation{i}.parquet") for i in range(2)]
    for f in files:
        shutil.copy(table_path(sf_small, "nation"), f)
    ds = read_parquet_clean(files, columns=["n_name"]).materialize()
    assert (ds.num_blocks(), ds.count()) == (slots, 50)

    path = table_path(sf_small, "lineitem")
    monkeypatch.setattr(context, "MIN_BLOCK_BYTES", os.path.getsize(path) // 6)
    ds = load_table(sf_small, "lineitem", ["l_orderkey"]).materialize()
    assert ds.num_blocks() == context.block_count(os.path.getsize(path)) > slots
    assert ds.count() == pq.ParquetFile(path).metadata.num_rows


def test_binned_decode_matches_source(ray_session, source_files_path, tmp_path):
    """decoded_dataset packs partition files into fewer blocks than files;
    full, projected and zone-pruned reads still equal the source, with each
    row's ``_part`` the partition the encode assigned it. One partition is
    re-encoded (resume) from a source without ``lang``, so projecting
    ``lang`` puts that partition's empty decode in a block with full ones."""
    from universal_parquet_exporter_ray.pipelines.encode import make_assigner
    from universal_parquet_exporter_ray.state.manifest import (
        read_manifest,
        sanitize_partition_id,
    )
    from universal_parquet_exporter_ray.stages.encoder import PART_COL

    src = pq.read_table(source_files_path)
    out = str(tmp_path / "out")
    kw = dict(partition_by="repo", hash_cols=["path"], target_rows_per_partition=200)
    mdf = encode_dataset(source_files_path, out, **kw).to_pandas()
    assert len(mdf) >= 8

    # the partition each source row belongs to, from the recorded plan
    lineage = json.loads(mdf.lineage.iloc[0])
    counts = src["repo"].to_pandas().astype(str).value_counts().to_dict()
    assign = make_assigner(
        None, "repo", list(lineage["hash_cols"]), int(lineage["target_rows"]),
        key_counts=counts,
    )
    want = src.to_pandas()
    want[PART_COL] = [
        sanitize_partition_id(p) for p in assign(src)[PART_COL].to_pylist()
    ]

    # re-encode one partition from a source lacking `lang`
    victim = mdf.sort_values("n_rows").partition_id.iloc[len(mdf) // 2]
    os.remove(os.path.join(out, "manifest", f"{victim}.parquet"))
    shutil.rmtree(os.path.join(out, "parts", victim))
    no_lang = str(tmp_path / "no_lang.parquet")
    pq.write_table(src.drop_columns(["lang"]), no_lang)
    encode_dataset(no_lang, out, **kw).to_pandas()
    m2 = read_manifest(out).to_pandas().set_index("partition_id")
    assert "lang" not in json.loads(m2.loc[victim, "codecs"])
    assert "lang" in json.loads(m2.drop(index=victim).codecs.iloc[0])
    want.loc[want[PART_COL] == victim, "lang"] = None

    files = glob.glob(os.path.join(out, "parts", "*", "data.parquet"))
    ds = decoded_dataset(out).materialize()
    assert 1 <= ds.num_blocks() < len(files)

    def frame(df, cols):
        got = df[cols + [PART_COL]]
        return got.sort_values(list(got.columns)).reset_index(drop=True)

    def expect(df, cols):
        return df[cols + [PART_COL]].sort_values(cols + [PART_COL]).reset_index(
            drop=True
        )

    cols = src.column_names
    pd.testing.assert_frame_equal(frame(ds.to_pandas(), cols), expect(want, cols))
    # projection: the partition without `lang` gives its rows with `lang`
    # null, so the projected and full reads have equal row counts
    got = frame(decoded_dataset(out, columns=["lang"]).to_pandas(), ["lang"])
    assert len(got) == ds.count() == len(want)
    pd.testing.assert_frame_equal(got, expect(want, ["lang"]))
    # zone-pruned read of the largest repo, exact predicate applied after
    top = want["repo"].value_counts().index[0]
    pruned = decoded_dataset(out, zone_filter=("repo", "==", top)).to_pandas()
    pruned = pruned[pruned["repo"] == top]
    pd.testing.assert_frame_equal(
        frame(pruned, cols), expect(want[want["repo"] == top], cols)
    )


def test_default_hash_cols_skips_partition_key(ray_session, tmp_path):
    """When hash_cols defaults, it must NOT pick the partition_by column
    (review r5): hashing only the partition key gives every row of a hot
    key one hash, so the salt buckets never populate and the hot key
    collapses into a single giant partition. With 'repo' as the FIRST
    schema column and partition_by='repo', a hot repo must still split
    into ~count/target_rows partitions."""
    import numpy as np

    n = 4000
    tbl = pa.table(
        {
            # partition key FIRST in the schema — the degenerate default
            "repo": pa.array(["hot/mono"] * n),
            "path": pa.array([f"src/f{i}.py" for i in range(n)]),
            "content": pa.array([f"line {i}\n" * 3 for i in range(n)]),
        }
    )
    src = str(tmp_path / "src.parquet")
    pq.write_table(tbl, src)
    out = str(tmp_path / "out")
    mdf = encode_dataset(
        src, out, partition_by="repo", target_rows_per_partition=500
    ).to_pandas()  # hash_cols defaulted
    # 4000 rows / 500 target -> ~8 salt buckets; the bug yields exactly 1
    assert len(mdf) >= 4
    assert int(mdf.n_rows.max()) <= 2 * 500
    assert int(mdf.n_rows.sum()) == n
    dec = decoded_dataset(out)
    assert dec.count() == n
