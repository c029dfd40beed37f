"""Approximate-nearest-neighbor stages over an embedding column
(``list<float>``).

Baseline: brute-force cosine top-k — the query matrix is normalized once on
the driver and rides in the stage's closure (``stages.map_stage``
constructor kwargs, one object-store copy per operator), and every batch does ONE numpy matmul against it, emitting only its
batch-local top-k candidates; a final tiny per-query reduction merges
candidates. At 100 TB the same shape holds (candidates are k × #batches
rows, not the corpus); the scale path adds an IVF-style
pre-bucketing (``kmeans_bucket``) so each batch only scores queries assigned
to its bucket.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray

from . import co_partition, map_stage, per_key

# column → dtype of the pair and kNN results (``agg.to_frame``)
PAIRS_PPM = {"id_a": "int64", "id_b": "int64", "cos_ppm": "int64"}
KNN = {"vec_id": "int64", "nbr": "int64", "cos_ppm": "int64"}


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class BatchTopKCosine:
    """map_batches stage: emit batch-local top-k (query_id, vec_id, cos) rows.

    ``queries``: (query_ids int64 array, normalized float64 query matrix),
    passed as ``map_stage`` constructor kwargs, so it rides in the stage's
    closure."""

    def __init__(self, queries, k: int, exclude_self: bool = True):
        self.qids, self.qmat = queries
        self.k = k
        self.exclude_self = exclude_self

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        vec_ids = batch["vec_id"].to_numpy(dtype=np.int64)
        emb = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        emb = _normalize(emb)
        sims = self.qmat @ emb.T  # (n_queries, batch)
        rows_q, rows_v, rows_c = [], [], []
        k = min(self.k + (1 if self.exclude_self else 0), sims.shape[1])
        for qi, qid in enumerate(self.qids):
            s = sims[qi]
            top = np.argpartition(-s, k - 1)[:k]
            for j in top:
                if self.exclude_self and vec_ids[j] == qid:
                    continue
                rows_q.append(qid)
                rows_v.append(vec_ids[j])
                rows_c.append(s[j])
        return pd.DataFrame(
            {
                "query_id": np.array(rows_q, dtype=np.int64),
                "vec_id": np.array(rows_v, dtype=np.int64),
                "cos": np.array(rows_c, dtype=np.float64),
            }
        )


def final_topk(k: int):
    """``co_partition`` reducer on ``query_id``: merge the batch-local
    candidates of every query in the frame into its true top-k (ties broken
    by vec_id for determinism), ``rank`` 1..k per query."""

    def reduce(frame: pd.DataFrame) -> pd.DataFrame:
        top = (
            frame.sort_values(
                ["query_id", "cos", "vec_id"], ascending=[True, False, True]
            )
            .groupby("query_id", sort=False)
            .head(k)
            .reset_index(drop=True)
        )
        top["rank"] = top.groupby("query_id", sort=False).cumcount().to_numpy(np.int64) + 1
        return top

    return reduce


def kmeans_fit(mat: np.ndarray, k: int, iters: int = 8) -> np.ndarray:
    """Deterministic spherical k-means (strided init, fixed iterations) —
    the IVF coarse quantizer. Fit on a sample on the driver; centroids
    broadcast to the assign/search stages."""
    mat = _normalize(mat)
    idx = np.linspace(0, len(mat) - 1, k).astype(np.int64)
    cent = mat[idx].copy()
    for _ in range(iters):
        assign = np.argmax(mat @ cent.T, axis=1)
        for j in range(k):
            members = mat[assign == j]
            if len(members):
                c = members.sum(axis=0)
                n = np.linalg.norm(c)
                if n > 0:
                    cent[j] = c / n
    return cent


class IvfTopKCosine:
    """IVF-bucketed ANN: each batch's vectors are coarse-quantized against
    the broadcast centroids; a query only scores vectors whose bucket is in
    its ``nprobe`` nearest buckets. Same emit shape as ``BatchTopKCosine``
    (batch-local candidates → per-query merge), but each batch scores ~
    nprobe/k of its rows — the scale path when brute force is too wide."""

    def __init__(self, queries, centroids, k: int, nprobe: int = 4):
        # by-value broadcast kwargs — see BatchTopKCosine
        self.qids, self.qmat = queries
        self.centroids = centroids
        self.k = k
        qsims = self.qmat @ self.centroids.T
        order = np.argsort(-qsims, axis=1)
        self.probes = order[:, :nprobe]  # (n_queries, nprobe)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        vec_ids = batch["vec_id"].to_numpy(dtype=np.int64)
        emb = _normalize(np.stack(batch["embedding"].to_numpy()).astype(np.float64))
        buckets = np.argmax(emb @ self.centroids.T, axis=1)
        rows_q, rows_v, rows_c = [], [], []
        for qi, qid in enumerate(self.qids):
            mask = np.isin(buckets, self.probes[qi])
            mask &= vec_ids != qid
            if not mask.any():
                continue
            cand = np.flatnonzero(mask)
            sims = emb[cand] @ self.qmat[qi]
            kk = min(self.k, len(cand))
            top = cand[np.argpartition(-sims, kk - 1)[:kk]]
            sims_top = emb[top] @ self.qmat[qi]
            rows_q.extend([qid] * len(top))
            rows_v.extend(vec_ids[top].tolist())
            rows_c.extend(sims_top.tolist())
        return pd.DataFrame(
            {
                "query_id": np.array(rows_q, dtype=np.int64),
                "vec_id": np.array(rows_v, dtype=np.int64),
                "cos": np.array(rows_c, dtype=np.float64),
            }
        )


class PairGroupReplicate:
    """map_batches stage for EXACT distributed all-pairs: each row is hashed
    into one of ``G`` buckets (``vec_id % G``) and replicated to the ``G``
    bucket-PAIR groups ``(min(b,g), max(b,g))`` it participates in. Every
    unordered row pair then co-locates in exactly one group.

    Scale shape: shuffle volume is G × data; per-group memory is ~2·n/G rows,
    so pick G ≈ √(cluster parallelism) and each group's all-pairs matmul fits
    one worker. No corpus-sized structure ever touches the driver (the
    previous plan pulled the whole embedding table driver-side and broadcast
    an O(corpus) matrix)."""

    def __init__(self, n_buckets: int):
        self.G = int(n_buckets)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        G = self.G
        n = len(batch)
        b = (batch["vec_id"].to_numpy(dtype=np.int64) % G).astype(np.int64)
        rep = batch.iloc[np.repeat(np.arange(n), G)].reset_index(drop=True)
        bb = np.repeat(b, G)
        gg = np.tile(np.arange(G, dtype=np.int64), n)
        lo, hi = np.minimum(bb, gg), np.maximum(bb, gg)
        rep["pg"] = lo * G + hi
        rep["bkt"] = bb
        return rep


def all_pairs_group(threshold: float, n_buckets: int, scale: float = 1e6):
    """``co_partition`` reducer on ``pg``: for each bucket-pair group of the
    frame, exact cosine all-pairs between (or within) the two buckets,
    emitting (id_a, id_b, cos_ppm) for cos ≥ threshold. Pairs are globally
    unique by construction."""
    G = int(n_buckets)

    def one(g: pd.DataFrame) -> pd.DataFrame:
        pg = int(g["pg"].iloc[0])
        i, j = divmod(pg, G)
        # replicas are unique per (row, partner-bucket): inside group (i, j)
        # each row appears exactly once
        g = g.drop_duplicates(subset=["vec_id"])
        ids = g["vec_id"].to_numpy(dtype=np.int64)
        emb = _normalize(np.stack(g["embedding"].to_numpy()).astype(np.float64))
        bkt = g["bkt"].to_numpy(dtype=np.int64)
        if i == j:
            order = np.argsort(ids)
            ids, emb = ids[order], emb[order]
            sims = emb @ emb.T
            ai, bi = np.nonzero(np.triu(sims >= threshold, k=1))
            a, b, c = ids[ai], ids[bi], sims[ai, bi]
        else:
            li, ri = np.flatnonzero(bkt == i), np.flatnonzero(bkt == j)
            sims = emb[li] @ emb[ri].T
            ai, bi = np.nonzero(sims >= threshold)
            a, b, c = ids[li][ai], ids[ri][bi], sims[ai, bi]
            swap = a > b
            a2 = np.where(swap, b, a)
            b2 = np.where(swap, a, b)
            a, b = a2, b2
        ppm = (np.sign(c * scale) * np.floor(np.abs(c * scale) + 0.5)).astype(np.int64)
        return pd.DataFrame(
            {
                "id_a": a.astype(np.int64),
                "id_b": b.astype(np.int64),
                "cos_ppm": ppm,
            }
        )

    return lambda frame: per_key(frame, "pg", one)


def _topk_rows(
    src_ids, ppm, cand_ids, k: int, drop_below: int = -2_000_000
) -> pd.DataFrame:
    """Per-SOURCE-row top-k of a (m × c) ppm matrix by (ppm desc, nbr asc),
    fully vectorized: candidate columns are pre-sorted by nbr ascending, so
    a STABLE argsort on -ppm breaks ties toward the smaller neighbor id —
    the same deterministic order the SQL twin's ROW_NUMBER uses.
    ``drop_below`` is the sentinel filter floor — callers with a non-1e6
    ppm scale pass -2×scale so legitimate anti-parallel values survive
    (review r5)."""
    order = np.argsort(cand_ids, kind="stable")
    cand_sorted = cand_ids[order]
    ppm = ppm[:, order]
    kk = min(k, ppm.shape[1])
    sel = np.argsort(-ppm, axis=1, kind="stable")[:, :kk]
    rows = np.repeat(src_ids, kk)
    nbrs = cand_sorted[sel].ravel()
    vals = np.take_along_axis(ppm, sel, axis=1).ravel()
    keep = vals > drop_below  # drop the self-mask sentinel
    return pd.DataFrame(
        {
            "vec_id": rows[keep].astype(np.int64),
            "nbr": nbrs[keep].astype(np.int64),
            "cos_ppm": vals[keep].astype(np.int64),
        }
    )


def knn_group(k: int, n_buckets: int, scale: float = 1e6):
    """``co_partition`` reducer on ``pg`` of the kNN-graph join: for each
    bucket-pair group of the frame, per-doc PARTIAL top-k within the group
    (both directions for off-diagonal groups), emitted as (vec_id, nbr,
    cos_ppm) rows — ≤
    group-size × k rows, never the group's all-pairs matrix. A doc's true
    global top-k is a merge of its per-group partials because its full
    candidate set is the union of its G groups (same-bucket candidates
    live ONLY in the diagonal group; cross-bucket in exactly one group).
    Ordering matches the SQL twin: ppm DESC, nbr ASC (ties included)."""
    G = int(n_buckets)

    def to_ppm(S: np.ndarray) -> np.ndarray:
        return (np.sign(S * scale) * np.floor(np.abs(S * scale) + 0.5)).astype(
            np.int64
        )

    def one(g: pd.DataFrame) -> pd.DataFrame:
        pg = int(g["pg"].iloc[0])
        i, j = divmod(pg, G)
        g = g.drop_duplicates(subset=["vec_id"])
        ids = g["vec_id"].to_numpy(dtype=np.int64)
        emb = _normalize(np.stack(g["embedding"].to_numpy()).astype(np.float64))
        bkt = g["bkt"].to_numpy(dtype=np.int64)
        # sentinels derived from the ppm scale: legit values span
        # [-scale, scale], the self-mask sits at -3·scale and the filter
        # floor at -2·scale (review r5: hard-coded 1e6 constants would
        # silently corrupt results for callers with a larger scale)
        floor = -int(2 * scale)
        if i == j:
            S = to_ppm(emb @ emb.T)
            np.fill_diagonal(S, -int(3 * scale))  # self is never a neighbor
            return _topk_rows(ids, S, ids, k, drop_below=floor)
        li, ri = np.flatnonzero(bkt == i), np.flatnonzero(bkt == j)
        S = to_ppm(emb[li] @ emb[ri].T)
        return pd.concat(
            [
                _topk_rows(ids[li], S, ids[ri], k, drop_below=floor),
                _topk_rows(ids[ri], S.T, ids[li], k, drop_below=floor),
            ],
            ignore_index=True,
        )

    return lambda frame: per_key(frame, "pg", one)


def bucket_knn(k: int):
    """``co_partition`` reducer on ``bucket`` of the approximate kNN-graph
    join: each vector's top-k by (ppm desc, nbr asc) among the other
    vectors of its IVF bucket."""

    def one(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["vec_id"].to_numpy(np.int64)
        emb = _normalize(np.stack(g["embedding"].to_numpy()).astype(np.float64))
        S = emb @ emb.T
        ppm = (np.sign(S * 1e6) * np.floor(np.abs(S * 1e6) + 0.5)).astype(
            np.int64
        )
        np.fill_diagonal(ppm, -3_000_000)
        return _topk_rows(ids, ppm, ids, k)

    return lambda frame: per_key(frame, "bucket", one)


def final_knn(k: int):
    """``co_partition`` reducer on ``vec_id``: merge each doc's group
    partials into its global top-k by (ppm desc, nbr asc)."""

    def fin(frame: pd.DataFrame) -> pd.DataFrame:
        top = frame.sort_values(
            ["vec_id", "cos_ppm", "nbr"], ascending=[True, False, True], kind="stable"
        )
        return top.groupby("vec_id", sort=False).head(k)[["vec_id", "nbr", "cos_ppm"]]

    return fin


# ---------------------------------------------------------------------------
# Bucket-partitioned IVF corpus layout — the true 100-TB ANN read path.
# The corpus is written ONCE partitioned by coarse-quantizer bucket (one
# parquet file per bucket here; one directory of files per bucket at scale),
# with the fitted centroids persisted alongside.  A probe query then READS
# only its nprobe buckets' files (directory-level predicate pushdown), so
# the per-query scan cost is ~nprobe/n_clusters of the corpus instead of a
# full scan + mask (what the in-stream IVF stage does).
# ---------------------------------------------------------------------------


class AssignBucket:
    """map_batches stage: stamp each vector's coarse-quantizer bucket
    (argmax cosine against the broadcast centroids)."""

    def __init__(self, centroids):
        # by-value broadcast kwarg — see BatchTopKCosine
        self.centroids = centroids

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        emb = _normalize(np.stack(batch["embedding"].to_numpy()).astype(np.float64))
        out["bucket"] = np.argmax(emb @ self.centroids.T, axis=1).astype(np.int64)
        return out


# a node that is Alive in the GCS but cannot run the probe (draining, dying)
# would otherwise hang every layout build; after this many seconds it counts
# as a node the root is not visible from
SHARED_ROOT_PROBE_TIMEOUT_S = 30


def check_shared_root(out_dir: str) -> None:
    """Fail fast if ``out_dir`` is not visible from every alive Ray node.

    The layout is written by ``co_partition`` workers and read back by later
    jobs, so on a multi-node cluster the root MUST be a shared filesystem
    or object-store mount — a node-local path (e.g. ``/tmp``) would leave
    each bucket file on whichever node wrote it, with manifest paths other
    nodes cannot read.  This probe writes a sentinel from the driver and
    checks it from a zero-CPU task pinned to EACH alive node; single-node
    it is one task, multi-node with a node-local root it raises before any
    corpus data is shuffled."""
    import os

    from ray.util.scheduling_strategies import NodeAffinitySchedulingStrategy

    os.makedirs(out_dir, exist_ok=True)
    sentinel = os.path.join(out_dir, ".shared_root_probe")
    with open(sentinel, "w") as f:
        f.write("probe")

    @ray.remote(num_cpus=0)
    def _probe(path: str) -> bool:
        import os as _os

        return _os.path.exists(path)

    try:
        # launch ALL probes first, one ray.get for the batch: serial
        # per-node round trips would cost N × scheduling latency on a
        # large cluster (review r5)
        alive = [n for n in ray.nodes() if n.get("Alive")]
        refs = [
            _probe.options(
                scheduling_strategy=NodeAffinitySchedulingStrategy(
                    node_id=node["NodeID"], soft=False
                )
            ).remote(sentinel)
            for node in alive
        ]
        ready, pending = ray.wait(
            refs, num_returns=len(refs), timeout=SHARED_ROOT_PROBE_TIMEOUT_S
        )
        for ref in pending:
            ray.cancel(ref)
        seen = set()
        for ref in ready:
            try:
                if ray.get(ref):
                    seen.add(ref)
            except Exception:
                pass  # the probe could not run on its node: not visible
        bad = [
            node.get("NodeManagerAddress") or node["NodeID"]
            for node, ref in zip(alive, refs)
            if ref not in seen
        ]
        if bad:
            raise RuntimeError(
                f"IVF layout root {out_dir!r} is not visible from node(s) "
                f"{bad}; on a multi-node cluster the layout root must be a "
                "shared filesystem or object-store path — set "
                "UPXR_IVF_LAYOUT_ROOT (or pass layout_root=) to a job-scoped "
                "shared directory, same convention as EncodeJobConfig.out_dir"
            )
    finally:
        try:
            os.remove(sentinel)
        except OSError:
            pass


# rows per shard file of one IVF bucket; build_ivf_layout reads it when
# it runs
IVF_SHARD_ROWS = 1_000_000


def build_ivf_layout(ds, centroids: np.ndarray, out_dir: str) -> pd.DataFrame:
    """Write ``ds`` (vec_id, embedding) re-partitioned by IVF bucket:
    ``<out_dir>/bucket=<b>/data.parquet`` one file per bucket (a directory
    of shard files at scale), ``centroids.npy`` + a bucket manifest at the
    root.  The write is atomic-per-bucket (tmp + rename) and the manifest
    is written LAST, so a crashed build is simply rebuilt; a complete
    layout is detected by the manifest's existence and reused across
    processes (resume semantics, same contract as the encode manifest).
    ``check_shared_root`` fails fast if workers cannot see ``out_dir``."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    check_shared_root(out_dir)
    assigned = map_stage(
        ds, AssignBucket, {"centroids": centroids}, batch_format="pandas"
    )

    # Hot buckets shard into <= IVF_SHARD_ROWS-row files instead of one giant
    # file per bucket ("resumable output: never one giant file"): read
    # tasks parallelize per shard, and a probe's file list stays
    # directory-pruned (all shards of a bucket live in its bucket=<b>/
    # dir). Shard writes stay atomic (tmp + rename) and the manifest —
    # written LAST — carries one row per (bucket, shard).
    manifest = (
        co_partition(assigned, ["bucket"], bucket_writer(out_dir, IVF_SHARD_ROWS))
        .to_pandas()
        .sort_values("bucket")
        .reset_index(drop=True)
    )
    np.save(os.path.join(out_dir, "centroids.npy"), centroids)
    tmp = os.path.join(out_dir, "manifest.parquet.tmp")
    final = os.path.join(out_dir, "manifest.parquet")
    pq.write_table(
        pa.Table.from_pandas(manifest, preserve_index=False).replace_schema_metadata(
            None
        ),
        tmp,
    )
    os.replace(tmp, final)
    return manifest


def bucket_writer(out_dir: str, shard_rows: int):
    """``co_partition`` reducer on ``bucket`` of ``build_ivf_layout``: each
    bucket of the frame goes to ``<out_dir>/bucket=<b>/data-<shard>.parquet``
    files of ≤ ``shard_rows`` rows (tmp + rename each); returns one
    (bucket, path, n) manifest row per shard."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    def write_bucket(g: pd.DataFrame) -> pd.DataFrame:
        b = int(g["bucket"].iloc[0])
        bdir = os.path.join(out_dir, f"bucket={b}")
        os.makedirs(bdir, exist_ok=True)
        body = g.drop(columns=["bucket"])
        n_shards = max(1, -(-len(body) // shard_rows))
        rows = []
        for si in range(n_shards):
            part = body.iloc[si * shard_rows : (si + 1) * shard_rows]
            path = os.path.join(bdir, f"data-{si:05d}.parquet")
            tmp = path + ".tmp"
            pq.write_table(
                pa.Table.from_pandas(
                    part, preserve_index=False
                ).replace_schema_metadata(None),
                tmp,
            )
            os.replace(tmp, path)
            rows.append((b, path, len(part)))
        return pd.DataFrame(rows, columns=["bucket", "path", "n"])

    return lambda frame: per_key(frame, "bucket", write_bucket)


def load_ivf_layout(out_dir: str):
    """(centroids, manifest df) of a completed layout, or None."""
    import os

    import pyarrow.parquet as pq

    m = os.path.join(out_dir, "manifest.parquet")
    c = os.path.join(out_dir, "centroids.npy")
    if not (os.path.exists(m) and os.path.exists(c)):
        return None
    return np.load(c), pq.read_table(m).to_pandas()


# ---------------------------------------------------------------------------
# Random-hyperplane LSH near-duplicate candidates — the sub-quadratic scale
# path for embedding-cosine near-dup (the exact all-pairs plan above is
# O(n²/G) per group; LSH banding makes candidate generation O(n·bands) with
# per-bucket all-pairs verify, the SimHash/MinHash analogue for vectors).
# Charikar, STOC'02 (SimHash): P[sign(h·a) == sign(h·b)] = 1 - θ(a,b)/π.
# ---------------------------------------------------------------------------


class LshBandEmit:
    """map_batches stage: signs against ``bands × rows_per_band`` seeded
    random hyperplanes, packs each band's ``rows_per_band`` sign bits into a
    band-bucket key ``bh`` (band index in the high bits), and replicates the
    row once per band. A pair collides in some bucket iff it agrees on ALL
    bits of at least one band — the classic banding amplification.

    Scale shape: shuffle volume is bands × data (vs G × data for the exact
    plan, but bucket groups are tiny: n / 2^rows_per_band expected, not
    2n/G), and the planes payload is (bands·rows_per_band × dim) float64 —
    KB-scale, closure-shipped via ``map_stage``. Skew assumption: a
    bucket holds one near-dup cluster's members plus hash collisions; a
    corpus whose single densest cosine-cluster does not fit one worker needs
    rows_per_band raised (finer buckets), exactly like salting a hot key.

    ``rows_per_band == 0`` degenerates to ONE global bucket (``bh = 0``,
    single replica): machinery-identical all-pairs, used by the
    ``*_fullband`` exact twin the SQL oracle checks."""

    def __init__(self, planes, bands: int, rows_per_band: int):
        self.planes = np.asarray(planes, dtype=np.float64)
        self.bands = int(bands)
        self.r = int(rows_per_band)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        if self.r == 0:
            out = batch.copy()
            out["bh"] = np.zeros(n, dtype=np.int64)
            return out
        emb = _normalize(np.stack(batch["embedding"].to_numpy()).astype(np.float64))
        bits = (emb @ self.planes.T) >= 0.0  # n × (bands·r)
        weights = (np.int64(1) << np.arange(self.r, dtype=np.int64))
        codes = bits.reshape(n, self.bands, self.r).astype(np.int64) @ weights
        bh = (np.arange(self.bands, dtype=np.int64) << np.int64(self.r)) + codes
        rep = batch.iloc[np.repeat(np.arange(n), self.bands)].reset_index(drop=True)
        rep["bh"] = bh.reshape(-1)
        return rep


def lsh_bucket_pairs(threshold: float, scale: float = 1e6):
    """``co_partition`` reducer on ``bh``: for each LSH bucket of the frame,
    exact cosine all-pairs within the bucket, emitting (id_a, id_b,
    cos_ppm) for cos ≥ threshold — the verify step fused into candidate
    enumeration, so false positives never
    leave the bucket. A pair sharing several bands is emitted once per
    shared bucket with an IDENTICAL cos_ppm (same floats, same kernel);
    the caller dedups with a grouped MAX."""

    def one(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=["vec_id"])
        ids = g["vec_id"].to_numpy(dtype=np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        emb = _normalize(
            np.stack(g["embedding"].to_numpy()[order]).astype(np.float64)
        )
        sims = emb @ emb.T
        ai, bi = np.nonzero(np.triu(sims >= threshold, k=1))
        c = sims[ai, bi]
        ppm = (np.sign(c * scale) * np.floor(np.abs(c * scale) + 0.5)).astype(np.int64)
        return pd.DataFrame(
            {
                "id_a": ids[ai].astype(np.int64),
                "id_b": ids[bi].astype(np.int64),
                "cos_ppm": ppm,
            }
        )

    return lambda frame: per_key(frame, "bh", one)


# Fixed-point scale for the k-means partial sums (round-5 hardening of the
# documented float-summation-order caveat): each normalized embedding value
# quantizes to round(e * 2^20) BEFORE any summation, so every partial and
# the combiner's final are INT64 sums — associative, batch-boundary- and
# block-order-independent, i.e. bit-identical centroids on every run of
# every cluster layout. The spherical update normalizes the sum vector, so
# the scale cancels exactly; the only numeric effect is the 2^-20 ≈ 1e-6
# per-element quantization, mirrored by the NumPy reference in the parity
# test. Overflow headroom: |sum| ≤ n·2^20 ⇒ safe to n ≈ 8.8e12 rows/cluster.
KMEANS_FP_SCALE = 1 << 20


class KMeansPartial:
    """One Lloyd iteration's distributed half for spherical k-means: assign
    each batch's (normalized) vectors to the broadcast centroids and emit
    per-cluster PARTIAL sums in long form — (cluster, dim, s) rows plus a
    (cluster, -1, count) row per non-empty cluster — so only
    (k × (dim+1))-sized partials ever reach the exchange. KB ctor payload:
    ships closure-captured via ``map_stage``. Sums are fixed-point
    int64 (``KMEANS_FP_SCALE``) — see the scale note above."""

    def __init__(self, centroids: np.ndarray):
        self.cent = np.asarray(centroids, dtype=np.float64)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        k, dim = self.cent.shape
        emb = _normalize(
            np.stack(df["embedding"].to_numpy()).astype(np.float64)
        )
        assign = np.argmax(emb @ self.cent.T, axis=1)
        eq = np.rint(emb * KMEANS_FP_SCALE).astype(np.int64)
        counts = np.bincount(assign, minlength=k)
        nz = np.nonzero(counts)[0]
        acc = np.zeros((k, dim), dtype=np.int64)
        # per-cluster masked sums: k vectorized reductions — np.add.at's
        # unbuffered scatter path is 10-30x slower; int64 summation makes
        # the order irrelevant (exact associativity)
        for j in nz:
            acc[j] = eq[assign == j].sum(axis=0)
        cl = np.repeat(nz, dim)
        dm = np.tile(np.arange(dim, dtype=np.int64), len(nz))
        return pd.DataFrame(
            {
                "cluster": np.concatenate([cl, nz]).astype(np.int64),
                "dim": np.concatenate(
                    [dm, np.full(len(nz), -1, dtype=np.int64)]
                ),
                "s": np.concatenate([acc[nz].ravel(), counts[nz]]).astype(
                    np.int64
                ),
            }
        )


class KMeansAssign:
    """Final labeling pass: (vec_id, cluster_id) per vector against the
    broadcast converged centroids."""

    def __init__(self, centroids: np.ndarray):
        self.cent = np.asarray(centroids, dtype=np.float64)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        emb = _normalize(
            np.stack(df["embedding"].to_numpy()).astype(np.float64)
        )
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].to_numpy(np.int64),
                "cluster_id": np.argmax(emb @ self.cent.T, axis=1).astype(
                    np.int64
                ),
            }
        )


def semdedup_cluster(frame: pd.DataFrame, threshold: float) -> pd.DataFrame:
    """``co_partition`` reducer on ``cluster_id``: SemDeDup's per-cluster
    prune (Abbas et al. 2023) of every cluster in the frame, deterministic
    greedy form: scanning a cluster in vec_id order, a vector is DROPPED
    iff its cosine similarity to some already-KEPT vector exceeds
    ``threshold`` — so the lowest-id member of every semantic-duplicate
    group survives. One normalized matmul per cluster; the greedy scan is
    a Python loop over the (cluster-sized, worker-local) similarity rows —
    the same partitioning assumption as the LSH buckets: one k-means
    cluster fits one worker (raise k when it doesn't, exactly like
    salting a hot key)."""
    return per_key(frame, "cluster_id", lambda g: _semdedup_one(g, threshold))


def _semdedup_one(g: pd.DataFrame, threshold: float) -> pd.DataFrame:
    g = g.sort_values("vec_id")
    ids = g["vec_id"].to_numpy(np.int64)
    cl = g["cluster_id"].to_numpy(np.int64)
    emb = _normalize(np.stack(g["embedding"].to_numpy()).astype(np.float64))
    sims = emb @ emb.T
    n = len(ids)
    kept_mask = np.zeros(n, dtype=bool)
    ki = np.empty(n, dtype=np.int64)  # preallocated kept-index prefix
    nk = 0
    for i in range(n):
        if nk == 0 or not (sims[i, ki[:nk]] > threshold).any():
            kept_mask[i] = True
            ki[nk] = i
            nk += 1
    return pd.DataFrame(
        {
            "vec_id": ids,
            "cluster_id": cl,
            "kept": kept_mask,
        }
    )


def kmeans_update(partials: pd.DataFrame, cent: np.ndarray) -> np.ndarray:
    """Driver half of one Lloyd iteration: fold the reduced long-form
    partials into the next spherical centroids (empty clusters keep their
    previous centroid — the standard convention). Partials are fixed-point
    int64 sums; normalization cancels the scale exactly, so the int sums
    feed the norm directly."""
    k, dim = cent.shape
    new = cent.copy()
    vec = partials[partials["dim"] >= 0]
    acc = np.zeros((k, dim), dtype=np.float64)
    acc[
        vec["cluster"].to_numpy(np.int64), vec["dim"].to_numpy(np.int64)
    ] = vec["s"].to_numpy(np.float64)
    counts = np.zeros(k, dtype=np.float64)
    cnt = partials[partials["dim"] == -1]
    counts[cnt["cluster"].to_numpy(np.int64)] = cnt["s"].to_numpy(np.float64)
    for j in np.nonzero(counts)[0]:
        n = np.linalg.norm(acc[j])
        if n > 0:
            new[j] = acc[j] / n
    return new
