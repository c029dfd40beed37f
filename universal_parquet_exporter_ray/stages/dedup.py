"""Deduplication stages: exact (content-hash groupby), MinHash+LSH near-dup,
SimHash, n-gram Jaccard verification.

Scale shape (the part that matters at 100 TB):
- exact dedup: hash column added per batch (vectorized sha) → groupby(hash)
  → first — a single key-shuffle of hashes, never of full texts;
- MinHash-LSH: per-batch shingle→minhash (numpy) → EXPLODE to
  (band, band_hash, doc_id) rows → groupby on the band bucket → candidate
  pairs → exact-Jaccard verify. Only small (band, id) rows shuffle.

Deterministic: fixed seed for the permutation constants; no wall clock.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

MERSENNE = np.uint64((1 << 61) - 1)
N_PERMS = 64
BAND_ROWS = 4  # 16 bands × 4 rows


def _perm_constants(seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, MERSENNE, size=N_PERMS, dtype=np.uint64)
    b = rng.integers(0, MERSENNE, size=N_PERMS, dtype=np.uint64)
    return a, b


def word_shingle_hashes(text: str, w: int = 3) -> np.ndarray:
    """Distinct word w-gram shingle hashes (uint64). Word-level shingling is
    the standard choice for near-dup over natural/code text: character
    k-grams over a small vocabulary give every doc pair a high baseline
    Jaccard and flood LSH with false candidates."""
    toks = text.split()
    if not toks:
        return np.zeros(1, dtype=np.uint64)
    th = pd.util.hash_pandas_object(pd.Series(toks), index=False).to_numpy(np.uint64)
    if len(th) < w:
        th = np.pad(th, (0, w - len(th)))
    win = np.lib.stride_tricks.sliding_window_view(th, w)
    powers = np.uint64(1099511628211) ** np.arange(w, dtype=np.uint64)
    return np.unique((win * powers).sum(axis=1, dtype=np.uint64))


def content_sha(df: pd.DataFrame, text_col: str = "text") -> pd.Series:
    return df[text_col].map(
        lambda t: hashlib.sha256(t.encode("utf-8")).hexdigest() if isinstance(t, str) else ""
    )


def _grouped_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0), [0..c1), ... concatenated (the standard grouped-arange)."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    return np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )


def batch_word_shingles(texts, w: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated word-w-gram shingle hashes for a WHOLE batch + per-doc
    shingle counts — ONE vectorized ``hash_pandas_object`` call over every
    token in the batch instead of a pandas Series per doc (the round-3
    banding hotspot; ~4× faster at sf0.1).

    Per-shingle values are identical to ``word_shingle_hashes`` (same token
    hash, same polynomial window mix, same zero-padding for short docs and
    the 0-sentinel for empty docs); the only difference is that duplicates
    are NOT removed (``batch_word_shingle_sets`` removes them)."""
    tok_lists = [t.split() if isinstance(t, str) else [] for t in texts]
    n = np.array([len(t) for t in tok_lists], dtype=np.int64)
    # padded token counts: short non-empty docs pad with 0-hashes to w
    m = np.where(n == 0, 0, np.maximum(n, w))
    F = np.zeros(int(m.sum()), dtype=np.uint64)
    # exclusive prefix sums, also for a batch of no texts
    doc_starts = np.cumsum(m) - m
    flat_tokens = [tok for lst in tok_lists for tok in lst]
    if flat_tokens:
        th = pd.util.hash_pandas_object(
            pd.Series(flat_tokens), index=False
        ).to_numpy(np.uint64)
        F[np.repeat(doc_starts, n) + _grouped_arange(n)] = th
    n_win = np.where(n == 0, 0, m - w + 1)  # windows per non-empty doc
    win_pos = np.repeat(doc_starts, n_win) + _grouped_arange(n_win)
    powers = np.uint64(1099511628211) ** np.arange(w, dtype=np.uint64)
    S = np.zeros(len(win_pos), dtype=np.uint64)
    for k in range(w):
        S += F[win_pos + k] * powers[k]
    counts = np.where(n == 0, 1, n_win)  # empty docs emit one 0-sentinel
    if (n == 0).any():
        H = np.zeros(int(counts.sum()), dtype=np.uint64)
        out_starts = np.cumsum(counts) - counts
        H[np.repeat(out_starts, n_win) + _grouped_arange(n_win)] = S
    else:
        H = S
    return H, counts


def batch_word_shingle_sets(texts, w: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc DISTINCT sorted word-w-gram shingle hashes for a whole batch,
    concatenated, + per-doc distinct counts. Identical per-doc output to
    ``word_shingle_hashes`` (sorted unique), computed with one batch-level
    hash pass + one lexsort instead of per-doc pandas/np.unique calls."""
    H, counts = batch_word_shingles(texts, w)
    doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    order = np.lexsort((H, doc_idx))
    Hs, ds = H[order], doc_idx[order]
    keep = np.ones(len(Hs), dtype=bool)
    if len(Hs) > 1:
        keep[1:] = (Hs[1:] != Hs[:-1]) | (ds[1:] != ds[:-1])
    Hu, du = Hs[keep], ds[keep]
    return Hu, np.bincount(du, minlength=len(counts)).astype(np.int64)


def _blob_hashes(df: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated shingle hashes (uint64) and the per-doc shingle
    counts of a batch of ``ShingleBlobStage`` rows: one ``b"".join`` and a
    zero-copy ``frombuffer``."""
    return (
        np.frombuffer(b"".join(df["sh"]), dtype=np.uint64),
        df["n_sh"].to_numpy(np.int64),
    )


class MinHashBandStage:
    """batch of ``ShingleBlobStage`` rows (doc_id, sh, n_sh) → exploded
    (band, band_hash, doc_id) rows.

    The per-permutation min over a doc's distinct shingle set equals the
    min over its shingle multiset, so the bands are those of the doc's
    word-3-gram shingles, with the same zero padding of short docs and the
    same 0-sentinel of empty ones. ``__init__`` builds the permutation
    constants (microseconds)."""

    def __init__(self):
        self.a, self.b = _perm_constants()

    def signatures(self, df: pd.DataFrame) -> np.ndarray:
        """One permutation pass over the batch's concatenated shingle
        hashes with a per-doc ``np.minimum.reduceat``; every doc has at
        least one shingle (the 0-sentinel of an empty doc)."""
        H, sizes = _blob_hashes(df)
        bounds = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        sigs = np.empty((len(sizes), N_PERMS), dtype=np.uint64)
        chunk = 16  # bounded temporaries: (chunk, total_shingles) per pass
        for i0 in range(0, N_PERMS, chunk):
            a = self.a[i0 : i0 + chunk][:, None]
            b = self.b[i0 : i0 + chunk][:, None]
            vals = a * H[None, :] + b  # wraparound mod 2^64 (cheap, sound for minhash)
            sigs[:, i0 : i0 + chunk] = np.minimum.reduceat(vals, bounds, axis=1).T
        return sigs

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        n_docs = len(df)
        n_bands = N_PERMS // BAND_ROWS
        sigs = self.signatures(df)
        # FNV-1a-style vectorized band mixing (deterministic)
        s3 = sigs.reshape(n_docs, n_bands, BAND_ROWS)
        bh = np.full((n_docs, n_bands), 1469598103934665603, dtype=np.uint64)
        prime = np.uint64(1099511628211)
        for r in range(BAND_ROWS):
            bh = (bh ^ s3[:, :, r]) * prime
        doc_ids = df["doc_id"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "band": np.tile(np.arange(n_bands, dtype=np.int64), n_docs),
                "band_hash": bh.ravel(),
                "doc_id": np.repeat(doc_ids, n_bands),
            }
        )


_EMPTY_PAIRS = pd.DataFrame(
    {"doc_a": pd.Series([], dtype="int64"), "doc_b": pd.Series([], dtype="int64")}
)


def partition_to_pairs(g: pd.DataFrame) -> pd.DataFrame:
    """All candidate pairs of one LSH-bucket co-partition: filter to buckets
    with ≥2 members (vectorized duplicated mask), then enumerate pairs only
    in those collision buckets."""
    dup = g[g.duplicated(["band", "band_hash"], keep=False)]
    out_a, out_b = [], []
    for _, sub in dup.groupby(["band", "band_hash"], sort=False):
        ids = np.unique(sub["doc_id"].to_numpy(dtype=np.int64))
        if len(ids) < 2:
            continue
        ia, ib = np.triu_indices(len(ids), k=1)
        out_a.append(ids[ia])
        out_b.append(ids[ib])
    if not out_a:
        return _EMPTY_PAIRS.copy()
    return pd.DataFrame(
        {"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b)}
    )


class ShingleBlobStage:
    """batch(doc_id, text) → (doc_id, sh, n_sh): each doc's distinct sorted
    word-3-gram shingle hashes as packed int64 bytes, and their count. The
    one shingle pass of a near-dup query: banding (``MinHashBandStage``),
    the prefix index (``ShingleExplode``) and every ``verify_pairs`` plan
    read these rows (``shingle_table``)."""

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        H, sizes = batch_word_shingle_sets(list(df["text"]))
        ends = np.cumsum(sizes)
        Hi = H.view(np.int64)
        blobs = [Hi[e - c : e].tobytes() for e, c in zip(ends, sizes)]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "sh": pd.Series(blobs, dtype=object),
                "n_sh": sizes,
            }
        )


# the (pair, member doc) blob rows the pair co-partition verifies
_MEMBER_BLOB_COLS = ["doc_a", "doc_b", "doc_id", "sh", "n_sh"]


class PairShingleEmit:
    """Broadcast-pair verify feeder: batch of ``ShingleBlobStage`` rows →
    one (doc_a, doc_b, doc_id, sh, n_sh) row per (candidate pair, member
    doc), by one pandas merge. The doc→pair membership table is the
    BROADCAST small side, passed as ``map_stage`` constructor kwargs, so it
    rides in the stage's closure (one object-store copy per operator).
    Candidate pairs are output-sized LSH hits under the broadcast budget,
    never the corpus; the blobs stay on workers."""

    def __init__(self, members: pd.DataFrame):
        self.members = members  # columns: doc_id, doc_a, doc_b

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        hits = df[["doc_id", "sh", "n_sh"]].merge(self.members, on="doc_id")
        return hits[_MEMBER_BLOB_COLS]


def _count_pair_intersections(
    sh_all: np.ndarray, pair_idx: np.ndarray, n_pairs: int
) -> np.ndarray:
    """Per-pair intersection counts from concatenated per-side shingle rows:
    per-side (pair, shingle) rows are distinct by construction, so after one
    lexsort a duplicate adjacent (pair, shingle) ⟺ that shingle is on BOTH
    sides of the pair. Fully vectorized, O(S log S)."""
    order = np.lexsort((sh_all, pair_idx))
    p = pair_idx[order]
    s = sh_all[order]
    dup = (p[1:] == p[:-1]) & (s[1:] == s[:-1])
    return np.bincount(p[1:][dup], minlength=n_pairs)


class BlobPairJaccard:
    """(doc_a, doc_b) batch → exact (doc_a, doc_b, inter, union) against a
    BROADCAST per-doc shingle-blob table (flat int64 array + per-doc
    offsets) — the fast verify plan when the corpus blob table fits the
    broadcast budget. The per-pair blob gathers and intersection counts are
    one vectorized pass per batch (``_grouped_arange`` gather + the shared
    lexsort kernel); nothing is shuffled and no blob is ever duplicated
    per pair. Constructor args ride in the closure through ``map_stage``."""

    def __init__(self, doc_ids, flat, starts, counts):
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        self.flat = np.asarray(flat, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.slot = pd.Series(
            np.arange(len(doc_ids), dtype=np.int64), index=doc_ids
        )

    def _gather(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.counts[slots]
        idx = np.repeat(self.starts[slots], n) + _grouped_arange(n)
        return self.flat[idx], n

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        a = df["doc_a"].to_numpy(np.int64)
        b = df["doc_b"].to_numpy(np.int64)
        sa = self.slot.reindex(a)
        sb = self.slot.reindex(b)
        if sa.isna().any() or sb.isna().any():
            raise KeyError("candidate pair references a doc with no blob row")
        sh_a, na = self._gather(sa.to_numpy(np.int64))
        sh_b, nb = self._gather(sb.to_numpy(np.int64))
        n_pairs = len(a)
        pair_idx = np.concatenate(
            [
                np.repeat(np.arange(n_pairs, dtype=np.int64), na),
                np.repeat(np.arange(n_pairs, dtype=np.int64), nb),
            ]
        )
        inter = _count_pair_intersections(
            np.concatenate([sh_a, sh_b]), pair_idx, n_pairs
        )
        return pd.DataFrame(
            {"doc_a": a, "doc_b": b, "inter": inter, "union": na + nb - inter}
        )


_EMPTY_PAIR_JAC = pd.DataFrame(
    {
        "doc_a": pd.Series([], dtype="int64"),
        "doc_b": pd.Series([], dtype="int64"),
        "inter": pd.Series([], dtype="int64"),
        "union": pd.Series([], dtype="int64"),
    }
)


def pair_blob_partition_jaccard(g: pd.DataFrame) -> pd.DataFrame:
    """One pair co-partition of (doc_a, doc_b, doc_id, sh, n_sh) rows →
    exact integer (inter, union) per candidate pair. Each pair contributes
    exactly two rows (doc_id == doc_a and doc_id == doc_b, a < b), so after
    a sort the partition is even/odd-row aligned.

    The intersection counts are FULLY vectorized (round-5: replaces the
    per-pair ``np.intersect1d`` Python loop, which at 600k candidates cost
    ~4 s of the ngram verify): both sides' blobs concatenate via ONE
    ``b"".join`` + zero-copy ``frombuffer``, every shingle row gets its
    pair index by ``np.repeat``, and one lexsort + adjacent-equal scan
    counts, per pair, the shingles present on BOTH sides (per-side rows are
    distinct by construction, so a duplicate (pair, shingle) ⟺ an
    intersection hit). O(S log S) for S = Σ(n_a+n_b) per partition,
    ~50× faster than the loop on short-doc corpora."""
    g = g.sort_values(["doc_a", "doc_b", "doc_id"], kind="stable").reset_index(
        drop=True
    )
    if len(g) % 2:
        raise ValueError("pair partition has an unmatched member row")
    a_rows = g.iloc[0::2]
    b_rows = g.iloc[1::2]
    if not (
        np.array_equal(a_rows["doc_a"].to_numpy(), b_rows["doc_a"].to_numpy())
        and np.array_equal(a_rows["doc_b"].to_numpy(), b_rows["doc_b"].to_numpy())
        and np.array_equal(a_rows["doc_id"].to_numpy(), a_rows["doc_a"].to_numpy())
        and np.array_equal(b_rows["doc_id"].to_numpy(), b_rows["doc_b"].to_numpy())
    ):
        raise ValueError("pair partition rows are misaligned")
    n_pairs = len(a_rows)
    sh_a, na = _blob_hashes(a_rows)
    sh_b, nb = _blob_hashes(b_rows)
    if len(sh_a) != int(na.sum()) or len(sh_b) != int(nb.sum()):
        raise ValueError("shingle blob length disagrees with n_sh")
    pair_idx = np.concatenate(
        [
            np.repeat(np.arange(n_pairs, dtype=np.int64), na),
            np.repeat(np.arange(n_pairs, dtype=np.int64), nb),
        ]
    )
    inter = _count_pair_intersections(
        np.concatenate([sh_a, sh_b]), pair_idx, n_pairs
    )
    return pd.DataFrame(
        {
            "doc_a": a_rows["doc_a"].to_numpy(np.int64),
            "doc_b": a_rows["doc_b"].to_numpy(np.int64),
            "inter": inter,
            "union": na + nb - inter,
        }
    )


class ShingleExplode:
    """batch of ``ShingleBlobStage`` rows → one row per DISTINCT word-3-gram
    shingle: (sh, doc_id, n) where ``n`` is the doc's total distinct-shingle
    count, carried on every row so the downstream pair aggregation can
    compute Jaccard without a second pass or a corpus-sized doc→n
    broadcast."""

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        sh, sizes = _blob_hashes(df)
        doc_ids = np.repeat(df["doc_id"].to_numpy(dtype=np.int64), sizes)
        return pd.DataFrame(
            {
                "sh": sh.view(np.int64),
                "doc_id": doc_ids,
                "n": np.repeat(sizes, sizes),
            }
        )


# ---------------------------------------------------------------------------
# Prefix filtering (exactness-preserving candidate pruning for the exact
# n-gram Jaccard join).  Canonical shingle order = (document frequency asc,
# shingle hash asc) — a global total order.  For Jaccard ≥ t, any qualifying
# pair shares at least one shingle among each doc's first
# n − ⌈t·n⌉ + 1 shingles in that order (prefix-filter theorem, SSJoin/ppjoin
# family), so emitting ONLY prefix shingles to the inverted index preserves
# recall while a stop-shingle (huge df) sorts last and never detonates an
# m²/2 pair emission.  df == 1 shingles are dropped outright: they cannot
# appear in any intersection, and removing them from the ordered list only
# shifts true df ≥ 2 prefix members EARLIER, so the kept set still contains
# every theorem-guaranteed witness.  Candidates are then verified with the
# exact Jaccard of ``verify_pairs`` (per-pair intersect), which
# restores the exact intersection counts the pruned index no longer carries.
# ---------------------------------------------------------------------------


def df_stamp_route(g: pd.DataFrame) -> pd.DataFrame:
    """One shingle co-partition → its rows stamped with each shingle's
    EXACT global document frequency (a shingle lives entirely in one
    partition), df == 1 rows dropped, ready for the per-doc prefix pass."""
    counts = g["sh"].value_counts()
    dfreq = g["sh"].map(counts).to_numpy(dtype=np.int64)
    keep = dfreq >= 2
    kept = g[keep]
    return pd.DataFrame(
        {
            "doc_id": kept["doc_id"].to_numpy(dtype=np.int64),
            "sh": kept["sh"].to_numpy(dtype=np.int64),
            "dfreq": dfreq[keep],
            "n": kept["n"].to_numpy(dtype=np.int64),
        }
    )


def prefix_select(g: pd.DataFrame, t_num: int = 1, t_den: int = 3) -> pd.DataFrame:
    """One doc co-partition → each doc's prefix shingles in canonical
    (dfreq, sh) order.  Prefix length p = n − ⌈t·n⌉ + 1 uses the doc's FULL
    distinct-shingle count ``n`` (carried from ShingleExplode), not the
    df-pruned remainder, so the theorem's bound holds.  t = t_num/t_den as
    exact integers: ⌈t·n⌉ = (t_num·n + t_den − 1) // t_den.

    df == 1 rows were dropped upstream (they cannot match), but their
    POSITIONS still count toward the prefix: df == 1 sorts strictly before
    every df ≥ 2 shingle in canonical order, so a doc with ``m2`` surviving
    rows has u = n − m2 invisible leading shingles and the i-th surviving
    shingle's global rank is u + i.  Keeping rank_local < p − u is exactly
    the theorem's prefix — WITHOUT this correction a stop-shingle whose doc
    has only unique other shingles would re-enter every prefix and the m²/2
    blowup would return."""
    g = g.sort_values(["doc_id", "dfreq", "sh"], kind="stable")
    rank_local = g.groupby("doc_id", sort=False).cumcount().to_numpy()
    m2 = g.groupby("doc_id", sort=False)["sh"].transform("size").to_numpy(np.int64)
    n = g["n"].to_numpy(dtype=np.int64)
    p = n - (t_num * n + t_den - 1) // t_den + 1
    u = n - m2
    kept = g[rank_local < p - u]
    return pd.DataFrame(
        {
            "sh": kept["sh"].to_numpy(dtype=np.int64),
            "doc_id": kept["doc_id"].to_numpy(dtype=np.int64),
        }
    )


_EMPTY_CAND = pd.DataFrame(
    {c: pd.Series([], dtype="int64") for c in ("doc_a", "doc_b")}
)


def prefix_posting_pairs(g: pd.DataFrame) -> pd.DataFrame:
    """One prefix-shingle co-partition → DISTINCT candidate (doc_a,
    doc_b) pairs sharing a prefix shingle.  Pair volume is bounded by the
    prefix pruning upstream — the stop-shingle m²/2 blowup cannot occur
    because max-df shingles sort out of every prefix."""
    dup = g[g.duplicated("sh", keep=False)]
    dup = dup.sort_values(["sh", "doc_id"], kind="stable")
    sh = dup["sh"].to_numpy()
    ids = dup["doc_id"].to_numpy(dtype=np.int64)
    _, starts, counts = np.unique(sh, return_index=True, return_counts=True)
    out_a, out_b = [], []
    triu_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for s, c in zip(starts, counts):
        if c < 2:
            continue
        tri = triu_cache.get(c)
        if tri is None:
            tri = triu_cache[c] = np.triu_indices(c, k=1)
        ia, ib = tri
        out_a.append(ids[s + ia])
        out_b.append(ids[s + ib])
    if not out_a:
        return _EMPTY_CAND.copy()
    return pd.DataFrame(
        {"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b)}
    ).drop_duplicates()


def jaccard_from_sets(sa: np.ndarray, sb: np.ndarray) -> float:
    """Jaccard of two precomputed (unique, sorted) shingle-hash arrays —
    precompute per DOC, not per pair, when verifying many candidates."""
    inter = np.intersect1d(sa, sb, assume_unique=True).size
    union = sa.size + sb.size - inter
    return inter / union if union else 1.0


class SimHashStage:
    """64-bit SimHash over whitespace tokens.

    Token hash = first 8 bytes of md5, little-endian — chosen because it is
    reproducible in ANSI SQL (DuckDB ``md5_number_upper``), giving the
    simhash query an exact cross-engine oracle."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    @staticmethod
    def simhash64(text: str) -> int:
        toks = text.split()
        if not toks:
            return 0
        hs = np.array(
            [
                np.frombuffer(
                    hashlib.md5(t.encode("utf-8")).digest()[:8], dtype=np.uint64
                )[0]
                for t in toks
            ],
            dtype=np.uint64,
        )
        bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(
            np.int64
        )
        votes = bits.sum(axis=0) * 2 - len(hs)
        return int(
            ((votes > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum(
                dtype=np.uint64
            )
        )

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        out = df[["doc_id"]].copy()
        out["simhash"] = [
            format(self.simhash64(t if isinstance(t, str) else ""), "016x")
            for t in df[self.text_col]
        ]
        return out


# ---------------------------------------------------------------------------
# Connected components over the near-dup pair graph
# ---------------------------------------------------------------------------

def _large_star(g: pd.DataFrame) -> pd.DataFrame:
    """Large-star over one ``u`` co-partition of the SYMMETRIZED edge list:
    for each node u, m = min(N(u) ∪ {u}); emit (v, m) for v ∈ N(u), v > u.
    Vectorized: one pandas groupby-transform per partition."""
    m = g.groupby("u", sort=False)["v"].transform("min").to_numpy(np.int64)
    u = g["u"].to_numpy(np.int64)
    v = g["v"].to_numpy(np.int64)
    m = np.minimum(m, u)
    keep = v > u
    out = pd.DataFrame({"u": v[keep], "v": m[keep]})
    return out.drop_duplicates()


def _small_star(g: pd.DataFrame) -> pd.DataFrame:
    """Small-star over one ``u`` co-partition of the (u=max, v=min)-oriented
    edge list: for each u, m = min(N(u)); emit (v, m) for v ∈ N(u) \\ {m}
    plus (u, m)."""
    mn = g.groupby("u", sort=False)["v"].transform("min").to_numpy(np.int64)
    u = g["u"].to_numpy(np.int64)
    v = g["v"].to_numpy(np.int64)
    keep = v != mn
    heads = g.assign(_mn=mn).drop_duplicates("u")
    out = pd.DataFrame(
        {
            "u": np.concatenate([v[keep], heads["u"].to_numpy(np.int64)]),
            "v": np.concatenate([mn[keep], heads["_mn"].to_numpy(np.int64)]),
        }
    )
    return out.drop_duplicates()


def _symmetrize(df: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "u": np.concatenate([df["u"].to_numpy(np.int64), df["v"].to_numpy(np.int64)]),
            "v": np.concatenate([df["v"].to_numpy(np.int64), df["u"].to_numpy(np.int64)]),
        }
    )


def _orient_max_min(df: pd.DataFrame) -> pd.DataFrame:
    u = df["u"].to_numpy(np.int64)
    v = df["v"].to_numpy(np.int64)
    keep = u != v
    u, v = u[keep], v[keep]
    return pd.DataFrame({"u": np.maximum(u, v), "v": np.minimum(u, v)})


def _edge_hash_sum(df: pd.DataFrame) -> int:
    """Sum mod 2**64 of per-row hashes of one frame of (``u``, ``v``)
    edges: order-insensitive, so sums of parts add up to the sum of the
    whole."""
    if not len(df):
        return 0  # a sort reducer that got no rows gives a columnless block
    h = pd.util.hash_pandas_object(
        df["u"].astype("int64") * np.int64(1000003) + df["v"].astype("int64"),
        index=False,
    ).to_numpy(np.uint64)
    return int(h.sum(dtype=np.uint64))


def _edge_checksum(edges) -> tuple[int, int]:
    """(row count, order-insensitive uint64 checksum) of a deduped edge
    frame or materialized edge Dataset. A Dataset costs no second Ray Data
    execution: the count is the materialized metadata, the checksum one
    plain Ray task per block returning its ``_edge_hash_sum``. The same
    edges give the same pair in either container, however they are split
    into blocks."""
    if isinstance(edges, pd.DataFrame):
        return len(edges), _edge_hash_sum(edges)

    import ray
    from ray.data.block import BlockAccessor

    @ray.remote
    def block_sum(block) -> int:
        return _edge_hash_sum(BlockAccessor.for_block(block).to_pandas())

    refs = [r for b in edges.iter_internal_ref_bundles() for r in b.block_refs]
    sums = ray.get([block_sum.remote(r) for r in refs])
    return edges.count(), sum(sums) % (1 << 64)


def connected_components(edges, max_rounds: int = 64):
    """Connected components of an undirected (``u``, ``v``) edge set via
    alternating large-star / small-star rounds (Kiveris et al.,
    *Connected Components in MapReduce and Beyond*, SoCC'14). The rounds
    run where the edges are:

    - a pandas frame (edges already on the driver) runs them on the
      driver and returns a pandas frame. The whole frame is one
      co-partition: every star body is vectorized over all the keys of
      its input, so one call per step is exact, with no Ray Data
      execution and no shuffle;
    - a Dataset runs every round as two ``co_partition`` passes
      on ``u`` (all rows of a node in one call, so per-node mins there
      are global) and returns a lazy Dataset. The edge set never leaves
      the workers; the driver holds one (count, checksum) pair per round.

    Both containers run the same loop and the same bodies below, so they
    reach the same fixpoint: per-component stars rooted at the component
    minimum, in O(log n) rounds (chain graphs, the worst case, included).

    The result has columns (``doc_id``, ``cluster_id``) int64, one row per
    node incident to an edge; ``cluster_id`` is the component's minimum
    node id. An empty edge frame gives a zero-row frame of those columns.
    """
    from . import co_partition

    if isinstance(edges, pd.DataFrame):
        def each(df, fn):
            return fn(df)

        def group(df, keys, fn):
            return fn(df)

        def settle(df):
            return df
    else:
        def each(ds, fn):
            return ds.map_batches(fn, batch_format="pandas")

        def group(ds, keys, fn):
            return co_partition(ds, keys, fn)

        def settle(ds):
            return ds.materialize()

    cur = settle(each(edges, _orient_max_min))
    prev_sig = None
    for _ in range(max_rounds):
        large = group(each(cur, _symmetrize), ["u"], _large_star)
        cur = settle(group(each(large, _orient_max_min), ["u"], _small_star))
        sig = _edge_checksum(cur)
        if sig == prev_sig:
            break
        prev_sig = sig
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds"
        )

    def to_labels(df: pd.DataFrame) -> pd.DataFrame:
        # star edges (leaf u → root v): every leaf labels v; roots label
        # themselves. Dedup is global because (node → label) rows for a node
        # are identical everywhere.
        return pd.DataFrame(
            {
                "doc_id": np.concatenate(
                    [df["u"].to_numpy(np.int64), df["v"].to_numpy(np.int64)]
                ),
                "cluster_id": np.concatenate(
                    [df["v"].to_numpy(np.int64), df["v"].to_numpy(np.int64)]
                ),
            }
        ).drop_duplicates()

    labels = each(cur, to_labels)
    # global dedup: a node's (doc_id, cluster_id) row is identical in every
    # batch at convergence, so a doc_id co-partition drop_duplicates is exact
    return group(labels, ["doc_id"], lambda g: g.drop_duplicates(ignore_index=True))


# Candidate-pair verification budget: membership tables below this many
# PAIRS broadcast via the object store (two 3-int64-column rows per pair,
# ~100 MB at the limit); above it — the dup-heavy-crawl case where the pair
# graph scales with the corpus — the verify switches to a hash-partitioned
# join, and nothing pair-graph-sized ever reaches the driver.
BROADCAST_PAIR_BUDGET = 2_000_000

# Broadcast-blob verify on the driver: at or under this many deduped pairs
# the pairs and the blob arrays are already driver frames, and one
# ``from_pandas`` block of them was one task anyway, so ``BlobPairJaccard``
# runs there; above it the pairs spread over 32 blocks of stage tasks.
DRIVER_VERIFY_PAIRS = 65536

# Corpus blob-table broadcast budget for the fast verify plan: below this
# many bytes the per-doc shingle blobs ship ONCE to each worker (flat
# arrays) and pairs verify with zero blob duplication; above it the corpus
# side stays distributed. 64 MB — at 100 TB the blob table is
# corpus-sized and this plan never triggers, by design.
BLOB_BROADCAST_BUDGET = 64 << 20


def shingle_table(docs, keep=None):
    """The (doc_id, sh, n_sh) ``ShingleBlobStage`` rows of the table read
    ``docs`` (after the per-batch pandas row filter ``keep``, if given):
    the one shingle scan a near-dup query's banding and its
    ``verify_pairs`` share.

    Materialized when ``docs.size_bytes()`` — a free footer estimate on a
    table read — is within 4 × ``BLOB_BROADCAST_BUDGET``: the blob table is
    ~8 bytes per token ≈ 1-2× the raw text bytes, so a larger text cannot
    give a broadcastable blob table. Above that the rows stay lazy and
    stream, and each consumer rescans the corpus; a 100-TB corpus is never
    materialized. (``size_bytes()`` of a mapped Dataset runs the whole map,
    hence the read.)"""
    from . import map_stage

    rows = docs if keep is None else docs.map_batches(keep, batch_format="pandas")
    blobs = map_stage(rows, ShingleBlobStage, batch_format="pandas")
    if docs.size_bytes() <= 4 * BLOB_BROADCAST_BUDGET:
        return blobs.materialize()
    return blobs


def verify_pairs(blobs, cand_rows):
    """Exact word-3-gram-Jaccard verification of candidate pairs against
    the ``shingle_table`` rows ``blobs`` — the shared tail of
    ``minhash_lsh_pairs``, ``decontaminate_neardup`` and
    ``ngram_jaccard_pairs``.

    ``cand_rows`` is a Dataset of (doc_a, doc_b) candidate rows (duplicates
    allowed, a < b).  Three physical plans, size-thresholded like
    ``stages/joins.py::thresholded_join``:

    - **broadcast-blob** (pair count ≤ ``BROADCAST_PAIR_BUDGET`` AND the
      blob table materialized and ≤ ``BLOB_BROADCAST_BUDGET`` bytes): the
      per-doc shingle blobs become flat arrays and ``BlobPairJaccard``
      verifies the pairs against them — no per-pair blob duplication, no
      shuffle (round-5: the emit+shuffle plan duplicated each doc's blob
      per candidate pair, ~80× on the sf0.1 ngram corpus, 4.4 s → 0.9 s).
      Within ``DRIVER_VERIFY_PAIRS`` pairs it runs on the driver, where
      both inputs already are; above it the arrays ride in the closure of
      a ``map_stage`` over 32 pair blocks.
    - **broadcast-pair** (pair count ≤ budget, blob table lazy or too
      big): the deduped membership table rides in ``PairShingleEmit``'s
      closure through ``map_stage``; one merge over the blob rows keeps
      the candidate docs' blobs, then the pair co-partition reducer.
    - **distributed** (over budget): pairs dedup inside pair
      co-partitions, explode to membership rows, and a ``doc_id``
      co-partition of the tagged union joins them to the blob rows — no
      driver materialization of the pair graph.

    Every budget and the cut are read when the verify runs.

    Returns exact integer (doc_a, doc_b, inter, union): a pandas frame
    from the driver verify (and for no candidates), else a Dataset."""
    from ray.data.dataset import MaterializedDataset

    from . import co_partition, map_stage

    pair_keys = ["doc_a", "doc_b"]
    cand = cand_rows.materialize()
    n_upper = cand.count()  # band-duplicate upper bound — safe to broadcast
    if n_upper == 0:
        return _EMPTY_PAIR_JAC.copy()
    if n_upper <= BROADCAST_PAIR_BUDGET:
        pairs = cand.to_pandas().drop_duplicates(subset=pair_keys, ignore_index=True)
        if (
            isinstance(blobs, MaterializedDataset)
            and blobs.size_bytes() <= BLOB_BROADCAST_BUDGET
        ):
            bdf = blobs.to_pandas()
            flat, counts = _blob_hashes(bdf)
            ctor = {
                "doc_ids": bdf["doc_id"].to_numpy(np.int64),
                "flat": flat.view(np.int64),
                "starts": np.concatenate([[0], np.cumsum(counts)[:-1]]),
                "counts": counts,
            }
            if len(pairs) <= DRIVER_VERIFY_PAIRS:
                return BlobPairJaccard(**ctor)(pairs)
            import ray.data as rd

            return map_stage(
                rd.from_pandas(pairs).repartition(32),
                BlobPairJaccard,
                ctor,
                batch_format="pandas",
            )
        a = pairs["doc_a"].to_numpy(np.int64)
        b = pairs["doc_b"].to_numpy(np.int64)
        members = pd.DataFrame(
            {
                "doc_id": np.concatenate([a, b]),
                "doc_a": np.concatenate([a, a]),
                "doc_b": np.concatenate([b, b]),
            }
        )
        # the membership table is 3 int64 columns over 2×pairs rows
        emitted = map_stage(
            blobs, PairShingleEmit, {"members": members}, batch_format="pandas"
        )
    else:
        pairs_ds = co_partition(
            cand, pair_keys, lambda g: g[pair_keys].drop_duplicates()
        )

        def to_members(df: pd.DataFrame) -> pd.DataFrame:
            a = df["doc_a"].to_numpy(np.int64)
            b = df["doc_b"].to_numpy(np.int64)
            return pd.DataFrame(
                {
                    "doc_id": np.concatenate([a, b]),
                    "doc_a": np.concatenate([a, a]),
                    "doc_b": np.concatenate([b, b]),
                }
            )

        members_ds = pairs_ds.map_batches(to_members, batch_format="pandas")

        # co-partitioned join: ONE ``co_partition`` of the tagged union on
        # doc_id — robust to empty hash partitions, no acero operators, all
        # vectorized pandas inside each block. role 0 = blob row, role 1 =
        # membership row; sentinel zeros keep every column non-null
        # int64/bytes so no float upcast can corrupt large ids.
        def tag_blobs(df: pd.DataFrame) -> pd.DataFrame:
            ids = df["doc_id"].to_numpy(np.int64)
            z = np.zeros(len(df), dtype=np.int64)
            return pd.DataFrame(
                {
                    "role": z,
                    "doc_id": ids,
                    "sh": df["sh"].to_numpy(),
                    "n_sh": df["n_sh"].to_numpy(np.int64),
                    "doc_a": z,
                    "doc_b": z,
                }
            )

        def tag_members(df: pd.DataFrame) -> pd.DataFrame:
            ids = df["doc_id"].to_numpy(np.int64)
            return pd.DataFrame(
                {
                    "role": np.ones(len(df), dtype=np.int64),
                    "doc_id": ids,
                    "sh": pd.Series([b""] * len(df), dtype=object),
                    "n_sh": np.zeros(len(df), dtype=np.int64),
                    "doc_a": df["doc_a"].to_numpy(np.int64),
                    "doc_b": df["doc_b"].to_numpy(np.int64),
                }
            )

        both = [
            blobs.map_batches(tag_blobs, batch_format="pandas"),
            members_ds.map_batches(tag_members, batch_format="pandas"),
        ]

        def join_group(g: pd.DataFrame) -> pd.DataFrame:
            m = g[g["role"].to_numpy() == 1]
            b = g[g["role"].to_numpy() == 0]
            mm = m[["doc_id", "doc_a", "doc_b"]].merge(
                b[["doc_id", "sh", "n_sh"]], on="doc_id"
            )
            return mm[_MEMBER_BLOB_COLS]

        emitted = co_partition(both, ["doc_id"], join_group)
    return co_partition(emitted, pair_keys, pair_blob_partition_jaccard)


_KEEP_BEST_COLS = ["cluster_id", "kept_doc", "best_tok", "n_members"]


class ClusterBestPartial:
    """(doc_id, text) batch → per-cluster ARGMAX PARTIAL for representative
    selection: one row per cluster present in the batch, carrying the
    batch-local best member (max token count, min doc_id tiebreak) and the
    batch-local member count. Partials are algebraic — merging two partials
    with the same rule (sum counts, argmax of argmaxes) is exact — so only
    cluster-sized rows ever reach an exchange, never documents.

    The doc_id → cluster map (OUTPUT-sized: only docs incident to a
    verified near-dup edge appear) rides in the stage's closure as two flat
    int64 arrays — no driver-side Python dict is ever built. Unmapped docs are
    their own singleton cluster. The lookup is a vectorized Int64 reindex
    — no float round-trip, so 2^53+ doc ids stay exact."""

    def __init__(self, map_keys, map_vals):
        keys = np.asarray(map_keys, dtype=np.int64)
        vals = np.asarray(map_vals, dtype=np.int64)
        self.cs = pd.Series(vals, index=keys, dtype="Int64")

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        n_tok = (
            df["text"].fillna("").str.count(r"\S+").to_numpy(dtype=np.int64)
        )
        if len(self.cs):
            looked = self.cs.reindex(ids)
            mask = looked.isna().to_numpy()
            filled = looked.to_numpy(dtype=np.int64, na_value=0)
            cl = np.where(mask, ids, filled)
        else:
            cl = ids
        tmp = pd.DataFrame(
            {"cluster_id": cl, "kept_doc": ids, "best_tok": n_tok}
        )
        return merge_keep_best_partials(tmp, counts_col=None)


def merge_keep_best_partials(
    df: pd.DataFrame, counts_col: str | None = "n_members"
) -> pd.DataFrame:
    """Merge keep-best partial rows (or raw member rows when
    ``counts_col=None``: each row then counts 1): per cluster, sum member
    counts and keep the (best_tok DESC, kept_doc ASC) argmax row."""
    if len(df) == 0:  # an empty corpus's partials: no blocks, no columns
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in _KEEP_BEST_COLS})
    if counts_col is None:
        counts = df.groupby("cluster_id", sort=False).size()
    else:
        counts = df.groupby("cluster_id", sort=False)[counts_col].sum()
    best = df.sort_values(
        ["cluster_id", "best_tok", "kept_doc"],
        ascending=[True, False, True],
        kind="stable",
    ).drop_duplicates("cluster_id", keep="first")
    return pd.DataFrame(
        {
            "cluster_id": best["cluster_id"].to_numpy(dtype=np.int64),
            "kept_doc": best["kept_doc"].to_numpy(dtype=np.int64),
            "best_tok": best["best_tok"].to_numpy(dtype=np.int64),
            "n_members": counts.loc[best["cluster_id"]].to_numpy(
                dtype=np.int64
            ),
        }
    ).reset_index(drop=True)


# ----------------------------------------------------------------------
# exact-substring (sliding-window) dedup — the ExactSubstr family member
# (Lee et al., "Deduplicating Training Data Makes Language Models Better",
# ACL 2022): any W-token span that occurs more than once ANYWHERE in the
# corpus is removed from every occurrence except the global first. The
# suffix-array construction of the paper is replaced by the distributed
# hash shape: only (h1, h2, packed) window rows — two independent 64-bit
# token-polynomial hashes (128 bits total, so a cross-window collision is
# vanishingly unlikely at any corpus size) plus a packed (doc_id, pos)
# int64 — ever cross the wire, never window text.
# ----------------------------------------------------------------------

_WKEY_1 = "9f2b4c6d8e0a1357"  # deterministic siphash keys for the two
_WKEY_2 = "1122deadbeef3344"  # independent per-token hash streams
_WBASE = np.uint64(1099511628211)

_EMPTY_SUBSTR = pd.DataFrame(
    {
        "doc_id": pd.Series([], dtype="int64"),
        "dup_windows": pd.Series([], dtype="int64"),
        "removed_tokens": pd.Series([], dtype="int64"),
    }
)

def emit_token_windows(
    df: pd.DataFrame, w: int, text_col: str = "text"
) -> pd.DataFrame:
    """All sliding ``w``-token window hashes of a batch of documents,
    vectorized across the whole batch: tokens of every doc flatten into ONE
    object array, each per-token hash stream is computed in one
    ``hash_pandas_object`` call, and the polynomial window combination is
    ``w`` vectorized multiply-adds — no per-window Python.

    ``packed`` = doc_id * 2^32 + pos (callers guarantee doc_id < 2^31 and
    doc length < 2^32), so an int64 MIN aggregate picks the lexicographic
    (doc_id, pos) first occurrence.

    The window hashes ship as the int64 BIT VIEW of the uint64 polynomial
    values (the standing repo pattern, see ``ShingleExplode``): a raw
    uint64 key column degrades to float64 through pandas blocks, which
    corrupts hashes above 2^53 — the r4 exact_substr sf0.1 incident, in a
    distributed final."""
    texts = df[text_col]
    ids = df["doc_id"].to_numpy(dtype=np.int64)
    toks = [t.split() for t in texts]
    lens = np.fromiter((len(t) for t in toks), dtype=np.int64, count=len(toks))
    n_wins = np.maximum(lens - w + 1, 0)
    total = int(n_wins.sum())
    flat = pd.Series(
        [tok for doc in toks for tok in doc], dtype="object"
    )
    h1 = pd.util.hash_pandas_object(
        flat, index=False, hash_key=_WKEY_1
    ).to_numpy(np.uint64)
    h2 = pd.util.hash_pandas_object(
        flat, index=False, hash_key=_WKEY_2
    ).to_numpy(np.uint64)
    # global start index of every window in the flattened token array
    doc_off = np.concatenate([[0], np.cumsum(lens)[:-1]])
    doc_rep = np.repeat(np.arange(len(toks)), n_wins)
    win_off = np.concatenate([[0], np.cumsum(n_wins)[:-1]])
    pos = np.arange(total, dtype=np.int64) - np.repeat(win_off, n_wins)
    start = doc_off[doc_rep] + pos
    wh1 = np.zeros(total, dtype=np.uint64)
    wh2 = np.zeros(total, dtype=np.uint64)
    for j in range(w):  # w vectorized steps, not per-window Python
        wh1 = wh1 * _WBASE + h1[start + j]
        wh2 = wh2 * _WBASE + h2[start + j]
    did = ids[doc_rep]
    return pd.DataFrame(
        {
            "h1": wh1.view(np.int64),
            "h2": wh2.view(np.int64),
            "packed": did * np.int64(1 << 32) + pos,
            "doc_id": did,
            "pos": pos,
        }
    )


def merge_removal_spans(df: pd.DataFrame, w: int) -> pd.DataFrame:
    """Per-doc merge of removal spans [pos, pos+w): overlapping/adjacent
    spans coalesce (equal-length spans sorted by pos make the running-max
    end simply the previous pos + w). Emits one row per doc:
    (doc_id, dup_windows = removed occurrences, removed_tokens = merged
    span tokens). Fully vectorized."""
    if len(df) == 0:
        return _EMPTY_SUBSTR.copy()
    df = df.sort_values(["doc_id", "pos"], kind="stable")
    d = df["doc_id"].to_numpy(dtype=np.int64)
    p = df["pos"].to_numpy(dtype=np.int64)
    new_doc = np.empty(len(d), dtype=bool)
    new_doc[0] = True
    new_doc[1:] = d[1:] != d[:-1]
    gap = np.empty(len(d), dtype=bool)
    gap[0] = True
    gap[1:] = p[1:] > p[:-1] + w
    island = np.cumsum(new_doc | gap) - 1
    isl = pd.DataFrame({"doc_id": d, "pos": p, "g": island})
    spans = isl.groupby("g", sort=False).agg(
        doc_id=("doc_id", "first"),
        first_pos=("pos", "min"),
        last_pos=("pos", "max"),
        n_occ=("pos", "size"),
    )
    spans["span"] = spans["last_pos"] + w - spans["first_pos"]
    out = spans.groupby("doc_id", sort=False).agg(
        dup_windows=("n_occ", "sum"), removed_tokens=("span", "sum")
    )
    return pd.DataFrame(
        {
            "doc_id": out.index.to_numpy(dtype=np.int64),
            "dup_windows": out["dup_windows"].to_numpy(dtype=np.int64),
            "removed_tokens": out["removed_tokens"].to_numpy(dtype=np.int64),
        }
    ).reset_index(drop=True)


class SubstrFilterStage:
    """Second corpus pass of the broadcast exact-substring plan: regenerate
    each batch's window hashes, inner-merge against the (output-sized)
    duplicated-window table, drop each window's global first occurrence,
    and merge the surviving removal spans per doc — all of a doc's windows
    are in its own batch, so the span merge needs no shuffle.

    ``dup`` ships as three flat numpy arrays (h1, h2, first_packed) in the
    stage's closure, via ``map_stage``."""

    def __init__(self, h1: np.ndarray, h2: np.ndarray, first: np.ndarray, w: int):
        self.dup = pd.DataFrame(
            {
                "h1": np.asarray(h1, dtype=np.int64),
                "h2": np.asarray(h2, dtype=np.int64),
                "first": np.asarray(first, dtype=np.int64),
            }
        )
        self.w = w

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        wins = emit_token_windows(df, self.w)
        hit = wins.merge(self.dup, on=["h1", "h2"], how="inner")
        rem = hit[hit["packed"] != hit["first"]]
        return merge_removal_spans(rem[["doc_id", "pos"]], self.w)
