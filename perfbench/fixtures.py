"""Seeded benchmark inputs, generated once and cached in the checkout.

Two kinds of input:

- ``source_files``: the package's own generator
  (``datagen.write_source_files``), the paper's code-corpus table with a
  zipf hot ``repo`` key.
- a TPC-H-shaped star schema plus ``events`` and ``documents``
  (``write_tables``), the tables the ``__ray_entry__.queries()`` registry
  reads. Same schemas and value ranges as the repository's test tables; the
  documents carry a few exact and near duplicates so the curation operators
  have work to find.

Both are keyed by (size, seed) under ``perfbench/.cache``. Generation is not
part of any timed figure; ``sha256_of`` pins the bytes a run read.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".cache")

TABLES = ("nation", "customer", "orders", "lineitem", "events", "documents")

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_EVENT_TYPES = ["click", "view", "purchase", "signup", "error"]
_LANGS = ["en", "de", "es", "fr", "zh"]
_LANG_WEIGHTS = [0.44, 0.14, 0.14, 0.13, 0.15]
_WORDS = (
    "a the row sort query filter hash key group agg join scan order value "
    "window fast slow vector small big customer stream merge data part "
    "column table spark line batch"
).split()

_DAY_US = 86_400 * 1_000_000
_EPOCH_1995 = np.datetime64("1995-01-01", "us").astype(np.int64)
_EPOCH_2024 = np.datetime64("2024-01-01", "us").astype(np.int64)


def _write(table: pa.Table, path: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def _money(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def _documents(rng: np.random.Generator, n: int) -> pa.Table:
    n_words = np.clip(rng.lognormal(3.7, 0.5, n), 8, 100).astype(np.int64)
    words = np.array(_WORDS, dtype=object)
    texts = [" ".join(words[rng.integers(0, len(words), k)]) for k in n_words]
    # ~1% exact copies and ~2% one-word edits of long documents (3-word
    # shingle Jaccard >= 0.85, far above the 0.5 near-dup threshold, so the
    # LSH candidate step finds every pair the exact oracle does)
    long_ids = np.flatnonzero(n_words >= 40)
    n_exact, n_near = n // 100, n // 50
    if len(long_ids) and n > 10:
        dst = rng.choice(n, n_exact + n_near, replace=False)
        src = rng.choice(long_ids, n_exact + n_near)
        for j, (d, s) in enumerate(zip(dst, src)):
            if d == s:
                continue
            toks = texts[s].split(" ")
            if j >= n_exact:
                toks[int(rng.integers(0, len(toks)))] = str(words[rng.integers(0, len(words))])
            texts[d] = " ".join(toks)
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(rng.choice(_LANGS, n, p=_LANG_WEIGHTS), type=pa.string()),
            "source": pa.array([f"src{i}" for i in rng.integers(0, 20, n)], type=pa.string()),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )


def _generate_tables(sf: float, seed: int) -> dict[str, pa.Table]:
    rng = np.random.default_rng(seed)
    n_cust = max(15, int(150_000 * sf))
    n_orders = max(150, int(1_500_000 * sf))
    n_events = max(100, int(1_000_000 * sf))
    n_docs = max(50, int(50_000 * sf))
    n_part, n_supp = max(20, int(200_000 * sf)), max(10, int(10_000 * sf))

    nation = pa.table(
        {
            "n_nationkey": pa.array(np.arange(25, dtype=np.int32)),
            "n_name": pa.array([f"NATION_{i}" for i in range(25)]),
            "n_regionkey": pa.array(np.arange(25, dtype=np.int32) % 5),
        }
    )
    customer = pa.table(
        {
            "c_custkey": pa.array(np.arange(n_cust, dtype=np.int64)),
            "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_cust)]),
            "c_nationkey": pa.array(rng.integers(0, 25, n_cust).astype(np.int32)),
            "c_acctbal": pa.array(_money(rng, -999.99, 9999.99, n_cust)),
            "c_mktsegment": pa.array(rng.choice(_SEGMENTS, n_cust)),
        }
    )
    order_day = rng.integers(0, 2404, n_orders)
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(n_orders, dtype=np.int64)),
            "o_custkey": pa.array(rng.integers(0, n_cust, n_orders)),
            "o_orderstatus": pa.array(rng.choice(["F", "O", "P"], n_orders)),
            "o_totalprice": pa.array(_money(rng, 1000.0, 500_000.0, n_orders)),
            "o_orderdate": pa.array(_EPOCH_1995 + order_day * _DAY_US, type=pa.timestamp("us")),
            "o_orderpriority": pa.array(rng.choice(_PRIORITIES, n_orders)),
        }
    )
    # TPC-H layout: 1-7 lines per order, lineitem clustered by order key.
    # Whole-dollar unit prices keep every revenue sum an exact number of
    # cents: with cent prices, a sum ending in exactly half a cent rounds
    # either way depending on float summation order, and the oracle twin
    # compares the rounded cents exactly.
    lines = rng.integers(1, 8, n_orders)
    l_order = np.repeat(np.arange(n_orders, dtype=np.int64), lines)
    n_li = len(l_order)
    l_linenumber = (np.arange(n_li) - np.repeat(np.cumsum(lines) - lines, lines) + 1).astype(np.int32)
    qty = rng.integers(1, 51, n_li).astype(np.float64)
    lineitem = pa.table(
        {
            "l_orderkey": pa.array(l_order),
            "l_partkey": pa.array(rng.integers(0, n_part, n_li)),
            "l_suppkey": pa.array(rng.integers(0, n_supp, n_li)),
            "l_linenumber": pa.array(l_linenumber),
            "l_quantity": pa.array(qty),
            "l_extendedprice": pa.array(qty * rng.integers(900, 2101, n_li)),
            "l_discount": pa.array(rng.integers(0, 11, n_li) / 100.0),
            "l_tax": pa.array(rng.integers(0, 9, n_li) / 100.0),
            "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n_li)),
            "l_linestatus": pa.array(rng.choice(["F", "O"], n_li)),
            "l_shipdate": pa.array(
                _EPOCH_1995 + (np.repeat(order_day, lines) + rng.integers(1, 122, n_li)) * _DAY_US,
                type=pa.timestamp("us"),
            ),
        }
    )
    events = pa.table(
        {
            "event_id": pa.array(np.arange(n_events, dtype=np.int64)),
            "ts": pa.array(
                _EPOCH_2024 + rng.integers(0, 30 * _DAY_US, n_events), type=pa.timestamp("us")
            ),
            "user_id": pa.array(rng.integers(0, max(2, n_events // 66), n_events)),
            "event_type": pa.array(rng.choice(_EVENT_TYPES, n_events)),
            "value": pa.array(np.round(rng.exponential(50.0, n_events), 2)),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_events)]),
        }
    )
    return {
        "nation": nation,
        "customer": customer,
        "orders": orders,
        "lineitem": lineitem,
        "events": events,
        "documents": _documents(rng, n_docs),
    }


def write_tables(sf: float, seed: int) -> str:
    """Directory holding the seeded tables at scale ``sf`` (one
    ``<table>.parquet`` each, the layout ``sources.load_table`` reads)."""
    out = os.path.join(CACHE_DIR, f"tables-sf{sf:g}-seed{seed}")
    done = os.path.join(out, "_DONE")
    if not os.path.exists(done):
        os.makedirs(out, exist_ok=True)
        for name, table in _generate_tables(sf, seed).items():
            _write(table, os.path.join(out, f"{name}.parquet"))
        with open(done, "w") as f:
            f.write("ok\n")
    return out


def write_source(rows: int, seed: int) -> str:
    """Path of the cached ``source_files`` Parquet for (rows, seed)."""
    from universal_parquet_exporter_ray.datagen import write_source_files

    os.makedirs(CACHE_DIR, exist_ok=True)
    return write_source_files(
        os.path.join(CACHE_DIR, f"source_files-{rows}-seed{seed}.parquet"), rows, seed=seed
    )


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def arrow_bytes(path: str) -> int:
    """In-memory Arrow size of a Parquet file: the 'user data' base that
    throughput and ratio are quoted against."""
    return pq.read_table(path).nbytes
