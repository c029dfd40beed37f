"""universal_parquet_exporter_ray — a Ray-Data-native columnar processing engine.

A brand-new engine (NOT a port) with the query/data-processing capabilities of
the reference ``kanshuYokooSeiwa/universal-parquet-exporter`` (a SQL → pandas →
Parquet exporter, see ``/root/reference/src/export/parquet_writer.py``),
re-expressed Ray-Data-first:

- ``codecs``     — per-column lightweight compression (dictionary, RLE, FSST,
                   bit-packing, frame-of-reference, zstd fallback) with a
                   statistics-driven auto-selector.
- ``stages``     — reusable ``map_batches`` stages (encoder/verifier actor
                   pools, salting, text analysis, dedup, ANN, multimodal).
- ``sources``    — table loading helpers over Parquet (column-pruned reads).
- ``pipelines``  — composed ``ray.data.Dataset`` pipelines: the encode →
                   manifest → verify flagship, the relational operator surface,
                   and the large-scale text/dedup/similarity pipelines.
- ``state``      — manifest dataset + checkpoint/resume bookkeeping.

No module in this package calls ``ray.init()``/``ray.shutdown()``; sessions are
owned by the caller (driver, tests, bench.py).
"""

__version__ = "0.1.0"


# glibc mallopt thresholds and pyarrow's jemalloc dirty-page decay applied
# by ``_tune_allocator``
MMAP_THRESHOLD = 256 << 20
TRIM_THRESHOLD = 1 << 30
JEMALLOC_DECAY_MS = 1000


def _tune_allocator() -> bool:
    """Keep large scratch buffers in the process heap across calls.

    glibc malloc services every allocation above M_MMAP_THRESHOLD (128 KiB
    by default) with a fresh ``mmap`` and returns it to the OS on ``free``.
    The vectorized codec kernels allocate multi-MB numpy scratch arrays per
    batch, so with the default thresholds every encode call re-faults its
    working set from the kernel. On a healthy host that costs ~3 µs/page;
    under memory pressure (huge-page compaction, overcommitted hypervisor)
    a fault can stall for milliseconds, and with 16+ concurrent workers the
    measured per-partition encode inflated 0.06 s → 1-8 s from this effect
    alone. Raising the mmap threshold to ``MMAP_THRESHOLD`` (256 MiB) and
    the trim threshold to ``TRIM_THRESHOLD`` (1 GiB, so the heap's top is
    not clipped back after each batch) lets glibc reuse the same
    already-faulted pages call after call. pyarrow's jemalloc pool keeps
    dirty pages for ``JEMALLOC_DECAY_MS`` (1 s): longer than the gap
    between consecutive batches on a busy worker, short enough to shed
    memory when a stage goes idle.

    Idempotent and a no-op on non-glibc platforms. Bounded: a worker
    retains at most the high watermark of its own scratch (~hundreds of MB
    with the chunked codec kernels), well below Ray's per-worker memory
    budget.
    """
    ok = 0
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
        ok = libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        ok &= libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    except Exception:
        return False
    try:
        import pyarrow as pa

        pa.jemalloc_set_decay_ms(JEMALLOC_DECAY_MS)
    except Exception:
        pass
    return bool(ok)


# Applied at import time so every Ray worker that touches the package (all
# map_batches UDFs and encode tasks import from it) gets the tuned
# allocator without per-stage plumbing.
_ALLOCATOR_TUNED = _tune_allocator()
