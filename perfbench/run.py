"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload as a closed loop with one client (the next op starts when
the previous one has finished) under ``ray.init(address="local",
num_cpus=<nproc>)``, checks every op's output, and prints a readable report
followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics (see README.md).
Before every op the reference kernel (``reference.py``) runs for about an
eighth of the previous op's time; the gated speed figure is the op time in
units of that kernel's time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE_FILES = (
    "universal_parquet_exporter_ray/__init__.py",
    "__ray_entry__.py",
    "tools/check_oracle.py",
)
CODECS = (
    "fsst", "fsst_zstd", "fsst2", "dict", "zstd", "zstd2", "zstd3", "alp",
    "forpack", "bitpack", "delta", "rle", "constant", "bshuf_zstd", "plain",
)
SOURCE_COLUMNS = ("repo", "path", "commit", "lang", "content")
LINEITEM_COLUMNS = (
    "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_quantity",
    "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus",
    "l_shipdate",
)

END_TO_END = {
    "op_per_ref": "1",
    "ratio": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# share of the previous op's time spent on the reference kernel before the next
REF_SHARE = 0.12


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from perfbench.tracing import LAYERS
    from perfbench.workloads import CURATION, ENCODER_PHASES, PHASES, RELATIONAL

    u: dict[str, str] = {}
    u.update({f"encode.{p}_s": "s" for p in PHASES})
    u.update({"encode.partitions": "count", "encode.max_part_rows_over_mean": "1"})
    u.update({"exchange.spill_mb": "MB", "exchange.spill_busy_s": "s"})
    u.update({f"encoder.{p}_s": "s" for p in ENCODER_PHASES})
    u.update({"encoder.utime_s": "s", "encoder.stime_s": "s", "encoder.minflt": "count"})
    u.update({f"codecs.{c}.encode_s": "s" for c in CODECS})
    u.update({f"codecs.{c}.decode_s": "s" for c in CODECS})
    u.update({f"column.{c}.ratio": "1" for c in SOURCE_COLUMNS + LINEITEM_COLUMNS})
    u.update(
        {
            "selector.trials_per_partition_column": "1",
            "selector.select_codec.self_s": "s",
            "stats.column_stats.self_s": "s",
        }
    )
    u.update({f"decode.{p}_s": "s" for p in ("full", "project", "prune", "manifest_read")})
    u["decode.prune_kept_frac"] = "1"
    u.update({f"q.{q}_s": "s" for q in RELATIONAL + CURATION})
    u.update({"family.relational_s": "s", "family.curation_s": "s"})
    u.update({f"q.{q}.top_op_s": "s" for q in RELATIONAL + CURATION})
    u.update({f"self.{layer}_s": "s" for layer in LAYERS + ("other",)})
    u.update({"trace.overhead_s": "s", "trace.spans_per_op": "count"})
    return u


class Measurement:
    """Outcome of one closed-loop session."""

    def __init__(self, arrow_reference: bool = True):
        from perfbench.reference import Reference

        self.setup_s = 0.0
        self.op_s: list[float] = []
        self.untraced_op_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_mb = 0.0
        self.ref = Reference(arrow_reference)


def ops_loop(wl, run_op, seconds: float, m: Measurement) -> list[float]:
    """Closed loop for ``seconds`` (at least ``wl.min_ops`` ops). Every op
    is isolated: an exception or a failed check is recorded and counted,
    and the loop goes on. Returns the times of the ops that passed."""
    wl.layers.clear()  # figures of the warm-up and of an earlier loop
    wl.bytes_per_op.clear()
    times: list[float] = []
    dt = 0.0
    wl.between = lambda s: m.ref.sample(REF_SHARE * s)
    deadline = time.perf_counter() + seconds
    # slow ops still end the loop in time: a whole run stays under 180 s
    hard_stop = time.perf_counter() + seconds + 40
    i = 0
    while (i < wl.min_ops or time.perf_counter() < deadline) and time.perf_counter() < hard_stop:
        m.ref.sample(REF_SHARE * dt)
        m.attempted += 1
        t = time.perf_counter()
        try:
            out = run_op(i)
            dt = wl.op_time(out, time.perf_counter() - t)
            err = wl.check(out)
        except Exception as e:  # a failing op is a result, not a crash
            err = f"{type(e).__name__}: {e}"
        if err:
            m.failed += 1
            m.errors.append(f"op {i}: {err}"[:500])
        else:
            times.append(dt)
        i += 1
    wl.between = None
    return times


def measure(wl, seconds: float, traced=None) -> Measurement:
    """One Ray session: setup (timed), the ops loop, then the slow final
    checks. With ``traced`` (a ``TracedRun``) the loop runs twice, untraced
    and then traced; ``op_s`` holds the traced times and ``untraced_op_s``
    the others."""
    from perfbench.session import Session

    m = Measurement(wl.arrow_reference)
    t0 = time.perf_counter()
    hook, env = (traced.worker_hook, traced.env) if traced else (None, None)
    with Session(nproc(), worker_hook=hook, env=env) as s:
        try:
            wl.setup(s)
        except Exception as e:  # nothing to measure; report it as one failed op
            m.attempted, m.failed = 1, 1
            m.errors.append(f"setup: {type(e).__name__}: {e}"[:500])
            return m
        m.setup_s = time.perf_counter() - t0
        if traced:
            m.untraced_op_s = ops_loop(wl, wl.op, seconds, m)
            m.op_s = ops_loop(wl, traced.start(wl), seconds, m)
            traced.stop()
        else:
            m.op_s = ops_loop(wl, wl.op, seconds, m)
        try:
            err = wl.finish()
        except Exception as e:
            err = f"{type(e).__name__}: {e}"
        if err:
            m.failed += 1
            m.errors.append(f"final check: {err}"[:500])
        m.peak_rss_mb = s.rss.peak_mb
    return m


def nproc() -> int:
    """The CPU count ``nproc`` prints (it honours ``OMP_NUM_THREADS``)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True, timeout=10)
        return max(1, int(out.stdout.strip()))
    except (OSError, subprocess.SubprocessError, ValueError):
        return len(os.sched_getaffinity(0))


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest of p90/p99 with at least ten samples beyond it."""
    best = None
    for p in (90, 99):
        if len(values) * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(values, n=100)[p - 1])
    return best


def end_to_end(wl, m: Measurement) -> dict[str, float]:
    ref_s = median(m.ref.samples)
    return {
        "op_per_ref": wl.typical_op_s(m.op_s) / ref_s if ref_s else 0.0,
        "ratio": wl.ratio,
        "setup_s": m.setup_s,
        "peak_rss_mb": m.peak_rss_mb,
    }


def report(wl, m: Measurement, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(f"workload {wl.name}  seed {wl.seed}  cpus {nproc()}")
    for path, digest in sorted(wl.inputs.items()):
        print(f"  input {path}  sha256 {digest}")
    print(f"  ops {m.attempted} attempted, {m.failed} failed")
    print(f"  {'fail_frac':44s} {m.failed / max(1, m.attempted):14.6f} 1")
    print("  op_s samples " + " ".join(f"{v:.3f}" for v in m.op_s))
    rates = [b / 1e6 / t for b, t in zip(wl.bytes_per_op, m.op_s)]
    print(f"  {'op_s':44s} {wl.typical_op_s(m.op_s):14.6f} s (wall time, not gated)")
    t = tail(m.op_s)
    if t:
        print(f"  op_s p{t[0]} {t[1]:.4f} s over {len(m.op_s)} ops")
    print(f"  {'throughput_MBps':44s} {median(rates):14.6f} MB/s (not gated)")
    print(f"  {'reference kernel':44s} {median(m.ref.samples):14.6f} s "
          f"(median of {len(m.ref.samples)})")
    for e in m.errors:
        print(f"  ERROR {e}")
    for name, value in metrics.items():
        if value:
            print(f"  {name:44s} {value:14.6f} {units[name]}")


def run(name: str, seed: int, seconds: float, trace: bool, scale=None) -> dict:
    from perfbench.workloads import FULL, WORKLOADS

    wl = WORKLOADS[name](seed, scale or FULL)
    wl.prepare()
    if not trace:
        m = measure(wl, seconds)
        metrics, units = end_to_end(wl, m), END_TO_END
    else:
        from perfbench.traced import TracedRun

        tr = TracedRun(wl, os.path.join(HERE, f".trace-{os.getpid()}"))
        m = measure(wl, seconds, traced=tr)
        units = per_layer_units()
        found = tr.metrics(median(m.op_s) - median(m.untraced_op_s))
        metrics = {k: float(found.get(k, 0.0)) for k in units}
    report(wl, m, metrics, units)
    return {
        "correct": m.failed == 0 and m.attempted > 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [f for f in PACKAGE_FILES if not os.path.exists(os.path.join(ROOT, f))]
    if missing:
        print(f"perfbench: not a checkout of the package (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
