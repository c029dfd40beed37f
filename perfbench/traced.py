"""The traced half of a ``--trace 1`` run and its per-layer figures.

A traced run measures the workload twice in one Ray session: first
untraced, then with spans on. Ray's ``worker_process_setup_hook`` installs
the worker wrappers when each worker starts, but they record nothing until
the gate file exists; the Ray driver wrappers go on with it. Per-layer figures
come from the traced half; the difference of the two halves' median op
times is the tracing overhead. Only spans inside the timed ops count:
warm-up and correctness checks are outside them.
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import time

from .tracing import ENV_DIR, GATE, WORKER_HOOK, Patcher, Traced, Tracer, install_driver
from .tracing import layer_of, load_spans, self_times

_STATS_OP = re.compile(r"^\s*(?:Operator|Suboperator) \d+ (.+?): \d+ tasks? executed")
_STATS_WALL = re.compile(r"Remote wall time: .*?([\d.]+)(us|ms|s) total")
_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def busiest_operator_s(stats_text: str) -> float:
    """Largest summed task wall time of any operator in ``Dataset.stats()``."""
    best, in_op = 0.0, False
    for line in stats_text.splitlines():
        if _STATS_OP.match(line):
            in_op = True
            continue
        m = _STATS_WALL.search(line)
        if in_op and m:
            best = max(best, float(m.group(1)) * _UNIT_S[m.group(2)])
            in_op = False
    return best


class TracedRun:
    worker_hook = WORKER_HOOK

    def __init__(self, wl, trace_dir: str):
        self.wl = wl
        self.trace_dir = trace_dir
        self.env = {ENV_DIR: trace_dir}
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        self.tracer = Tracer()
        self.patcher = Patcher(self.tracer)
        self.top_op: dict[str, list[float]] = {}
        self.ops = 0
        self.t_start = self.t_stop = 0  # monotonic ns bounds of the traced half

    def _stats(self, name: str, result) -> None:
        if hasattr(result, "stats"):
            self.top_op.setdefault(name, []).append(busiest_operator_s(result.stats()))

    def start(self, wl):
        """Install the Ray driver wrappers; returns the traced op callable."""
        install_driver(self.patcher)
        if hasattr(wl, "queries"):
            self._queries, self._to_pandas = wl.queries, wl.to_pandas
            wl.queries = {
                n: Traced(self.tracer, f, f"{f.__module__.split('.', 1)[1]}.{n}")
                for n, f in wl.queries.items()
            }
            wl.to_pandas = lambda res: self.tracer.call("bench.collect", self._to_pandas, (res,), {})
            wl.stats_hook = self._stats
        open(os.path.join(self.trace_dir, GATE), "w").close()
        self.t_start = time.monotonic_ns()

        def op(i):
            self.ops += 1
            return self.tracer.call("bench.op", wl.op, (i,), {})

        return op

    def stop(self) -> None:
        self.t_stop = time.monotonic_ns()
        os.remove(os.path.join(self.trace_dir, GATE))
        self.patcher.undo()
        if hasattr(self.wl, "queries"):
            self.wl.queries, self.wl.to_pandas = self._queries, self._to_pandas
            self.wl.stats_hook = None

    def metrics(self, overhead_s: float) -> dict[str, float]:
        wl = self.wl
        out: dict[str, float] = {}
        for key in {k for lay in wl.layers for k in lay}:
            out[key] = statistics.median(lay.get(key, 0.0) for lay in wl.layers)
        out.update(wl.final_layers)
        for q, vals in self.top_op.items():
            out[f"q.{q}.top_op_s"] = statistics.median(vals)

        driver_pid = os.getpid()
        spans = [
            s for s in load_spans(self.trace_dir, self.tracer.spans)
            if s["pid"] == driver_pid or self.t_start <= s["t0"] <= self.t_stop
        ]
        own, parent = self_times(spans, driver_pid)
        by_id = {s["id"]: s for s in spans}
        in_op: dict[str, bool] = {}

        def inside(sid):
            if sid not in in_op:
                s = by_id[sid]
                p = parent.get(sid)
                in_op[sid] = s["name"] == "bench.op" or (p is not None and inside(p))
            return in_op[sid]

        n = max(1, self.ops)
        trials = encodes = 0
        for s in spans:
            if not inside(s["id"]):
                continue
            name, dur = s["name"], (s["t1"] - s["t0"]) / 1e9
            key = f"self.{layer_of(name)}_s"
            out[key] = out.get(key, 0.0) + own[s["id"]] / n
            if name in ("selector.select_codec", "stats.column_stats"):
                out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own[s["id"]] / n
            elif name == "selector.candidate_codecs":
                trials += s.get("n", 0)
            elif name.startswith("codecs.encode."):
                encodes += 1
            elif name.startswith("codecs.decode."):
                key = f"codecs.{name.rsplit('.', 1)[1]}.decode_s"
                out[key] = out.get(key, 0.0) + dur / n
            elif name == "state.manifest.read_manifest" and wl.reads_back:
                out["decode.manifest_read_s"] = out.get("decode.manifest_read_s", 0.0) + dur / n
        out["selector.trials_per_partition_column"] = trials / encodes if encodes else 0.0
        out["trace.overhead_s"] = overhead_s
        out["trace.spans_per_op"] = sum(1 for s in spans if inside(s["id"])) / n
        shutil.rmtree(self.trace_dir, ignore_errors=True)
        return out
