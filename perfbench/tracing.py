"""Spans around the package's layer boundaries, for the traced run only.

A span records its name, layer, start, end, process and parent. Spans are
kept in memory; the Ray driver writes its own at the end of the run, and each
Ray worker appends its spans to ``<trace dir>/spans-<pid>.jsonl`` whenever
its outermost open span ends (a worker may be killed when the session
stops, so it cannot wait for the end).

Patching follows the caller's lookup: a wrapper replaces the function in
its defining module *and* under every name another package module imported
it as (``stages/encoder.py`` calls ``encode_column`` and ``select_codec``
through its own globals, so those are the names patched in workers).
Wrappers pickle as a by-name reference to the function, so a closure that
Ray ships to a worker carries no tracer state.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

PKG = "universal_parquet_exporter_ray"
ENV_DIR = "PERFBENCH_TRACE_DIR"
GATE = "ENABLED"  # worker spans are recorded while this file is in the trace dir
WORKER_HOOK = "perfbench.tracing.worker_hook"

# layers whose public functions are wrapped on the Ray driver (every
# module-level function each defines)
DRIVER_MODULES = (
    "pipelines.encode", "pipelines.verify", "sources.tables", "state.manifest",
    "stages", "stages.agg", "stages.joins", "stages.rank", "stages.dedup",
    "stages.text", "stages.salting",
)
# functions and methods called inside Ray workers during encode and decode:
# (module, attribute, span name); a name ending in "." gets the codec appended
WORKER_TARGETS = (
    ("stages.exchange", "SpillPartitions.__call__", "stages.exchange.spill"),
    ("stages.exchange", "read_ipc_range", "stages.exchange.read_ipc_range"),
    ("stages.exchange", "exchange_encode_task", "stages.exchange.exchange_encode_task"),
    ("stages.encoder", "PartitionEncoder.encode_partition", "stages.encoder.encode_partition"),
    ("stages.encoder", "PartitionDecoder.__call__", "stages.encoder.decode_partition"),
    ("stages.encoder", "column_zonemaps", "stages.encoder.column_zonemaps"),
    ("selector", "select_codec", "selector.select_codec"),
    ("selector", "candidate_codecs", "selector.candidate_codecs"),
    ("stats", "column_stats", "stats.column_stats"),
    ("codecs.base", "encode_column", "codecs.encode."),
    ("codecs.base", "decode_column", "codecs.decode."),
    ("state.manifest", "write_atomic_parquet", "state.manifest.write_atomic_parquet"),
)

LAYERS = (
    "pipelines.encode", "stages.exchange", "stages.encoder", "selector", "stats",
    "codecs", "state.manifest", "pipelines.verify", "sources.tables",
    "stages.agg", "stages.joins", "stages.rank", "stages.dedup", "stages.text",
    "pipelines.relational", "pipelines.textops", "bench",
)


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: the longest ``LAYERS`` prefix of its name."""
    matches = [layer for layer in LAYERS if span_name.startswith(layer + ".")]
    return max(matches, key=len) if matches else "other"


class Tracer:
    """Records spans of the calls made through ``call``, nested per thread."""

    def __init__(self, sink: str | None = None, gate: str | None = None):
        self.sink = sink  # worker: append file; driver: None (kept in memory)
        self.gate = gate  # worker: record only while this file exists
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        if not stack and self.gate and not os.path.exists(self.gate):
            return fn(*args, **kwargs)
        with self._lock:
            self._next += 1
            sid = f"{os.getpid()}:{self._next}"
        rec = {"id": sid, "parent": stack[-1] if stack else None, "name": name,
               "pid": os.getpid(), "t0": time.monotonic_ns()}
        stack.append(sid)
        try:
            result = fn(*args, **kwargs)
            if name == "selector.candidate_codecs":  # codecs select_codec will trial
                rec["n"] = len(result)
            return result
        finally:
            stack.pop()
            rec["t1"] = time.monotonic_ns()
            with self._lock:
                self.spans.append(rec)
            if self.sink and not stack:
                self.flush()

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if spans and self.sink:
            with open(self.sink, "a") as f:
                f.write("".join(json.dumps(s) + "\n" for s in spans))


def _resolve(module: str, qualname: str):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


class Traced:
    """Callable wrapper for a module-level function."""

    def __init__(self, tracer: Tracer, fn, name: str):
        functools.update_wrapper(self, fn)
        self._tracer, self._fn, self._name = tracer, fn, name

    def __call__(self, *args, **kwargs):
        name = self._name
        if name.endswith("."):  # encode_column(arr, codec_name) / decode_column(row)
            if args and isinstance(args[0], dict):
                codec = args[0].get("codec")
            else:
                codec = args[1] if len(args) > 1 else kwargs.get("codec_name")
            name = f"{name}{codec}"
        return self._tracer.call(name, self._fn, args, kwargs)

    def __reduce__(self):
        return _resolve, (self._fn.__module__, self._fn.__qualname__)


def _method_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


class Patcher:
    """Installs wrappers and can undo them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self._originals: dict[int, Traced] = {}

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, name: str) -> None:
        mod = importlib.import_module(f"{PKG}.{module}" if module else PKG)
        owner_path, _, leaf = attr.rpartition(".")
        owner = _resolve(mod.__name__, owner_path) if owner_path else mod
        fn = getattr(owner, leaf)
        if owner_path:  # a method: classes pickle by reference, so a plain wrapper is safe
            self._set(owner, leaf, _method_wrapper(self.tracer, fn, name))
            return
        wrapped = Traced(self.tracer, fn, name)
        self._originals[id(fn)] = wrapped
        self._set(mod, leaf, wrapped)

    def module(self, module: str) -> None:
        mod = importlib.import_module(f"{PKG}.{module}")
        for attr, fn in list(vars(mod).items()):
            if (
                inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and "<locals>" not in fn.__qualname__
                and not inspect.isgeneratorfunction(fn)
                and id(fn) not in self._originals
            ):
                self.function(module, attr, f"{module}.{attr}")

    def rebind_imports(self) -> None:
        """Replace every ``from x import f`` copy held by a package module."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PKG or name.startswith(PKG + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapped = self._originals.get(id(val))
                if wrapped is not None and val is wrapped._fn:
                    self._set(mod, attr, wrapped)

    def undo(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
        self._originals.clear()


def install_workers(patcher: Patcher) -> None:
    for module, attr, name in WORKER_TARGETS:
        patcher.function(module, attr, name)
    patcher.rebind_imports()


def install_driver(patcher: Patcher) -> None:
    for module in DRIVER_MODULES:
        patcher.module(module)
    patcher.rebind_imports()


_WORKER_TRACER: Tracer | None = None


def worker_hook() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker process."""
    global _WORKER_TRACER
    trace_dir = os.environ.get(ENV_DIR)
    if not trace_dir or _WORKER_TRACER is not None:
        return
    _WORKER_TRACER = Tracer(
        os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl"), os.path.join(trace_dir, GATE)
    )
    install_workers(Patcher(_WORKER_TRACER))


def load_spans(trace_dir: str, driver_spans: list[dict]) -> list[dict]:
    spans = list(driver_spans)
    for f in sorted(os.listdir(trace_dir)):
        if f.startswith("spans-") and f.endswith(".jsonl"):
            with open(os.path.join(trace_dir, f)) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def self_times(spans: list[dict], driver_pid: int) -> tuple[dict[str, float], dict[str, str]]:
    """Seconds of each span not covered by its children, and each span's
    parent. A worker span with no parent in its own process is a child of
    the innermost driver span open when it started."""
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list[dict]] = {}
    parents: dict[str, str] = {}
    driver = sorted(
        (s for s in spans if s["pid"] == driver_pid), key=lambda s: (s["t0"], -s["t1"])
    )
    for s in spans:
        parent = s["parent"] if s["parent"] in by_id else None
        if parent is None and s["pid"] != driver_pid:
            inner = None
            for d in driver:
                if d["t0"] > s["t0"]:
                    break
                if d["t1"] >= s["t0"]:
                    inner = d
            parent = inner["id"] if inner else None
        if parent is not None:
            children.setdefault(parent, []).append(s)
            parents[s["id"]] = parent
    out: dict[str, float] = {}
    for s in spans:
        covered, end = 0, s["t0"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["t0"]):
            lo, hi = max(c["t0"], end), min(c["t1"], s["t1"])
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s["id"]] = max(0, s["t1"] - s["t0"] - covered) / 1e9
    return out, parents
