"""Smoke self-check of the benchmark at tiny size.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced on a 2k-row
``source_files`` fixture and sf0.001 tables, and fails unless each run is
correct and reports every metric name ``BENCHMARK.json`` declares, each a
finite number. Takes a few minutes on one CPU.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# one figure per workload that must be non-zero in its traced run
EXERCISED = {
    "source_roundtrip": ("encode.encode_wave_s", "decode.prune_kept_frac", "self.codecs_s"),
    "encode_source": ("encode.encode_wave_s", "column.content.ratio", "self.codecs_s"),
    "encode_lineitem": ("encode.encode_wave_s", "column.l_shipdate.ratio", "self.codecs_s"),
    "decode_scan": ("decode.full_s", "decode.prune_kept_frac", "self.codecs_s"),
    "query_mix": ("q.group_agg_s", "family.curation_s", "self.stages.dedup_s"),
}


def main() -> int:
    sys.path.insert(0, ROOT)
    from perfbench.run import run
    from perfbench.workloads import TINY, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run(name, seed=0, seconds=0.5, trace=bool(trace), scale=TINY)
            metrics = result["metrics"]
            where = f"{name} --trace {trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
            if set(metrics) != declared[trace]:
                problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ declared[trace])}")
            for k, v in metrics.items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{where}: {k} = {v['value']!r}")
            if trace:
                problems += [f"{where}: {k} is 0" for k in EXERCISED[name] if not metrics[k]["value"]]
            elif not all(metrics[k]["value"] > 0 for k in metrics):
                problems.append(f"{where}: an end-to-end metric is 0: {metrics}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
