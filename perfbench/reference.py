"""The reference kernel: a fixed CPU job timed between the ops of a run.

The benchmark runs on a few virtual CPUs of a shared host whose speed drifts
by up to 1.5x within minutes, with the load of other tenants. Every timing
drifts with it: in one ten-minute session of back-to-back ``encode_source``
ops on one Ray cluster, the medians of 30-op blocks spread by 26 % of their
median (quartile distance), while the same medians divided by the median
time of this kernel's first three parts, run once before each op, spread by
9 %; with the benchmark pinned to one CPU (``session.py``), by 5 %. So the
gated speed figure is the op's typical wall time in units of this kernel's
median wall time, both taken in the same run (``op_per_ref``); the raw times
are printed beside it.

The kernel mixes what the ops spend their time on (byte compression, a
numeric sort, interpreted Python, and an Arrow sort and distinct of 75k
path-like strings) and uses nothing from the package, so no change to the
package can move it. Which slowdowns a workload shares with the kernel
depends on its work, so a workload chooses whether the kernel has its Arrow
part. Over one seven-minute session of ``source_roundtrip`` ops, the medians
of 8-op blocks divided by a kernel without it spread by 24 %, and divided by
the Arrow part alone by 11 %. The query passes of ``query_mix`` move with the
first three parts and not with the Arrow part: over ten seeds,
``op_per_ref`` spread by 8 % without it and by 12 % with it.
"""

from __future__ import annotations

import time
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class Reference:
    def __init__(self, arrow: bool = True):
        self.arrow = arrow
        rng = np.random.default_rng(0)  # fixed: the same job in every run
        self._bytes = rng.integers(0, 50, 300_000, dtype=np.uint8).tobytes()
        self._floats = rng.random(50_000)
        self._paths = pa.array([f"org{i % 97}/repo{i % 1013}/src/{i}.py" for i in range(75_000)])
        self.samples: list[float] = []

    def run_once(self) -> float:
        """One run of the kernel (about 50 ms on an idle CPU, 15 ms without
        its Arrow part); returns its time."""
        t = time.perf_counter()
        zlib.compress(self._bytes, 6)
        np.sort(self._floats)
        sum(i * i for i in range(30_000))
        if self.arrow:
            pc.sort_indices(self._paths)
            pc.unique(self._paths)
        dt = time.perf_counter() - t
        self.samples.append(dt)
        return dt

    def sample(self, budget_s: float) -> None:
        """Run the kernel once, then again until the runs add up to
        ``budget_s``, so that a long op is matched by as many samples."""
        spent = self.run_once()
        while spent < budget_s:
            spent += self.run_once()
