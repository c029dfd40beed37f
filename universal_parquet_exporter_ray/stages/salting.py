"""Partition-key assignment with salted keys for skew handling.

North rule: "explicit repartitioning and a groupby-on-repo shuffle with salted
keys handles skew from giant monorepos". A repo whose row count exceeds the
per-partition target is split into ``ceil(count / target)`` salt buckets; the
bucket of a row is a **deterministic** hash of its key columns
(``pd.util.hash_pandas_object`` — stable across processes, unlike Python's
``hash``), so retries and resume reassign identically.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import pandas as pd

from .encoder import PART_COL


def build_salt_map(key_counts: dict[str, int], target_rows: int) -> dict[str, int]:
    """partition-by value → number of salt buckets (≥1)."""
    return {k: max(1, math.ceil(c / target_rows)) for k, c in key_counts.items()}


def build_partition_plan(
    key_counts: dict[str, int], target_rows: int
) -> tuple[dict[str, int], dict[str, str]]:
    """(salt_map for hot keys, merge_map for small keys).

    Hot keys (count > target) split into ``ceil(count/target)`` salt buckets;
    small keys (count < target/2) are deterministically first-fit bin-packed
    into shared ``sm<j>`` buckets so 10⁶ one-file repos don't become 10⁶
    one-file partitions (per-partition overhead would dominate). Keys keep
    whole-repo locality: a merged repo lands entirely in one bucket. Keys
    are read in sorted order, so the plan does not depend on the order the
    counts arrive in."""
    key_counts = dict(sorted(key_counts.items()))
    salt_map = {
        k: math.ceil(c / target_rows)
        for k, c in key_counts.items()
        if c > target_rows
    }
    merge_map: dict[str, str] = {}
    small = sorted(
        ((c, k) for k, c in key_counts.items() if c < target_rows / 2 and k not in salt_map),
        key=lambda t: (-t[0], t[1]),
    )
    # next-fit decreasing: O(n), deterministic, bins fill to ~target
    bin_j, bin_fill = 0, 0
    for c, k in small:
        if bin_fill + c > target_rows and bin_fill > 0:
            bin_j += 1
            bin_fill = 0
        merge_map[k] = f"sm{bin_j}"
        bin_fill += c
    return salt_map, merge_map


def _stable_hash(df: pd.DataFrame, cols: list[str]) -> np.ndarray:
    h = np.zeros(len(df), dtype=np.uint64)
    for c in cols:
        h = h * np.uint64(1099511628211) + pd.util.hash_pandas_object(
            df[c], index=False
        ).to_numpy(dtype=np.uint64)
    return h


class AssignPartitions:
    """``map_batches`` stage adding the ``_part`` string column.

    - ``partition_by`` set: ``_part = f"{key}#{bucket}"`` with per-key salt
      from ``salt_map`` (hot keys get more buckets).
    - ``partition_by`` None: uniform hash of ``hash_cols`` into
      ``num_partitions`` buckets (``p00042`` style ids).
    """

    def __init__(
        self,
        partition_by: Optional[str],
        hash_cols: list[str],
        salt_map: Optional[dict[str, int]] = None,
        num_partitions: int = 16,
        merge_map: Optional[dict[str, str]] = None,
    ):
        self.partition_by = partition_by
        self.hash_cols = hash_cols
        self.salt_map = salt_map or {}
        self.merge_map = merge_map or {}
        self.num_partitions = num_partitions

    def __call__(self, batch):
        """Arrow in / Arrow out: only the key columns round-trip through
        pandas (for the stable hash); payload columns are appended to
        zero-copy."""
        import pyarrow as pa

        key_df = pd.DataFrame(
            {
                c: batch[c].to_pandas()
                for c in {*(self.hash_cols), *( [self.partition_by] if self.partition_by else [] )}
            }
        )
        if self.partition_by is not None:
            keys = key_df[self.partition_by].astype(str)
            merged = keys.map(self.merge_map)  # NaN where not merged
            salts = keys.map(lambda k: self.salt_map.get(k, 1)).to_numpy(dtype=np.uint64)
            buckets = np.zeros(len(keys), dtype=np.uint64)
            multi = salts > 1
            if multi.any():
                h = _stable_hash(key_df, self.hash_cols)
                buckets = np.where(multi, h % np.maximum(salts, 1), 0)
            part = keys + "#" + pd.Series(buckets, index=keys.index).astype(str)
            part = part.where(merged.isna(), merged)
        else:
            h = _stable_hash(key_df, self.hash_cols)
            b = (h % np.uint64(self.num_partitions)).astype(np.int64)
            part = pd.Series(b).map(lambda i: f"p{i:05d}")
        return batch.append_column(
            PART_COL, pa.array(part.to_numpy(dtype=object), type=pa.string())
        )
