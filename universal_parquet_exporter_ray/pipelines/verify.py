"""Round-trip verification: decode every encoded partition and prove it
bit-identical to the source (north rule / input_hint: per-row ``sha256``
equality on the content column + per-column multiset fingerprints).

Both sides stream: the decoded side is a few decode tasks over
size-balanced groups of partition files (partition atomicity is a property
of the ``parts/<pid>/data.parquet`` layout, so no shuffle is needed to
regroup blob rows),
the source side re-runs the SAME deterministic partition assignment recorded
in the manifest lineage. Each side reduces to one tiny fingerprint row per
(partition, column): multiset SUM (mod 2^64) of per-row hashes — order-
insensitive, so no sort is needed — and only those tiny tables reach the
driver. The content column's per-row hash is a real ``sha256`` (uint64
prefix); other columns use the deterministic ``pd.util.hash_pandas_object``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

import numpy as np
import pandas as pd

import ray.data

from ..context import block_count
from ..stages.encoder import PART_COL, PartitionDecoder
from ..state.manifest import read_manifest, sanitize_partition_id
from .encode import make_assigner

MASK64 = (1 << 64) - 1


def _row_sha64(values: pd.Series) -> np.ndarray:
    out = np.empty(len(values), dtype=np.uint64)
    for i, v in enumerate(values):
        if v is None or (isinstance(v, float) and np.isnan(v)):
            out[i] = np.uint64(0x6E756C6C)  # b"null"
        else:
            b = v.encode("utf-8") if isinstance(v, str) else bytes(v)
            out[i] = np.frombuffer(hashlib.sha256(b).digest()[:8], dtype=np.uint64)[0]
    return out


def _seq_sha64(values: pd.Series) -> np.ndarray:
    """Row hashes for list/vector columns (cells are ndarrays or lists,
    which pd.util.hash_pandas_object cannot hash): sha256 of the cell's
    raw value bytes. Both the source batch (parquet → pandas) and the
    decoded batch materialize list<T> cells as numpy arrays of the same
    dtype, so the byte view is a stable contract across the two sides."""
    out = np.empty(len(values), dtype=np.uint64)
    for i, v in enumerate(values):
        if v is None or (isinstance(v, float) and np.isnan(v)):
            out[i] = np.uint64(0x6E756C6C)  # b"null"
        else:
            b = np.asarray(v).tobytes()
            out[i] = np.frombuffer(hashlib.sha256(b).digest()[:8], dtype=np.uint64)[0]
    return out


def _is_seq_column(s: pd.Series) -> bool:
    if s.dtype != object:
        return False
    for v in s:
        if v is None or (isinstance(v, float) and np.isnan(v)):
            continue
        return isinstance(v, (np.ndarray, list, tuple))
    return False


class FingerprintStage:
    """map_batches stage → partial fingerprint rows per (partition, column)."""

    def __init__(self, content_col: Optional[str], sanitize_ids: bool):
        self.content_col = content_col
        self.sanitize_ids = sanitize_ids

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        pids = df[PART_COL].astype(str)
        if self.sanitize_ids:
            pids = pids.map(sanitize_partition_id)
        cols = [c for c in df.columns if c != PART_COL]
        hashes: dict[str, np.ndarray] = {}
        for c in cols:
            if c == self.content_col:
                hashes[c] = _row_sha64(df[c])
            elif _is_seq_column(df[c]):
                hashes[c] = _seq_sha64(df[c])
            else:
                hashes[c] = pd.util.hash_pandas_object(df[c], index=False).to_numpy(
                    dtype=np.uint64
                )
        grouped = pd.DataFrame({"pid": pids}).groupby("pid").indices
        out: dict[str, list] = {"pid": [], "n": []}
        for c in cols:
            out[f"fp_{c}"] = []
        for pid, idx in grouped.items():
            out["pid"].append(pid)
            out["n"].append(len(idx))
            for c in cols:
                out[f"fp_{c}"].append(hashes[c][idx].sum(dtype=np.uint64))
        # explicit uint64 dtype: a plain int column would silently degrade to
        # float64 through the Arrow boundary and corrupt low bits
        df_out = pd.DataFrame({"pid": out["pid"], "n": np.array(out["n"], dtype=np.int64)})
        for c in cols:
            df_out[f"fp_{c}"] = np.array(out[f"fp_{c}"], dtype=np.uint64)
        return df_out


def _reduce_fingerprints(partials: pd.DataFrame) -> pd.DataFrame:
    fp_cols = [c for c in partials.columns if c.startswith("fp_")]
    agg: dict[str, dict] = {}
    for _, r in partials.iterrows():
        a = agg.setdefault(r["pid"], {"n": 0, **{c: 0 for c in fp_cols}})
        a["n"] += int(r["n"])
        for c in fp_cols:
            a[c] = (a[c] + int(r[c])) & MASK64
    out = pd.DataFrame(
        [{"pid": pid, **vals} for pid, vals in agg.items()]
    ).sort_values("pid").reset_index(drop=True)
    return out


def dataset_fingerprints(
    ds: "ray.data.Dataset", content_col: Optional[str], sanitize_ids: bool
) -> pd.DataFrame:
    partials = ds.map_batches(
        FingerprintStage(content_col, sanitize_ids), batch_format="pandas"
    ).to_pandas()
    return _reduce_fingerprints(partials)


def zonemap_keep_pids(
    out_dir: str, column: str, op: str, value
) -> tuple[set, int]:
    """Partition pruning from the manifest's zone maps: return the set of
    partition ids that COULD contain rows matching ``column <op> value``
    (plus the total partition count, for observability/tests).

    Sound, never complete: a partition without a zone map for the column
    (unsupported type, all-null, pre-zonemap output) is always kept; the
    caller still applies the exact predicate after decode. NaN floats were
    excluded from the recorded bounds — under IEEE semantics NaN never
    satisfies a range predicate, so skipping a partition whose only
    "matching" rows would be NaN is correct."""
    man = read_manifest(out_dir)
    pids = man["partition_id"].to_pylist()
    total = len(pids)
    if "zonemaps" not in man.column_names:
        return set(pids), total
    keep: set = set()
    for pid, zj in zip(pids, man["zonemaps"].to_pylist()):
        zm = json.loads(zj).get(column) if zj else None
        if zm is None:
            keep.add(pid)
            continue
        lo, hi = zm["min"], zm["max"]
        if zm.get("kind") == "temporal":
            ts = pd.Timestamp(value)
            tz = zm.get("tz")
            if tz is not None and ts.tzinfo is None:
                # bounds were recorded as UTC ns of a tz-aware column; a
                # naive probe means "in the column's own timezone" —
                # localize so the comparison is offset-consistent (ADVICE r3)
                ts = ts.tz_localize(tz)
            v = int(ts.value)
        else:
            v = value
        max_open = bool(zm.get("max_open"))
        if op in (">", "gt"):
            ok = max_open or hi > v
        elif op in (">=", "ge"):
            ok = max_open or hi >= v
        elif op in ("<", "lt"):
            ok = lo < v
        elif op in ("<=", "le"):
            ok = lo <= v
        elif op in ("==", "eq"):
            ok = lo <= v and (max_open or v <= hi)
        else:
            raise ValueError(f"zonemap_keep_pids: unknown op {op!r}")
        if ok:
            keep.add(pid)
    return keep, total


class _EmptyDecodedDataset(ray.data.Dataset):
    """A zero-row decode whose ``to_pandas()`` keeps its typed columns.

    Ray 2.49 builds ``to_pandas`` from the non-empty batches only, so every
    stock empty Dataset (``from_arrow`` of a typed empty table included)
    converts to a frame with no columns. Its Arrow blocks do keep the
    schema, so convert those instead."""

    def to_pandas(self, limit: Optional[int] = None) -> pd.DataFrame:
        import pyarrow as pa

        return pa.concat_tables(ray.get(self.to_arrow_refs())).to_pandas()


def _decoded_schema(files: list[str], cols: list[str]) -> "pa.Schema":
    """Schema of decoded rows holding ``cols`` (in that order) and
    ``_part``: each column's type from the first partition file with it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..codecs.base import type_from_bytes

    want = set(cols)
    types: dict = {}
    for path in files:
        t = pq.read_table(path, columns=["column", "type_ipc"])
        for c, tb in zip(t["column"].to_pylist(), t["type_ipc"].to_pylist()):
            if c in want and c not in types:
                types[c] = type_from_bytes(tb)
        if len(types) == len(want):
            break
    return pa.schema(
        [pa.field(c, types[c]) for c in cols] + [pa.field(PART_COL, pa.string())]
    )


def decoded_dataset(
    out_dir: str,
    columns: Optional[list[str]] = None,
    zone_filter: Optional[tuple] = None,
) -> "ray.data.Dataset":
    """Stream-decode the encoded output back into row form.

    The encoded layout is one ``parts/<pid>/data.parquet`` file per
    partition, so partition atomicity is a FILE property — no shuffle is
    needed to regroup blob rows. The files are LPT-packed by size into
    ``min(files, block_count(total_bytes))`` blocks (``context.block_count``,
    the rule every package read uses; one decode task each, heaviest
    first): one task per file paid a fixed per-task cost that was most of
    a small output's read (23 tasks for 3.4 MB). Every decoded row keeps
    its partition id in ``_part``.

    ``columns``: decode only these columns. The encoded layout stores one
    blob row per column, so the other columns' payloads are read from disk
    but never decoded: projection skips the decode, not the read (the
    partition file is read whole, then filtered to the wanted blob rows).
    A partition that lacks a projected column (heterogeneous sources)
    gives that column as typed nulls, one per row, as the full read does.

    ``zone_filter``: ``(column, op, value)`` with op in >,>=,<,<=,== — prune
    whole partitions via the manifest zone maps BEFORE any payload read (at
    100 TB this is the difference between scanning every partition and
    reading only the key range's). Pruning is sound-not-complete: the caller
    must still apply the exact predicate to the decoded rows. A filter that
    prunes every partition gives a zero-row dataset with the typed columns
    of the read (the projection's, or all of them)."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..state.manifest import parts_path
    from .encode import lpt_bins

    files = sorted(glob.glob(os.path.join(parts_path(out_dir), "*", "data.parquet")))
    if not files:
        raise ValueError(
            f"decoded_dataset: no encoded partitions under {out_dir!r} "
            "(missing, incomplete, or corrupt output directory)"
        )
    kept = files
    if zone_filter is not None:
        zcol, zop, zval = zone_filter
        keep, _total = zonemap_keep_pids(out_dir, zcol, zop, zval)
        kept = [f for f in files if os.path.basename(os.path.dirname(f)) in keep]
    wanted = sorted(set(columns)) if columns is not None else None
    empty_schema = None
    if wanted is not None or not kept:
        # the manifest's codec maps list every column of every partition
        all_cols: dict = {}
        for cj in read_manifest(out_dir)["codecs"].to_pylist():
            all_cols.update(json.loads(cj))
        if wanted is not None:
            # validate the projection ONCE up front — a clear driver-side
            # error instead of a per-batch failure deep inside a Ray task
            missing = set(wanted) - set(all_cols)
            if missing:
                raise ValueError(
                    f"decoded_dataset: columns {sorted(missing)} not present "
                    f"in the encoded output (available: {sorted(all_cols)})"
                )
        # typed from ALL files: a fully pruned read keeps its schema too
        empty_schema = _decoded_schema(
            files, list(all_cols) if wanted is None else wanted
        )
    if not kept:
        empty = ray.data.from_arrow(empty_schema.empty_table())
        return ray.data.Dataset.copy(empty, _as=_EmptyDecodedDataset)

    def decode_files(batch: "pa.Table") -> "pa.Table":
        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        decoder = PartitionDecoder()
        keep = pa.array(wanted, pa.string()) if wanted is not None else None
        outs = []
        for paths in batch["paths"].to_pylist():
            for path in paths:
                t = pq.read_table(path)
                if keep is None:
                    outs.append(decoder(t))
                    continue
                n, pid = t["n_rows"][0].as_py(), t["partition_id"][0].as_py()
                t = t.filter(pc.is_in(t["column"], value_set=keep))
                got = decoder(t) if t.num_rows else pa.table({})
                # a projected column this partition lacks: typed nulls
                cols = {
                    c: got[c] if c in got.column_names else pa.nulls(n, f.type)
                    for c, f in zip(empty_schema.names, empty_schema)
                    if c != PART_COL
                }
                cols[PART_COL] = pa.array([pid] * n, pa.string())
                outs.append(pa.table(cols))
        return pa.concat_tables(outs, promote_options="default")

    sizes = [os.path.getsize(f) for f in kept]
    n_blocks = min(len(kept), block_count(sum(sizes)))
    items = [{"paths": [kept[i] for i in b]} for b in lpt_bins(sizes, n_blocks)]
    return ray.data.from_items(items, override_num_blocks=len(items)).map_batches(
        decode_files, batch_format="pyarrow", batch_size=None
    )


def compression_report(out_dir: str) -> pd.DataFrame:
    """Per-column compression summary over all partitions: codec win counts,
    input/encoded bytes, ratio — the manifest metrics rolled up by column."""
    import pyarrow.parquet as pq

    from ..state.manifest import parts_path

    import glob as _glob
    import os as _os

    frames = []
    for f in _glob.glob(_os.path.join(parts_path(out_dir), "*", "data.parquet")):
        frames.append(
            pq.read_table(
                f, columns=["column", "codec", "n_rows", "input_bytes", "encoded_bytes"]
            ).to_pandas()
        )
    df = pd.concat(frames, ignore_index=True)
    by_col = (
        df.groupby("column")
        .agg(
            partitions=("codec", "size"),
            codecs=("codec", lambda s: dict(s.value_counts())),
            input_bytes=("input_bytes", "sum"),
            encoded_bytes=("encoded_bytes", "sum"),
        )
        .reset_index()
    )
    by_col["ratio"] = (by_col.encoded_bytes / by_col.input_bytes.clip(lower=1)).round(4)
    return by_col.sort_values("column").reset_index(drop=True)


def verify_roundtrip(
    source, out_dir: str, content_col: Optional[str] = None
) -> pd.DataFrame:
    """Per-partition verification report: n_rows match + every column's
    fingerprint match (including the sha256-based content fingerprint)."""
    manifest = read_manifest(out_dir).to_pylist()
    lineage = json.loads(manifest[0]["lineage"])
    from ..sources.tables import read_parquet_clean

    ds = source if not isinstance(source, str) else read_parquet_clean(source)
    if content_col is None:
        content_col = _default_content_col(ds.schema().names)
    # reconstruct the identical deterministic assignment from lineage
    assign = make_assigner(
        ds,
        lineage.get("partition_by"),
        list(lineage["hash_cols"]),
        int(lineage["target_rows"]),
        lineage.get("num_partitions"),
    )
    src_fp = dataset_fingerprints(
        ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True),
        content_col,
        sanitize_ids=True,
    )
    dec_fp = dataset_fingerprints(decoded_dataset(out_dir), content_col, sanitize_ids=False)
    merged = src_fp.merge(dec_fp, on="pid", how="outer", suffixes=("_src", "_dec"))
    fp_cols = [c[: -len("_src")] for c in merged.columns if c.endswith("_src") and c != "n_src"]
    ok = merged["n_src"] == merged["n_dec"]
    for c in fp_cols:
        ok &= merged[f"{c}_src"] == merged[f"{c}_dec"]
    merged["ok"] = ok.fillna(False)
    return merged


def _default_content_col(names: list[str]) -> Optional[str]:
    for cand in ("content", "text"):
        if cand in names:
            return cand
    return None
