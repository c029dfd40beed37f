"""The benchmark workloads: ``source_roundtrip`` and ``query_mix``, which
``BENCHMARK.json`` runs, and ``encode_source``, ``encode_lineitem`` and
``decode_scan``, which split the round trip's writer and reader for runs by
hand.

Each workload has the same life cycle, driven by ``run.py``:

``prepare()``  untimed, before Ray starts: seeded fixtures and the reference
               values the correctness checks compare against.
``setup()``    timed as ``setup_s`` together with ``ray.init``: warm-up ops
               (the cold first op, first worker spawn) and prerequisites the
               ops read, such as the encoded inputs of ``decode_scan``.
``op()``       one timed unit operation; returns what ``check`` needs.
``op_time()``  the op's own time, less any reference-kernel runs inside it.
``check()``    untimed correctness check of one op's output; returns an
               error text or ``None``.
``finish()``   untimed checks that are too slow to run after every op.

The benchmark reaches the package only through its public entry points:
``pipelines.encode.encode_dataset``, ``pipelines.verify`` and the
``__ray_entry__`` query registry, and reads only what they return.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import fixtures
from .session import ROOT, Session

PHASES = ("assign_plan", "spill", "encode_wave", "finalize")
ENCODER_PHASES = ("select", "encode", "write", "read")
ENCODER_RUSAGE = (("utime", "utime_s"), ("stime", "stime_s"), ("minflt", "minflt"))

RELATIONAL = (
    "group_agg", "join_multiway", "join_inner", "count_distinct",
    "window_agg", "rank_partitioned", "sessionization", "asof_join",
)
CURATION = (
    "dedup_exact", "minhash_lsh_pairs", "exact_substr_dedup", "segment_dedup",
    "dedup_clusters", "simhash64", "token_count",
)


@dataclass(frozen=True)
class Scale:
    source_rows: int = 20_000  # source_files rows (about 10 MB of Arrow)
    lineitem_sf: float = 0.02  # encode/decode lineitem: 120k rows
    query_sf: float = 0.01  # query_mix tables: 60k lineitem rows


FULL = Scale()
TINY = Scale(source_rows=2_000, lineitem_sf=0.001, query_sf=0.001)


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def fingerprint(table: pa.Table) -> dict[str, int]:
    """Order-insensitive per-column fingerprint: row count plus the sum
    (mod 2**64) of per-row hashes of every column."""
    df = table.to_pandas()
    out = {"rows": len(df)}
    for c in sorted(df.columns):
        h = pd.util.hash_pandas_object(df[c], index=False).to_numpy(dtype=np.uint64)
        out[c] = int(h.sum(dtype=np.uint64))
    return out


def collect(ds) -> pa.Table:
    """Pull a Dataset's rows to the Ray driver as one Arrow table."""
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(batches, promote_options="default") if batches else pa.table({})


class Workload:
    name = ""
    reads_back = False
    arrow_reference = True  # the reference kernel has its Arrow part (reference.py)
    uses_tables = False
    uses_source = False
    min_ops = 2  # a run measures at least this many ops, however long they take

    def __init__(self, seed: int, scale: Scale):
        self.seed = seed
        self.scale = scale
        self.inputs: dict[str, str] = {}  # fixture file -> sha256
        self.bytes_per_op: list[int] = []  # Arrow bytes of user data per op
        self.ratio = 0.0  # stored bytes per byte of user data
        self.layers: list[dict[str, float]] = []  # per-op layer figures
        self.final_layers: dict[str, float] = {}
        # set by the ops loop: runs the reference kernel for a share of the
        # given seconds; an op made of several steps calls it between them
        self.between = None

    def _pin(self, path: str) -> str:
        self.inputs[os.path.relpath(path, ROOT)] = fixtures.sha256_of(path)
        return path

    def prepare(self) -> None:
        if self.uses_source:
            self.source = self._pin(fixtures.write_source(self.scale.source_rows, self.seed))
        if self.uses_tables:
            self.tables = fixtures.write_tables(self.tables_sf, self.seed)
            for t in fixtures.TABLES:
                self._pin(os.path.join(self.tables, f"{t}.parquet"))

    @property
    def tables_sf(self) -> float:
        return self.scale.lineitem_sf

    def setup(self, session: Session) -> None:
        self.session = session

    def op(self, i: int):
        raise NotImplementedError

    def op_time(self, out, wall_s: float) -> float:
        return wall_s

    def typical_op_s(self, times: list[float]) -> float:
        """The figure that stands for the op times of a run: their median."""
        return float(np.median(times)) if times else 0.0

    def check(self, out) -> str | None:
        return None

    def finish(self) -> str | None:
        return None


class EncodeWorkload(Workload):
    """``encode_dataset`` of one Parquet input into a fresh output directory
    per op. The first (cold) op runs in setup."""

    partition_by = ""
    hash_cols: list[str] | None = None
    rows_per_partition_div = 32

    def input_path(self) -> str:
        raise NotImplementedError

    @classmethod
    def encode(cls, session: Session, path: str, out: str):
        """``encode_dataset`` of ``path`` into ``out`` with this workload's
        partitioning, keeping every byte inside the session root."""
        from universal_parquet_exporter_ray.pipelines.encode import encode_dataset

        rows = pq.ParquetFile(path).metadata.num_rows
        return encode_dataset(
            path,
            out,
            partition_by=cls.partition_by,
            hash_cols=cls.hash_cols,
            target_rows_per_partition=max(1000, rows // cls.rows_per_partition_div),
            exchange_root=session.path("exchange"),
        )

    def prepare(self) -> None:
        super().prepare()
        self.path = self.input_path()
        self.in_bytes = fixtures.arrow_bytes(self.path)
        self.in_rows = pq.ParquetFile(self.path).metadata.num_rows
        self.last_out: str | None = None

    def setup(self, session: Session) -> None:
        super().setup(session)
        err = self.check(self.op(-1))
        if err:
            raise RuntimeError(f"warm-up encode: {err}")

    def op(self, i: int):
        from universal_parquet_exporter_ray.pipelines.encode import LAST_PHASES

        out = self.session.path("out", f"op{i}")
        manifest = self.encode(self.session, self.path, out)
        return out, manifest, dict(LAST_PHASES)

    def check(self, result) -> str | None:
        out, manifest, phases = result
        if self.last_out and self.last_out != out:
            shutil.rmtree(self.last_out, ignore_errors=True)
        self.last_out = out
        m = manifest.to_pandas()
        if int(m.n_rows.sum()) != self.in_rows:
            return f"manifest holds {int(m.n_rows.sum())} rows, source has {self.in_rows}"
        stored = dir_bytes(out)
        self.ratio = stored / self.in_bytes
        self.bytes_per_op.append(self.in_bytes)
        lay = {f"encode.{p}_s": float(phases.get(p, 0.0)) for p in PHASES}
        lay["encode.partitions"] = float(len(m))
        lay["encode.max_part_rows_over_mean"] = float(m.n_rows.max() / m.n_rows.mean())
        lay["exchange.spill_mb"] = float(phases.get("spill_mb", 0.0))
        lay["exchange.spill_busy_s"] = float(phases.get("spill_busy_s", 0.0))
        for lineage in m.lineage:
            lin = json.loads(lineage)
            for k, v in lin.get("phase_s", {}).items():
                key = f"codecs.{k[4:]}.encode_s" if k.startswith("enc_") else f"encoder.{k}_s"
                lay[key] = lay.get(key, 0.0) + float(v)
            for k, name in ENCODER_RUSAGE:
                lay[f"encoder.{name}"] = lay.get(f"encoder.{name}", 0.0) + float(lin["ru"][k])
        self.layers.append(lay)
        return None

    def finish(self) -> str | None:
        from universal_parquet_exporter_ray.pipelines.verify import (
            compression_report,
            verify_roundtrip,
        )

        report = verify_roundtrip(self.path, self.last_out)
        bad = report[~report.ok.astype(bool)]
        rep = compression_report(self.last_out)
        self.final_layers = {
            f"column.{c}.ratio": float(r) for c, r in zip(rep.column, rep.ratio)
        }
        if len(bad):
            return f"verify_roundtrip: {len(bad)} of {len(report)} partitions differ"
        return None


class EncodeSource(EncodeWorkload):
    name = "encode_source"
    uses_source = True
    partition_by = "repo"
    hash_cols = ["path"]
    rows_per_partition_div = 64  # bench.py's headline shape

    def input_path(self) -> str:
        return self.source


class EncodeLineitem(EncodeWorkload):
    name = "encode_lineitem"
    uses_tables = True
    partition_by = "l_returnflag"
    hash_cols = None

    def input_path(self) -> str:
        return os.path.join(self.tables, "lineitem.parquet")


class ReadBack:
    """Three reads of encoded output, as one user of it makes them: a full
    decode, a decode of one projected column, and a zone-pruned decode for
    ``<zone column> == <seeded value>``, each checked against the source."""

    project_col = "path"
    reads_back = True  # the traced run counts manifest reads as decode work

    def want_reads(self, src: pa.Table, pruned_src: pa.Table) -> None:
        col, value = self.zone
        self.want_full = fingerprint(src)
        self.want_proj = fingerprint(src.select([self.project_col]))
        self.want_pruned = fingerprint(pruned_src.filter(pc.equal(pruned_src[col], value)))

    def reads(self, src_out: str, pruned_out: str):
        from universal_parquet_exporter_ray.pipelines.verify import decoded_dataset

        col, value = self.zone
        t0 = time.perf_counter()
        full = collect(decoded_dataset(src_out))
        t1 = time.perf_counter()
        proj = collect(decoded_dataset(src_out, columns=[self.project_col]))
        t2 = time.perf_counter()
        pruned = collect(decoded_dataset(pruned_out, zone_filter=(col, "==", value)))
        pruned_rows = pruned.filter(pc.equal(pruned[col], value))
        t3 = time.perf_counter()
        return full, proj, pruned, pruned_rows, (t1 - t0, t2 - t1, t3 - t2)

    def check_reads(self, result, pruned_out: str) -> tuple[str | None, dict[str, float]]:
        """An error text or ``None``, and the reads' layer figures."""
        from universal_parquet_exporter_ray.pipelines.verify import zonemap_keep_pids

        full, proj, pruned, pruned_rows, (full_s, proj_s, prune_s) = result
        part = "_part"
        for label, got, want in (
            ("full decode", full, self.want_full),
            ("projected decode", proj, self.want_proj),
            ("pruned decode", pruned_rows, self.want_pruned),
        ):
            fp = fingerprint(got.drop_columns([part]) if part in got.column_names else got)
            if fp != want:
                return f"{label}: fingerprint differs from the source ({fp['rows']} vs {want['rows']} rows)", {}
        kept, total = zonemap_keep_pids(pruned_out, self.zone[0], "==", self.zone[1])
        return None, {
            "decode.full_s": full_s,
            "decode.project_s": proj_s,
            "decode.prune_s": prune_s,
            "decode.prune_kept_frac": len(kept) / max(1, total),
        }


class SourceRoundtrip(ReadBack, EncodeSource):
    """``encode_source``'s encode into a fresh directory, then the three
    reads of that output. The pruned read keeps the second largest repo: its
    rows sit in a few of the partitions, and about as few for every seed,
    so the seed does not change how much the read decodes."""

    name = "source_roundtrip"
    steps = ("encode", "decode.full_s", "decode.project_s", "decode.prune_s")

    def prepare(self) -> None:
        super().prepare()
        src = pq.read_table(self.path)
        counts = pc.value_counts(src["repo"]).to_pylist()
        by_size = sorted(counts, key=lambda c: (-c["counts"], c["values"]))
        self.zone = ("repo", by_size[min(1, len(by_size) - 1)]["values"])
        self.want_reads(src, src)

    def op(self, i: int):
        t = time.perf_counter()
        encoded = super().op(i)
        encode_s = time.perf_counter() - t
        return encoded, self.reads(encoded[0], encoded[0]), encode_s

    def check(self, result) -> str | None:
        encoded, reads, encode_s = result
        err, lay = self.check_reads(reads, encoded[0])
        if err:
            return err
        err = super().check(encoded)
        if not err:
            self.layers[-1].update(lay, encode=encode_s)
        return err

    def typical_op_s(self, times: list[float]) -> float:
        """A typical round trip: the sum over its four steps of each one's
        median time over the ops, which one slow step in an op moves less
        than it moves the median of the few ops a run has room for."""
        if not self.layers:
            return 0.0
        return sum(float(np.median([lay[k] for lay in self.layers])) for k in self.steps)


class DecodeScan(ReadBack, Workload):
    """One scan round: decode all of the encoded ``source_files``, decode
    one projected column of it, then a zone-pruned decode of the encoded
    ``lineitem`` for ``l_returnflag == <seeded flag>``."""

    name = "decode_scan"
    uses_source = True
    uses_tables = True

    def prepare(self) -> None:
        super().prepare()
        self.lineitem = os.path.join(self.tables, "lineitem.parquet")
        self.zone = ("l_returnflag", "ANR"[self.seed % 3])
        src = pq.read_table(self.source)
        li = pq.read_table(self.lineitem)
        self.in_bytes = src.nbytes + li.nbytes
        self.want_reads(src, li)

    def setup(self, session: Session) -> None:
        super().setup(session)
        self.src_out = session.path("enc_source")
        self.li_out = session.path("enc_lineitem")
        EncodeSource.encode(session, self.source, self.src_out)
        EncodeLineitem.encode(session, self.lineitem, self.li_out)
        self.ratio = (dir_bytes(self.src_out) + dir_bytes(self.li_out)) / self.in_bytes
        err = self.check(self.op(-1))
        if err:
            raise RuntimeError(f"warm-up scan: {err}")

    def op(self, i: int):
        return self.reads(self.src_out, self.li_out)

    def check(self, result) -> str | None:
        err, lay = self.check_reads(result, self.li_out)
        if err:
            return err
        full, proj, pruned = result[:3]
        self.bytes_per_op.append(full.nbytes + proj.nbytes + pruned.nbytes)
        self.layers.append(lay)
        return None


class QueryMix(Workload):
    """One pass, in seeded order, over eight relational and seven curation
    queries of the registry, each result pulled to the Ray driver as pandas."""

    name = "query_mix"
    uses_tables = True
    # query passes slow down with the kernel's compression, sort and Python
    # parts, not with its Arrow string part (reference.py)
    arrow_reference = False
    # a pass takes about 7 s on one CPU; the median of three shrugs off a
    # pass slowed by a burst of load from outside
    min_ops = 3

    @property
    def tables_sf(self) -> float:
        return self.scale.query_sf

    def prepare(self) -> None:
        import duckdb

        super().prepare()
        sys.path.insert(0, os.path.join(ROOT, "tools"))
        import __ray_entry__

        from check_oracle import compare, to_pandas

        self.compare, self.to_pandas = compare, to_pandas
        names = list(RELATIONAL + CURATION)
        rng = np.random.default_rng(self.seed)
        self.order = [names[i] for i in rng.permutation(len(names))]
        registry = __ray_entry__.queries()
        self.queries = {n: registry[n] for n in self.order}
        oracle_sql = __ray_entry__.oracle_sql()
        con = duckdb.connect()
        try:
            for t in fixtures.TABLES:
                path = os.path.join(self.tables, f"{t}.parquet")
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
            self.want = {n: con.execute(oracle_sql[n]).fetchdf() for n in self.order}
        finally:
            con.close()
        self.pass_bytes = sum(
            fixtures.arrow_bytes(os.path.join(self.tables, f"{t}.parquet"))
            for t in fixtures.TABLES
        )
        stored = sum(
            os.path.getsize(os.path.join(self.tables, f"{t}.parquet")) for t in fixtures.TABLES
        )
        self.ratio = stored / self.pass_bytes
        self.stats_hook = None  # set by the traced run: (name, result) -> None

    # the session's first query pays for worker spawn and the first Ray Data
    # execution (about 2.5 s on one CPU); after it a pass runs warm
    warm_query = "count_distinct"

    def setup(self, session: Session) -> None:
        super().setup(session)
        name = self.warm_query
        got = self.to_pandas(self.queries[name](self.tables))
        verdict = self.compare(name, got, self.want[name], strict=True)
        if verdict != "OK":
            raise RuntimeError(f"warm-up query {name}: {verdict}")

    def op(self, i: int):
        frames, secs = {}, {}
        for k, name in enumerate(self.order):
            if k and self.between is not None:
                self.between(secs[self.order[k - 1]])
            t0 = time.perf_counter()
            res = self.queries[name](self.tables)
            frames[name] = self.to_pandas(res)
            secs[name] = time.perf_counter() - t0
            if self.stats_hook is not None:
                self.stats_hook(name, res)
        return frames, secs

    def op_time(self, result, wall_s: float) -> float:
        return sum(result[1].values())

    def typical_op_s(self, times: list[float]) -> float:
        """A typical pass: the sum over the queries of each one's median time
        over the passes. One slow query in a pass moves it less than the
        pass's total moves a median of the few passes a run has room for."""
        if not self.layers:
            return 0.0
        return sum(float(np.median([lay[f"q.{n}_s"] for lay in self.layers])) for n in self.order)

    def check(self, result) -> str | None:
        frames, secs = result
        bad = []
        for name in self.order:
            verdict = self.compare(name, frames[name], self.want[name], strict=True)
            if verdict != "OK":
                bad.append(f"{name}: {verdict}")
        if bad:
            return "; ".join(bad)
        self.bytes_per_op.append(self.pass_bytes)
        lay = {f"q.{n}_s": s for n, s in secs.items()}
        lay["family.relational_s"] = sum(secs[n] for n in RELATIONAL)
        lay["family.curation_s"] = sum(secs[n] for n in CURATION)
        self.layers.append(lay)
        return None


WORKLOADS = {
    w.name: w for w in (SourceRoundtrip, QueryMix, EncodeSource, EncodeLineitem, DecodeScan)
}
