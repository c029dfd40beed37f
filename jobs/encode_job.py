"""`ray job submit` entrypoint for the columnar-encode pipeline.

On a real cluster:

    ray job submit --working-dir . -- python jobs/encode_job.py \
        --source s3://bucket/source_files/ --out-dir s3://bucket/encoded/run1

In this sandbox it runs local-mode. This script OWNS its Ray session
(guarded init + shutdown); library code never does.
"""

from __future__ import annotations

import argparse
import json
import sys

sys.path.insert(0, ".")  # working-dir layout under ray job submit


def main() -> int:
    ap = argparse.ArgumentParser(description="Per-column lightweight-compression encode job")
    ap.add_argument("--source", help="input parquet file/dir (or env UPXR_SOURCE)")
    ap.add_argument("--out-dir", help="output root (or env UPXR_OUT_DIR)")
    ap.add_argument("--partition-by", default="repo")
    ap.add_argument("--hash-cols", default="path")
    ap.add_argument("--target-rows", type=int, default=100_000)
    ap.add_argument("--no-resume", action="store_true")
    ap.add_argument("--run-id", default="run0")
    ap.add_argument("--verify", action="store_true", help="decode + fingerprint check after encode")
    ap.add_argument("--num-cpus", type=int, default=None, help="local-mode CPU cap")
    args = ap.parse_args()

    from universal_parquet_exporter_ray.config import EncodeJobConfig

    if args.source and args.out_dir:
        cfg = EncodeJobConfig(
            source=args.source,
            out_dir=args.out_dir,
            partition_by=args.partition_by or None,
            hash_cols=args.hash_cols.split(","),
            target_rows_per_partition=args.target_rows,
            resume=not args.no_resume,
            run_id=args.run_id,
        )
        cfg.validate()
    else:
        cfg = EncodeJobConfig.from_environment()

    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "ignore_reinit_error": True}
        if args.num_cpus:
            kwargs.update(address="local", num_cpus=args.num_cpus)
        ray.init(**kwargs)

    try:
        from universal_parquet_exporter_ray.pipelines import (
            encode_dataset,
            verify_roundtrip,
        )

        manifest = encode_dataset(
            cfg.source,
            cfg.out_dir,
            partition_by=cfg.partition_by,
            hash_cols=cfg.hash_cols,
            target_rows_per_partition=cfg.target_rows_per_partition,
            resume=cfg.resume,
            lineage={"run_id": cfg.run_id},
        ).to_pandas()
        report = {
            "partitions": len(manifest),
            "rows": int(manifest.n_rows.sum()),
            "input_bytes": int(manifest.input_bytes.sum()),
            "encoded_bytes": int(manifest.encoded_bytes.sum()),
            "ratio": round(
                manifest.encoded_bytes.sum() / max(1, manifest.input_bytes.sum()), 4
            ),
        }
        if args.verify:
            rep = verify_roundtrip(cfg.source, cfg.out_dir)
            report["verified"] = bool(rep.ok.all())
        print(json.dumps(report))
        return 0 if report.get("verified", True) else 1
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
