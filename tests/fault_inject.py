"""Kill one Ray worker mid-encode, for the encode fault-injection test.

``arm`` is a Ray ``worker_process_setup_hook``. In every worker it wraps one
encode stage method so that the first call anywhere in the session runs the
stage and then ends the worker process with ``os._exit`` before the call
returns: the stage's side effects (a written map-output file, or a written
partition and manifest row) exist, but its result never reaches the driver.
"First" is decided by an ``O_EXCL`` create of a marker file, so exactly one
worker dies however many run the stage. The stage and the marker path come
from the environment (``FAULT_STAGE``, ``FAULT_MARKER``).

Run as a script, it starts a 2-CPU local Ray session with the hook armed and
encodes one source twice: a clean run (the marker already exists, so nothing
dies), then a faulted run (marker removed). It prints one JSON line comparing
the two:

    python tests/fault_inject.py SOURCE WORKDIR spill|encode
"""

from __future__ import annotations

import functools
import json
import os
import sys

STAGES = {
    "spill": ("universal_parquet_exporter_ray.stages.exchange", "SpillPartitions", "__call__"),
    "encode": ("universal_parquet_exporter_ray.stages.encoder", "PartitionEncoder", "encode_partition"),
}


def arm() -> None:
    """Worker setup hook: wrap the stage named by ``FAULT_STAGE``."""
    import importlib

    stage, marker = os.environ.get("FAULT_STAGE"), os.environ.get("FAULT_MARKER")
    if stage not in STAGES or not marker:
        return
    module, cls_name, attr = STAGES[stage]
    cls = getattr(importlib.import_module(module), cls_name)
    fn = getattr(cls, attr)

    @functools.wraps(fn)
    def kill_once(*args, **kwargs):
        out = fn(*args, **kwargs)
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return out
        os._exit(1)

    setattr(cls, attr, kill_once)


def _encode(src: str, out: str) -> dict:
    import pandas as pd

    from universal_parquet_exporter_ray.pipelines import (
        decoded_dataset,
        encode_dataset,
        verify_roundtrip,
    )
    from universal_parquet_exporter_ray.state.manifest import read_manifest

    manifest = encode_dataset(
        src,
        out,
        partition_by="repo",
        hash_cols=["path"],
        target_rows_per_partition=500,
        exchange_root=os.path.join(os.path.dirname(out), "exchange"),
    )
    # the returned manifest (this run's rows plus any read back from disk)
    # and the manifest files must each name every partition once
    pids = manifest.to_pandas().partition_id.tolist()
    on_disk = read_manifest(out).column("partition_id").to_pylist()
    dec = decoded_dataset(out).to_pandas()
    dec = dec.sort_values(["repo", "path"]).reset_index(drop=True)
    return {
        "verified": bool(verify_roundtrip(src, out).ok.all()),
        "pids": pids,
        "on_disk": on_disk,
        "frame": pd.util.hash_pandas_object(dec, index=False).tolist(),
        "rows": len(dec),
    }


def main(src: str, work: str, stage: str) -> dict:
    import ray

    os.makedirs(work, exist_ok=True)
    marker = os.path.join(work, "marker")
    here = os.path.dirname(os.path.abspath(__file__))
    env = {
        "FAULT_STAGE": stage,
        "FAULT_MARKER": marker,
        "PYTHONPATH": os.pathsep.join([here, os.path.dirname(here)]),
    }
    os.environ.update(env)
    ray.init(
        address="local",
        num_cpus=2,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        runtime_env={"worker_process_setup_hook": "fault_inject.arm", "env_vars": env},
    )
    try:
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        open(marker, "w").close()
        clean = _encode(src, os.path.join(work, "clean", "out"))
        os.remove(marker)
        faulted = _encode(src, os.path.join(work, "faulted", "out"))
    finally:
        ray.shutdown()
    return {
        "fired": os.path.exists(marker),
        "verified": faulted["verified"],
        "clean_verified": clean["verified"],
        "rows": faulted["rows"],
        "same_frame": faulted["frame"] == clean["frame"],
        "same_pids": sorted(faulted["pids"]) == sorted(clean["pids"]),
        "same_on_disk": sorted(faulted["on_disk"]) == sorted(faulted["pids"]),
        "dup_pids": len(faulted["pids"]) - len(set(faulted["pids"])),
    }


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    print(json.dumps(main(*sys.argv[1:4])))
