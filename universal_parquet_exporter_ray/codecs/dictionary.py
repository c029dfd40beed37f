"""Dictionary codec: ``pc.dictionary_encode`` → forpacked indices + child-
encoded distinct values. The classic low-cardinality winner (e.g. the ``lang``
column of the north-rule table)."""

from __future__ import annotations

from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

from .base import (
    Codec,
    Encoded,
    combine,
    get_codec,
    is_int_like,
    is_string_like,
    pack_blobs,
    unpack_blobs,
)


class DictCodec(Codec):
    name = "dict"

    def can_encode(self, t: pa.DataType) -> bool:
        return is_string_like(t) or is_int_like(t)

    def encode(self, arr: pa.Array, state: Any = None) -> Encoded:
        darr = combine(pc.dictionary_encode(arr))
        indices = combine(darr.indices.cast(pa.int64()))
        values = combine(darr.dictionary)
        idx_enc = get_codec("forpack").encode(indices)
        child = "zstd" if is_string_like(values.type) else "forpack"
        val_enc = get_codec(child).encode(values)
        payload = pack_blobs({"idx": idx_enc.payload, "vals": val_enc.payload})
        meta = {
            "n_values": len(values),
            "idx_meta": idx_enc.meta,
            "val_codec": child,
            "val_meta": val_enc.meta,
        }
        return Encoded(self.name, payload, meta, len(arr))

    def decode(self, enc: Encoded, dtype: pa.DataType) -> pa.Array:
        blobs = unpack_blobs(enc.payload)
        idx_enc = Encoded("forpack", blobs["idx"], enc.meta["idx_meta"], enc.n_rows)
        indices = get_codec("forpack").decode(idx_enc, pa.int64())
        n_values = int(enc.meta["n_values"])
        val_codec = enc.meta["val_codec"]
        val_enc = Encoded(val_codec, blobs["vals"], enc.meta["val_meta"], n_values)
        values = get_codec(val_codec).decode(val_enc, dtype)
        return combine(values.take(indices))

