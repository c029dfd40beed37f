"""Codec registry bootstrap: registers the built-in lightweight codecs.

North-rule codec set: dictionary, RLE, FSST, bit-packing, frame-of-reference,
plus the zstd general-purpose fallback and the plain degenerate case.
"""

from .base import (  # noqa: F401
    ALL_NULL,
    Codec,
    Encoded,
    all_codecs,
    decode_column,
    encode_column,
    get_codec,
    register_codec,
    type_from_bytes,
    type_to_bytes,
)
from .alp import AlpCodec
from .dictionary import DictCodec
from .fsst import Fsst2Codec, FsstCodec
from .intcodec import BitPackCodec, DeltaCodec, ForPackCodec, RleCodec
from .plain import ByteShuffleZstdCodec, PlainCodec, Zstd2Codec, Zstd3Codec, ZstdCodec
from .vector import VecShuffleZstdCodec

register_codec(PlainCodec())
register_codec(ZstdCodec())
register_codec(Zstd3Codec())
register_codec(Zstd2Codec())
register_codec(ByteShuffleZstdCodec())
register_codec(BitPackCodec())
register_codec(ForPackCodec())
register_codec(DeltaCodec())
register_codec(RleCodec())
register_codec(DictCodec())
register_codec(FsstCodec())
register_codec(FsstCodec(compress=True, name="fsst_zstd"))
register_codec(Fsst2Codec())
register_codec(AlpCodec())
register_codec(VecShuffleZstdCodec())
