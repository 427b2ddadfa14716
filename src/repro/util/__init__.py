"""Low-level wire-format primitives shared by the LSM store and the FPGA
engine: variable-length integers, fixed-width little-endian coding, the
masked CRC32C used by LevelDB's file formats, and the bytewise key order
every user key sorts by.
"""

from repro.util.coding import (
    decode_fixed32,
    decode_fixed64,
    encode_fixed32,
    encode_fixed64,
    get_length_prefixed_slice,
    put_length_prefixed_slice,
)
from repro.util.comparator import BytewiseComparator
from repro.util.crc32c import crc32c, crc32c_many, mask_crc, unmask_crc
from repro.util.varint import (
    MAX_VARINT32_BYTES,
    MAX_VARINT64_BYTES,
    decode_varint32,
    decode_varint64,
    encode_varint32,
    encode_varint64,
)

__all__ = [
    "BytewiseComparator",
    "MAX_VARINT32_BYTES",
    "MAX_VARINT64_BYTES",
    "crc32c",
    "crc32c_many",
    "decode_fixed32",
    "decode_fixed64",
    "decode_varint32",
    "decode_varint64",
    "encode_fixed32",
    "encode_fixed64",
    "encode_varint32",
    "encode_varint64",
    "get_length_prefixed_slice",
    "mask_crc",
    "put_length_prefixed_slice",
    "unmask_crc",
]
