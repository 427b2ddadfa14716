"""Internal-key encoding.

An *internal key* is ``user_key || fixed64(sequence << 8 | type)``.  The
trailing 8 bytes are the paper's "mark fields": the monotonically increasing
sequence number that orders versions of the same user key, and a one-byte
value type distinguishing live values from deletion tombstones.  The FPGA
Comparer's Validity Check inspects exactly these fields.

Internal keys sort by user key ascending (bytewise, as ``bytes`` do), then
by sequence *descending* (newest first), then by type descending — so a
merge scan meets the newest version of each user key first.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import CorruptionError, InvalidArgumentError
from repro.util.coding import decode_fixed64, encode_fixed64
from repro.util.comparator import BytewiseComparator

#: A live key/value entry.
TYPE_VALUE = 0x1
#: A deletion tombstone.
TYPE_DELETION = 0x0

#: Sentinel used for lookups: sorts before every real type at a sequence.
VALUE_TYPE_FOR_SEEK = TYPE_VALUE

#: Sequence numbers occupy 56 bits.
MAX_SEQUENCE = (1 << 56) - 1

#: Size of the mark fields ("8 (mark fields)" in the paper's footnote).
MARK_FIELDS_SIZE = 8

_unpack_trailer = struct.Struct("<Q").unpack_from


def pack_sequence_and_type(sequence: int, value_type: int) -> int:
    """Combine sequence and type into the 64-bit trailer word."""
    if not 0 <= sequence <= MAX_SEQUENCE:
        raise CorruptionError(f"sequence out of range: {sequence}")
    if value_type not in (TYPE_VALUE, TYPE_DELETION):
        raise CorruptionError(f"invalid value type: {value_type}")
    return (sequence << 8) | value_type


def encode_internal_key(user_key: bytes, sequence: int, value_type: int) -> bytes:
    """Build the on-disk internal key for ``user_key``."""
    return user_key + encode_fixed64(pack_sequence_and_type(sequence, value_type))


@dataclass(frozen=True)
class ParsedInternalKey:
    """Decoded form of an internal key."""

    user_key: bytes
    sequence: int
    value_type: int

    @property
    def is_deletion(self) -> bool:
        return self.value_type == TYPE_DELETION


def parse_internal_key(internal_key: bytes) -> ParsedInternalKey:
    """Split an internal key into its components.

    Raises :class:`CorruptionError` if the key is too short or the type
    byte is unknown.
    """
    if len(internal_key) < MARK_FIELDS_SIZE:
        raise CorruptionError("internal key shorter than mark fields")
    trailer = decode_fixed64(internal_key, len(internal_key) - MARK_FIELDS_SIZE)
    value_type = trailer & 0xFF
    if value_type not in (TYPE_VALUE, TYPE_DELETION):
        raise CorruptionError(f"unknown value type byte {value_type:#x}")
    return ParsedInternalKey(
        user_key=internal_key[:-MARK_FIELDS_SIZE],
        sequence=trailer >> 8,
        value_type=value_type,
    )


def extract_user_key(internal_key: bytes) -> bytes:
    """Return the user-key prefix of an internal key (no validation of the
    type byte — use :func:`parse_internal_key` when that matters)."""
    if len(internal_key) < MARK_FIELDS_SIZE:
        raise CorruptionError("internal key shorter than mark fields")
    return internal_key[:-MARK_FIELDS_SIZE]


class InternalKeyComparator:
    """Orders internal keys: user key asc (bytewise), then sequence/type
    desc.

    :meth:`compare` defines the order; :meth:`sort_key` maps a key to a
    value whose native ``<`` is that order, so the ordered containers
    (skiplist, merge heap, table builder) and the table and block
    searches compare in C.  User keys order as ``bytes``: the one
    argument must be a :class:`BytewiseComparator`, which supplies the
    index-key shortening.
    """

    def __init__(self, user_comparator: BytewiseComparator):
        if type(user_comparator) is not BytewiseComparator:
            raise InvalidArgumentError(
                f"user keys order bytewise; got {user_comparator!r}")
        self.user_comparator = user_comparator

    def sort_key(self, internal_key: bytes) -> tuple:
        """``sort_key(a) < sort_key(b)`` iff ``compare(a, b) < 0``, and
        the keys are equal iff it is 0.  Negating the trailer turns
        "sequence/type descending" into the ascending order of ints."""
        size = len(internal_key) - MARK_FIELDS_SIZE
        if size < 0:
            raise CorruptionError("internal key shorter than mark fields")
        return internal_key[:size], -_unpack_trailer(internal_key, size)[0]

    def compare(self, a: bytes, b: bytes) -> int:
        if len(a) < MARK_FIELDS_SIZE or len(b) < MARK_FIELDS_SIZE:
            raise CorruptionError("internal key shorter than mark fields")
        a_user = a[:-MARK_FIELDS_SIZE]
        b_user = b[:-MARK_FIELDS_SIZE]
        if a_user != b_user:
            return -1 if a_user < b_user else 1
        a_trailer = decode_fixed64(a, len(a) - MARK_FIELDS_SIZE)
        b_trailer = decode_fixed64(b, len(b) - MARK_FIELDS_SIZE)
        if a_trailer > b_trailer:
            return -1
        if a_trailer < b_trailer:
            return 1
        return 0

    def find_shortest_separator(self, start: bytes, limit: bytes) -> bytes:
        user_start = extract_user_key(start)
        user_limit = extract_user_key(limit)
        tmp = self.user_comparator.find_shortest_separator(user_start, user_limit)
        if len(tmp) < len(user_start) and user_start < tmp:
            # A physically shorter separator exists; give it the maximum
            # possible trailer so it sorts before all entries of that key.
            tmp += encode_fixed64(
                pack_sequence_and_type(MAX_SEQUENCE, VALUE_TYPE_FOR_SEEK))
            return tmp
        return start

    def find_short_successor(self, key: bytes) -> bytes:
        user_key = extract_user_key(key)
        tmp = self.user_comparator.find_short_successor(user_key)
        if len(tmp) < len(user_key) and user_key < tmp:
            tmp += encode_fixed64(
                pack_sequence_and_type(MAX_SEQUENCE, VALUE_TYPE_FOR_SEEK))
            return tmp
        return key


def make_lookup_key(user_key: bytes, sequence: int) -> bytes:
    """Internal key that sorts at-or-before every entry of ``user_key``
    visible at snapshot ``sequence``."""
    return encode_internal_key(user_key, sequence, VALUE_TYPE_FOR_SEEK)
