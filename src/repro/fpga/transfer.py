"""Key-Value Transfer (paper §V-C).

The Decoder splits each decoded pair into three streams: the original key
stream (consumed by Key Compare — a FIFO element is usable once), a copy
of the key stream, and the value stream.  On a Keep decision the Transfer
module pops the winner's copy-key and value FIFOs and forwards the key to
the Data Block Encoder and the value straight to the output buffer; on a
Drop both are popped and discarded.

Timing: the key and value move in parallel, so a transfer costs
``max(L_key, L_value / V)`` cycles (Table III); before key-value
separation the value rides with the key byte-serially,
``max(L_key, L_value)`` (Table II).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fpga.fifo import Fifo


@dataclass(frozen=True)
class TransferResult:
    """What left the Transfer module for one selection."""

    internal_key: bytes
    value: bytes
    dropped: bool


class KeyValueTransfer:
    """Selects/drops the winner's copy-key and value streams."""

    def __init__(self):
        self.pairs_forwarded = 0
        self.pairs_dropped = 0
        self.value_bytes_forwarded = 0

    def execute(self, key_fifo: Fifo[bytes], value_fifo: Fifo[bytes],
                drop: bool) -> TransferResult:
        internal_key = key_fifo.pop()
        value = value_fifo.pop()
        if drop:
            self.pairs_dropped += 1
            return TransferResult(internal_key, value, dropped=True)
        self.pairs_forwarded += 1
        self.value_bytes_forwarded += len(value)
        return TransferResult(internal_key, value, dropped=False)

