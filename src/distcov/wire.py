"""Binary wire format for protocol messages.

Frame layout (all integers little-endian):

    magic  4 bytes  b"DCM1"
    kind   u8       1=DataBlock  2=CovBlockMsg  3=Done
    sender u32
    receiver u32
    length u64      payload byte count

DataBlock payload: u32 site, u32 rows, u32 cols, cols x u32 global column
indices, then rows*cols IEEE-754 binary64 values row-major. CovBlockMsg
payload: u32 site_a, u32 site_b, u32 rows, u32 cols, rows + cols u32 global
indices, then the values. Done has an empty payload. Values survive a
round trip bit-for-bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .covariance import ColumnBlock, CovBlock
from .errors import LengthMismatch, MalformedFrame, UnknownKind
from .matrix import DenseMatrix

__all__ = [
    "MessageKind",
    "ProtocolMessage",
    "encode_message",
    "decode_message",
    "largest_frame",
    "HEADER",
    "MAGIC",
]

MAGIC = b"DCM1"
HEADER = struct.Struct("<4sBIIQ")  # magic, kind, sender, receiver, payload length


class MessageKind(IntEnum):
    DATA_BLOCK = 1
    COV_BLOCK = 2
    DONE = 3


@dataclass(frozen=True)
class ProtocolMessage:
    """One frame of the exchange; payload type depends on the kind."""

    kind: MessageKind
    sender: int
    receiver: int
    payload: ColumnBlock | CovBlock | None = None

    def __post_init__(self) -> None:
        want = {
            MessageKind.DATA_BLOCK: ColumnBlock,
            MessageKind.COV_BLOCK: CovBlock,
            MessageKind.DONE: type(None),
        }[self.kind]
        if not isinstance(self.payload, want):
            raise MalformedFrame(
                f"{self.kind.name} payload must be {want.__name__}, "
                f"got {type(self.payload).__name__}"
            )


_U32_LE = np.dtype("<u4")
_F64_LE = np.dtype("<f8")


def largest_frame(rows: int, widths) -> int:
    """Byte size of the largest frame a run over blocks of `rows` rows and
    these column widths can send: a DataBlock of the widest block, or the
    widest block's local CovBlock."""
    w = max(widths)
    data = 4 * (3 + w) + 8 * rows * w
    cov = 4 * (4 + 2 * w) + 8 * w * w
    return HEADER.size + max(data, cov)


def _frame(msg: ProtocolMessage, fields: tuple[int, ...], values: np.ndarray | None) -> bytearray:
    # Header, u32 fields and values go straight into one buffer: one copy.
    nvalues = 0 if values is None else values.size
    length = 4 * len(fields) + 8 * nvalues
    frame = bytearray(HEADER.size + length)
    HEADER.pack_into(frame, 0, MAGIC, int(msg.kind), msg.sender, msg.receiver, length)
    np.frombuffer(frame, _U32_LE, len(fields), HEADER.size)[:] = fields
    if nvalues:
        out = np.frombuffer(frame, _F64_LE, nvalues, HEADER.size + 4 * len(fields))
        out.reshape(values.shape)[...] = values
    return frame


def encode_message(msg: ProtocolMessage) -> bytearray:
    """Serialize a message into one self-delimiting frame."""
    if msg.kind is MessageKind.DATA_BLOCK:
        b = msg.payload
        assert isinstance(b, ColumnBlock)
        fields = (b.site, b.data.rows, b.data.cols, *b.global_cols)
        return _frame(msg, fields, b.data.values)
    if msg.kind is MessageKind.COV_BLOCK:
        c = msg.payload
        assert isinstance(c, CovBlock)
        fields = (c.site_a, c.site_b, c.block.rows, c.block.cols,
                  *c.rows_global_cols, *c.cols_global_cols)
        return _frame(msg, fields, c.block.values)
    return _frame(msg, (), None)


class _Reader:
    """Sequential cursor over a frame's payload; running past the end is a
    frame error. Reads are views into the frame, never copies."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: memoryview, pos: int):
        self.buf = buf
        self.pos = pos

    def _take(self, dtype: np.dtype, count: int, what: str) -> np.ndarray:
        need = count * dtype.itemsize
        if self.pos + need > len(self.buf):
            raise MalformedFrame(
                f"payload truncated: {what} need {need} bytes, "
                f"{len(self.buf) - self.pos} remain"
            )
        out = np.frombuffer(self.buf, dtype, count, self.pos)
        self.pos += need
        return out

    def u32(self) -> int:
        return int(self._take(_U32_LE, 1, "a u32 field")[0])

    def u32_list(self, n: int) -> tuple[int, ...]:
        return tuple(self._take(_U32_LE, n, f"{n} u32 indices").tolist())

    def f64_matrix(self, rows: int, cols: int) -> np.ndarray:
        flat = self._take(_F64_LE, rows * cols, f"{rows}x{cols} values")
        return flat.reshape(rows, cols)

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise MalformedFrame(f"{len(self.buf) - self.pos} trailing payload bytes")


def decode_message(frame) -> ProtocolMessage:
    """Parse one complete frame (any bytes-like object) back into a message.

    The payload is read through a view of the frame; the only copy is the
    one `DenseMatrix` makes of the values.

    Raises:
        MalformedFrame: bad magic, truncated header or payload, trailing bytes.
        UnknownKind: kind byte outside the defined set.
        LengthMismatch: frame size disagrees with the declared payload length.
    """
    view = memoryview(frame).cast("B")
    if len(view) < HEADER.size:
        raise MalformedFrame(f"frame of {len(view)} bytes is shorter than the header")
    magic, kind_byte, sender, receiver, length = HEADER.unpack_from(view)
    if magic != MAGIC:
        raise MalformedFrame(f"bad magic {magic!r}")
    try:
        kind = MessageKind(kind_byte)
    except ValueError:
        raise UnknownKind(f"unknown message kind {kind_byte:#x}") from None
    if len(view) != HEADER.size + length:
        raise LengthMismatch(
            f"header declares {length} payload bytes, frame carries "
            f"{len(view) - HEADER.size}"
        )
    r = _Reader(view, HEADER.size)

    if kind is MessageKind.DONE:
        r.done()
        return ProtocolMessage(kind=kind, sender=sender, receiver=receiver)

    if kind is MessageKind.DATA_BLOCK:
        site = r.u32()
        rows, cols = r.u32(), r.u32()
        global_cols = r.u32_list(cols)
        values = r.f64_matrix(rows, cols)
        r.done()
        # Full constructor, not the fast path: wire bytes are unvalidated.
        block = ColumnBlock(
            site=site, data=DenseMatrix(values), global_cols=global_cols
        )
        return ProtocolMessage(kind=kind, sender=sender, receiver=receiver, payload=block)

    site_a, site_b = r.u32(), r.u32()
    rows, cols = r.u32(), r.u32()
    rows_cols = r.u32_list(rows)
    cols_cols = r.u32_list(cols)
    values = r.f64_matrix(rows, cols)
    r.done()
    cov = CovBlock(
        site_a=site_a,
        site_b=site_b,
        block=DenseMatrix(values),
        rows_global_cols=rows_cols,
        cols_global_cols=cols_cols,
    )
    return ProtocolMessage(kind=kind, sender=sender, receiver=receiver, payload=cov)
