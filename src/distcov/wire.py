"""Binary wire format for protocol messages.

Frame layout (all integers little-endian):

    magic  4 bytes  b"DCM1"
    kind   u8       1=DataBlock  2=CovBlockMsg  3=Done
    sender u32
    receiver u32
    length u64      payload byte count

A payload opens with u32 fields: DataBlock 3 (site, rows, cols), CovBlockMsg
4 (site_a, site_b, rows, cols), Done none. Then come the u32 global column
indices, cols of them for a DataBlock and rows + cols for a CovBlockMsg,
then rows*cols IEEE-754 binary64 values row-major. So a payload is

    4 * (fields + indices) + 8 * rows * cols  bytes

(`_payload_size`), and a frame is accepted only if its payload is exactly
that size. Values survive a round trip bit-for-bit.
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
    "frame_size",
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


# Each kind's payload type and the number of u32 fields its payload opens
# with; a block's last two fields are its rows and cols.
_LAYOUT = {
    MessageKind.DATA_BLOCK: (ColumnBlock, 3),  # site, rows, cols
    MessageKind.COV_BLOCK: (CovBlock, 4),  # site_a, site_b, rows, cols
    MessageKind.DONE: (type(None), 0),
}


def _payload_size(kind: MessageKind, rows: int, cols: int) -> int:
    """Payload bytes of a `kind` frame carrying a rows x cols block."""
    indices = rows + cols if kind is MessageKind.COV_BLOCK else cols
    return 4 * (_LAYOUT[kind][1] + indices) + 8 * rows * cols


@dataclass(frozen=True)
class ProtocolMessage:
    """One frame of the exchange; payload type depends on the kind."""

    kind: MessageKind
    sender: int
    receiver: int
    payload: ColumnBlock | CovBlock | None = None

    def __post_init__(self) -> None:
        want = _LAYOUT[self.kind][0]
        if not isinstance(self.payload, want):
            raise MalformedFrame(
                f"{self.kind.name} payload must be {want.__name__}, "
                f"got {type(self.payload).__name__}"
            )


_U32_LE = np.dtype("<u4")
_F64_LE = np.dtype("<f8")


def frame_size(header) -> int:
    """Byte size of the whole frame whose header `header` holds, as the
    header's payload length declares it."""
    return HEADER.size + HEADER.unpack_from(header)[4]


def largest_frame(rows: int, widths) -> int:
    """Byte size of the largest frame a run over blocks of `rows` rows and
    these column widths can send: a DataBlock of the widest block, or the
    widest block's local CovBlock."""
    w = max(widths)
    return HEADER.size + max(
        _payload_size(MessageKind.DATA_BLOCK, rows, w),
        _payload_size(MessageKind.COV_BLOCK, w, w),
    )


def encode_message(msg: ProtocolMessage) -> bytearray:
    """Serialize a message into one self-delimiting frame. Header, u32
    fields and values go straight into one buffer: one copy."""
    p = msg.payload
    if msg.kind is MessageKind.DATA_BLOCK:
        fields, values = (p.site, p.data.rows, p.data.cols, *p.global_cols), p.data.values
    elif msg.kind is MessageKind.COV_BLOCK:
        fields = (p.site_a, p.site_b, p.block.rows, p.block.cols,
                  *p.rows_global_cols, *p.cols_global_cols)
        values = p.block.values
    else:
        fields, values = (), np.empty((0, 0))
    length = _payload_size(msg.kind, *values.shape)
    frame = bytearray(HEADER.size + length)
    HEADER.pack_into(frame, 0, MAGIC, int(msg.kind), msg.sender, msg.receiver, length)
    np.frombuffer(frame, _U32_LE, len(fields), HEADER.size)[:] = fields
    out = np.frombuffer(frame, _F64_LE, values.size, HEADER.size + 4 * len(fields))
    out.reshape(values.shape)[...] = values
    return frame


def decode_message(frame) -> ProtocolMessage:
    """Parse one complete frame (any bytes-like object) back into a message.

    The payload is read through views of the frame; the only copy is the
    one `DenseMatrix` makes of the values.

    Raises:
        MalformedFrame: bad magic, a frame shorter than the header, or a
            payload whose size is not `_payload_size` of its fields.
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
    nfields = _LAYOUT[kind][1]
    # A payload too short for its fields reads as a 0 x 0 block, whose size
    # (the fields alone) it cannot have either.
    fields = [0] * nfields
    if length >= 4 * nfields:
        fields = np.frombuffer(view, _U32_LE, nfields, HEADER.size).tolist()
    rows, cols = fields[-2:] if fields else (0, 0)
    need = _payload_size(kind, rows, cols)
    if length != need:
        raise MalformedFrame(f"{kind.name} payload of {length} bytes, its fields call for {need}")
    if kind is MessageKind.DONE:
        return ProtocolMessage(kind, sender, receiver)

    at = HEADER.size + 4 * nfields
    values_at = len(view) - 8 * rows * cols
    indices = np.frombuffer(view[at:values_at], _U32_LE).tolist()
    # Full constructors, not the fast path: wire bytes are unvalidated.
    values = DenseMatrix(np.frombuffer(view, _F64_LE, rows * cols, values_at).reshape(rows, cols))
    if kind is MessageKind.DATA_BLOCK:
        payload = ColumnBlock(site=fields[0], data=values, global_cols=indices)
    else:
        payload = CovBlock(
            site_a=fields[0],
            site_b=fields[1],
            block=values,
            rows_global_cols=indices[:rows],
            cols_global_cols=indices[rows:],
        )
    return ProtocolMessage(kind, sender, receiver, payload)
