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

The values are always a frame's last 8 * rows * cols bytes, so a frame in
a `frame_buffer`, whose end is 8-byte aligned, holds them aligned:
`encode_message` returns one read-only, a TCP send reads its frame back
into one, and `decode_message` keeps such values as a view. A sender can
also write a frame in two parts (`frame_parts`): header, fields and
indices in one small buffer, then the block's values straight from their
array.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .covariance import ColumnBlock, CovBlock
from .errors import DistCovError, ProtocolError
from .matrix import DenseMatrix

__all__ = [
    "MessageKind",
    "ProtocolMessage",
    "encode_message",
    "decode_message",
    "frame_buffer",
    "frame_parts",
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
            raise ProtocolError(
                f"{self.kind.name} payload must be {want.__name__}, "
                f"got {type(self.payload).__name__}"
            )


_U32_LE = np.dtype("<u4")
_F64_LE = np.dtype("<f8")


def frame_buffer(size: int) -> memoryview:
    """An uninitialised, writable buffer of `size` bytes whose end is 8-byte
    aligned, so the values of a frame written into it are aligned."""
    raw = np.empty(size + 7, np.uint8)
    start = -(raw.ctypes.data + size) % 8
    return memoryview(raw[start : start + size])


def frame_parts(msg: ProtocolMessage) -> tuple[bytearray, np.ndarray]:
    """A message's frame in two parts: one small buffer holding the header,
    the u32 fields and the indices, then the values as a flat uint8 view of
    the block's own array. The values are copied only where that array is
    not C-contiguous little-endian float64 (on a big-endian host, say).
    Joined, the parts are `encode_message(msg)`."""
    p = msg.payload
    if msg.kind is MessageKind.DATA_BLOCK:
        fields, values = (p.site, p.data.rows, p.data.cols, *p.global_cols), p.data.values
    elif msg.kind is MessageKind.COV_BLOCK:
        fields = (p.site_a, p.site_b, p.block.rows, p.block.cols,
                  *p.rows_global_cols, *p.cols_global_cols)
        values = p.block.values
    else:
        fields, values = (), np.empty((0, 0))
    head = bytearray(HEADER.size + 4 * len(fields))
    length = _payload_size(msg.kind, *values.shape)
    HEADER.pack_into(head, 0, MAGIC, int(msg.kind), msg.sender, msg.receiver, length)
    np.frombuffer(head, _U32_LE, len(fields), HEADER.size)[:] = fields
    return head, np.ascontiguousarray(values, _F64_LE).reshape(-1).view(np.uint8)


def encode_message(msg: ProtocolMessage) -> memoryview:
    """Serialize a message into one self-delimiting frame: `frame_parts`
    written into one read-only `frame_buffer`, so one copy of the values."""
    head, values = frame_parts(msg)
    frame = frame_buffer(len(head) + len(values))
    frame[: len(head)] = head
    frame[len(head) :] = values
    return frame.toreadonly()


def decode_message(frame) -> ProtocolMessage:
    """Parse one complete frame (any bytes-like object) back into a message.

    The payload is read through views of the frame. The values of a
    read-only frame, aligned and native-endian, such as `encode_message`
    returns, are checked for NaN and infinity and kept as a read-only view
    of the frame: such a frame is taken to stay unchanged, and it lives as
    long as the matrix. Any other frame (a caller's writable buffer,
    unaligned values, a big-endian host) has its values copied.

    Raises:
        ProtocolError: bad magic, a frame shorter than the header or a kind
            byte outside the defined set; or, naming kind and
            sender->receiver, a frame size that disagrees with the declared
            payload length, a payload whose size is not `_payload_size` of
            its fields, a block its payload type refuses or a NaN or
            infinite value.
    """
    view = memoryview(frame).cast("B")
    if len(view) < HEADER.size:
        raise ProtocolError(f"frame of {len(view)} bytes is shorter than the header")
    magic, kind_byte, sender, receiver, length = HEADER.unpack_from(view)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    try:
        kind = MessageKind(kind_byte)
    except ValueError:
        raise ProtocolError(f"unknown message kind {kind_byte:#x}") from None
    edge = f"{kind.name} {sender}->{receiver}"
    if len(view) != HEADER.size + length:
        raise ProtocolError(
            f"{edge}: header declares {length} payload bytes, frame carries "
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
        raise ProtocolError(f"{edge}: payload of {length} bytes, its fields call for {need}")
    if kind is MessageKind.DONE:
        return ProtocolMessage(kind, sender, receiver)

    at = HEADER.size + 4 * nfields
    values_at = len(view) - 8 * rows * cols
    indices = np.frombuffer(view[at:values_at], _U32_LE).tolist()
    values = np.frombuffer(view, _F64_LE, rows * cols, values_at).reshape(rows, cols)
    # Full payload constructors: wire bytes are unvalidated.
    try:
        if view.readonly and values.dtype.isnative and values.flags.aligned:
            if not np.isfinite(values).all():
                raise DistCovError("matrix values must be finite (no NaN/Inf)")
            values = DenseMatrix._wrap(values)
        else:
            values = DenseMatrix(values)  # a copy, checked like the view
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
    except DistCovError as exc:
        raise ProtocolError(f"{edge}: {exc}") from None
    return ProtocolMessage(kind, sender, receiver, payload)
