from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcov import (
    ColumnBlock,
    CovBlock,
    DenseMatrix,
    MessageKind,
    ProtocolMessage,
    decode_message,
    encode_message,
)
from distcov.errors import ProtocolError
from distcov.wire import HEADER, MAGIC, frame_parts

from conftest import raises_exactly


def _data_msg() -> ProtocolMessage:
    block = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1.0, 2.0], (2, 1))), global_cols=(4,))
    return ProtocolMessage(MessageKind.DATA_BLOCK, sender=0, receiver=1, payload=block)


def test_header_layout_is_frozen():
    assert HEADER.size == 21
    frame = encode_message(ProtocolMessage(MessageKind.DONE, sender=3, receiver=7))
    assert frame[:4] == MAGIC
    assert frame[4] == 3  # Done
    assert int.from_bytes(frame[5:9], "little") == 3
    assert int.from_bytes(frame[9:13], "little") == 7
    assert int.from_bytes(frame[13:21], "little") == 0
    assert len(frame) == 21


def test_two_by_one_datablock_frame_size():
    # payload: 3 u32 + 1 index u32 + 2 values -> 16 + 16 = 32; header 21
    frame = encode_message(_data_msg())
    assert len(frame) == 53


def test_datablock_roundtrip():
    msg = _data_msg()
    back = decode_message(encode_message(msg))
    assert back.kind is MessageKind.DATA_BLOCK
    assert (back.sender, back.receiver) == (0, 1)
    assert back.payload.site == 0
    assert back.payload.global_cols == (4,)
    assert back.payload.data == msg.payload.data


def test_covblock_roundtrip():
    blk = CovBlock(
        site_a=2,
        site_b=0,
        block=DenseMatrix(np.reshape([1.5, -2.25, 0.0, 3.75, 1e300, -1e-300], (2, 3))),
        rows_global_cols=(5, 6),
        cols_global_cols=(0, 1, 2),
    )
    msg = ProtocolMessage(MessageKind.COV_BLOCK, sender=2, receiver=9, payload=blk)
    back = decode_message(encode_message(msg))
    assert back.payload.site_a == 2 and back.payload.site_b == 0
    assert back.payload.rows_global_cols == (5, 6)
    assert back.payload.cols_global_cols == (0, 1, 2)
    assert back.payload.block == blk.block


def test_done_roundtrip():
    back = decode_message(encode_message(ProtocolMessage(MessageKind.DONE, 1, 4)))
    assert back.kind is MessageKind.DONE and back.payload is None


def test_payload_kind_enforced():
    with raises_exactly(ProtocolError, match="DONE payload must be NoneType, got ColumnBlock"):
        ProtocolMessage(MessageKind.DONE, 0, 1, payload=_data_msg().payload)
    with raises_exactly(ProtocolError, match="DATA_BLOCK payload must be ColumnBlock, got NoneType"):
        ProtocolMessage(MessageKind.DATA_BLOCK, 0, 1, payload=None)


def test_truncated_frame():
    frame = encode_message(_data_msg())
    with raises_exactly(ProtocolError, match="frame of 10 bytes is shorter than the header"):
        decode_message(frame[:10])


def test_bad_magic():
    frame = bytearray(encode_message(_data_msg()))
    frame[0:4] = b"NOPE"
    with raises_exactly(ProtocolError, match="bad magic"):
        decode_message(bytes(frame))


def test_unknown_kind():
    frame = bytearray(encode_message(_data_msg()))
    frame[4] = 0xFF
    with raises_exactly(ProtocolError, match="unknown message kind 0xff"):
        decode_message(bytes(frame))


def test_declared_length_mismatch():
    frame = encode_message(_data_msg())
    with raises_exactly(ProtocolError, match="^DATA_BLOCK 0->1: header declares 32 payload bytes, "
                                             "frame carries 33$"):
        decode_message(bytes(frame) + b"\x00")


def test_truncated_payload_fields():
    # header claims a 4-byte payload; DataBlock needs at least 12
    frame = encode_message(ProtocolMessage(MessageKind.DONE, 0, 1))
    bad = bytearray(frame)
    bad[4] = 1  # relabel as DataBlock
    bad[13] = 4
    with raises_exactly(ProtocolError, match="^DATA_BLOCK 0->1: payload of 4 bytes, its fields call for"):
        decode_message(bytes(bad) + b"\x00" * 4)


def test_trailing_payload_bytes_rejected():
    frame = bytearray(encode_message(ProtocolMessage(MessageKind.DONE, 0, 1)))
    frame[13] = 2
    with raises_exactly(ProtocolError, match="^DONE 0->1: payload of 2 bytes, its fields call for 0$"):
        decode_message(bytes(frame) + b"\x00\x00")


def test_decoding_a_writable_frame_copies_its_values():
    # A caller's bytearray may change after decoding; the matrix must not.
    frame = bytearray(encode_message(_data_msg()))
    back = decode_message(frame)
    frame[-8:] = np.float64(7.0).tobytes()
    assert back.payload.data.values.tolist() == [[1.0], [2.0]]
    assert not np.shares_memory(back.payload.data.values, np.frombuffer(frame, np.uint8))


def test_a_block_its_payload_type_refuses_is_a_malformed_frame():
    # A local block must be exactly symmetric; the frame's own bytes are
    # well formed, so the refusal is the frame's, naming kind and edge.
    blk = CovBlock(1, 1, DenseMatrix(np.reshape([2.0, 0.5, 0.5, 3.0], (2, 2))), (0, 1), (0, 1))
    frame = bytearray(encode_message(ProtocolMessage(MessageKind.COV_BLOCK, 1, 4, blk)))
    frame[-16:-8] = np.float64(0.25).tobytes()  # entry (1, 0)
    with raises_exactly(ProtocolError, match="^COV_BLOCK 1->4: a local covariance block must be "):
        decode_message(bytes(frame))


def test_frame_parts_give_the_values_as_the_block_itself():
    msg = _data_msg()
    assert np.shares_memory(frame_parts(msg)[1], msg.payload.data.values)


def test_non_finite_payload_rejected():
    frame = bytearray(encode_message(_data_msg()))
    nan = np.float64("nan").tobytes()
    frame[-8:] = nan
    with raises_exactly(ProtocolError, match='^DATA_BLOCK 0->1: matrix values must be finite'):
        decode_message(bytes(frame))


@st.composite
def _messages(draw):
    kind = draw(st.sampled_from([MessageKind.DATA_BLOCK, MessageKind.COV_BLOCK, MessageKind.DONE]))
    sender = draw(st.integers(min_value=0, max_value=2**32 - 1))
    receiver = draw(st.integers(min_value=0, max_value=2**32 - 1))
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    if kind is MessageKind.DONE:
        return ProtocolMessage(kind, sender, receiver)
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    values = draw(
        st.lists(finite, min_size=rows * cols, max_size=rows * cols).map(
            lambda xs: np.array(xs, dtype=np.float64).reshape(rows, cols)
        )
    )
    if kind is MessageKind.DATA_BLOCK:
        start = draw(st.integers(min_value=0, max_value=1000))
        payload = ColumnBlock(
            site=draw(st.integers(min_value=0, max_value=63)),
            data=DenseMatrix(values),
            global_cols=tuple(range(start, start + cols)),
        )
    else:
        a = draw(st.integers(min_value=0, max_value=63))
        b = draw(st.integers(min_value=0, max_value=63).filter(lambda x: x != a))
        payload = CovBlock(
            site_a=a,
            site_b=b,
            block=DenseMatrix(values),
            rows_global_cols=tuple(draw(st.integers(min_value=0, max_value=999)) for _ in range(rows)),
            cols_global_cols=tuple(draw(st.integers(min_value=0, max_value=999)) for _ in range(cols)),
        )
    return ProtocolMessage(kind, sender, receiver, payload)


@given(_messages())
@settings(max_examples=100)
def test_roundtrip_is_bit_exact(msg):
    back = decode_message(encode_message(msg))
    assert back.kind == msg.kind
    assert back.sender == msg.sender and back.receiver == msg.receiver
    if msg.kind is MessageKind.DONE:
        assert back.payload is None
    elif msg.kind is MessageKind.DATA_BLOCK:
        assert back.payload.site == msg.payload.site
        assert back.payload.global_cols == msg.payload.global_cols
        assert back.payload.data == msg.payload.data
    else:
        assert back.payload.site_a == msg.payload.site_a
        assert back.payload.site_b == msg.payload.site_b
        assert back.payload.rows_global_cols == msg.payload.rows_global_cols
        assert back.payload.cols_global_cols == msg.payload.cols_global_cols
        assert back.payload.block == msg.payload.block


@st.composite
def _damaged_frames(draw):
    frame = bytearray(encode_message(draw(_messages())))
    how = draw(st.sampled_from(["cut", "pad", "flip"]))
    if how == "cut":
        del frame[draw(st.integers(min_value=0, max_value=len(frame) - 1)):]
    elif how == "pad":
        frame += draw(st.binary(min_size=1, max_size=16))
    else:
        bit = draw(st.integers(min_value=0, max_value=8 * len(frame) - 1))
        frame[bit // 8] ^= 1 << bit % 8
    if draw(st.booleans()) and len(frame) >= HEADER.size:
        # Restate the payload length, so the frame reaches the payload checks.
        frame[13:21] = (len(frame) - HEADER.size).to_bytes(8, "little")
    return bytes(frame)


@given(_damaged_frames())
@settings(max_examples=300)
def test_damaged_frame_is_refused_or_reencodes_to_itself(frame):
    try:
        msg = decode_message(frame)
    except ProtocolError:
        return
    assert bytes(encode_message(msg)) == frame
