from __future__ import annotations

import hashlib
import itertools
import os
import re
import select
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter

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
    Schedule,
    build_schedule,
    centralized_covariance,
    critical_path_ms,
    encode_message,
    load_table,
    local_covariance,
    matrix_checksum,
    merge_blocks,
    mfeat_preset,
    partition_vertical,
    run_centralized,
    run_distributed,
    symmetric_eigen,
    synthetic_table,
)
from distcov.errors import DistCovError, MissingFrame, ProtocolError
import distcov.covariance as covariance
import distcov.runtime as runtime
from distcov.runtime import (
    RunMetrics,
    InProcessTransport,
    TcpTransport,
    TransferStat,
)
from distcov.ingest import even_preset
from distcov.schedule import pair_coverage
from distcov.wire import HEADER, MAGIC
from conftest import blocks_for, open_fds, raises_exactly


def _oracle(blocks):
    widths = [b.data.cols for b in blocks]
    data = np.hstack([b.data.values for b in blocks])
    return centralized_covariance(DenseMatrix(np.ascontiguousarray(data)))


def test_three_site_fixture_matches_oracle(three_site_blocks, three_site_matrix):
    cov, decomp, metrics = run_distributed(three_site_blocks, build_schedule(3))
    oracle = centralized_covariance(three_site_matrix)
    assert cov.matrix == oracle.matrix
    assert len(decomp.eigenvalues) == 5
    assert metrics.protocol_ms > 0


def test_single_site_degenerate_run():
    b = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1, 3, 2, 2, 3, 1], (3, 2))),
                    global_cols=(0, 1))
    log: list = []
    cov, _, _ = run_distributed([b], build_schedule(1), message_log=log)
    assert cov.matrix.values.tolist() == [[1.0, -1.0], [-1.0, 1.0]]
    kinds = [k for k, *_ in log]
    assert kinds.count(MessageKind.DATA_BLOCK) == 0
    assert kinds.count(MessageKind.COV_BLOCK) == 1
    assert kinds.count(MessageKind.DONE) == 1


def test_two_sites_send_exactly_one_datablock():
    rng = np.random.default_rng(17)
    blocks = blocks_for(rng.standard_normal((10, 4)), [2, 2])
    log: list = []
    run_distributed(blocks, build_schedule(2), message_log=log)
    data_edges = [(s, r) for k, s, r, _ in log if k is MessageKind.DATA_BLOCK]
    assert data_edges == [(0, 1)]


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_message_counts(t):
    rng = np.random.default_rng(t)
    blocks = blocks_for(rng.standard_normal((12, 2 * t)), [2] * t)
    log: list = []
    run_distributed(blocks, build_schedule(t), message_log=log)
    kinds = [k for k, *_ in log]
    pairs = t * (t - 1) // 2
    assert kinds.count(MessageKind.DATA_BLOCK) == pairs
    assert kinds.count(MessageKind.COV_BLOCK) == t + pairs
    assert kinds.count(MessageKind.DONE) == t


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_frames_follow_the_turns(monkeypatch, transport):
    t = 6
    sched = build_schedule(t)
    rng = np.random.default_rng(49)
    blocks = blocks_for(rng.standard_normal((12, 2 * t)), [2] * t)
    log: list = []
    run_distributed(blocks, sched, transport=transport, message_log=log)
    expected = []
    for k in range(t):
        senders = sched.senders_to(k)
        expected += [(MessageKind.DATA_BLOCK, j, k) for j in senders]
        expected += [(MessageKind.COV_BLOCK, k, t)] * (1 + len(senders))
        expected += [(MessageKind.DONE, k, t)]
    assert [entry[:3] for entry in log] == expected

    def fails(own, senders):
        raise RuntimeError("disk gone")

    monkeypatch.setattr(runtime, "site_covariance", fails)
    log.clear()
    with raises_exactly(ProtocolError, match="^site 0 kernel failed"):
        run_distributed(blocks, sched, transport=transport, message_log=log)
    assert [entry[:3] for entry in log] == [
        (MessageKind.DATA_BLOCK, j, 0) for j in sched.senders_to(0)
    ]


def test_no_data_to_non_predecessors():
    t = 6
    rng = np.random.default_rng(99)
    blocks = blocks_for(rng.standard_normal((15, 12)), [2] * t)
    sched = build_schedule(t)
    log: list = []
    run_distributed(blocks, sched, message_log=log)
    for kind, sender, receiver, _ in log:
        if kind is MessageKind.DATA_BLOCK:
            assert sender in sched.predecessors[receiver]


def test_tcp_matches_in_process():
    rng = np.random.default_rng(31)
    blocks = blocks_for(rng.standard_normal((50, 8)) * 2.5, [3, 2, 3])
    sched = build_schedule(3)
    cov_q, _, _ = run_distributed(blocks, sched, transport="in-process")
    cov_t, _, _ = run_distributed(blocks, sched, transport="tcp")
    assert cov_q.matrix == cov_t.matrix


def _refused_at_recv(monkeypatch, damage, msg):
    """Send `msg` over TCP with its frame's parts replaced by
    `damage(head, values)`, and return the ProtocolError `recv` raises.
    The send must ask for one frame buffer, of exactly the bytes it wrote,
    and send and recv together must end within 1 s."""
    parts, buffer = runtime.frame_parts, runtime.frame_buffer
    written, asked = [], []

    def damaged_parts(m):
        head, values = damage(*parts(m))
        written.append(len(head) + len(values))
        return head, values

    def counted_buffer(size):
        asked.append(size)
        return buffer(size)

    monkeypatch.setattr(runtime, "frame_parts", damaged_parts)
    monkeypatch.setattr(runtime, "frame_buffer", counted_buffer)
    net = TcpTransport([0, 1])
    try:
        started = time.perf_counter()
        net.send(msg)
        with raises_exactly(ProtocolError, match=r"^DATA_BLOCK 1->0: header declares ") as exc:
            net.recv(0)
        assert time.perf_counter() - started < 1.0
    finally:
        net.close()
    assert asked == written
    return exc.value


def test_tcp_refuses_oversized_frame_before_allocating(monkeypatch):
    # The header declares 2**60 bytes; only the 21 bytes sent are allocated.
    forged = HEADER.pack(MAGIC, int(MessageKind.DATA_BLOCK), 1, 0, 2**60)
    exc = _refused_at_recv(monkeypatch, lambda head, values: (forged, values),
                           ProtocolMessage(MessageKind.DONE, 1, 0))
    assert str(exc).endswith(f"declares {2**60} payload bytes, frame carries 0")


def test_tcp_refuses_a_frame_cut_short_of_its_declared_size(monkeypatch):
    block = ColumnBlock(site=1, data=DenseMatrix(np.reshape([1, 2, 3, 4, 5, 6], (3, 2))),
                        global_cols=(4, 7))
    msg = ProtocolMessage(MessageKind.DATA_BLOCK, 1, 0, block)
    payload = len(encode_message(msg)) - HEADER.size
    exc = _refused_at_recv(monkeypatch, lambda head, values: (head, values[:-8]), msg)
    assert str(exc).endswith(f"declares {payload} payload bytes, frame carries {payload - 8}")


def _tcp_messages():
    """A DATA_BLOCK, a COV_BLOCK and a DONE from endpoint 1 to endpoint 0."""
    rng = np.random.default_rng(55)
    block = ColumnBlock(site=1, data=DenseMatrix(rng.standard_normal((7, 3))), global_cols=(2, 5, 6))
    cov = CovBlock(1, 0, DenseMatrix(rng.standard_normal((3, 2))), (2, 5, 6), (0, 1))
    return [
        ProtocolMessage(MessageKind.DATA_BLOCK, 1, 0, block),
        ProtocolMessage(MessageKind.COV_BLOCK, 1, 0, cov),
        ProtocolMessage(MessageKind.DONE, 1, 0),
    ]


def test_tcp_frames_are_the_encoded_bytes():
    # The values leave from the block's own array, apart from the header:
    # what the receiving end reads is still encode_message's frame.
    net = TcpTransport([0, 1])
    try:
        for msg in _tcp_messages():
            stat = net.send(msg)
            frame = net._inbox[0].popleft()
            assert bytes(frame) == bytes(encode_message(msg))
            assert stat.bytes == len(frame)
    finally:
        net.close()


@pytest.mark.parametrize("cls", [InProcessTransport, TcpTransport], ids=["in-process", "tcp"])
def test_decodes_values_as_a_read_only_view_of_the_inbox_frame(cls):
    # Either transport queues every frame read-only, its end and so its
    # values 8-byte aligned, so decoding copies no block.
    net = cls([0, 1])
    try:
        for msg in _tcp_messages():
            net.send(msg)
            frame = net._inbox[0][0]
            assert frame.readonly
            assert (np.frombuffer(frame, np.uint8).ctypes.data + len(frame)) % 8 == 0
            got = net.recv(0)
            if msg.payload is not None:
                values = (got.payload.data if msg.kind is MessageKind.DATA_BLOCK
                          else got.payload.block).values
                assert np.shares_memory(values, np.asarray(frame))
                assert not values.flags.writeable
            assert got == msg
    finally:
        net.close()


def test_tcp_still_refuses_a_non_finite_value_at_recv():
    values = np.arange(6.0).reshape(3, 2)
    values[1, 1] = np.nan
    block = ColumnBlock(site=1, data=DenseMatrix._wrap(values), global_cols=(0, 1))
    net = TcpTransport([0, 1])
    try:
        net.send(ProtocolMessage(MessageKind.DATA_BLOCK, 1, 0, block))
        with raises_exactly(ProtocolError, match='^DATA_BLOCK 1->0: matrix values must be finite'):
            net.recv(0)
    finally:
        net.close()


def test_tcp_sends_no_encoded_frame(monkeypatch):
    def refuse(msg):
        raise AssertionError(f"{msg.kind.name} encoded")

    monkeypatch.setattr(runtime, "encode_message", refuse)
    rng = np.random.default_rng(56)
    blocks = blocks_for(rng.standard_normal((20, 9)), [2, 4, 3])
    cov, _, _ = run_distributed(blocks, build_schedule(3), transport="tcp")
    assert cov.matrix == _oracle(blocks).matrix


def test_tcp_holds_each_inbound_byte_once():
    # A tall t=6 exchange: a turn holds its senders' frames once, as
    # received, and the kernel works 512 rows at a time, so the traced peak
    # above the input stays below the largest turn's inbound frame bytes
    # plus a fixed allowance for one site's kernel scratch (at most 9.1 MiB
    # at these widths, at any row count). Holding a decoded copy of each
    # frame besides it would go past that bound.
    allowance = 12 * 2**20
    blocks = partition_vertical(synthetic_table(8000, 649, seed=1), mfeat_preset(6))
    log: list = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_distributed(blocks, build_schedule(6), transport="tcp", message_log=log)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    inbound = Counter()
    for kind, _sender, receiver, size in log:
        if kind is MessageKind.DATA_BLOCK:
            inbound[receiver] += size
    assert peak < max(inbound.values()) + allowance


def test_tcp_runs_leave_no_threads_behind():
    rng = np.random.default_rng(34)
    blocks = blocks_for(rng.standard_normal((30, 7)), [2, 3, 2])
    sched = build_schedule(3)
    before = threading.active_count()
    for _ in range(5):
        run_distributed(blocks, sched, transport="tcp")
    assert threading.active_count() == before


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_one_kernel_in_flight_per_run(monkeypatch, transport):
    lock = threading.Lock()
    in_flight = [0]
    most = [0]

    def counted(kernel):
        def wrapper(*args, **kwargs):
            with lock:
                in_flight[0] += 1
                most[0] = max(most[0], in_flight[0])
            try:
                time.sleep(0.002)  # widen the window in which a second call could start
                return kernel(*args, **kwargs)
            finally:
                with lock:
                    in_flight[0] -= 1
        return wrapper

    monkeypatch.setattr(runtime, "site_covariance", counted(runtime.site_covariance))
    rng = np.random.default_rng(36)
    blocks = blocks_for(rng.standard_normal((40, 14)), [3, 2, 2, 3, 2, 2])
    cov_d, _, _ = run_distributed(blocks, build_schedule(6), transport=transport)
    cov_c, _, _ = run_centralized(blocks)
    assert most[0] == 1
    assert cov_d.matrix == cov_c.matrix


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_sites_start_no_threads(monkeypatch, transport):
    starts = [0]
    start = threading.Thread.start

    def counted_start(self):
        starts[0] += 1
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    rng = np.random.default_rng(46)
    blocks = blocks_for(rng.standard_normal((40, 14)), [3, 2, 2, 3, 2, 2])
    cov_d, _, _ = run_distributed(blocks, build_schedule(6), transport=transport)
    assert starts[0] == 0
    cov_c, _, _ = run_centralized(blocks)
    assert cov_d.matrix == cov_c.matrix


def test_site_refuses_raw_columns_from_a_non_predecessor(monkeypatch):
    # At t=3 site 0 ships only to site 1; in site 2's own turn site 0's
    # columns, addressed to site 2, reach its inbox ahead of the columns
    # site 2 expects from site 1.
    deliver = InProcessTransport._deliver
    rng = np.random.default_rng(47)
    blocks = blocks_for(rng.standard_normal((10, 6)), [2, 2, 2])

    def also_from_0(self, msg):
        if msg.kind is MessageKind.DATA_BLOCK and msg.receiver == 2:
            deliver(self, ProtocolMessage(MessageKind.DATA_BLOCK, 0, 2, blocks[0]))
        return deliver(self, msg)

    monkeypatch.setattr(InProcessTransport, "_deliver", also_from_0)
    before = threading.active_count()
    started = time.perf_counter()
    with raises_exactly(
        ProtocolError, match="^site 2 expected DATA_BLOCK from 1, received DATA_BLOCK from 0$"
    ):
        run_distributed(blocks, build_schedule(3))
    assert time.perf_counter() - started < 1.0
    assert threading.active_count() == before


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_one_kernel_call_per_site(monkeypatch, transport):
    kernel = covariance._cov_blocks
    calls = [0]

    def counted(y, xs):
        calls[0] += 1
        return kernel(y, xs)

    monkeypatch.setattr(covariance, "_cov_blocks", counted)
    rng = np.random.default_rng(42)
    blocks = blocks_for(rng.standard_normal((30, 14)), [3, 2, 2, 3, 2, 2])
    run_distributed(blocks, build_schedule(6), transport=transport)
    assert calls[0] == 6


def _run_with_site_0_blocks(monkeypatch, tamper, **kwargs):
    """A t=3 run in which site 0's cross blocks, (2, 0) only, go through tamper."""
    kernel = runtime.site_covariance

    def tampered(own, senders):
        local, crosses = kernel(own, senders)
        return local, tamper(crosses) if own.site == 0 else crosses

    monkeypatch.setattr(runtime, "site_covariance", tampered)
    rng = np.random.default_rng(43)
    blocks = blocks_for(rng.standard_normal((10, 6)), [2, 2, 2])
    return run_distributed(blocks, build_schedule(3), **kwargs)


def test_coordinator_refuses_a_duplicated_block(monkeypatch):
    with raises_exactly(ProtocolError, match=r"block \(2,0\)"):
        _run_with_site_0_blocks(monkeypatch, lambda crosses: crosses + crosses)


def test_coordinator_refuses_a_relabelled_block(monkeypatch):
    def relabel(crosses):
        # Site 2 holds columns 4 and 5; claim they are site 1's 2 and 3.
        return [
            CovBlock(c.site_a, c.site_b, c.block, (2, 3), c.cols_global_cols)
            for c in crosses
        ]

    message = r"^COV_BLOCK 0->3: block \(2,0\) indices are not the columns of sites 2 and 0$"
    with raises_exactly(ProtocolError, match=message):
        _run_with_site_0_blocks(monkeypatch, relabel)


def test_coordinator_names_a_missing_block(monkeypatch):
    message = (r"^site 0's turn: coordinator: DONE from 0 came before its blocks; "
               r"blocks not in: \(2, 0\)$")
    with raises_exactly(MissingFrame, match=message):
        _run_with_site_0_blocks(monkeypatch, lambda crosses: [])


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_dropped_block_fails_before_the_deadline(monkeypatch, transport):
    # Site 0's DONE is in, so the block was never sent: its turn fails at once.
    started = time.perf_counter()
    with raises_exactly(MissingFrame, match=r"^site 0's turn: .*; blocks not in: \(2, 0\)$"):
        _run_with_site_0_blocks(monkeypatch, lambda crosses: [], transport=transport)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "transport, cls", [("in-process", InProcessTransport), ("tcp", TcpTransport)]
)
def test_dropped_data_block_fails_before_the_deadline(monkeypatch, transport, cls):
    # At t=3 site 1 takes site 0's columns; they never reach its inbox.
    # Every frame sent is delivered inside its send, so the empty inbox
    # fails site 1's turn at once, before site 1 sends any block.
    deliver = cls._deliver

    def drop_0_to_1(self, msg):
        if (msg.kind, msg.sender, msg.receiver) == (MessageKind.DATA_BLOCK, 0, 1):
            return 0
        return deliver(self, msg)

    monkeypatch.setattr(cls, "_deliver", drop_0_to_1)
    rng = np.random.default_rng(53)
    blocks = blocks_for(rng.standard_normal((10, 6)), [2, 2, 2])
    started = time.perf_counter()
    message = (r"^site 1's turn: endpoint 1: no message in its inbox; "
               r"blocks not in: \(0, 1\), \(1, 1\)$")
    with raises_exactly(MissingFrame, match=message):
        run_distributed(blocks, build_schedule(3), transport=transport)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_late_stray_frame_is_refused(monkeypatch, transport):
    # At t=3 site 1 takes columns from site 0 only; site 2's columns reach
    # it after its turn, so no turn ever reads them.
    turn = runtime._site_turn

    def also_ship_to_site_1(net, schedule, blocks, site, *rest):
        timing = turn(net, schedule, blocks, site, *rest)
        if site == 2:
            net.send(ProtocolMessage(MessageKind.DATA_BLOCK, 2, 1, blocks[2]))
        return timing

    monkeypatch.setattr(runtime, "_site_turn", also_ship_to_site_1)
    rng = np.random.default_rng(51)
    blocks = blocks_for(rng.standard_normal((10, 6)), [2, 2, 2])
    with raises_exactly(ProtocolError, match=r"^endpoint 1: unread DATA_BLOCK from 2 to 1 "):
        run_distributed(blocks, build_schedule(3), transport=transport)


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_stray_frame_is_refused_after_the_turn_that_left_it(monkeypatch, transport):
    # Site 1 ships its columns back to site 0 at the end of its turn, when
    # site 0's turn is over: the run fails before site 2's kernel runs.
    turn, kernel = runtime._site_turn, runtime.site_covariance
    kernels = []

    def also_ship_to_site_0(net, schedule, blocks, site, *rest):
        timing = turn(net, schedule, blocks, site, *rest)
        if site == 1:
            net.send(ProtocolMessage(MessageKind.DATA_BLOCK, 1, 0, blocks[1]))
        return timing

    def counted(own, senders):
        kernels.append(own.site)
        return kernel(own, senders)

    monkeypatch.setattr(runtime, "_site_turn", also_ship_to_site_0)
    monkeypatch.setattr(runtime, "site_covariance", counted)
    rng = np.random.default_rng(56)
    blocks = blocks_for(rng.standard_normal((10, 6)), [2, 2, 2])
    with raises_exactly(
        ProtocolError, match="^endpoint 0: unread DATA_BLOCK from 1 to 0 at the end of a turn$"
    ):
        run_distributed(blocks, build_schedule(3), transport=transport)
    assert kernels == [0, 1]


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_coordinator_refuses_raw_columns(monkeypatch, transport):
    # Site 1 ships its own columns to the coordinator before its turn: the
    # coordinator takes only blocks and DONE markers.
    turn = runtime._site_turn

    def also_ship_to_the_coordinator(net, schedule, blocks, site, *rest):
        if site == 1:
            net.send(ProtocolMessage(MessageKind.DATA_BLOCK, 1, schedule.t, blocks[1]))
        return turn(net, schedule, blocks, site, *rest)

    monkeypatch.setattr(runtime, "_site_turn", also_ship_to_the_coordinator)
    rng = np.random.default_rng(55)
    blocks = blocks_for(rng.standard_normal((10, 6)), [2, 2, 2])
    with raises_exactly(ProtocolError, match="^coordinator received unexpected DATA_BLOCK from 1$"):
        run_distributed(blocks, build_schedule(3), transport=transport)


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_slow_site_is_not_a_failure(monkeypatch, transport):
    # A run has no timer: a slow kernel is waited for, and a deadline left
    # in the environment by an older version changes nothing.
    monkeypatch.setenv("DCM_DEADLINE_MS", "1")
    kernel = runtime.site_covariance

    def slow(own, senders):
        if own.site == 1:
            time.sleep(0.05)
        return kernel(own, senders)

    monkeypatch.setattr(runtime, "site_covariance", slow)
    rng = np.random.default_rng(54)
    blocks = blocks_for(rng.standard_normal((10, 6)), [2, 2, 2])
    cov, _, _ = run_distributed(blocks, build_schedule(3), transport=transport)
    assert cov.matrix == run_centralized(blocks)[0].matrix


def test_tcp_round_trip_starts_no_thread():
    before = threading.active_count()
    net = TcpTransport([0, 1, 2])
    try:
        for sender, receiver in [(0, 1), (1, 2), (2, 0), (0, 2)]:
            net.send(ProtocolMessage(MessageKind.DONE, sender, receiver))
        for receiver in [1, 2, 0, 2]:
            assert net.recv(receiver, 5.0).kind is MessageKind.DONE
        assert threading.active_count() == before
    finally:
        net.close()


def test_tcp_sends_a_frame_larger_than_the_socket_buffers(monkeypatch):
    # 16 MB fills the loopback buffers, so send must read its own frame
    # into the inbox while writing it: a blocking sendall would never return.
    waits = [0]  # writes that found the socket full, or took only part of the frame
    sendmsg = socket.socket.sendmsg

    def counted_sendmsg(self, buffers, *args):
        try:
            sent = sendmsg(self, buffers, *args)
        except BlockingIOError:
            waits[0] += 1
            raise
        waits[0] += sent < sum(map(len, buffers))
        return sent

    monkeypatch.setattr(socket.socket, "sendmsg", counted_sendmsg)
    rng = np.random.default_rng(50)
    block = ColumnBlock(
        site=1, data=DenseMatrix(rng.standard_normal((1000, 2000))), global_cols=tuple(range(2000))
    )
    net = TcpTransport([0, 1])
    try:
        stat = net.send(ProtocolMessage(MessageKind.DATA_BLOCK, 1, 0, block))
        assert stat.bytes > 16_000_000 and waits[0] > 0
        msg = net.recv(0, 5.0)
    finally:
        net.close()
    assert msg.payload.global_cols == block.global_cols
    assert msg.payload.data == block.data


def test_tcp_waits_on_a_full_socket_and_delivers_the_block_intact(monkeypatch):
    # Fixed socket buffers, not the host's autotuned ones: the small sending
    # end fills with bytes that the receiving end has read but not yet
    # acknowledged, so send finds neither end able to move and waits in select.
    full, waits = [0], [0]
    sendmsg, wait = socket.socket.sendmsg, select.select

    def counted_sendmsg(self, buffers, *args):
        try:
            return sendmsg(self, buffers, *args)
        except BlockingIOError:
            full[0] += 1
            raise

    def counted_select(*args):
        waits[0] += 1
        return wait(*args)

    monkeypatch.setattr(socket.socket, "sendmsg", counted_sendmsg)
    monkeypatch.setattr(select, "select", counted_select)
    rng = np.random.default_rng(52)
    block = ColumnBlock(site=1, data=DenseMatrix(rng.standard_normal((1000, 40))),
                        global_cols=tuple(range(40)))
    net = TcpTransport([0, 1])
    try:
        for sock in (net._sock, net._conn):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 131072)
        stat = net.send(ProtocolMessage(MessageKind.DATA_BLOCK, 1, 0, block))
        msg = net.recv(0)
    finally:
        net.close()
    assert stat.bytes > 300_000 and full[0] > 0 and waits[0] > 0
    assert msg.payload.global_cols == block.global_cols
    assert msg.payload.data == block.data


def test_tcp_reassembles_a_frame_sent_one_byte_at_a_time(monkeypatch):
    sendmsg, recv_into = socket.socket.sendmsg, socket.socket.recv_into
    reads = []  # bytes taken by each read that took any

    def counted_recv_into(self, buffer, *args):
        got = recv_into(self, buffer, *args)
        reads.append(got)
        return got

    monkeypatch.setattr(socket.socket, "sendmsg",
                        lambda self, buffers, *args: sendmsg(self, [buffers[0][:1]], *args))
    monkeypatch.setattr(socket.socket, "recv_into", counted_recv_into)
    block = ColumnBlock(site=1, data=DenseMatrix(np.reshape([1, 2, 3, 4, 5, 6], (3, 2))),
                        global_cols=(4, 7))
    net = TcpTransport([0, 1])
    try:
        net.send(ProtocolMessage(MessageKind.DATA_BLOCK, 1, 0, block))
        msg = net.recv(0, 5.0)
    finally:
        net.close()
    assert len(reads) > 1 and reads[0] < HEADER.size
    assert (msg.kind, msg.sender, msg.receiver) == (MessageKind.DATA_BLOCK, 1, 0)
    assert msg.payload.global_cols == (4, 7)
    assert msg.payload.data == block.data


@pytest.mark.parametrize("patch, message", [
    ("recv_into", "^edge 1->0: receiving end closed$"),
    ("sendmsg", "^send 1->0 failed: peer gone$"),
])
def test_tcp_send_fails_fast_when_an_end_fails(monkeypatch, patch, message):
    # A read of 0 bytes is end of file: without its check the loop would
    # select on a readable socket forever, so a second read fails the test.
    reads = []

    def fails(self, *args):
        if patch == "sendmsg":
            raise ConnectionResetError("peer gone")
        reads.append(0)
        assert len(reads) == 1, "read again after end of file"
        return 0

    before = open_fds()
    net = TcpTransport([0, 1])
    monkeypatch.setattr(socket.socket, patch, fails)
    try:
        started = time.perf_counter()
        with raises_exactly(ProtocolError, match=message):
            net.send(ProtocolMessage(MessageKind.DONE, 1, 0))
        assert time.perf_counter() - started < 1.0
    finally:
        net.close()
    assert open_fds() == before


def test_tcp_raises_small_socket_buffers_to_the_floor(monkeypatch):
    # Both ends start with an 8 KiB send and a 4 KiB receive buffer, which
    # stall a send on the kernel's delayed-ACK and zero-window timers; each
    # buffer must read at least 256 KiB once the transport is built.
    def small(sock):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        return sock

    connect, accept = socket.create_connection, socket.socket.accept

    def small_accept(self):
        conn, peer = accept(self)
        return small(conn), peer

    monkeypatch.setattr(socket, "create_connection", lambda *a, **kw: small(connect(*a, **kw)))
    monkeypatch.setattr(socket.socket, "accept", small_accept)
    net = TcpTransport([0, 1])
    try:
        for sock in (net._sock, net._conn):
            for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                assert sock.getsockopt(socket.SOL_SOCKET, option) >= 256 * 1024
    finally:
        net.close()


def test_tcp_refuses_a_peer_that_connects_before_its_own_socket(monkeypatch):
    before = open_fds()
    foreign = []
    connect = socket.create_connection

    def foreign_first(address, *args, **kwargs):
        foreign.append(connect(address))
        return connect(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", foreign_first)
    try:
        with raises_exactly(ProtocolError, match="^accepted a connection from .* not from "
                                                 "the transport's own socket"):
            TcpTransport([0, 1])
    finally:
        for sock in foreign:
            sock.close()
    assert len(foreign) == 1
    assert open_fds() == before


def test_tcp_holds_one_connection_whatever_the_site_count():
    before = open_fds()
    if before is None:
        pytest.skip("no /proc/self/fd to list")
    for t in (2, 6, 12):
        net = TcpTransport(range(t + 1))
        try:
            for j in range(t):
                for k in range(t + 1):
                    net.send(ProtocolMessage(MessageKind.DONE, j, k))
            assert len(open_fds() - before) == 2
        finally:
            net.close()
    assert open_fds() == before


# At t=32 a connection per directed edge would need 1,057 descriptors: a
# limit of 64 holds only if a run's sockets do not grow with t.
_T32_UNDER_64_FDS = """
import resource
from distcov import (build_schedule, matrix_checksum, partition_vertical, run_distributed,
                     synthetic_table)
from distcov.ingest import even_preset
blocks = partition_vertical(synthetic_table(50, 64, seed=3), even_preset(64, 32))
resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
cov, _, _ = run_distributed(blocks, build_schedule(32), transport="tcp")
print(matrix_checksum(cov.matrix))
"""


def test_tcp_run_at_32_sites_fits_in_64_descriptors():
    pytest.importorskip("resource")
    blocks = partition_vertical(synthetic_table(50, 64, seed=3), even_preset(64, 32))
    cov, _, _ = run_distributed(blocks, build_schedule(32), transport="in-process")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # the distcov this test imports
    child = subprocess.run(
        [sys.executable, "-c", _T32_UNDER_64_FDS], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == matrix_checksum(cov.matrix)


def test_tcp_runs_leave_no_file_descriptor_open(monkeypatch):
    before = open_fds()
    if before is None:
        pytest.skip("no /proc/self/fd to list")
    rng = np.random.default_rng(52)
    blocks = blocks_for(rng.standard_normal((20, 12)), [2] * 6)
    sched = build_schedule(6)
    for _ in range(4):
        run_distributed(blocks, sched, transport="tcp")
    kernel = runtime.site_covariance

    def site_3_fails(own, senders):
        if own.site == 3:
            raise RuntimeError("disk gone")
        return kernel(own, senders)

    monkeypatch.setattr(runtime, "site_covariance", site_3_fails)
    with raises_exactly(ProtocolError, match="^site 3 kernel failed"):
        run_distributed(blocks, sched, transport="tcp")
    assert open_fds() == before


def _assert_pinned(table: DenseMatrix, pinned: str) -> None:
    """The oracle's digest, and every run's at t = 1..6 on both transports."""
    assert matrix_checksum(centralized_covariance(table).matrix) == pinned
    for t in range(1, 7):
        blocks = partition_vertical(table, even_preset(table.cols, t))
        for transport in ("in-process", "tcp"):
            cov, _, _ = run_distributed(blocks, build_schedule(t), transport=transport)
            assert matrix_checksum(cov.matrix) == pinned, (t, transport)


def test_checksum_is_pinned_across_hosts():
    # Entries k/8 - 1 for k in 0..16 are exact in binary64 and no RNG is
    # involved, so every host reads the same input: another digest means
    # the arithmetic differs there.
    i, j = np.indices((64, 30))
    table = DenseMatrix(((7 * i + 13 * j) % 17) / 8 - 1)
    _assert_pinned(table, "d578ef67a47114596a8a77b74f8aeec777a6dd6cb862c06133edad83a40835c4")


def test_checksum_of_inexact_sums_is_pinned_across_hosts():
    # Entries k/17 - 1/2 are not exact in binary64, so a column's sum
    # rounds, and 1500 rows span three chunks. Unlike the eighths above,
    # whose sums are exact in any order, a change in the order the kernel
    # sums a mean or combines its levels can change this digest.
    i, j = np.indices((1500, 40))
    table = DenseMatrix(((7 * i + 13 * j) % 17) / 17 - 0.5)
    _assert_pinned(table, "f5aa41d3ea08cbc1cf921b20a8c2c2c25bcf2b1abe1686395541482d0c7ec041")


def test_distributed_matches_centralized_runner():
    rng = np.random.default_rng(32)
    blocks = blocks_for(rng.standard_normal((25, 7)), [2, 2, 3])
    cov_d, _, _ = run_distributed(blocks, build_schedule(3))
    cov_c, _, metrics = run_centralized(blocks)
    assert cov_d.matrix == cov_c.matrix
    assert cov_c.matrix == _oracle(blocks).matrix
    assert metrics.transfers == {}


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_run_distributed_is_the_exchange_then_the_decomposition(monkeypatch, transport):
    table = synthetic_table(30, 11, seed=34)
    spec = even_preset(11, 4)
    decompositions = []

    def counted(cov):
        decompositions.append(cov)
        return symmetric_eigen(cov)

    monkeypatch.setattr(runtime, "symmetric_eigen", counted)
    cov, decomp, metrics = run_distributed(
        partition_vertical(table, spec), build_schedule(4), transport=transport
    )
    assert decompositions == [cov]
    again = symmetric_eigen(cov)
    assert np.array(decomp.eigenvalues).tobytes() == np.array(again.eigenvalues).tobytes()
    assert decomp.eigenvectors == again.eigenvectors
    assert not any("eigen" in key for key in metrics.to_dict())
    canonical = cov.matrix.values.astype("<f8").tobytes()
    assert hashlib.sha256(canonical).hexdigest() == matrix_checksum(
        centralized_covariance(table).matrix)


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_csv_header_does_not_split_distributed_from_centralized(tmp_path, transport):
    rng = np.random.default_rng(33)
    path = tmp_path / "t.csv"
    np.savetxt(path, rng.standard_normal((12, 5)), fmt="%.17g", delimiter=",",
               header="a,b,c,d,e", comments="")
    blocks = partition_vertical(load_table(path, format="csv"), even_preset(5, 3))
    cov_d, _, _ = run_distributed(blocks, build_schedule(3), transport=transport)
    cov_c, _, _ = run_centralized(blocks)
    assert cov_d == cov_c


def test_unknown_transport():
    b = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1, 2], (2, 1))), global_cols=(0,))
    with raises_exactly(ProtocolError, match="unknown transport 'carrier-pigeon'"):
        run_distributed([b], build_schedule(1), transport="carrier-pigeon")


def test_transfer_bytes_are_encoded_frame_sizes():
    rng = np.random.default_rng(33)
    blocks = blocks_for(rng.standard_normal((20, 5)), [3, 2])
    _, _, metrics = run_distributed(blocks, build_schedule(2))
    expected = len(
        encode_message(ProtocolMessage(MessageKind.DATA_BLOCK, 0, 1, blocks[0]))
    )
    assert metrics.transfers[(0, 1)].bytes == expected


def test_site_validation():
    a = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1, 2, 3], (3, 1))), global_cols=(0,))
    b = ColumnBlock(site=2, data=DenseMatrix(np.reshape([4, 5, 6], (3, 1))), global_cols=(1,))
    with raises_exactly(DistCovError, match=r"block sites must be 0\.\.1, got \[0, 2\]"):
        run_distributed([a, b], build_schedule(2))  # sites 0,2 not 0,1
    with raises_exactly(DistCovError, match="schedule is for 2 sites, got 1 blocks"):
        run_distributed([a], build_schedule(2))  # schedule size mismatch


def test_row_count_validation():
    a = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1, 2, 3], (3, 1))), global_cols=(0,))
    b = ColumnBlock(site=1, data=DenseMatrix(np.reshape([4, 5], (2, 1))), global_cols=(1,))
    with raises_exactly(DistCovError, match="site 1 has 2 rows, site 0 has 3"):
        run_distributed([a, b], build_schedule(2))
    with raises_exactly(DistCovError, match="site 1 has 2 rows, site 0 has 3"):
        run_centralized([a, b])


def test_too_few_rows():
    a = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1], (1, 1))), global_cols=(0,))
    with raises_exactly(DistCovError, match='sample covariance needs at least 2 rows'):
        run_centralized([a])
    # A distributed run refuses it in site 0's turn, by site 0's kernel.
    b = ColumnBlock(site=1, data=DenseMatrix(np.reshape([2], (1, 1))), global_cols=(1,))
    with raises_exactly(DistCovError, match='^site 0: sample covariance needs at least 2 rows$'):
        run_distributed([a, b], build_schedule(2))


def test_centralized_single_column():
    a = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1, 2, 3], (3, 1))), global_cols=(0,))
    cov, decomp, _ = run_centralized([a])
    assert cov.dim == 1
    assert cov.matrix.values[0, 0] == 1.0
    assert decomp.eigenvalues == (1.0,)


def test_centralized_detects_column_gaps():
    a = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1, 2, 3], (3, 1))), global_cols=(0,))
    b = ColumnBlock(site=1, data=DenseMatrix(np.reshape([4, 5, 6], (3, 1))), global_cols=(2,))
    with raises_exactly(DistCovError, match="column 1 held by no site"):
        run_centralized([a, b])


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_failing_site_ends_the_run_at_once(monkeypatch, transport):
    t = 6
    kernel = runtime.site_covariance
    calls = itertools.count(1)
    failed: list[int] = []

    def last_one_fails(own, senders):
        # The last site to compute fails, once its peers are parked waiting for it.
        if next(calls) == t:
            failed.append(own.site)
            raise RuntimeError("disk gone")
        return kernel(own, senders)

    monkeypatch.setattr(runtime, "site_covariance", last_one_fails)
    rng = np.random.default_rng(39)
    blocks = blocks_for(rng.standard_normal((20, 12)), [2] * t)
    before = threading.active_count()
    started = time.perf_counter()
    with raises_exactly(ProtocolError, match="kernel failed: RuntimeError") as exc:
        run_distributed(blocks, build_schedule(t), transport=transport)
    assert time.perf_counter() - started < 1.0
    assert str(exc.value).startswith(f"site {failed[0]} kernel failed")
    assert threading.active_count() == before


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_overflowing_site_is_refused_before_it_sends(transport):
    # Site 1's column of +-1e300 has a variance of about 1e600.
    data = np.column_stack([np.arange(6.0), [1e300, -1e300] * 3, np.arange(6.0) ** 2])
    log: list = []
    with raises_exactly(DistCovError, match=r"^site 1: "):
        run_distributed(blocks_for(data, [1, 1, 1]), build_schedule(3), transport, log)
    assert (MessageKind.COV_BLOCK, 1) not in {(kind, sender) for kind, sender, *_ in log}


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_first_failure_stops_the_other_kernels(monkeypatch, transport):
    blocks = partition_vertical(synthetic_table(2000, 649, seed=5), mfeat_preset(6))
    kernel = runtime.site_covariance
    calls: list[int] = []

    def first_fails(own, senders):
        calls.append(own.site)
        if len(calls) == 1:
            raise RuntimeError("disk gone")
        return kernel(own, senders)

    monkeypatch.setattr(runtime, "site_covariance", first_fails)
    before = threading.active_count()
    started = time.perf_counter()
    with raises_exactly(ProtocolError, match="kernel failed: RuntimeError") as exc:
        run_distributed(blocks, build_schedule(6), transport=transport)
    assert time.perf_counter() - started < 1.0
    assert len(calls) == 1
    assert str(exc.value).startswith(f"site {calls[0]} kernel failed")
    assert threading.active_count() == before


@pytest.mark.parametrize("cols, message", [
    ([(0, 1), (1, 2)], "column 1 held by two sites"),
    ([(0, 1), (2, 4)], "column 3 held by no site"),
])
def test_column_ownership_is_checked_before_any_kernel(monkeypatch, cols, message):
    calls = [0]

    def counted(kernel):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return kernel(*args, **kwargs)
        return wrapper

    for name in ("site_covariance", "centralized_covariance"):
        monkeypatch.setattr(runtime, name, counted(getattr(runtime, name)))
    rng = np.random.default_rng(41)
    blocks = [
        ColumnBlock(site=k, data=DenseMatrix(rng.standard_normal((6, len(c)))), global_cols=c)
        for k, c in enumerate(cols)
    ]
    with raises_exactly(DistCovError, match=f"^{message}$"):
        run_distributed(blocks, build_schedule(2))
    with raises_exactly(DistCovError, match=f"^{message}$"):
        run_centralized(blocks)
    assert calls[0] == 0
    with raises_exactly(DistCovError, match=f"^{message}$"):
        merge_blocks([local_covariance(b) for b in blocks], [], 4)


def _three_site_lists():
    """Every t=3 schedule whose lists draw from the other two sites: 5**3."""
    for k_lists in itertools.product(range(5), repeat=3):
        lists = []
        for k, choice in enumerate(k_lists):
            a, b = (j for j in range(3) if j != k)
            lists.append(((), (a,), (b,), (a, b), (b, a))[choice])
        yield tuple(lists)


def test_schedule_proof_agrees_with_validate_schedule(monkeypatch):
    """The run refuses, before any kernel, exactly the t=3 schedules that a
    pair count made here finds wrong, and every one it accepts gives the
    oracle's bytes on both transports."""
    kernel = runtime.site_covariance
    calls, starts = [0], [0]
    start = threading.Thread.start

    def counted_kernel(own, senders):
        calls[0] += 1
        return kernel(own, senders)

    def counted_start(self):
        starts[0] += 1
        start(self)

    monkeypatch.setattr(runtime, "site_covariance", counted_kernel)
    monkeypatch.setattr(threading.Thread, "start", counted_start)
    rng = np.random.default_rng(44)
    blocks = blocks_for(rng.standard_normal((8, 5)), [2, 2, 1])
    oracle = run_centralized(blocks)[0].matrix
    every_pair = Counter({(0, 1): 1, (0, 2): 1, (1, 2): 1})
    refused, accepted = 0, 0
    for lists in _three_site_lists():
        covered = Counter(
            (min(j, k), max(j, k)) for k, senders in enumerate(lists) for j in senders
        )
        schedule = Schedule(predecessors=lists)
        calls[0] = starts[0] = 0
        try:
            cov = run_distributed(blocks, schedule)[0]
        except ProtocolError:
            assert covered != every_pair, lists
            assert calls[0] == starts[0] == 0, lists
            refused += 1
        else:
            assert covered == every_pair, lists
            assert cov.matrix == oracle, lists
            tcp = run_distributed(blocks, schedule, transport="tcp")[0]
            assert tcp.matrix == oracle, lists
            accepted += 1
    # 14 of the 125 cover each pair once: the two ring orientations, and 12
    # where one site receives from both others, such as ((1, 2), (2,), ()).
    assert refused == 111 and accepted == 14


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
@pytest.mark.parametrize("t, lists, pair", [
    (3, ((2,), (0,), ()), "(1, 2)"),  # a gap
    (2, ((5,), ()), "(0, 1)"),  # a site outside the run
    (3, ((2,), (0,)), "(1, 2)"),  # a 2-site schedule given 3 blocks
])
def test_bad_schedule_fails_before_any_thread(monkeypatch, transport, t, lists, pair):
    rng = np.random.default_rng(45)
    blocks = blocks_for(rng.standard_normal((8, 2 * t)), [2] * t)
    schedule = Schedule(predecessors=lists)
    # Every case leaves `pair` uncovered; a schedule for the wrong number of
    # sites is refused sooner, by its size.
    assert pair in map(str, pair_coverage(range(t), schedule.blocks())[1])
    if schedule.t == t:
        error, message = ProtocolError, f"site pair {pair} not covered"
    else:
        error, message = DistCovError, f"schedule is for {schedule.t} sites, got {t} blocks"
    before = threading.active_count()
    started = time.perf_counter()
    with raises_exactly(error, match=re.escape(message)):
        run_distributed(blocks, schedule, transport=transport)
    assert time.perf_counter() - started < 1.0
    assert threading.active_count() == before


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_any_orientation_of_the_site_pairs_equals_the_oracle(transport, data):
    """Any sender lists that cover each pair once are a correct schedule:
    each pair's receiver is drawn, and each list's order is shuffled."""
    t = data.draw(st.integers(min_value=2, max_value=6), label="t")
    lists = [[] for _ in range(t)]
    for a, b in itertools.combinations(range(t), 2):
        receiver, sender = (a, b) if data.draw(st.booleans()) else (b, a)
        lists[receiver].append(sender)
    lists = [tuple(data.draw(st.permutations(senders))) for senders in lists]
    rng = np.random.default_rng(46)
    blocks = blocks_for(rng.standard_normal((7, 2 * t)), [2] * t)
    oracle = run_centralized(blocks)[0].matrix
    cov = run_distributed(blocks, Schedule(predecessors=tuple(lists)), transport=transport)[0]
    assert cov.matrix == oracle, lists


def test_critical_path_aggregation():
    metrics = RunMetrics(
        site_cov_cpu_ms=(9.0, 7.0, 12.0),
        transfers={
            (2, 0): TransferStat(bytes=10, ms=1.0),
            (0, 1): TransferStat(bytes=10, ms=5.0),
            (1, 2): TransferStat(bytes=10, ms=2.0),
        },
    )
    # per-site inbound + kernel = 10, 12, 14 -> 14
    assert critical_path_ms(metrics) == pytest.approx(14.0)


def test_metrics_serialization():
    metrics = RunMetrics(
        site_cov_cpu_ms=(0.9, 1.8),
        transfers={(0, 1): TransferStat(bytes=5, ms=0.5)},
        merge_ms=0.1,
        protocol_ms=1.5,
    )
    doc = metrics.to_dict()
    assert doc["site_cov_cpu_ms"] == [0.9, 1.8]
    assert doc["transfers"] == [{"from": 0, "to": 1, "bytes": 5, "ms": 0.5}]
    assert doc["merge_ms"] == 0.1
    assert doc["protocol_ms"] == 1.5
    assert list(doc) == ["site_cov_cpu_ms", "transfers", "merge_ms", "protocol_ms"]
