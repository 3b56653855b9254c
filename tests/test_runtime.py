from __future__ import annotations

import itertools
import re
import socket
import threading
import time

import numpy as np
import pytest

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
    local_covariance,
    merge_blocks,
    mfeat_preset,
    new_matrix,
    partition_vertical,
    run_centralized,
    run_distributed,
    synthetic_table,
    validate_schedule,
)
from distcov.errors import (
    CoverageError,
    DimensionMismatch,
    DistCovError,
    OverlappingPair,
    RowCountMismatch,
    TimeoutError,
    TooFewRows,
    TransportError,
)
import distcov.covariance as covariance
import distcov.runtime as runtime
from distcov.runtime import (
    DEFAULT_DEADLINE_MS,
    RunMetrics,
    InProcessTransport,
    TcpTransport,
    TransferStat,
    _deadline_ms,
)
from distcov.wire import HEADER, MAGIC, largest_frame
from conftest import blocks_for


def _oracle(blocks):
    widths = [b.data.cols for b in blocks]
    data = np.hstack([b.data.values for b in blocks])
    return centralized_covariance(DenseMatrix(np.ascontiguousarray(data)))


def test_three_site_fixture_matches_oracle(three_site_blocks, three_site_matrix):
    cov, decomp, metrics = run_distributed(three_site_blocks, build_schedule(3))
    oracle = centralized_covariance(three_site_matrix)
    assert cov.matrix.tobytes() == oracle.matrix.tobytes()
    assert len(decomp.eigenvalues) == 5
    assert metrics.total_ms >= metrics.protocol_ms > 0


def test_single_site_degenerate_run():
    b = ColumnBlock(site=0, data=new_matrix(3, 2, [1, 3, 2, 2, 3, 1]), global_cols=(0, 1))
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
    with pytest.raises(TransportError, match="^site 0 worker failed"):
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
    assert cov_q.matrix.tobytes() == cov_t.matrix.tobytes()


def test_tcp_refuses_oversized_frame_before_allocating():
    net = TcpTransport([0, 1], max_frame=largest_frame(10, [3, 2]))
    try:
        with socket.create_connection(("127.0.0.1", net._ports[0])) as sock:
            sock.sendall(HEADER.pack(MAGIC, int(MessageKind.DATA_BLOCK), 1, 0, 2**60))
            started = time.perf_counter()
            with pytest.raises(TransportError, match="largest legal frame"):
                net.recv(0, 5.0)
            assert time.perf_counter() - started < 1.0
    finally:
        net.close()


def test_largest_frame_is_the_largest_frame_a_run_sends():
    rng = np.random.default_rng(35)
    blocks = blocks_for(rng.standard_normal((20, 9)), [2, 5, 2])
    log: list = []
    run_distributed(blocks, build_schedule(3), transport="tcp", message_log=log)
    assert max(size for *_, size in log) == largest_frame(20, [2, 5, 2])


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
    assert cov_d.matrix.tobytes() == cov_c.matrix.tobytes()


@pytest.mark.parametrize("transport, threads", [("in-process", 0), ("tcp", 1)])
def test_sites_start_no_threads(monkeypatch, transport, threads):
    starts = [0]
    start = threading.Thread.start

    def counted_start(self):
        starts[0] += 1
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    rng = np.random.default_rng(46)
    blocks = blocks_for(rng.standard_normal((40, 14)), [3, 2, 2, 3, 2, 2])
    cov_d, _, _ = run_distributed(blocks, build_schedule(6), transport=transport)
    assert starts[0] == threads  # the TCP transport's one I/O thread, else none
    cov_c, _, _ = run_centralized(blocks)
    assert cov_d.matrix.tobytes() == cov_c.matrix.tobytes()


def test_site_refuses_raw_columns_from_a_non_predecessor(monkeypatch):
    # At t=3 site 0 ships only to site 1; a copy of that frame also reaches
    # site 2's inbox, ahead of the columns site 2 expects from site 1.
    deliver = InProcessTransport._deliver

    def also_to_site_2(self, msg, frame):
        deliver(self, msg, frame)
        if msg.kind is MessageKind.DATA_BLOCK and msg.sender == 0:
            self._inbox[2].put(frame)

    monkeypatch.setattr(InProcessTransport, "_deliver", also_to_site_2)
    rng = np.random.default_rng(47)
    blocks = blocks_for(rng.standard_normal((10, 6)), [2, 2, 2])
    before = threading.active_count()
    started = time.perf_counter()
    with pytest.raises(
        TransportError, match="^site 2 expected DATA_BLOCK from 1, received DATA_BLOCK from 0$"
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
    with pytest.raises(OverlappingPair, match=r"block \(2,0\)"):
        _run_with_site_0_blocks(monkeypatch, lambda crosses: crosses + crosses)


def test_coordinator_refuses_a_relabelled_block(monkeypatch):
    def relabel(crosses):
        # Site 2 holds columns 4 and 5; claim they are site 1's 2 and 3.
        return [
            CovBlock(c.site_a, c.site_b, c.block, (2, 3), c.cols_global_cols)
            for c in crosses
        ]

    with pytest.raises(DimensionMismatch, match="not the columns of sites 2 and 0"):
        _run_with_site_0_blocks(monkeypatch, relabel)


def test_coordinator_names_a_missing_block(monkeypatch):
    with pytest.raises(TimeoutError) as exc:
        _run_with_site_0_blocks(monkeypatch, lambda crosses: [], deadline_ms=300.0)
    text = str(exc.value)
    assert text.split("missing blocks (site_a, site_b): ")[1].split(";")[0] == "(2, 0)"
    assert text.split("no DONE from sites: ")[1] == "none"


def test_tcp_transport_runs_one_io_thread():
    before = threading.active_count()
    net = TcpTransport([0, 1, 2])
    try:
        assert threading.active_count() == before + 1
        for sender, receiver in [(0, 1), (1, 2), (2, 0), (0, 2)]:
            net.send(ProtocolMessage(MessageKind.DONE, sender, receiver))
        for receiver in [1, 2, 0, 2]:
            assert net.recv(receiver, 5.0).kind is MessageKind.DONE
        assert threading.active_count() == before + 1
    finally:
        net.close()
    assert threading.active_count() == before


def test_tcp_reassembles_a_frame_sent_one_byte_at_a_time():
    block = ColumnBlock(site=1, data=new_matrix(3, 2, [1, 2, 3, 4, 5, 6]), global_cols=(4, 7))
    frame = encode_message(ProtocolMessage(MessageKind.DATA_BLOCK, 1, 0, block))
    net = TcpTransport([0, 1], max_frame=len(frame))
    try:
        with socket.create_connection(("127.0.0.1", net._ports[0])) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(frame)):
                sock.sendall(frame[i : i + 1])
                if i < HEADER.size:
                    time.sleep(0.002)  # let the I/O thread wake inside the header
            msg = net.recv(0, 5.0)
    finally:
        net.close()
    assert (msg.kind, msg.sender, msg.receiver) == (MessageKind.DATA_BLOCK, 1, 0)
    assert msg.payload.global_cols == (4, 7)
    assert msg.payload.data.tobytes() == block.data.tobytes()


def test_distributed_matches_centralized_runner():
    rng = np.random.default_rng(32)
    blocks = blocks_for(rng.standard_normal((25, 7)), [2, 2, 3])
    cov_d, _, _ = run_distributed(blocks, build_schedule(3))
    cov_c, _, metrics = run_centralized(blocks)
    assert cov_d.matrix.tobytes() == cov_c.matrix.tobytes()
    assert cov_c.matrix.tobytes() == _oracle(blocks).matrix.tobytes()
    assert metrics.transfers == {}


def test_unknown_transport():
    b = ColumnBlock(site=0, data=new_matrix(2, 1, [1, 2]), global_cols=(0,))
    with pytest.raises(TransportError):
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
    a = ColumnBlock(site=0, data=new_matrix(3, 1, [1, 2, 3]), global_cols=(0,))
    b = ColumnBlock(site=2, data=new_matrix(3, 1, [4, 5, 6]), global_cols=(1,))
    with pytest.raises(DimensionMismatch):
        run_distributed([a, b], build_schedule(2))  # sites 0,2 not 0,1
    with pytest.raises(DimensionMismatch):
        run_distributed([a], build_schedule(2))  # schedule size mismatch


def test_row_count_validation():
    a = ColumnBlock(site=0, data=new_matrix(3, 1, [1, 2, 3]), global_cols=(0,))
    b = ColumnBlock(site=1, data=new_matrix(2, 1, [4, 5]), global_cols=(1,))
    with pytest.raises(RowCountMismatch):
        run_distributed([a, b], build_schedule(2))
    with pytest.raises(RowCountMismatch):
        run_centralized([a, b])


def test_too_few_rows():
    a = ColumnBlock(site=0, data=new_matrix(1, 1, [1]), global_cols=(0,))
    with pytest.raises(TooFewRows):
        run_centralized([a])


def test_centralized_single_column():
    a = ColumnBlock(site=0, data=new_matrix(3, 1, [1, 2, 3]), global_cols=(0,))
    cov, decomp, _ = run_centralized([a])
    assert cov.dim == 1
    assert cov.matrix.values[0, 0] == 1.0
    assert decomp.eigenvalues == (1.0,)


def test_centralized_detects_column_gaps():
    a = ColumnBlock(site=0, data=new_matrix(3, 1, [1, 2, 3]), global_cols=(0,))
    b = ColumnBlock(site=1, data=new_matrix(3, 1, [4, 5, 6]), global_cols=(2,))
    with pytest.raises(DimensionMismatch):
        run_centralized([a, b])


def test_deadline_zero_times_out():
    rng = np.random.default_rng(34)
    blocks = blocks_for(rng.standard_normal((10, 4)), [2, 2])
    with pytest.raises(TimeoutError):
        run_distributed(blocks, build_schedule(2), deadline_ms=0.0)


def test_timeout_names_the_missing_blocks(monkeypatch):
    kernel = runtime.site_covariance

    def stalled(own, senders):
        if own.site == 0:  # site 0 computes the (2, 0) block
            time.sleep(0.6)
        return kernel(own, senders)

    monkeypatch.setattr(runtime, "site_covariance", stalled)
    rng = np.random.default_rng(37)
    blocks = blocks_for(rng.standard_normal((10, 6)), [2, 2, 2])
    with pytest.raises(TimeoutError) as exc:
        run_distributed(blocks, build_schedule(3), deadline_ms=200.0)
    text = str(exc.value)
    missing = text.split("missing blocks (site_a, site_b): ")[1].split(";")[0]
    silent = text.split("no DONE from sites: ")[1]
    assert "(2, 0)" in missing
    assert "0" in silent.split(", ")


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_timeout_names_the_site_that_overran(monkeypatch, transport):
    kernel = runtime.site_covariance

    def stalled(own, senders):
        if own.site == 3:
            time.sleep(0.4)
        return kernel(own, senders)

    monkeypatch.setattr(runtime, "site_covariance", stalled)
    rng = np.random.default_rng(48)
    blocks = blocks_for(rng.standard_normal((20, 12)), [2] * 6)
    sched = build_schedule(6)
    with pytest.raises(TimeoutError) as exc:
        run_distributed(blocks, sched, transport=transport, deadline_ms=300.0)
    text = str(exc.value)
    assert text.endswith("no DONE from sites: 3, 4, 5")
    missing = text.split("missing blocks (site_a, site_b): ")[1].split(";")[0]
    assert missing == ", ".join(map(str, sorted(p for p in sched.blocks() if p[1] >= 3)))


def test_deadline_resolution(monkeypatch):
    assert _deadline_ms(1234.0) == 1234.0
    monkeypatch.setenv("DCM_DEADLINE_MS", "2500")
    assert _deadline_ms(None) == 2500.0
    assert _deadline_ms(90.0) == 90.0  # explicit argument wins
    monkeypatch.delenv("DCM_DEADLINE_MS")
    assert _deadline_ms(None) == DEFAULT_DEADLINE_MS


@pytest.mark.parametrize("override, env, expected", [
    (float("nan"), None, "deadline_ms must be a finite number >= 0, got nan"),
    (float("inf"), None, "deadline_ms must be a finite number >= 0, got inf"),
    (-5.0, None, "deadline_ms must be a finite number >= 0, got -5.0"),
    (None, "abc", "DCM_DEADLINE_MS must be a finite number >= 0, got 'abc'"),
    (None, "nan", "DCM_DEADLINE_MS must be a finite number >= 0, got 'nan'"),
    (None, "-1", "DCM_DEADLINE_MS must be a finite number >= 0, got '-1'"),
])
def test_bad_deadline_is_refused_before_any_thread(monkeypatch, override, env, expected):
    if env is None:
        monkeypatch.delenv("DCM_DEADLINE_MS", raising=False)
    else:
        monkeypatch.setenv("DCM_DEADLINE_MS", env)
    rng = np.random.default_rng(38)
    blocks = blocks_for(rng.standard_normal((10, 6)), [2, 2, 2])
    before = threading.active_count()
    with pytest.raises(ValueError) as exc:
        run_distributed(blocks, build_schedule(3), transport="tcp", deadline_ms=override)
    assert str(exc.value) == expected
    assert threading.active_count() == before


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
    with pytest.raises(TransportError, match="worker failed: RuntimeError") as exc:
        run_distributed(blocks, build_schedule(t), transport=transport)
    assert time.perf_counter() - started < 1.0
    assert str(exc.value).startswith(f"site {failed[0]} worker failed")
    assert threading.active_count() == before


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
    with pytest.raises(TransportError, match="worker failed: RuntimeError") as exc:
        run_distributed(blocks, build_schedule(6), transport=transport)
    assert time.perf_counter() - started < 1.0
    assert len(calls) == 1
    assert str(exc.value).startswith(f"site {calls[0]} worker failed")
    assert threading.active_count() == before


@pytest.mark.parametrize("make", [InProcessTransport, TcpTransport])
def test_close_wakes_a_parked_receiver(make):
    net = make([0, 1])
    raised: list[BaseException] = []

    def park():
        try:
            net.recv(0, 60.0)
        except BaseException as exc:
            raised.append(exc)

    receiver = threading.Thread(target=park)
    receiver.start()
    time.sleep(0.05)  # let it park
    started = time.perf_counter()
    net.close()
    receiver.join(timeout=5.0)
    assert not receiver.is_alive()
    assert time.perf_counter() - started < 1.0
    assert len(raised) == 1 and isinstance(raised[0], TransportError)
    assert "transport closed" in str(raised[0])


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_expired_deadline_names_the_missing_blocks(transport):
    # At deadline 0 every site times out in recv too; the coordinator's
    # report of what never arrived must still be the error the caller sees.
    rng = np.random.default_rng(40)
    blocks = blocks_for(rng.standard_normal((10, 12)), [2] * 6)
    with pytest.raises(TimeoutError, match=r"missing blocks \(site_a, site_b\): \(0, 0\)"):
        run_distributed(blocks, build_schedule(6), transport=transport, deadline_ms=0.0)


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
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        run_distributed(blocks, build_schedule(2))
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        run_centralized(blocks)
    assert calls[0] == 0
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
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
    oracle = run_centralized(blocks)[0].matrix.tobytes()
    refused, unbalanced = 0, 0
    for lists in _three_site_lists():
        schedule = Schedule(t=3, r=1, predecessors=lists)
        rep = validate_schedule(schedule)
        calls[0] = starts[0] = 0
        try:
            cov = run_distributed(blocks, schedule)[0]
        except CoverageError:
            assert rep.gaps or rep.duplicates, lists
            assert calls[0] == starts[0] == 0, lists
            refused += 1
        else:
            assert not rep.gaps and not rep.duplicates, lists
            assert cov.matrix.tobytes() == oracle, lists
            unbalanced += not rep.valid  # correct, but a list is longer than r
    # 14 of the 125 cover each pair once: the two ring orientations, and 12
    # where one site receives from both others, such as ((1, 2), (2,), ()).
    assert refused == 111 and unbalanced == 12


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
@pytest.mark.parametrize("t, lists, pair", [
    (3, ((2,), (0,), ()), "(1, 2)"),  # a gap
    (2, ((5,), ()), "(0, 1)"),  # a site outside the run
    (3, ((2,), (0,)), "(1, 2)"),  # fewer lists than sites
])
def test_bad_schedule_fails_before_any_thread(monkeypatch, transport, t, lists, pair):
    monkeypatch.delenv("DCM_DEADLINE_MS", raising=False)
    rng = np.random.default_rng(45)
    blocks = blocks_for(rng.standard_normal((8, 2 * t)), [2] * t)
    before = threading.active_count()
    started = time.perf_counter()
    with pytest.raises(DistCovError, match=re.escape(f"site pair {pair} not covered")):
        run_distributed(blocks, Schedule(t=t, r=1, predecessors=lists), transport=transport)
    assert time.perf_counter() - started < 1.0
    assert threading.active_count() == before


def test_critical_path_aggregation():
    sched = build_schedule(3)  # preds: [[2], [0], [1]]  (t=3, r=1)
    metrics = RunMetrics(
        site_cov_ms=(50.0, 50.0, 50.0),  # wall readings are not used
        site_cov_cpu_ms=(9.0, 7.0, 12.0),
        transfers={
            (2, 0): TransferStat(bytes=10, ms=1.0),
            (0, 1): TransferStat(bytes=10, ms=5.0),
            (1, 2): TransferStat(bytes=10, ms=2.0),
        },
    )
    # per-site inbound + kernel = 10, 12, 14 -> 14
    assert critical_path_ms(metrics, sched) == pytest.approx(14.0)


def test_metrics_serialization():
    metrics = RunMetrics(
        site_cov_ms=(1.0, 2.0),
        site_cov_cpu_ms=(0.9, 1.8),
        transfers={(0, 1): TransferStat(bytes=5, ms=0.5)},
        merge_ms=0.1,
        eigen_ms=0.2,
        protocol_ms=1.5,
        total_ms=1.7,
    )
    doc = metrics.to_dict()
    assert doc["site_cov_ms"] == [1.0, 2.0]
    assert doc["site_cov_cpu_ms"] == [0.9, 1.8]
    assert doc["transfers"] == [{"from": 0, "to": 1, "bytes": 5, "ms": 0.5}]
    assert doc["total_ms"] == 1.7
