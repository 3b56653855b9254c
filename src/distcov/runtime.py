"""Protocol runtime: site turns, a coordinator, and two transports.

The sites take turns on the caller's thread, in site order, and each turn
is self-contained: every predecessor of the site ships its raw columns and
the site takes them from its inbox at once, makes one kernel call
(`site_covariance`) for its local block and all its cross blocks, and sends
every block and DONE to the coordinator (reserved endpoint id = t). The
coordinator then takes frames until that site's DONE is in, writing each
block into the m x m matrix, before the next site's turn starts. So a run
holds one site's shipped columns at a time, a failing kernel ends the run
before any later site ships, and a timeout names the site whose turn
overran. Before any socket exists, the coordinator's `_Assembler` proves
that the sites' columns partition the table and that the schedule's blocks
cover every pair of sites exactly once. Once the last block is in, only the
eigen-decomposition is left.

Both transports move the same encoded frames, so byte counts are real and
the merged matrix is bit-identical either way: in-process puts frames
straight into the receiver's inbox, TCP uses loopback sockets with one
connection per directed edge, all read by a single I/O thread.

Each endpoint has one FIFO inbox, and it is the only way anything reaches
the endpoint: frames, failures and shutdown. A failure in a site's turn or
in the coordinator's loop propagates to the caller; the transport is closed
on the way out, which stops the TCP I/O thread.
"""

from __future__ import annotations

import math
import os
import queue
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .covariance import (
    ColumnBlock,
    CovBlock,
    GlobalCovariance,
    _Assembler,
    _column_count,
    centralized_covariance,
    site_covariance,
)
from .eigen import EigenDecomposition, symmetric_eigen
from .errors import (
    DimensionMismatch,
    DistCovError,
    RowCountMismatch,
    TimeoutError,
    TooFewRows,
    TransportError,
)
from .matrix import DenseMatrix
from .schedule import Schedule
from .wire import (
    HEADER,
    MessageKind,
    ProtocolMessage,
    decode_message,
    encode_message,
    largest_frame,
)

__all__ = [
    "TransferStat",
    "RunMetrics",
    "InProcessTransport",
    "TcpTransport",
    "run_distributed",
    "run_centralized",
    "critical_path_ms",
    "DEFAULT_DEADLINE_MS",
]

DEFAULT_DEADLINE_MS = 60_000.0


def _deadline_ms(override: float | None) -> float:
    """The argument, else DCM_DEADLINE_MS, else 60 s; ValueError unless it
    is a finite number >= 0."""
    source, value = "deadline_ms", override
    if value is None:
        source = "DCM_DEADLINE_MS"
        value = os.environ.get(source) or DEFAULT_DEADLINE_MS
    try:
        ms = float(value)
    except ValueError:
        ms = math.nan
    if not (math.isfinite(ms) and ms >= 0):
        raise ValueError(f"{source} must be a finite number >= 0, got {value!r}")
    return ms


@dataclass(frozen=True)
class TransferStat:
    """One raw-data shipment: encoded frame size and send wall time."""

    bytes: int
    ms: float


@dataclass(frozen=True)
class RunMetrics:
    """Timing breakdown of one run, all values in milliseconds.

    Each site's one kernel call (its local block and all its cross blocks)
    carries two readings: wall time (`site_cov_ms`) and per-thread CPU time
    (`site_cov_cpu_ms`). The sites take turns, so neither counts another
    site's kernel; the CPU reading is what the site would spend on a
    processor of its own. `transfers` is keyed by directed edge (sender,
    receiver) and covers raw column shipments only. `merge_ms` is what
    assembly leaves after the last message: the matrix's final checks.
    """

    site_cov_ms: tuple[float, ...]
    site_cov_cpu_ms: tuple[float, ...]
    transfers: dict[tuple[int, int], TransferStat] = field(default_factory=dict)
    merge_ms: float = 0.0
    eigen_ms: float = 0.0
    protocol_ms: float = 0.0
    total_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "site_cov_ms": list(self.site_cov_ms),
            "site_cov_cpu_ms": list(self.site_cov_cpu_ms),
            "transfers": [
                {"from": j, "to": k, "bytes": s.bytes, "ms": s.ms}
                for (j, k), s in sorted(self.transfers.items())
            ],
            "merge_ms": self.merge_ms,
            "eigen_ms": self.eigen_ms,
            "protocol_ms": self.protocol_ms,
            "total_ms": self.total_ms,
        }


def critical_path_ms(metrics: RunMetrics, schedule: Schedule) -> float:
    """Distributed time with one processor per site, derived from the
    measured per-site phases.

    Each site receives its predecessors' columns, then makes its one kernel
    call, and the sites do so concurrently, so the protocol takes the
    slowest site's inbound transfers plus kernel. Kernel costs are the
    per-thread CPU readings, which stay honest when one host runs every
    site's kernel in turn.
    """
    return max(
        metrics.site_cov_cpu_ms[k]
        + sum(
            metrics.transfers[(j, k)].ms
            for j in schedule.predecessors[k]
            if (j, k) in metrics.transfers
        )
        for k in range(schedule.t)
    )


class _Inboxes:
    """One FIFO inbox per endpoint, the only way anything reaches an endpoint.

    An inbox holds encoded frames and exceptions. `recv` decodes a frame and
    raises an exception; `fail` queues one, and `close` fails every endpoint,
    so no receiver stays parked behind a closed transport. Subclasses supply
    `_deliver`, which moves one encoded frame towards its receiver's inbox.
    """

    def __init__(self, endpoints, log: list | None = None):
        self._inbox: dict[int, queue.Queue] = {e: queue.Queue() for e in endpoints}
        self._log = log
        self._log_lock = threading.Lock()

    def _deliver(self, msg: ProtocolMessage, frame) -> None:
        raise NotImplementedError

    def send(self, msg: ProtocolMessage) -> TransferStat:
        t0 = time.perf_counter()
        frame = encode_message(msg)
        if msg.receiver not in self._inbox:
            raise TransportError(f"no endpoint {msg.receiver}")
        self._deliver(msg, frame)
        ms = (time.perf_counter() - t0) * 1e3
        if self._log is not None:
            with self._log_lock:
                self._log.append((msg.kind, msg.sender, msg.receiver, len(frame)))
        return TransferStat(bytes=len(frame), ms=ms)

    def recv(self, endpoint: int, timeout_s: float) -> ProtocolMessage:
        try:
            if timeout_s <= 0:  # the deadline has passed (Queue.get refuses < 0)
                raise queue.Empty
            item = self._inbox[endpoint].get(timeout=timeout_s)
        except queue.Empty:
            raise TimeoutError(
                f"endpoint {endpoint}: no message within {timeout_s:.3f}s"
            ) from None
        if isinstance(item, BaseException):
            raise item
        return decode_message(item)

    def fail(self, endpoint: int, exc: BaseException) -> None:
        """Make the endpoint's next `recv` raise `exc`."""
        self._inbox[endpoint].put(exc)

    def close(self) -> None:
        for e in self._inbox:
            self.fail(e, TransportError(f"endpoint {e}: transport closed"))


class InProcessTransport(_Inboxes):
    """Frames are encoded/decoded exactly as on TCP and put straight into
    the receiver's inbox."""

    def _deliver(self, msg: ProtocolMessage, frame) -> None:
        self._inbox[msg.receiver].put(frame)


class _Inbound:
    """Read state of one accepted connection: a header buffer until the
    header is complete, then one buffer of the declared frame size."""

    __slots__ = ("endpoint", "buf", "got")

    def __init__(self, endpoint: int):
        self.endpoint = endpoint
        self.buf = bytearray(HEADER.size)
        self.got = 0


class TcpTransport(_Inboxes):
    """Loopback sockets: one listener per endpoint, one connection per
    directed edge, and one I/O thread that accepts and reads them all.

    The I/O thread waits on every socket with one selector and never
    blocks on a single connection, so `send` can stay a blocking `sendall`
    on the caller's thread: whatever is sent is drained into an unbounded
    per-endpoint inbox, and the protocol cannot deadlock on socket buffers.
    Each frame is received into one buffer of its declared size, filled
    across wake-ups; a declared size above `max_frame` bytes is refused
    before anything is allocated, and the endpoint's next `recv` raises
    TransportError.
    """

    def __init__(self, endpoints, log: list | None = None, max_frame: int | None = None):
        super().__init__(endpoints, log)
        self._max_frame = max_frame
        self._conn_lock = threading.Lock()
        self._conns: dict[tuple[int, int], socket.socket] = {}
        self._ports: dict[int, int] = {}
        self._selector = selectors.DefaultSelector()
        # close() closes the write end; the read end then selects as readable.
        self._wake, self._wake_writer = socket.socketpair()
        self._selector.register(self._wake, selectors.EVENT_READ, None)
        for e in endpoints:
            srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            srv.bind(("127.0.0.1", 0))
            srv.listen()
            srv.setblocking(False)
            self._selector.register(srv, selectors.EVENT_READ, e)
            self._ports[e] = srv.getsockname()[1]
        self._io = threading.Thread(target=self._io_loop, daemon=True)
        self._io.start()

    def _io_loop(self) -> None:
        while True:
            for key, _ in self._selector.select():
                if key.data is None:
                    return  # woken by close()
                if isinstance(key.data, _Inbound):
                    self._read(key.fileobj, key.data)
                else:
                    self._accept(key.fileobj, key.data)

    def _accept(self, srv: socket.socket, endpoint: int) -> None:
        try:
            conn, _ = srv.accept()
        except BlockingIOError:
            return  # the peer gave up before we got to it
        conn.setblocking(False)
        self._selector.register(conn, selectors.EVENT_READ, _Inbound(endpoint))

    def _read(self, conn: socket.socket, st: _Inbound) -> None:
        """Take what the socket holds now; deliver every frame it completes."""
        while True:
            try:
                got = conn.recv_into(memoryview(st.buf)[st.got :])
            except BlockingIOError:
                return
            except OSError:
                got = 0
            if not got:  # peer closed, mid-frame or not
                self._drop(conn)
                return
            st.got += got
            if st.got < len(st.buf):
                continue
            if st.got == HEADER.size:  # a full header; frame buffers are always longer
                size = HEADER.size + HEADER.unpack_from(st.buf)[4]
                if self._max_frame is not None and size > self._max_frame:
                    self.fail(st.endpoint, TransportError(
                        f"endpoint {st.endpoint}: frame of {size} bytes exceeds the "
                        f"largest legal frame of {self._max_frame} bytes"
                    ))
                    self._drop(conn)
                    return
                if size > HEADER.size:
                    frame = bytearray(size)
                    frame[: HEADER.size] = st.buf
                    st.buf = frame
                    continue
            self._inbox[st.endpoint].put(st.buf)
            st.buf, st.got = bytearray(HEADER.size), 0

    def _drop(self, conn: socket.socket) -> None:
        self._selector.unregister(conn)
        conn.close()

    def _connection(self, sender: int, receiver: int) -> socket.socket:
        key = (sender, receiver)
        with self._conn_lock:
            sock = self._conns.get(key)
            if sock is None:
                sock = socket.create_connection(("127.0.0.1", self._ports[receiver]))
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._conns[key] = sock
        return sock

    def _deliver(self, msg: ProtocolMessage, frame) -> None:
        try:
            self._connection(msg.sender, msg.receiver).sendall(frame)
        except OSError as exc:
            raise TransportError(
                f"send {msg.sender}->{msg.receiver} failed: {exc}"
            ) from None

    def close(self) -> None:
        """Stop the I/O thread, close every socket this transport opened,
        then fail every endpoint."""
        self._wake_writer.close()
        self._io.join()
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()
        with self._conn_lock:
            for sock in self._conns.values():
                sock.close()
            self._conns.clear()
        super().close()


def _site_turn(
    net, schedule: Schedule, blocks, site: int, deadline: float, transfers: dict
) -> tuple[float, float]:
    """Site `site`'s turn: its predecessors ship their raw columns, which it
    takes from its inbox at once; it makes its one kernel call and sends
    every block and DONE to the coordinator. Records each shipment in
    `transfers`; returns the kernel call's wall and CPU time in ms."""
    coordinator, senders = schedule.t, []
    for j in schedule.senders_to(site):
        shipment = ProtocolMessage(MessageKind.DATA_BLOCK, j, site, blocks[j])
        transfers[(j, site)] = net.send(shipment)
        msg = net.recv(site, deadline - time.perf_counter())
        # A DATA_BLOCK comes from the site whose columns it carries.
        origin = msg.payload.site if msg.kind is MessageKind.DATA_BLOCK else msg.sender
        if (msg.kind, origin) != (MessageKind.DATA_BLOCK, j):
            raise TransportError(
                f"site {site} expected DATA_BLOCK from {j}, received {msg.kind.name} from {origin}"
            )
        senders.append(msg.payload)

    t0, c0 = time.perf_counter(), time.thread_time()
    try:
        local, crosses = site_covariance(blocks[site], senders)
    except DistCovError:
        raise
    except Exception as exc:
        raise TransportError(f"site {site} worker failed: {exc!r}") from exc
    ms, cpu_ms = (time.perf_counter() - t0) * 1e3, (time.thread_time() - c0) * 1e3
    for blk in (local, *crosses):
        net.send(ProtocolMessage(MessageKind.COV_BLOCK, site, coordinator, blk))
    net.send(ProtocolMessage(MessageKind.DONE, site, coordinator))
    return ms, cpu_ms


def _take(net, coordinator: int, assembler: _Assembler, done: list[int], deadline: float) -> None:
    """Take one frame from the coordinator's inbox: a block goes to the
    assembler, a DONE marker to `done`."""
    msg = net.recv(coordinator, deadline - time.perf_counter())
    if msg.kind is MessageKind.DONE:
        done.append(msg.sender)
    elif msg.kind is MessageKind.COV_BLOCK:
        assert isinstance(msg.payload, CovBlock)
        assembler.add(msg.payload)
    else:
        raise TransportError(
            f"coordinator received unexpected {msg.kind.name} from {msg.sender}"
        )


def _check_blocks(blocks) -> int:
    """Validate blocks sorted by site, but for their columns; returns the row count."""
    if not blocks:
        raise DimensionMismatch("need at least one column block")
    sites = [b.site for b in blocks]
    if sites != list(range(len(blocks))):
        raise DimensionMismatch(f"block sites must be 0..{len(blocks) - 1}, got {sites}")
    rows = blocks[0].data.rows
    for b in blocks:
        if b.data.rows != rows:
            raise RowCountMismatch(
                f"site {b.site} has {b.data.rows} rows, site {blocks[0].site} has {rows}"
            )
    if rows < 2:
        raise TooFewRows("sample covariance needs at least 2 rows")
    return rows


def run_distributed(
    blocks,
    schedule: Schedule,
    transport: str = "in-process",
    deadline_ms: float | None = None,
    message_log: list | None = None,
) -> tuple[GlobalCovariance, EigenDecomposition, RunMetrics]:
    """Execute the full exchange protocol and return the merged result.

    `transport` is "in-process" or "tcp". Raises TimeoutError when a block
    fails to arrive within the deadline (DCM_DEADLINE_MS or 60 s), and
    propagates any other error from a site's turn or the coordinator; a
    kernel error that is not a DistCovError becomes TransportError.
    """
    blocks = sorted(blocks, key=lambda b: b.site)
    rows = _check_blocks(blocks)
    t = len(blocks)
    if schedule.t != t:
        raise DimensionMismatch(f"schedule is for {schedule.t} sites, got {t} blocks")
    assembler = _Assembler({b.site: b.global_cols for b in blocks}, schedule.blocks())
    deadline_s = _deadline_ms(deadline_ms) / 1e3
    coordinator = t  # reserved endpoint id
    endpoints = list(range(t)) + [coordinator]

    if transport == "in-process":
        net = InProcessTransport(endpoints, log=message_log)
    elif transport == "tcp":
        max_frame = largest_frame(rows, [b.width for b in blocks])
        net = TcpTransport(endpoints, log=message_log, max_frame=max_frame)
    else:
        raise TransportError(f"unknown transport {transport!r}")

    start = time.perf_counter()
    deadline = start + deadline_s
    done: list[int] = []
    transfers: dict[tuple[int, int], TransferStat] = {}
    turns = []
    try:
        for site in range(t):
            turns.append(_site_turn(net, schedule, blocks, site, deadline, transfers))
            while site not in done:
                _take(net, coordinator, assembler, done, deadline)
        while assembler.missing:  # only a block that a site never sent
            _take(net, coordinator, assembler, done, deadline)
        site_ms, site_cpu_ms = zip(*turns)

        t0 = time.perf_counter()
        merged = assembler.result()
        t1 = time.perf_counter()
        protocol_ms = (t1 - start) * 1e3
        merge_ms = (t1 - t0) * 1e3
        decomp = symmetric_eigen(merged)
        t2 = time.perf_counter()

        metrics = RunMetrics(
            site_cov_ms=site_ms,
            site_cov_cpu_ms=site_cpu_ms,
            transfers=transfers,
            merge_ms=merge_ms,
            eigen_ms=(t2 - t1) * 1e3,
            protocol_ms=protocol_ms,
            total_ms=(t2 - start) * 1e3,
        )
        return merged, decomp, metrics
    except TimeoutError:  # a site's receive or the coordinator's
        raise _gather_timeout(assembler, done, t, deadline_s) from None
    finally:
        net.close()


def _gather_timeout(
    assembler: _Assembler, done: list[int], t: int, deadline_s: float
) -> TimeoutError:
    """Name the (site_a, site_b) blocks and the DONE markers that never came."""
    missing = sorted(assembler.missing)
    silent = sorted(set(range(t)) - set(done))
    return TimeoutError(
        f"coordinator: {assembler.expected - len(missing)}/{assembler.expected} blocks "
        f"and {len(done)}/{t} completions within {deadline_s:.3f}s; missing blocks "
        f"(site_a, site_b): {', '.join(map(str, missing)) or 'none'}; no DONE from "
        f"sites: {', '.join(map(str, silent)) or 'none'}"
    )


def run_centralized(
    blocks,
) -> tuple[GlobalCovariance, EigenDecomposition, RunMetrics]:
    """Single-machine oracle: reassemble the full table, then compute.

    The reassembled matrix places every block's columns at their global
    positions, so the result is comparable entry-for-entry with the
    distributed output.
    """
    blocks = sorted(blocks, key=lambda b: b.site)
    rows = _check_blocks(blocks)
    total_cols = _column_count(b.global_cols for b in blocks)

    full = np.empty((rows, total_cols), dtype=np.float64)
    labels: list[str] | None = [""] * total_cols
    for b in blocks:
        full[:, list(b.global_cols)] = b.data.values
        if labels is not None and b.data.labels is not None:
            for pos, name in zip(b.global_cols, b.data.labels):
                labels[pos] = name
        else:
            labels = None
    table = DenseMatrix._wrap(
        np.ascontiguousarray(full), tuple(labels) if labels else None
    )

    start, c0 = time.perf_counter(), time.thread_time()
    cov = centralized_covariance(table)
    t1, c1 = time.perf_counter(), time.thread_time()
    decomp = symmetric_eigen(cov)
    t2 = time.perf_counter()

    cov_ms = (t1 - start) * 1e3
    metrics = RunMetrics(
        site_cov_ms=(cov_ms,),
        site_cov_cpu_ms=((c1 - c0) * 1e3,),
        transfers={},
        merge_ms=0.0,
        eigen_ms=(t2 - t1) * 1e3,
        protocol_ms=cov_ms,
        total_ms=(t2 - start) * 1e3,
    )
    return cov, decomp, metrics
