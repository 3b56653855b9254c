"""Protocol runtime: site turns, a coordinator, and two transports.

The sites take turns on the caller's thread, in site order, and each turn
is self-contained: every sender of the site ships its raw columns and
the site takes them from its inbox at once, makes one kernel call
(`site_covariance`) for its local block and all its cross blocks, and sends
every block and DONE to the coordinator (reserved endpoint id = t). The
coordinator then takes frames until that site's DONE is in, writing each
block into the m x m matrix, before the next site's turn starts. So a run
holds one site's shipped columns at a time, a failing kernel ends the run
before any later site ships, and a frame that never arrives fails the turn
that wanted it, naming the blocks and DONE markers the coordinator lacks.
Before any socket exists, the coordinator's `_Assembler` proves that the
sites' columns partition the table and that the schedule's blocks cover
every pair of sites exactly once. After the last turn every inbox
must be empty: a frame nobody read, such as a DATA_BLOCK that reached a
site after its turn, fails the run.

The exchange ends with the merged matrix. `run_distributed` then
eigen-decomposes it on the caller's thread, as `run_centralized` does the
oracle; `report.compare_partitions` runs the exchange alone, since its rows
only prove the merged bytes equal to the oracle's and time the exchange.

Both transports move the same encoded frames, so byte counts are real and
the merged matrix is bit-identical either way: in-process appends frames
straight to the receiver's inbox, TCP uses loopback sockets with one
listener and one connection per directed edge, both of whose ends it
opens. Each endpoint has one FIFO inbox of frames, and on either transport
`send` returns only once its frame is in the receiver's inbox. So a send's
time is encode plus delivery, and `recv` on an empty inbox raises
TimeoutError at once: nothing could fill it while `recv` waited, so the
protocol has no timer.

A run starts no thread: TCP bytes move only inside `send`, on the caller's
thread. So any failure, in a site's turn, the coordinator's loop or the
transport, raises on that thread; the transport is closed on the way out,
which closes its sockets.
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque
from dataclasses import dataclass, field, replace

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
    frame_size,
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
]


@dataclass(frozen=True)
class TransferStat:
    """One raw-data shipment: encoded frame size and send wall time, which
    is encode plus delivery into the receiver's inbox on either transport."""

    bytes: int
    ms: float


@dataclass(frozen=True)
class RunMetrics:
    """Timing breakdown of one run, all values in milliseconds.

    Each site's one kernel call (its local block and all its cross blocks)
    carries two readings: wall time (`site_cov_ms`) and CPU time
    (`site_cov_cpu_ms`). The CPU reading is the calling thread's
    `time.thread_time`, so it excludes the CPU of OpenBLAS's worker threads,
    which the kernel's matrix products also use. The sites take turns, so
    neither reading counts another site's kernel; the CPU reading is what
    the site would spend on a processor of its own. `transfers` is keyed by
    directed edge (sender, receiver) and covers raw column shipments only;
    a send's time is encode plus delivery into the receiver's inbox, over
    TCP the reads of the edge's receiving end included. `merge_ms` is what
    assembly leaves after the last message: the matrix's final checks.
    `eigen_ms` is 0.0 where a run stops before the eigen-decomposition.
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


def critical_path_ms(metrics: RunMetrics) -> float:
    """Distributed time with one processor per site, derived from the
    measured per-site phases.

    Each site receives its senders' columns, then makes its one kernel
    call, and the sites do so concurrently, so the protocol takes the
    slowest site's inbound transfers plus kernel. Kernel costs are the
    per-thread CPU readings, which stay honest when one host runs every
    site's kernel in turn.
    """
    per_site = list(metrics.site_cov_cpu_ms)
    for (_, k), s in metrics.transfers.items():
        per_site[k] += s.ms
    return max(per_site)


class InProcessTransport:
    """One FIFO inbox of encoded frames per endpoint; `send` encodes a frame
    exactly as on TCP and appends it straight to the receiver's inbox.

    Only `send` fills an inbox, so `recv` on an empty one raises
    TimeoutError at once: nothing could fill it while `recv` waited.
    `TcpTransport` replaces only the delivery.
    """

    def __init__(self, endpoints, log: list | None = None):
        self._inbox: dict[int, deque] = {e: deque() for e in endpoints}
        self._log = log

    def _deliver(self, msg: ProtocolMessage, frame) -> None:
        self._inbox[msg.receiver].append(frame)

    def send(self, msg: ProtocolMessage) -> TransferStat:
        t0 = time.perf_counter()
        frame = encode_message(msg)
        if msg.receiver not in self._inbox:
            raise TransportError(f"no endpoint {msg.receiver}")
        self._deliver(msg, frame)
        ms = (time.perf_counter() - t0) * 1e3
        if self._log is not None:
            self._log.append((msg.kind, msg.sender, msg.receiver, len(frame)))
        return TransferStat(bytes=len(frame), ms=ms)

    def recv(self, endpoint: int, _unused: float | None = None) -> ProtocolMessage:
        """Decode the endpoint's next frame; TimeoutError if its inbox is
        empty. The second argument has no effect."""
        inbox = self._inbox[endpoint]
        if not inbox:
            raise TimeoutError(f"endpoint {endpoint}: no message in its inbox")
        return decode_message(inbox.popleft())

    def require_drained(self) -> None:
        """TransportError naming a frame that waits unread in any inbox."""
        for endpoint, inbox in self._inbox.items():
            if inbox:
                msg = decode_message(inbox[0])
                raise TransportError(
                    f"endpoint {endpoint}: unread {msg.kind.name} from {msg.sender} "
                    f"to {msg.receiver} after the last turn"
                )

    def close(self) -> None:
        """Nothing to release in-process."""


class _Edge:
    """One directed edge: its sending socket, the receiving end the listener
    accepted from it, and the receiving end's read state (a header buffer
    until the header is complete, then one buffer of the declared size)."""

    __slots__ = ("name", "receiver", "sock", "conn", "buf", "got")

    def __init__(self, name: str, receiver: int, sock: socket.socket, conn: socket.socket):
        self.name, self.receiver, self.sock, self.conn = name, receiver, sock, conn
        self.buf, self.got = bytearray(HEADER.size), 0


class TcpTransport(InProcessTransport):
    """Loopback sockets: one listener for the whole transport and one
    TCP_NODELAY connection per directed edge, all moved on the caller's
    thread.

    The transport owns both ends of every edge. The first send on an edge
    connects to the listener and accepts the receiving end at once; a
    connection from any other peer fails the send with TransportError, so
    every frame read is one the transport sent. `send` moves its frame all
    the way: it writes without blocking and reads the edge's receiving end
    in the same loop until every byte it wrote has been read, selecting on
    the edge's two sockets only when neither end can move. So every frame
    is in its receiver's inbox before `send` returns, and `recv` and
    `require_drained` are the in-process ones. Each frame is received into
    one buffer of its declared size; a declared size above `max_frame`
    bytes, bytes that end inside a frame, and a receiving end that closes
    each raise TransportError naming the edge.
    """

    def __init__(self, endpoints, log: list | None = None, max_frame: int | None = None):
        super().__init__(endpoints, log)
        self._max_frame = max_frame
        self._edges: dict[tuple[int, int], _Edge] = {}
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._sockets = [self._listener]

    def _read(self, edge: _Edge) -> int:
        """Take what the receiving end holds now and deliver every frame it
        completes; returns the number of bytes taken."""
        taken = 0
        while True:
            try:
                got = edge.conn.recv_into(memoryview(edge.buf)[edge.got :])
            except BlockingIOError:
                return taken
            if not got:
                raise TransportError(f"{edge.name}: receiving end closed")
            taken += got
            edge.got += got
            if edge.got < len(edge.buf):
                continue
            if edge.got == HEADER.size:  # a full header; frame buffers are always longer
                size = frame_size(edge.buf)
                if self._max_frame is not None and size > self._max_frame:
                    raise TransportError(
                        f"{edge.name}: frame of {size} bytes exceeds the "
                        f"largest legal frame of {self._max_frame} bytes"
                    )
                if size > HEADER.size:
                    frame = bytearray(size)
                    frame[: HEADER.size] = edge.buf
                    edge.buf = frame
                    continue
            self._inbox[edge.receiver].append(edge.buf)
            edge.buf, edge.got = bytearray(HEADER.size), 0

    def _edge(self, sender: int, receiver: int) -> _Edge:
        """Edge sender->receiver; the first call connects its sending socket
        and accepts its receiving end."""
        edge = self._edges.get((sender, receiver))
        if edge is None:
            name = f"edge {sender}->{receiver}"
            sock = socket.create_connection(self._listener.getsockname())
            self._sockets.append(sock)
            conn, peer = self._listener.accept()
            self._sockets.append(conn)
            if peer != sock.getsockname():
                raise TransportError(
                    f"{name}: accepted a connection from {peer}, not from the edge's own socket"
                )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn.setblocking(False)
            edge = self._edges[(sender, receiver)] = _Edge(name, receiver, sock, conn)
        return edge

    def _deliver(self, msg: ProtocolMessage, frame) -> None:
        try:
            edge = self._edge(msg.sender, msg.receiver)
            view, unread = memoryview(frame), len(frame)
            while unread:
                sent = 0
                if view:
                    try:
                        sent = edge.sock.send(view)
                    except BlockingIOError:  # full: only reading makes room
                        pass
                    view = view[sent:]
                taken = self._read(edge)
                unread -= taken
                if unread and not (sent or taken):
                    select.select([edge.conn], [edge.sock] if view else [], [])
        except OSError as exc:
            raise TransportError(
                f"send {msg.sender}->{msg.receiver} failed: {exc}"
            ) from None
        if edge.got:
            raise TransportError(
                f"{edge.name}: bytes end inside a frame, {edge.got} of {len(edge.buf)} read"
            )

    def close(self) -> None:
        """Close every socket this transport opened or accepted."""
        for sock in self._sockets:
            sock.close()


def _site_turn(
    net, schedule: Schedule, blocks, site: int, transfers: dict
) -> tuple[float, float]:
    """Site `site`'s turn: its senders ship their raw columns, which it
    takes from its inbox at once; it makes its one kernel call and sends
    every block and DONE to the coordinator. Records each shipment in
    `transfers`; returns the kernel call's wall and CPU time in ms."""
    coordinator, senders = schedule.t, []
    for j in schedule.senders_to(site):
        shipment = ProtocolMessage(MessageKind.DATA_BLOCK, j, site, blocks[j])
        transfers[(j, site)] = net.send(shipment)
        msg = net.recv(site)
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
    message_log: list | None = None,
) -> tuple[GlobalCovariance, EigenDecomposition, RunMetrics]:
    """Execute the full exchange protocol, then decompose the merged matrix.

    `transport` is "in-process" or "tcp". Raises TimeoutError when a frame
    the run needs is not in its inbox, and TransportError when a frame is
    left unread after the last turn; it propagates any other error from a
    site's turn or the coordinator, and a kernel error that is not a
    DistCovError becomes TransportError.
    """
    return _decomposed(*_timed_exchange(blocks, schedule, transport, message_log))


def _timed_exchange(
    blocks, schedule: Schedule, transport: str, message_log: list | None = None
) -> tuple[GlobalCovariance, RunMetrics]:
    """The exchange protocol up to the merged matrix, with its timings; the
    metrics leave the eigen-decomposition out (`eigen_ms` is 0.0)."""
    blocks = sorted(blocks, key=lambda b: b.site)
    rows = _check_blocks(blocks)
    t = len(blocks)
    if schedule.t != t:
        raise DimensionMismatch(f"schedule is for {schedule.t} sites, got {t} blocks")
    assembler = _Assembler({b.site: b.global_cols for b in blocks}, schedule.blocks())
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
    done: list[int] = []
    transfers: dict[tuple[int, int], TransferStat] = {}
    turns = []
    try:
        for site in range(t):
            turns.append(_site_turn(net, schedule, blocks, site, transfers))
            while site not in done:
                msg = net.recv(coordinator)
                if msg.kind is MessageKind.DONE:
                    done.append(msg.sender)
                elif msg.kind is MessageKind.COV_BLOCK:
                    assert isinstance(msg.payload, CovBlock)
                    assembler.add(msg.payload)
                else:
                    raise TransportError(
                        f"coordinator received unexpected {msg.kind.name} from {msg.sender}"
                    )
        net.require_drained()
        if assembler.missing:  # a site's blocks precede its DONE: these were never sent
            raise _gather_timeout(assembler, done, t)
        site_ms, site_cpu_ms = zip(*turns)

        t0 = time.perf_counter()
        merged = assembler.result()
        t1 = time.perf_counter()
        protocol_ms = (t1 - start) * 1e3
        metrics = RunMetrics(
            site_cov_ms=site_ms,
            site_cov_cpu_ms=site_cpu_ms,
            transfers=transfers,
            merge_ms=(t1 - t0) * 1e3,
            protocol_ms=protocol_ms,
            total_ms=protocol_ms,
        )
        return merged, metrics
    except TimeoutError:  # a site's receive or the coordinator's
        raise _gather_timeout(assembler, done, t) from None
    finally:
        net.close()


def _gather_timeout(assembler: _Assembler, done: list[int], t: int) -> TimeoutError:
    """Name the (site_a, site_b) blocks and the DONE markers that never came."""
    missing = sorted(assembler.missing)
    silent = sorted(set(range(t)) - set(done))
    return TimeoutError(
        f"coordinator: {assembler.expected - len(missing)}/{assembler.expected} blocks "
        f"and {len(done)}/{t} completions; missing blocks (site_a, site_b): "
        f"{', '.join(map(str, missing)) or 'none'}; no DONE from sites: "
        f"{', '.join(map(str, silent)) or 'none'}"
    )


def _timed_oracle(table: DenseMatrix) -> tuple[GlobalCovariance, RunMetrics]:
    """The oracle matrix of a whole table, with its wall and CPU time; the
    metrics leave the eigen-decomposition out (`eigen_ms` is 0.0)."""
    start, c0 = time.perf_counter(), time.thread_time()
    cov = centralized_covariance(table)
    cov_ms = (time.perf_counter() - start) * 1e3
    metrics = RunMetrics(
        site_cov_ms=(cov_ms,),
        site_cov_cpu_ms=((time.thread_time() - c0) * 1e3,),
        protocol_ms=cov_ms,
        total_ms=cov_ms,
    )
    return cov, metrics


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
    for b in blocks:
        full[:, list(b.global_cols)] = b.data.values

    return _decomposed(*_timed_oracle(DenseMatrix._wrap(full)))


def _decomposed(
    cov: GlobalCovariance, metrics: RunMetrics
) -> tuple[GlobalCovariance, EigenDecomposition, RunMetrics]:
    """`cov`, its eigen-decomposition, and `metrics` with the decomposition's
    wall time added as `eigen_ms` and to `total_ms`."""
    t0 = time.perf_counter()
    decomp = symmetric_eigen(cov)
    eigen_ms = (time.perf_counter() - t0) * 1e3
    return cov, decomp, replace(
        metrics, eigen_ms=eigen_ms, total_ms=metrics.total_ms + eigen_ms
    )
