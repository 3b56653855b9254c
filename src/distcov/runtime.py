"""Protocol runtime: site turns, a coordinator, and two transports.

The sites take turns on the caller's thread, in site order, and each turn
is self-contained: every sender of the site ships its raw columns and
the site takes them from its inbox at once, makes one kernel call
(`site_covariance`) for its local block and all its cross blocks, and sends
every block and DONE to the coordinator (reserved endpoint id = t), whose
share ends the turn: it takes the site's blocks into the m x m matrix up
to the first other frame, which must be that site's DONE, with every
block of the turn in. Each frame is read in the turn that sent it, so
every inbox must be empty before the next turn: a frame nobody read, such
as a DATA_BLOCK that reached a site after its turn, fails the run. So a
run holds one site's shipped columns at a time, a failing kernel ends the
run before any later site ships, and any protocol failure fails its turn,
naming that turn and its blocks not yet in. Before
any socket exists, the coordinator's `_Assembler` proves that the sites'
columns partition the table and that the schedule's blocks cover every
pair of sites exactly once.

The exchange ends with the merged matrix, and `RunMetrics` time the exchange
alone. The public `run_distributed` then eigen-decomposes the matrix,
untimed, on the caller's thread, as `run_centralized` does the oracle.
`distcov run` times the decomposition itself and reports it beside the
metrics; `distcov compare` runs the exchange alone, since its rows only
prove the merged bytes equal to the oracle's and time the exchange.

Both transports move the same frame bytes, so byte counts are real and
the merged matrix is bit-identical either way. Each endpoint has one FIFO
inbox of frames, each a read-only `wire.frame_buffer` whose values
`decode_message` keeps as a view. The transports differ only in how the
bytes reach the inbox: in-process encodes each frame straight into it,
TCP moves every frame over one loopback connection, both of whose ends it
opens, and copies no block in user space. On either transport `send`
returns only once its frame is in the receiver's inbox. So a send's time
is framing plus delivery, and `recv` on an empty inbox raises
ProtocolError at once: nothing could fill it while `recv` waited, so the
protocol has no timer.

A run starts no thread: TCP bytes move only inside `send`, on the caller's
thread. So any failure, in a site's turn, the coordinator's intake or the
transport, raises on that thread; the transport is closed on the way out,
which closes its sockets.
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .covariance import (
    GlobalCovariance,
    _Assembler,
    _column_count,
    _row_count,
    centralized_covariance,
    site_covariance,
)
from .eigen import EigenDecomposition, symmetric_eigen
from .errors import DistCovError, ProtocolError
from .matrix import DenseMatrix
from .schedule import Schedule
from .wire import (
    MessageKind,
    ProtocolMessage,
    decode_message,
    encode_message,
    frame_buffer,
    frame_parts,
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
    """One raw-data shipment: frame size and send wall time, which is
    framing plus delivery into the receiver's inbox."""

    bytes: int
    ms: float


@dataclass(frozen=True)
class RunMetrics:
    """Timing breakdown of one run, all values in milliseconds.

    `site_cov_cpu_ms` holds one reading per site: the CPU time of the
    calling thread (`time.thread_time`) over the site's one kernel call (its
    local block and all its cross blocks). It leaves out the CPU of BLAS's
    worker threads, and at more than one BLAS thread it may count the calling
    thread's waits for them, so it is a one-processor time only when BLAS
    runs one thread. The sites take turns, so no reading counts another
    site's kernel. `transfers` is keyed by directed edge (sender, receiver)
    and covers raw column shipments only; a send's time is framing plus
    delivery into the receiver's inbox (see `TransferStat`), over TCP the
    reads of the connection's receiving end included. `merge_ms` is the
    coordinator's wall time over each turn's block intake and the matrix's
    final checks. No reading covers an eigen-decomposition.
    """

    site_cov_cpu_ms: tuple[float, ...]
    transfers: dict[tuple[int, int], TransferStat] = field(default_factory=dict)
    merge_ms: float = 0.0
    protocol_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "site_cov_cpu_ms": list(self.site_cov_cpu_ms),
            "transfers": [
                {"from": j, "to": k, "bytes": s.bytes, "ms": s.ms}
                for (j, k), s in sorted(self.transfers.items())
            ],
            "merge_ms": self.merge_ms,
            "protocol_ms": self.protocol_ms,
        }


def critical_path_ms(metrics: RunMetrics) -> float:
    """Distributed time with one processor per site, derived from the
    measured per-site phases.

    Each site receives its senders' columns, then makes its one kernel
    call, and the sites do so concurrently, so the protocol takes the
    slowest site's inbound transfers plus kernel. Kernel costs are the
    per-thread CPU readings, so the sum is a one-processor time only when
    BLAS runs one thread (see `RunMetrics`).
    """
    per_site = list(metrics.site_cov_cpu_ms)
    for (_, k), s in metrics.transfers.items():
        per_site[k] += s.ms
    return max(per_site)


class InProcessTransport:
    """One FIFO inbox of frames per endpoint; `send` appends `msg`'s
    encoded frame, the same bytes TCP sends, straight to the receiver's
    inbox, and the receiver decodes its values as a view of that frame.
    `TcpTransport` replaces only `_deliver`, how the bytes reach the inbox.
    """

    def __init__(self, endpoints, log: list | None = None):
        self._inbox: dict[int, deque] = {e: deque() for e in endpoints}
        self._log = log

    def _deliver(self, msg: ProtocolMessage) -> int:
        """Put `msg`'s frame in its receiver's inbox; returns its byte size."""
        frame = encode_message(msg)
        self._inbox[msg.receiver].append(frame)
        return len(frame)

    def send(self, msg: ProtocolMessage) -> TransferStat:
        """Frame `msg` and deliver it; its size and the time both took."""
        t0 = time.perf_counter()
        if msg.receiver not in self._inbox:
            raise ProtocolError(f"no endpoint {msg.receiver}")
        size = self._deliver(msg)
        ms = (time.perf_counter() - t0) * 1e3
        if self._log is not None:
            self._log.append((msg.kind, msg.sender, msg.receiver, size))
        return TransferStat(bytes=size, ms=ms)

    def recv(self, endpoint: int, _unused: float | None = None) -> ProtocolMessage:
        """Decode the endpoint's next frame; ProtocolError if the transport
        has no such endpoint, its inbox is empty or its header names another
        receiver. The second argument has no effect."""
        inbox = self._inbox.get(endpoint)
        if inbox is None:
            raise ProtocolError(f"no endpoint {endpoint}")
        if not inbox:
            raise ProtocolError(f"endpoint {endpoint}: no message in its inbox")
        msg = decode_message(inbox.popleft())
        if msg.receiver != endpoint:
            raise ProtocolError(
                f"{msg.kind.name} {msg.sender}->{msg.receiver}: addressed to {msg.receiver}, "
                f"read from endpoint {endpoint}'s inbox"
            )
        return msg

    def require_drained(self) -> None:
        """ProtocolError naming a frame that waits unread in any inbox."""
        for endpoint, inbox in self._inbox.items():
            if inbox:
                msg = decode_message(inbox[0])
                raise ProtocolError(
                    f"endpoint {endpoint}: unread {msg.kind.name} from {msg.sender} to {msg.receiver}"
                )

    def close(self) -> None:
        """Nothing to release in-process."""


# Each TCP socket buffer's least size in bytes, as `getsockopt` reads it.
# Below it a send can stall on the kernel's ACK timers: for ~88 ms on the
# delayed ACK with an 8 KiB send buffer, for ~6.5 s on the zero-window
# probe with a 4 KiB receive buffer.
_BUFFER_FLOOR = 256 * 1024


def _advance(views: list, n: int) -> list:
    """`views`, a list of non-empty byte views, without their first n bytes."""
    while views and n >= len(views[0]):
        n -= len(views.pop(0))
    if n:
        views[0] = views[0][n:]
    return views


class TcpTransport(InProcessTransport):
    """One loopback TCP_NODELAY connection for the whole transport, both of
    whose ends it owns, moved on the caller's thread.

    Construction connects to a listener of the transport's own, accepts
    that one connection and closes the listener; an accepted peer that is
    not the transport's own socket raises ProtocolError, so no other peer
    can reach the receiving end. Both ends' send and receive buffers are
    raised to at least `_BUFFER_FLOOR`, so on a host whose defaults are
    small a send does not stall on the kernel's ACK timers. Every frame
    travels over the one connection: the sites take turns on one thread and
    each `send` moves its frame all the way, so frames never interleave on
    the wire. `send` writes without blocking and reads the receiving end in
    the same loop until every byte it wrote has been read, selecting on the
    two sockets only when neither end can move. So every frame is in its
    receiver's inbox before `send` returns, and `recv` and
    `require_drained` are the in-process ones.

    No block is copied on its way. `send` writes the frame's two parts
    (`frame_parts`) with one `sendmsg`: header, fields and indices from one
    small buffer, the values straight from the block's array. It reads the
    frame back into one `frame_buffer` of the size it writes, never of a
    size a header declares, and queues it read-only, the form
    `encode_message` gives a frame in-process; `decode_message` checks the
    header at `recv`, as in-process. A receiving end that closes, or a
    socket error, raises ProtocolError naming the edge of the message being
    sent.
    """

    def __init__(self, endpoints, log: list | None = None):
        super().__init__(endpoints, log)
        self._sock = self._conn = None
        try:
            with socket.create_server(("127.0.0.1", 0)) as listener:
                self._sock = socket.create_connection(listener.getsockname())
                self._conn, peer = listener.accept()
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for sock in (self._sock, self._conn):
                for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                    if sock.getsockopt(socket.SOL_SOCKET, option) < _BUFFER_FLOOR:
                        sock.setsockopt(socket.SOL_SOCKET, option, _BUFFER_FLOOR)
                sock.setblocking(False)
        except OSError as exc:
            self.close()
            raise ProtocolError(f"loopback connection failed: {exc}") from None
        if peer != self._sock.getsockname():
            self.close()
            raise ProtocolError(
                f"accepted a connection from {peer}, not from the transport's own socket"
            )

    def _deliver(self, msg: ProtocolMessage) -> int:
        """Write `msg`'s frame as its two parts, never joined, and read it
        back into its receiver's inbox; returns its byte size."""
        unsent = [memoryview(part) for part in frame_parts(msg) if len(part)]
        frame = frame_buffer(sum(map(len, unsent)))
        got = 0
        try:
            while got < len(frame):
                sent = taken = 0
                if unsent:
                    try:
                        sent = self._sock.sendmsg(unsent)
                    except BlockingIOError:  # full: only reading makes room
                        pass
                    unsent = _advance(unsent, sent)
                try:
                    taken = self._conn.recv_into(frame[got:])
                    if not taken:
                        raise ProtocolError(
                            f"edge {msg.sender}->{msg.receiver}: receiving end closed"
                        )
                except BlockingIOError:  # nothing arrived yet
                    pass
                got += taken
                if got < len(frame) and not (sent or taken):
                    select.select([self._conn], [self._sock] if unsent else [], [])
        except OSError as exc:
            raise ProtocolError(
                f"send {msg.sender}->{msg.receiver} failed: {exc}"
            ) from None
        self._inbox[msg.receiver].append(frame.toreadonly())
        return len(frame)

    def close(self) -> None:
        """Close the connection's two ends."""
        for sock in (self._sock, self._conn):
            if sock is not None:
                sock.close()


def _site_turn(
    net, schedule: Schedule, blocks, site: int, transfers: dict, assembler: _Assembler
) -> tuple[float, float]:
    """Site `site`'s turn: its senders ship their raw columns, which it
    takes from its inbox at once; it makes its one kernel call and sends
    every block and DONE to the coordinator, which takes the blocks into
    `assembler` up to that DONE. Records each shipment in `transfers`;
    returns the kernel's thread CPU time and the intake's wall time in ms."""
    coordinator, senders = schedule.t, []
    for j in schedule.senders_to(site):
        shipment = ProtocolMessage(MessageKind.DATA_BLOCK, j, site, blocks[j])
        transfers[(j, site)] = net.send(shipment)
        msg = net.recv(site)
        # A DATA_BLOCK comes from the site whose columns it carries.
        origin = msg.payload.site if msg.kind is MessageKind.DATA_BLOCK else msg.sender
        if (msg.kind, origin) != (MessageKind.DATA_BLOCK, j):
            raise ProtocolError(
                f"expected DATA_BLOCK from {j}, received {msg.kind.name} from {origin}"
            )
        senders.append(msg.payload)

    c0 = time.thread_time()
    try:
        local, crosses = site_covariance(blocks[site], senders)
    except DistCovError:
        raise
    except Exception as exc:
        raise ProtocolError(f"kernel failed: {exc!r}") from exc
    cpu_ms = (time.thread_time() - c0) * 1e3
    for blk in (local, *crosses):
        net.send(ProtocolMessage(MessageKind.COV_BLOCK, site, coordinator, blk))
    net.send(ProtocolMessage(MessageKind.DONE, site, coordinator))

    t0 = time.perf_counter()
    msg = net.recv(coordinator)
    while msg.kind is MessageKind.COV_BLOCK:
        assembler.add(msg.payload)
        msg = net.recv(coordinator)
    if (msg.kind, msg.sender) != (MessageKind.DONE, site):
        raise ProtocolError(
            f"coordinator received unexpected {msg.kind.name} from {msg.sender}"
        )
    if any(p[1] == site for p in assembler.missing):  # every block (j, site) precedes DONE
        raise ProtocolError("coordinator: DONE came before its blocks")
    return cpu_ms, (time.perf_counter() - t0) * 1e3


def _check_blocks(blocks) -> int:
    """Validate blocks sorted by site, but for their columns; returns the row count."""
    if not blocks:
        raise DistCovError("need at least one column block")
    sites = [b.site for b in blocks]
    if sites != list(range(len(blocks))):
        raise DistCovError(f"block sites must be 0..{len(blocks) - 1}, got {sites}")
    return _row_count([(f"site {b.site}", b.data) for b in blocks])


def run_distributed(
    blocks,
    schedule: Schedule,
    transport: str = "in-process",
    message_log: list | None = None,
) -> tuple[GlobalCovariance, EigenDecomposition, RunMetrics]:
    """Execute the full exchange protocol, then decompose the merged matrix;
    the metrics time the exchange, not the decomposition.

    `transport` is "in-process" or "tcp".

    Raises:
        ProtocolError: the blocks do not cover every pair of sites once, or, in
            a turn it names, a frame is malformed, unexpected, unread or missing,
            the transport fails, or a kernel error is not a DistCovError.
        DistCovError (no subclass): the blocks or the schedule do not
            describe one table, or a site's kernel refuses its data.
    """
    cov, metrics = _timed_exchange(blocks, schedule, transport, message_log)
    return cov, symmetric_eigen(cov), metrics


def _timed_exchange(
    blocks, schedule: Schedule, transport: str, message_log: list | None = None
) -> tuple[GlobalCovariance, RunMetrics]:
    """The exchange protocol up to the merged matrix, with its timings."""
    blocks = sorted(blocks, key=lambda b: b.site)
    _check_blocks(blocks)
    t = len(blocks)
    if schedule.t != t:
        raise DistCovError(f"schedule is for {schedule.t} sites, got {t} blocks")
    assembler = _Assembler({b.site: b.global_cols for b in blocks}, schedule.blocks())
    endpoints = range(t + 1)  # the sites, then the coordinator

    if transport == "in-process":
        net = InProcessTransport(endpoints, log=message_log)
    elif transport == "tcp":
        net = TcpTransport(endpoints, log=message_log)
    else:
        raise ProtocolError(f"unknown transport {transport!r}")

    start = time.perf_counter()
    transfers: dict[tuple[int, int], TransferStat] = {}
    timings: list[tuple[float, float]] = []
    try:
        for site in range(t):
            try:
                timings.append(_site_turn(net, schedule, blocks, site, transfers, assembler))
                net.require_drained()  # every frame is read in the turn that sent it
            except ProtocolError as exc:
                owed = ", ".join(str(p) for p in sorted(assembler.missing) if p[1] == site)
                raise ProtocolError(
                    f"site {site}'s turn: {exc}; blocks not in: {owed or 'none'}"
                ) from None
        cpu_ms, intake_ms = zip(*timings)

        t0 = time.perf_counter()
        merged = assembler.result()
        t1 = time.perf_counter()
        metrics = RunMetrics(
            site_cov_cpu_ms=cpu_ms,
            transfers=transfers,
            merge_ms=sum(intake_ms) + (t1 - t0) * 1e3,
            protocol_ms=(t1 - start) * 1e3,
        )
        return merged, metrics
    finally:
        net.close()


def _timed_oracle(table: DenseMatrix) -> tuple[GlobalCovariance, RunMetrics]:
    """The oracle matrix of a whole table: its thread CPU time is the one
    site reading, its wall time `protocol_ms`."""
    start, c0 = time.perf_counter(), time.thread_time()
    cov = centralized_covariance(table)
    cpu_ms = (time.thread_time() - c0) * 1e3
    metrics = RunMetrics(
        site_cov_cpu_ms=(cpu_ms,), protocol_ms=(time.perf_counter() - start) * 1e3
    )
    return cov, metrics


def run_centralized(
    blocks,
) -> tuple[GlobalCovariance, EigenDecomposition, RunMetrics]:
    """Single-machine oracle: reassemble the full table, compute its
    covariance, then decompose it; the metrics time the oracle kernel, not
    the decomposition.

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

    cov, metrics = _timed_oracle(DenseMatrix._wrap(full))
    return cov, symmetric_eigen(cov), metrics
