"""In-memory spans and the serial replay of one distributed run.

The replay drives the protocol through distcov's public calls one at a
time, on one thread, so every phase is timed uncontended. Its timings give
the paper's distributed time t_d (`critical_path_ms`); with a
recording `Tracer` its spans also give the per-layer self times.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from distcov import (
    MessageKind,
    ProtocolMessage,
    cross_covariance,
    decode_message,
    encode_message,
    local_covariance,
    matrix_checksum,
    merge_blocks,
    symmetric_eigen,
)
from distcov.runtime import InProcessTransport, TcpTransport

EDGE_TIMEOUT_S = 60.0


@dataclass
class Span:
    name: str
    attrs: dict
    id: int = -1
    op: int = -1
    parent: int | None = None
    start: float = 0.0
    end: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Times every span; keeps spans in memory only when `enabled`.

    Spans of one operation share `op`. Nothing is written during the run;
    `to_json` serialises the spans once it has ended.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        s = Span(name, attrs)
        if self.enabled:
            s.id, s.op = len(self.spans), self.op
            s.parent = self._stack[-1].id if self._stack else None
            self.spans.append(s)
            self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            if self.enabled:
                self._stack.pop()

    def self_ms(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover.

        Children of one span run one after another on one thread, so their
        intervals never overlap and their durations simply add up.
        """
        out = {s.id: s.ms for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.ms
        return out

    def to_json(self, t0: float) -> list[dict]:
        return [
            {
                "id": s.id,
                "op": s.op,
                "parent": s.parent,
                "name": s.name,
                "start_ms": (s.start - t0) * 1e3,
                "end_ms": (s.end - t0) * 1e3,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]


@dataclass
class Replay:
    """What one serial replay measured and counted."""

    local_ms: list[float]  # per site
    inbound_ms: dict[tuple[int, int], float]  # (sender, receiver): edge + cross time
    checksum: str = ""  # of the merged covariance matrix
    frames: int = 0
    data_bytes: int = 0
    cov_bytes: int = 0
    pair_evals: int = 0

    @property
    def wire(self) -> tuple[int, int, int]:
        """The replay's frames, counted as the runtime's message log counts them."""
        return (self.frames, self.data_bytes, self.cov_bytes)


def critical_path_ms(replays: list[Replay]) -> float:
    """max_j local_j + max_k sum over predecessors i of (edge_ik + cross_ki).

    Each phase is first reduced to its mean over the replays; the maxima are
    taken over those means.
    """
    local = [statistics.fmean(r.local_ms[j] for r in replays) for j in range(len(replays[0].local_ms))]
    inbound: dict[int, float] = defaultdict(float)
    for i, k in replays[0].inbound_ms:
        inbound[k] += statistics.fmean(r.inbound_ms[(i, k)] for r in replays)
    return max(local) + max(inbound.values())


def replay(blocks, schedule, transport: str, total_cols: int, tracer: Tracer) -> Replay:
    """Run the protocol serially through public calls and time each one.

    Raw columns travel between sites through a standalone transport of the
    workload's kind; the `runtime.edge` span covers one send and the
    matching receive, the transport's own encode and decode included. Every
    frame the protocol sends (raw columns, covariance blocks, completion
    markers) is also encoded and decoded on its own, so the wire layer is
    timed apart from the transport.
    """
    t = schedule.t
    coordinator = t
    r = Replay(local_ms=[0.0] * t, inbound_ms={})

    def codec(msg: ProtocolMessage):
        with tracer.span("wire.encode_message", kind=msg.kind.name) as enc:
            frame = encode_message(msg)
        with tracer.span("wire.decode_message", kind=msg.kind.name) as dec:
            out = decode_message(frame)
        enc.attrs["bytes"] = dec.attrs["bytes"] = len(frame)
        r.frames += 1
        if msg.kind is MessageKind.DATA_BLOCK:
            r.data_bytes += len(frame)
        elif msg.kind is MessageKind.COV_BLOCK:
            r.cov_bytes += len(frame)
        return out.payload

    local_blocks, cross_blocks = [], []
    for b in blocks:
        with tracer.span("covariance.local_covariance", site=b.site) as s:
            blk = local_covariance(b)
        r.local_ms[b.site] = s.ms
        w = blk.block.rows
        r.pair_evals += w * (w + 1) // 2
        local_blocks.append(codec(ProtocolMessage(MessageKind.COV_BLOCK, b.site, coordinator, blk)))

    endpoints = list(range(t)) + [coordinator]
    net = TcpTransport(endpoints) if transport == "tcp" else InProcessTransport(endpoints)
    try:
        for k in range(t):
            for i in schedule.senders_to(k):
                msg = ProtocolMessage(MessageKind.DATA_BLOCK, i, k, blocks[i])
                codec(msg)
                with tracer.span("runtime.edge", sender=i, receiver=k) as edge:
                    edge.attrs["bytes"] = net.send(msg).bytes
                    got = net.recv(k, EDGE_TIMEOUT_S)
                with tracer.span("covariance.cross_covariance", sender=i, receiver=k) as c:
                    blk = cross_covariance(receiver=blocks[k], sender=got.payload)
                r.inbound_ms[(i, k)] = edge.ms + c.ms
                r.pair_evals += blk.block.rows * blk.block.cols
                cross_blocks.append(codec(ProtocolMessage(MessageKind.COV_BLOCK, k, coordinator, blk)))
            codec(ProtocolMessage(MessageKind.DONE, k, coordinator))
    finally:
        net.close()

    with tracer.span("covariance.merge_blocks"):
        merged = merge_blocks(local_blocks, cross_blocks, total_cols)
    with tracer.span("eigen.symmetric_eigen"):
        symmetric_eigen(merged)
    r.checksum = matrix_checksum(merged.matrix)
    return r
