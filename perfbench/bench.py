"""Workloads, set-up, the closed measurement loop and the metrics it reports.

One client, one operation at a time: the next operation starts only when
the previous one has returned and its result has been checked against the
oracle checksum computed at set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from distcov import (
    MessageKind,
    build_schedule,
    distributed_cost,
    load_table,
    matrix_checksum,
    mfeat_preset,
    partition_vertical,
    run_centralized,
    run_distributed,
    synthetic_table,
)
from distcov.cli import main as cli_main
from distcov.ingest import PartitionSpec

from replay import Replay, Tracer, critical_path_ms, replay

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
PEAK_REPEATS = 3
PEAK_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_ms": "ms",
    "oracle_ms": "ms",
    "critical_path_ms": "ms",
    "speedup": "x",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "ingest.load_table_ms": "ms",
    "ingest.load_table_mb_s": "MB/s",
    "ingest.partition_ms": "ms",
    "covariance.local_ms_max": "ms",
    "covariance.local_ms_sum": "ms",
    "covariance.cross_ms_max": "ms",
    "covariance.cross_ms_sum": "ms",
    "covariance.pair_evals": "count",
    "covariance.pairs_per_s": "1/s",
    "covariance.gflops_computed": "GFLOP/s",
    "covariance.merge_ms": "ms",
    "wire.encode_ms": "ms",
    "wire.decode_ms": "ms",
    "wire.encode_mb_s": "MB/s",
    "wire.decode_mb_s": "MB/s",
    "wire.frames": "count",
    "wire.data_bytes": "bytes",
    "wire.cov_bytes": "bytes",
    "runtime.edge_ms_max": "ms",
    "runtime.edge_mb_s": "MB/s",
    "runtime.coordination_ms": "ms",
    "eigen.eigh_ms": "ms",
    "trace.overhead_ms": "ms",
}


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    spec: Callable[[int], PartitionSpec]  # column count -> partition
    transport: str
    # Rows of the `distcov gen` text file that `ingest.load_table` times.
    ingest_rows: int
    # Set for the workload whose operation is `distcov compare --preset <cli_preset>`.
    cli_preset: str | None = None


# Why each workload exists, and what it should and should not move: README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mfeat6-tcp",
            rows=2000,
            cols=649,
            spec=lambda cols: mfeat_preset(6),
            transport="tcp",
            ingest_rows=200,
        ),
        Workload(
            name="cli-compare",
            rows=1000,
            cols=649,
            spec=lambda cols: mfeat_preset(3),
            transport="in-process",
            ingest_rows=1000,
            cli_preset="mfeat-3",
        ),
    )
}


@dataclass
class Context:
    """Inputs made by one set-up."""

    workdir: Path
    table: object
    spec: PartitionSpec
    blocks: list
    schedule: object
    text: Path
    oracle_checksum: str


def _gen_text(rows: int, cols: int, seed: int, out: Path) -> None:
    # The same file `distcov gen` writes; its progress line is not ours to print.
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(["gen", "--rows", str(rows), "--cols", str(cols),
                       "--seed", str(seed), "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"distcov gen exited {rc}")


def setup(w: Workload, seed: int, workdir: Path) -> Context:
    table = synthetic_table(w.rows, w.cols, seed)
    text = workdir / "table.txt"
    _gen_text(w.ingest_rows, w.cols, seed, text)
    spec = w.spec(w.cols)
    blocks = partition_vertical(table, spec)
    cov, _, _ = run_centralized(blocks)
    return Context(
        workdir=workdir,
        table=table,
        spec=spec,
        blocks=blocks,
        schedule=build_schedule(spec.sites),
        text=text,
        oracle_checksum=matrix_checksum(cov.matrix),
    )


def wire_counts(log: list) -> tuple[int, int, int]:
    """(frames, DATA_BLOCK bytes, COV_BLOCK bytes) of a transport's message log."""
    sizes = defaultdict(int)
    for kind, _sender, _receiver, nbytes in log:
        sizes[kind] += nbytes
    return len(log), sizes[MessageKind.DATA_BLOCK], sizes[MessageKind.COV_BLOCK]


def sent_counts(ctx: Context, transport: str) -> tuple[int, int, int]:
    """Wire counts of the frames one `run_distributed` of the set-up blocks sends."""
    log: list = []
    run_distributed(ctx.blocks, ctx.schedule, transport=transport, message_log=log)
    return wire_counts(log)


Op = Callable[[], tuple[str, tuple[int, int, int] | None]]


def make_op(w: Workload, ctx: Context) -> Op:
    """The operation a user runs.

    It returns the checksum of the matrix it made and, where the operation is
    a `run_distributed` call, the wire counts of the frames that call sent
    (the `distcov compare` call keeps its frames to itself, so None).
    """
    if w.cli_preset is None:
        def op():
            log: list = []
            cov, _, _ = run_distributed(ctx.blocks, ctx.schedule, transport=w.transport,
                                        message_log=log)
            return matrix_checksum(cov.matrix), wire_counts(log)
        return op

    report = ctx.workdir / "compare.json"
    argv = ["compare", "--inputs", str(ctx.text), "--preset", w.cli_preset,
            "--out", str(report)]

    def cli_op():
        report.unlink(missing_ok=True)
        rc = cli_main(argv)
        if rc != 0:
            raise RuntimeError(f"distcov compare exited {rc}")
        rows = json.loads(report.read_text())["comparisons"]
        if not all(row["equal"] is True for row in rows):
            raise RuntimeError("distcov compare reported unequal matrices")
        return rows[0]["matrix_checksum"], None
    return cli_op


def peak_rss_mb(w: Workload, ctx: Context, expected: str, run: Run) -> list[float]:
    """Peak resident memory of one operation, run alone in a fresh process.

    The child (peak.py) holds only the operation's input: the pickled blocks,
    or for `distcov compare` nothing but the text file it reads. Its result
    is checked against the oracle like any other operation. The site threads
    interleave differently each time, so it runs `PEAK_REPEATS` children and
    returns each one's peak.
    """
    if w.cli_preset is None:
        inputs = ctx.workdir / "blocks.pickle"
        with open(inputs, "wb") as f:
            pickle.dump(ctx.blocks, f, protocol=pickle.HIGHEST_PROTOCOL)
        args = ["blocks", str(inputs), w.transport]
    else:
        report = ctx.workdir / "peak.json"
        args = ["cli", str(report), "compare", "--inputs", str(ctx.text),
                "--preset", w.cli_preset, "--out", str(report)]
    peaks = []
    for _ in range(PEAK_REPEATS):
        run.attempted += 1
        # peak.py forks; its own session lets a timeout stop both processes.
        proc = subprocess.Popen([sys.executable, str(HERE / "peak.py"), *args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=PEAK_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
        try:
            out = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            out = {"peak_rss_mb": float("nan"), "checksum": f"exit {proc.returncode}"}
        if proc.returncode != 0 or out["checksum"] != expected:
            run.failed += 1
            run.problem(f"peak-memory operation: {out['checksum'][:40]} != oracle "
                        f"{expected[:16]} {stderr.strip()[-200:]}")
        peaks.append(out["peak_rss_mb"])
    return peaks


@dataclass
class Run:
    """Everything one run measured; `metrics` is what the result line carries."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    record: dict = field(default_factory=dict)

    def problem(self, text: str) -> None:
        self.correct = False
        if len(self.problems) < 10:
            self.problems.append(text)


def _cpu_s() -> float:
    """CPU seconds, user + system, of this process (all threads) and its reaped children."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                  resource.getrusage(resource.RUSAGE_CHILDREN)))


def _timed_op(op: Op, expected: str, sent: set, run: Run) -> tuple[float, float]:
    """One checked operation; returns (wall ms, CPU ms). Adds its wire counts to `sent`."""
    run.attempted += 1
    t0, c0 = time.perf_counter(), _cpu_s()
    try:
        got, counts = op()
    except Exception as exc:  # an operation that raised is a failed operation
        got, counts = f"raised {exc!r}", None
    wall, cpu = (time.perf_counter() - t0) * 1e3, (_cpu_s() - c0) * 1e3
    if got != expected:
        run.failed += 1
        run.problem(f"operation {run.attempted}: checksum {got[:40]} != oracle {expected[:16]}")
    if counts is not None:
        sent.add(counts)
    return wall, cpu


def _check_replay(r: Replay, expected: str, sent: set, pairs: set, run: Run) -> None:
    if r.checksum != expected:
        run.problem("replayed merge differs from the oracle")
    if r.wire not in sent:
        run.problem(f"the replay's frames {r.wire} are not the frames the runtime sent {sorted(sent)}")
    pairs.add(r.pair_evals)


# Probe time that reads as 1.0 in the host-speed scale: about what the probe
# takes on this benchmark's 2-core reference host when no neighbour is busy.
PROBE_REF_MS = 9.0
# Probes taken back to back at each point between timed calls.
PROBE_BURST = 3
_PROBE_ARRAY = np.linspace(0.0, 1.0, 4000)


def host_probe_ms() -> float:
    """Time of a fixed host-speed probe that runs no distcov code.

    Elementwise numpy on a small array and a pure-Python loop, so that it
    follows both kinds of work the program does. It calls no BLAS routine,
    whose thread count the program may change.
    """
    t0 = time.perf_counter()
    for _ in range(600):
        (_PROBE_ARRAY * 1.0001 + 0.5).sum()
    total = 0
    for i in range(120_000):
        total += i
    return (time.perf_counter() - t0) * 1e3


def _tail(values: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it (needs n >= 20)."""
    n = len(values)
    if n < 20:
        return {"percentile": None, "value_ms": max(values), "note": f"max of {n}; n < 20"}
    pct = 100 * (n - 10) // n
    return {"percentile": pct, "value_ms": statistics.quantiles(values, n=100)[pct - 1]}


def measure(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
            corrupt: bool = False) -> Run:
    """Set up `SETUP_REPEATS` times, then run the closed loop for `seconds`.

    `corrupt` replaces the oracle checksum by a wrong one; the self-test uses
    it to show that a mismatch reaches `failed`.
    """
    run = Run()
    probes: list[float] = []

    def probe() -> None:
        probes.extend(host_probe_ms() for _ in range(PROBE_BURST))

    probe()
    setup_s, oracle_sums = [], set()
    sent: set = set()  # wire counts of the frames the runtime really sent
    for _ in range(SETUP_REPEATS):
        ctx = op = None  # free the previous set-up before making the next
        t0 = time.perf_counter()
        ctx = setup(w, seed, workdir)
        op = make_op(w, ctx)
        warm, counts = op()
        setup_s.append(time.perf_counter() - t0)
        probe()
        oracle_sums.add(ctx.oracle_checksum)
        if warm != ctx.oracle_checksum:
            run.problem(f"warm-up checksum {warm[:40]} != oracle {ctx.oracle_checksum[:16]}")
        if counts is not None:
            sent.add(counts)
    if len(oracle_sums) != 1:
        run.problem("the oracle checksum changed between set-ups of one seed")
    expected = "0" * 64 if corrupt else ctx.oracle_checksum
    if not sent:
        sent.add(sent_counts(ctx, w.transport))
    t_peak = time.perf_counter()
    peaks = peak_rss_mb(w, ctx, expected, run)
    peak_s = time.perf_counter() - t_peak
    probe()

    tracer = Tracer(enabled=trace)
    t_start = time.perf_counter()
    deadline = t_start + seconds
    walls, cpus, oracle_ms, traced_walls = [], [], [], []
    replays: list[Replay] = []
    pairs: set = set()

    def traced_op() -> None:
        with tracer.span("operation") as s:
            _timed_op(op, expected, sent, run)
        traced_walls.append(s.ms)

    iteration = 0
    while True:
        t_iter = time.perf_counter()
        tracer.op = iteration
        # A traced run alternates which operation goes first, so that any
        # cost of going second does not count as tracing overhead.
        if trace and iteration % 2:
            traced_op()
        wall, cpu = _timed_op(op, expected, sent, run)
        walls.append(wall)
        cpus.append(cpu)
        if trace and not iteration % 2:
            traced_op()
        probe()
        if trace:
            with tracer.span("ingest.load_table") as s:
                load_table(ctx.text)
            s.attrs["bytes"] = ctx.text.stat().st_size
            with tracer.span("ingest.partition_vertical"):
                partition_vertical(ctx.table, ctx.spec)
        with tracer.span("replay"):
            r = replay(ctx.blocks, ctx.schedule, w.transport, ctx.spec.total_cols, tracer)
        _check_replay(r, expected, sent, pairs, run)
        replays.append(r)
        probe()
        with tracer.span("runtime.run_centralized") as s:
            cov, _, _ = run_centralized(ctx.blocks)
        oracle_ms.append(s.ms)
        if matrix_checksum(cov.matrix) != expected:
            run.problem("run_centralized differs from the set-up oracle")
        del cov
        probe()
        iteration += 1
        # Stop when another iteration like this one would overrun the budget.
        now = time.perf_counter()
        if now + (now - t_iter) > deadline:
            break
    if len(sent) != 1 or len(pairs) != 1:
        run.problem(f"wire or pair counts changed between operations: {sorted(sent)} {sorted(pairs)}")

    # Times are means, not medians: the 2-core reference host switches
    # between a fast and a ~1.5x slower speed every few seconds, so
    # per-call times are bimodal and their median jumps between the two
    # levels from run to run.
    raw = {
        "wall_ms": statistics.fmean(walls),
        "cpu_ms": statistics.fmean(cpus),
        "oracle_ms": statistics.fmean(oracle_ms),
        "critical_path_ms": critical_path_ms(replays),
        "setup_s": statistics.median(setup_s),
    }
    # The host's single-thread speed also drifts over minutes, by more than
    # the bounds. The two serial, CPU-bound timings follow it and are scaled
    # by how much slower than PROBE_REF_MS the probe ran over this run (it
    # runs between the timed calls, never during them). The operation and
    # the set-up run site threads and wait on queues and sockets; they do
    # not follow the probe, so they are reported as measured.
    host_scale = PROBE_REF_MS / statistics.fmean(probes)
    widths = [len(g) for g in ctx.spec.groups]
    model = distributed_cost(widths, ctx.schedule)
    run.record = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "iterations": iteration,
        "phase_s": {"setup": sum(setup_s), "peak": peak_s, "loop": time.perf_counter() - t_start},
        "operations": run.attempted,
        "error_rate": run.failed / run.attempted,
        "cost_model": {"t_c": model.t_c, "t_d": model.t_d, "speedup": model.speedup},
        "wall_ms_median": statistics.median(walls),
        "wall_ms_tail": _tail(walls),
        "host_probe_ms": probes,
        "host_scale": host_scale,
        "unscaled": raw,
        "samples": {"wall_ms": walls, "traced_wall_ms": traced_walls, "cpu_ms": cpus,
                    "oracle_ms": oracle_ms, "setup_s": setup_s, "peak_rss_mb": peaks,
                    "critical_path_ms": [critical_path_ms([r]) for r in replays]},
    }
    if trace:
        layers = layer_metrics(tracer, replays, min(sent), w.rows, cli=w.cli_preset is not None)
        layers["runtime.coordination_ms"] = raw["wall_ms"] - layers.pop("serial_ms")
        layers["trace.overhead_ms"] = statistics.fmean(traced_walls) - raw["wall_ms"]
        run.metrics = layers
        run.record["spans"] = tracer.to_json(t_start)
    else:
        # cpu_ms stays in the record, ungated: README.md says why.
        run.metrics = {
            "wall_ms": raw["wall_ms"],
            "oracle_ms": raw["oracle_ms"] * host_scale,
            "critical_path_ms": raw["critical_path_ms"] * host_scale,
            "speedup": raw["oracle_ms"] / raw["critical_path_ms"],
            "peak_rss_mb": statistics.median(peaks),
            "setup_s": raw["setup_s"],
        }
    return run


def result(run: Run, trace: bool) -> dict:
    """The result line: every metric of the mode, by name, with its unit."""
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": run.metrics[k], "unit": u} for k, u in units.items()},
    }


def layer_metrics(tracer: Tracer, replays: list[Replay], sent: tuple[int, int, int],
                  rows: int, cli: bool) -> dict[str, float]:
    """Per-layer numbers from span self times: the mean over iterations.

    The `wire.*` counts are `sent`, counted from the frames the runtime sent.

    Also returns `serial_ms`, the sum of the phases one operation executes
    once each (every local and cross block, every raw-column edge, the codec
    of every frame sent to the coordinator, merge and eigen; for `cli`, also
    the text ingest, the partition and the centralized run), which the
    caller turns into `runtime.coordination_ms`.
    """
    self_ms = tracer.self_ms()
    by_op: dict[int, list] = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)

    per_iter = []
    for spans, r in zip((by_op[k] for k in sorted(by_op)), replays):
        v: dict[str, float] = defaultdict(float)
        local, cross, edges = [], defaultdict(float), []
        for s in spans:
            ms = self_ms[s.id]
            if s.name == "covariance.local_covariance":
                local.append(ms)
            elif s.name == "covariance.cross_covariance":
                cross[s.attrs["receiver"]] += ms
            elif s.name == "runtime.edge":
                edges.append(ms)
                v["edge_bytes"] += s.attrs["bytes"]
            elif s.name in ("wire.encode_message", "wire.decode_message"):
                side = "encode" if s.name == "wire.encode_message" else "decode"
                v[f"{side}_ms"] += ms
                v[f"{side}_bytes"] += s.attrs["bytes"]
                if s.attrs["kind"] != "DATA_BLOCK":
                    v["coordinator_codec_ms"] += ms
            elif s.name == "ingest.load_table":
                v["load_ms"], v["load_bytes"] = ms, s.attrs["bytes"]
            elif s.name == "ingest.partition_vertical":
                v["partition_ms"] = ms
            elif s.name == "covariance.merge_blocks":
                v["merge_ms"] = ms
            elif s.name == "eigen.symmetric_eigen":
                v["eigen_ms"] = ms
            elif s.name == "runtime.run_centralized":
                v["oracle_ms"] = ms
        kernel_ms = sum(local) + sum(cross.values())
        serial_ms = (kernel_ms + sum(edges) + v["coordinator_codec_ms"]
                     + v["merge_ms"] + v["eigen_ms"])
        if cli:
            serial_ms += v["load_ms"] + v["partition_ms"] + v["oracle_ms"]
        per_iter.append({
            "ingest.load_table_ms": v["load_ms"],
            "ingest.load_table_mb_s": v["load_bytes"] / 1e3 / v["load_ms"],
            "ingest.partition_ms": v["partition_ms"],
            "covariance.local_ms_max": max(local),
            "covariance.local_ms_sum": sum(local),
            "covariance.cross_ms_max": max(cross.values()),
            "covariance.cross_ms_sum": sum(cross.values()),
            "covariance.pair_evals": r.pair_evals,
            "covariance.pairs_per_s": r.pair_evals / kernel_ms * 1e3,
            "covariance.gflops_computed": 2.0 * rows * r.pair_evals / kernel_ms / 1e6,
            "covariance.merge_ms": v["merge_ms"],
            "wire.encode_ms": v["encode_ms"],
            "wire.decode_ms": v["decode_ms"],
            "wire.encode_mb_s": v["encode_bytes"] / 1e3 / v["encode_ms"],
            "wire.decode_mb_s": v["decode_bytes"] / 1e3 / v["decode_ms"],
            "wire.frames": sent[0],
            "wire.data_bytes": sent[1],
            "wire.cov_bytes": sent[2],
            "runtime.edge_ms_max": max(edges),
            "runtime.edge_mb_s": v["edge_bytes"] / 1e3 / sum(edges),
            "eigen.eigh_ms": v["eigen_ms"],
            "serial_ms": serial_ms,
        })
    return {k: statistics.fmean(it[k] for it in per_iter) for k in per_iter[0]}


def host_facts(root: Path) -> dict:
    """Facts that explain the numbers; recorded as found, never changed."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_env": {
            v: os.environ.get(v)
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": _git_sha(root),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
        ),
    }


def _git_sha(root: Path) -> str | None:
    # The ceiling keeps git from reporting a repository that merely encloses
    # a checkout which is not one itself.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None
