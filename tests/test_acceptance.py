"""Acceptance gate: the eight criteria the artifact must satisfy.

Each test prints exactly one PASS/FAIL line on the real terminal, so a full
run reads as a checklist. Tolerances are pinned here and must not be
loosened; the equivalence criteria are exact bit equality, not approximate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from distcov import (
    ColumnBlock,
    DenseMatrix,
    GlobalCovariance,
    MessageKind,
    ProtocolMessage,
    build_schedule,
    centralized_covariance,
    decode_message,
    distributed_cost,
    encode_message,
    merge_blocks,
    mfeat_preset,
    partition_vertical,
    run_centralized,
    run_distributed,
    symmetric_eigen,
    synthetic_table,
)
from distcov.errors import ProtocolError
from distcov.schedule import pair_coverage
from conftest import blocks_for, raises_exactly, random_widths, schedule_blocks


def _report(capsys, n: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"[acceptance] criterion {n} {name}: {'PASS' if ok else 'FAIL'}")


# Mfeat-scale runs feed criteria 2 and 6; computed once on demand.
_MFEAT_CACHE: dict = {}


def _mfeat_runs() -> dict:
    if not _MFEAT_CACHE:
        table = synthetic_table(2000, 649, seed=2026)
        oracle = centralized_covariance(table)
        runs = {}
        for t in (2, 3, 4, 5, 6):
            blocks = partition_vertical(table, mfeat_preset(t))
            cov, _, metrics = run_distributed(blocks, build_schedule(t))
            runs[t] = (cov, metrics)
        _MFEAT_CACHE["oracle"] = oracle
        _MFEAT_CACHE["runs"] = runs
    return _MFEAT_CACHE


def test_criterion_1_oracle_equivalence(capsys):
    """Five seeded 60x25 datasets, every t in 1..6 with random widths:
    distributed output bit-identical to the centralized oracle."""
    ok = False
    try:
        started = time.perf_counter()
        for seed in range(5):
            rng = np.random.default_rng(9000 + seed)
            data = rng.standard_normal((60, 25)) * (1.0 + seed) + seed
            oracle = centralized_covariance(DenseMatrix(data))
            for t in range(1, 7):
                widths = random_widths(rng, 25, t)
                blocks = blocks_for(data, widths)
                cov, _, _ = run_distributed(blocks, build_schedule(t))
                assert cov.matrix == oracle.matrix, (seed, t, widths)
                cen, _, _ = run_centralized(blocks)
                assert cen.matrix == oracle.matrix, (seed, t, widths)
        assert time.perf_counter() - started < 5.0
        ok = True
    finally:
        _report(capsys, 1, "oracle equivalence (bit-exact, t=1..6)", ok)


def test_criterion_2_benchmark_scale_equivalence(capsys):
    """Synthetic 2000x649 dataset under all five benchmark presets:
    distributed equals centralized bit-exactly, within the time budget."""
    ok = False
    try:
        started = time.perf_counter()
        cache = _mfeat_runs()
        oracle = cache["oracle"]
        for t, (cov, _) in cache["runs"].items():
            assert cov.matrix == oracle.matrix, f"preset t={t}"
        assert time.perf_counter() - started < 60.0
        ok = True
    finally:
        _report(capsys, 2, "2000x649 equivalence for presets 2..6", ok)


def test_criterion_3_schedule_coverage(capsys):
    """All t in [1, 64]: exact-once pair coverage, list length <= floor(t/2)."""
    ok = False
    try:
        started = time.perf_counter()
        for t in range(1, 65):
            s = build_schedule(t)
            assert pair_coverage(range(t), s.blocks()) == ((), ()), t
            assert len(s.blocks()) == t + t * (t - 1) // 2
            assert max(map(len, s.predecessors)) <= t // 2
        assert time.perf_counter() - started < 1.0
        ok = True
    finally:
        _report(capsys, 3, "schedule exact-once coverage t=1..64", ok)


def test_criterion_4_five_site_fixture(capsys):
    """The documented five-site predecessor lists, exactly."""
    ok = False
    try:
        s = build_schedule(5)
        assert [list(p) for p in s.predecessors] == [
            [4, 3], [0, 4], [1, 0], [2, 1], [3, 2],
        ]
        ok = True
    finally:
        _report(capsys, 4, "five-site predecessor fixture", ok)


def test_criterion_5_transport_equivalence(capsys):
    """TCP and in-process transports agree bit-exactly; 100 random wire
    messages survive a roundtrip bit-for-bit."""
    ok = False
    try:
        for make_blocks in (
            lambda: blocks_for(
                np.array([
                    [1.0, 2.0, 6.0, 1.0, 3.0],
                    [2.0, 4.0, 5.0, 1.0, 1.0],
                    [3.0, 6.0, 4.0, 2.0, 4.0],
                    [4.0, 8.0, 3.0, 2.0, 1.0],
                    [5.0, 10.0, 2.0, 3.0, 5.0],
                    [6.0, 12.0, 1.0, 3.0, 9.0],
                ]),
                [2, 2, 1],
            ),
            lambda: blocks_for(
                np.random.default_rng(777).standard_normal((200, 30)) * 4.0,
                [8, 7, 9, 6],
            ),
        ):
            blocks = make_blocks()
            sched = build_schedule(len(blocks))
            cov_q, _, _ = run_distributed(blocks, sched, transport="in-process")
            cov_t, _, _ = run_distributed(blocks, sched, transport="tcp")
            assert cov_q.matrix == cov_t.matrix

        rng = np.random.default_rng(4242)
        for _ in range(100):
            rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            values = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-3, 4)
            block = ColumnBlock(
                site=int(rng.integers(0, 50)),
                data=DenseMatrix(values),
                global_cols=tuple(range(cols)),
            )
            msg = ProtocolMessage(
                MessageKind.DATA_BLOCK,
                sender=int(rng.integers(0, 50)),
                receiver=int(rng.integers(0, 50)),
                payload=block,
            )
            back = decode_message(encode_message(msg))
            assert back.payload.data == block.data
            assert back.payload.global_cols == block.global_cols
        ok = True
    finally:
        _report(capsys, 5, "transport equivalence + wire roundtrip", ok)


def test_criterion_6_eigen_quality(capsys):
    """Residual, trace and PSD bounds on random PSD matrices up to dim 200
    and on the benchmark-scale covariance."""
    ok = False
    try:
        cases = []
        for dim in (5, 40, 120, 200):
            rng = np.random.default_rng(500 + dim)
            f = rng.standard_normal((dim + 10, dim))
            cases.append(GlobalCovariance(f.T @ f))
        cases.append(_mfeat_runs()["oracle"])

        for cov in cases:
            a = cov.matrix.values
            fro = np.linalg.norm(a)
            e = symmetric_eigen(cov)
            vals = np.array(e.eigenvalues)
            vecs = e.eigenvectors.values
            residuals = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
            assert residuals.max() <= 1e-8 * fro
            assert abs(vals.sum() - np.trace(a)) <= 1e-8 * fro
            assert vals.min() >= -1e-10 * fro
        ok = True
    finally:
        _report(capsys, 6, "eigen quality bounds (incl. 649x649)", ok)


# Criterion 7's timed runs: medians of three runs each, interleaved on the
# same blocks, so a burst of load from another process decides none.
_TREND_RUNS = """
import json, statistics
from distcov import (build_schedule, critical_path_ms, mfeat_preset,
                     partition_vertical, run_distributed, synthetic_table)
table = synthetic_table(2000, 649, seed=2026)
blocks = {t: partition_vertical(table, mfeat_preset(t)) for t in (2, 6)}
paths = {2: [], 6: []}
for _ in range(3):
    for t in paths:
        _, _, metrics = run_distributed(blocks[t], build_schedule(t))
        paths[t].append(critical_path_ms(metrics))
print(json.dumps([statistics.median(paths[t]) for t in (2, 6)]))
"""


def test_criterion_7_speedup_model_and_trend(capsys):
    """Modeled speed-up >= floor(t/2) everywhere; measured per-site timings
    aggregate to a strictly faster run at t=6 than at t=2."""
    ok = False
    try:
        for t in range(2, 11):
            for gamma in (10, 50, 100):
                speedup = distributed_cost([gamma] * t, build_schedule(t)).speedup
                assert speedup >= t // 2, (t, gamma)

        # The timed runs go to a child process with one BLAS thread: with
        # more, the kernel's calling thread spin-waits for a helper whose
        # core another process may hold, and its CPU reading counts the wait.
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(sys.path),  # the distcov this test imports
        }
        child = subprocess.run(
            [sys.executable, "-c", _TREND_RUNS], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        t2, t6 = json.loads(child.stdout)
        assert t6 < t2, f"t=6 path {t6:.1f}ms not below t=2 path {t2:.1f}ms"
        ok = True
    finally:
        _report(capsys, 7, "speed-up bound + measured t=6 < t=2 trend", ok)


def test_criterion_8_three_site_merge_fixture(capsys):
    """Concrete three-site {x,y | z,w | v} fixture: the merged matrix equals
    the oracle, and dropping a cross block is rejected as a coverage gap."""
    ok = False
    try:
        data = DenseMatrix(np.reshape([
            1, 2, 6, 1, 3,
            2, 4, 5, 1, 1,
            3, 6, 4, 2, 4,
            4, 8, 3, 2, 1,
            5, 10, 2, 3, 5,
            6, 12, 1, 3, 9,
        ], (6, 5)))
        blocks = blocks_for(data.values, [2, 2, 1])
        sched = build_schedule(3)
        locals_, crosses = schedule_blocks(blocks, sched)
        merged = merge_blocks(locals_, crosses, 5)
        oracle = centralized_covariance(data)
        assert merged.matrix == oracle.matrix
        # spot-check two hand-derived entries: cov(x,y)=7, cov(x,w)=1.6
        assert merged.matrix.values[0, 1] == 7.0
        assert merged.matrix.values[0, 3] == 1.6
        with raises_exactly(ProtocolError, match="not covered by any block"):
            merge_blocks(locals_, crosses[:-1], 5)
        ok = True
    finally:
        _report(capsys, 8, "three-site merge fixture + coverage gate", ok)
