"""The BENCH writer's sweep, run once on a small table: the long run that
writes a BENCH file goes through the same function."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from distcov import centralized_covariance, load_table, matrix_checksum
from distcov.cli import main
from distcov.ingest import even_preset

ROOT = Path(__file__).resolve().parents[1]


def _write_bench():
    spec = importlib.util.spec_from_file_location("write_bench", ROOT / "tools" / "write_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_measures_each_partition_and_checks_one_checksum(tmp_path):
    table = tmp_path / "t.txt"
    assert main(["gen", "--rows", "30", "--cols", "24", "--seed", "1", "--out", str(table)]) == 0
    partitions = {f"even-{t}": even_preset(24, t) for t in (2, 3)}
    sweep = _write_bench()._sweep(table, partitions, 1)
    assert sweep["runs"] == 1
    assert sweep["matrix_checksum"] == matrix_checksum(
        centralized_covariance(load_table(table)).matrix)
    assert list(sweep["partitions"]) == ["even-2", "even-3"]
    for row in sweep["partitions"].values():
        assert set(row) == {"centralized_ms", "distributed_ms", "measured_speedup",
                            "cost_model_speedup", "ratio"}
        assert row["measured_speedup"] > 0 and row["cost_model_speedup"] >= 1
        assert row["ratio"] == row["measured_speedup"] / row["cost_model_speedup"]
