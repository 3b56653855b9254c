"""Write a BENCH file: this checkout's measured performance, as JSON.

    python3 tools/write_bench.py BENCH_N.json

Paths are this checkout's, wherever the command runs from; the file lands
where its argument says. It records:

- `host`: `perfbench/bench.py`'s `host_facts`, read as found
- `src`: the module and line count of `src/distcov`, and whether `src/`
  differs from the commit `host.git_sha` names (null outside a git checkout)
- `gated`: each workload of `perfbench/run.py` with `--trace 0`, 15 s at
  seeds 31-33 and the BLAS thread setting found, as the benchmark runs it:
  each run's end-to-end metrics and their medians
- `sweeps` (not gated): one entry per table from `distcov gen --seed 1`,
  2000x649 at `SWEEP_RUNS` runs and 20,000x649 at `TALL_RUNS`. Every
  partition, `mfeat-2` to `mfeat-6` and `even_preset(649, t)` for t = 6, 8,
  12, 18, 24 and 32, is written as a `--spec` file and measured by that
  many calls of `distcov compare --spec` over the in-process transport, in
  a child with one BLAS thread, where a thread-CPU reading is a
  one-processor time. Per partition: the medians of `centralized_ms`,
  `distributed_ms` and `measured_speedup`, the modelled speed-up and the
  measured/model `ratio`. Per table: the one checksum of every run, and
  `misses`, each mfeat preset whose ratio is more than 25% off 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (31, 32, 33)
SECONDS = 15
SWEEP_RUNS = 5
TALL_RUNS = 3
COLS = 649
TABLES = ((2000, SWEEP_RUNS), (20000, TALL_RUNS))  # (rows, runs)
EVEN_SITES = (6, 8, 12, 18, 24, 32)
MISS_BOUND = 0.25
CLI = [sys.executable, "-m", "distcov.cli"]
ONE_BLAS_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# The sweep's child: this checkout's package, at one BLAS thread.
CHILD_ENV = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def _run(argv: list, env: dict | None = None) -> str:
    """Standard output of argv, run from the checkout's root; a failure
    raises with the child's standard error."""
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, argv))} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _gated(workload: str) -> dict:
    """The workload's runs at SEEDS and the median of each metric."""
    runs = []
    for seed in SEEDS:
        out = _run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"])
        line = json.loads(out.splitlines()[-1])
        runs.append({"seed": seed, "correct": line["correct"], "attempted": line["attempted"],
                     "failed": line["failed"],
                     "metrics": {k: m["value"] for k, m in line["metrics"].items()}})
    units = {k: m["unit"] for k, m in line["metrics"].items()}
    return {
        "seconds": SECONDS,
        "median": {k: {"value": statistics.median(r["metrics"][k] for r in runs), "unit": u}
                   for k, u in units.items()},
        "runs": runs,
    }


def _sweep(table: Path, partitions: dict, runs: int) -> dict:
    """Each named `PartitionSpec` of `partitions`, written as a `--spec`
    file and measured by `runs` calls of `distcov compare --spec` on
    `table` in the one-BLAS-thread child: per partition its timings'
    medians, the modelled speed-up and the measured/model `ratio`; and the
    one checksum of every run, more than one raising."""
    rows, checksums = {}, set()
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in partitions.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps({"total_cols": spec.total_cols, "groups": [
                {"site": i, "cols": list(g)} for i, g in enumerate(spec.groups)]}))
            argv = [*CLI, "compare", "--inputs", table, "--spec", path]
            docs = [json.loads(_run(argv, CHILD_ENV)) for _ in range(runs)]
            reports = [d["comparisons"][0] for d in docs]
            checksums |= {r["matrix_checksum"] for r in reports}
            row = {k: statistics.median(r[k] for r in reports)
                   for k in ("centralized_ms", "distributed_ms", "measured_speedup")}
            row["cost_model_speedup"] = reports[0]["cost_model"]["speedup"]
            row["ratio"] = row["measured_speedup"] / row["cost_model_speedup"]
            rows[name] = row
    if len(checksums) != 1:
        raise RuntimeError(f"{table} gave {len(checksums)} checksums: {sorted(checksums)}")
    return {"transport": "in-process", "runs": runs,
            "blas_threads_env": docs[0]["blas_threads_env"],
            "matrix_checksum": checksums.pop(), "partitions": rows}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", type=Path, help="the BENCH file to write")
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import bench  # perfbench's, through the two paths above
    from distcov.ingest import even_preset, mfeat_preset

    host = bench.host_facts(ROOT)
    modules = sorted((ROOT / "src" / "distcov").glob("*.py"))
    doc = {
        "written_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host,
        "src": {"modules": len(modules),
                "lines": sum(len(m.read_text().splitlines()) for m in modules),
                "uncommitted": None if host["git_sha"] is None
                else bool(_run(["git", "status", "--porcelain", "--", "src"]))},
        "gated": {w: _gated(w) for w in bench.WORKLOADS},
        "sweeps": [],
    }
    presets = {f"mfeat-{t}": mfeat_preset(t) for t in range(2, 7)}
    partitions = {**presets, **{f"even-{t}": even_preset(COLS, t) for t in EVEN_SITES}}
    with tempfile.TemporaryDirectory() as tmp:
        for rows, runs in TABLES:
            gen = ["gen", "--rows", str(rows), "--cols", str(COLS), "--seed", "1"]
            table = Path(tmp) / f"t{rows}.txt"
            _run([*CLI, *gen, "--out", table], CHILD_ENV)
            sweep = _sweep(table, partitions, runs)
            table.unlink()
            sweep["misses"] = [n for n in presets
                               if abs(sweep["partitions"][n]["ratio"] - 1) > MISS_BOUND]
            doc["sweeps"].append({"table": "distcov " + " ".join(gen), **sweep})
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for sweep in doc["sweeps"]:
        for name, row in sweep["partitions"].items():
            miss = " (a miss)" if name in sweep["misses"] else ""
            print(f"{sweep['table']}, {name}: measured/model {row['ratio']:.2f}{miss}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
