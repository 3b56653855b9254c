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
- `sweep`: `distcov compare --preset mfeat-2 ... --preset mfeat-6` over the
  in-process transport on a 2000x649 table from `distcov gen --seed 1`, run
  5 times in a child with one BLAS thread, where a thread-CPU reading is a
  one-processor time: per preset the medians of `centralized_ms`,
  `distributed_ms` and `measured_speedup`, the modelled speed-up, and the
  one checksum of every row; `misses` lists each preset whose measured
  speed-up is more than 25% off the model.
- `even_sweep` (not gated): on the same table, for t = 6, 8, 12, 18, 24 and
  32 sites, one `distcov compare --spec` with `even_preset(649, t)`'s
  groups, run 5 times in the same one-BLAS-thread child: per t the medians
  of `centralized_ms`, `distributed_ms` and `measured_speedup`, the
  modelled speed-up, the measured/model ratio and the one checksum.
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
PRESETS = tuple(f"mfeat-{t}" for t in range(2, 7))
EVEN_SITES = (6, 8, 12, 18, 24, 32)
ONE_BLAS_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
MISS_BOUND = 0.25


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


def _compared(argv: list, env: dict) -> tuple[list, str]:
    """SWEEP_RUNS `distcov compare` reports of argv, and the one checksum of
    all their rows; more than one raises."""
    docs = [json.loads(_run(argv, env)) for _ in range(SWEEP_RUNS)]
    checksums = {r["matrix_checksum"] for d in docs for r in d["comparisons"]}
    if len(checksums) != 1:
        raise RuntimeError(f"{argv} gave {len(checksums)} checksums: {sorted(checksums)}")
    return docs, checksums.pop()


def _medians(docs: list, i: int) -> dict:
    """Row i of the reports: its timings' medians and the modelled speed-up."""
    rows = [d["comparisons"][i] for d in docs]
    row = {k: statistics.median(r[k] for r in rows)
           for k in ("centralized_ms", "distributed_ms", "measured_speedup")}
    row["cost_model_speedup"] = rows[0]["cost_model"]["speedup"]
    return row


def _sweeps() -> tuple[dict, dict]:
    """The mfeat-2..6 sweep and the even-width sweep, each report run
    SWEEP_RUNS times at one BLAS thread."""
    src = str(ROOT / "src")
    env = {**os.environ, **ONE_BLAS_THREAD,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cli = [sys.executable, "-m", "distcov.cli"]
    from distcov.ingest import even_preset  # this checkout's, through sys.path

    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "t2000.txt"
        _run([*cli, "gen", "--rows", "2000", "--cols", "649", "--seed", "1", "--out", table], env)
        argv = [*cli, "compare", "--inputs", table, *(a for p in PRESETS for a in ("--preset", p))]
        docs, checksum = _compared(argv, env)
        even = {}
        for t in EVEN_SITES:
            spec = Path(tmp) / f"even-{t}.json"
            groups = even_preset(649, t).groups
            spec.write_text(json.dumps({"total_cols": 649, "groups": [
                {"site": i, "cols": list(g)} for i, g in enumerate(groups)]}))
            t_docs, t_checksum = _compared([*cli, "compare", "--inputs", table, "--spec", spec], env)
            row = _medians(t_docs, 0)
            row["ratio"] = row["measured_speedup"] / row["cost_model_speedup"]
            even[t] = {**row, "matrix_checksum": t_checksum}
    presets = {}
    for i, name in enumerate(PRESETS):
        row = _medians(docs, i)
        row["miss"] = row["measured_speedup"] / row["cost_model_speedup"] - 1.0
        presets[name] = row
    common = {"table": "distcov gen --rows 2000 --cols 649 --seed 1", "transport": "in-process",
              "runs": SWEEP_RUNS, "blas_threads_env": docs[0]["blas_threads_env"]}
    sweep = {**common, "matrix_checksum": checksum, "presets": presets,
             "misses": [name for name, row in presets.items() if abs(row["miss"]) > MISS_BOUND]}
    return sweep, {**common, "sites": even}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", type=Path, help="the BENCH file to write")
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import bench  # perfbench's, through the two paths above

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
    }
    doc["sweep"], doc["even_sweep"] = _sweeps()
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name in doc["sweep"]["misses"]:
        row = doc["sweep"]["presets"][name]
        print(f"{name}: measured speed-up {row['measured_speedup']:.2f} misses the model's "
              f"{row['cost_model_speedup']:.2f} by {row['miss']:+.0%}")
    for t, row in doc["even_sweep"]["sites"].items():
        print(f"t={t}: measured/model {row['ratio']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
