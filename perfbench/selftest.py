"""Toy-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, for each workload shrunk to a toy size:
  * BENCHMARK.json names exactly the workloads and metrics (with units)
    that the benchmark reports;
  * with tracing off and on, the run is correct, every named metric appears
    with its unit and is finite, and the traced run counts the frames the
    protocol sends and keeps its spans;
  * an injected checksum mismatch makes operations fail, so the error rate
    rises above zero and the run is reported as incorrect.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
from distcov.ingest import even_preset  # noqa: E402

# cli-compare keeps its 649 columns because `--preset mfeat-3` needs them.
TOY = {
    "mfeat6-tcp": dict(rows=30, cols=24, spec=lambda cols: even_preset(cols, 6), ingest_rows=5),
    "cli-compare": dict(rows=12, ingest_rows=12),
}
SPAN_KEYS = {"id", "op", "parent", "name", "start_ms", "end_ms", "attrs"}


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS),
          "BENCHMARK.json workloads match the benchmark's")
    for key, units in (("end_to_end", bench.END_TO_END_UNITS), ("per_layer", bench.PER_LAYER_UNITS)):
        check({m["name"]: m["unit"] for m in spec[key]} == units,
              f"BENCHMARK.json {key} names and units match the benchmark's")

    (HERE / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out"))
    try:
        for name, toy in TOY.items():
            w = dataclasses.replace(bench.WORKLOADS[name], **toy)
            for trace in (False, True):
                run = bench.measure(w, seed=3, seconds=0.1, trace=trace, workdir=workdir)
                line = bench.result(run, trace)
                units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
                tag = f"{name} trace={int(trace)}"
                check(run.correct and line["failed"] == 0 and line["attempted"] >= 1,
                      f"{tag}: correct, no failed operations {run.problems}")
                check(all(line["metrics"][k]["unit"] == u and math.isfinite(line["metrics"][k]["value"])
                          for k, u in units.items()) and len(line["metrics"]) == len(units),
                      f"{tag}: every metric present with its unit")
                if trace:
                    t = len(w.spec(w.cols).groups)
                    check(line["metrics"]["wire.frames"]["value"] == 2 * (t * (t - 1) // 2) + 2 * t,
                          f"{tag}: wire.frames counts the C(t,2) + t + C(t,2) + t frames sent")
                    spans = run.record["spans"]
                    check(bool(spans) and all(set(s) == SPAN_KEYS for s in spans),
                          f"{tag}: spans recorded with name, start, end, parent and op id")
            run = bench.measure(w, seed=3, seconds=0.1, trace=False, workdir=workdir, corrupt=True)
            check(run.failed > 0 and run.record["error_rate"] > 0 and not run.correct,
                  f"{name}: injected checksum mismatch raises error_rate above zero")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
