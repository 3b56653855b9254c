"""distcov benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload mfeat6-tcp --seed 1 --seconds 35 --trace 0

Run from the repository root. The package is imported from ./src, so no
install is needed. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones. The full record
(host facts, host-speed probes, unscaled serial times, cost model, tail latency,
and with --trace 1 every span) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "distcov" / "__init__.py").is_file():
        print(f"error: no distcov sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench  # needs the two paths above

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    w = bench.WORKLOADS[args.workload]
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = bench.measure(w, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    line = bench.result(run, bool(args.trace))
    record = {"host": bench.host_facts(ROOT), **run.record, "problems": run.problems,
              "metrics": line["metrics"]}
    spans = record.pop("spans", None)
    stem = out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans) + "\n")

    print(f"# {w.name} seed={args.seed} trace={args.trace}")
    print(f"# host {json.dumps(record['host'])}")
    for k, m in line["metrics"].items():
        print(f"{k:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':32s} {run.failed / run.attempted:>16.6g} 1 "
          f"({run.failed}/{run.attempted} operations)")
    tail = record["wall_ms_tail"]
    label = f"p{tail['percentile']}" if tail["percentile"] else tail["note"]
    print(f"{'wall_ms_median':32s} {record['wall_ms_median']:>16.6g} ms")
    print(f"{'wall_ms_tail':32s} {tail['value_ms']:>16.6g} ms ({label})")
    print(f"{'cpu_ms':32s} {record['unscaled']['cpu_ms']:>16.6g} ms (mean; not gated)")
    print(f"{'modelled_speedup':32s} {record['cost_model']['speedup']:>16.6g} x (t_c/t_d)")
    probes = record["host_probe_ms"]
    print(f"{'host_probe_ms':32s} {statistics.fmean(probes):>16.6g} ms "
          f"(mean of {len(probes)}; host_scale {record['host_scale']:.6g})")
    for k in ("oracle_ms", "critical_path_ms"):
        print(f"{k + ' unscaled':32s} {record['unscaled'][k]:>16.6g} ms")
    for text in run.problems:
        print(f"# problem: {text}")
    print(f"# record: {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
