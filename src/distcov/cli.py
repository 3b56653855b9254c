"""Command-line front end.

Subcommands: `schedule` (inspect the exchange schedule), `run` (one mode,
its matrix eigen-decomposed and timed, one report), `compare` (one
centralized oracle per table, one distributed run per partitioning,
bit-exact equality gate, plot data), `cost-model` (analytical speed-up),
`gen` (reproducible synthetic dataset).

No report carries the matrix, which at benchmark scale is 649x649 values:
equality is shown by `matrix_checksum`, and `run --dump-matrix` writes the
numbers as `.npy`. `compare` decomposes nothing: a row only proves the
merged bytes equal to the oracle's and times both sides, and `run`
reports the eigenvalues of the same bytes.

Exit codes: 0 success, 2 usage, 3 data error, 4 protocol error, 5 matrix
mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .costmodel import distributed_cost
from .eigen import symmetric_eigen
from .errors import DistCovError, MismatchError, ProtocolError
from .ingest import (
    PartitionSpec,
    _hjoin,
    load_table,
    mfeat_preset,
    partition_vertical,
    synthetic_table,
)
from .matrix import matrix_checksum
from .runtime import _timed_exchange, _timed_oracle, critical_path_ms
from .schedule import build_schedule

__all__ = ["main"]

_PRESETS = tuple(f"mfeat-{n}" for n in range(2, 7))
_REPORT_VERSION = 6
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads_env() -> dict:
    """The BLAS thread variables as found in the environment, None if unset:
    the setting a report's CPU readings were taken at."""
    return {v: os.environ.get(v) for v in _BLAS_THREAD_VARS}


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _width_list(text: str) -> list[int]:
    try:
        widths = [int(w) for w in text.split(",") if w.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated int list") from None
    if not widths:
        raise argparse.ArgumentTypeError("width list is empty")
    return widths


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="distcov",
        description="Exact covariance of vertically partitioned data, "
        "distributed or centralized.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("schedule", help="show the exchange schedule")
    sp.add_argument("--sites", type=_positive_int, required=True)
    sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sp.set_defaults(func=_cmd_schedule)

    rp = sub.add_parser("run", help="run one mode on a dataset and report")
    _data_args(rp)
    rp.add_argument("--mode", choices=("centralized", "distributed"), required=True)
    rp.add_argument("--transport", choices=("in-process", "tcp"), default="in-process")
    rp.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    rp.add_argument("--dump-matrix", type=Path, default=None,
                    help="also write the full matrix (.npy)")
    rp.set_defaults(func=_cmd_run)

    cp = sub.add_parser("compare", help="run both modes and assert bit-exact equality")
    _data_args(cp, repeatable_preset=True)
    cp.add_argument("--transport", choices=("in-process", "tcp"), default="in-process")
    cp.add_argument("--out", type=Path, default=None)
    cp.add_argument("--plot-data", type=Path, default=None,
                    help="write partitions/centralized-ms/distributed-ms rows here")
    cp.set_defaults(func=_cmd_compare)

    mp = sub.add_parser("cost-model", help="analytical operation counts and speed-up")
    mp.add_argument("--widths", type=_width_list, required=True,
                    help="comma-separated per-site column counts")
    mp.add_argument("--out", type=Path, default=None)
    mp.set_defaults(func=_cmd_cost_model)

    gp = sub.add_parser("gen", help="write a reproducible synthetic dataset")
    gp.add_argument("--rows", type=_positive_int, required=True)
    gp.add_argument("--cols", type=_positive_int, required=True)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--out", type=Path, required=True)
    gp.add_argument("--format", choices=("whitespace", "csv"), default="whitespace")
    gp.set_defaults(func=_cmd_gen)
    return p


def _data_args(sp: argparse.ArgumentParser, repeatable_preset: bool = False) -> None:
    sp.add_argument("--inputs", nargs="+", type=Path, required=True,
                    help="data files, joined column-wise in the given order")
    sp.add_argument("--format", choices=("whitespace", "csv"), default="whitespace")
    g = sp.add_mutually_exclusive_group()
    if repeatable_preset:
        g.add_argument("--preset", action="append", choices=_PRESETS, default=None,
                       help="benchmark partitioning; repeat for several rows")
    else:
        g.add_argument("--preset", choices=_PRESETS, default=None,
                       help="benchmark partitioning of the 649 feature columns")
    g.add_argument("--spec", type=Path, default=None,
                   help="partition spec JSON; default is one site per input file")


def _load_inputs(args) -> tuple:
    """The input files joined column-wise, and each file's width. Only the
    joined table stays referenced. Files of different row counts are
    refused by name."""
    tables = [load_table(p, format=args.format) for p in args.inputs]
    return _hjoin(list(zip(args.inputs, tables))), [t.cols for t in tables]


def _resolve_spec(args, widths, preset_name: str | None) -> PartitionSpec:
    """The run's partition spec, checked against the inputs' width."""
    if preset_name is not None:
        spec = mfeat_preset(int(preset_name.split("-")[1]))
    elif args.spec is not None:
        try:
            spec = PartitionSpec.from_json(args.spec.read_text())
        except (OSError, UnicodeDecodeError, RecursionError) as exc:
            raise DistCovError(f"cannot read {args.spec}: {exc}") from None
    else:
        return PartitionSpec.from_widths(widths)  # one site per input file
    cols = sum(widths)
    if spec.total_cols != cols:
        raise DistCovError(f"spec covers {spec.total_cols} columns, the inputs have {cols}")
    return spec


@contextlib.contextmanager
def _written(path: Path, mode: str = "w"):
    """The CLI's one file writer: a handle on `path` opened in `mode`, text
    by default. Any OSError in opening or writing it raises DistCovError
    (exit 3)."""
    try:
        with open(path, mode) as f:
            yield f
    except OSError as exc:
        raise DistCovError(f"cannot write {path}: {exc}") from None


def _emit(doc: dict, out: Path | None) -> None:
    text = json.dumps(doc, indent=2)
    if out is None:
        print(text)
    else:
        with _written(out) as f:
            f.write(text + "\n")


def _cmd_schedule(args) -> int:
    s = build_schedule(args.sites)
    if args.json:
        _emit(s.to_dict(), None)
        return 0
    print(f"t={s.t}")
    for k, preds in enumerate(s.predecessors):
        shown = ", ".join(str(p) for p in preds) if preds else "(none)"
        print(f"site {k} <- {shown}")
    return 0


def _cmd_run(args) -> int:
    table, widths = _load_inputs(args)
    spec = _resolve_spec(args, widths, args.preset)
    if args.mode == "distributed":
        schedule = build_schedule(spec.sites)
        cov, metrics = _timed_exchange(partition_vertical(table, spec), schedule, args.transport)
    else:
        schedule = None
        cov, metrics = _timed_oracle(table)
    t0 = time.perf_counter()
    decomp = symmetric_eigen(cov)
    eigen_ms = (time.perf_counter() - t0) * 1e3
    if args.dump_matrix is not None:
        with _written(args.dump_matrix, "wb") as f:
            np.save(f, cov.matrix.values, allow_pickle=False)
    _emit({
        "report_version": _REPORT_VERSION,
        "blas_threads_env": _blas_threads_env(),
        "mode": args.mode,
        "partitions": spec.sites,
        "dim": cov.dim,
        "matrix_checksum": matrix_checksum(cov.matrix),
        "top_eigenvalues": list(decomp.eigenvalues[:10]),
        "eigen_ms": eigen_ms,
        "metrics": metrics.to_dict(),
        "schedule": None if schedule is None else schedule.to_dict(),
    }, args.out)
    return 0


def _cmd_compare(args) -> int:
    table, widths = _load_inputs(args)
    presets = args.preset if args.preset else [None]
    specs = [_resolve_spec(args, widths, name) for name in presets]
    cen_cov, cen_metrics = _timed_oracle(table)
    checksum = matrix_checksum(cen_cov.matrix)
    # Thread CPU on both sides; the distributed aggregate assumes one processor
    # per site, so both are one-processor times only at one BLAS thread.
    centralized_ms = cen_metrics.site_cov_cpu_ms[0]
    rows = []
    for spec in specs:
        blocks = partition_vertical(table, spec)
        schedule = build_schedule(spec.sites)
        dist_cov, dist_metrics = _timed_exchange(blocks, schedule, args.transport)
        if dist_cov != cen_cov:  # bit for bit
            raise MismatchError(
                f"distributed and centralized matrices differ (t={spec.sites}, "
                f"distributed {matrix_checksum(dist_cov.matrix)[:16]}…, "
                f"centralized {checksum[:16]}…)"
            )
        distributed_ms = critical_path_ms(dist_metrics)
        rows.append({
            "partitions": spec.sites,
            "equal": True,
            "matrix_checksum": checksum,
            "centralized_ms": centralized_ms,
            "distributed_ms": distributed_ms,
            "measured_speedup": (centralized_ms / distributed_ms) if distributed_ms > 0 else None,
            "cost_model": distributed_cost([b.data.cols for b in blocks], schedule).to_dict(),
            "distributed_metrics": dist_metrics.to_dict(),
            "centralized_metrics": cen_metrics.to_dict(),
        })
    doc = {"report_version": _REPORT_VERSION, "blas_threads_env": _blas_threads_env(),
           "comparisons": rows}
    _emit(doc, args.out)
    if args.plot_data is not None:
        lines = ["# partitions centralized_ms distributed_ms"]
        for row in rows:
            lines.append(
                f"{row['partitions']} {row['centralized_ms']:.3f} {row['distributed_ms']:.3f}"
            )
        with _written(args.plot_data) as f:
            f.write("\n".join(lines) + "\n")
    return 0


def _cmd_cost_model(args) -> int:
    report = distributed_cost(args.widths, build_schedule(len(args.widths)))
    doc = {"report_version": _REPORT_VERSION, "widths": args.widths, **report.to_dict()}
    _emit(doc, args.out)
    return 0


def _cmd_gen(args) -> int:
    table = synthetic_table(args.rows, args.cols, args.seed)
    sep = "," if args.format == "csv" else " "
    # %.17g round-trips every float64 exactly, so gen -> load is lossless.
    with _written(args.out) as f:
        np.savetxt(f, table.values, fmt="%.17g", delimiter=sep)
    print(f"wrote {args.rows}x{args.cols} (seed {args.seed}) to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MismatchError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 5
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 4
    except DistCovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
