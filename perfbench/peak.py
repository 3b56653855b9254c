"""Peak resident memory of one operation, in a fresh process.

    python3 perfbench/peak.py blocks <blocks.pickle> <transport>
    python3 perfbench/peak.py cli <report.json> <distcov argv...>

`blocks` loads the pickled column blocks (the operation's input) and runs
`run_distributed` on them once; `cli` runs `distcov.cli.main(argv)` once and
reads the checksum from the report it writes. The last line of standard
output is {"peak_rss_mb", "checksum"}. Exits 1 if the operation fails.

The peak is the high-water mark of the process that runs the operation plus
that of its largest reaped child, as getrusage reports them. That process
is forked from this one before it imports anything: a process starts with
the high-water mark of the process that exec'd it (here the benchmark, with
its set-up), but a forked child starts from the few MiB of its parent.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    _child = os.fork()
    if _child:
        _, _status = os.waitpid(_child, 0)
        sys.exit(os.waitstatus_to_exitcode(_status))

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from distcov import build_schedule, matrix_checksum, run_distributed  # noqa: E402
from distcov.cli import main as cli_main  # noqa: E402


def _peak_mb() -> float:
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


def main(argv: list[str]) -> int:
    mode, path, *rest = argv
    if mode == "blocks":
        with open(path, "rb") as f:
            blocks = pickle.load(f)
        cov, _, _ = run_distributed(blocks, build_schedule(len(blocks)), transport=rest[0])
        checksum = matrix_checksum(cov.matrix)
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(rest)
        if rc != 0:
            print(f"distcov {rest[0]} exited {rc}", file=sys.stderr)
            return 1
        rows = json.loads(Path(path).read_text())["comparisons"]
        if not all(row["equal"] is True for row in rows):
            print(f"distcov {rest[0]} reported unequal matrices", file=sys.stderr)
            return 1
        checksum = rows[0]["matrix_checksum"]
    print(json.dumps({"peak_rss_mb": _peak_mb(), "checksum": checksum}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
