"""Dataset loading and vertical partitioning, plus the handwritten-digits
feature-set presets used by the benchmark CLI.

The benchmark dataset is the UCI "Multiple Features" collection: six files
of per-digit feature columns sharing the same 2000 rows. Joined in canonical
file order they form a 2000x649 table; the presets below split that table
across 2..6 sites along the file boundaries.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .covariance import ColumnBlock, _column_count, _row_count
from .errors import DistCovError
from .matrix import DenseMatrix

__all__ = [
    "PartitionSpec",
    "load_table",
    "hjoin",
    "partition_vertical",
    "mfeat_preset",
    "even_preset",
    "synthetic_table",
    "load_mfeat",
    "MFEAT_FILES",
    "MFEAT_WIDTHS",
]

# Canonical global column order of the six feature files: name, filename, width.
MFEAT_FILES: tuple[tuple[str, str, int], ...] = (
    ("Fact", "mfeat-fac", 216),
    ("Fou", "mfeat-fou", 76),
    ("Kar", "mfeat-kar", 64),
    ("Mor", "mfeat-mor", 6),
    ("Pix", "mfeat-pix", 240),
    ("Zer", "mfeat-zer", 47),
)
MFEAT_WIDTHS: tuple[int, ...] = tuple(w for _, _, w in MFEAT_FILES)

# File-boundary groupings per site count; indices into MFEAT_FILES.
_MFEAT_GROUPINGS: dict[int, tuple[tuple[int, ...], ...]] = {
    2: ((0, 1, 2), (3, 4, 5)),
    3: ((0,), (1, 2), (3, 4, 5)),
    4: ((0,), (1, 2), (3, 4), (5,)),
    5: ((0,), (1,), (2,), (3, 4), (5,)),
    6: ((0,), (1,), (2,), (3,), (4,), (5,)),
}


@dataclass(frozen=True)
class PartitionSpec:
    """Assignment of every global column to exactly one site.

    Group i belongs to site i. A group is a set of columns: it may be given
    in any order, and is stored in increasing order, the order its
    `ColumnBlock` holds. The groups must partition [0, total_cols); the
    proof is the runners' own, `covariance._column_count`.
    """

    total_cols: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups", tuple(tuple(sorted(int(c) for c in g)) for g in self.groups)
        )
        if self.total_cols < 1:
            raise DistCovError(f"total_cols must be >= 1, got {self.total_cols}")
        if not self.groups:
            raise DistCovError("a partition needs at least one group")
        for i, g in enumerate(self.groups):
            if not g:
                raise DistCovError(f"group {i} is empty")
            if g[0] < 0 or g[-1] >= self.total_cols:
                c = g[0] if g[0] < 0 else g[-1]
                raise DistCovError(f"group {i} references column {c}, "
                                   f"valid range is [0, {self.total_cols})")
        held = _column_count(self.groups)  # every column is in range: held <= total_cols
        if held < self.total_cols:
            raise DistCovError(f"column {held} held by no site")

    @classmethod
    def from_widths(cls, widths: Sequence[int]) -> "PartitionSpec":
        """Consecutive column ranges: site i holds the next widths[i] columns."""
        bounds = [0, *itertools.accumulate(int(w) for w in widths)]
        groups = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
        return cls(total_cols=bounds[-1], groups=groups)

    @property
    def sites(self) -> int:
        return len(self.groups)

    @classmethod
    def from_json(cls, text: str) -> "PartitionSpec":
        """Parse `{"total_cols": n, "groups": [{"site": i, "cols": [...]}]}`;
        any other key, such as a group's "name", is ignored. Every number
        must be a JSON integer: a float, a string or a bool is refused."""
        try:
            doc = json.loads(text)
            total = _spec_value("total_cols", doc["total_cols"], int)
            for i, e in enumerate(doc["groups"]):
                if "site" not in e:
                    raise DistCovError(f'malformed partition spec: group {i} has no "site"')
                _spec_value(f"group {i} site", e["site"], int)
                for c in _spec_value(f"group {i} cols", e["cols"], list):
                    _spec_value(f"group {i} column", c, int)
            raw = sorted(doc["groups"], key=lambda e: e["site"])
            sites = [e["site"] for e in raw]
            groups = tuple(tuple(e["cols"]) for e in raw)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DistCovError(
                f"malformed partition spec: {type(exc).__name__}: {exc}; expected "
                '{"total_cols": n, "groups": [{"site": i, "cols": [...]}, ...]}'
            ) from None
        if sites != list(range(len(raw))):
            raise DistCovError(f"group site-ids must be 0..{len(raw) - 1} in order")
        return cls(total_cols=total, groups=groups)


def _spec_value(where: str, value, kind: type):
    # Exact JSON types: int() would take "3", 0.9 and true, and tuple() "012".
    if type(value) is not kind:
        raise DistCovError(f"malformed partition spec: {where} is {json.dumps(value)}, "
                           f"not {'an integer' if kind is int else 'a list'}")
    return value


def load_table(path: str | Path, format: str = "whitespace") -> DenseMatrix:
    """Parse a numeric text file into a matrix.

    `format` is "whitespace" (runs of blanks between fields, the native
    layout of the benchmark files) or "csv", whose fields may be quoted.
    Both read numbers by numpy's grammar. A CSV's first non-blank row with
    a field that does not parse as a number is taken as a header and
    skipped; it must have as many fields as the data rows. A NaN or
    infinity is data, in any row. The matrix holds values only.

    Raises:
        DistCovError: the file cannot be read or decoded, rows disagree on
            field count, a field is not a number, the file has no data
            rows, or a field parses but is NaN or infinite. Each names
            the file, and a field's fault its row and field.
    """
    if format not in ("whitespace", "csv"):
        raise DistCovError(f"unknown format {format!r}, expected 'whitespace' or 'csv'")
    p = Path(path)
    try:
        header, csv_args = _csv_header(p) if format == "csv" else (0, {})
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty file is reported below
                data = np.loadtxt(p, dtype=np.float64, comments=None, ndmin=2, **csv_args)
            if not data.size or header not in (0, data.shape[1]):
                raise DistCovError("no data rows")  # or a header of another width
            return DenseMatrix._checked(data)
        except (ValueError, DistCovError) as exc:
            raise _fault(p, format, header > 0, exc) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DistCovError(f"cannot read {p}: {exc}") from None


def _csv_header(p: Path) -> tuple[int, dict]:
    """The field count of a CSV's header, 0 if it has none, and numpy's
    arguments for the file. The header is the first non-blank row, if one
    of its fields does not parse; the lines skipped count blank ones."""
    with open(p, newline="") as f:
        rows = csv.reader(f)
        row = next((r for r in rows if r), [])
        header = len(row) if row and _refusal(row) == "is not a number" else 0
        return header, {"delimiter": ",", "quotechar": '"', "skiprows": header and rows.line_num}


def _fault(p: Path, format: str, header: bool, reason: object) -> DistCovError:
    """Why `p` was refused, found by a pass over its non-blank rows,
    numbered from 1 with the header: the first row whose field count
    differs from the first data row's, or the first field that is not a
    finite number. Failing both, `reason`: numpy's or the refusal's own."""
    with open(p, newline="") as f:  # lines end where numpy's do: at \n, \r or \r\n
        if format == "csv":
            rows = [r for r in csv.reader(f) if r]
        else:
            rows = [line.split() for line in f if line.strip()]
    width = len(rows[header]) if len(rows) > header else None  # None: no data rows
    for i, fields in enumerate(rows if width else []):
        if len(fields) != width:
            return DistCovError(f"{p}: row {i + 1} has {len(fields)} fields, expected {width}")
        if i >= header and _refusal(fields):
            j, why = next((j, why) for j, f in enumerate(fields) if (why := _refusal([f])))
            return DistCovError(f"{p}: row {i + 1} field {j + 1}: {fields[j]!r} {why}")
    return DistCovError(f"{p}: {reason}")


def _refusal(fields: Sequence[str]) -> str | None:
    """Why `fields`, read as one row by the loader's number grammar, are
    not a finite row: "is not a number" or "is not finite"; None if they
    are. Each field is quoted, so numpy reads exactly its text."""
    line = ",".join('"' + f.replace('"', '""') + '"' for f in fields)
    try:
        DenseMatrix._checked(np.loadtxt([line], delimiter=",", quotechar='"', comments=None,
                                        ndmin=2))
    except ValueError:
        return "is not a number"
    except DistCovError:
        return "is not finite"
    return None


def hjoin(tables: Sequence[DenseMatrix]) -> DenseMatrix:
    """Concatenate tables column-wise; they must share the row count. A
    single table comes back as it is."""
    return _hjoin([(f"table {i}", t) for i, t in enumerate(tables)])


def _hjoin(named: Sequence[tuple[object, DenseMatrix]]) -> DenseMatrix:
    """`hjoin` of (name, table) pairs; a table of another row count than the
    first is refused by both names."""
    if not named:
        raise DistCovError("hjoin needs at least one table")
    _row_count(named)
    if len(named) == 1:
        return named[0][1]
    return DenseMatrix._wrap(np.ascontiguousarray(np.hstack([t.values for _, t in named])))


def partition_vertical(m: DenseMatrix, spec: PartitionSpec) -> list[ColumnBlock]:
    """Split a matrix into per-site column blocks according to the spec."""
    if spec.total_cols != m.cols:
        raise DistCovError(
            f"spec covers {spec.total_cols} columns, matrix has {m.cols}"
        )
    return [
        ColumnBlock(
            site=site,
            data=DenseMatrix._wrap(np.take(m.values, group, axis=1)),
            global_cols=group,
        )
        for site, group in enumerate(spec.groups)
    ]


def mfeat_preset(partitions: int) -> PartitionSpec:
    """The benchmark's file-boundary split of the 649 feature columns.

    2: {Fact-Fou-Kar | Mor-Pix-Zer}; 3: {Fact | Fou-Kar | Mor-Pix-Zer};
    4: {Fact | Fou-Kar | Mor-Pix | Zer}; 5: {Fact | Fou | Kar | Mor-Pix | Zer};
    6: one file per site.
    """
    if partitions not in _MFEAT_GROUPINGS:
        raise DistCovError(
            f"no preset for {partitions} partitions, supported: 2..6"
        )
    return PartitionSpec.from_widths(
        [sum(MFEAT_WIDTHS[f] for f in files) for files in _MFEAT_GROUPINGS[partitions]]
    )


def even_preset(total_cols: int, partitions: int) -> PartitionSpec:
    """Near-even contiguous split of `total_cols` columns across sites."""
    if partitions < 1 or partitions > total_cols:
        raise DistCovError(
            f"cannot split {total_cols} columns across {partitions} sites"
        )
    bounds = np.linspace(0, total_cols, partitions + 1).astype(int)
    return PartitionSpec.from_widths(np.diff(bounds))


def synthetic_table(rows: int, cols: int, seed: int = 0) -> DenseMatrix:
    """Deterministic stand-in dataset with non-trivial column scales.

    Gaussian noise with per-column scale and shift, so covariance matrices
    computed from it have distinct, non-degenerate entries.
    """
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((rows, cols))
    scale = 1.0 + (np.arange(cols, dtype=np.float64) % 7.0)
    shift = (np.arange(cols, dtype=np.float64) % 11.0) - 5.0
    data = np.ascontiguousarray(data * scale + shift)
    return DenseMatrix._wrap(data)


def load_mfeat(root: str | Path) -> DenseMatrix:
    """Load and join the six real feature files from a directory.

    Expects the canonical filenames (mfeat-fac, mfeat-fou, mfeat-kar,
    mfeat-mor, mfeat-pix, mfeat-zer) as distributed by the UCI repository.

    Raises:
        DistCovError: a file is missing or unreadable, or has an unexpected
            column count.
    """
    rootp = Path(root)
    tables = []
    for name, fname, width in MFEAT_FILES:
        t = load_table(rootp / fname, format="whitespace")
        if t.cols != width:
            raise DistCovError(
                f"{fname}: expected {width} columns ({name}), found {t.cols}"
            )
        tables.append((fname, t))
    return _hjoin(tables)
