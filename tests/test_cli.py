from __future__ import annotations

import hashlib
import importlib
import json
import pkgutil
import time
import types
import weakref

import numpy as np
import pytest

import distcov
import distcov.cli as cli
import distcov.errors as errors
import distcov.matrix as matrix
import distcov.runtime as runtime
import distcov.wire as wire
from distcov import (
    DenseMatrix,
    GlobalCovariance,
    MessageKind,
    build_schedule,
    centralized_covariance,
    load_table,
    matrix_checksum,
    mfeat_preset,
    partition_vertical,
    run_distributed,
    synthetic_table,
)
from distcov.cli import main
from distcov.runtime import InProcessTransport, TcpTransport
from conftest import open_fds, raises_exactly


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "data.txt"
    assert main(["gen", "--rows", "40", "--cols", "9", "--seed", "7", "--out", str(path)]) == 0
    return path


def _run_json(capsys, argv) -> dict:
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _keys(doc):
    """Every object key in a JSON document, at any depth."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _keys(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _keys(value)


def _count_calls(monkeypatch, calls: dict, *modules) -> None:
    """Count in `calls` every call of each named function that `modules` hold."""
    for module in modules:
        for name in calls:
            if not hasattr(module, name):
                continue
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)


# --- errors and exit codes ---------------------------------------------------

@pytest.mark.parametrize("argv, refusal", [
    (["gen", "--rows", "x", "--cols", "2", "--out", "t.txt"],
     "distcov gen: error: argument --rows: 'x' is not an integer"),
    (["cost-model", "--widths", "a,b"],
     "distcov cost-model: error: argument --widths: 'a,b' is not a comma-separated int list"),
    (["cost-model", "--widths", ","],
     "distcov cost-model: error: argument --widths: width list is empty"),
], ids=["rows-not-an-integer", "widths-not-integers", "widths-empty"])
def test_a_number_argument_that_does_not_parse_is_a_usage_error(capsys, argv, refusal):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == refusal


def test_one_exception_class_per_exit_code(monkeypatch, capsys):
    """`distcov.errors` holds one class per failure outcome, no other module
    defines one, and `main` turns each into its exit code and prefix."""

    def exception_classes(module):
        return {name for name, obj in vars(module).items()
                if isinstance(obj, type) and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__}

    assert exception_classes(errors) == {"DistCovError", "ProtocolError", "MismatchError"}
    for info in pkgutil.iter_modules(distcov.__path__):
        if info.name != "errors":
            module = importlib.import_module(f"distcov.{info.name}")
            assert exception_classes(module) == set(), info.name
    for cls, code, prefix in [
        (errors.DistCovError, 3, "error: "),
        (errors.ProtocolError, 4, "protocol error: "),
        (errors.MismatchError, 5, "mismatch: "),
    ]:
        def fail(args, _cls=cls):
            raise _cls("what went wrong")

        monkeypatch.setattr(cli, "_cmd_schedule", fail)
        assert main(["schedule", "--sites", "2"]) == code
        assert capsys.readouterr().err == f"{prefix}what went wrong\n"


# --- schedule ----------------------------------------------------------------

def test_schedule_text_output(capsys):
    assert main(["schedule", "--sites", "5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "t=5", "site 0 <- 4, 3", "site 1 <- 0, 4", "site 2 <- 1, 0", "site 3 <- 2, 1",
        "site 4 <- 3, 2",
    ]


def test_schedule_json_output(capsys):
    doc = _run_json(capsys, ["schedule", "--sites", "5", "--json"])
    assert doc == {"t": 5, "predecessors": [[4, 3], [0, 4], [1, 0], [2, 1], [3, 2]]}


def test_schedule_single_site(capsys):
    doc = _run_json(capsys, ["schedule", "--sites", "1", "--json"])
    assert doc == {"t": 1, "predecessors": [[]]}


def test_schedule_zero_sites_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "--sites", "0"])
    assert exc.value.code == 2


# --- gen ----------------------------------------------------------------------

def test_gen_round_trips_exactly(dataset, tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    assert main(["gen", "--rows", "40", "--cols", "9", "--seed", "7", "--format", "csv",
                 "--out", str(csv_path)]) == 0
    expected = synthetic_table(40, 9, seed=7)
    assert load_table(dataset) == expected
    assert load_table(csv_path, format="csv") == expected


def test_gen_csv(tmp_path, capsys):
    path = tmp_path / "d.csv"
    assert main(["gen", "--rows", "3", "--cols", "2", "--out", str(path), "--format", "csv"]) == 0
    m = load_table(path, format="csv")
    assert m.rows == 3 and m.cols == 2


# --- run -----------------------------------------------------------------------

def test_run_both_modes_same_checksum(dataset, tmp_path, capsys):
    d = _run_json(capsys, ["run", "--inputs", str(dataset), "--mode", "distributed"])
    c = _run_json(capsys, ["run", "--inputs", str(dataset), "--mode", "centralized"])
    assert d["report_version"] == 6 and c["report_version"] == 6
    assert d["partitions"] == 1 and d["mode"] == "distributed"
    assert d["matrix_checksum"] == c["matrix_checksum"]
    assert len(d["top_eigenvalues"]) == 9
    assert c["schedule"] is None and d["schedule"]["t"] == 1


@pytest.mark.parametrize("mode", ["centralized", "distributed"])
def test_a_table_of_tiny_values_runs_without_a_warning(tmp_path, capsys, mode):
    # Column 0 is ~1e-305: its slices are scaled up by ~2**1037.
    path = tmp_path / "tiny.txt"
    path.write_text("1e-305 1\n-2e-305 2\n3e-306 4\n")
    assert main(["run", "--inputs", str(path), "--mode", mode]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["dim"] == 2


@pytest.mark.parametrize("mode", ["centralized", "distributed"])
def test_run_times_its_one_decomposition_and_compare_has_none(dataset, capsys, monkeypatch,
                                                              mode):
    calls = {"symmetric_eigen": 0}
    _count_calls(monkeypatch, calls, runtime, cli)
    doc = _run_json(capsys, ["run", "--inputs", str(dataset), "--mode", mode])
    assert calls == {"symmetric_eigen": 1}
    assert doc["eigen_ms"] > 0
    assert not {"eigen_ms", "total_ms"} & set(doc["metrics"])
    compared = _run_json(capsys, ["compare", "--inputs", str(dataset)])
    assert calls == {"symmetric_eigen": 1}
    assert not any("eigen" in key for key in _keys(compared["comparisons"]))
    assert compared["comparisons"][0]["matrix_checksum"] == doc["matrix_checksum"]


def test_reports_name_the_blas_thread_setting(dataset, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    found = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}
    for argv in (["run", "--mode", "distributed"], ["run", "--mode", "centralized"],
                 ["compare"]):
        doc = _run_json(capsys, [*argv, "--inputs", str(dataset)])
        assert doc["blas_threads_env"] == found


def test_run_multifile_defaults_to_per_file_sites(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["gen", "--rows", "30", "--cols", "4", "--seed", "1", "--out", str(a)])
    main(["gen", "--rows", "30", "--cols", "5", "--seed", "2", "--out", str(b)])
    capsys.readouterr()
    d = _run_json(capsys, ["run", "--inputs", str(a), str(b), "--mode", "distributed"])
    assert d["partitions"] == 2
    assert d["schedule"] == {"t": 2, "predecessors": [[], [0]]}
    assert d["dim"] == 9


@pytest.mark.parametrize("command", [["run", "--mode", "centralized"], ["compare"]])
def test_inputs_of_different_row_counts_are_named(tmp_path, capsys, command):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("1 2\n3 4\n5 6\n")
    b.write_text("1\n2\n")
    assert main([*command, "--inputs", str(a), str(b)]) == 3
    assert capsys.readouterr().err == f"error: {b} has 2 rows, {a} has 3\n"


@pytest.mark.parametrize("command", [["run", "--mode", "centralized"],
                                     ["run", "--mode", "distributed"], ["compare"]])
@pytest.mark.parametrize("format, text, why", [
    ("csv", "1_0,2\n3,4\n", "1 data row after row 1, read as a header"),  # 1_0 is no number
    ("whitespace", "1 2\n", "1 data row"),
], ids=["csv-header", "whitespace"])
def test_one_data_row_is_named_by_its_file(tmp_path, capsys, command, format, text, why):
    p = tmp_path / "h.txt"
    p.write_text(text)
    assert main([*command, "--inputs", str(p), "--format", format]) == 3
    assert capsys.readouterr().err == (
        f"error: {p}: {why}; sample covariance needs at least 2 rows\n")


@pytest.mark.parametrize("command", [["run", "--mode", "centralized"], ["compare"]])
def test_multifile_run_holds_its_data_once(tmp_path, capsys, monkeypatch, command):
    """Once the input files are joined, only the joined table stays alive:
    no per-file values are left when the oracle starts."""
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for seed, p in enumerate(paths):
        main(["gen", "--rows", "30", "--cols", "4", "--seed", str(seed), "--out", str(p)])
    capsys.readouterr()
    loaded, alive = [], []

    def tracked_load(*args, **kwargs):
        table = load_table(*args, **kwargs)
        loaded.append(weakref.ref(table.values))
        return table

    def checked_oracle(table, _real=runtime._timed_oracle):
        alive.append(sum(ref() is not None for ref in loaded))
        return _real(table)

    monkeypatch.setattr(cli, "load_table", tracked_load)
    monkeypatch.setattr(cli, "_timed_oracle", checked_oracle)
    _run_json(capsys, [*command, "--inputs", *map(str, paths)])
    assert len(loaded) == 2 and alive == [0]


def test_run_with_spec_file(dataset, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "total_cols": 9,
        "groups": [
            {"site": 0, "cols": [0, 1, 2, 3]},
            {"site": 1, "cols": [4, 5]},
            {"site": 2, "cols": [6, 7, 8]},
        ],
    }))
    d = _run_json(capsys, [
        "run", "--inputs", str(dataset), "--spec", str(spec_path),
        "--mode", "distributed", "--transport", "tcp",
    ])
    c = _run_json(capsys, ["run", "--inputs", str(dataset), "--mode", "centralized"])
    assert d["partitions"] == 3
    assert d["matrix_checksum"] == c["matrix_checksum"]


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_a_spec_group_in_any_order_runs_in_every_mode(dataset, tmp_path, capsys, transport):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "total_cols": 9,
        "groups": [
            {"site": 0, "cols": [3, 1, 0, 2]},
            {"site": 1, "cols": [5, 4]},
            {"site": 2, "cols": [6, 7, 8]},
        ],
    }))
    data = ["--inputs", str(dataset), "--spec", str(spec_path)]
    c = _run_json(capsys, ["run", *data, "--mode", "centralized"])
    d = _run_json(capsys, ["run", *data, "--mode", "distributed", "--transport", transport])
    [row] = _run_json(capsys, ["compare", *data, "--transport", transport])["comparisons"]
    assert row["equal"] is True
    assert d["matrix_checksum"] == row["matrix_checksum"] == c["matrix_checksum"]


def test_run_writes_report_and_dump(dataset, tmp_path, capsys):
    out = tmp_path / "report.json"
    dump = tmp_path / "matrix.npy"
    code = main([
        "run", "--inputs", str(dataset), "--mode", "centralized",
        "--out", str(out), "--dump-matrix", str(dump),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    values = np.load(dump, allow_pickle=False)
    assert values.dtype == np.float64 and values.shape == (doc["dim"], doc["dim"])
    assert matrix_checksum(DenseMatrix(values)) == doc["matrix_checksum"]


def test_matrix_checksum_hashes_the_canonical_bytes_without_copying(monkeypatch):
    values = np.array(synthetic_table(6, 5, seed=8).values)
    values[1, 2] = -0.0
    matrices = [DenseMatrix(values), centralized_covariance(DenseMatrix(values)).matrix]
    expected = [hashlib.sha256(m.values.astype("<f8").tobytes()).hexdigest() for m in matrices]
    hashed = []

    def sha256(data):
        hashed.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(matrix, "hashlib", types.SimpleNamespace(sha256=sha256))
    assert [matrix_checksum(m) for m in matrices] == expected
    # What was hashed is each matrix's own buffer, not a copy of it.
    assert [np.shares_memory(np.asarray(h), m.values) for h, m in zip(hashed, matrices)] == [
        True, True]


def test_run_missing_file_is_data_error(tmp_path, capsys):
    assert main(["run", "--inputs", str(tmp_path / "nope.txt"), "--mode", "centralized"]) == 3


@pytest.mark.parametrize("data, spec", [
    (b"\xff\xfe1 2\n3 4\n", None),
    (b"1 2\n3 4\n", b'{"total_cols": 2}\xff'),
    (b"1 2\n3 4\n", b"[" * 100000 + b"]" * 100000),  # past the recursion limit
], ids=["undecodable-data", "undecodable-spec", "over-nested-spec"])
def test_an_unreadable_input_is_a_data_error_naming_its_file(tmp_path, capsys, data, spec):
    bad = tmp_path / "data.txt"
    bad.write_bytes(data)
    argv = ["run", "--inputs", str(bad), "--mode", "centralized"]
    if spec is not None:
        bad = tmp_path / "spec.json"
        bad.write_bytes(spec)
        argv += ["--spec", str(bad)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")


def test_run_preset_on_wrong_width_is_data_error(dataset, capsys):
    code = main(["run", "--inputs", str(dataset), "--preset", "mfeat-3",
                 "--mode", "centralized"])
    assert code == 3


def test_spec_width_is_checked_before_any_partition_or_oracle(dataset, tmp_path, capsys,
                                                               monkeypatch):
    """A centralized run partitions nothing, and a spec of the wrong width is
    refused before `compare` computes its oracle."""
    oracles, partitions = {"_timed_oracle": 0}, {"partition_vertical": 0}
    _count_calls(monkeypatch, oracles, cli)
    _count_calls(monkeypatch, partitions, cli)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"total_cols": 8, "groups": [{"site": 0, "cols": list(range(8))}]}
    ))
    _run_json(capsys, ["run", "--inputs", str(dataset), "--mode", "centralized"])
    assert oracles == {"_timed_oracle": 1}  # the counter counts the valid run's oracle
    oracles["_timed_oracle"] = 0
    # A --spec file's refusal starts with its path; a preset's names no file.
    for argv, refusal in (
        (["run", "--mode", "centralized", "--spec", str(spec_path)], f"{spec_path}: spec covers 8"),
        (["compare", "--spec", str(spec_path)], f"{spec_path}: spec covers 8"),
        (["compare", "--preset", "mfeat-6"], "spec covers 649"),
    ):
        assert main([*argv, "--inputs", str(dataset)]) == 3
        assert capsys.readouterr().err == f"error: {refusal} columns, the inputs have 9\n"
    assert oracles == {"_timed_oracle": 0} and partitions == {"partition_vertical": 0}


def test_run_ragged_file_is_data_error(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1 2\n3\n")
    assert main(["run", "--inputs", str(p), "--mode", "centralized"]) == 3


@pytest.mark.parametrize(
    "group",
    [
        [0, [0, 1, 2, 3, 4, 5, 6, 7, 8]],  # a list, not an object
        {"site": 0},  # no "cols"
        {"site": 0, "cols": ["a"]},  # a column that is not an integer
        {"site": 0, "cols": 5},  # "cols" that is not a list
    ],
)
def test_run_malformed_spec_is_parse_error(dataset, capsys, group):
    spec_path = dataset.parent / "spec.json"
    spec_path.write_text(json.dumps({"total_cols": 9, "groups": [group]}))
    code = main(["run", "--inputs", str(dataset), "--spec", str(spec_path),
                 "--mode", "centralized"])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"error: {spec_path}: malformed partition spec: ")


@pytest.mark.parametrize(
    "spec, named",
    [
        # int() and tuple() made each of these a valid nine-column spec.
        ({"total_cols": 9, "groups": [{"site": 0, "cols": "012345678"}]},
         'group 0 cols is "012345678", not a list'),
        ({"total_cols": 9, "groups": [{"site": 0, "cols": [0.9, True, 2, 3, 4, 5, 6, 7, 8]}]},
         "group 0 column is 0.9, not an integer"),
        ({"total_cols": "9", "groups": [{"site": 0, "cols": list(range(9))}]},
         'total_cols is "9", not an integer'),
        ({"total_cols": 9, "groups": [{"site": 0, "cols": [0, 1, 2, 3]},
                                      {"site": True, "cols": [4, 5, 6, 7, 8]}]},
         "group 1 site is true, not an integer"),
        ({"total_cols": 9, "groups": [{"cols": list(range(9))}]}, 'group 0 has no "site"'),
    ],
    ids=["cols-string", "cols-float-bool", "total-string", "site-bool", "site-missing"],
)
def test_run_spec_numbers_must_be_json_integers(dataset, capsys, spec, named):
    spec_path = dataset.parent / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code = main(["run", "--inputs", str(dataset), "--spec", str(spec_path),
                 "--mode", "centralized"])
    assert code == 3
    assert capsys.readouterr().err == f"error: {spec_path}: malformed partition spec: {named}\n"


@pytest.mark.parametrize(
    "spec, refusal",
    [
        ({"total_cols": 3, "groups": [[0, 1]]}, 'malformed partition spec: group 0 has no "site"'),
        ({"total_cols": 3, "groups": []}, "a partition needs at least one group"),
        ({"total_cols": 4, "groups": [{"site": 0, "cols": [0, 1, 2, 3]}]},
         "spec covers 4 columns, the inputs have 3"),
        ({"total_cols": 3, "groups": [{"site": 0, "cols": [0, 1, 1]}, {"site": 1, "cols": [2]}]},
         "group 0 lists column 1 twice"),
    ],
    ids=["group-not-an-object", "no-groups", "too-wide", "column-twice-in-a-group"],
)
def test_a_spec_refusal_starts_with_its_path(tmp_path, capsys, spec, refusal):
    data, spec_path = tmp_path / "data.txt", tmp_path / "spec.json"
    data.write_text("1 2 3\n4 5 7\n1 0 2\n")
    spec_path.write_text(json.dumps(spec))
    code = main(["run", "--inputs", str(data), "--spec", str(spec_path), "--mode", "centralized"])
    assert code == 3
    assert capsys.readouterr().err == f"error: {spec_path}: {refusal}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--inputs", "DATA", "--mode", "centralized", "--out", "OUT"],
        ["compare", "--inputs", "DATA", "--plot-data", "OUT"],
        ["gen", "--rows", "3", "--cols", "2", "--out", "OUT"],
        ["run", "--inputs", "DATA", "--mode", "centralized", "--dump-matrix", "OUT"],
    ],
)
def test_unwritable_output_is_data_error(dataset, tmp_path, capsys, argv):
    target = tmp_path / "missing-dir" / "out.txt"
    paths = {"DATA": str(dataset), "OUT": str(target)}
    assert main([paths.get(arg, arg) for arg in argv]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")


@pytest.mark.parametrize("command", [["run", "--mode", "centralized"], ["compare"]])
def test_preset_and_spec_are_mutually_exclusive(dataset, tmp_path, capsys, command):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"total_cols": 9, "groups": [{"site": 0, "cols": list(range(9))}]}
    ))
    with pytest.raises(SystemExit) as exc:
        main([*command, "--inputs", str(dataset), "--preset", "mfeat-2",
              "--spec", str(spec_path)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


# --- compare --------------------------------------------------------------------

def test_compare_reports_equality(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["gen", "--rows", "35", "--cols", "4", "--seed", "3", "--out", str(a)])
    main(["gen", "--rows", "35", "--cols", "3", "--seed", "4", "--out", str(b)])
    capsys.readouterr()
    plot = tmp_path / "plot.dat"
    doc = _run_json(capsys, [
        "compare", "--inputs", str(a), str(b), "--plot-data", str(plot),
    ])
    [row] = doc["comparisons"]
    assert row["equal"] is True
    assert row["partitions"] == 2
    assert row["cost_model"]["distributed_ops"] > 0
    lines = plot.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split()[0] == "2"


def test_compare_oracle_once_and_no_decomposition(tmp_path, capsys, monkeypatch):
    calls = {"centralized_covariance": 0, "symmetric_eigen": 0}
    _count_calls(monkeypatch, calls, runtime, cli)
    data = tmp_path / "data.txt"
    main(["gen", "--rows", "12", "--cols", "649", "--seed", "2", "--out", str(data)])
    capsys.readouterr()
    presets = ["mfeat-2", "mfeat-4", "mfeat-6"]
    doc = _run_json(capsys, [
        "compare", "--inputs", str(data), *(a for p in presets for a in ("--preset", p)),
    ])
    rows = doc["comparisons"]
    assert [r["partitions"] for r in rows] == [2, 4, 6]
    assert calls == {"centralized_covariance": 1, "symmetric_eigen": 0}
    assert all(r["equal"] is True for r in rows)
    assert len({r["matrix_checksum"] for r in rows}) == 1
    assert len({r["centralized_ms"] for r in rows}) == 1
    assert not any("eigen" in key for key in _keys(rows))
    assert rows[0]["matrix_checksum"] == matrix_checksum(
        centralized_covariance(load_table(data)).matrix
    )


def test_compare_corruption_hook_yields_mismatch_exit(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.txt"
    main(["gen", "--rows", "20", "--cols", "4", "--seed", "5", "--out", str(a)])
    capsys.readouterr()
    real = cli._timed_oracle
    # Off by one, then off by one ulp, which a tolerance-based comparison would pass.
    for corrupt in (lambda v: v + 1.0, lambda v: np.nextafter(v, np.inf)):

        def corrupted_entry(table, corrupt=corrupt):
            cov, metrics = real(table)
            values = np.array(cov.matrix.values)
            values[0, 0] = corrupt(values[0, 0])
            return GlobalCovariance._assembled(values), metrics

        monkeypatch.setattr(cli, "_timed_oracle", corrupted_entry)
        code = main(["compare", "--inputs", str(a)])
        assert code == 5
        assert capsys.readouterr().err.startswith("mismatch: distributed and centralized")


# --- faults ----------------------------------------------------------------------

@pytest.fixture
def mfeat_data(tmp_path, capsys):
    path = tmp_path / "mfeat.txt"
    main(["gen", "--rows", "12", "--cols", "649", "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    return path


def _failed_fast(capsys, argv) -> tuple[int, str]:
    """main(argv)'s exit code and stderr, once it has ended within 1 s with
    no file descriptor left open."""
    before = open_fds()
    started = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - started < 1.0
    assert open_fds() == before
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "transport, cls", [("in-process", InProcessTransport), ("tcp", TcpTransport)]
)
def test_run_with_a_dropped_frame_names_what_never_came(mfeat_data, capsys, monkeypatch,
                                                        transport, cls):
    deliver = cls._deliver

    def drop_0_to_1(self, msg):
        if (msg.kind, msg.sender, msg.receiver) == (MessageKind.DATA_BLOCK, 0, 1):
            return 0
        return deliver(self, msg)

    monkeypatch.setattr(cls, "_deliver", drop_0_to_1)
    code, err = _failed_fast(capsys, ["run", "--inputs", str(mfeat_data), "--preset", "mfeat-3",
                                      "--mode", "distributed", "--transport", transport])
    assert code == 4
    assert err == (
        "protocol error: site 1's turn: endpoint 1: no message in its inbox; "
        "blocks not in: (0, 1), (1, 1)\n"
    )


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_run_with_a_raising_site_is_a_protocol_error(mfeat_data, capsys, monkeypatch,
                                                     transport):
    kernel = runtime.site_covariance

    def site_1_fails(own, senders):
        if own.site == 1:
            raise RuntimeError("disk gone")
        return kernel(own, senders)

    monkeypatch.setattr(runtime, "site_covariance", site_1_fails)
    code, err = _failed_fast(capsys, ["run", "--inputs", str(mfeat_data), "--preset", "mfeat-3",
                                      "--mode", "distributed", "--transport", transport])
    assert code == 4
    assert err == (
        "protocol error: site 1's turn: kernel failed: RuntimeError('disk gone'); "
        "blocks not in: (0, 1), (1, 1)\n"
    )


def _damage_frames(monkeypatch, edge, damage):
    """Both transports build every frame from `frame_parts` (in-process
    through `encode_message`): each frame whose (kind, sender, receiver) is
    `edge` gets the parts `damage(head, values)` returns, given its header
    buffer and a copy of its values as bytes."""
    parts = wire.frame_parts

    def damaged_parts(msg):
        head, values = parts(msg)
        if (msg.kind, msg.sender, msg.receiver) == edge:
            return damage(head, values.copy())
        return head, values

    monkeypatch.setattr(wire, "frame_parts", damaged_parts)
    monkeypatch.setattr(runtime, "frame_parts", damaged_parts)


_SHIPMENT_0_TO_1 = (MessageKind.DATA_BLOCK, 0, 1)


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_compare_catches_a_bit_flipped_on_the_wire(mfeat_data, capsys, monkeypatch, transport):
    # A DCM1 frame carries no checksum, so a flipped value bit decodes
    # cleanly; only the equality gate against the oracle can see it.
    def flip(head, values):
        values[-8] ^= 1  # lowest mantissa bit of the last little-endian value
        return head, values

    _damage_frames(monkeypatch, _SHIPMENT_0_TO_1, flip)
    code, err = _failed_fast(capsys, ["compare", "--inputs", str(mfeat_data),
                                      "--preset", "mfeat-3", "--transport", transport])
    assert code == 5
    assert err.startswith("mismatch: distributed and centralized matrices differ (t=3")


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_compare_with_a_frame_its_block_refuses_is_a_protocol_error(mfeat_data, capsys,
                                                                    monkeypatch, transport):
    # The frame is well formed, but its first two column indices are
    # swapped, which no ColumnBlock takes: the refusal names the frame's edge.
    def swap_first_two_indices(head, values):
        at = wire.HEADER.size + 4 * 3  # after the site, rows and cols fields
        head[at : at + 8] = head[at + 4 : at + 8] + head[at : at + 4]
        return head, values

    _damage_frames(monkeypatch, _SHIPMENT_0_TO_1, swap_first_two_indices)
    code, err = _failed_fast(capsys, ["compare", "--inputs", str(mfeat_data),
                                      "--preset", "mfeat-3", "--transport", transport])
    assert code == 4
    assert err == (
        "protocol error: site 1's turn: DATA_BLOCK 0->1: global column indices must be "
        "strictly increasing; blocks not in: (0, 1), (1, 1)\n"
    )


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_compare_with_a_damaged_header_names_its_edge(mfeat_data, capsys, monkeypatch,
                                                      transport):
    # The header declares 8 payload bytes more than the frame carries. Each
    # transport delivers the bytes written, so decoding refuses them alike.
    declared = []

    def lengthen(head, values):
        length = int.from_bytes(head[13:21], "little")
        declared.append(length)
        head[13:21] = (length + 8).to_bytes(8, "little")
        return head, values

    _damage_frames(monkeypatch, _SHIPMENT_0_TO_1, lengthen)
    code, err = _failed_fast(capsys, ["compare", "--inputs", str(mfeat_data),
                                      "--preset", "mfeat-3", "--transport", transport])
    assert code == 4
    [length] = declared
    assert err == (
        f"protocol error: site 1's turn: DATA_BLOCK 0->1: header declares {length + 8} "
        f"payload bytes, frame carries {length}; blocks not in: (0, 1), (1, 1)\n"
    )


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_run_with_a_negative_variance_on_the_wire_is_a_protocol_error(mfeat_data, capsys,
                                                                      monkeypatch, transport):
    # Site 0 sends its local block first; its entry (0, 0), a variance,
    # arrives with the sign bit flipped. The refusal names the frame's edge.
    def negate_first_value(head, values):
        values[7] ^= 0x80  # sign bit of the first little-endian value
        return head, values

    _damage_frames(monkeypatch, (MessageKind.COV_BLOCK, 0, 3), negate_first_value)
    code, err = _failed_fast(capsys, ["run", "--inputs", str(mfeat_data), "--preset", "mfeat-3",
                                      "--mode", "distributed", "--transport", transport])
    assert code == 4
    assert err == (
        "protocol error: site 0's turn: COV_BLOCK 0->3: "
        "a local covariance block's variances must be non-negative; "
        "blocks not in: (0, 0), (2, 0)\n"
    )


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_run_with_a_relabelled_block_on_the_wire_is_a_protocol_error(mfeat_data, capsys,
                                                                     monkeypatch, transport):
    # Site 0's local block arrives with its last row index set to 300, a
    # column of another site. The frame decodes, but the coordinator's
    # assembler refuses the block in site 0's turn, naming the block's pair.
    def relabel_last_row(head, values):
        rows = int.from_bytes(head[wire.HEADER.size + 8 : wire.HEADER.size + 12], "little")
        at = wire.HEADER.size + 4 * (4 + rows - 1)  # after the four fields, the last row index
        head[at : at + 4] = (300).to_bytes(4, "little")
        return head, values

    _damage_frames(monkeypatch, (MessageKind.COV_BLOCK, 0, 3), relabel_last_row)
    code, err = _failed_fast(capsys, ["run", "--inputs", str(mfeat_data), "--preset", "mfeat-3",
                                      "--mode", "distributed", "--transport", transport])
    assert code == 4
    assert err == (
        "protocol error: site 0's turn: "
        "block (0,0) indices are not the columns of sites 0 and 0; "
        "blocks not in: (0, 0), (2, 0)\n"
    )


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_a_done_with_a_damaged_sender_fails_its_turn(mfeat_data, monkeypatch, transport):
    # Site 0's DONE arrives naming site 2 as its sender: the coordinator,
    # which takes site 0's DONE inside site 0's turn, refuses it there.
    def sender_2(head, values):
        head[5:9] = (2).to_bytes(4, "little")  # after the magic and kind fields
        return head, values

    _damage_frames(monkeypatch, (MessageKind.DONE, 0, 3), sender_2)
    blocks = partition_vertical(load_table(mfeat_data), mfeat_preset(3))
    message = r"^site 0's turn: coordinator received unexpected DONE from 2; blocks not in: none$"
    with raises_exactly(errors.ProtocolError, match=message):
        run_distributed(blocks, build_schedule(3), transport=transport)


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_a_frame_addressed_to_another_site_is_refused(mfeat_data, capsys, monkeypatch,
                                                       transport):
    # Site 1's columns reach site 2's inbox with a header naming site 0 as
    # their receiver; they decode cleanly, but site 2 refuses to take them.
    def receiver_0(head, values):
        head[9:13] = (0).to_bytes(4, "little")  # after the magic, kind and sender fields
        return head, values

    _damage_frames(monkeypatch, (MessageKind.DATA_BLOCK, 1, 2), receiver_0)
    code, err = _failed_fast(capsys, ["run", "--inputs", str(mfeat_data), "--preset", "mfeat-3",
                                      "--mode", "distributed", "--transport", transport])
    assert code == 4
    assert err == (
        "protocol error: site 2's turn: DATA_BLOCK 1->0: addressed to 0, "
        "read from endpoint 2's inbox; blocks not in: (1, 2), (2, 2)\n"
    )


# --- cost-model -------------------------------------------------------------------

def test_cost_model_widths(capsys):
    doc = _run_json(capsys, ["cost-model", "--widths", "216,140,293"])
    assert doc["widths"] == [216, 140, 293]
    assert doc["centralized_ops"] == 210_276
    assert doc["speedup"] > 1.0


def test_cost_model_equal_widths(capsys):
    doc = _run_json(capsys, ["cost-model", "--widths", "100,100,100,100"])
    assert doc["distributed_ops"] == 25_150
    assert doc["speedup"] == pytest.approx(79_800 / 25_150)


def test_cost_model_one_site_one_column(capsys):
    # No pairs at all: the one-site run is the centralized run.
    doc = _run_json(capsys, ["cost-model", "--widths", "1"])
    assert doc["distributed_ops"] == 0
    assert doc["speedup"] == 1.0
