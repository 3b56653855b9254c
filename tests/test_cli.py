from __future__ import annotations

import hashlib
import json
import time

import numpy as np
import pytest

import distcov.report as report
import distcov.runtime as runtime
from distcov import (
    DenseMatrix,
    GlobalCovariance,
    MessageKind,
    centralized_covariance,
    load_matrix_dump,
    load_table,
    matrix_checksum,
    synthetic_table,
)
from distcov.cli import main
from distcov.runtime import InProcessTransport, TcpTransport
from conftest import open_fds


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "data.txt"
    assert main(["gen", "--rows", "40", "--cols", "9", "--seed", "7", "--out", str(path)]) == 0
    return path


def _run_json(capsys, argv) -> dict:
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


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

def test_gen_round_trips_exactly(dataset):
    m = load_table(dataset)
    assert m.rows == 40 and m.cols == 9
    from distcov import synthetic_table

    assert m.tobytes() == synthetic_table(40, 9, seed=7).tobytes()


def test_gen_csv(tmp_path, capsys):
    path = tmp_path / "d.csv"
    assert main(["gen", "--rows", "3", "--cols", "2", "--out", str(path), "--format", "csv"]) == 0
    m = load_table(path, format="csv")
    assert m.rows == 3 and m.cols == 2


# --- run -----------------------------------------------------------------------

def test_run_both_modes_same_checksum(dataset, tmp_path, capsys):
    d = _run_json(capsys, ["run", "--inputs", str(dataset), "--mode", "distributed"])
    c = _run_json(capsys, ["run", "--inputs", str(dataset), "--mode", "centralized"])
    assert d["report_version"] == 4 and c["report_version"] == 4
    assert d["partitions"] == 1 and d["mode"] == "distributed"
    assert d["matrix_checksum"] == c["matrix_checksum"]
    assert len(d["top_eigenvalues"]) == 9
    assert c["schedule"] is None and d["schedule"]["t"] == 1


def test_run_multifile_defaults_to_per_file_sites(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["gen", "--rows", "30", "--cols", "4", "--seed", "1", "--out", str(a)])
    main(["gen", "--rows", "30", "--cols", "5", "--seed", "2", "--out", str(b)])
    capsys.readouterr()
    d = _run_json(capsys, ["run", "--inputs", str(a), str(b), "--mode", "distributed"])
    assert d["partitions"] == 2
    assert d["schedule"] == {"t": 2, "predecessors": [[], [0]]}
    assert d["dim"] == 9


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


def test_run_writes_report_and_dump(dataset, tmp_path, capsys):
    out = tmp_path / "report.json"
    dump = tmp_path / "matrix.bin"
    code = main([
        "run", "--inputs", str(dataset), "--mode", "centralized",
        "--out", str(out), "--dump-matrix", str(dump),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    m = load_matrix_dump(dump)
    assert matrix_checksum(m) == doc["matrix_checksum"]


def test_matrix_checksum_hashes_the_canonical_bytes_without_copying(monkeypatch):
    values = np.array(synthetic_table(6, 5, seed=8).values)
    values[1, 2] = -0.0
    matrices = [DenseMatrix(values), centralized_covariance(DenseMatrix(values)).matrix]
    expected = [hashlib.sha256(m.tobytes()).hexdigest() for m in matrices]

    def no_copy(self):
        raise AssertionError("matrix_checksum copied the matrix to bytes")

    monkeypatch.setattr(DenseMatrix, "tobytes", no_copy)
    assert [matrix_checksum(m) for m in matrices] == expected


def test_run_missing_file_is_data_error(tmp_path, capsys):
    assert main(["run", "--inputs", str(tmp_path / "nope.txt"), "--mode", "centralized"]) == 3


def test_run_preset_on_wrong_width_is_data_error(dataset, capsys):
    code = main(["run", "--inputs", str(dataset), "--preset", "mfeat-3",
                 "--mode", "centralized"])
    assert code == 3


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
    assert capsys.readouterr().err.startswith("error: malformed partition spec: ")


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
    ],
    ids=["cols-string", "cols-float-bool", "total-string", "site-bool"],
)
def test_run_spec_numbers_must_be_json_integers(dataset, capsys, spec, named):
    spec_path = dataset.parent / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code = main(["run", "--inputs", str(dataset), "--spec", str(spec_path),
                 "--mode", "centralized"])
    assert code == 3
    assert capsys.readouterr().err == f"error: malformed partition spec: {named}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--inputs", "DATA", "--mode", "centralized", "--out", "OUT"],
        ["compare", "--inputs", "DATA", "--plot-data", "OUT"],
        ["gen", "--rows", "3", "--cols", "2", "--out", "OUT"],
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
    for name in calls:
        real = getattr(runtime, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(runtime, name, counted)
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
    assert all(r["centralized_metrics"]["eigen_ms"] == 0.0 for r in rows)
    assert all(r["distributed_metrics"]["eigen_ms"] == 0.0 for r in rows)
    assert not any("eigen" in key for r in rows for key in r)
    assert rows[0]["matrix_checksum"] == matrix_checksum(
        centralized_covariance(load_table(data)).matrix
    )


def test_compare_corruption_hook_yields_mismatch_exit(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.txt"
    main(["gen", "--rows", "20", "--cols", "4", "--seed", "5", "--out", str(a)])
    capsys.readouterr()
    real = report._timed_oracle
    # Off by one, then off by one ulp, which a tolerance-based comparison would pass.
    for corrupt in (lambda v: v + 1.0, lambda v: np.nextafter(v, np.inf)):

        def corrupted_entry(table, corrupt=corrupt):
            cov, metrics = real(table)
            values = np.array(cov.matrix.values)
            values[0, 0] = corrupt(values[0, 0])
            return GlobalCovariance(values), metrics

        monkeypatch.setattr(report, "_timed_oracle", corrupted_entry)
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

    def drop_0_to_1(self, msg, frame):
        if (msg.kind, msg.sender, msg.receiver) != (MessageKind.DATA_BLOCK, 0, 1):
            deliver(self, msg, frame)

    monkeypatch.setattr(cls, "_deliver", drop_0_to_1)
    code, err = _failed_fast(capsys, ["run", "--inputs", str(mfeat_data), "--preset", "mfeat-3",
                                      "--mode", "distributed", "--transport", transport])
    assert code == 4
    assert err == (
        "protocol error: coordinator: 2/6 blocks and 1/3 completions; missing blocks "
        "(site_a, site_b): (0, 1), (1, 1), (1, 2), (2, 2); no DONE from sites: 1, 2\n"
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
    assert err == "protocol error: site 1 worker failed: RuntimeError('disk gone')\n"


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_compare_catches_a_bit_flipped_on_the_wire(mfeat_data, capsys, monkeypatch, transport):
    # A DCM1 frame carries no checksum, so a flipped value bit decodes
    # cleanly; only the equality gate against the oracle can see it.
    encode = runtime.encode_message

    def flip_last_value_bit(msg):
        frame = encode(msg)
        if (msg.kind, msg.sender, msg.receiver) == (MessageKind.DATA_BLOCK, 0, 1):
            frame[-8] ^= 1  # lowest mantissa bit of the last little-endian value
        return frame

    monkeypatch.setattr(runtime, "encode_message", flip_last_value_bit)
    code, err = _failed_fast(capsys, ["compare", "--inputs", str(mfeat_data),
                                      "--preset", "mfeat-3", "--transport", transport])
    assert code == 5
    assert err.startswith("mismatch: distributed and centralized matrices differ (t=3")


# --- cost-model -------------------------------------------------------------------

def test_cost_model_widths(capsys):
    doc = _run_json(capsys, ["cost-model", "--widths", "216,140,293"])
    assert doc["widths"] == [216, 140, 293]
    assert doc["centralized_ops"] == 210_276
    assert doc["speedup"] > 1.0


def test_cost_model_equal_widths(capsys):
    doc = _run_json(capsys, ["cost-model", "--sites", "4", "--gamma", "100"])
    assert doc["distributed_ops"] == 25_150
    assert doc["speedup"] == pytest.approx(79_800 / 25_150)


def test_cost_model_one_site_one_column(capsys):
    # No pairs at all: the one-site run is the centralized run.
    for argv in (["--widths", "1"], ["--sites", "1", "--gamma", "1"]):
        doc = _run_json(capsys, ["cost-model", *argv])
        assert doc["distributed_ops"] == 0
        assert doc["speedup"] == 1.0


def test_cost_model_sites_without_gamma(capsys):
    assert main(["cost-model", "--sites", "4"]) == 2
