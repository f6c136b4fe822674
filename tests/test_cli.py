import argparse
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from canosc import cli, spectra

PI = math.pi


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        return code, out

    return _run


def write_config(tmp_path, doc, name="sys.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


TWO_ANGLES = {
    "segments": [
        {"length": 1.0, "kind": "angle", "alpha": 0.0},
        {"length": 1.0, "kind": "angle", "alpha": -0.7},
    ]
}

RAMP = {
    "segments": [
        {"length": 4.0, "kind": "ramp", "phi_start": PI / 2, "phi_end": -PI / 2},
    ]
}

#: total drop 3.5 > pi: the diagonal transformation needs a split
BIG_DROP = {
    "segments": [
        {"length": 1.0, "kind": "angle", "alpha": 1.5},
        {"length": 1.0, "kind": "angle", "alpha": -1.0},
        {"length": 1.0, "kind": "angle", "alpha": -2.0},
    ]
}


def after_equal_angles(h11, h12, h22):
    """Two equal angle segments, then the given matrix as segments[2]."""
    angle = {"length": 1.0, "kind": "angle", "alpha": 0.3}
    matrix = {"length": 1.0, "kind": "matrix", "h11": h11, "h12": h12, "h22": h22}
    return {"segments": [angle, dict(angle), matrix]}


C_PLUS_TAIL = {
    "segments": [
        {"length": 1.0, "kind": "angle", "alpha": 0.5},
        {"length": 2.0, "kind": "angle", "alpha": -0.5},
    ],
    "tail": {"type": "singular", "gamma": -0.5},
}


class TestValidate:
    def test_ok(self, run, tmp_path):
        code, out = run("validate", "--config", write_config(tmp_path, TWO_ANGLES))
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["x_max"] == 2.0

    def test_malformed_json_reports_location(self, run, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"segments": [\n  {"length": }\n]}')
        code, out = run("validate", "--config", str(p))
        assert code == 2
        assert ":2:" in json.loads(out)["error"]

    def test_missing_file(self, run, tmp_path):
        code, out = run("validate", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_unknown_kind(self, run, tmp_path):
        p = write_config(tmp_path, {"segments": [{"length": 1, "kind": "spline"}]})
        code, out = run("validate", "--config", p)
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False
        assert "segments[0]" in doc["error"]

    @pytest.mark.parametrize("segment, message", [
        ({"kind": "angle", "alpha": 0.0}, "'length'"),
        ({"length": 1.0, "alpha": 0.0}, "'kind'"),
        ({"length": 1.0, "kind": "angle"}, "'alpha'"),
        ({"length": "one", "kind": "angle", "alpha": 0.0}, "could not convert"),
        ({"length": 0.0, "kind": "angle", "alpha": 0.0}, "length must be positive"),
        ({"length": -1.0, "kind": "angle", "alpha": 0.0}, "length must be positive"),
    ])
    def test_bad_segment_names_its_index(self, run, tmp_path, segment, message):
        doc = {"segments": [TWO_ANGLES["segments"][0], segment]}
        p = write_config(tmp_path, doc)
        code, out = run("validate", "--config", p)
        doc = json.loads(out)
        assert code == 2 and doc.keys() == {"valid", "error"} and doc["valid"] is False
        assert doc["error"].startswith("segments[1]: ") and message in doc["error"]
        code, out = run("count", "--config", p, "--L", "1.0", "--window", "-5", "5")
        assert code == 2 and json.loads(out)["error"].startswith("segments[1]: ")

    @pytest.mark.parametrize("segment, issue", [
        ({"kind": "ramp", "phi_start": -0.5, "phi_end": 0.5}, "piece 0: phi rises from -0.5 to 0.5"),
        ({"kind": "table", "points": [[0.0, 0.1], [1.0, 0.2]]}, "piece 0: phi rises from 0.1 to 0.2"),
        ({"kind": "table", "points": [[0.2, 0.3], [1.0, 0.2]]}, "piece 0: starts at 0.2, not at 0.0"),
        ({"kind": "table", "points": [[0.0, 0.3], [0.5, 0.3], [0.5, 0.2], [1.0, 0.2]]},
         "piece 1: ends at 0.5, not after its start 0.5"),
        ({"kind": "table", "points": [[0.0, 0.3], [0.5, 0.2]]}, "piece 0: ends at 0.5, not at the segment length 1.0"),
        ({"kind": "matrix", "h11": 0.5, "h12": 0.6, "h22": 0.5},
         "piece 0: eigenvalues (1.1, -0.09999999999999998), expected nonnegative with sum 1"),
    ], ids=["rising_ramp", "rising_table", "table_late_start", "table_repeated_offset", "table_short", "matrix_not_psd"])
    def test_bad_pieces_are_issues_of_their_index(self, run, tmp_path, segment, issue):
        # a kind builds its pieces as given; validate names the segment and piece
        doc = {"segments": [TWO_ANGLES["segments"][0], {"length": 1.0, **segment}]}
        p = write_config(tmp_path, doc)
        code, out = run("validate", "--config", p)
        assert code == 2 and json.loads(out) == {"valid": False, "issues": [[1, issue]], "x_max": 2.0}
        code, out = run("count", "--config", p, "--L", "1.0", "--window", "-5", "5")
        assert code == 2 and json.loads(out) == {"error": f"invalid Hamiltonian: segment 1: {issue}"}

    def test_every_bad_segment_is_listed(self, run, tmp_path):
        doc = {"segments": [
            {"length": 1.0, "kind": "angle", "alpha": 0.3},
            {"length": 1.0, "kind": "ramp", "phi_start": 0.1, "phi_end": 0.5},
            {"length": 1.0, "kind": "matrix", "h11": 0.7, "h12": 0.0, "h22": 0.7},
        ]}
        code, out = run("validate", "--config", write_config(tmp_path, doc))
        assert code == 2
        assert json.loads(out)["issues"] == [
            [1, "piece 0: phi rises from 0.1 to 0.5"],
            [2, "piece 0: eigenvalues (0.7, 0.7), expected nonnegative with sum 1"],
        ]

    def test_no_segments_exits_two(self, run, tmp_path):
        code, out = run("validate", "--config", write_config(tmp_path, {"segments": []}))
        assert code == 2
        assert json.loads(out) == {"valid": False, "error": "need at least one segment"}

    def test_usage_error_exits_one(self, run):
        code, _ = run("validate")  # --config missing
        assert code == 1

    def test_unknown_subcommand_exits_one(self, run):
        code, _ = run("frobnicate")
        assert code == 1

    def test_invalid_matrix_exits_two(self, run, tmp_path):
        doc = {"segments": [{"length": 1.0, "kind": "matrix", "h11": 0.7, "h12": 0.0, "h22": 0.7}]}
        code, out = run("validate", "--config", write_config(tmp_path, doc))
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["issues"] == [[0, "piece 0: eigenvalues (0.7, 0.7), expected nonnegative with sum 1"]]
        assert doc["x_max"] == 1.0

    def test_reports_name_the_document_index(self, run, tmp_path):
        # equal adjacent angles stay two segments, so the faulty matrix is
        # index 2 in the validation issues and in the walk's error
        p = write_config(tmp_path, after_equal_angles(0.7, 0.0, 0.7))
        code, out = run("validate", "--config", p)
        assert code == 2
        assert [i for i, _ in json.loads(out)["issues"]] == [2]
        code, out = run("count", "--config", p, "--L", "3.0", "--window", "-5", "5")
        assert code == 2
        assert json.loads(out)["error"].startswith("invalid Hamiltonian: segment 2: piece 0: eigenvalues")

    def test_zero_matrix_is_reported_not_raised(self, run, tmp_path):
        # the zero matrix has no larger eigenvalue to divide by; its piece's
        # eigenvalues (0, 0) are an issue of its own segment like any other
        p = write_config(tmp_path, after_equal_angles(0.0, 0.0, 0.0))
        code, out = run("validate", "--config", p)
        assert code == 2
        assert json.loads(out)["issues"] == [[2, "piece 0: eigenvalues (0.0, 0.0), expected nonnegative with sum 1"]]
        code, out = run("count", "--config", p, "--L", "3.0", "--window", "-5", "5")
        assert code == 2
        assert json.loads(out) == {"error": "invalid Hamiltonian: segment 2: piece 0: eigenvalues (0.0, 0.0), expected nonnegative with sum 1"}


class TestTheta:
    def test_closed_form_single_interval(self, run, tmp_path):
        # theta' = t cos^2(theta) from 0: theta(L) = arctan(t L)
        p = write_config(
            tmp_path, {"segments": [{"length": 2.0, "kind": "angle", "alpha": 0.0}]}
        )
        code, out = run("theta", "--config", p, "--t", "3.0", "--L", "2.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["theta_end"] == pytest.approx(math.atan(6.0), abs=1e-9)

    def test_csv_output(self, run, tmp_path):
        p = write_config(tmp_path, TWO_ANGLES)
        csv_path = tmp_path / "traj.csv"
        code, _ = run(
            "theta", "--config", p, "--t", "1.0", "--L", "2.0", "--csv", str(csv_path)
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x,theta"
        # repr round-trips bit-exactly
        x, theta = lines[-1].split(",")
        assert float(x) == 2.0

    def test_degrees_flag(self, run, tmp_path):
        rad = write_config(
            tmp_path, {"segments": [{"length": 1.0, "kind": "angle", "alpha": 0.5}]}
        )
        deg = write_config(
            tmp_path,
            {"segments": [{"length": 1.0, "kind": "angle", "alpha": math.degrees(0.5)}]},
            name="deg.json",
        )
        _, out1 = run("theta", "--config", rad, "--t", "2.0", "--L", "1.0")
        _, out2 = run("theta", "--config", deg, "--degrees", "--t", "2.0", "--L", "1.0")
        a = json.loads(out1)["theta_end"]
        b = json.loads(out2)["theta_end"]
        assert a == pytest.approx(b, abs=1e-12)

    def test_degrees_converts_theta0(self, run, tmp_path):
        # at t = 0 theta stays where it starts: 90 degrees is pi/2
        p = write_config(
            tmp_path, {"segments": [{"length": 1.0, "kind": "angle", "alpha": 0.0}]}
        )
        code, out = run(
            "theta", "--config", p, "--degrees", "--theta0", "90", "--t", "0", "--L", "1"
        )
        assert code == 0
        assert json.loads(out)["theta_end"] == pytest.approx(PI / 2, abs=1e-15)


class TestCount:
    def test_bounded(self, run, tmp_path):
        p = write_config(
            tmp_path, {"segments": [{"length": 1.0, "kind": "angle", "alpha": 0.0}]}
        )
        code, out = run(
            "count",
            "--config", p,
            "--L", "1.0",
            "--beta", str(PI / 4),
            "--window", "0.5", "2.0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == 1
        assert doc["certified"] is True

    def test_halfline_stabilizes(self, run, tmp_path):
        p = write_config(tmp_path, C_PLUS_TAIL)
        code, out = run("count", "--config", p, "--window", "-5.0", "-0.1")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "stabilized"
        assert doc["result"] == 0
        assert doc["witness"] is None

    def test_halfline_divergent_reports_tail_model(self, run, tmp_path):
        p = write_config(tmp_path, C_OVER_X_NO_TAIL)
        code, out = run(
            "count", "--config", p, "--window", "0.0", "0.3",
            "--schedule", "25", "50", "75", "100",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "divergent"
        assert doc["result"] is None
        assert len(doc["F_values"]) == 4
        assert doc["witness"]["rule"] == "tail_model"
        assert doc["witness"]["p"] == pytest.approx(1.0, abs=1e-5)

    def test_strict_inconclusive_exits_three(self, run, tmp_path):
        # two schedule points cannot agree on three floors: inconclusive
        p = write_config(tmp_path, RAMP)
        argv = ["count", "--config", p, "--window", "0.0", "100.0", "--schedule", "2", "4"]
        code, out = run(*argv)
        assert json.loads(out)["status"] == "inconclusive"
        assert code == 0
        code, out = run(*argv, "--strict")
        assert code == 3
        assert json.loads(out)["status"] == "inconclusive"

    def test_strict_conclusive_exits_zero(self, run, tmp_path):
        p = write_config(tmp_path, C_PLUS_TAIL)
        code, out = run(
            "count", "--config", p, "--window", "-5.0", "-0.1",
            "--schedule", "0.5", "1.0", "--strict",
        )
        assert json.loads(out)["status"] == "stabilized"
        assert code == 0

    @pytest.mark.parametrize(
        "extra",
        [["--L", "3", "--schedule", "1", "2"], ["--beta", "0.5"]],
        ids=["schedule_with_L", "beta_without_L"],
    )
    def test_mixed_forms_are_usage_errors(self, tmp_path, capsys, extra):
        p = write_config(tmp_path, C_PLUS_TAIL)
        assert cli.main(["count", "--config", p, "--window", "-5", "5", *extra]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: count:" in err

    @pytest.mark.parametrize("tail", [None, {"type": "singular", "gamma": -1.0}], ids=["no_tail", "tail"])
    @pytest.mark.parametrize("bad", ["nan", "-1", "inf"])
    def test_bad_schedule_exits_two_with_or_without_tail(self, run, tmp_path, tail, bad):
        doc = {"segments": [{"length": 1.0, "kind": "angle", "alpha": 0.3}]}
        if tail is not None:
            doc["tail"] = tail
        argv = ["count", "--config", write_config(tmp_path, doc), "--window", "0", "5", "--schedule", bad]
        code, out = run(*argv)
        assert code == 2
        assert json.loads(out)["error"].startswith("L_schedule must be nonempty, positive and finite")

    def test_bounded_beta_defaults_to_zero(self, run, tmp_path):
        p = write_config(tmp_path, TWO_ANGLES)
        argv = ["count", "--config", p, "--L", "2", "--window", "-5", "5"]
        assert run(*argv) == run(*argv, "--beta", "0")

    def test_halfline_csv(self, run, tmp_path):
        csv_path = tmp_path / "F.csv"
        code, out = run(
            "count", "--config", write_config(tmp_path, RAMP),
            "--window", "0.0", "100.0", "--schedule", "2", "4", "--csv", str(csv_path),
        )
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "L,F"
        assert [float(v) for v in lines[2].split(",")] == [4.0, json.loads(out)["F_values"][1]]


class TestLocate:
    def test_single_eigenvalue(self, run, tmp_path):
        p = write_config(
            tmp_path, {"segments": [{"length": 1.0, "kind": "angle", "alpha": 0.0}]}
        )
        code, out = run(
            "locate",
            "--config", p,
            "--L", "1.0",
            "--beta", str(PI / 4),
            "--window", "0.5", "2.0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 1
        assert doc["result"][0] == pytest.approx(1.0, abs=1e-6)

    def test_pi_half_matrix_answers_as_the_angle_form(self, run, tmp_path):
        # H = P_{pi/2} given as a matrix: theta(1; t) = 0 = beta for every t,
        # the trivial case with no eigenvalues, as for the angle segment
        doc = {"segments": [{"length": 1.0, "kind": "matrix", "h11": 0.0, "h12": 0.0, "h22": 1.0}]}
        code, out = run(
            "locate", "--config", write_config(tmp_path, doc),
            "--L", "1.0", "--window", "0.5", "2.0",
        )
        assert code == 0
        assert json.loads(out)["result"] == []

    def test_csv(self, run, tmp_path):
        csv_path = tmp_path / "eigs.csv"
        code, out = run(
            "locate", "--config", write_config(tmp_path, C_PLUS_TAIL),
            "--L", "3.0", "--window", "-5.0", "5.0", "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "eigenvalue"
        assert [float(v) for v in lines[1:]] == json.loads(out)["result"]


class TestClassify:
    def test_c_plus(self, run, tmp_path):
        p = write_config(tmp_path, C_PLUS_TAIL)
        code, out = run("classify", "--config", p)
        assert code == 0
        assert json.loads(out)["kind"] == "in_c_plus"

    def test_witness_names_the_document_index(self, run, tmp_path):
        p = write_config(tmp_path, after_equal_angles(0.4, 0.1, 0.6))
        code, out = run("classify", "--config", p)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "not_semibounded"
        assert doc["witness"].startswith("segment 2 has det H")


def angles(*spans):
    """A document of angle segments from (length, alpha) pairs."""
    return {"segments": [{"length": length, "kind": "angle", "alpha": a} for length, a in spans]}


def close(a, b):
    """JSON documents equal but for floats within 1e-9."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(close, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == pytest.approx(b, rel=1e-9, abs=1e-9)
    return a == b


class TestAngleTies:
    """Every angle question mod pi has one tie: an angle that rises, or misses
    -pi/2, by a few 1e-12 is the same angle in every subcommand."""

    @pytest.mark.parametrize("command", ["classify", "ess-bounds", "m-endpoints", "zero-eig", "to-diagonal", "type"])
    def test_a_rise_of_2e12_answers_as_the_angle_twice(self, run, tmp_path, command):
        code, out = run(command, "--config", write_config(tmp_path, angles((1.0, 0.3), (1.0, 0.3 + 2e-12))))
        code2, out2 = run(command, "--config", write_config(tmp_path, angles((1.0, 0.3), (1.0, 0.3)), "twice.json"))
        assert code == code2 == 0
        assert close(json.loads(out), json.loads(out2))

    @pytest.mark.parametrize("miss, kind", [(2e-12, "in_c_plus"), (3e-12, "in_c_plus"), (5e-10, "neg_eigs_at_most")])
    def test_a_limit_near_minus_half_pi_has_one_verdict(self, run, tmp_path, miss, kind):
        p = write_config(tmp_path, angles((1.0, 0.3), (5.0, -PI / 2 - miss)))
        doc = json.loads(run("classify", "--config", p)[1])
        assert doc["kind"] == kind and doc.get("n_bound", 1) >= 1
        on_axis = kind == "in_c_plus"
        assert json.loads(run("zero-eig", "--config", p)[1])["is_eigenvalue"] is on_axis
        assert (json.loads(run("m-endpoints", "--config", p)[1])["m_at_zero_minus"] == "inf") is on_axis


class TestToDiagonal:
    def test_plateau_cells(self, run, tmp_path):
        p = write_config(tmp_path, C_PLUS_TAIL)
        code, out = run("to-diagonal", "--config", p)
        assert code == 0
        doc = json.loads(out)
        assert all(c["h"] == 1.0 for c in doc["cells"])
        assert doc["t0"] == pytest.approx(-math.tan(0.5))

    def test_csv_round_trip(self, run, tmp_path):
        p = write_config(tmp_path, C_PLUS_TAIL)
        csv_path = tmp_path / "diag.csv"
        code, out = run("to-diagonal", "--config", p, "--csv", str(csv_path))
        doc = json.loads(out)
        lines = csv_path.read_text().strip().splitlines()[1:]
        for line, cell in zip(lines, doc["cells"]):
            dT, h = (float(v) for v in line.split(","))
            assert dT == cell["deltaT"]  # repr floats survive the round trip
            assert h == cell["h"]

    @pytest.mark.parametrize("command", ["to-diagonal", "type"])
    def test_drop_of_pi_exits_two(self, run, tmp_path, command):
        code, out = run(command, "--config", write_config(tmp_path, BIG_DROP))
        assert code == 2
        assert "drop" in json.loads(out)["error"]


class TestHadamard:
    def test_value_and_order(self, run):
        code, out = run(
            "hadamard", "--family", "a", "--alpha", "3.0", "--z", "-1.0", "--fit-order"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"][0] == pytest.approx(2.428189792098565, abs=1e-9)
        assert doc["expected_order"] == pytest.approx(1.0 / 3.0)
        assert abs(doc["fitted_order"] - 1.0 / 3.0) < 0.15

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_value_past_the_float_range_is_left_out_quietly(self, capsys):
        # |A(1e200 (1 + i))| = exp(4.03e6) at alpha = 40: log_abs, and no value
        code = cli.main(["hadamard", "--family", "a", "--alpha", "40", "--z", "1e200", "1e200"])
        out = capsys.readouterr()
        assert code == 0 and out.err == ""
        doc = json.loads(out.out)
        assert "value" not in doc
        assert doc["log_abs"] == pytest.approx(4031686.7242105715, rel=1e-12)

    def test_z_takes_at_most_two_values(self, run):
        code, out = run("hadamard", "--alpha", "3.0", "--z", "1", "2", "3")
        assert code == 1
        assert out == ""


class TestPotentialCommands:
    @pytest.fixture
    def free_csv(self, tmp_path):
        xs = np.linspace(0.0, 16.0, 801)
        path = tmp_path / "pot.csv"
        np.savetxt(path, np.column_stack([xs, np.zeros_like(xs)]), delimiter=",")
        return str(path)

    def test_schrodinger_import(self, run, free_csv):
        code, out = run("schrodinger-import", "--potential", free_csv, "--e0", "-1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["phi_end"] == pytest.approx(PI / 4, abs=1e-3)

    def test_molchanov_new(self, run, free_csv):
        code, out = run(
            "molchanov",
            "--potential", free_csv,
            "--mode", "new",
            "--x-grid", "1.0", "10.0", "19",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "not_to_zero"
        assert doc["G_last"] == pytest.approx(0.25, rel=0.01)

    def test_molchanov_classic(self, run, tmp_path):
        xs = np.linspace(0.0, 30.0, 301)
        path = tmp_path / "lin.csv"
        np.savetxt(path, np.column_stack([xs, xs]), delimiter=",")
        code, out = run(
            "molchanov",
            "--potential", str(path),
            "--d-list", "1.0",
            "--x-grid", "1.0", "15.0", "29",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "diverges_likely"

    @pytest.mark.parametrize("argv", [["schrodinger-import"], ["molchanov", "--mode", "new"]])
    def test_e0_in_the_spectrum_exits_two(self, run, free_csv, argv):
        # E0 = 1 lies in the free spectrum [0, inf): the solutions oscillate
        code, out = run(*argv, "--potential", free_csv, "--e0", "1.0")
        assert code == 2
        assert json.loads(out)["error"]

    @pytest.mark.parametrize(
        "argv, header",
        [
            (["schrodinger-import", "--e0", "-1.0"], "X,phi"),
            (["molchanov", "--d-list", "1", "2", "--x-grid", "1", "5", "5"], "x,W_d1,W_d2"),
            (["molchanov", "--mode", "new", "--x-grid", "1", "5", "5"], "x,G"),
        ],
    )
    def test_csv_header(self, run, free_csv, tmp_path, argv, header):
        csv_path = tmp_path / "out.csv"
        code, _ = run(*argv, "--potential", free_csv, "--csv", str(csv_path))
        assert code == 0
        assert csv_path.read_text().splitlines()[0] == header

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_classic_grid_too_short_exits_two(self, run, free_csv, n):
        # V = 0 must not read diverges_likely from an empty rising test
        code, out = run("molchanov", "--potential", free_csv, "--x-grid", "1", "5", n)
        assert code == 2
        assert "last half" in json.loads(out)["error"]

    @pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
    @pytest.mark.parametrize("content", [None, "", "0\n1\n2\n"], ids=["missing", "empty", "one_column"])
    @pytest.mark.parametrize("argv", [["schrodinger-import", "--e0", "-1"], ["molchanov", "--mode", "new"]])
    def test_unreadable_potential_exits_two(self, run, tmp_path, content, argv):
        path = tmp_path / "pot.csv"
        if content is not None:
            path.write_text(content)
        code, out = run(*argv, "--potential", str(path))
        assert code == 2
        assert json.loads(out)["error"].startswith(str(path))

    @pytest.mark.parametrize("argv, error", [
        # W = 0 and W < 0 read not_diverging for a V = x that diverges
        (["--d-list", "0"], "window width d must be positive, not 0.0"),
        (["--d-list", "1", "-1"], "window width d must be positive, not -1.0"),
        # left of the samples V was read as 0: W = [0, 0, 0.5, 5.5, 10.5]
        (["--x-grid", "-10", "10", "5"],
         "potential must be sampled from min(x_grid) = -10.0 on, not from 0.0"),
        (["--x-grid", "1", "nan", "5"], "x_grid must be finite"),
    ], ids=["d_zero", "d_negative", "x_grid_before_samples", "x_grid_nan"])
    def test_classic_window_outside_its_meaning_exits_two(self, run, tmp_path, argv, error):
        xs = np.linspace(0.0, 20.0, 201)
        path = tmp_path / "lin.csv"
        np.savetxt(path, np.column_stack([xs, xs]), delimiter=",")
        code, out = run("molchanov", "--potential", str(path), *argv)
        assert code == 2
        assert json.loads(out) == {"error": error}

    @pytest.mark.parametrize("x_grid, error", [
        (["1", "nan", "5"], "x_grid must be finite"),
        # q was reported as vanishing inside the range, not as unsampled
        (["1", "10", "5"], "potential must be sampled from min(x_grid) = 1.0 on, not from 2.0"),
    ], ids=["x_grid_nan", "x_grid_before_samples"])
    def test_new_grid_outside_its_meaning_exits_two(self, run, tmp_path, x_grid, error):
        xs = np.linspace(2.0, 20.0, 181)
        path = tmp_path / "late.csv"
        np.savetxt(path, np.column_stack([xs, np.zeros_like(xs)]), delimiter=",")
        code, out = run("molchanov", "--mode", "new", "--potential", str(path), "--x-grid", *x_grid)
        assert code == 2
        assert json.loads(out) == {"error": error}

    @pytest.mark.parametrize("n", ["0", "2.7"])
    def test_x_grid_count_must_be_a_positive_integer(self, run, free_csv, n):
        code, out = run("molchanov", "--potential", free_csv, "--x-grid", "1", "5", n)
        assert code == 1
        assert out == ""


def _c_over_x_doc(tail):
    """phi = 1/x on [1, 100] as a table behind a plateau head."""
    xs = np.geomspace(1.0, 100.0, 400)
    doc = {
        "segments": [
            {"length": 1.0, "kind": "angle", "alpha": 1.0},
            {"length": 99.0, "kind": "table",
             "points": [[float(x - 1.0), float(1.0 / x)] for x in xs]},
        ]
    }
    if tail:
        doc["tail"] = {"type": "singular", "gamma": 0.0}
    return doc


C_OVER_X_NO_TAIL = _c_over_x_doc(tail=False)


class TestMiscSubcommands:
    def test_ess_bounds(self, run, tmp_path):
        # C/x-style table tail collapsing to gamma
        xs = np.geomspace(1.0, 100.0, 200)
        pts = [[float(x - 1.0), float(1.0 / x)] for x in xs]
        doc = {
            "segments": [
                {"length": 1.0, "kind": "angle", "alpha": 1.0},
                {"length": 99.0, "kind": "table", "points": pts},
            ],
            "tail": {"type": "singular", "gamma": 0.0},
        }
        code, out = run("ess-bounds", "--config", write_config(tmp_path, doc))
        assert code == 0
        res = json.loads(out)
        assert res["lower"] <= res["upper"]
        assert res["A"] > 0.0
        assert "tail_model" not in res

    def test_ess_bounds_fitted_tail(self, run, tmp_path):
        # no declared tail: phi(inf) comes from the fitted tail model, so
        # A = B = 1 and min sigma_ess = 1/4 (the last sample gave [1/2, 2])
        code, out = run("ess-bounds", "--config", write_config(tmp_path, C_OVER_X_NO_TAIL))
        assert code == 0
        res = json.loads(out)
        assert res["lower"] == pytest.approx(0.25, rel=1e-3)
        assert res["upper"] == pytest.approx(0.25, rel=1e-3)
        assert res["tail_model"]["p"] == pytest.approx(1.0, abs=1e-5)
        # a declared tail keeps its own limit
        code, out = run("ess-bounds", "--config", write_config(tmp_path, _c_over_x_doc(tail=True)))
        assert "tail_model" not in json.loads(out)

    def test_result_keys_are_the_dataclass_fields(self, run, tmp_path):
        # the documents print the result records themselves: no key is added,
        # dropped or renamed on the way, except the fitted tail_model
        names = [f.name for f in dataclasses.fields(spectra.EssBounds)]
        code, out = run("ess-bounds", "--config", write_config(tmp_path, C_OVER_X_NO_TAIL))
        assert code == 0 and list(json.loads(out)) == names + ["tail_model"]
        code, out = run("ess-bounds", "--config", write_config(tmp_path, C_PLUS_TAIL))
        assert code == 0 and list(json.loads(out)) == names
        code, out = run("zero-eig", "--config", write_config(tmp_path, C_PLUS_TAIL))
        assert code == 0
        assert list(json.loads(out)) == [f.name for f in dataclasses.fields(spectra.ZeroEigenvalueCheck)]

    def test_m_endpoints(self, run, tmp_path):
        p = write_config(tmp_path, C_PLUS_TAIL)
        code, out = run("m-endpoints", "--config", p)
        assert code == 0
        doc = json.loads(out)
        assert doc["m_at_minus_infinity"] == pytest.approx(-math.tan(0.5))
        assert doc["m_at_zero_minus"] == pytest.approx(math.tan(0.5))

    def test_zero_eig(self, run, tmp_path):
        p = write_config(tmp_path, C_PLUS_TAIL)
        code, out = run("zero-eig", "--config", p)
        assert code == 0
        assert "is_eigenvalue" in json.loads(out)

    @pytest.mark.parametrize("doc, body", [
        # ramp 0 -> -0.2 on [0, 10], tail P_{-pi/2}: int cos^2 = 5 + sin(0.4) / 0.08
        ({"segments": [{"length": 10.0, "kind": "ramp", "phi_start": 0.0, "phi_end": -0.2}],
          "tail": {"type": "singular", "gamma": -math.pi / 2}}, 5.0 + math.sin(0.4) / 0.08),
        # angle 0, angle -2, tail P_{pi/2}: phi_inf aligns to -3 pi/2
        ({"segments": [{"length": 1.0, "kind": "angle", "alpha": 0.0},
                       {"length": 1.0, "kind": "angle", "alpha": -2.0}],
          "tail": {"type": "singular", "gamma": math.pi / 2}}, 1.0 + math.cos(2.0) ** 2),
    ], ids=["ramp", "angle-drop"])
    def test_zero_eig_reads_the_declared_tail(self, run, tmp_path, doc, body):
        code, out = run("zero-eig", "--config", write_config(tmp_path, doc))
        assert code == 0
        res = json.loads(out)
        assert res["is_eigenvalue"] is True and res["tail_converges"] is True
        assert res["body_integral"] == pytest.approx(body, rel=1e-12)

    def test_type(self, run, tmp_path):
        p = write_config(tmp_path, C_PLUS_TAIL)
        code, out = run("type", "--config", p)
        assert code == 0
        doc = json.loads(out)
        assert doc["type"] >= 0.0

    def test_order_all_singular(self, run, tmp_path):
        p = write_config(tmp_path, TWO_ANGLES)
        code, out = run(
            "order", "--config", p, "--r-min", "1.0", "--r-max", "1e6"
        )
        assert code == 0
        assert json.loads(out)["order"] < 0.3

    def test_wholeline(self, run, tmp_path):
        left = write_config(
            tmp_path,
            {
                "segments": [{"length": 1.0, "kind": "angle", "alpha": 1.2}],
                "tail": {"type": "singular", "gamma": 1.0},
            },
            name="left.json",
        )
        right = write_config(
            tmp_path,
            {
                "segments": [{"length": 1.0, "kind": "angle", "alpha": 1.2}],
                "tail": {"type": "singular", "gamma": 1.0},
            },
            name="right.json",
        )
        code, out = run("wholeline", "--config-left", left, "--config-right", right)
        assert code == 0
        assert "nonnegative" in json.loads(out)

    def test_ess_bounds_strict_exits_three_on_a_warning(self, run, tmp_path):
        # phi = (x + 1)^(-1/2) -> 0: g(x) = x phi(x) still grows at the window end
        xs = np.linspace(0.0, 99.0, 100)
        doc = {
            "segments": [
                {"length": 99.0, "kind": "table",
                 "points": [[float(x), float(1.0 / np.sqrt(x + 1.0))] for x in xs]},
            ],
            "tail": {"type": "singular", "gamma": 0.0},
        }
        p = write_config(tmp_path, doc)
        code, out = run("ess-bounds", "--config", p)
        assert code == 0
        assert json.loads(out)["warnings"]
        code, _ = run("ess-bounds", "--config", p, "--strict")
        assert code == 3

    def test_ess_bounds_strict_exits_zero_without_a_warning(self, run, tmp_path):
        p = write_config(tmp_path, C_PLUS_TAIL)
        code, out = run("ess-bounds", "--config", p, "--strict")
        assert json.loads(out)["warnings"] == []
        assert code == 0

    def test_m_endpoints_minus_t(self, run, tmp_path):
        # m increases on (-inf, 0), so m(-1) lies between its endpoint values
        p = write_config(tmp_path, C_PLUS_TAIL)
        code, out = run("m-endpoints", "--config", p, "--minus-t", "-1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["minus_t"] == -1.0
        assert doc["m_at_minus_infinity"] < doc["m_numeric"] < doc["m_at_zero_minus"]

    def test_type_measure(self, run, tmp_path):
        doc = {
            "segments": [{"length": 2.0, "kind": "ramp", "phi_start": 0.5, "phi_end": -0.5}],
            "tail": {"type": "singular", "gamma": -0.5},
        }
        code, out = run("type", "--config", write_config(tmp_path, doc), "--measure")
        assert code == 0
        res = json.loads(out)
        assert res["type"] > 1.0
        assert res["measured_rate"] == pytest.approx(res["type"], rel=1e-3)

    def test_order_csv(self, run, tmp_path):
        csv_path = tmp_path / "order.csv"
        code, _ = run(
            "order", "--config", write_config(tmp_path, TWO_ANGLES),
            "--n-radii", "8", "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "r,log_max"
        assert len(lines) == 9

    def test_full_rank_matrix_exits_two(self, run, tmp_path):
        doc = {"segments": [{"length": 1.0, "kind": "matrix", "h11": 0.5, "h12": 0.0, "h22": 0.5}]}
        code, out = run("zero-eig", "--config", write_config(tmp_path, doc))
        assert code == 2
        assert "det H" in json.loads(out)["error"]


class TestTol:
    """--tol is outside input: every subcommand that takes it rejects a
    nonpositive value, whether or not its answer depends on it."""

    @pytest.mark.parametrize(
        "argv",
        [["theta", "--t", "1", "--L", "2"], ["count", "--L", "2", "--window", "-1", "1"],
         ["locate", "--L", "2", "--window", "-1", "5"], ["order"]],
        ids=lambda argv: argv[0],
    )
    def test_nonpositive_tol_exits_two(self, run, tmp_path, argv):
        p = write_config(tmp_path, TWO_ANGLES)
        code, out = run(*argv, "--config", p, "--tol", "0")
        assert code == 2
        assert json.loads(out) == {"error": "tol must be positive"}


class TestEveryOptionIsRead:
    """A flag its handler never reads does nothing: every option of every
    subcommand must be read when the subcommand runs with all of them set."""

    def runs(self, tmp_path):
        sys_ = write_config(tmp_path, C_PLUS_TAIL)
        # the ramp of RAMP in degrees: two schedule points leave it inconclusive
        ramp = write_config(
            tmp_path,
            {"segments": [{"length": 4.0, "kind": "ramp", "phi_start": 90, "phi_end": -90}]},
            name="ramp.json",
        )
        xs = np.linspace(0.0, 99.0, 100)
        warns = write_config(
            tmp_path,
            {
                "segments": [{"length": 99.0, "kind": "table",
                              "points": [[float(x), float(1.0 / np.sqrt(x + 1.0))] for x in xs]}],
                "tail": {"type": "singular", "gamma": 0.0},
            },
            name="warns.json",
        )
        pot = tmp_path / "pot.csv"
        grid = np.linspace(0.0, 8.0, 161)
        np.savetxt(pot, np.column_stack([grid, np.zeros_like(grid)]), delimiter=",")
        out = str(tmp_path / "out.csv")
        cfg = ["--degrees", "--config", sys_]
        return [
            ["validate", *cfg],
            ["theta", *cfg, "--csv", out, "--tol", "1e-9", "--t", "1", "--theta0", "10",
             "--L", "2"],
            # --L selects the bounded count, which has no CSV and is never inconclusive
            ["count", *cfg, "--csv", out, "--tol", "1e-9", "--strict", "--L", "3",
             "--beta", "45", "--window", "-5", "5"],
            ["count", "--degrees", "--config", ramp, "--csv", out, "--tol", "1e-9", "--strict",
             "--window", "0", "100", "--schedule", "2", "4"],
            ["locate", *cfg, "--csv", out, "--tol", "1e-9", "--L", "3", "--beta", "0",
             "--window", "-5", "5"],
            ["classify", *cfg],
            ["wholeline", "--degrees", "--config-left", sys_, "--config-right", sys_],
            ["ess-bounds", "--degrees", "--config", warns, "--strict"],
            ["m-endpoints", *cfg, "--minus-t", "-1"],
            ["zero-eig", *cfg],
            ["to-diagonal", *cfg, "--csv", out],
            ["type", *cfg, "--measure", "--y-max", "100"],
            ["order", *cfg, "--csv", out, "--tol", "1e-9", "--L", "3", "--r-min", "1",
             "--r-max", "1e3", "--n-radii", "8"],
            ["schrodinger-import", "--potential", str(pot), "--e0", "-1", "--csv", out],
            # --mode picks which of --d-list (classic) and --e0 (new) is read
            ["molchanov", "--potential", str(pot), "--mode", "classic", "--e0", "-1",
             "--d-list", "1", "--x-grid", "1", "5", "5", "--csv", out],
            ["molchanov", "--potential", str(pot), "--mode", "new", "--e0", "-1",
             "--d-list", "1", "--x-grid", "1", "5", "5", "--csv", out],
            ["hadamard", "--family", "a", "--alpha", "3", "--z", "-1", "0", "--fit-order"],
        ]

    def test_every_option_is_read(self, monkeypatch, capsys, tmp_path):
        reads: dict[str, set] = {}

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads[super().__getattribute__("command")].add(name)
                return super().__getattribute__(name)

        build = cli.build_parser

        def recording_parser(argv=None):
            ap = build(argv)
            parse = ap.parse_args

            def parse_args(argv):
                ns = parse(argv)
                reads.setdefault(ns.command, set())
                return Recording(**vars(ns))

            ap.parse_args = parse_args
            return ap

        monkeypatch.setattr(cli, "build_parser", recording_parser)
        runs = self.runs(tmp_path)
        for argv in runs:
            assert cli.main(argv) in (0, 3), (argv, capsys.readouterr().out)
        subparsers = next(a for a in build()._actions if isinstance(a, argparse._SubParsersAction))
        for name, sub in subparsers.choices.items():
            options = [a for a in sub._actions if a.option_strings and a.dest != "help"]
            given = {a for argv in runs if argv[0] == name for a in argv}
            unset = [a.option_strings[0] for a in options if a.option_strings[0] not in given]
            assert not unset, f"{name}: no run sets {unset}"
            unread = [a.option_strings[0] for a in options if a.dest not in reads[name]]
            assert not unread, f"{name}: {unread} never read"


def _options(ap):
    """subcommand -> its option flags, help aside"""
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a.option_strings[0] for a in p._actions if a.option_strings and a.dest != "help"]
        for name, p in sub.choices.items()
    }


def _parse(ap, argv, capsys):
    """(exit code, stdout, stderr) of ap.parse_args(argv), which exits on -h and errors"""
    with pytest.raises(SystemExit) as exc:
        ap.parse_args(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


class TestParserPerCommand:
    """main builds only the named subcommand's options; every help, usage
    and error text is the full parser's."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_full_parser_holds_every_option(self):
        assert _options(cli.build_parser()) == {
            name: [flag for flag, _ in options] for name, (_, _, options) in cli.COMMANDS.items()
        }

    @pytest.mark.parametrize("name", cli.COMMANDS)
    def test_named_parser_holds_its_options_alone(self, name):
        given = _options(cli.build_parser(["--degrees", name, "--config", "sys.json"]))
        assert given.pop(name) == [flag for flag, _ in cli.COMMANDS[name][2]]
        assert all(flags == [] for flags in given.values())

    def test_help_lists_every_subcommand(self, run):
        code, out = run("-h")
        assert code == 0
        assert all(f"    {name}" in out for name in cli.COMMANDS)

    def test_unknown_command_exits_one(self, capsys):
        argv = ["bogus", "--config", "sys.json"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument command: invalid choice: 'bogus'" in err
        assert _parse(cli.build_parser(), argv, capsys) == (1, "", err)

    @pytest.mark.parametrize("name", cli.COMMANDS)
    @pytest.mark.parametrize("tail", [["-h"], []], ids=["help", "bare"])
    def test_command_prints_what_the_full_parser_prints(self, capsys, name, tail):
        argv = [name, *tail]
        full = _parse(cli.build_parser(), argv, capsys)
        assert _parse(cli.build_parser(argv), argv, capsys) == full
        assert cli.main(argv) == full[0]
        assert capsys.readouterr() == full[1:]


#: a ramp of length 20 whose transfer matrix at t = -1e5 has |T| = e^1420.5
LONG_RAMP = {"segments": [{"length": 20.0, "kind": "ramp", "phi_start": 0.5, "phi_end": -0.5}]}


class TestNegativeNumbers:
    """Negative numbers in exponent form, and -inf, are values, not options."""

    def test_count_window(self, run, tmp_path):
        p = write_config(tmp_path, C_PLUS_TAIL)
        code, out = run("count", "--config", p, "--window", "-1e3", "0", "--L", "2")
        assert code == 0
        assert json.loads(out)["inputs"]["window"] == [-1000.0, 0.0]
        # -inf reaches the count as a value (a usage error would exit 1),
        # which rejects a spectral parameter that is not finite
        code, out = run("count", "--config", p, "--window", "-inf", "0", "--L", "2")
        assert code == 2
        assert json.loads(out)["error"] == "t must be finite, not -inf"

    def test_m_endpoints_minus_t(self, run, tmp_path):
        p = write_config(tmp_path, LONG_RAMP)
        code, out = run("m-endpoints", "--config", p, "--minus-t", "-1e5")
        assert code == 0
        doc = json.loads(out)
        assert doc["minus_t"] == -1e5
        assert doc["m_at_minus_infinity"] < doc["m_numeric"] < doc["m_at_zero_minus"]

    def test_theta_t(self, run, tmp_path):
        p = write_config(tmp_path, C_PLUS_TAIL)
        code, out = run("theta", "--config", p, "--t", "-2.5e-3", "--L", "2")
        assert code == 0
        assert json.loads(out)["inputs"]["t"] == -2.5e-3

    def test_other_dashed_words_stay_options(self, run):
        assert run("hadamard", "--alpha", "3", "--z", "-x")[0] == 1


def _potential(tmp_path, name, v):
    path = tmp_path / name
    np.savetxt(path, [[0.0, 0.0], [1.0, v], [2.0, 0.0]], delimiter=",")
    return str(path)


class TestNumericFailuresExitTwo:
    TAILED = {"segments": [{"length": 1.0, "kind": "angle", "alpha": a} for a in (0.3, -0.6)],
              "tail": {"type": "singular", "gamma": -1.2}}

    @pytest.mark.parametrize("argv", [
        ["hadamard", "--alpha", "3", "--z", "1e300"],
        ["count", "--config", "{ramp}", "--window", "0", "inf"],
        ["theta", "--config", "{ramp}", "--t", "nan", "--L", "3"],
        ["schrodinger-import", "--potential", "{nan}", "--e0", "-1"],
        ["schrodinger-import", "--potential", "{big}", "--e0", "-1"],
    ])
    def test_error_document_not_traceback(self, run, tmp_path, argv):
        paths = {
            "{ramp}": write_config(tmp_path, RAMP),
            "{nan}": _potential(tmp_path, "nan.csv", math.nan),
            "{big}": _potential(tmp_path, "big.csv", 1e300),
        }
        with np.errstate(all="ignore"):
            code, out = run(*[paths.get(a, a) for a in argv])
        assert code == 2
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("argv, error", [
        (["count", "--config", "{ramp}", "--window", "-inf", "5", "--L", "4"], "t must be finite, not -inf"),
        (["locate", "--config", "{ramp}", "--window", "-inf", "5", "--L", "4"], "t must be finite, not -inf"),
        (["count", "--config", "{stairs}", "--L", "3e-5", "--beta", "1.8708", "--window", "-inf", "0"],
         "t must be finite, not -inf"),
        (["count", "--config", "{ramp}", "--window", "0", "5", "--schedule", "1", "nan", "2"],
         "L_schedule must be nonempty, positive and finite, not [1.0, nan, 2.0]"),
        (["count", "--config", "{tailed}", "--L", "inf", "--window", "-1", "1"],
         "L must be finite and nonnegative, not inf"),
        (["locate", "--config", "{tailed}", "--L", "inf", "--window", "-1", "1", "--beta", "0.5"],
         "L must be finite and nonnegative, not inf"),
        (["order", "--config", "{tailed}", "--L", "inf"], "L must be finite and nonnegative, not inf"),
        (["theta", "--config", "{tailed}", "--t", "1", "--theta0", "nan", "--L", "1"],
         "theta0 must be finite, not nan"),
        (["theta", "--config", "{tailed}", "--t", "1", "--theta0", "inf", "--L", "1"],
         "theta0 must be finite, not inf"),
        (["locate", "--config", "{angle}", "--L", "1", "--window", "0", "20", "--beta", "4"],
         "beta must lie in [0, pi)"),
        (["locate", "--config", "{angle}", "--L", "1", "--window", "0", "20", "--beta", "-0.5"],
         "beta must lie in [0, pi)"),
        (["locate", "--config", "{angle}", "--L", "1", "--window", "0", "20", "--beta", "nan"],
         "beta must lie in [0, pi)"),
        (["m-endpoints", "--config", "{tailed}", "--minus-t", "nan"],
         "minus_t must be finite and negative, not nan"),
        (["m-endpoints", "--config", "{tailed}", "--minus-t", "-inf"],
         "minus_t must be finite and negative, not -inf"),
    ], ids=["count", "locate", "staircase", "schedule", "count-L-inf", "locate-L-inf", "order-L-inf",
            "theta0-nan", "theta0-inf", "locate-beta-4", "locate-beta-negative", "locate-beta-nan",
            "m-nan", "m--inf"])
    def test_not_finite_spectral_parameter_is_named(self, run, tmp_path, argv, error):
        # at t = -inf each singular step of the staircase lands on its
        # stationary point and counts 2 (the exact count is 1); the others
        # would fail on an unrelated NaN or angle.  L = inf gave a certified
        # count and an eigenvalue at -7.5e-15 on the tailed system, and order
        # a numpy warning first; theta0 = nan or inf failed in a floor or a
        # tangent; locate took beta = 4 mod pi and -0.5 as it stood, where the
        # count rejects both; m at nan answered "nan" with exit 0
        stairs = {"segments": [{"length": 1e-5, "kind": "angle", "alpha": a} for a in (1.2, -1.2, 0.3)]}
        angle = {"segments": [{"length": 1.0, "kind": "angle", "alpha": 0.3}]}
        paths = {"{ramp}": write_config(tmp_path, RAMP), "{stairs}": write_config(tmp_path, stairs, "stairs.json"),
                 "{tailed}": write_config(tmp_path, self.TAILED, "tailed.json"),
                 "{angle}": write_config(tmp_path, angle, "angle.json")}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(*[paths.get(a, a) for a in argv])
        assert code == 2
        assert json.loads(out)["error"] == error
        assert not caught, [str(w.message) for w in caught]

    def test_m_at_large_t_answers(self, run, tmp_path):
        # a pull-back through T read m(-1e12) off by 1.8e-4, then exited 2;
        # the reference is the exact singular product in mpmath at 50 digits
        code, out = run("m-endpoints", "--config", write_config(tmp_path, self.TAILED), "--minus-t", "-1e12")
        assert code == 0
        assert json.loads(out)["m_numeric"] == pytest.approx(-0.3093362496085275, rel=1e-13, abs=0.0)


#: documents that parse but hold a non-finite number: the gate rejects each
NON_FINITE_DOCS = [
    {"segments": [{"length": 1.0, "kind": "angle", "alpha": math.nan}]},
    {"segments": [{"length": 1.0, "kind": "matrix", "h11": 0.5, "h12": math.nan, "h22": 0.5}]},
    {"segments": [{"length": math.inf, "kind": "angle", "alpha": 0.3}]},
    {"segments": [{"length": 1.0, "kind": "ramp", "phi_start": 0.5, "phi_end": -math.inf}]},
    {"segments": [{"length": 1.0, "kind": "table", "points": [[0.0, 0.3], [math.nan, 0.2], [1.0, 0.1]]}]},
    {**TWO_ANGLES, "tail": {"type": "singular", "gamma": math.inf}},
]


class TestExtremeInputsSweep:
    """Every subcommand, run with extreme but cheap inputs, ends in an exit
    code, never in an exception out of main.  hadamard at |z| = 1e30 would
    need 2.9e11 terms, past entire.MAX_TERMS, and exits 2 before it
    allocates any."""

    EXTREMES = ["1e300", "-1e300", "inf", "-inf", "nan"]

    def runs(self, tmp_path):
        sys_ = write_config(tmp_path, C_PLUS_TAIL)
        ramp = write_config(tmp_path, RAMP, name="ramp.json")
        huge = write_config(
            tmp_path,
            {"segments": [{"length": 1e300, "kind": "ramp", "phi_start": 1e300, "phi_end": -1e300}]},
            name="huge.json",
        )
        pots = [_potential(tmp_path, "nan.csv", math.nan), _potential(tmp_path, "big.csv", 1e300)]
        non_finite = [write_config(tmp_path, doc, name=f"nonfinite{i}.json")
                      for i, doc in enumerate(NON_FINITE_DOCS)]
        runs = []
        for c in (sys_, ramp, huge, *non_finite):
            runs += [
                [cmd, "--config", c]
                for cmd in ("validate", "classify", "ess-bounds", "m-endpoints", "zero-eig",
                            "to-diagonal", "order")
            ]
            runs += [["wholeline", "--config-left", c, "--config-right", sys_],
                     ["type", "--config", c, "--measure"]]
        for v in self.EXTREMES:
            for c in (sys_, ramp):
                runs += [
                    ["theta", "--config", c, "--t", v, "--L", "2"],
                    ["theta", "--config", c, "--t", "1", "--theta0", v, "--L", "2"],
                    ["count", "--config", c, "--window", v, "0", "--L", "2"],
                    ["count", "--config", c, "--window", "0", v, "--L", "2"],
                    ["count", "--config", c, "--window", v, "0"],
                    ["count", "--config", c, "--window", "0", v],
                    ["locate", "--config", c, "--window", v, "0", "--L", "2"],
                    ["m-endpoints", "--config", c, "--minus-t", v],
                    ["type", "--config", c, "--measure", "--y-max", v],
                    ["order", "--config", c, "--r-min", v],
                    ["order", "--config", c, "--r-max", v],
                ]
            for pot in pots:
                runs += [
                    ["schrodinger-import", "--potential", pot, "--e0", v],
                    ["molchanov", "--potential", pot, "--mode", "new", "--e0", v],
                    ["molchanov", "--potential", pot, "--d-list", v],
                    ["molchanov", "--potential", pot, "--x-grid", "1", v, "5"],
                ]
            runs.append(["hadamard", "--alpha", v, "--fit-order"])
        for z in (["1e8"], ["-1e8"], ["0", "1e8"], ["0", "-1e8"]):
            runs += [["hadamard", "--family", f, "--alpha", "3", "--z", *z] for f in ("a", "c")]
        return runs

    def test_no_exception_escapes_main(self, capsys, tmp_path):
        runs = self.runs(tmp_path)
        with np.errstate(all="ignore"):
            for argv in runs:
                assert cli.main(argv) in (0, 1, 2, 3), argv
                capsys.readouterr()
        assert {argv[0] for argv in runs} == set(cli.COMMANDS)

    @pytest.mark.parametrize("doc", NON_FINITE_DOCS, ids=["alpha", "matrix", "length", "ramp", "table", "tail"])
    def test_non_finite_documents_exit_two(self, run, tmp_path, doc):
        path = write_config(tmp_path, doc)
        code, out = run("validate", "--config", path)
        assert code == 2 and json.loads(out)["valid"] is False
        for argv in (["ess-bounds"], ["zero-eig"], ["classify"], ["order"], ["to-diagonal"],
                     ["count", "--window", "0", "1", "--L", "0.5"]):
            code, out = run(*argv, "--config", path)
            assert code == 2, argv
            assert "not finite" in json.loads(out)["error"], argv

    def test_growth_answers_carry_no_nan(self, capsys, tmp_path):
        # order, type and hadamard either answer with numbers or exit 2
        with np.errstate(all="ignore"):
            for argv in self.runs(tmp_path):
                if argv[0] not in ("order", "type", "hadamard"):
                    continue
                code = cli.main(argv)
                out = capsys.readouterr().out
                assert code in (0, 2), argv
                assert code == 2 or '"nan"' not in out, (argv, out)

    @pytest.mark.parametrize("argv", [
        ["order", "--config", "{sys}", "--r-min", "nan"],
        ["order", "--config", "{sys}", "--r-max", "nan"],
        ["order", "--config", "{sys}", "--r-max", "inf"],
        ["order", "--config", "{ramp}", "--r-min", "-inf"],
        ["type", "--config", "{sys}", "--measure", "--y-max", "inf"],
        ["type", "--config", "{sys}", "--measure", "--y-max", "-inf"],
        ["type", "--config", "{sys}", "--measure", "--y-max", "nan"],
        ["hadamard", "--alpha", "inf", "--fit-order"],
        ["hadamard", "--alpha", "nan", "--fit-order"],
        ["hadamard", "--alpha", "3", "--z", "nan"],
        ["hadamard", "--family", "c", "--alpha", "3", "--z", "1", "inf"],
        # y_max 0 is out of range, not a request for the default
        ["type", "--config", "{sys}", "--measure", "--y-max", "0"],
    ])
    def test_non_finite_growth_inputs_exit_two(self, run, tmp_path, argv):
        paths = {"{sys}": write_config(tmp_path, C_PLUS_TAIL), "{ramp}": write_config(tmp_path, RAMP, name="r.json")}
        with np.errstate(all="ignore"):
            code, out = run(*[paths.get(a, a) for a in argv])
        assert code == 2
        assert "finite" in json.loads(out)["error"]

    @pytest.mark.parametrize("doc", [
        {"segments": 5},
        {"segments": None},
        {**TWO_ANGLES, "tail": 5},
        {**TWO_ANGLES, "tail": []},
        {**TWO_ANGLES, "tail": {"type": "singular"}},
        {**TWO_ANGLES, "tail": {"type": "singular", "gamma": None}},
        {**TWO_ANGLES, "tolerances": 5},
        {**TWO_ANGLES, "tolerances": {"integration": None}},
        {**TWO_ANGLES, "tolerances": {"integration": -1}},
    ])
    def test_malformed_config_exits_two(self, run, tmp_path, doc):
        # a wrong type or a missing key is a config error, not an exception out of main
        path = write_config(tmp_path, doc)
        code, out = run("order", "--config", path)
        assert code == 2 and json.loads(out)["error"]
        code, out = run("validate", "--config", path)
        assert code == 2
        res = json.loads(out)
        assert res["valid"] is False and res["error"]

    def test_unreadable_tolerance_names_its_key(self, run, tmp_path):
        path = write_config(tmp_path, {**TWO_ANGLES, "tolerances": {"integration": "abc"}})
        code, out = run("count", "--config", path, "--L", "1.0", "--window", "-5", "5")
        assert code == 2
        assert json.loads(out) == {"error": "tolerances: integration: could not convert string to float: 'abc'"}

    def test_type_far_up_the_axis(self, run, tmp_path):
        # -l b l a overflowed in the diagonal form's matrix factor at y = 1e300
        doc = {"segments": [{"length": 1.0, "kind": "angle", "alpha": 0.3},
                            {"length": 1.0, "kind": "ramp", "phi_start": 0.2, "phi_end": -0.4}]}
        with np.errstate(all="ignore"):
            code, out = run("type", "--config", write_config(tmp_path, doc), "--measure", "--y-max", "1e300")
        assert code == 0
        res = json.loads(out)
        assert res["measured_rate"] == pytest.approx(res["type"], rel=1e-6)

    @pytest.mark.parametrize("family", ["a", "c"])
    def test_hadamard_past_the_term_cap_exits_two(self, run, family):
        code, out = run("hadamard", "--family", family, "--alpha", "3", "--z", "1e30")
        assert code == 2
        assert "terms; at most" in json.loads(out)["error"]


def test_emit_writes_non_finite_floats_as_strings(capsys):
    # a numpy float is a float: it takes the same rule, never JSON's Infinity
    cli.emit({"a": np.float64("inf"), "b": [-math.inf, np.float64("nan")], "c": np.float64(0.5)})
    assert json.loads(capsys.readouterr().out) == {"a": "inf", "b": ["-inf", "nan"], "c": 0.5}
