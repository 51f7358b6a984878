"""Tests for matrix file I/O and the command surface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from genresolvent import (
    MatrixFileError,
    Pencil,
    build_family,
    default_grid,
    finite_rank_criterion,
    load_matrix,
    mp_inverse,
    pinv_matrix,
    save_matrix,
)
from genresolvent.cli import main
from genresolvent.matio import report_text
import genresolvent.cli as cli_module
from helpers import framed_pencil, ordered_pairs, reference_identity_max

DATA = Path(__file__).resolve().parent.parent / "data"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
# one valid invocation of each command on the shipped example matrices
COMMANDS = {
    "analyze": ["analyze", DATA / "const_t.json", DATA / "const_s.json"],
    "mp-check": ["mp-check", DATA / "const_t.json", DATA / "const_s.json"],
    "spectrum": ["spectrum", DATA / "diag12.json", DATA / "eye2.json", "--steps", "5"],
    "perturb": ["perturb", DATA / "diag10.json", DATA / "tbar_generalized.json"],
}


class TestLoadMatrix:
    def test_real_matrix(self):
        assert np.array_equal(load_matrix(DATA / "diag10.json"), np.diag([1.0 + 0j, 0.0]))

    def test_missing_im_means_zero(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 1, "cols": 1, "re": [[2.5]]}))
        assert load_matrix(path)[0, 0] == 2.5 + 0.0j

    def test_with_imaginary_part(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 1, "cols": 2, "re": [[1, 2]], "im": [[3, -4]]}))
        assert np.array_equal(load_matrix(path), np.array([[1 + 3j, 2 - 4j]]))

    def test_bad_row_length_names_row(self):
        with pytest.raises(MatrixFileError, match="row 0"):
            load_matrix(FIXTURES / "bad_row.json")

    def test_invalid_json(self):
        with pytest.raises(MatrixFileError, match="invalid JSON"):
            load_matrix(FIXTURES / "corrupted.json")

    def test_missing_field(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 1, "cols": 1}))
        with pytest.raises(MatrixFileError, match="'re'"):
            load_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": 1, "cols": 1, "re": [[NaN]]}')
        with pytest.raises(MatrixFileError, match="non-finite"):
            load_matrix(path)

    @pytest.mark.parametrize("im", [True, False], ids=["with-im", "without-im"])
    def test_boolean_shape_rejected(self, tmp_path, capsys, im):
        """JSON true is a Python int; as rows and cols it must not load as 1x1."""
        payload = {"rows": True, "cols": True, "re": [[1.0]]}
        if im:
            payload["im"] = [[0.0]]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(MatrixFileError, match="positive integers"):
            load_matrix(path)
        code, _, err = run(["analyze", path, path], capsys)
        assert code == 2
        assert "positive integers" in err

    @pytest.mark.parametrize(
        "payload,named",
        [
            ([[1.0]], "top-level value"),
            ({"rows": 2, "cols": 1, "re": [[1.0]]}, "field 're' must be a list of 2 rows"),
            ({"rows": 1, "cols": 1, "re": [[True]]}, "field 're' row 0 column 0"),
            ({"rows": 1, "cols": 2, "re": [[1.0, "2"]]}, "field 're' row 0 column 1"),
        ],
        ids=["array", "row-count", "true-entry", "string-entry"],
    )
    def test_malformed_payload_exits_two_naming_the_field(self, tmp_path, capsys, payload,
                                                          named):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(["analyze", path, path], capsys)
        assert (code, out) == (2, "")
        assert named in err

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize(
        "content,named",
        [
            (b'{"rows": 1, "cols": 1, "re": [[1' + b"0" * 399 + b"]]}",
             "field 're' holds an integer too large for a float"),
            (b'{"rows": 1, "cols": 1, "re": [[1.0]], "im": [[-1' + b"0" * 399 + b"]]}",
             "field 'im' holds an integer too large for a float"),
            (b'{"rows": 1, "cols": 1, "re": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
             "invalid JSON: nested too deeply"),
            (b"\xff\xfe{}", "not UTF-8 text"),
            (b'{"rows": 1, "cols": 2, "re": [[1.7e308, 1.7e308]]}',
             "matrix norm exceeds the largest float"),
        ],
        ids=["re-overflow", "im-overflow", "deep-nesting", "not-utf-8", "norm-overflow"],
    )
    def test_unreadable_file_exits_two_naming_it(self, tmp_path, capsys, command, content,
                                                 named):
        """A file whose text or numbers Python cannot read, or whose matrix has
        a norm beyond the largest float (so every rank cutoff and residual
        scale would be inf), is an input error of every command: one stderr
        line naming the file, exit 2."""
        path = tmp_path / "m.json"
        path.write_bytes(content)
        with pytest.raises(MatrixFileError, match=named):
            load_matrix(path)
        code, out, err = run([command, path, path], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"genresolvent: {path}: ")
        assert named in err and err.count("\n") == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(MatrixFileError, match="cannot read"):
            load_matrix(tmp_path / "absent.json")

    def test_round_trip_exact(self, tmp_path):
        values = np.array([[0.1, -1e-300], [2**-52, 3.0]]) + 1j * np.array(
            [[7e300, 0.25], [0.0, -0.1]]
        )
        path = tmp_path / "m.json"
        save_matrix(values, path)
        assert np.array_equal(load_matrix(path), values)


def test_report_text_renders_numpy_and_complex_values():
    """report_text renders numpy scalars and arrays as JSON numbers and lists,
    complex values as {"re", "im"} objects, tuples as lists, keys sorted."""
    report = {
        "flag": np.bool_(True),
        "count": np.int64(-3),
        "value": np.float64(0.1),
        "z": 1.5 - 2j,
        "nz": np.complex128(complex(0.25, 1.0)),
        "real": np.array([[1.0, 2.5], [0.0, -1.0]]),
        "cplx": np.array([complex(1.0, 1.0), complex(0.0, -2.0)]),
        "pair": (1, np.float64(2.0)),
        "nested": {"b": {"a": [np.bool_(False), None]}, "a": "\u00e9"},
    }
    expected = """{
  "count": -3,
  "cplx": [
    {
      "im": 1.0,
      "re": 1.0
    },
    {
      "im": -2.0,
      "re": 0.0
    }
  ],
  "flag": true,
  "nested": {
    "a": "\u00e9",
    "b": {
      "a": [
        false,
        null
      ]
    }
  },
  "nz": {
    "im": 1.0,
    "re": 0.25
  },
  "pair": [
    1,
    2.0
  ],
  "real": [
    [
      1.0,
      2.5
    ],
    [
      0.0,
      -1.0
    ]
  ],
  "value": 0.1,
  "z": {
    "im": -2.0,
    "re": 1.5
  }
}
"""
    assert report_text(report) == expected
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        report_text({"x": object()})


def run(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeCommand:
    def test_constant_rank_pencil_exits_zero(self, capsys):
        code, out, _ = run(["analyze", DATA / "const_t.json", DATA / "const_s.json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["existence"]["verdict"] is True
        assert report["axioms"]["ok"] is True
        assert report["criteria"]["finite_rank"]["verdict"] is True

    def test_shifted_projector_exits_one(self, capsys):
        code, out, _ = run(["analyze", DATA / "diag10.json", DATA / "eye2.json"], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["existence"]["verdict"] is False
        assert report["criteria"]["fredholm"]["verdict"] is False

    def test_mismatched_shapes_exit_two(self, capsys):
        code, _, err = run(["analyze", DATA / "diag10.json", DATA / "diag110.json"], capsys)
        assert code == 2
        assert "shape" in err.lower() or "differ" in err.lower()

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            ["analyze", DATA / "const_t.json", DATA / "const_s.json", "--out", out_path],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["exit_code"] == 0

    def test_digests_recorded(self, capsys):
        _, out, _ = run(["analyze", DATA / "const_t.json", DATA / "const_s.json"], capsys)
        report = json.loads(out)
        assert len(report["inputs"]["t"]["sha256"]) == 64

    @pytest.mark.parametrize("reach,method", [(0.5, "bound"), (1 - 1e-9, "pairs")])
    def test_identity_method_names_the_deciding_value(self, reach, method, tmp_path, capsys):
        """The per-point bound decides the identity unless it exceeds
        residual_tol, as on a grid reaching the disk's boundary; then exact
        pairs do, and a passing value is at most residual_tol."""
        pencil = framed_pencil(np.random.default_rng(5), 5, 4, 3)
        paths = [tmp_path / "t.json", tmp_path / "s.json"]
        save_matrix(pencil.t, paths[0])
        save_matrix(pencil.s, paths[1])
        radius = build_family(pencil, mp_inverse(pencil.t)).radius * reach
        _, out, _ = run(["analyze", *paths, "--grid-radius", repr(radius)], capsys)
        axioms = json.loads(out)["axioms"]
        assert axioms["identity_method"] == method
        assert axioms["skipped_points"] == []
        assert 0.0 < axioms["max_identity_residual"] <= 1e-10


def marginal_pencil():
    """t - lam*s = diag(1, 1e-14 (1 - lam)): the second singular value sits
    within 10x of the cutoff 2 eps for |1 - lam| < 0.44, so on a grid of
    radius 0.9 the rank is marginal on part of the outer rings only."""
    return Pencil(np.diag([1.0, 1e-14]), np.diag([0.0, 1e-14])), ["--grid-radius", "0.9"]


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(marginal_pencil, id="marginal"),
        pytest.param(lambda: (Pencil(np.diag([1.0, 0.0]), np.eye(2)), []), id="rank-jump"),
        pytest.param(lambda: (framed_pencil(np.random.default_rng(6), 6, 6, 3), []), id="framed"),
        pytest.param(
            lambda: (framed_pencil(np.random.default_rng(6), 5, 7, 3, switched=True), []),
            id="framed-switched",
        ),
    ],
)
def test_analyze_rank_blocks_equal_finite_rank_criterion(case, tmp_path, capsys):
    """analyze reads its rank profile off existence_check's ranks; they must be
    what finite_rank_criterion computes on the same pencil and grid."""
    pencil, flags = case()
    paths = [tmp_path / "t.json", tmp_path / "s.json"]
    save_matrix(pencil.t, paths[0])
    save_matrix(pencil.s, paths[1])
    _, out, _ = run(["analyze", *paths, *flags], capsys)
    report = json.loads(out)
    grid = default_grid(report["grid"]["radius"], len(report["grid"]["points"]))
    expected = finite_rank_criterion(Pencil(load_matrix(paths[0]), load_matrix(paths[1])), grid)
    profile = expected.profile
    assert report["rank_profile"] == {
        "ranks": list(profile.ranks),
        "nullities": list(profile.nullities),
        "coranks": list(profile.coranks),
        "marginal": list(profile.marginal),
    }
    assert report["criteria"] == {
        "finite_rank": {"verdict": expected.verdict},
        "fredholm": {
            "nullity_constant": expected.nullity_constant,
            "corank_constant": expected.corank_constant,
            "verdict": expected.nullity_constant or expected.corank_constant,
        },
    }
    if case is marginal_pencil:
        assert any(profile.marginal) and not all(profile.marginal)


TOLERANCE_SETTINGS = [
    ("--gap-tol", "1", "gap_tol"),
    ("--gap-tol", "nan", "gap_tol"),
    ("--residual-tol", "1", "residual_tol"),
    ("--residual-tol", "inf", "residual_tol"),
    ("--rank-rtol", "1", "rank_rtol"),
]
GRID_SETTINGS = [
    ("--grid-radius", "nan", "grid radius"),
    ("--grid-radius", "inf", "grid radius"),
]
REGION_SETTINGS = [
    ("--re-min", "nan", "region bound re_min must be finite, got nan"),
    ("--re-max", "inf", "region bound re_max must be finite, got inf"),
    ("--im-max", "nan", "region bound im_max must be finite, got nan"),
]


@pytest.mark.parametrize(
    "flag,value,named,command",
    [(*setting, command) for setting in TOLERANCE_SETTINGS
     for command in ("analyze", "mp-check", "spectrum", "perturb")]
    + [(*setting, command) for setting in GRID_SETTINGS for command in ("analyze", "mp-check")]
    + [(*setting, "spectrum") for setting in REGION_SETTINGS],
)
def test_settings_that_decide_nothing_exit_two(command, flag, value, named, capsys):
    code, out, err = run([*COMMANDS[command], flag, value], capsys)
    assert (code, out) == (2, "")
    assert named in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["0.5", "1e-8", "1e-15"])
@pytest.mark.parametrize("command", ["analyze", "perturb"])
def test_gap_tol_exits_two_where_nothing_reads_it(command, value, capsys):
    """Only mp-check's constancy verdict reads gap_tol: analyze and perturb
    reject it, even at its default value, with one stderr line naming it."""
    code, out, err = run([*COMMANDS[command], "--gap-tol", value], capsys)
    assert (code, out) == (2, "")
    assert "gap_tol" in err
    assert err.count("\n") == 1
    _, out, _ = run([*COMMANDS["mp-check"], "--gap-tol", value], capsys)
    assert json.loads(out)["tolerances"]["gap_tol"] == float(value)


@pytest.mark.parametrize("command", ["analyze", "mp-check"])
def test_tolerance_below_the_rounding_of_t_plus_names_it(command, tmp_path, capsys):
    """No inverse of T meets a residual_tol below the rounding of T's own
    Moore-Penrose inverse: an input error (exit 2) that names the setting,
    not a candidate the caller never gave."""
    pencil = framed_pencil(np.random.default_rng(5), 5, 4, 3)
    paths = [tmp_path / "t.json", tmp_path / "s.json"]
    save_matrix(pencil.t, paths[0])
    save_matrix(pencil.s, paths[1])
    code, out, err = run([command, *paths, "--residual-tol", "1e-16"], capsys)
    assert (code, out) == (2, "")
    assert "residual_tol" in err and "Moore-Penrose inverse" in err
    assert "candidate" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "mp-check", "perturb"])
def test_timing_adds_only_its_field(command, capsys):
    """--timing adds timing_seconds to the report and changes nothing else."""
    code, out, _ = run(COMMANDS[command], capsys)
    timed_code, timed, _ = run([*COMMANDS[command], "--timing"], capsys)
    assert "timing_seconds" not in json.loads(out)
    report = json.loads(timed)
    assert report.pop("timing_seconds") >= 0.0
    assert (timed_code, report_text(report)) == (code, out)


@pytest.mark.parametrize("command", ["analyze", "mp-check", "spectrum", "perturb"])
def test_unwritable_out_exits_two(command, tmp_path, capsys):
    """A report that cannot be written is an input error: exit 2, one line on
    stderr, nothing on stdout."""
    target = tmp_path / "missing" / "report"
    code, out, err = run([*COMMANDS[command], "--out", target], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"genresolvent: {target}: cannot write")
    assert err.count("\n") == 1


class TestMpCheckCommand:
    def test_positive_family(self, capsys):
        code, out, _ = run(["mp-check", DATA / "diag110.json", DATA / "diag120.json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["constancy_verdict"] and report["identity_verdict"]

    def test_negative_family(self, capsys):
        code, out, _ = run(["mp-check", DATA / "diag10.json", DATA / "eye2.json"], capsys)
        assert code == 1
        report = json.loads(out)
        assert not report["constancy_verdict"] and not report["identity_verdict"]
        assert report["verdicts_agree"] is True

    def test_corrupted_file_exits_two(self, capsys):
        code, _, err = run(["mp-check", FIXTURES / "corrupted.json", DATA / "eye2.json"], capsys)
        assert code == 2
        assert "invalid JSON" in err

    def test_grid_where_the_pencil_overflows_exits_two_naming_the_point(self, tmp_path):
        """s = 10 I: 10 * lam overflows on the outer rings of the grid of
        radius 5e307. In a fresh process with every RuntimeWarning shown, the
        command prints only the first such point in grid order."""
        save_matrix(10.0 * np.eye(2), tmp_path / "s.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(DATA.parent / "src"), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-W", "always::RuntimeWarning", "-m", "genresolvent", "mp-check",
             str(DATA / "diag12.json"), str(tmp_path / "s.json"), "--grid-radius", "5e307"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "genresolvent: t - lam*s is not finite at lam = (3.333333333333333e+307+0j)\n"
        )

    def test_disagreement_exits_three(self, capsys, monkeypatch):
        real = cli_module.mp_resolvent_characterization

        def tampered(*args, **kwargs):
            report = real(*args, **kwargs)
            object.__setattr__(report, "identity_verdict", not report.identity_verdict)
            return report

        monkeypatch.setattr(cli_module, "mp_resolvent_characterization", tampered)
        code, _, err = run(["mp-check", DATA / "diag110.json", DATA / "diag120.json"], capsys)
        assert code == 3
        assert "disagree" in err


class TestSpectrumCommand:
    def test_csv_marks_eigenvalues(self, capsys):
        code, out, _ = run(
            ["spectrum", DATA / "diag12.json", DATA / "eye2.json", "--steps", "61"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re,im,rank,is_drop"
        assert len(lines) == 1 + 61 * 61
        drops = [line for line in lines[1:] if line.endswith(",1")]
        assert drops == ["1.0,0.0,1,1", "2.0,0.0,1,1"]

    def test_constant_rank_pencil_no_drops(self, capsys):
        code, out, _ = run(
            ["spectrum", DATA / "const_t.json", DATA / "const_s.json", "--steps", "11"], capsys
        )
        assert code == 0
        assert not any(line.endswith(",1") for line in out.strip().splitlines()[1:])

    def test_zero_steps_exit_two(self, capsys):
        code, _, err = run(
            ["spectrum", DATA / "diag12.json", DATA / "eye2.json", "--steps", "0"], capsys
        )
        assert code == 2
        assert "--steps" in err

    @pytest.mark.parametrize("flag,value,named", [
        ("--residual-tol", "1e-6", "residual_tol"),
        ("--residual-tol", "1e-10", "residual_tol"),
        ("--gap-tol", "1e-4", "gap_tol"),
        ("--gap-tol", "1e-8", "gap_tol"),
    ])
    def test_tolerances_the_scan_does_not_read_exit_two(self, flag, value, named, capsys):
        """The scan reads only rank_rtol: a residual or gap tolerance, even its
        default value, is rejected with one stderr line naming the setting."""
        code, out, err = run([*COMMANDS["spectrum"], flag, value], capsys)
        assert (code, out) == (2, "")
        assert named in err
        assert err.count("\n") == 1

    def test_rank_rtol_still_decides_the_scan(self, capsys):
        code, out, _ = run([*COMMANDS["spectrum"], "--rank-rtol", "0.5"], capsys)
        assert code == 0
        assert out != run(COMMANDS["spectrum"], capsys)[1]

    def test_negative_bound_reads_in_either_form(self, capsys):
        """A plain negative number may follow its flag; argparse takes a
        separate -1e1 for a flag, but --re-min=-1e1 reads it as the number
        and writes the CSV that --re-min -10 writes."""
        code, out, err = run([*COMMANDS["spectrum"], "--re-min", "-10"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith("-10.0,-3.0,")
        assert run([*COMMANDS["spectrum"], "--re-min=-1e1"], capsys) == (0, out, "")

    def test_negative_infinite_bound_exits_two(self, capsys):
        code, out, err = run([*COMMANDS["spectrum"], "--re-min=-inf"], capsys)
        assert (code, out) == (2, "")
        assert "re_min" in err
        assert err.count("\n") == 1


class TestPerturbCommand:
    def test_generalized_case(self, capsys):
        code, out, _ = run(
            ["perturb", DATA / "diag10.json", DATA / "tbar_generalized.json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == "generalized"
        assert report["b"]["re"][0][0] == pytest.approx(1 / 1.1)
        assert all(report["splitting_checks"][k] for k in (
            "b_is_generalized", "transversal", "codomain_splits", "domain_splits"))

    def test_outer_only_case(self, capsys):
        code, out, _ = run(["perturb", DATA / "diag10.json", DATA / "tbar_outer.json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == "outer-only"
        assert report["splitting_checks"]["agree"] is True

    def test_too_large_exits_one(self, capsys):
        code, _, err = run(["perturb", DATA / "diag10.json", DATA / "tbar_large.json"], capsys)
        assert code == 1
        assert "too large" in err

    def test_corrupted_exits_two(self, capsys):
        code, _, _ = run(["perturb", DATA / "diag10.json", FIXTURES / "corrupted.json"], capsys)
        assert code == 2


def test_back_to_back_calls_parse_independently(capsys):
    """main reuses one parser per process; no call's flags reach the next one."""
    const = [str(DATA / "const_t.json"), str(DATA / "const_s.json")]
    calls = [
        ["analyze", *const, "--grid-points", "9", "--rank-rtol", "1e-12"],
        ["analyze", *const],
        ["mp-check", *const, "--grid-points", "60"],
        ["perturb", str(DATA / "diag10.json"), str(DATA / "tbar_outer.json")],
        ["mp-check", *const],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(DATA.parent / "src"), env.get("PYTHONPATH")])
    )
    outputs = [run(args, capsys)[:2] for args in calls]
    for args, (code, out) in zip(calls, outputs):
        fresh = subprocess.run(
            [sys.executable, "-m", "genresolvent", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), args
    assert outputs[0][1] != outputs[1][1]


@pytest.mark.parametrize("scale", [1e-200, 1e-300])
def test_mp_check_of_a_vanishing_pencil_writes_nothing_to_stderr(scale, tmp_path):
    """T = 0 and S = scale * I: the pointwise pseudoinverses are of order
    1/scale while the anchor T+ = 0 has its norm floored at NORM_FLOOR, so
    the identity quotients overflow. +inf is their "exceeds tolerance"
    value; no NumPy warning reaches stderr, and no peak scaling makes NaN."""
    paths = [tmp_path / "t.json", tmp_path / "s.json"]
    save_matrix(np.zeros((4, 4)), paths[0])
    save_matrix(scale * np.eye(4), paths[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(DATA.parent / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-m", "genresolvent", "mp-check",
         *map(str, paths)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert "RuntimeWarning" not in done.stderr
    assert done.stderr == ""
    assert done.returncode == 1
    report = json.loads(done.stdout)
    assert report["identity_method"] == "pairs"
    assert report["max_identity_residual"] == np.inf
    assert report["identity_verdict"] is False


def test_mp_check_at_60_points_reports_the_maximum_over_every_pair(tmp_path, capsys):
    """The switched 8 x 8 framed pencil of scripts/report_digests.py on 60
    grid points: mp-check fails the identity on the pairs through lam = 0,
    and the value it reports is the maximum over every ordered pair, which
    pair (0, 1) attains. A sample of 1600 drawn pairs missed that pair."""
    p = framed_pencil(np.random.default_rng([1, 8, 8, 1]), 8, 8, 7, True)
    paths = [tmp_path / "t.json", tmp_path / "s.json"]
    save_matrix(p.t, paths[0])
    save_matrix(p.s, paths[1])
    code, out, _ = run(["mp-check", *paths, "--grid-points", "60"], capsys)
    report = json.loads(out)
    grid = default_grid(build_family(p, mp_inverse(p.t)).radius / 2, 60)
    pinvs = [pinv_matrix(p.at(lam)) for lam in grid.points]
    best, worst = reference_identity_max(p.s, pinvs[0], pinvs, grid.points, ordered_pairs(60))
    assert code == 1
    assert report["identity_method"] == "pairs"
    assert worst == (0, 1)
    assert report["max_identity_residual"] == best


# t - lam I is invertible at every point of both grids below, so
# (t - lam I)^+ and G(lam) are the classical resolvent there
NEAR_EIGENVALUE = np.diag([1 / 3 + 1e-6, 2.5, -2.5j, 3.0])


@pytest.mark.xfail(
    strict=True,
    reason="the identity's pairs through lam = 1/3, where ||G|| is about 1e6, are measured "
    "against ||G_0|| of about 3 alone, so max_identity_residual reads 1.21e-10 against "
    "residual_tol 1e-10 (ROADMAP: measure the resolvent identity per pair)",
)
def test_mp_check_of_an_invertible_pencil_near_an_eigenvalue_keeps_its_contract(
    tmp_path, capsys
):
    """t = diag(1/3 + 1e-6, 2.5, -2.5i, 3) and s = I on the grid of radius 1:
    t - lam I is invertible at every point of default_grid(1.0, 25), so
    (t - lam I)^+ is the classical resolvent there and both verdicts hold.
    The command must not exit 3, whose constancy verdict holds and whose
    identity verdict fails."""
    paths = [tmp_path / "t.json", tmp_path / "s.json"]
    save_matrix(NEAR_EIGENVALUE, paths[0])
    save_matrix(np.eye(4), paths[1])
    code, out, _ = run(["mp-check", *paths, "--grid-radius", "1"], capsys)
    report = json.loads(out)
    assert report["constancy_verdict"] is True
    assert code != 3, (report["identity_method"], report["max_identity_residual"])


@pytest.mark.xfail(
    strict=True,
    reason="the identity's pairs of points near lam = 1/3, where ||G|| is about 1e6, are "
    "measured against ||G_0|| of about 3 alone, so max_identity_residual reads 1.17e-10 "
    "against residual_tol 1e-10 (ROADMAP: measure the resolvent identity per pair)",
)
def test_analyze_of_an_invertible_pencil_near_an_eigenvalue_passes(tmp_path, capsys):
    """The same pencil on the grid of radius 0.3333333, inside the family's
    disk of radius 0.3333343: the explicit family is the classical resolvent
    at every grid point, so every verdict holds and the command exits 0.
    Existence holds and the pairs through lam = 0 meet the identity at
    2.2e-16; only the pair (4, 17) of points near 1/3 misses it."""
    paths = [tmp_path / "t.json", tmp_path / "s.json"]
    save_matrix(NEAR_EIGENVALUE, paths[0])
    save_matrix(np.eye(4), paths[1])
    code, out, _ = run(["analyze", *paths, "--grid-radius", "0.3333333"], capsys)
    report = json.loads(out)
    assert report["existence"]["verdict"] is True
    assert code == 0, (report["axioms"]["identity_method"], report["axioms"]["max_identity_residual"])


@pytest.mark.parametrize("command", [
    "analyze",
    pytest.param("mp-check", marks=pytest.mark.xfail(
        strict=True,
        reason="mp-check's identity bound forms G(lam) @ (s @ t+) and its pair products "
        "before scaling them by lam_i - lam_j, so they overflow where ||t+||^2 ||s|| exceeds "
        "the largest float, and the SVD of the non-finite result does not converge (ROADMAP: "
        "measure the resolvent identity per pair)",
    )),
])
def test_a_pencil_of_tiny_norm_gets_its_verdict(command, tmp_path):
    """t = 1e-300 I and s = I: t - lam s is invertible on the default grid,
    G(lam), about 1e300 I, is finite and is the classical resolvent, so every
    verdict holds. The command must exit 0 with nothing on stderr. analyze
    decides its identity on the rank-r family 2^-e N(lam) Sigma_r with
    s' = 2^e V_r^H s X, whose products stay in range."""
    paths = [tmp_path / "t.json", tmp_path / "s.json"]
    save_matrix(1e-300 * np.eye(2), paths[0])
    save_matrix(np.eye(2), paths[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(DATA.parent / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-m", "genresolvent", command,
         *map(str, paths)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")


def run_fresh(args):
    """genresolvent in a fresh process, with every RuntimeWarning shown."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(DATA.parent / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-m", "genresolvent", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("radius", ["1e308", "6e307"])
def test_analyze_on_a_grid_radius_near_the_largest_float_skips_its_rings(radius):
    """radius * ring / rings overflows at these radii: the rings are built
    from the halved radius, so every grid point is finite, and all 24 ring
    points lie outside the family's disk of radius 1 / ||s t+|| = 1."""
    done = run_fresh(["analyze", DATA / "diag12.json", DATA / "eye2.json", "--grid-radius", radius])
    assert done.returncode == 1, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert len(json.loads(done.stdout)["axioms"]["skipped_points"]) == 24


@pytest.mark.parametrize("radius", ["6e307", "1e300"])
def test_mp_check_on_a_grid_radius_near_the_largest_float_passes(radius):
    """t - lam I is invertible at every point of the grid, so (t - lam I)^+
    is the classical resolvent there and both verdicts hold."""
    done = run_fresh(["mp-check", DATA / "diag12.json", DATA / "eye2.json",
                      "--grid-radius", radius])
    assert (done.returncode, done.stderr) == (0, "")


def test_mp_check_on_a_grid_of_radius_1e308_passes():
    """As at radius 6e307: t - lam I is invertible at every grid point. The
    identity's pair differences would reach 2e308; they are formed from the
    halved points, and an overflowing rounding term is +inf, which leaves
    the identity to its exact pairs."""
    done = run_fresh(["mp-check", DATA / "diag12.json", DATA / "eye2.json",
                      "--grid-radius", "1e308"])
    assert (done.returncode, done.stderr) == (0, "")


class TestVersionCommand:
    def test_prints_version(self, capsys):
        code, out, _ = run(["version"], capsys)
        assert code == 0
        assert out.startswith("genresolvent ")
