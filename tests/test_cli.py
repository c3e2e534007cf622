"""End-to-end CLI behavior: exit codes, file formats, reproducibility."""

import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dhlab.cli
from dhlab.cli import main
from helpers import rounds_to_root

GOLDEN = Path(__file__).parent / "golden"
SIMPLEX2_JSON = json.dumps({
    "dim": 2,
    "halfspaces": [
        {"a": [-1.0, 0.0], "b": 0.0},
        {"a": [0.0, -1.0], "b": 0.0},
        {"a": [1.0, 1.0], "b": 1.0},
    ],
})
CUBE3_JSON = json.dumps({
    "dim": 3,
    "halfspaces": [
        {"a": [1, 0, 0], "b": 1}, {"a": [-1, 0, 0], "b": 0},
        {"a": [0, 1, 0], "b": 1}, {"a": [0, -1, 0], "b": 0},
        {"a": [0, 0, 1], "b": 1}, {"a": [0, 0, -1], "b": 0},
    ],
})


def _read_csv(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or "," not in line or line[0].isalpha():
            continue
        rows.append([float(v) for v in line.split(",")])
    return np.array(rows)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_default_passes(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--output", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "FAIL" not in stdout
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert report["top_power_str"] == "6*t^2 - 30*t + 42"
    # the report embeds the verified 2-form as a full form document
    from dhlab import Form, canonical_chart

    omega = Form.from_json(canonical_chart(), report["omega"])
    assert omega.degree == 2 and len(omega.terms) == 7


def test_verify_narrow_window(capsys):
    assert main(["verify", "--window", "2.0", "3.0"]) == 0


def test_verify_inverted_window_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--window", "3.0", "2.0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["verify", "density"])
@pytest.mark.parametrize("hi", ["inf", "1e400"])
def test_nonfinite_window_is_usage_error(capsys, command, hi):
    with pytest.raises(SystemExit) as exc:
        main([command, "--window", "0.5", hi])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


def test_verify_bad_params_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--params", "x", "3"])
    assert exc.value.code == 2


def test_params_take_negative_rationals(capsys):
    # argparse read "-1/3" as an option; (c1, c2) = (-1/3, 9/4) is
    # nondegenerate on [2, 4.5]
    argv = ["--window", "2", "4.5", "--samples", "200000", "--bins", "8"]
    assert main(["verify", *argv[:3], "--params", "-1/3", "9/4"]) == 0
    capsys.readouterr()
    assert main(["density", *argv, "--params", "-1/3", "9/4"]) == 0
    minus = capsys.readouterr().out
    assert main(["density", *argv, "--params", " -1/3", "9/4"]) == 0
    assert minus == capsys.readouterr().out
    assert "params=[-1/3,9/4]" in minus


def test_verify_degenerate_params_fail(capsys):
    # (c1, c2) = (0, 5) degenerates inside (0.1, 1.0)
    code = main(["verify", "--params", "0", "5", "--window", "0.1", "1.0"])
    assert code == 1
    err = capsys.readouterr().err
    assert "nondegeneracy" in err


@pytest.mark.parametrize("command", [["verify"], ["logconcavity", "--analytic"]])
def test_double_root_of_top_power_fails_nondegeneracy(capsys, command):
    # the top power 6 (t - 2)^2 vanishes at t = 2 without changing sign
    code = main(command + ["--window", "0.5", "4.4", "--params", "1", "3"])
    assert code == 1
    assert "nondegeneracy" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_small_run(capsys, tmp_path):
    out = tmp_path / "density.csv"
    code = main(["density", "--samples", "200000", "--bins", "20",
                 "--seed", "5", "--output", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows.shape == (20, 5)
    width = 4.0 / 20
    assert abs(rows[:, 2].sum() * width - 1.0) <= 1e-9
    header = out.read_text().splitlines()[0]
    assert "seed=5" in header and "samples=200000" in header and "philox" in header


def test_density_default_run_hits_dip_value(capsys, tmp_path):
    out = tmp_path / "density.csv"
    code = main(["density", "--output", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows.shape == (40, 5)
    dip_row = rows[np.argmin(np.abs(rows[:, 0] - 2.55))]
    assert abs(dip_row[2] - 0.09) <= 0.003
    assert "max relative error" in capsys.readouterr().out


def test_density_underpowered_run_fails(capsys, tmp_path):
    out = tmp_path / "density.csv"
    code = main(["density", "--samples", "1000", "--bins", "40",
                 "--seed", "42", "--output", str(out)])
    assert code == 1
    assert "increase --samples" in capsys.readouterr().err


def test_density_coarse_bins_have_no_centre_bias(capsys, tmp_path):
    # against the density at bin centres, all 4 bins sat at |z| 20 to 60 and
    # the run failed the 3% gate; against exact bin averages it passes
    out = tmp_path / "density.csv"
    code = main(["density", "--samples", "2000000", "--bins", "4", "--output", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows.shape == (4, 5)
    assert np.all(np.abs(rows[:, 4]) <= 3)
    assert "0/4 bins with |z| > 3" in capsys.readouterr().out


def test_density_flat_mode(capsys, tmp_path):
    out = tmp_path / "flat.csv"
    code = main(["density", "--flat", "--samples", "100000", "--bins", "10",
                 "--seed", "7", "--output", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert np.allclose(rows[:, 1], 0.25, atol=1e-12)  # analytic column is flat
    assert np.allclose(rows[:, 2], 0.25, atol=0.01)


@pytest.mark.parametrize("threads", ["two", "1.5", "0", "-3"])
def test_density_non_integer_threads_is_usage_error(capsys, monkeypatch, threads):
    monkeypatch.setenv("DH_LAB_THREADS", threads)
    assert main(["density", "--samples", "20000", "--bins", "8"]) == 2
    err = capsys.readouterr().err
    assert "DH_LAB_THREADS" in err and repr(threads) in err


def test_density_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["density", "--samples", "100000", "--bins", "10", "--seed", "160"]
    # this run misses the 3% gate: bin 5 lies 3.4 standard errors (3.22%)
    # below its exact bin average; the CSV is written all the same
    assert main(argv + ["--output", str(a)]) == 1
    assert main(argv + ["--output", str(b)]) == 1
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# logconcavity
# ---------------------------------------------------------------------------

def test_logconcavity_analytic_finding(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["logconcavity", "--analytic", "--output", str(out)])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["log_concave"] is False
    (lo, hi), = report["intervals"]
    assert lo == pytest.approx(2.5 - math.sqrt(3) / 2, abs=1e-9)
    assert hi == pytest.approx(2.5 + math.sqrt(3) / 2, abs=1e-9)
    # each end is 5/2 -/+ sqrt(3)/2 rounded once, and the witness is exact
    assert [lo, hi] == [1.6339745962155614, 3.366025403784439]
    assert all(rounds_to_root(e, _violation_sign(2, 3), (0.5, 4.5)) for e in (lo, hi))
    assert report["witnesses"] == [[2.5, 1.5]]
    assert capsys.readouterr().out.splitlines()[-1] == \
        "log-concave: NO; violations on (1.633974596, 3.366025404)"


def test_logconcavity_finds_close_root_pair(capsys, tmp_path):
    # (log f)'' > 0 only on an interval of width 6.3e-5 around t = 2
    out = tmp_path / "report.json"
    code = main(["logconcavity", "--analytic", "--params", "1", "2.999999999",
                 "--output", str(out)])
    assert code == 3
    (lo, hi), = json.loads(out.read_text())["intervals"]
    assert lo == pytest.approx(1.9999683767234023, abs=1e-9)
    assert hi == pytest.approx(2.0000316222765977, abs=1e-9)
    sign = _violation_sign(1, Fraction("2.999999999"))
    assert all(rounds_to_root(e, sign, (0.5, 4.5)) for e in (lo, hi))
    assert capsys.readouterr().out.splitlines()[-1] == \
        "log-concave: NO; violations on (1.999968377, 2.000031622)"


def test_logconcavity_keeps_window_ends_and_exit_codes(capsys, tmp_path):
    # a window end inside the violation set is an end of the report as it is
    out = tmp_path / "report.json"
    assert main(["logconcavity", "--analytic", "--window", "0.5", "2",
                 "--output", str(out)]) == 3
    (lo, hi), = json.loads(out.read_text())["intervals"]
    assert rounds_to_root(lo, _violation_sign(2, 3), (0.5, 2)) and hi == 2.0
    capsys.readouterr()
    # f = (t - 2)^2 vanishes inside the default window
    assert main(["logconcavity", "--analytic", "--params", "1", "3"]) == 1
    assert "nondegeneracy" in capsys.readouterr().err


def _violation_sign(c1, c2):
    """For the density 1 + (c1 - t)(c2 - t): a function of the sign of
    (log f)'', zero at the ends of the violation set."""
    mid, rest = Fraction(c1 + c2) / 2, 1 - Fraction(c1 - c2) ** 2 / 4
    return lambda x: rest - (x - mid) ** 2


def test_logconcavity_gaussian_csv(capsys, tmp_path):
    path = tmp_path / "gauss.csv"
    lines = ["s,f"]
    for k in range(101):
        s = -2.0 + 4.0 * k / 100
        lines.append(f"{s},{math.exp(-s * s)}")
    path.write_text("\n".join(lines) + "\n")
    assert main(["logconcavity", "--input", str(path)]) == 0


def test_logconcavity_rejects_zero_sample(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0\n0.1,0.0\n0.2,1.0\n")
    assert main(["logconcavity", "--input", str(path)]) == 1


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_logconcavity_rejects_nonfinite_sample(capsys, tmp_path, bad):
    path = tmp_path / "bad.csv"
    path.write_text(f"0,1\n1,{bad}\n2,1\n3,1\n")
    assert main(["logconcavity", "--input", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "0,2e-200\n1,1e-200\n2,2e-200\n",  # the products underflow to 0 and hide the dip
    "0,1e300\n1,1\n2,1e300\n",  # the surplus overflows to inf, which JSON cannot hold
])
def test_logconcavity_rejects_samples_outside_float_range(capsys, tmp_path, text):
    path = tmp_path / "scaled.csv"
    path.write_text(text)
    assert main(["logconcavity", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert "s=0.0 lies outside [2**-511, 2**511]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", [
    "0,1\n1,2\n3,3\n",  # uneven steps
    "0,1\n0,2\n0,3\n",  # every row at s = 0
    "0,1\n1e-12,1\n6e-10,1\n9e-10,5\n9.5e-10,1\n",  # uneven steps all below 1e-9
])
def test_logconcavity_malformed_grid_is_input_error(capsys, tmp_path, text):
    path = tmp_path / "grid.csv"
    path.write_text(text)
    assert main(["logconcavity", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "bad samples file: samples must sit on an ascending uniform grid\n"
    assert captured.out == ""


def test_logconcavity_requires_a_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["logconcavity"])
    assert exc.value.code == 2


def test_logconcavity_missing_file(capsys, tmp_path):
    assert main(["logconcavity", "--input", str(tmp_path / "nope.csv")]) == 2


# ---------------------------------------------------------------------------
# toric
# ---------------------------------------------------------------------------

def test_toric_simplex_profile(capsys, tmp_path):
    poly = tmp_path / "simplex.json"
    poly.write_text(SIMPLEX2_JSON)
    out = tmp_path / "profile.csv"
    code = main(["toric", "--input", str(poly), "--bins", "50", "--output", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert np.allclose(rows[:, 1], 1.0 - rows[:, 0], atol=1e-9)
    assert "log-concave" in capsys.readouterr().out


def test_toric_cube_flat_profile(capsys, tmp_path):
    poly = tmp_path / "cube.json"
    poly.write_text(CUBE3_JSON)
    out = tmp_path / "profile.csv"
    code = main(["toric", "--input", str(poly), "--axis", "0", "--bins", "12",
                 "--samples", "20000", "--seed", "3", "--output", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert np.allclose(rows[:, 1], 1.0, atol=0.02)


def test_toric_malformed_json(capsys, tmp_path):
    poly = tmp_path / "bad.json"
    poly.write_text("{not json")
    assert main(["toric", "--input", str(poly)]) == 2


@pytest.mark.parametrize("doc, field", [
    ([], "JSON object"),
    ({"dim": 2.5, "halfspaces": []}, '"dim"'),
    ({"dim": "2", "halfspaces": []}, '"dim"'),
    ({"dim": True, "halfspaces": []}, '"dim"'),
    ({"dim": 2}, '"halfspaces"'),
    ({"dim": 2, "halfspaces": {"a": [1, 1], "b": 1}}, '"halfspaces"'),
    ({"dim": 2, "halfspaces": [[1, 1, 1]]}, "half-space 0"),
    ({"dim": 2, "halfspaces": [{"b": 1}]}, '"a" of half-space 0'),
    ({"dim": 2, "halfspaces": [{"a": [1, "1"], "b": 1}]}, '"a" of half-space 0'),
    ({"dim": 2, "halfspaces": [{"a": [1, False], "b": 1}]}, '"a" of half-space 0'),
    ({"dim": 2, "halfspaces": [{"a": [1, 1]}]}, '"b" of half-space 0'),
    ({"dim": 2, "halfspaces": [{"a": [1, 1], "b": None}]}, '"b" of half-space 0'),
    ({"dim": 2, "halfspaces": [{"a": [1, 1], "b": 10 ** 400}]}, "half-space 0"),
])
def test_toric_malformed_polytope_json_names_the_field(capsys, tmp_path, doc, field):
    poly = tmp_path / "bad.json"
    poly.write_text(json.dumps(doc))
    assert main(["toric", "--input", str(poly)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad polytope JSON: ") and field in err


@pytest.mark.parametrize("method", ["exact2d", "mc"])
def test_toric_negative_seed_is_usage_error(capsys, method):
    code = main(["toric", "--input", str(GOLDEN / "polygon.json"), "--method", method,
                 "--seed", "-1", "--bins", "4", "--samples", "100"])
    assert code == 2
    captured = capsys.readouterr()
    assert "seed must be a nonnegative integer" in captured.err
    assert captured.out == ""


def test_toric_unbounded_polytope(capsys, tmp_path):
    poly = tmp_path / "unbounded.json"
    poly.write_text(json.dumps({"dim": 2, "halfspaces": [{"a": [1.0, 0.0], "b": 1.0}]}))
    assert main(["toric", "--input", str(poly)]) == 1


def test_toric_unbounded_mc_slice_names_the_axis(capsys, tmp_path):
    # bounded along axes 0 and 1, so only the last axis can be named
    poly = tmp_path / "prism.json"
    poly.write_text(json.dumps({"dim": 3, "halfspaces": [
        {"a": [1, 0, 0], "b": 1}, {"a": [-1, 0, 0], "b": 0},
        {"a": [0, 1, 0], "b": 1}, {"a": [0, -1, 0], "b": 0}]}))
    assert main(["toric", "--input", str(poly), "--bins", "8", "--samples", "1000"]) == 1
    assert "unbounded along axis 2" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["a", "b"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_toric_nonfinite_polytope_json(capsys, tmp_path, field, value):
    halfspaces = [{"a": [-1, 0], "b": 0}, {"a": [0, -1], "b": 0}, {"a": [1, 1], "b": 1}]
    text = json.dumps({"dim": 2, "halfspaces": halfspaces})
    bad = '"b": 1}' if field == "b" else '"a": [1, 1]'
    poly = tmp_path / "nonfinite.json"
    poly.write_text(text.replace(bad, bad.replace("1", value, 1)))
    assert main(["toric", "--input", str(poly)]) == 2
    assert "bad polytope JSON: half-space 2 is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("dim, method", [(2, "exact2d"), (3, "mc")])
def test_toric_flat_polytope_fails(capsys, tmp_path, dim, method):
    # the projection onto axis 0 is the single point 0
    halfspaces = [{"a": [1 if i == 0 else 0 for i in range(dim)], "b": 0},
                  {"a": [-1 if i == 0 else 0 for i in range(dim)], "b": 0}]
    for ax in range(1, dim):
        halfspaces += [{"a": [1 if i == ax else 0 for i in range(dim)], "b": 1},
                       {"a": [-1 if i == ax else 0 for i in range(dim)], "b": 0}]
    poly = tmp_path / "flat.json"
    poly.write_text(json.dumps({"dim": dim, "halfspaces": halfspaces}))
    code = main(["toric", "--input", str(poly), "--axis", "0", "--method", method,
                 "--samples", "1000"])
    assert code == 1
    assert "axis 0" in capsys.readouterr().err


def test_toric_byte_identical_reruns(capsys, tmp_path):
    poly = tmp_path / "cube.json"
    poly.write_text(CUBE3_JSON)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["toric", "--input", str(poly), "--bins", "8", "--samples", "5000",
            "--seed", "13"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_no_command_imports_scipy():
    # the toric core is exact integer arithmetic, with numpy for profiles, so
    # no command, toric included, pays for loading scipy
    simplex3 = json.dumps({"dim": 3, "halfspaces": [
        {"a": [-1, 0, 0], "b": 0}, {"a": [0, -1, 0], "b": 0}, {"a": [0, 0, -1], "b": 0},
        {"a": [1, 1, 1], "b": 1}]})
    script = f"""
import contextlib, io, sys, tempfile
from pathlib import Path
import dhlab
from dhlab.cli import main
simplex3 = Path(tempfile.mkdtemp()) / "simplex3.json"
simplex3.write_text({simplex3!r})
for argv, want in ((["verify"], 0), (["logconcavity", "--analytic"], 3),
                  (["density", "--samples", "20000", "--bins", "8"], 0),
                  (["toric", "--input", str(simplex3), "--bins", "8", "--samples", "2000"], 0),
                  (["toric", "--input", {str(GOLDEN / "polygon.json")!r},
                    "--method", "exact2d"], 0)):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == want, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_no_result_errors_are_domain_errors():
    import dhlab

    for name in ("DegenerateWindowError", "EmptyMeasureError", "EmptyPolytopeError",
                 "InsufficientDataError", "UnboundedPolytopeError"):
        assert issubclass(getattr(dhlab, name), dhlab.DomainError), name
    assert issubclass(dhlab.DomainError, ValueError)


# one input per documented error: (argv, DH_LAB_THREADS, exit code, stderr start);
# {tmp} is a directory holding the files that _BAD_INPUT_FILES names
_POLYGON = str(GOLDEN / "polygon.json")
_NO_DIR = "{tmp}/no_such_dir/out"
_BAD_INPUTS = {
    "nonfinite window": (["verify", "--window", "0.5", "inf"], None, 2, "usage: dhlab"),
    "unparsable params": (["verify", "--params", "1/0", "3"], None, 2, "usage: dhlab"),
    "verify output": (["verify", "--output", _NO_DIR], None, 2, f"cannot write {_NO_DIR}: "),
    "density output": (["density", "--samples", "20000", "--bins", "8", "--output", _NO_DIR],
                       None, 2, f"cannot write {_NO_DIR}: "),
    "logconcavity output": (["logconcavity", "--analytic", "--output", _NO_DIR], None, 2,
                            f"cannot write {_NO_DIR}: "),
    "toric output": (["toric", "--input", _POLYGON, "--output", _NO_DIR], None, 2,
                     f"cannot write {_NO_DIR}: "),
    "missing samples": (["logconcavity", "--input", "{tmp}/missing.csv"], None, 2,
                        "cannot read {tmp}/missing.csv: "),
    "undecodable samples": (["logconcavity", "--input", "{tmp}/latin1.csv"], None, 2,
                            "bad samples file: 'utf-8' codec can't decode"),
    "malformed samples": (["logconcavity", "--input", "{tmp}/short.csv"], None, 2,
                          "bad samples file: line 2: expected 's,f' columns"),
    "two samples": (["logconcavity", "--input", "{tmp}/two.csv"], None, 2,
                    "bad samples file: need at least 3 samples, got 2"),
    "off-grid samples": (["logconcavity", "--input", "{tmp}/offgrid.csv"], None, 2,
                         "bad samples file: samples must sit on an ascending uniform grid"),
    "malformed polytope": (["toric", "--input", "{tmp}/bad.json"], None, 2,
                           "bad polytope JSON: "),
    "nonfinite polytope": (["toric", "--input", "{tmp}/nan.json"], None, 2,
                           "bad polytope JSON: half-space 0 is not finite"),
    "unbounded polytope": (["toric", "--input", "{tmp}/slab.json"], None, 1,
                           "error: polytope is unbounded along axis 1"),
    "flat polytope": (["toric", "--input", "{tmp}/flat.json"], None, 1,
                      "error: polytope is flat along axis 0"),
    "zero threads": (["density", "--samples", "20000", "--bins", "8"], "0", 2,
                     "bad sampling configuration: DH_LAB_THREADS must be a positive "
                     "integer, not '0'"),
    "negative density seed": (["density", "--seed", "-1"], None, 2,
                              "bad sampling configuration: seed must be a nonnegative"),
    "negative toric seed": (["toric", "--input", _POLYGON, "--seed", "-1"], None, 2,
                            "usage error: seed must be a nonnegative"),
    "zero toric samples": (["toric", "--input", "{tmp}/flat.json", "--samples", "0"], None, 2,
                           "usage error: sample count must be positive"),
    "negative toric samples": (["toric", "--input", _POLYGON, "--samples", "-3"], None, 2,
                               "usage error: sample count must be positive"),
    "overflowing slice box": (["toric", "--input", "{tmp}/huge.json", "--bins", "8",
                               "--samples", "1000"], None, 1, "error: the slice at s=0.0625 "),
    "underflowing slice box": (["toric", "--input", "{tmp}/tiny.json", "--bins", "8",
                                "--samples", "1000"], None, 1, "error: the slice at s=0.0625 "),
    "overflowing chord": (["toric", "--input", "{tmp}/wide.json", "--axis", "1", "--bins", "8"],
                          None, 1, "error: the slice at s=0.0625 "),
    "overflowing range": (["toric", "--input", "{tmp}/wide.json", "--bins", "8"], None, 1,
                          "error: polytope's projection along axis 0 is wider than the float"),
    "far polygon vertex": (["toric", "--input", "{tmp}/far2.json", "--axis", "0"], None, 1,
                           "error: polytope's projection along axis 0 is wider than the float"),
    "far polytope vertex": (["toric", "--input", "{tmp}/far3.json", "--axis", "1", "--bins", "4",
                             "--samples", "1000"], None, 1,
                            "error: a vertex lies beyond the float range along axis 0"),
    "overflowing coefficients": (["density", "--samples", "1000", "--bins", "10",
                                  "--params", "1e200", "1e200"], None, 1,
                                 "error: Liouville weight inf at t="),
    "overflowing squares": (["density", "--samples", "1000", "--bins", "10",
                             "--params", "1e150", "1e150"], None, 1,
                            "error: Liouville weight 6e+300 at t="),
    "overflowing merged sums": (["density", "--params", "4e75", "4e75"], None, 1,
                                "error: Liouville weight 9.6e+151 at t="),
    "overflowing window": (["density", "--samples", "1000", "--bins", "10",
                            "--window", "1e300", "1.7e308"], None, 1,
                           "error: Liouville weight nan at t="),
    "subnormal window": (["density", "--samples", "1000", "--bins", "2",
                          "--window", "5e-324", "1.5e-323"], None, 1,
                         "error: window [5e-324, 1.5e-323] is too narrow for 2 float bins"),
    "flat window beyond the float centres": (["density", "--flat", "--samples", "1000", "--bins",
                                              "10", "--window", "1e300", "1.7e308"], None, 1,
                                             "error: window [1e+300, 1.7e+308] is too wide "),
    "flat window beyond the float scale": (["density", "--flat", "--samples", "1000", "--bins",
                                            "10", "--window", "1", "1e307"], None, 1,
                                           "error: window [1.0, 1e+307] is too wide "),
}
_BAD_INPUT_FILES = {
    "latin1.csv": "s,f\n0,1\n1,\xe9\n".encode("latin-1"),
    "short.csv": b"0,1\n1\n2,1\n",
    "two.csv": b"s,f\n0,1\n1,1\n",
    "offgrid.csv": b"0,1\n1e-12,1\n6e-10,1\n9e-10,5\n9.5e-10,1\n",
    "bad.json": b"{not json",
    "nan.json": b'{"dim": 1, "halfspaces": [{"a": [NaN], "b": 1}]}',
    "slab.json": b'{"dim": 2, "halfspaces": [{"a": [1, 0], "b": 1}, {"a": [-1, 0], "b": 0}]}',
    "flat.json": b'{"dim": 2, "halfspaces": [{"a": [1, 0], "b": 0}, {"a": [-1, 0], "b": 0},'
                 b' {"a": [0, 1], "b": 1}, {"a": [0, -1], "b": 0}]}',
    # [0, 1] x [0, 1e200]^2 and [0, 1] x [0, 1e-200]^2: slice areas beyond the float range
    "huge.json": b'{"dim": 3, "halfspaces": [{"a": [1, 0, 0], "b": 1}, {"a": [-1, 0, 0], "b": 0},'
                 b' {"a": [0, 1, 0], "b": 1e200}, {"a": [0, -1, 0], "b": 0},'
                 b' {"a": [0, 0, 1], "b": 1e200}, {"a": [0, 0, -1], "b": 0}]}',
    "tiny.json": b'{"dim": 3, "halfspaces": [{"a": [1, 0, 0], "b": 1}, {"a": [-1, 0, 0], "b": 0},'
                 b' {"a": [0, 1, 0], "b": 1e-200}, {"a": [0, -1, 0], "b": 0},'
                 b' {"a": [0, 0, 1], "b": 1e-200}, {"a": [0, 0, -1], "b": 0}]}',
    # [-1e308, 1e308] x [0, 1]: its width along axis 0 is beyond the float range
    "wide.json": b'{"dim": 2, "halfspaces": [{"a": [1, 0], "b": 1e308}, {"a": [-1, 0], "b": 1e308},'
                 b' {"a": [0, 1], "b": 1}, {"a": [0, -1], "b": 0}]}',
    # x <= 1e600 in [0, oo) x [0, 1] and [0, oo) x [0, 1]^2: a vertex beyond the float range
    "far2.json": b'{"dim": 2, "halfspaces": [{"a": [1e-300, 0], "b": 1e300}, {"a": [-1, 0], "b": 0},'
                 b' {"a": [0, 1], "b": 1}, {"a": [0, -1], "b": 0}]}',
    "far3.json": b'{"dim": 3, "halfspaces": [{"a": [1e-300, 0, 0], "b": 1e300},'
                 b' {"a": [-1, 0, 0], "b": 0}, {"a": [0, 1, 0], "b": 1}, {"a": [0, -1, 0], "b": 0},'
                 b' {"a": [0, 0, 1], "b": 1}, {"a": [0, 0, -1], "b": 0}]}',
}


@pytest.mark.parametrize("case", _BAD_INPUTS)
def test_documented_bad_input_exits_without_traceback(tmp_path, case):
    argv, threads, code, err = _BAD_INPUTS[case]
    for name, data in _BAD_INPUT_FILES.items():
        (tmp_path / name).write_bytes(data)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("DH_LAB_THREADS", None)
    if threads is not None:
        env["DH_LAB_THREADS"] = threads
    done = subprocess.run([sys.executable, "-m", "dhlab.cli",
                           *(a.format(tmp=tmp_path) for a in argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(err.format(tmp=tmp_path)), done.stderr


@pytest.mark.parametrize("argv, work", [
    (["density"], "dhlab.measure.sample_pushforward"),
    (["toric", "--input", _POLYGON], "dhlab.toric.slice_profile"),
])
def test_output_is_checked_before_the_work(capsys, monkeypatch, tmp_path, argv, work):
    def fail(*args, **kwargs):
        raise AssertionError(f"{work} ran before --output was checked")

    monkeypatch.setattr(work, fail)
    out = tmp_path / "no_such_dir" / "out.csv"
    assert main([*argv, "--output", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"cannot write {out}: [Errno 2] No such file or directory: '{out}'\n"
    # the check truncates nothing: a run that then fails keeps an existing
    # file as it was, and leaves a new path empty
    monkeypatch.undo()
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_text("keep\n")
    for path in (kept, new):
        assert main([*argv, "--seed", "-1", "--output", str(path)]) == 2
    assert kept.read_text() == "keep\n" and new.read_text() == ""


# the options each subcommand's handler reads (through the helpers it passes
# args to), with their defaults
_HANDLER_OPTIONS = {
    "verify": {"window": [0.5, 4.5], "params": ["2", "3"], "output": None},
    "density": {"window": [0.5, 4.5], "params": ["2", "3"], "seed": 42, "output": None,
                "samples": 2_000_000, "bins": 40, "flat": False},
    "logconcavity": {"window": [0.5, 4.5], "params": ["2", "3"], "output": None,
                     "analytic": False, "input": None},
    "toric": {"seed": 42, "output": None, "input": None, "axis": 0, "bins": 40,
              "method": None, "samples": 100_000},
}


def _args_read(tree: ast.Module, name: str) -> set:
    """The ``args.X`` names a cli function reads, itself or through a
    module function it passes ``args`` to."""
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    read = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions
              and any(getattr(a, "id", None) == "args" for a in node.args)):
            read |= _args_read(tree, node.func.id)
    return read


@pytest.mark.parametrize("command", _HANDLER_OPTIONS)
def test_each_subcommand_has_the_options_its_handler_reads(command):
    subparsers = dhlab.cli._build_parser()._subparsers._group_actions[0].choices
    sub = subparsers[command]
    options = _HANDLER_OPTIONS[command]
    listed = {m.group(1).replace("-", "_") for m in
              re.finditer(r"^  (?:-h, )?--([a-z-]+)", sub.format_help(), re.MULTILINE)}
    assert listed == {"help", *options}
    handler = sub.get_default("run")
    assert _args_read(ast.parse(inspect.getsource(dhlab.cli)), handler.__name__) == set(options)
    assert {dest: sub.get_default(dest) for dest in options} == options


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "5"],
    ["logconcavity", "--analytic", "--seed", "5"],
    ["toric", "--input", _POLYGON, "--window", "1", "2"],
    ["toric", "--input", _POLYGON, "--params", "1", "3"],
])
def test_options_a_handler_does_not_read_are_unrecognized(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "dhlab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert "unrecognized arguments" in done.stderr
    assert "Traceback" not in done.stderr


def test_unrecognized_option_shows_the_subcommand_usage():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "dhlab.cli", "toric", "--input", _POLYGON,
                           "--window", "1", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("usage: dhlab toric ")
    assert "--input INPUT" in done.stderr
    assert done.stderr.endswith("dhlab toric: error: unrecognized arguments: --window 1 2\n")
    assert "Traceback" not in done.stderr


def test_only_the_cli_reads_the_environment():
    src = Path(dhlab.cli.__file__).parent
    readers = []
    for path in sorted(src.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    and getattr(node.value, "id", None) == "os"):
                readers.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                readers += [f"{path.name}:{node.lineno}" for a in node.names
                            if a.name in ("environ", "getenv")]
    assert readers == []


def test_no_module_imports_a_private_name_of_another():
    # an underscore name is private to its module: neither imported from
    # another dhlab module nor read off one imported whole
    src = Path(dhlab.cli.__file__).parent
    private = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "dhlab"
                                                     or node.module.startswith("dhlab.")):
                if node.module is None:  # from . import module
                    modules |= {a.asname or a.name for a in node.names}
                private += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                            if a.name.startswith("_")]
        private += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                    for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and getattr(node.value, "id", None) in modules and node.attr.startswith("_")]
    assert private == []


def test_certify_commands_run_without_numpy(tmp_path):
    # a None entry in sys.modules makes every "import numpy" raise
    samples = tmp_path / "samples.csv"
    samples.write_text("0,1\n1,2\n2,1\n")
    script = f"""
import contextlib, io, sys
sys.modules["numpy"] = None
import dhlab
from dhlab.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["verify"]) == 0
verify_stdout = out.getvalue()
for argv, want in ((["logconcavity", "--analytic"], 3),
                  (["logconcavity", "--input", {str(samples)!r}], 0)):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == want, argv
sys.stdout.write(verify_stdout)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.encode() == (GOLDEN / "verify.stdout").read_bytes()


def test_toric_front_runs_without_numpy(tmp_path):
    # the polytope, its exact vertices and range, and every input error of
    # dhlab toric come before the first array, so none of them loads numpy
    for name, data in _BAD_INPUT_FILES.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "empty.json").write_text(json.dumps(
        {"dim": 1, "halfspaces": [{"a": [1], "b": 0}, {"a": [-1], "b": -1}]}))
    simplex3 = str(GOLDEN / "simplex3.json")
    cases = [
        (["--input", f"{tmp_path}/bad.json"], 2, "bad polytope JSON: Expecting property name "
         "enclosed in double quotes: line 1 column 2 (char 1)"),
        (["--input", f"{tmp_path}/empty.json"], 1, "error: half-space system is infeasible"),
        (["--input", f"{tmp_path}/slab.json", "--axis", "1"], 1,
         "error: polytope is unbounded along axis 1"),
        (["--input", f"{tmp_path}/slab.json"], 1, "error: polytope is unbounded along axis 1"),
        (["--input", f"{tmp_path}/flat.json"], 1,
         "error: polytope is flat along axis 0: it projects to 0.0"),
        (["--input", simplex3, "--axis", "5"], 2, "usage error: axis 5 out of range for dim 3"),
        (["--input", simplex3, "--bins", "0"], 2, "usage error: bins must be positive"),
        (["--input", simplex3, "--samples", "0"], 2,
         "usage error: sample count must be positive"),
    ]
    script = f"""
import contextlib, io, json, sys
sys.modules["numpy"] = None
import dhlab.toric
from dhlab import HPolytope, projection_range
from dhlab.cli import main
p = HPolytope.from_json(open({simplex3!r}).read())
vertices, directions = p._vrep
print(json.dumps([len(vertices), len(directions), projection_range(p, 2)]))
for argv in {[argv for argv, _, _ in cases]!r}:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["toric", *argv])
    print(json.dumps([code, err.getvalue()]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    front, *exits = map(json.loads, done.stdout.splitlines())
    assert front == [4, 0, [0.0, 1.0]]
    assert exits == [[code, message + "\n"] for _, code, message in cases]


def test_lazy_package_names():
    import dhlab
    import dhlab.toric

    # __all__ is exactly the eager exports and the lazy table: a name
    # dropped from one but left in the other fails here
    eager = {name for name, value in vars(dhlab).items() if getattr(value, "__module__", None)
             in ("dhlab.construction", "dhlab.exterior", "dhlab.logconcavity")}
    assert set(dhlab.__all__) == eager | set(dhlab._LAZY)
    for name in dhlab.__all__:
        assert getattr(dhlab, name) is not None, name
    namespace: dict = {}
    exec("from dhlab import *", namespace)
    assert set(dhlab.__all__) <= set(namespace)
    assert set(dhlab.__all__) <= set(dir(dhlab))
    assert dhlab.HPolytope is dhlab.toric.HPolytope
    with pytest.raises(AttributeError, match="no_such_name"):
        dhlab.no_such_name


# ---------------------------------------------------------------------------
# pinned output bytes
# ---------------------------------------------------------------------------

def test_default_outputs_byte_identical(capsys, tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify", "--output", str(report)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "verify.stdout").read_bytes()
    assert report.read_bytes() == (GOLDEN / "verify.json").read_bytes()

    assert main(["toric", "--input", str(GOLDEN / "polygon.json"),
                 "--method", "exact2d"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "toric.stdout").read_bytes()

    # 20000 samples at seed 42 pass the 3% gate (1.94% in bin 1); the run
    # at seed 160 of test_density_byte_identical_reruns pins a miss
    assert main(["density", "--samples", "20000", "--bins", "8"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "density.stdout").read_bytes()

    # 200000 samples span 4 chunks, so the chunk merge is pinned too
    assert main(["density", "--samples", "200000", "--bins", "8"]) == 0
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / "density_chunks.stdout").read_bytes()

    assert main(["logconcavity", "--analytic"]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == \
        "log-concave: NO; violations on (1.633974596, 3.366025404)"

    # the discrete route on a grid whose witness surplus f(s-h) f(s+h) - f(s)*f(s)
    # differs in its last bit from the one computed with libm's f(s)**2
    assert main(["logconcavity", "--input", str(GOLDEN / "karshon_grid.csv")]) == 3
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / "logconcavity_input.stdout").read_bytes()


def test_toric_mc_output_byte_identical(capsys):
    # the hit-or-miss path: each bin's 5000 samples span a full block and a part
    assert main(["toric", "--input", str(GOLDEN / "simplex3.json"), "--bins", "12",
                 "--samples", "5000", "--seed", "5"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "toric_mc.stdout").read_bytes()
