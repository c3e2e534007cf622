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
from dhlab import SliceVolumeFn, prekopa_check, suggested_tolerance
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


@pytest.mark.parametrize("command", [["verify"], ["logconcavity", "--analytic"],
                                     ["density", "--samples", "1000", "--bins", "10"]])
def test_double_root_of_top_power_fails_nondegeneracy(capsys, command):
    # the top power 6 (t - 2)^2 vanishes at t = 2 without changing sign
    code = main(command + ["--window", "0.5", "4.4", "--params", "1", "3"])
    assert code == 1
    out, err = capsys.readouterr()
    assert "verification failed: nondegeneracy on [0.5, 4.4]\n" in err
    assert "bin_center" not in out  # density stops before its CSV


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


@pytest.mark.parametrize("lo, hi, bins, message", [
    # bin centres that do not ascend
    ("1", "1.0000000000000004", "8", "too narrow for 8 float bins: [1.0, 1.0000000000000004]"),
    ("5e-324", "1.5e-323", "2", "too narrow for 2 float bins: [5e-324, 1.5e-323]"),
    # ascending centres, but 40 / (hi - lo) overflows
    ("1e-310", "3e-310", "40", "too narrow for 40 float bins: [1e-310, 3e-310]"),
    # a finite width, but bin centres past 1.7e308
    ("1e300", "1.7e308", "10", "wider than the float range: [1e+300, 1.7e+308]"),
])
def test_density_refuses_a_window_it_cannot_bin_before_sampling(capsys, monkeypatch, lo, hi,
                                                                bins, message):
    def fail(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr("dhlab.measure._chunk_points", fail)
    assert main(["density", "--window", lo, hi, "--bins", bins]) == 1
    assert capsys.readouterr() == ("", f"error: window is {message}\n")


def test_density_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["density", "--samples", "100000", "--bins", "10", "--seed", "160"]
    # this run misses the 3% gate: bin 5 lies 3.4 standard errors (3.22%)
    # below its exact bin average, and the message names it; the CSV is
    # written all the same
    assert main(argv + ["--output", str(a)]) == 1
    assert "max relative error 0.0322 (worst bin 5 at t=2.7)" in capsys.readouterr().out
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


def _refuse_constant(name):
    raise ValueError(f"{name} is no JSON number")


@pytest.mark.parametrize("text, code", [
    ("0,2e-200\n1,1e-200\n2,2e-200\n", 3),  # float products underflow to 0 and hide the dip
    ("0,1e300\n1,1\n2,1e300\n", 3),  # a float surplus overflows to inf
    ("0,1e-200\n1,1e-200\n2,1e-200\n", 0),  # flat, with float products below the range
])
def test_logconcavity_verdict_at_any_float_scale(capsys, tmp_path, text, code):
    path = tmp_path / "scaled.csv"
    path.write_text(text)
    assert main(["logconcavity", "--input", str(path)]) == code
    payload, verdict = capsys.readouterr().out.rstrip("\n").rsplit("\n", 1)
    report = json.loads(payload, parse_constant=_refuse_constant)  # strict JSON
    assert report["log_concave"] == (code == 0)
    assert verdict.startswith("log-concave: yes" if code == 0 else "log-concave: NO")
    assert len(report["witnesses"]) == len(report["intervals"]) == (code == 3)
    assert all(math.isfinite(g) and g > 0 for _, g in report["witnesses"])


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


def test_toric_thin_box_is_log_concave(capsys, tmp_path):
    # [0, 1] x [0, 1e-200]: every chord is 1e-200, whose float products underflow
    poly = tmp_path / "thin.json"
    poly.write_text(json.dumps({"dim": 2, "halfspaces": [
        {"a": [1, 0], "b": 1}, {"a": [-1, 0], "b": 0},
        {"a": [0, 1], "b": 1e-200}, {"a": [0, -1], "b": 0}]}))
    assert main(["toric", "--input", str(poly)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "slice profile is log-concave"


def test_toric_thin_box_mc_bins_are_its_slices(capsys, tmp_path):
    # [0, 1] x [0, 1e-150]^2: each slice is a square of area 1e-300 that fills
    # its bounding box, so no pad of 64 ulps of 1 (about 1.4e-14) swamps it
    poly = tmp_path / "thin.json"
    poly.write_text(json.dumps({"dim": 3, "halfspaces": [
        {"a": [1, 0, 0], "b": 1}, {"a": [-1, 0, 0], "b": 0},
        {"a": [0, 1, 0], "b": 1e-150}, {"a": [0, -1, 0], "b": 0},
        {"a": [0, 0, 1], "b": 1e-150}, {"a": [0, 0, -1], "b": 0}]}))
    assert main(["toric", "--input", str(poly), "--bins", "8", "--samples", "1000"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "slice profile is log-concave"
    rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[3:-1]]
    assert [(volume, stderr) for _, volume, stderr in rows] == [(1e-300, 0.0)] * 8

    # ROADMAP item 19: a thin simplex's slices are cut by a half-space, so they
    # are still sampled in boxes padded by about 1.4e-14, and no point hits a
    # slice of area below 5e-301; this run pins that miss
    poly.write_text(json.dumps({"dim": 3, "halfspaces": [
        {"a": [-1, 0, 0], "b": 0}, {"a": [0, -1, 0], "b": 0}, {"a": [0, 0, -1], "b": 0},
        {"a": [1, 1e150, 1e150], "b": 1}]}))
    assert main(["toric", "--input", str(poly), "--bins", "8", "--samples", "1000"]) == 1
    assert capsys.readouterr() == ("", "error: only 0 positive bins; need at least 3\n")


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


@pytest.mark.parametrize("volumes, verdict", [
    ([0.0, 1.0, 0.5, 1.0], "NOT log-concave (1 empty end bins trimmed): ((0.625, 0.625),)"),
    ([1.0, 0.5, 1.0, 0.9], "NOT log-concave: ((0.375, 0.375),)"),
])
def test_toric_log_convex_profile_exits_3(capsys, monkeypatch, volumes, verdict):
    # no convex body has such a profile, so slice_profile is replaced
    def profile(*args, **kwargs):
        return SliceVolumeFn("exact2d", np.array([0.125, 0.375, 0.625, 0.875]),
                             np.array(volumes), np.zeros(4))

    monkeypatch.setattr("dhlab.toric.slice_profile", profile)
    assert main(["toric", "--input", str(GOLDEN / "polygon.json")]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == f"slice profile is {verdict}"


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
    # bins a few ulps wide: their centres do not ascend strictly in floats
    "subnormal projection": (["toric", "--input", "{tmp}/subnormal.json", "--bins", "8"], None, 1,
                             "error: polytope's projection along axis 0 is too narrow for 8 "
                             "float bins: [0.0, 5e-324]"),
    "projection of 3 ulps": (["toric", "--input", "{tmp}/ulps.json", "--bins", "8"], None, 1,
                             "error: polytope's projection along axis 0 is too narrow for 8 "
                             "float bins: "),
    # a finite width, but bin centres past 1.7e308 from 2 bins on
    **{f"overflowing centres, {method} at {bins or 'default'} bins": (
        ["toric", "--input", "{tmp}/overflow.json", "--method", method, "--samples", "1000",
         *(["--bins", bins] if bins else [])], None, 1,
        "error: polytope's projection along axis 0 is wider than the float range: "
        "[1e+300, 1.7e+308]\n") for method in ("exact2d", "mc") for bins in ("2", None)},
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
    # t^2 overflows on the window, whose float bins are sound
    "overflowing weights of t": (["density", "--samples", "1000", "--bins", "10",
                                  "--window", "1e160", "1e200"], None, 1,
                                 "error: Liouville weight inf at t="),
    "overflowing window": (["density", "--samples", "1000", "--bins", "10",
                            "--window", "1e300", "1.7e308"], None, 1,
                           "error: window is wider than the float range: [1e+300, 1.7e+308]\n"),
    "subnormal window": (["density", "--samples", "1000", "--bins", "2",
                          "--window", "5e-324", "1.5e-323"], None, 1,
                         "error: window is too narrow for 2 float bins: [5e-324, 1.5e-323]\n"),
    "flat window beyond the float centres": (["density", "--flat", "--samples", "1000", "--bins",
                                              "10", "--window", "1e300", "1.7e308"], None, 1,
                                             "error: window is wider than the float range: "
                                             "[1e+300, 1.7e+308]\n"),
    # bins 1 ulp wide: 3 distinct centres for 8 bins
    "window of 2 ulps": (["density", "--window", "1", "1.0000000000000004", "--samples", "1000",
                          "--bins", "8"], None, 1,
                         "error: window is too narrow for 8 float bins: [1.0, 1.0000000000000004]\n"),
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
    # [0, 5e-324] x [0, 1] and [2**60, 2**60 + 768] x [0, 1]
    "subnormal.json": b'{"dim": 2, "halfspaces": [{"a": [1, 0], "b": 5e-324}, {"a": [-1, 0], "b": 0},'
                      b' {"a": [0, 1], "b": 1}, {"a": [0, -1], "b": 0}]}',
    "ulps.json": b'{"dim": 2, "halfspaces": [{"a": [1, 0], "b": 1152921504606847744},'
                 b' {"a": [-1, 0], "b": -1152921504606846976},'
                 b' {"a": [0, 1], "b": 1}, {"a": [0, -1], "b": 0}]}',
    # [1e300, 1.7e308] x [0, 1]
    "overflow.json": b'{"dim": 2, "halfspaces": [{"a": [1, 0], "b": 1.7e308},'
                     b' {"a": [-1, 0], "b": -1e300}, {"a": [0, 1], "b": 1}, {"a": [0, -1], "b": 0}]}',
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
    # the polytope, its exact vertices and range, its float bins, and every
    # input error of dhlab toric come before the first array, so none of them
    # loads numpy; nor does the verdict on a profile held in tuples, nor a
    # whole exact2d run, whose output is the golden's byte for byte
    for name, data in _BAD_INPUT_FILES.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "empty.json").write_text(json.dumps(
        {"dim": 1, "halfspaces": [{"a": [1], "b": 0}, {"a": [-1], "b": -1}]}))
    simplex3, polygon = str(GOLDEN / "simplex3.json"), str(GOLDEN / "polygon.json")
    # grid, volumes and stderrs: an empty end bin and a violation at 0.625
    profile = ((0.125, 0.375, 0.625, 0.875), (0.0, 1.0, 0.5, 1.0), (0.0, 0.01, 0.02, 0.01))
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
        (["--input", f"{tmp_path}/overflow.json"], 1, "error: polytope's projection along axis 0 "
         "is wider than the float range: [1e+300, 1.7e+308]"),
        (["--input", f"{tmp_path}/ulps.json", "--bins", "8"], 1, "error: polytope's projection "
         "along axis 0 is too narrow for 8 float bins: [1.152921504606847e+18, "
         "1.1529215046068477e+18]"),
    ]
    script = f"""
import contextlib, io, json, sys
sys.modules["numpy"] = None
import dhlab.toric
from dhlab import HPolytope, SliceVolumeFn, prekopa_check, projection_range, suggested_tolerance
from dhlab.cli import main
p = HPolytope.from_json_dict(json.loads(open({simplex3!r}).read()))
vertices, directions, _ = p._vrep
print(json.dumps([len(vertices), len(directions), projection_range(p, 2)]))
f = SliceVolumeFn("mc", *{profile!r})
tol = suggested_tolerance(f)
print(json.dumps([tol, prekopa_check(f, tol).to_json_dict()]))
for argv in {[argv for argv, _, _ in cases]!r}:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["toric", *argv])
    print(json.dumps([code, err.getvalue()]))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["toric", "--input", {polygon!r}])
print(json.dumps([code, out.getvalue()]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    front, verdict, *exits, (polygon_code, polygon_out) = map(json.loads, done.stdout.splitlines())
    assert front == [4, 0, [0.0, 1.0]]
    arrays = SliceVolumeFn("mc", *map(np.array, profile))
    tol = suggested_tolerance(arrays)
    assert verdict == [tol, prekopa_check(arrays, tol).to_json_dict()]
    assert exits == [[code, message + "\n"] for _, code, message in cases]
    assert polygon_code == 0 and polygon_out.encode() == (GOLDEN / "toric.stdout").read_bytes()


def test_lazy_package_names():
    import dhlab
    import dhlab.toric

    assert set(dhlab.__all__) == set(dhlab._LAZY)
    for name in dhlab.__all__:
        assert getattr(dhlab, name) is not None, name
    namespace: dict = {}
    exec("from dhlab import *", namespace)
    assert set(dhlab.__all__) <= set(namespace)
    assert set(dhlab.__all__) <= set(dir(dhlab))
    assert dhlab.HPolytope is dhlab.toric.HPolytope
    with pytest.raises(AttributeError, match="no_such_name"):
        dhlab.no_such_name


@pytest.mark.parametrize("statement, check", [
    ("import dhlab", "assert loaded == {'dhlab'}, loaded"),
    ("import dhlab.toric",
     "assert 'dhlab.construction' not in loaded and 'numpy' not in sys.modules, loaded"),
    ("from dhlab import Poly", "assert loaded == {'dhlab', 'dhlab.exterior', 'dhlab.intpoly'}, "
     "loaded"),
    ("from dhlab import *", "assert all(name in globals() for name in dhlab.__all__)\n"
     "assert len(dhlab.__all__) == 49"),
    ("from dhlab.cli import main\n"
     f"assert main(['toric', '--input', {str(GOLDEN / 'polygon.json')!r}]) == 0",
     "assert 'dhlab.construction' not in loaded, loaded"),
], ids=["package", "toric", "Poly", "star", "toric command"])
def test_import_loads_only_what_it_names(statement, check):
    # each public name loads its submodule on first access, so an import
    # pays for no dhlab module it does not name
    script = f"""
import sys
{statement}
import dhlab
loaded = {{m for m in sys.modules if m.split(".")[0] == "dhlab"}}
{check}
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_library_example_runs():
    # the README's library example, run as a user would paste it: it passes
    # its own assert and prints a max relative error well inside the 3% gate
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    script, = re.findall(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert 0 <= float(done.stdout) < 0.03


def test_readme_polytope_example_runs(tmp_path, capsys):
    # the README's polytope input format is a document that dhlab toric takes
    from dhlab import HPolytope

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text, = re.findall(r"Polytope input format:\n\n```json\n(.*?)```", readme, re.S)
    assert HPolytope.from_json_dict(json.loads(text)).dim == 2
    (tmp_path / "polytope.json").write_text(text)
    assert main(["toric", "--input", str(tmp_path / "polytope.json")]) == 0
    assert capsys.readouterr().out.endswith("\nslice profile is log-concave\n")


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

    # the discrete route on a grid whose witness, the exact r - 1 rounded once,
    # differs in its last bits from every float route to it
    assert main(["logconcavity", "--input", str(GOLDEN / "karshon_grid.csv")]) == 3
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / "logconcavity_input.stdout").read_bytes()


def test_toric_mc_output_byte_identical(capsys):
    # the hit-or-miss path: the 5000 points that all 12 bins test span ten full
    # blocks and a part
    assert main(["toric", "--input", str(GOLDEN / "simplex3.json"), "--bins", "12",
                 "--samples", "5000", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / "toric_mc.stdout").read_bytes()
    # and the golden is right: the slice of the 3-simplex at x = s has area
    # (1-s)^2/2, and every bin lies within 4 standard errors of it
    rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[3:-1]]
    assert len(rows) == 12
    for s, volume, stderr in rows:
        assert stderr > 0 and abs(volume - (1 - s) ** 2 / 2) <= 4 * stderr, (s, volume, stderr)
