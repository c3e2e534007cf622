"""End-to-end CLI behavior: exit codes, file formats, reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dhlab.cli import main

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
    from dhlab import CutWindow, Form, canonical_chart

    omega = Form.from_json(canonical_chart(CutWindow(0.5, 4.5)), report["omega"])
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


@pytest.mark.parametrize("threads", ["two", "1.5"])
def test_density_non_integer_threads_is_usage_error(capsys, monkeypatch, threads):
    monkeypatch.setenv("DH_LAB_THREADS", threads)
    assert main(["density", "--samples", "20000", "--bins", "8"]) == 2
    err = capsys.readouterr().err
    assert "DH_LAB_THREADS" in err and repr(threads) in err


def test_density_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["density", "--samples", "100000", "--bins", "10", "--seed", "11"]
    # this run misses the 3% gate: bin 3 lies 3.2 standard errors (3.04%)
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
    assert "log-concave: NO" in capsys.readouterr().out


def test_logconcavity_finds_close_root_pair(capsys, tmp_path):
    # (log f)'' > 0 only on an interval of width 6.3e-5 around t = 2
    out = tmp_path / "report.json"
    code = main(["logconcavity", "--analytic", "--params", "1", "2.999999999",
                 "--output", str(out)])
    assert code == 3
    (lo, hi), = json.loads(out.read_text())["intervals"]
    assert lo == pytest.approx(1.9999683767234023, abs=1e-9)
    assert hi == pytest.approx(2.0000316222765977, abs=1e-9)


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
    # the toric core is exact integer arithmetic on numpy, so no command,
    # toric included, pays for loading scipy
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
                  (["density", "--samples", "20000", "--bins", "8"], 1),
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

    # 20000 samples miss the 3% gate (exit 1) but still print the full CSV
    assert main(["density", "--samples", "20000", "--bins", "8"]) == 1
    assert capsys.readouterr().out.encode() == (GOLDEN / "density.stdout").read_bytes()

    # 200000 samples span 4 chunks, so the chunk merge is pinned too
    assert main(["density", "--samples", "200000", "--bins", "8"]) == 0
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / "density_chunks.stdout").read_bytes()

    assert main(["logconcavity", "--analytic"]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == \
        "log-concave: NO; violations on (1.633974596, 3.366025404)"
