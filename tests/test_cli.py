"""End-to-end tests of the command-line harness: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from atlab import cli, fourier


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_measure_lebesgue_stdout(capsys):
    code, out, _ = run(["measure", "lebesgue", "--N", "8"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["half_width"] == 8
    nonzero = [row for row in obj["coeffs"] if row[1] != 0.0 or row[2] != 0.0]
    assert nonzero == [[0, 1.0, 0.0]]


def test_measure_riesz_matches_library(capsys):
    code, out, _ = run(["measure", "riesz", "--a", "1,1", "--freq", "1,3",
                        "--N", "8"], capsys)
    assert code == 0
    obj = json.loads(out)
    t = fourier.riesz_product([1.0, 1.0], [1, 3], 8)
    for n, re, im in obj["coeffs"]:
        assert re == pytest.approx(t.at(n).real, abs=1e-15)
        assert im == 0.0


def test_measure_to_file_and_density_csv(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    dfile = tmp_path / "d.csv"
    code, out, _ = run(["measure", "riesz", "--a", "0.8", "--freq", "2",
                        "--N", "6", "--out", str(mfile),
                        "--density-csv", str(dfile)], capsys)
    assert code == 0
    t = fourier.read_measure(mfile)
    assert t.at(2).real == pytest.approx(0.4, abs=1e-15)
    lines = dfile.read_text().splitlines()
    assert lines[0] == "theta,density"
    assert len(lines) > 100


def test_measure_arcsine_pipeline(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    run(["measure", "lebesgue", "--N", "4", "--out", str(mfile)], capsys)
    code, out, _ = run(["measure", "arcsine4", "--in", str(mfile)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["coeffs"][0] == [0, 1.0, 0.0]
    assert all(row[1] == 0.0 for row in obj["coeffs"][1:])


def test_measure_invalid_parameters_exit_2(capsys):
    code, _, err = run(["measure", "riesz", "--a", "0.5,0.5",
                        "--freq", "2,5", "--N", "8"], capsys)
    assert code == 2
    assert "error" in err


def test_measure_missing_input_exit_2(capsys):
    code, _, err = run(["measure", "arcsine", "--in", "/nonexistent.json"], capsys)
    assert code == 2


def test_certify_lebesgue_exit_0(tmp_path, capsys):
    mfile = tmp_path / "leb.json"
    run(["measure", "lebesgue", "--N", "8", "--out", str(mfile)], capsys)
    code, out, _ = run(["certify", "--in", str(mfile)], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "CERTIFIED_SBH"


def test_certify_dirac_exit_3(tmp_path, capsys):
    mfile = tmp_path / "dirac.json"
    run(["measure", "dirac", "--N", "8", "--out", str(mfile)], capsys)
    code, out, _ = run(["certify", "--in", str(mfile)], capsys)
    assert code == 3
    obj = json.loads(out)
    assert obj["verdict"] == "CERTIFIED_NOT_SBH"
    assert obj["note"]


def test_certify_undecided_exit_4(tmp_path, capsys):
    mfile = tmp_path / "u.json"
    fourier.write_measure(fourier.FourierTable.from_nonneg(
        np.array([1.0, 0.07], dtype=complex)), mfile)
    code, out, _ = run(["certify", "--in", str(mfile)], capsys)
    assert code == 4
    assert json.loads(out)["verdict"] == "UNDECIDED"


_BAD_MEASURES = {
    "nan-tail": '{"half_width": 2, "tail_bound": NaN, "coeffs": [[0, 1.0, 0.0]]}',
    "huge-half-width": '{"half_width": 1e9, "tail_bound": 0.0, "coeffs": [[0, 1.0, 0.0]]}',
    "short-row": '{"half_width": 2, "tail_bound": 0.0, "coeffs": [[0, 1]]}',
    "scalar-coeffs": '{"half_width": 2, "tail_bound": 0.0, "coeffs": 5}',
    "null-row": '{"half_width": 2, "tail_bound": 0.0, "coeffs": [[0, 1.0, 0.0], null]}',
    "fractional-index": '{"half_width": 2, "tail_bound": 0.0, '
                        '"coeffs": [[0, 1.0, 0.0], [1.5, 0.5, 0.0]]}',
    "fractional-half-width": '{"half_width": 1.9, "tail_bound": 0.0, '
                             '"coeffs": [[0, 1.0, 0.0], [1, 0.9, 0.0]]}',
    "bool-index": '{"half_width": 2, "tail_bound": 0.0, '
                  '"coeffs": [[0, 1.0, 0.0], [true, 0.5, 0.0]]}',
}


@pytest.mark.parametrize("text", list(_BAD_MEASURES.values()), ids=list(_BAD_MEASURES))
def test_certify_bad_measure_exit_2(tmp_path, capsys, text):
    mfile = tmp_path / "bad.json"
    mfile.write_text(text)
    code, out, err = run(["certify", "--in", str(mfile)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["short-row", "scalar-coeffs", "null-row"])
@pytest.mark.parametrize("argv", [["measure", "arcsine", "--in"],
                                  ["gaussian", "cocycle", "--spec"]],
                         ids=["measure-arcsine", "gaussian-spec"])
def test_bad_measure_file_exit_2(tmp_path, capsys, argv, key):
    mfile = tmp_path / "bad.json"
    mfile.write_text(_BAD_MEASURES[key])
    code, out, err = run([*argv, str(mfile)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed coefficient row") and err.count("\n") == 1


def test_certify_subsample_scan(tmp_path, capsys):
    mfile = tmp_path / "g.json"
    from atlab import gaussian
    t = gaussian.cocycle_correlation_table(gaussian.white_noise_spec(16), 201, 16)
    fourier.write_measure(t, mfile)
    code, out, _ = run(["certify", "--in", str(mfile),
                        "--subsample-scan", "1..4"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["first_certified_m"] == 1
    assert len(obj["scan"]) == 4


@pytest.mark.parametrize("argv", [
    ["--subsample-scan", "0..2"],
    ["--k", "12", "--window", "24", "--subsample-scan", "1..2"],
    ["--subsample-scan", "5..1"],
    ["--subsample-scan", "1-2"],
    ["--budget", "50", "--subsample-scan", "1..2"],
], ids=["m-zero", "exhaustive-too-big", "empty-range", "no-dots", "budget"])
def test_certify_subsample_scan_arguments(tmp_path, capsys, argv):
    mfile = tmp_path / "g.json"
    from atlab import gaussian
    t = gaussian.cocycle_correlation_table(gaussian.white_noise_spec(16), 201, 16)
    fourier.write_measure(t, mfile)
    code, out, err = run(["certify", "--in", str(mfile), *argv], capsys)
    if "--budget" not in argv:
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    # the scan runs the heuristic search with --budget, as a single certify does
    assert code == 0
    scan = json.loads(out)["scan"]
    assert [entry["m"] for entry in scan] == [1, 2]
    assert all(entry["report"]["heuristic_sup"] is not None for entry in scan)
    _, single, _ = run(["certify", "--in", str(mfile), "--budget", "50"], capsys)
    assert scan[0]["report"] == json.loads(single)


def test_system_distal_csv(capsys):
    code, out, _ = run(["system", "distal", "--nmax", "8"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,re,im,method,error_bar"
    for line in lines[2:]:
        n, re, im, method, err = line.split(",")
        assert float(re) == 0.0
        assert float(im) == 0.0
        assert method == "exact"


def test_system_nil_even_rows_zero(capsys):
    code, out, _ = run(["system", "nil", "--beta", "0.8", "--nmax", "8"], capsys)
    assert code == 0
    for line in out.splitlines()[1:]:
        n, re, im, method, err = line.split(",")
        if int(n) >= 2:
            assert float(re) == 0.0 and float(im) == 0.0


@pytest.mark.parametrize("argv", [
    ["rudin-shapiro", "--L", "1024", "--log2-length", "10"],
    ["nil"],
    ["rotation", "--M", "21"],
    ["distal"],
    ["odometer", "--phi", "0,1"],
], ids=lambda argv: argv[0])
def test_system_names_batch(tmp_path, capsys, argv):
    out_bin = tmp_path / "names.bin"
    code, out, _ = run(["system", *argv, "--nmax", "4", "--names", "16", "--length", "32",
                        "--names-out", str(out_bin)], capsys)
    assert code == 0
    assert len(out.splitlines()) == 6
    from atlab import systems
    bits = systems.read_names(out_bin)
    assert bits.shape == (16, 32)


def test_system_bad_parameters_exit_2(capsys):
    code, _, err = run(["system", "nil", "--beta", "0.5"], capsys)
    assert code == 2
    assert "rational" in err


@pytest.mark.parametrize("argv", [
    ["system", "rotation", "--alpha", "nan"],
    ["system", "nil", "--alpha", "inf"],
    ["system", "nil", "--beta", "inf"],
    ["system", "nil", "--gamma", "nan"],
    ["funny", "--system", "rotation", "--alpha", "nan"],
    ["funny", "--system", "rotation", "--delta", "nan"],
    ["funny", "--system", "nil", "--gamma", "nan"],
    ["gaussian", "orthant", "--r", "nan"],
    ["gaussian", "product", "--r", "nan"],
], ids=lambda argv: "-".join(tok.lstrip("-") for tok in argv))
def test_non_finite_system_parameter_exit_2(capsys, argv):
    if argv[0] == "funny":
        argv = argv + ["--k", "4", "--horizon", "16", "--samples", "100"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["system", "rudin-shapiro", "--names", "4", "--log2-length", "3", "--length", "256"],
    ["funny", "--system", "rudin-shapiro", "--log2-length", "3"],
    ["system", "nil", "--names", "-1"],
    ["system", "nil", "--names", "2", "--length", "-3"],
    ["system", "rudin-shapiro", "--nmax", "-1", "--L", "64"],
    ["system", "distal", "--nmax", "-1"],
    ["funny", "--system", "coin", "--samples", "0"],
    ["funny", "--system", "coin", "--samples", "-5"],
    ["funny", "--system", "coin", "--k", "0"],
    ["funny", "--system", "coin", "--k", "300"],
    ["funny", "--system", "coin", "--horizon", "0"],
    ["funny", "--system", "coin", "--eps", "nan"],
    ["gaussian", "cocycle", "--nmax", "-1"],
    ["gaussian", "orthant", "--samples", "0"],
    ["gaussian", "product", "--samples", "0"],
    ["measure", "lebesgue", "--N", "2", "--density-grid", "-5", "--density-csv", "d.csv"],
    ["measure", "lebesgue", "--N", "2", "--density-grid", "0", "--density-csv", "d.csv"],
    ["measure", "lebesgue", "--N", "4194305"],
    ["measure", "riesz", "--N", "-1"],
], ids=lambda argv: "-".join(tok[2:] if tok.startswith("--") else tok for tok in argv))
def test_bad_size_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["measure", "lebesgue", "--N", "2", "--out", "{bad}/x.json"],
    ["measure", "lebesgue", "--N", "2", "--density-csv", "{bad}/d.csv"],
    ["system", "nil", "--names", "2", "--length", "4", "--names-out", "{bad}/x.bin"],
    ["funny", "--system", "coin", "--k", "4", "--horizon", "16", "--samples", "100",
     "--out", "{bad}/f"],
], ids=["measure-out", "density-csv", "names-out", "funny-out"])
def test_unwritable_output_exit_2(tmp_path, capsys, argv):
    bad = tmp_path / "missing-dir"
    code, _, err = run([tok.format(bad=bad) for tok in argv], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["orthant", "product"])
@pytest.mark.parametrize("n", ["-1", "0"])
def test_gaussian_nonpositive_lag_exit_2(capsys, mode, n):
    code, out, err = run(["gaussian", mode, "--n", n, "--samples", "100"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--n" in err and err.count("\n") == 1


def test_cli_import_loads_no_scipy():
    """scipy is only imported lazily, for the rotation cocycle's Bessel values."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, atlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_gaussian_orthant_json(capsys):
    code, out, _ = run(["gaussian", "orthant", "--r", "0.5",
                        "--samples", "100000", "--seed", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["formula_value"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert abs(obj["z_score"]) <= 4.0


def test_gaussian_constants(capsys):
    code, out, _ = run(["gaussian", "constants"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["chain_ok"] is True
    assert obj["margin"] > 0.0


def test_gaussian_cocycle_decreasing(capsys):
    code, out, _ = run(["gaussian", "cocycle", "--nmax", "6"], capsys)
    assert code == 0
    obj = json.loads(out)
    vals = [row[1] for row in obj["coeffs"][1:]]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_funny_constant_flagged(capsys):
    code, out, err = run(["funny", "--system", "constant", "--k", "16",
                          "--horizon", "64", "--samples", "1000"], capsys)
    assert code == 0
    assert "bound exceeded" in err
    rows = [json.loads(line) for line in out.splitlines()]
    assert any(r["k_times_mass"] > r["bound"] for r in rows)
    assert all("caveat" in r for r in rows)


def test_funny_coin_respects_bound(capsys):
    code, out, err = run(["funny", "--system", "coin", "--k", "16",
                          "--horizon", "64", "--samples", "1000"], capsys)
    assert code == 0
    assert "bound exceeded" not in err


@pytest.mark.parametrize("system", ["rudin-shapiro", "nil", "rotation", "distal",
                                    "odometer", "coin", "constant"])
def test_funny_every_system(capsys, system):
    argv = ["funny", "--system", system, "--samples", "500", "--k", "8", "--horizon", "64",
            "--n-random", "2"]
    if system == "rudin-shapiro":
        argv += ["--log2-length", "10"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    # 3 offsets for each of the 5 steps (spans 7..56 < 64), plus 2 random sets
    rows = [json.loads(line) for line in out.splitlines()]
    lambdas = {tuple(row["lambda"]) for row in rows}
    assert len(lambdas) == len(rows) == 17
    assert all(set(row) == {"lambda", "word", "mass_below", "k_times_mass", "bound",
                            "stderr", "caveat"} for row in rows)
    assert all(len(lam) == 8 and lam[-1] < 64 for lam in lambdas)


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 3\nseed = 9\n")
    code, out, _ = run(["measure", "lebesgue", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["half_width"] == 3
    # explicit flags override the config file
    code, out, _ = run(["measure", "lebesgue", "--config", str(cfg),
                        "--N", "5"], capsys)
    assert json.loads(out)["half_width"] == 5


@pytest.mark.parametrize("text", [None, "N = abc\n", "N 3\n", "Nn = 3\n", "stdout = no\n"],
                         ids=["missing-file", "bad-value", "no-equals", "unknown-key", "bad-flag"])
def test_config_file_errors_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    code, out, err = run(["measure", "lebesgue", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["true", "false"])
def test_config_file_store_true_flag(tmp_path, capsys, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"stdout = {flag}\n")
    code, out, _ = run(["measure", "lebesgue", "--N", "2", "--config", str(cfg),
                        "--out", str(tmp_path / "m.json")], capsys)
    assert code == 0
    assert (out != "") == (flag == "true")


def test_floats_round_trip_exactly():
    xs = [1.0 / 3.0, 2.1685067667181943e-09, 0.1065397273290956, -1e-300]
    assert json.loads(cli.render_json(xs)) == xs
    # numpy scalars too, whose repr in numpy 2 is np.float64(...)
    rows = [(n, np.complex128(x - 1j * x), "exact", np.float64(x)) for n, x in enumerate(xs)]
    for x, line in zip(xs, cli.correlation_csv(rows).splitlines()[1:]):
        _, re, im, _, err = line.split(",")
        assert (float(re), float(im), float(err)) == (x, -x, x)
    with pytest.raises(ValueError):  # main maps it to exit 2
        cli.render_json({"sup": float("nan")})


def test_console_script_installed(tmp_path):
    """Run the `atlab` console script: the installed executable if one is on
    PATH, else the wrapper an installer writes for the entry point that
    pyproject.toml declares, run from `src` in a child process."""
    import shutil
    args = ["measure", "lebesgue", "--N", "2"]
    exe = shutil.which("atlab")
    if exe is not None:
        proc = subprocess.run([exe, *args], capture_output=True, text=True)
    else:
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"].get("scripts", {})
        assert "atlab" in scripts
        module, attr = scripts["atlab"].split(":")
        wrapper = tmp_path / "atlab"
        wrapper.write_text(
            "import sys\n"
            f"from {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({attr}())\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, str(wrapper), *args],
                              capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["half_width"] == 2
