"""End-to-end tests of the command-line harness: exit codes, formats, determinism."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from atlab import cli, fourier, gaussian, systems


@pytest.fixture(autouse=True)
def replay_certify_verdicts(monkeypatch, exact):
    """Every report that `certify` makes in these tests carries the verdict its
    table and witnesses give in exact rationals."""
    from atlab import sbh
    certify = sbh.certify

    def replayed(t, *args, **kwargs):
        rep = certify(t, *args, **kwargs)
        assert rep.verdict == exact.verdict(t, rep)
        return rep
    monkeypatch.setattr(sbh, "certify", replayed)


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


def test_measure_density_csv_in_blocks(tmp_path, capsys):
    # 2^16 + 3 rows: one full block of the writer and a partial one
    dfile = tmp_path / "d.csv"
    grid = 2**16 + 3
    code, _, _ = run(["measure", "sqrt", "--N", "64", "--density-grid", str(grid),
                      "--density-csv", str(dfile)], capsys)
    assert code == 0
    lines = dfile.read_text().split("\n")
    assert lines[0] == "theta,density" and lines[-1] == "" and len(lines) == grid + 2
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])
    thetas = np.arange(grid) / grid
    assert np.array_equal(rows[:, 0], thetas)
    assert np.array_equal(rows[:, 1], fourier.sqrt_template(0.3, 64).density(grid))


# stdout sha256 of `system ... --nmax NMAX` as printed when each source built one
# tuple per lag: values, methods and error bars that vary, so a column that slips
# at the 2^16-row piece boundary shows
_PIECE_SHA256 = {
    ("odometer", "--phi", "0,1,1,0,1,0,0,1"): (
        "64d55641851cd888e139add23794ee0150709b85767ec743c02a7a4099061efe",
        "9ca988b07d20a8baac039fc70cf2b762195ef6c7679e5aa84fef690f0f0a9ec6",
        "2f4787efa53b296a76f351b94449d24b1e632b1279259fd7b8affcd9d9d5c0a1"),
    ("rudin-shapiro",): (
        "b555cf983c72e2dfff564c043aad2898a217ac1b34a5ee39fc3d87a3155f291b",
        "2801ea6046fb1cddb17ecba65a932168d9a46b8bdf8188f52540c7bc1510035e",
        "d52ac7c3de5dac5aa02a689b464f1bde3992554b0e55e54128feef8337ff54ae"),
    ("nil", "--beta", "0.0618034"): (  # 17 series values, then exact zeros
        "f09996256e6d03008fae29edbac02dbac35af2c9ed5ced677918f2b4ef01341c",
        "5750457b0321c49d51a6b5e0b47bfc15dec18a74a833eb1b85269feb7ad9644d",
        "d240e9011ba97fa65fd16c884af400918ddfab2145686ede69750951506da21a"),
}


def test_system_csv_across_a_piece_boundary(capsys):
    # 70001 rows: one full piece of 2^16 rows and a partial one
    code, out, _ = run(["system", "distal", "--nmax", "70000"], capsys)
    assert code == 0
    assert out == "n,re,im,method,error_bar\n" + "".join(f"{n},0.0,0.0,exact,0.0\n"
                                                         for n in range(70001))
    # 2^16, 2^16 + 1 and 2^16 + 2 rows: one piece exactly, then a partial second piece
    for (name, *extra), digests in _PIECE_SHA256.items():
        for nmax, digest in zip((2**16 - 1, 2**16, 2**16 + 1), digests):
            code, out, _ = run(["system", name, "--nmax", str(nmax), *extra], capsys)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, nmax)


@pytest.mark.parametrize("argv", [
    ["measure", "sqrt", "--N", "70000"],
    ["system", "rotation", "--nmax", "8"],
    ["funny", "--system", "coin", "--k", "4", "--horizon", "16", "--samples", "100"],
], ids=["measure", "system", "funny"])
def test_out_and_stdout_get_the_same_bytes(tmp_path, capsys, argv):
    path = tmp_path / "out.txt"
    code, printed, _ = run(argv, capsys)
    assert code == 0 and printed.endswith("\n")
    assert run([*argv, "--out", str(path)], capsys)[:2] == (0, "")
    assert path.read_bytes() == printed.encode()
    path.unlink()
    assert run([*argv, "--out", str(path), "--stdout"], capsys)[:2] == (0, printed)
    assert path.read_bytes() == printed.encode()


def test_measure_riesz_skips_frequencies_past_the_table(capsys):
    # 3^20 sign patterns would take hours; only the frequencies 1, 3 and 9 reach
    # |n| <= 8, and the label still names all twenty
    freqs = [3**j for j in range(20)]
    t0 = time.perf_counter()
    code, out, _ = run(["measure", "riesz", "--N", "8", "--a", ",".join(["0.5"] * 20),
                        "--freq", ",".join(map(str, freqs))], capsys)
    assert code == 0
    assert time.perf_counter() - t0 < 5.0
    obj = json.loads(out)
    assert obj["label"] == f"riesz(a={[0.5] * 20}, freq={freqs})"
    three = json.loads("".join(fourier.table_json_pieces(fourier.riesz_product([0.5] * 3,
                                                                                [1, 3, 9], 8))))
    assert {**obj, "label": three["label"]} == three
    # and those are the coefficients of the three-factor product, sampled at 64 points
    x = np.arange(64) / 64
    c = np.fft.fft(np.prod([1 + 0.5 * np.cos(2 * np.pi * f * x) for f in (1, 3, 9)], axis=0)) / 64
    assert [row[1] for row in obj["coeffs"]] == pytest.approx(c[:9].real, abs=1e-15)


def test_measure_arcsine_pipeline(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    run(["measure", "lebesgue", "--N", "4", "--out", str(mfile)], capsys)
    code, out, _ = run(["measure", "arcsine4", "--in", str(mfile)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["coeffs"][0] == [0, 1.0, 0.0]
    assert all(row[1] == 0.0 for row in obj["coeffs"][1:])


def test_measure_arcsine_refuses_tail_past_one(tmp_path, capsys):
    # max |c(n)| + tail_bound = 0.8 + 0.3 >= 1: the map's slope is unbounded there
    mfile = tmp_path / "m.json"
    mfile.write_text('{"half_width": 1, "tail_bound": 0.3, "coeffs": [[0, 1, 0], [1, 0.8, 0]]}')
    code, out, err = run(["measure", "arcsine", "--in", str(mfile)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: arcsine transforms need max |c(n)| + tail_bound < 1")
    assert err.count("\n") == 1


def test_measure_invalid_parameters_exit_2(capsys):
    code, _, err = run(["measure", "riesz", "--a", "0.5,0.5",
                        "--freq", "2,5", "--N", "8"], capsys)
    assert code == 2
    assert "error" in err


def test_measure_missing_input_exit_2(capsys):
    code, _, err = run(["measure", "arcsine", "--in", "/nonexistent.json"], capsys)
    assert code == 2


@pytest.mark.parametrize("message, line", [("", "error: out of memory\n"),
                                           ("cannot allocate", "error: cannot allocate\n")],
                         ids=["empty", "message"])
def test_out_of_memory_exit_2(tmp_path, monkeypatch, capsys, message, line):
    def builder(fourier, args):
        raise MemoryError(message)

    monkeypatch.setitem(cli._MEASURES, "sqrt", builder)
    out = tmp_path / "s.json"
    assert run(["measure", "sqrt", "--N", "8", "--out", str(out)], capsys) == (2, "", line)
    assert not out.exists()


def test_density_csv_out_of_memory_leaves_no_out_file(tmp_path, monkeypatch, capsys):
    # the density grid is computed before --out is written, so a grid too large
    # for the machine leaves neither file
    def density(self, grid_size):
        raise MemoryError()

    monkeypatch.setattr(fourier.FourierTable, "density", density)
    out, csv = tmp_path / "o.json", tmp_path / "d.csv"
    code, _, err = run(["measure", "lebesgue", "--N", "2", "--out", str(out),
                        "--density-csv", str(csv)], capsys)
    assert (code, err) == (2, "error: out of memory\n")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("argv, k", [
    (["--k", "13", "--budget", "10"], 12),
    (["--k", "4", "--window", "2", "--budget", "10"], 4),
], ids=["k-above-12", "window-below-k"])
def test_certify_heuristic_window_covers_k(tmp_path, capsys, argv, k):
    # the heuristic search gets max(window, k) indices, as the exhaustive one does
    mfile = tmp_path / "u.json"
    fourier.write_measure(fourier.FourierTable.from_nonneg(
        np.array([1.0, 0.07], dtype=complex)), mfile)
    code, out, err = run(["certify", "--in", str(mfile), *argv], capsys)
    assert code in (0, 3, 4), err
    rep = json.loads(out)
    assert len(rep["heuristic_witness"]["indices"]) == k
    assert rep["exhaustive_params"] == [k, k]


def test_certify_k10_window24(tmp_path, capsys):
    # the pair bound prunes the search on a sqrt table, so it runs where the
    # full scan exceeded its budget
    mfile = tmp_path / "sqrt.json"
    fourier.write_measure(fourier.sqrt_template(0.3, 1024), mfile)
    code, out, err = run(["certify", "--in", str(mfile), "--k", "10", "--window", "24"], capsys)
    assert code == 3, err
    rep = json.loads(out)
    assert rep["verdict"] == "CERTIFIED_NOT_SBH"
    assert rep["exhaustive_params"] == [10, 24]
    assert len(rep["exhaustive_witness"]["indices"]) == 10


def test_certify_over_the_exhaustive_budget_decides_by_the_other_certificates(tmp_path, capsys):
    # a Lebesgue table prunes nothing, so the exhaustive scan at k = 10, window 24
    # exceeds its budget: the report leaves its fields null and l1 certifies SBH
    mfile = tmp_path / "leb.json"
    assert run(["measure", "lebesgue", "--N", "64", "--out", str(mfile)], capsys)[0] == 0
    code, out, err = run(["certify", "--in", str(mfile), "--k", "10", "--window", "24"], capsys)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1
    rep = json.loads(out)
    assert rep["verdict"] == "CERTIFIED_SBH" and rep["l1_certificate"] == 1.0
    assert rep["exhaustive_sup"] is None and rep["exhaustive_params"] is None
    assert rep["exhaustive_witness"] is None and rep["heuristic_sup"] is None


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
    "string-and-bool-values": '{"half_width": 1, "tail_bound": true, '
                              '"coeffs": [[0, "1", false], [1, "0.5", 0.0]]}',
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


_TAILED = '{"half_width": 1, "tail_bound": 0.04, "coeffs": [[0, 1, 0], [1, 0.072, 0]]}'


def test_certify_tail_blocks_not_sbh(tmp_path, capsys):
    # the k = 4 witness 1.108 exceeds 1 + eps0, but not once the tail is discounted
    mfile = tmp_path / "tailed.json"
    mfile.write_text(_TAILED)
    code, out, _ = run(["certify", "--in", str(mfile), "--k", "4", "--window", "4"], capsys)
    assert code == 4
    assert json.loads(out)["verdict"] == "UNDECIDED"


def test_gaussian_spec_with_tail_exit_2(tmp_path, capsys):
    mfile = tmp_path / "tailed.json"
    mfile.write_text(_TAILED)
    code, out, err = run(["gaussian", "cocycle", "--spec", str(mfile)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: a Gaussian spec needs tail_bound 0") and err.count("\n") == 1


def test_gaussian_spec_eigvalsh_fallback_cap_exit_2(tmp_path, monkeypatch, capsys):
    # c = (1, 0.6, 0.9, 0, ...) has a negative grid bound; at N = 131072 the
    # eigvalsh fallback would build a 128 GiB T_{N+1}, so the width cap exits 2
    # before it (the same table at N = 2048 is the fallback's largest)
    N = 131072
    nn = np.zeros(N + 1, dtype=complex)
    nn[:3] = [1.0, 0.6, 0.9]
    mfile = tmp_path / "wide.json"
    fourier.write_measure(fourier.FourierTable.from_nonneg(nn), mfile)

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    t0 = time.perf_counter()
    code, out, err = run(["gaussian", "cocycle", "--spec", str(mfile), "--nmax", "8"], capsys)
    assert time.perf_counter() - t0 < 20
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"half_width <= {gaussian.MAX_EIGVALSH_HALF_WIDTH}, got {N}" in err


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
    # m = 2 subsamples to entries below the pruning slack: no pair bound prunes, the
    # exhaustive search exceeds its budget and the other certificates decide
    ["--k", "12", "--window", "24", "--subsample-scan", "1..2"],
    ["--subsample-scan", "5..1"],
    ["--subsample-scan", "1-2"],
    ["--budget", "50", "--subsample-scan", "1..2"],
    ["--subsample-scan", "1..18"],
    ["--subsample-scan", f"1..{10**9}"],
], ids=["m-zero", "exhaustive-too-big", "empty-range", "no-dots", "budget", "hi-past-table",
        "hi-1e9"])
def test_certify_subsample_scan_arguments(tmp_path, capsys, argv):
    mfile = tmp_path / "g.json"
    from atlab import gaussian
    t = gaussian.cocycle_correlation_table(gaussian.white_noise_spec(16), 201, 16)
    fourier.write_measure(t, mfile)
    code, out, err = run(["certify", "--in", str(mfile), *argv], capsys)
    if "--budget" not in argv and "--window" not in argv:
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert code == 0
    scan = json.loads(out)["scan"]
    assert [entry["m"] for entry in scan] == [1, 2]
    if "--window" in argv:
        assert scan[0]["report"]["exhaustive_params"] == [12, 24]
        assert scan[1]["report"]["exhaustive_params"] is None
        assert scan[1]["report"]["verdict"] == "CERTIFIED_SBH"
        return
    # the scan runs the heuristic search with --budget, as a single certify does
    assert all(entry["report"]["heuristic_sup"] is not None for entry in scan)
    _, single, _ = run(["certify", "--in", str(mfile), "--budget", "50"], capsys)
    assert scan[0]["report"] == json.loads(single)


def test_certify_subsample_scan_reaches_half_width_plus_one(tmp_path, capsys):
    # m = N + 1 is the last m whose subsampled table differs from the ones past it
    mfile = tmp_path / "g.json"
    from atlab import gaussian
    t = gaussian.cocycle_correlation_table(gaussian.white_noise_spec(16), 201, 16)
    fourier.write_measure(t, mfile)
    code, out, _ = run(["certify", "--in", str(mfile), "--subsample-scan", "16..17"], capsys)
    assert code in (0, 4)
    scan = json.loads(out)["scan"]
    assert [entry["m"] for entry in scan] == [16, 17]
    # every m past the table gives the report of m = N + 1, which the bound leaves out
    from atlab import sbh
    past = sbh.certify(fourier.power_subsample(fourier.read_measure(mfile), 10**6))
    assert scan[1]["report"] == json.loads(json.dumps(dataclasses.asdict(past)))


# stdout sha256 of each command as printed before the correlation kernels
# returned whole tables; the tables must not move by a bit
_PINNED_STDOUT = {
    "system rotation --nmax 12":
        "a04bd2f7ed9cb9aeb778dfc0eb34c10e0ac5841b22aebbd760fd575ed93f82d8",
    "system rotation --nmax 8 --delta 0.3 --M 401 --alpha golden":
        "caca976acda11ce4c6c57291dff6f70d260f73cc09268b6ca25bcb14e84e52a8",
    "system nil --nmax 512":
        "0c20f870f675d5e69705652594bf1669b41954dafac2baa509b2d7fe10016b2d",
    "system distal --nmax 2000 --m-scale 3":
        "168655336bd6acf63d34905e802be6a940654866cf746e665c113549cc3dbea0",
    "gaussian cocycle --nmax 4096":
        "3918037850d83714912ae706859465abd9ae148e85d37226337f0f70aed3bd59",
}


@pytest.mark.parametrize("command", list(_PINNED_STDOUT))
def test_correlation_tables_keep_their_bytes(capsys, command):
    code, out, _ = run(command.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_STDOUT[command]


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


# sha256 of names.bin of `system SYSTEM --names 4096 --length 1024 --seed 11
# --nmax 4`, the shape of the benchmark's name batches, as written by the
# unpack-and-repack writer that the packed-row writer replaced
_NAMES_SHA256 = {
    "nil": "6af61e1039b636ce163577cb4470054ae0d29adf9f87af83a0b2ab4a24d81b2d",
    "distal": "e09575260394f19ca8c2e0f78cdbe18549f2d5a1f5f0d4e284a68e501f7b8fa4",
}


@pytest.mark.parametrize("system", sorted(_NAMES_SHA256))
def test_system_names_batch_bytes_pinned(tmp_path, capsys, system):
    out_bin = tmp_path / "names.bin"
    code, _, _ = run(["system", system, "--names", "4096", "--length", "1024", "--seed", "11",
                      "--nmax", "4", "--names-out", str(out_bin)], capsys)
    assert code == 0
    assert hashlib.sha256(out_bin.read_bytes()).hexdigest() == _NAMES_SHA256[system]


def test_system_names_failing_mid_batch_leaves_no_file(tmp_path, monkeypatch, capsys):
    # the batch is streamed before the CSV: a block producer that fails after its
    # first block exits 2, and neither the partial batch nor the CSV is left
    first_blocks = systems.NilRotationSource.name_blocks

    def failing(self, count, length, seed):
        yield next(first_blocks(self, count, length, seed))
        raise MemoryError("block failed")

    monkeypatch.setattr(systems.NilRotationSource, "name_blocks", failing)
    names, out = tmp_path / "names.bin", tmp_path / "names.csv"
    code, stdout, err = run(["system", "nil", "--names", "4100", "--length", "600", "--nmax", "4",
                             "--names-out", str(names), "--out", str(out)], capsys)
    assert code == 2
    assert stdout == "" and err == "error: block failed\n"
    assert list(tmp_path.iterdir()) == []


def test_system_names_unwritable_out_leaves_no_batch(tmp_path, capsys):
    names = tmp_path / "names.bin"
    code, _, err = run(["system", "nil", "--names", "16", "--length", "32", "--nmax", "4",
                        "--names-out", str(names), "--out", str(tmp_path / "missing" / "n.csv")],
                       capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_system_bad_parameters_exit_2(capsys):
    code, _, err = run(["system", "nil", "--beta", "0.5"], capsys)
    assert code == 2
    assert "rational" in err


@pytest.mark.parametrize("argv", [
    ["system", "rotation", "--alpha", "nan"],
    # 2 pi alpha j overflows; every such double is an integer, a rotation by 0
    ["system", "rotation", "--alpha", "1e308", "--nmax", "3"],
    ["funny", "--system", "rotation", "--alpha", "1e308", "--delta", "0.2"],
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
    ["system", "rudin-shapiro", "--nmax", "17", "--L", "64"],
    ["system", "rudin-shapiro", "--nmax", str(2**24 + 1), "--L", str(2**62)],
    ["system", "nil", "--nmax", str(10**9)],
    ["system", "odometer", "--phi", "0,99999999999999999999", "--nmax", "2"],
    ["funny", "--system", "odometer", "--phi", "1,-9223372036854775809"],
    ["system", "distal", "--nmax", "-1"],
    ["system", "distal", "--nmax", str(2**22 + 1)],
    ["funny", "--system", "coin", "--samples", "0"],
    ["funny", "--system", "coin", "--samples", "-5"],
    ["funny", "--system", "coin", "--k", "0"],
    ["funny", "--system", "coin", "--k", "300"],
    ["funny", "--system", "coin", "--horizon", "0"],
    ["funny", "--system", "coin", "--n-random", "-1"],
    ["funny", "--system", "coin", "--k", "64", "--horizon", "1024", "--n-random", "65537"],
    ["funny", "--system", "coin", "--eps", "nan"],
    ["gaussian", "cocycle", "--nmax", "-1"],
    ["gaussian", "cocycle", "--nmax", str(2**22 + 1)],
    ["system", "nil", "--M", str(2**22 + 1), "--nmax", "1"],
    ["system", "rotation", "--M", str(2**22 + 1), "--nmax", "1"],
    ["gaussian", "cocycle", "--M", str(2**22 + 1), "--nmax", "1"],
    ["gaussian", "orthant", "--n", str(2**22 + 1), "--samples", "10"],
    ["gaussian", "product", "--n", str(2**22 + 1), "--samples", "10"],
    ["gaussian", "orthant", "--samples", "0"],
    ["gaussian", "product", "--samples", "0"],
    ["measure", "lebesgue", "--N", "2", "--density-grid", "-5", "--density-csv", "d.csv"],
    ["measure", "lebesgue", "--N", "2", "--density-grid", "0", "--density-csv", "d.csv"],
    ["measure", "lebesgue", "--N", "2", "--density-grid", str(2**24 + 5),
     "--density-csv", "d.csv"],
    ["measure", "lebesgue", "--N", "4194305"],
    ["measure", "riesz", "--N", "-1"],
    ["certify", "--in", "m.json", "--k", "0"],
    ["certify", "--in", "m.json", "--k", "-3"],
    ["certify", "--in", "m.json", "--budget", "-1"],
    ["certify", "--in", "m.json", "--budget", "10", "--seed", "-1"],
    ["certify", "--in", "m.json", "--k", "0", "--subsample-scan", "1..2"],
    ["certify", "--in", "m.json", "--window", str(2**22 + 1), "--budget", "1"],
], ids=lambda argv: "-".join(tok[2:] if tok.startswith("--") else tok for tok in argv))
def test_bad_size_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "certify":
        fourier.write_measure(fourier.lebesgue_table(4), tmp_path / "m.json")
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["system", "rudin-shapiro", "--L", str(2**62 + 1)],
    ["system", "rudin-shapiro", "--log2-length", "27"],
    ["system", "rudin-shapiro", "--names", "4", "--log2-length", "-1"],
    ["funny", "--system", "rudin-shapiro", "--log2-length", "27"],
    ["funny", "--system", "rudin-shapiro", "--log2-length", "-1"],
], ids=lambda argv: "-".join(tok[2:] if tok.startswith("--") else tok for tok in argv))
def test_sequence_size_cap_exit_2(tmp_path, monkeypatch, capsys, argv):
    # rejected before the Rudin-Shapiro prefix is allocated
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert argv[-2] in err


@pytest.mark.parametrize("argv, options", [
    (["funny", "--system", "coin", "--samples", str(10**12)], ["--samples", "--horizon"]),
    (["funny", "--system", "nil", "--samples", "40000", "--horizon", "1024"],
     ["--samples", "--horizon"]),
    (["system", "nil", "--names", str(10**12), "--length", str(10**6)], ["--names", "--length"]),
    (["system", "distal", "--names", "65537", "--length", "1024"], ["--names", "--length"]),
    (["system", "nil", "--names", str(2**24), "--length", "4"], ["--names"]),
    (["system", "nil", "--names", str(2**20 + 1), "--length", "1"], ["--names"]),
    (["funny", "--system", "coin", "--samples", str(2**19 + 1), "--horizon", "4", "--k", "4"],
     ["--samples"]),
    (["gaussian", "orthant", "--samples", str(10**12)], ["--samples"]),
    (["gaussian", "product", "--samples", str(2**24 + 1)], ["--samples"]),
], ids=["funny-samples-1e12", "funny-nil-horizon-1024", "system-nil-names-1e12",
        "system-distal-names-65537", "system-nil-names-2e24", "system-nil-names-2e20+1",
        "funny-coin-samples-2e19+1", "gaussian-orthant-samples-1e12",
        "gaussian-product-samples-2e24+1"])
def test_sample_size_cap_exit_2(tmp_path, monkeypatch, capsys, argv, options):
    # checked before anything is sampled or allocated
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(opt in err for opt in options)
    assert list(tmp_path.iterdir()) == []


def test_sample_size_caps_admit_the_documented_sizes():
    # the benchmark's name batches and coin search, and the Monte Carlo runs
    assert 4096 * 1024 <= systems.MAX_NAME_BITS
    assert 2 * 10**4 * 1024 <= systems.MAX_NAME_BITS
    assert 65536 <= systems.MAX_NAMES and 2 * 10**4 <= systems.MAX_NAMES
    assert 4 * 10**6 <= gaussian.MAX_MC_SAMPLES


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


def test_gaussian_worker_memory_error_exit_2(monkeypatch, capsys):
    # chunk 1 is the worker thread's first: its MemoryError reaches main as the
    # caller's, one error line and exit 2
    from atlab import _orthant
    chunk_misses = _orthant._chunk_misses

    def fail_on_chunk_1(r, level, seed, c, bufs):
        if c == 1:
            raise MemoryError
        return chunk_misses(r, level, seed, c, bufs)

    monkeypatch.setattr(_orthant, "_chunk_misses", fail_on_chunk_1)
    code, out, err = run(["gaussian", "product", "--level", "4", "--samples",
                          str(3 * _orthant.CHUNK)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize("mode", ["orthant", "product"])
@pytest.mark.parametrize("n", ["-1", "0"])
def test_gaussian_nonpositive_lag_exit_2(capsys, mode, n):
    code, out, err = run(["gaussian", mode, "--n", n, "--samples", "100"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--n" in err and err.count("\n") == 1


def test_cli_import_loads_no_scipy():
    """`import atlab.cli` loads no scipy (a test-only dependency) and no numpy
    (about 0.1 s of a cold start and 13 MiB of RSS), nor `dataclasses` or
    `inspect`: the commands that use them import them."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, atlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0]"
            " in ('scipy', 'numpy', 'dataclasses', 'inspect')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_LOADED = ("import sys, atlab.cli; code = atlab.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
           "print(sorted(m for m in sys.modules if m.startswith('atlab'))); sys.exit(code)")


@pytest.mark.parametrize("argv, loaded", [
    (None, []),
    (["measure", "sqrt", "--N", "8", "--density-csv", "{tmp}/d.csv"], ["fourier"]),
    (["certify", "--in", "{tmp}/t.json", "--k", "4", "--budget", "10"], ["fourier", "sbh"]),
    (["system", "nil", "--nmax", "4", "--names", "2", "--length", "8",
      "--names-out", "{tmp}/n.bin"], ["fourier", "systems"]),
    (["system", "rotation", "--nmax", "4"], ["bessel", "fourier", "systems"]),
    (["gaussian", "orthant", "--samples", "100"], ["_orthant", "fourier", "gaussian"]),
    (["gaussian", "constants"], ["fourier", "gaussian", "sbh"]),
    (["gaussian", "cocycle", "--nmax", "4"], ["fourier", "gaussian"]),
], ids=["import", "measure", "certify", "system", "system-rotation", "gaussian-orthant",
        "gaussian-constants", "gaussian-cocycle"])
def test_subcommand_loads_only_its_modules(tmp_path, argv, loaded):
    """`import atlab.cli` loads no other atlab module; each subcommand adds the
    modules it runs: `measure` only `fourier`, `certify` `fourier` and `sbh`,
    `system` `fourier` and `systems`, plus `bessel` for the rotation cocycle's
    correlations, `gaussian` `fourier` and `gaussian`, plus `_orthant` for a
    Monte Carlo run and `sbh` for the constants' epsilon0; the cocycle's
    square wave is `fourier`'s."""
    fourier.write_measure(fourier.sqrt_template(0.3, 16), tmp_path / "t.json")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    args = [tok.format(tmp=tmp_path) for tok in argv or []]
    proc = subprocess.run([sys.executable, "-c", _LOADED, *args],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode in (0, 3, 4), proc.stderr  # certify's verdicts exit 3 and 4
    expected = sorted(["atlab", "atlab.cli", *(f"atlab.{m}" for m in loaded)])
    assert proc.stdout.splitlines()[-1] == repr(expected)


@pytest.mark.parametrize("argv, exit_code", [
    (["--help"], 0),
    (["measure", "--help"], 0),
    (["nosuch"], 2),
    (["measure", "lebesgue", "--config", "bad.cfg"], 2),
], ids=["help", "subcommand-help", "unknown-subcommand", "config-key"])
def test_exit_before_a_command_loads_no_numpy(tmp_path, argv, exit_code):
    """`--help`, an argparse usage error and a bad `--config` key end before any
    command runs, so they load neither numpy nor an atlab module past `cli`."""
    (tmp_path / "bad.cfg").write_text("no_such_option = 1\n")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    code = ("import atexit, sys, atlab.cli; atexit.register(lambda: print(sorted("
            "m for m in sys.modules if m.split('.')[0] in ('numpy', 'atlab')), file=sys.stderr)); "
            "sys.exit(atlab.cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == exit_code, proc.stderr
    assert proc.stderr.splitlines()[-1] == "['atlab', 'atlab.cli']"


def test_certify_heuristic_loads_no_numpy_random(tmp_path):
    """The heuristic search draws its restarts from the stdlib's `random`, so
    `certify --budget` never imports `numpy.random` (5.4 MiB of RSS)."""
    fourier.write_measure(fourier.sqrt_template(0.3, 16), tmp_path / "t.json")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, atlab.cli; code = atlab.cli.main(sys.argv[1:]); "
            "print('numpy.random' in sys.modules, file=sys.stderr); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, "certify", "--in", "t.json", "--k", "4",
                           "--budget", "10"], capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode in (0, 3, 4), proc.stderr
    assert json.loads(proc.stdout)["heuristic_sup"] is not None
    assert proc.stderr == "False\n"


def test_certify_loads_no_exact_arithmetic_module(tmp_path):
    """`certify` decides its verdict in plain integers, so it never imports
    `fractions` or `decimal` (about 0.3 MiB of RSS)."""
    fourier.write_measure(fourier.sqrt_template(0.3, 16), tmp_path / "t.json")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, atlab.cli; code = atlab.cli.main(sys.argv[1:]); "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)), file=sys.stderr); "
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, "certify", "--in", "t.json", "--k", "4",
                           "--budget", "10"], capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "CERTIFIED_NOT_SBH"
    assert proc.stderr == "[]\n"


@pytest.mark.parametrize("argv, exit_code, loaded", [
    (["system", "rotation", "--nmax", "4"], 0, "[]"),
    (["funny", "--system", "coin", "--samples", "100", "--k", "4", "--horizon", "16"], 0, "[]"),
    (["system", "nil", "--nmax", "4", "--beta", "0.5"], 2, "['fractions']"),
], ids=["rotation", "funny-coin", "nil-rational-beta"])
def test_only_the_nil_check_loads_fractions(tmp_path, argv, exit_code, loaded):
    """`fractions` serves only the nil systems' check for a rational rotation, so
    other systems never load it, and `system nil` still rejects --beta 0.5."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, atlab.cli; code = atlab.cli.main(sys.argv[1:]); "
            "print(sorted({'fractions'} & set(sys.modules)), file=sys.stderr); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == exit_code, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[-1] == loaded
    if exit_code == 2:
        assert lines[:-1] == ["error: beta is rational to within 1e-12 (1/2)"]


def test_certify_heuristic_on_a_wide_window(tmp_path, capsys):
    # the heuristic holds k rows of the window Toeplitz, never the dense matrix;
    # the greedy start and one step at window 10^5 take well under a second
    mfile = tmp_path / "sqrt.json"
    fourier.write_measure(fourier.sqrt_template(0.3, 1024), mfile)
    t0 = time.perf_counter()
    code, out, err = run(["certify", "--in", str(mfile), "--k", "4", "--window", "100000",
                          "--budget", "10"], capsys)
    assert time.perf_counter() - t0 < 5.0
    assert code == 3, err
    rep = json.loads(out)
    assert len(rep["heuristic_witness"]["indices"]) == 4
    assert rep["exhaustive_params"] == [4, 24]


def test_row_systems_are_the_sources_with_rows():
    """The static tuple behind `system`'s choices names exactly the sources with `table`."""
    assert list(cli._ROW_SYSTEMS) == [name for name, cls in cli._SYSTEMS.items()
                                      if hasattr(getattr(systems, cls), "table")]


@pytest.mark.parametrize("argv", [
    ["system", "rotation", "--nmax", "12"],
    ["system", "rudin-shapiro", "--L", str(2**40), "--nmax", "64"],
], ids=["rotation", "rudin-shapiro"])
def test_system_runs_without_scipy(argv):
    """The rotation cocycle's Bessel values and the Rudin-Shapiro lag sums need
    numpy alone: no scipy module is loaded by the end of the run."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, atlab.cli; code = atlab.cli.main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "file=sys.stderr); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == int(argv[argv.index("--nmax") + 1]) + 2
    assert proc.stderr == "[]\n"


def test_gaussian_orthant_json(capsys):
    code, out, _ = run(["gaussian", "orthant", "--r", "0.5",
                        "--samples", "100000", "--seed", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["formula_value"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert abs(obj["z_score"]) <= 4.0


@pytest.mark.parametrize("mode", ["orthant", "product"])
def test_gaussian_far_lag_holds_no_autocovariance(capsys, mode):
    # only r(0) and r(n) = --r enter the run, so --n 2^22 allocates no
    # (n + 1)-long autocovariance (32 MiB of float64) and prints what --n 1 prints
    argv = ["gaussian", mode, "--r", "0.5", "--samples", "1000", "--seed", "1", "--n"]
    code, near, _ = run(argv + ["1"], capsys)
    tracemalloc.start()
    try:
        far_code, far, _ = run(argv + ["4194304"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == far_code == 0
    assert far == near
    assert peak < 4 * 2**20


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


_COMMON = {"out", "stdout", "config"}
_SYSTEM_PARAMS = {"alpha", "beta", "gamma", "delta", "delta0", "M", "phi", "log2_length"}
# each subcommand's option dests: an option added or removed fails here first
_OPTIONS = {
    "measure": _COMMON | {"N", "a", "freq", "c", "m", "infile", "density_csv", "density_grid"},
    "certify": _COMMON | {"infile", "k", "window", "budget", "subsample_scan", "seed"},
    "system": _COMMON | _SYSTEM_PARAMS | {"L", "nmax", "m_scale", "names", "length",
                                          "names_out", "seed"},
    "gaussian": _COMMON | {"r", "n", "level", "samples", "spec", "M", "nmax", "seed"},
    "funny": _COMMON | _SYSTEM_PARAMS | {"system", "k", "eps", "samples", "horizon",
                                         "n_random", "p0", "seed"},
}


def test_subcommand_options_are_pinned():
    _, commands = cli.build_parser()
    assert {p.prog.split()[-1]: set(p.options) for p in commands} == _OPTIONS


def test_system_choices_are_the_sources_with_rows():
    ap, _ = cli.build_parser()
    sub = next(a for a in ap._actions if a.dest == "command").choices
    system = next(a for a in sub["system"]._actions if a.dest == "system")
    funny = next(a for a in sub["funny"]._actions if a.dest == "system")
    assert system.choices == ["rudin-shapiro", "nil", "rotation", "distal", "odometer"]
    assert funny.choices == [*system.choices, "coin", "constant"]


def test_floats_round_trip_exactly():
    xs = [1.0 / 3.0, 2.1685067667181943e-09, 0.1065397273290956, -1e-300]
    assert json.loads(cli.render_json(xs)) == xs
    # numpy arrays and scalars too, whose repr in numpy 2 is np.float64(...)
    values = np.array([x - 1j * x for x in xs])
    for x, line in zip(xs, "".join(cli.correlation_csv(values, "exact", np.array(xs)))
                       .splitlines()[1:]):
        _, re, im, _, err = line.split(",")
        assert (float(re), float(im), float(err)) == (x, -x, x)
    for x, line in zip(xs, "".join(cli.correlation_csv(values, "exact", np.float64(xs[1])))
                       .splitlines()[1:]):
        _, re, im, _, err = line.split(",")
        assert (float(re), float(im), float(err)) == (x, -x, xs[1])
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
