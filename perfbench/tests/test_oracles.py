"""Each checker accepts the program's real output and rejects a corrupted copy."""

import json
import random

import pytest

import oracles
from atlab import cli


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def _run(*argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().err

    return _run


def rejects(check, d, params, code, stderr=""):
    with pytest.raises(oracles.CheckFailed):
        oracles.check(check, str(d), params, code, stderr)


def edit_json(path, fn):
    obj = json.loads(path.read_text())
    fn(obj)
    path.write_text(json.dumps(obj))


def edit_csv_value(path, n, delta):
    lines = path.read_text().splitlines()
    row = lines[n + 1].split(",")
    row[1] = repr(float(row[1]) + delta)
    lines[n + 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def truncate(path):
    text = path.read_text()
    path.write_text(text[: len(text) * 2 // 3])


def test_epsilon0_is_the_root():
    t = oracles.epsilon0()
    assert abs(2 * (1 - t) * (1 - 2 * t) ** 2 - 1 - t) < 1e-15
    assert 0.106 < t < 0.107


def test_certify_flipped_verdict_and_exit_code(run, tmp_path):
    run("measure", "sqrt", "--N", "64", "--c", "0.3", "--out", "t.json")
    code, err = run("certify", "--in", "t.json", "--k", "6", "--window", "10",
                    "--budget", "200", "--out", "r.json")
    params = {"in": "t.json", "out": "r.json", "k": 6, "window": 10, "budget": 200}
    oracles.check("certify", str(tmp_path), params, code, err)
    rejects("certify", tmp_path, params, 0 if code else 3)
    rep = tmp_path / "r.json"
    good = rep.read_text()
    for verdict in ("CERTIFIED_SBH", "CERTIFIED_NOT_SBH", "UNDECIDED"):
        edit_json(rep, lambda o: o.update(verdict=verdict))
        if json.loads(good)["verdict"] != verdict:
            rejects("certify", tmp_path, params, code)
        rep.write_text(good)
    edit_json(rep, lambda o: o.update(exhaustive_sup=o["exhaustive_sup"] + 1e-9))
    rejects("certify", tmp_path, params, code)
    rep.write_text(good)
    edit_json(rep, lambda o: o.update(density_certificate=o["density_certificate"] - 1e-6))
    rejects("certify", tmp_path, params, code)


def test_certify_scan(run, tmp_path):
    run("measure", "sqrt", "--N", "96", "--c", "0.3", "--out", "t.json")
    code, err = run("certify", "--in", "t.json", "--subsample-scan", "1..6", "--out", "s.json")
    params = {"in": "t.json", "out": "s.json", "lo": 1, "hi": 6, "k": 4, "window": 8}
    oracles.check("certify_scan", str(tmp_path), params, code, err)
    edit_json(tmp_path / "s.json", lambda o: o.update(first_certified_m=7))
    rejects("certify_scan", tmp_path, params, code)


def test_measure_tables(run, tmp_path):
    run("measure", "sqrt", "--N", "32", "--c", "0.27", "--out", "t.json")
    run("measure", "arcsine4", "--in", "t.json", "--out", "a.json")
    run("measure", "riesz", "--N", "40", "--a", "0.6,0.9", "--freq", "2,7",
        "--density-grid", "256", "--density-csv", "d.csv", "--out", "r.json")
    sq = {"out": "t.json", "N": 32, "c": 0.27}
    arc = {"in": "t.json", "out": "a.json", "power": 4}
    rz = {"out": "r.json", "csv": "d.csv", "N": 40, "a": "0.6,0.9", "freq": "2,7", "grid": 256}
    oracles.check("sqrt_table", str(tmp_path), sq, 0, "")
    oracles.check("arcsine_table", str(tmp_path), arc, 0, "")
    oracles.check("riesz_table", str(tmp_path), rz, 0, "")
    rejects("sqrt_table", tmp_path, dict(sq, c=0.28), 0)
    rejects("riesz_table", tmp_path, dict(rz, a="0.6,0.8"), 0)
    truncate(tmp_path / "d.csv")
    rejects("riesz_table", tmp_path, rz, 0)


@pytest.mark.parametrize("alpha,delta,M", [("golden", 0.1, 21), ("sqrt2-1", 0.3, 41)])
def test_rotation_off_by_1e6(run, tmp_path, alpha, delta, M):
    run("system", "rotation", "--nmax", "5", "--alpha", alpha, "--delta", str(delta),
        "--M", str(M), "--out", "r.csv")
    params = {"out": "r.csv", "nmax": 5, "alpha": alpha, "delta": delta, "delta0": 0.5, "M": M}
    oracles.check("rotation", str(tmp_path), params, 0, "")
    edit_csv_value(tmp_path / "r.csv", 3, 1e-6)
    rejects("rotation", tmp_path, params, 0)


def test_odometer_off_by_1e6(run, tmp_path):
    rng = random.Random(5)
    phi = ",".join(str(rng.randrange(2)) for _ in range(64))
    run("system", "odometer", "--phi", phi, "--nmax", "200", "--out", "o.csv")
    params = {"out": "o.csv", "nmax": 200, "phi": phi}
    oracles.check("odometer", str(tmp_path), params, 0, "")
    edit_csv_value(tmp_path / "o.csv", 77, 1e-6)
    rejects("odometer", tmp_path, params, 0)


@pytest.mark.parametrize("alpha", ["sqrt2-1", "golden"])
def test_nil_and_truncated_csv(run, tmp_path, alpha):
    run("system", "nil", "--nmax", "40", "--alpha", alpha, "--out", "n.csv")
    params = {"out": "n.csv", "nmax": 40, "alpha": alpha, "beta": 0.7, "gamma": 0.0, "M": 201}
    oracles.check("nil", str(tmp_path), params, 0, "")
    good = (tmp_path / "n.csv").read_text()
    edit_csv_value(tmp_path / "n.csv", 9, 1e-6)
    rejects("nil", tmp_path, params, 0)
    (tmp_path / "n.csv").write_text(good)
    edit_csv_value(tmp_path / "n.csv", 1, 1e-6)
    rejects("nil", tmp_path, params, 0)
    (tmp_path / "n.csv").write_text(good)
    truncate(tmp_path / "n.csv")
    rejects("nil", tmp_path, params, 0)
    (tmp_path / "n.csv").write_text("\n".join(good.splitlines()[:-1]) + "\n")
    rejects("nil", tmp_path, params, 0)


def test_distal_and_rudin_shapiro(run, tmp_path):
    run("system", "distal", "--nmax", "50", "--m-scale", "3", "--out", "d.csv")
    run("system", "rudin-shapiro", "--L", "8192", "--nmax", "64", "--out", "rs.csv")
    oracles.check("distal", str(tmp_path), {"out": "d.csv", "nmax": 50}, 0, "")
    rs = {"out": "rs.csv", "nmax": 64, "L": 8192}
    oracles.check("rudin_shapiro", str(tmp_path), rs, 0, "")
    edit_csv_value(tmp_path / "d.csv", 4, 1e-6)
    rejects("distal", tmp_path, {"out": "d.csv", "nmax": 50}, 0)
    edit_csv_value(tmp_path / "rs.csv", 10, 1e-6)
    rejects("rudin_shapiro", tmp_path, rs, 0)


def test_gaussian_tables(run, tmp_path):
    run("measure", "sqrt", "--N", "48", "--c", "0.3", "--out", "t.json")
    run("gaussian", "cocycle", "--spec", "t.json", "--nmax", "48", "--out", "c.json")
    run("gaussian", "constants", "--out", "k.json")
    params = {"spec": "t.json", "out": "c.json", "nmax": 48, "M": 201}
    oracles.check("gaussian_cocycle", str(tmp_path), params, 0, "")
    oracles.check("gaussian_constants", str(tmp_path), {"out": "k.json"}, 0, "")
    edit_json(tmp_path / "c.json", lambda o: o["coeffs"][1].__setitem__(1, o["coeffs"][1][1] + 1e-6))
    rejects("gaussian_cocycle", tmp_path, params, 0)
    edit_json(tmp_path / "k.json", lambda o: o.update(chain_ok=False))
    rejects("gaussian_constants", tmp_path, {"out": "k.json"}, 0)


def test_funny_note_and_caveat(run, tmp_path):
    base = {"k": 16, "horizon": 128, "n_random": 4, "eps": 0.1, "samples": 2000}
    _, err = run("funny", "--system", "constant", "--k", "16", "--horizon", "128",
                 "--n-random", "4", "--samples", "2000", "--out", "c.jsonl")
    const = dict(base, out="c.jsonl", system="constant", violates=True)
    oracles.check("funny", str(tmp_path), const, 0, err)
    rejects("funny", tmp_path, const, 0, "")
    _, err = run("funny", "--system", "rotation", "--k", "16", "--horizon", "128",
                 "--n-random", "4", "--samples", "2000", "--out", "r.jsonl")
    rot = dict(base, out="r.jsonl", system="rotation", violates=False)
    oracles.check("funny", str(tmp_path), rot, 0, err)
    rejects("funny", tmp_path, rot, 0, oracles.VIOLATION_NOTE)
    path = tmp_path / "r.jsonl"
    path.write_text(path.read_text().replace("cannot certify", "can certify"))
    rejects("funny", tmp_path, rot, 0, err)


def test_monte_carlo_and_names(run, tmp_path):
    run("gaussian", "product", "--level", "4", "--r", "0.5", "--samples", "100000",
        "--seed", "3", "--out", "p.json")
    mc = {"out": "p.json", "r": 0.5, "level": 4, "samples": 100000, "seed": 3}
    oracles.check("monte_carlo", str(tmp_path), mc, 0, "")
    rejects("monte_carlo", tmp_path, dict(mc, level=1), 0)
    run("system", "distal", "--names", "64", "--length", "100", "--nmax", "4",
        "--names-out", "n.bin", "--out", "d.csv")
    names = {"out": "d.csv", "names": "n.bin", "system": "distal", "count": 64, "length": 100,
             "alpha": "sqrt2-1", "nmax": 4}
    oracles.check("names", str(tmp_path), names, 0, "")
    raw = (tmp_path / "n.bin").read_bytes()
    (tmp_path / "n.bin").write_bytes(raw[:-5])
    rejects("names", tmp_path, names, 0)
