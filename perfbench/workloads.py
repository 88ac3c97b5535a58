"""Seeded job lists for the three benchmark workloads.

A job is one `python -m atlab.cli ...` invocation plus the name of the oracle
that checks its output. Sizes are fixed per workload; the seed only draws
parameter values and `--seed` flags, never the amount of work. Jobs of one
pass run in order in one directory, so later jobs read tables written by
earlier ones.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

ALPHAS = ("sqrt2-1", "golden")
# degenerate sources: the funny-word probe must flag exactly these as exceeding
# the bound
FUNNY_VIOLATORS = ("odometer", "constant")
FUNNY_ODOMETER_PHI = "0,1,1,0"


@dataclass(frozen=True)
class Job:
    id: str
    argv: list[str]
    check: str
    params: dict = field(default_factory=dict)
    # exit codes that are a valid answer (certify encodes its verdict there)
    ok_codes: tuple[int, ...] = (0,)


def _lacunary_riesz(rng: random.Random, N: int) -> tuple[str, str]:
    freqs = [rng.choice((1, 2))]
    while True:
        nxt = freqs[-1] * rng.choice((3, 4))
        if nxt > N // 2:
            break
        freqs.append(nxt)
    amps = [round(rng.uniform(0.5, 0.95), 4) for _ in freqs]
    return ",".join(map(str, amps)), ",".join(map(str, freqs))


def certify_jobs(seed: int) -> list[Job]:
    """Spectral path: table builds, density certificates, SBH searches, PSD."""
    rng = random.Random(f"certify:{seed}")
    c_big = round(rng.uniform(0.25, 0.35), 4)
    c_small = round(rng.uniform(0.25, 0.35), 4)
    amps, freqs = _lacunary_riesz(rng, 256)
    s = [rng.randrange(1 << 16) for _ in range(3)]
    verdict = (0, 3, 4)
    return [
        Job("measure-sqrt-2048", ["measure", "sqrt", "--N", "2048", "--c", str(c_big),
                                  "--out", "sqrt2048.json"],
            "sqrt_table", {"out": "sqrt2048.json", "N": 2048, "c": c_big}),
        Job("measure-sqrt-1024", ["measure", "sqrt", "--N", "1024", "--c", str(c_small),
                                  "--out", "sqrt1024.json"],
            "sqrt_table", {"out": "sqrt1024.json", "N": 1024, "c": c_small}),
        Job("measure-arcsine4", ["measure", "arcsine4", "--in", "sqrt1024.json",
                                 "--out", "arc4.json"],
            "arcsine_table", {"in": "sqrt1024.json", "out": "arc4.json", "power": 4}),
        Job("measure-arcsine", ["measure", "arcsine", "--in", "sqrt1024.json",
                                "--out", "arc1.json"],
            "arcsine_table", {"in": "sqrt1024.json", "out": "arc1.json", "power": 1}),
        Job("measure-riesz", ["measure", "riesz", "--N", "256", "--a", amps, "--freq", freqs,
                              "--density-grid", "8192", "--density-csv", "riesz.csv",
                              "--out", "riesz.json"],
            "riesz_table", {"out": "riesz.json", "csv": "riesz.csv", "N": 256,
                            "a": amps, "freq": freqs, "grid": 8192}),
        Job("certify-sqrt-2048", ["certify", "--in", "sqrt2048.json", "--out", "cert-sqrt.json"],
            "certify", {"in": "sqrt2048.json", "out": "cert-sqrt.json",
                        "k": 4, "window": 8, "budget": 0}, verdict),
        Job("certify-arcsine4", ["certify", "--in", "arc4.json", "--out", "cert-arc4.json"],
            "certify", {"in": "arc4.json", "out": "cert-arc4.json",
                        "k": 4, "window": 8, "budget": 0}, verdict),
        Job("certify-arcsine-k8", ["certify", "--in", "arc1.json", "--k", "8", "--window", "16",
                                   "--budget", "2000", "--seed", str(s[0]),
                                   "--out", "cert-arc1.json"],
            "certify", {"in": "arc1.json", "out": "cert-arc1.json",
                        "k": 8, "window": 16, "budget": 2000}, verdict),
        Job("certify-riesz-k10", ["certify", "--in", "riesz.json", "--k", "10", "--window", "16",
                                  "--budget", "2000", "--seed", str(s[1]),
                                  "--out", "cert-riesz.json"],
            "certify", {"in": "riesz.json", "out": "cert-riesz.json",
                        "k": 10, "window": 16, "budget": 2000}, verdict),
        Job("certify-scan", ["certify", "--in", "sqrt1024.json", "--subsample-scan", "1..24",
                             "--seed", str(s[2]), "--out", "scan.json"],
            "certify_scan", {"in": "sqrt1024.json", "out": "scan.json", "lo": 1, "hi": 24,
                             "k": 4, "window": 8}, (0, 4)),
        Job("gaussian-cocycle-spec", ["gaussian", "cocycle", "--spec", "sqrt1024.json",
                                      "--nmax", "1024", "--out", "cocycle-spec.json"],
            "gaussian_cocycle", {"spec": "sqrt1024.json", "out": "cocycle-spec.json",
                                 "nmax": 1024, "M": 201}),
    ]


def correlate_jobs(seed: int) -> list[Job]:
    """Exact and series correlation tables of the concrete systems."""
    rng = random.Random(f"correlate:{seed}")
    a = [rng.choice(ALPHAS) for _ in range(5)]
    phi = ",".join(str(rng.randrange(2)) for _ in range(2**12))
    return [
        Job("rotation-12", ["system", "rotation", "--nmax", "12", "--alpha", a[0],
                            "--out", "rot.csv"],
            "rotation", {"out": "rot.csv", "nmax": 12, "alpha": a[0], "delta": 0.1,
                         "delta0": 0.5, "M": 201}),
        Job("rotation-8-wide", ["system", "rotation", "--nmax", "8", "--delta", "0.3",
                                "--M", "401", "--alpha", a[1], "--out", "rot-wide.csv"],
            "rotation", {"out": "rot-wide.csv", "nmax": 8, "alpha": a[1], "delta": 0.3,
                         "delta0": 0.5, "M": 401}),
        Job("nil-512", ["system", "nil", "--nmax", "512", "--alpha", a[2], "--out", "nil.csv"],
            "nil", {"out": "nil.csv", "nmax": 512, "alpha": a[2], "beta": 0.7,
                    "gamma": 0.0, "M": 201}),
        Job("nil-128-M2001", ["system", "nil", "--nmax", "128", "--M", "2001", "--alpha", a[3],
                              "--out", "nil-wide.csv"],
            "nil", {"out": "nil-wide.csv", "nmax": 128, "alpha": a[3], "beta": 0.7,
                    "gamma": 0.0, "M": 2001}),
        Job("odometer-2048", ["system", "odometer", "--phi", phi, "--nmax", "2048",
                              "--out", "odo.csv"],
            "odometer", {"out": "odo.csv", "nmax": 2048, "phi": phi}),
        Job("rudin-shapiro", ["system", "rudin-shapiro", "--L", str(2**22), "--nmax", "1024",
                              "--out", "rs.csv"],
            "rudin_shapiro", {"out": "rs.csv", "nmax": 1024, "L": 2**22}),
        Job("distal-2000", ["system", "distal", "--nmax", "2000", "--m-scale", "3",
                            "--alpha", a[4], "--out", "distal.csv"],
            "distal", {"out": "distal.csv", "nmax": 2000}),
        Job("gaussian-cocycle", ["gaussian", "cocycle", "--nmax", "4096", "--out", "cocycle.json"],
            "gaussian_cocycle", {"spec": None, "out": "cocycle.json", "nmax": 4096, "M": 201}),
        Job("gaussian-constants", ["gaussian", "constants", "--out", "constants.json"],
            "gaussian_constants", {"out": "constants.json"}),
    ]


def probe_jobs(seed: int) -> list[Job]:
    """Sampled names, the funny-word search and Gaussian Monte Carlo."""
    rng = random.Random(f"probe:{seed}")
    s = [rng.randrange(1 << 16) for _ in range(13)]
    alpha = rng.choice(ALPHAS)
    r_orth = round(rng.uniform(-0.8, 0.8), 4)
    r_prod = round(rng.uniform(0.2, 0.8), 4)
    funny = [
        ("rotation", ["--alpha", alpha]),
        ("rotation", ["--alpha", alpha, "--delta", "0.3"]),
        ("nil", ["--alpha", alpha]),
        ("distal", ["--alpha", alpha]),
        ("rudin-shapiro", []),
        ("odometer", ["--phi", FUNNY_ODOMETER_PHI]),
        ("constant", []),
    ]
    jobs = []
    for i, (system, extra) in enumerate(funny):
        out = f"funny-{i}.jsonl"
        jobs.append(Job(f"funny-{system}-{i}",
                        ["funny", "--system", system, "--k", "32", "--samples", "10000",
                         "--seed", str(s[i]), *extra, "--out", out],
                        "funny", {"out": out, "system": system, "k": 32, "horizon": 256,
                                  "n_random": 8, "eps": 0.1, "samples": 10000,
                                  "violates": system in FUNNY_VIOLATORS}))
    jobs.append(Job("funny-coin", ["funny", "--system", "coin", "--k", "64", "--horizon", "1024",
                                   "--n-random", "32", "--samples", "10000", "--seed", str(s[7]),
                                   "--out", "funny-coin.jsonl"],
                    "funny", {"out": "funny-coin.jsonl", "system": "coin", "k": 64,
                              "horizon": 1024, "n_random": 32, "eps": 0.1, "samples": 10000,
                              "violates": False}))
    jobs.append(Job("mc-orthant", ["gaussian", "orthant", "--r", str(r_orth), "--samples",
                                   "4000000", "--seed", str(s[8]), "--out", "orthant.json"],
                    "monte_carlo", {"out": "orthant.json", "r": r_orth, "level": 1,
                                    "samples": 4000000, "seed": s[8]}))
    jobs.append(Job("mc-product4", ["gaussian", "product", "--level", "4", "--r", str(r_prod),
                                    "--samples", "2000000", "--seed", str(s[9]),
                                    "--out", "product.json"],
                    "monte_carlo", {"out": "product.json", "r": r_prod, "level": 4,
                                    "samples": 2000000, "seed": s[9]}))
    for i, system in enumerate(("nil", "distal")):
        jobs.append(Job(f"names-{system}",
                        ["system", system, "--names", "4096", "--length", "1024",
                         "--alpha", alpha, "--seed", str(s[10 + i]), "--nmax", "4",
                         "--names-out", f"names-{system}.bin", "--out", f"names-{system}.csv"],
                        "names", {"out": f"names-{system}.csv", "names": f"names-{system}.bin",
                                  "system": system, "count": 4096, "length": 1024,
                                  "alpha": alpha, "nmax": 4}))
    return jobs


WORKLOADS = {"certify": certify_jobs, "correlate": correlate_jobs, "probe": probe_jobs}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](seed)


def jobs_to_json(jobs: list[Job]) -> str:
    """Canonical serialization, used to show that one seed gives one input set."""
    return json.dumps([asdict(j) for j in jobs], sort_keys=True)
