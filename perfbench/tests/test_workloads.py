"""Seeded inputs: one seed gives one input set; the seed never changes the work."""

import re

import pytest

import run
import workloads

SIZE_FLAGS = {"--N", "--nmax", "--k", "--window", "--budget", "--samples", "--L", "--names",
              "--length", "--horizon", "--n-random", "--M", "--density-grid",
              "--subsample-scan", "--level"}


def sizes(jobs):
    out = []
    for job in jobs:
        argv = job.argv
        out.append((job.id, job.check, argv[0],
                    [(a, b) for a, b in zip(argv, argv[1:]) if a in SIZE_FLAGS]))
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes(workload):
    a = workloads.jobs_to_json(workloads.make_jobs(workload, 7))
    b = workloads.jobs_to_json(workloads.make_jobs(workload, 7))
    assert a == b
    assert a != workloads.jobs_to_json(workloads.make_jobs(workload, 8))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_values_not_sizes(workload):
    base = sizes(workloads.make_jobs(workload, 0))
    for seed in range(1, 20):
        assert sizes(workloads.make_jobs(workload, seed)) == base


def test_seeded_parameters_stay_in_range():
    for seed in range(50):
        jobs = {j.id: j for j in workloads.make_jobs("certify", seed)}
        assert 0.25 <= jobs["measure-sqrt-2048"].params["c"] <= 0.35
        rz = jobs["measure-riesz"].params
        amps = [float(a) for a in rz["a"].split(",")]
        freqs = [int(f) for f in rz["freq"].split(",")]
        assert all(0.5 <= a <= 0.95 for a in amps)
        assert all(b >= 3 * a for a, b in zip(freqs, freqs[1:]))
        odo = {j.id: j for j in workloads.make_jobs("correlate", seed)}["odometer-2048"]
        assert re.fullmatch(r"[01](,[01]){4095}", odo.params["phi"])


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(33)])
    assert (value, n) == (22.0, 33)
    assert pct == pytest.approx(100 * 23 / 33)
    assert sum(x > value for x in range(33)) == run.TAIL_BEYOND
