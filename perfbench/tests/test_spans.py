"""Self-time arithmetic, per-layer aggregation and the traced entry point."""

import json
import os
import subprocess
import sys

import pytest

import spans
import traced_cli
from conftest import BENCH, ROOT


def test_self_time_subtracts_union_of_children():
    tree = [
        [0, None, "cli.main", 0.0, 10.0, {}],
        [1, 0, "sbh.certify", 1.0, 3.0, {}],
        [2, 0, "fourier.read_measure", 2.0, 5.0, {}],   # overlaps span 1
        [3, 0, "fourier.write_measure", 8.0, 12.0, {}],  # clipped to the parent's end
        [4, 1, "fourier.density_sup", 1.5, 2.0, {}],    # grandchild of 0
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(0.5)


def test_union_length():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3.0)


def test_layer_metrics_on_a_synthetic_job():
    job = [
        [0, None, "cli.import", 0.0, 0.4, {}],
        [1, None, "cli.main", 0.5, 10.0, {}],
        [2, 1, "sbh.certify", 1.0, 9.0, {"N": 64, "verdict": "UNDECIDED"}],
        [3, 2, "fourier.density_sup", 1.0, 5.0, {"N": 64, "grid": 260}],
        [4, 3, "fourier.FourierTable.density", 1.5, 4.5, {"N": 64, "grid": 260}],
        [5, 2, "sbh.sbh_sup_exhaustive", 5.0, 8.0, {"N": 64, "k": 4, "window": 8}],
        [6, 1, "cli.render_json", 9.0, 9.5, {}],
    ]
    m = spans.layer_metrics([job, [[0, None, "sbh.certify", 0.0, 1.0, {"verdict": "CERTIFIED_SBH"}]]])
    assert m["cli.import_s"] == pytest.approx(0.4)
    assert m["cli.main.self_s"] == pytest.approx(9.5 - 8.0 - 0.5)
    assert m["sbh.certify.self_s"] == pytest.approx(8.0 - 4.0 - 3.0 + 1.0)
    assert m["fourier.density.self_s"] == pytest.approx(3.0)
    assert m["fourier.self_s"] == pytest.approx(4.0)
    assert m["fourier.density.points_x_coeffs"] == 260 * 129
    assert m["sbh.sbh_sup_exhaustive.forms"] == 70 * 8
    assert m["sbh.certify.calls"] == 2
    assert m["sbh.certify.decided_frac"] == 0.5
    assert m["cli.render_json.total_s"] == pytest.approx(0.5)
    assert m["funny.funny_word_search.self_s"] == 0.0


def test_benchmark_lists_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = {m["name"] for m in spec["per_layer"]}
    assert listed == set(spans.METRIC_NAMES) | {"trace.overhead_s"}


def test_recursive_calls_make_one_span():
    tracer = traced_cli.Tracer()

    def depth(obj):
        return 1 + max((traced(x) for x in obj), default=0) if isinstance(obj, list) else 0

    traced = tracer.wrap("cli.render_json", depth)
    assert traced([[[]], []]) == 3
    assert [s[2] for s in tracer.spans] == ["cli.render_json"]


def test_traced_job_records_aliases_and_methods(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "atlab.cli", "measure", "sqrt", "--N", "32",
                    "--out", "t.json"], cwd=tmp_path, env=env, check=True)
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "traced_cli.py"), "s.json", "j",
                           "--", "certify", "--in", "t.json", "--out", "r.json"],
                          cwd=tmp_path, env=env)
    assert proc.returncode in (0, 3, 4)
    recorded = json.loads((tmp_path / "s.json").read_text())["spans"]
    by_name = {s[2]: s for s in recorded}
    for name in ("cli.import", "cli.main", "sbh.certify", "fourier.density_sup",
                 "fourier.FourierTable.density", "fourier.read_measure", "fourier.l1_tail",
                 "sbh.sbh_sup_exhaustive", "cli.render_json", "cli._emit"):
        assert name in by_name, name
    assert by_name["fourier.density_sup"][1] == by_name["sbh.certify"][0]
    assert by_name["fourier.FourierTable.density"][5] == {"N": 32, "grid": 132}
    m = spans.layer_metrics([recorded])
    assert m["sbh.certify.calls"] == 1
    assert m["fourier.io.bytes"] == os.path.getsize(tmp_path / "t.json")
    assert m["cli.emit.bytes"] > 0
