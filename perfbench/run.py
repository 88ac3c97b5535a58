"""atlab benchmark: seeded CLI job lists run in a closed loop, every output checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify|correlate|probe --seed N \
        --seconds S --trace 0|1

One client runs one job at a time; each job is a fresh
``python -m atlab.cli ...`` process with ``PYTHONPATH=src``. The run first
times cold imports of ``atlab.cli`` (set-up), then repeats the workload's job
list in passes while another pass fits in ``--seconds``. Every job output is
checked by an independent oracle (``oracles.py``); a failed check, a wrong
exit code or a timeout counts as a failed job.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` passes alternate between traced runs
(``traced_cli.py``, spans around each public atlab function) and untraced
ones; the last line reports the per-layer metrics, medians over the traced
passes, plus the tracing overhead. Lines before the last one give the
environment, every metric with its unit, and the tail percentile used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from time import perf_counter

import oracles
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# a run makes seconds // NOMINAL_PASS_S passes, so the work per run does not
# depend on how fast this machine happens to be; each workload's pass takes
# about this long on 2 cores
NOMINAL_PASS_S = 12.0
TAIL_BEYOND = 10
JOB_TIMEOUT_S = 120.0
# one BLAS thread per job process: with OpenBLAS's default of one thread per
# core, run-to-run spread on a shared 2-core machine was 2-3 times wider
JOB_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# outputs a job writes, by parameter name; hashed to recognise a repeat of a
# checked output
OUTPUT_KEYS = ("out", "csv", "names")


@dataclass
class JobRun:
    job: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    reason: str = ""


class Launcher:
    """Client of ``launcher.py``, which starts every timed process."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv: list[str], cwd: str, stdout: str, stderr: str,
            timeout: float = JOB_TIMEOUT_S) -> tuple[int | None, float, float, float]:
        """(exit code or None on timeout, wall s, cpu s, peak RSS MiB) of one process."""
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": cwd, "stdout": stdout,
                                          "stderr": stderr, "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        r = json.loads(line)
        return r["code"], r["wall_s"], r["cpu_s"], r["rss_mb"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def output_digest(workdir: str, job: workloads.Job, code: int, stderr: str) -> str:
    h = hashlib.sha256(f"{code}\n{stderr}".encode())
    for key in OUTPUT_KEYS:
        if key in job.params:
            path = os.path.join(workdir, job.params[key])
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class Bench:
    def __init__(self, launcher: Launcher, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.launcher = launcher
        self.jobs = workloads.make_jobs(workload, seed)
        self.seconds = seconds
        self.trace = trace
        self.checked: dict[str, str] = {}
        self.failures: list[str] = []

    def setup_time(self, workdir: str) -> float:
        """One cold start of ``python -c 'import atlab.cli'``."""
        code, wall, _, _ = self.launcher.run([sys.executable, "-c", "import atlab.cli"], workdir,
                                             os.path.join(workdir, "setup.out"),
                                             os.path.join(workdir, "setup.err"))
        if code != 0:
            with open(os.path.join(workdir, "setup.err")) as fh:
                raise RuntimeError(f"import atlab.cli failed: {fh.read()[-300:]}")
        return wall

    def run_job(self, job: workloads.Job, workdir: str, traced: bool) -> tuple[JobRun, list]:
        base = os.path.join(workdir, job.id)
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), base + ".spans",
                    job.id, "--", *job.argv]
        else:
            argv = [sys.executable, "-m", "atlab.cli", *job.argv]
        code, wall, cpu, rss = self.launcher.run(argv, workdir, base + ".stdout",
                                                 base + ".stderr")
        with open(base + ".stderr", errors="replace") as fh:
            stderr = fh.read()
        job_spans = []
        if traced and os.path.exists(base + ".spans"):
            with open(base + ".spans") as fh:
                job_spans = json.load(fh)["spans"]
        run = JobRun(job.id, wall, cpu, rss, ok=True)
        if code is None:
            run.ok, run.reason = False, f"timed out after {JOB_TIMEOUT_S:.0f} s"
        elif code not in job.ok_codes:
            run.ok, run.reason = False, f"exit code {code}: {stderr.strip()[-200:]}"
        else:
            digest = output_digest(workdir, job, code, stderr)
            if self.checked.get(job.id) != digest:
                try:
                    oracles.check(job.check, workdir, job.params, code, stderr)
                    self.checked[job.id] = digest
                except oracles.CheckFailed as exc:
                    run.ok, run.reason = False, f"check failed: {exc}"
                except Exception as exc:  # a checker crash is a failed check, with its cause
                    run.ok, run.reason = False, (
                        f"checker error: {traceback.format_exception_only(exc)[-1].strip()}")
        if not run.ok:
            self.failures.append(f"{job.id}: {run.reason}")
        return run, job_spans

    def run(self, workdir: str) -> dict:
        start = perf_counter()
        self.setup_time(workdir)  # may compile bytecode: not counted
        # set-up samples are spread over the run, two before the first pass and
        # one after each pass, so the median sees the same machine as the jobs
        setup = [self.setup_time(workdir) for _ in range(2)]
        passes: list[tuple[bool, list[JobRun], list]] = []
        longest = 0.0
        min_passes = 2 if self.trace else 1
        planned = max(min_passes, int(self.seconds // NOMINAL_PASS_S))
        # on a machine much slower than nominal, stop early rather than overrun
        deadline = start + 2.0 * self.seconds
        while len(passes) < min_passes or (
                len(passes) < planned and perf_counter() + longest <= deadline):
            traced = self.trace and len(passes) % 2 == 0
            pass_dir = os.path.join(workdir, f"pass{len(passes)}")
            os.makedirs(pass_dir)
            t0 = perf_counter()
            runs, traces = [], []
            for job in self.jobs:
                run, job_spans = self.run_job(job, pass_dir, traced)
                runs.append(run)
                traces.append(job_spans)
            longest = max(longest, perf_counter() - t0)
            passes.append((traced, runs, traces))
            shutil.rmtree(pass_dir)
            setup.append(self.setup_time(workdir))
        return {"setup": setup, "passes": passes, "elapsed": perf_counter() - start}


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it,
    that percentile, and the sample count."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(result: dict) -> tuple[dict[str, float], str]:
    plain = [runs for traced, runs, _ in result["passes"] if not traced]
    per_job: dict[str, list[JobRun]] = {}
    for runs in plain:
        for r in runs:
            per_job.setdefault(r.job, []).append(r)
    pooled = [r.wall_s for runs in plain for r in runs]
    attempted = sum(len(runs) for _, runs, _ in result["passes"])
    failed = sum(not r.ok for _, runs, _ in result["passes"] for r in runs)
    tail_s, pct, n = tail(pooled)
    metrics = {
        # sum over jobs of each job's median over the run's passes
        "wall_s": sum(statistics.median(r.wall_s for r in rs) for rs in per_job.values()),
        "job_p50_s": statistics.median(pooled),
        "job_tail_s": tail_s,
        "cpu_s": sum(statistics.median(r.cpu_s for r in rs) for rs in per_job.values()),
        "peak_rss_mb": max(r.rss_mb for runs in plain for r in runs),
        "setup_s": statistics.median(result["setup"]),
        "fail_frac": failed / attempted,
    }
    note = (f"job_tail_s is p{pct:.1f} of {n} job times ({TAIL_BEYOND} beyond it); "
            f"{len(plain)} untraced passes")
    return metrics, note


def per_layer(result: dict) -> tuple[dict[str, float], list]:
    traced = [(runs, tr) for is_traced, runs, tr in result["passes"] if is_traced]
    plain = [runs for is_traced, runs, _ in result["passes"] if not is_traced]
    per_pass = [spans.layer_metrics(tr) for _, tr in traced]
    metrics = {k: statistics.median(d[k] for d in per_pass) for k in spans.METRIC_NAMES}
    traced_wall = statistics.median(sum(r.wall_s for r in runs) for runs, _ in traced)
    plain_wall = statistics.median(sum(r.wall_s for r in runs) for runs in plain)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics, spans.scaling_rows(traced[0][1])


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas_version = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_version, "job_threads": JOB_THREADS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "atlab", "cli.py")):
        print("error: run from the repository root; src/atlab/cli.py not found", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    print("env: " + json.dumps(environment(args.seed)), flush=True)
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    env = dict(os.environ, **JOB_THREADS, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src")] + ([os.environ["PYTHONPATH"]]
                                       if os.environ.get("PYTHONPATH") else [])))
    launcher = Launcher(env)
    try:
        bench = Bench(launcher, args.workload, args.seed, args.seconds, bool(args.trace))
        result = bench.run(workdir)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, note = end_to_end(result)
    for f in bench.failures:
        print(f"FAILED {f}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_frac"] = "ratio"
    print(f"workload {args.workload}, seed {args.seed}: {len(result['passes'])} passes "
          f"of {len(bench.jobs)} jobs in {result['elapsed']:.1f} s; pass job time sums "
          + ", ".join(f"{sum(r.wall_s for r in runs):.3f}{' traced' if traced else ''}"
                      for traced, runs, _ in result["passes"]))
    for job in bench.jobs:
        rs = [r for traced, runs, _ in result["passes"] if not traced for r in runs
              if r.job == job.id]
        print(f"  job {job.id:<24} wall_s {statistics.median(r.wall_s for r in rs):8.3f}"
              f"  cpu_s {statistics.median(r.cpu_s for r in rs):8.3f}"
              f"  rss_mb {max(r.rss_mb for r in rs):7.1f}")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:12.6f} {units[name]}")
    print(f"  ({note})")
    if args.trace:
        layers, scaling = per_layer(result)
        for name in sorted(layers):
            print(f"  {name:<52} {layers[name]:16.6f} {units.get(name, '')}")
        print("  self time by size (first traced pass):")
        for name, size, calls, self_s in scaling:
            sizes = " ".join(f"{k}={v}" for k, v in size)
            print(f"    {name:<44} {sizes:<32} calls={calls:<6} self_s={self_s:.6f}")
        chosen, names = layers, spec["per_layer"]
    else:
        chosen, names = e2e, spec["end_to_end"]
    attempted = sum(len(runs) for _, runs, _ in result["passes"])
    failed = len(bench.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": chosen[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
