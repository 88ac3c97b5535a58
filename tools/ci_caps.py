"""Run CI's memory and exit-code rows, each in a child, and check them.

A row is (argv after the interpreter, expected exit, MiB cap or None,
RLIMIT_AS KiB or None). The rows run in order in one temporary directory with
OPENBLAS_NUM_THREADS=1. A row passes when its exit code matches, its peak RSS
is at or below its cap, and, if it expects exit 2, it prints exactly one
`error: ` line to stderr and leaves no new file. One line per row is printed;
the exit is 1 if any row failed.

    PYTHONPATH=src python3 tools/ci_caps.py

This parent imports neither numpy nor atlab: a child's ru_maxrss starts at its
forking parent's RSS (see perfbench/launcher.py). Each row's peak is the
child's own os.wait4 rusage; RUSAGE_CHILDREN is a running maximum over all
children, so one large row would hide every later row.
"""

import os
import resource
import shlex
import subprocess
import sys
import tempfile

CLI = ["-m", "atlab.cli"]
MC = ["--r", "0.5", "--samples", "16777216", "--seed", "1"]
SQRT = ["--in", "sqrt1024.json", "--k", "12"]

ROWS = [
    # `import atlab.cli` loads the standard library alone, about 14.7 MiB of RSS;
    # a top-level numpy import in cli.py (27.7 MiB) fails this row
    (["-c", "import atlab.cli"], 0, 20, None),
    # a level-4 Monte Carlo run holds three packed bits per sample and two
    # 2^16-sample blocks, about 43 MiB of RSS at the 2^24 cap (52 MiB with one uint8
    # per sample, 180 MiB while it stored the x0 draw); a full-size float64 array
    # coming back (+128 MiB) fails 96
    ([*CLI, "gaussian", "product", "--level", "4", *MC], 0, 96, None),
    # level 1 folds each block straight into the miss count and holds no state
    # plane: about 36.5 MiB of RSS (42.5 MiB with the three packed planes, which
    # fails 40; the cap was 96)
    ([*CLI, "gaussian", "orthant", *MC], 0, 40, None),
    # at 2 * samples * horizon = MAX_NAME_BITS = 2^26 the search reads the names one
    # block of 2048 at a time (256 KiB of packed step rows), the coin sampler draws
    # 64 names at a time, and the search unpacks the held-out bits of 8 of a
    # candidate's 64 rows of a block at a time: about 37.1 MiB of RSS (45.1 MiB with
    # the whole sample's rows, 8 MiB, which fails 42; 55 MiB with 256-name draws and
    # all 64 rows unpacked at once, 111 MiB while it held one uint8 per name bit;
    # the cap was 80)
    ([*CLI, "funny", "--system", "coin", "--k", "64", "--horizon", "1024",
      "--samples", "32768", "--seed", "1"], 0, 42, None),
    # names of 2^23 steps are drawn one at a time, 2^16 doubles a piece, into the
    # 8 MiB of step rows: about 44 MiB of RSS (636 MiB while 8 whole names were
    # drawn at once as 512 MiB of doubles)
    ([*CLI, "funny", "--system", "coin", "--k", "4", "--horizon", "8388608",
      "--samples", "4", "--n-random", "0", "--seed", "1"], 0, 96, None),
    # at names * length = MAX_NAME_BITS = 2^26 the nil sampler yields blocks of 2048
    # names (256 KiB of packed step rows) from x, y and z of all names (1.5 MiB), and
    # the writer unpacks 256 KiB of names at a time: about 38.8 MiB of RSS (47.7 MiB
    # with the whole batch's rows, 8 MiB, which fails 44; 115 MiB while the batch was
    # unpacked to one uint8 per name bit and repacked; the cap was 64)
    ([*CLI, "system", "nil", "--names", "65536", "--length", "1024", "--nmax", "4"],
     0, 44, None),
    # the 2^26-sign Rudin-Shapiro prefix is built as its sign bits in one uint8 array,
    # doubled in place (64 MiB): about 100.5 MiB of RSS (164 MiB while int8 doubling
    # held the last two prefixes and a bool copy, which fails 128; 228 MiB while a
    # substitution built letter and sign arrays of the full length; the cap was 192)
    ([*CLI, "funny", "--system", "rudin-shapiro", "--log2-length", "26", "--samples", "16",
      "--k", "4", "--horizon", "8"], 0, 128, None),
    # at the largest nmax, 2^22, the lag sums build P and Q (2^23 signs each) and run
    # one zero-padded 2^24-point correlation at a time: about 434 MiB of RSS (466 MiB
    # while _lag_sums cut its input into blocks and held two block spectra per step)
    (["-c", "from atlab import systems; systems.rudin_shapiro_lag_sums(2**62, 2**22)"],
     0, 512, None),
    # the widest sqrt table is written 2^16 coefficients at a time: about 225 MiB of
    # RSS (1212 MiB while the whole table was rendered to one JSON string)
    ([*CLI, "measure", "sqrt", "--N", "4194304", "--out", "s.json"], 0, 256, None),
    # reading that file back, json.load holds every row as Python objects, over 1 GiB,
    # so under ulimit -v 1200000 an allocation fails: one error line and exit 2, no
    # file written (a 22-line traceback and exit 1 while main let MemoryError through)
    ([*CLI, "certify", "--in", "s.json", "--out", "c.json"], 2, None, 1200000),
    # read in process, that file peaks at about 995 MiB of RSS, nearly all json.load's
    # rows, which the reader checks and fills one at a time (1284 MiB while it first
    # copied every row into a list of tuples)
    (["-c", "from atlab import fourier; fourier.read_measure('s.json')"], 0, 1100, None),
    # the widest Riesz table, 15 factors at 3^0..3^14, multiplied into the table in place
    # by two slice updates a factor: about 196 MiB of RSS, mostly the table and the
    # FourierTable constructor's copy and checks (218 MiB with one index array a factor;
    # 423 MiB while a walk held all 3^15 sign patterns, 1193 MiB with the whole JSON string)
    ([*CLI, "measure", "riesz", "--N", "4194304", "--a", ",".join(["0.5"] * 15),
      "--freq", ",".join(str(3**j) for j in range(15))], 0, 224, None),
    # 2^20 Rudin-Shapiro lags of L = 2^62 signs, formatted from the table's arrays 2^16
    # rows at a time: about 139 MiB of RSS, nearly all the lag sums (235 MiB with one
    # tuple per lag, which fails 176; 459 MiB with the whole CSV string)
    ([*CLI, "system", "rudin-shapiro", "--L", str(2**62), "--nmax", "1048576"], 0, 176, None),
    # the widest distal table is one float64 array of zeros, 32 MiB, and its method and
    # error bar one value each: about 45 MiB of RSS (519 MiB with one tuple per lag)
    ([*CLI, "system", "distal", "--nmax", "4194304"], 0, 96, None),
    # the widest nil table labels its lags from one two-entry object array of str, 8 bytes
    # a lag, and fills its error bars with no int64 index array: about 112 MiB of RSS
    # (127 MiB with the index array, which fails 120; 191 MiB with a <U6 array of 24
    # bytes a lag)
    ([*CLI, "system", "nil", "--nmax", "4194304"], 0, 120, None),
    # 2^20 rotation lags: every lag past 9 is +0.0 without a Bessel sum (the lags from
    # bessel._rotation_zero_lag on), about 66 MiB of RSS, nearly all the table's columns and
    # the CSV, in about 1.3 s; evaluating every lag took 77 s and 82 MiB, which fails 76
    ([*CLI, "system", "rotation", "--nmax", "1048576"], 0, 76, None),
    # at names * length = MAX_NAME_BITS = 2^26 the odometer sampler packs the 2m = 8 step
    # rows of one period and copies them forward in place, and write_name_blocks unpacks 8 names
    # at a time, 64 MiB: about 124 MiB of RSS (tiling the period through an index array
    # of every step reads 163 MiB and fails 144)
    ([*CLI, "system", "odometer", "--phi", "0,1,1,0", "--names", "8", "--length", "8388608",
      "--nmax", "4"], 0, 144, None),
    ([*CLI, "measure", "sqrt", "--N", "1024", "--c", "0.3", "--out", "sqrt1024.json"],
     0, None, None),
    # the pair bound stops the exact search at k = 12, window = 24 on a sqrt table
    # after its first chunk of 2^16 forms (exit 3, where the full scan exceeded its budget),
    # and the flip/move heuristic runs 2000 moves; about 74 MiB of RSS, much of it
    # a bound and a rank for each of the C(23, 11) subsets that hold 0
    ([*CLI, "certify", *SQRT, "--window", "24", "--budget", "2000"], 3, 256, None),
    # at the 2^22 window cap the flip/move heuristic scores its moves 2^16 / k rows at a
    # time and holds the lags, x and h, about 155 MiB of RSS; whole window x k arrays
    # per step peaked at 1335 MiB
    ([*CLI, "certify", *SQRT, "--budget", "1", "--window", "4194304"], 3, 400, None),
    # the constant chain's 10^6-term series is summed in 2^16-term blocks, about
    # 31.5 MiB of RSS; the full-length expression it replaced peaked at 53
    ([*CLI, "gaussian", "constants"], 0, 45, None),
    # a spec check at N = 16384: the grid bound reads d_N on G = 64N = 2^20 points as
    # 16 rotated grids of 2^16, about 40 MiB of RSS; a return to one 2^20-point grid
    # reads 82-86 MiB, which 112 still passes, and the N = 131072 row below fails it
    ([*CLI, "measure", "riesz", "--N", "16384", "--a", "0.5,0.5,0.5", "--freq", "1,3,9",
      "--out", "riesz16384.json"], 0, None, None),
    ([*CLI, "gaussian", "cocycle", "--spec", "riesz16384.json"], 0, 112, None),
    # at N = 131072 the 2^23 grid points are read as 16 grids of 2^19, about 81 MiB of
    # RSS; one 2^23-point grid holds two 128 MiB complex arrays, 429 MiB
    ([*CLI, "measure", "riesz", "--N", "131072", "--a", "0.5,0.5,0.5", "--freq", "1,3,9",
      "--out", "riesz131072.json"], 0, None, None),
    ([*CLI, "gaussian", "cocycle", "--spec", "riesz131072.json"], 0, 128, None),
    # the cocycle table takes 2^16 exponentials at a time, about 47 MiB of RSS at
    # nmax = 65536; all 65536 x 202 at once (M = 201) add over 100 MiB and pass 64
    ([*CLI, "gaussian", "cocycle", "--nmax", "65536"], 0, 64, None),
    # the lag sums of L = 2^40 signs build P and Q of B = 8192 signs, B following nmax:
    # about 31 MiB of RSS; B at 2^20, whatever nmax, peaks at 135 MiB and passes 45
    ([*CLI, "system", "rudin-shapiro", "--L", str(2**40), "--nmax", "4096"], 0, 45, None),
]


def run_row(argv, code, cap, as_kib, cwd) -> bool:
    """Run one row in cwd, print its line and return whether it passed."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (as_kib * 1024, as_kib * 1024))
    # the rows run elsewhere, so a relative PYTHONPATH (src) is made absolute
    path = [os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(path)}
    before = set(os.listdir(cwd))
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, preexec_fn=limit if as_kib else None)
        _, status, usage = os.wait4(proc.pid, 0)
        # the child is reaped; record its status so Popen does not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        lines = err.read().decode(errors="replace").splitlines()
    peak = usage.ru_maxrss / 1024  # KiB on Linux
    ok = proc.returncode == code and (cap is None or peak <= cap)
    if code == 2:
        ok = (ok and len(lines) == 1 and lines[0].startswith("error: ")
              and set(os.listdir(cwd)) <= before)
    print(f"{'ok' if ok else 'FAIL'}: {shlex.join(argv)}: exit {proc.returncode} "
          f"(want {code}), peak {peak:.1f} MiB (cap {cap})", flush=True)
    if not ok:
        print("\n".join(lines), flush=True)
    return ok


def main(rows=ROWS) -> int:
    with tempfile.TemporaryDirectory() as cwd:
        results = [run_row(*row, cwd) for row in rows]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
