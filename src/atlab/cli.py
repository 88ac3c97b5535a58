"""Command-line front end: reproducible experiments with machine-readable output.

Exit codes: 0 success (certify: CERTIFIED_SBH), 2 invalid parameters or an
unreadable or unwritable file, 3 certify CERTIFIED_NOT_SBH, 4 certify UNDECIDED.
`main` alone maps errors to exit 2: the `cmd_*` functions raise ValueError on
bad input, and `main` turns it, or an OSError, into one `error:` line.
`measure` picks its kind from `_MEASURES`: adding a kind takes one entry there.
`system` and `funny` share one table of systems, `_SYSTEMS`: adding a system
takes one `NameSource` subclass and one `_SYSTEMS` entry (and, if it defines
`table`, one `_ROW_SYSTEMS` entry).  `system` prints the source's `table` and
samples its names; `funny` samples names from it.
Every output goes through one text sink, `_emit`, which writes to `--out`, stdout
or both in one pass.  A command computes and checks every value first, then hands
`_emit` its text in pieces (2^16 table coefficients or CSV rows, or a `funny`
line), so no output is held whole and a failed check leaves no file; an unwritable
`--density-csv` still leaves `--out` written.  `system --names` writes its batch
block by block before the CSV and removes it if either fails.
`import atlab.cli` loads the standard library alone: numpy and every atlab
module are imported by the commands that use them, so `--help`, a usage error
or a bad `--config` key exits before numpy loads, `measure` loads `fourier`
alone and `certify` adds `sbh`.  Each command calls `module.func` when it runs,
so a rebound (e.g. traced) function is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys


# ---------------------------------------------------------------------------
# serialization: json and repr print a float in its shortest round-trip form;
# allow_nan=False makes a non-finite value exit 2, never a NaN certificate


def render_json(obj) -> str:
    return json.dumps(obj, allow_nan=False) + "\n"


def _emit(payload, out, stdout=False) -> None:
    """The one text sink: payload is one str or an iterable of str pieces."""
    pieces = (payload,) if isinstance(payload, str) else payload
    if not out:
        return sys.stdout.writelines(pieces)
    with open(out, "w") as fh:
        for piece in pieces:
            fh.write(piece)
            if stdout:
                sys.stdout.write(piece)


def _parse_alpha(s: str) -> float:
    from . import systems
    named = {"sqrt2-1": systems.SQRT2_M1, "golden": systems.GOLDEN_M1}
    if s in named:
        return named[s]
    x = float(s)
    # each double with |alpha| >= 2^52 is an integer (the identity), and 2 pi alpha j overflows
    if not abs(x) < 2**52:
        raise ValueError(f"need |alpha| < 2**52, got {s}")
    return x


def correlation_csv(values, method, error_bar):
    """The CSV rows of values = c(0..nmax), 2^16 a piece; method and error_bar are each
    one value for every lag or an array like values."""
    import numpy as np
    cols = [values, *(np.broadcast_to(x, len(values)) for x in (method, error_bar))]
    yield "n,re,im,method,error_bar\n"
    for i in range(0, len(values), 2**16):
        yield "".join(f"{n},{v.real!r},{v.imag!r},{m},{e!r}\n" for n, v, m, e in
                      zip(range(i, len(values)), *(c[i:i + 2**16].tolist() for c in cols)))


# ---------------------------------------------------------------------------
# subcommands: straight-line code that raises ValueError on bad input


def _read_in(fourier, args):
    """The table read from --in, which the transform kinds of `measure` need."""
    if not args.infile:
        raise ValueError(f"measure {args.kind} needs --in")
    return fourier.read_measure(args.infile)


# kind -> builder of the table from the `fourier` module and the parsed args
_MEASURES = {
    "lebesgue": lambda fourier, a: fourier.lebesgue_table(a.N),
    "dirac": lambda fourier, a: fourier.dirac_table(a.N),
    "riesz": lambda fourier, a: fourier.riesz_product([float(x) for x in a.a.split(",")],
                                                      [int(x) for x in a.freq.split(",")],
                                                      a.N),
    "sqrt": lambda fourier, a: fourier.sqrt_template(a.c, a.N),
    "arcsine": lambda fourier, a: fourier.arcsine_transform(_read_in(fourier, a)),
    "arcsine4": lambda fourier, a: fourier.arcsine_fourth_transform(_read_in(fourier, a)),
    "subsample": lambda fourier, a: fourier.power_subsample(_read_in(fourier, a), a.m),
}


def cmd_measure(args) -> int:
    import numpy as np

    from . import fourier
    # a wider table could not be read back by --in or certify
    if not 0 <= args.N <= fourier.MAX_HALF_WIDTH:
        raise ValueError(f"need 0 <= --N <= {fourier.MAX_HALF_WIDTH}, got {args.N}")
    # the default grid of the widest table, which density_sup also reads
    max_grid = 4 * fourier.MAX_HALF_WIDTH + 4
    if args.density_grid is not None and not 1 <= args.density_grid <= max_grid:
        raise ValueError(f"need 1 <= --density-grid <= {max_grid}, got {args.density_grid}")
    t = _MEASURES[args.kind](fourier, args)
    if args.density_csv:
        grid = args.density_grid or max(4 * t.half_width + 4, 256)
        thetas, density = np.arange(grid) / grid, t.density(grid)
    _emit(fourier.table_json_pieces(t), args.out, args.stdout)
    if args.density_csv:
        # tolist() gives Python floats; repr round-trips them
        _emit((("theta,density\n" if i == 0 else "")
               + "".join(f"{th!r},{v!r}\n" for th, v in zip(thetas[i:i + 2**16].tolist(),
                                                             density[i:i + 2**16].tolist()))
               for i in range(0, grid, 2**16)), args.density_csv)
    return 0


_EXITCODE = {"CERTIFIED_SBH": 0, "CERTIFIED_NOT_SBH": 3, "UNDECIDED": 4}


def cmd_certify(args) -> int:
    import dataclasses

    from . import fourier, sbh
    if args.window > fourier.MAX_HALF_WIDTH:
        raise ValueError(f"need --window <= {fourier.MAX_HALF_WIDTH}, got {args.window}")
    t = fourier.read_measure(args.infile)
    if not args.subsample_scan:
        rep = sbh.certify(t, k=args.k, window=args.window, seed=args.seed,
                          heuristic_budget=args.budget)
        _emit(render_json(dataclasses.asdict(rep)), args.out, args.stdout)
        return _EXITCODE[rep.verdict]
    try:
        lo, hi = (int(x) for x in args.subsample_scan.split(".."))
    except ValueError:
        raise ValueError("--subsample-scan expects LO..HI") from None
    if lo > hi:
        raise ValueError(f"--subsample-scan range {lo}..{hi} is empty")
    # every m > N subsamples to the table c(0) alone, which m = N + 1 already reports
    if hi > t.half_width + 1:
        raise ValueError(f"--subsample-scan HI must be <= half_width + 1 = {t.half_width + 1}, "
                         f"got {hi}")
    reports = []
    for m in range(lo, hi + 1):
        rep = sbh.certify(fourier.power_subsample(t, m), k=args.k, window=args.window,
                          seed=args.seed, heuristic_budget=args.budget)
        reports.append({"m": m, "report": dataclasses.asdict(rep)})
    found = next((r["m"] for r in reports if r["report"]["verdict"] == "CERTIFIED_SBH"), None)
    _emit(render_json({"first_certified_m": found, "scan": reports}), args.out, args.stdout)
    return 0 if found is not None else 4


# name -> the name of its NameSource subclass in `systems`, looked up when a
# command runs
_SYSTEMS = {
    "rudin-shapiro": "RudinShapiroSource",
    "nil": "NilRotationSource",
    "rotation": "RotationCocycleSource",
    "distal": "DistalSource",
    "odometer": "OdometerExtensionSource",
    "coin": "CoinSource",
    "constant": "ConstantSource",
}
# the systems whose source defines `table`, which `system` offers (a test pins this,
# so the parser needs no import of `systems`)
_ROW_SYSTEMS = ("rudin-shapiro", "nil", "rotation", "distal", "odometer")


def _system(args):
    """A builder of args.system's source, with --alpha and --phi parsed in place: it
    gets each option named like a constructor parameter (`funny` has no --L, so
    there L keeps its default)."""
    import inspect

    from . import systems
    if not 0 <= args.log2_length <= systems.MAX_LOG2_LENGTH:
        raise ValueError(f"need 0 <= --log2-length <= {systems.MAX_LOG2_LENGTH}, "
                         f"got {args.log2_length}")
    args.alpha = _parse_alpha(args.alpha)
    args.phi = [int(x) for x in args.phi.split(",")]
    bad = [p for p in args.phi if not -2**63 <= p < 2**63]
    if bad:
        raise ValueError(f"need every --phi value in [-2**63, 2**63), got {bad[0]}")
    cls = getattr(systems, _SYSTEMS[args.system])
    return functools.partial(cls, **{p: getattr(args, p) for p in
                                     inspect.signature(cls).parameters if hasattr(args, p)})


def cmd_system(args) -> int:
    from . import fourier, systems
    make_source = _system(args)
    if not 0 <= args.nmax <= fourier.MAX_HALF_WIDTH or args.names < 0 or args.length < 1:
        raise ValueError(f"need 0 <= --nmax <= {fourier.MAX_HALF_WIDTH}, --names >= 0 "
                         "and --length >= 1")
    if not 1 <= args.L <= systems.MAX_LENGTH:
        raise ValueError(f"need 1 <= --L <= 2**62, got {args.L}")
    if args.names * args.length > systems.MAX_NAME_BITS:
        raise ValueError(f"need --names * --length <= {systems.MAX_NAME_BITS}, "
                         f"got {args.names} * {args.length}")
    if args.names > systems.MAX_NAMES:
        raise ValueError(f"need --names <= {systems.MAX_NAMES}, got {args.names}")
    source = make_source()
    csv = correlation_csv(*source.table(args.nmax))
    path = args.names_out or "names.bin"
    if args.names:  # streamed block by block; a failed batch removes its file
        systems.write_name_blocks(source.name_blocks(args.names, args.length, args.seed),
                                  args.names, args.length, path)
    try:
        _emit(csv, args.out, args.stdout)
    except BaseException:
        if args.names:
            os.remove(path)
        raise
    return 0


def cmd_gaussian(args) -> int:
    import dataclasses

    from . import fourier, gaussian
    mode = args.mode
    if mode == "constants":
        _emit(render_json(dataclasses.asdict(gaussian.gnoat_constant_check())), args.out,
              args.stdout)
        return 0
    if mode == "cocycle" and not 0 <= args.nmax <= fourier.MAX_HALF_WIDTH:
        raise ValueError(f"need 0 <= --nmax <= {fourier.MAX_HALF_WIDTH}, got {args.nmax}")
    if mode != "cocycle" and not 1 <= args.n <= fourier.MAX_HALF_WIDTH:
        raise ValueError(f"need 1 <= --n <= {fourier.MAX_HALF_WIDTH}, got {args.n}")
    if mode != "cocycle" and args.samples > gaussian.MAX_MC_SAMPLES:
        raise ValueError(f"need --samples <= {gaussian.MAX_MC_SAMPLES}, got {args.samples}")
    lag = args.n
    if args.spec:
        spec = gaussian.GaussianSpec.from_fourier_table(fourier.read_measure(args.spec))
    elif mode == "cocycle":
        spec = gaussian.white_noise_spec(args.nmax)
    else:
        spec, lag = gaussian.GaussianSpec([1.0, args.r]), 1
    if mode == "cocycle":
        table = gaussian.cocycle_correlation_table(spec, args.M, args.nmax)
        text = fourier.table_json_pieces(table)
    else:
        level = 1 if mode == "orthant" else args.level
        rep = gaussian.product_orthant_mc(spec, lag, level, args.samples, args.seed)
        text = render_json(dataclasses.asdict(rep))
    _emit(text, args.out, args.stdout)
    return 0


def cmd_funny(args) -> int:
    from . import funny, systems
    src = _system(args)()
    fam = funny.LambdaFamily(k=args.k, horizon=args.horizon, n_random=args.n_random)
    if 2 * args.samples * args.horizon > systems.MAX_NAME_BITS:
        raise ValueError(f"need 2 * --samples * --horizon <= {systems.MAX_NAME_BITS}, "
                         f"got 2 * {args.samples} * {args.horizon}")
    if 2 * args.samples > systems.MAX_NAMES:
        raise ValueError(f"need 2 * --samples <= {systems.MAX_NAMES}, got 2 * {args.samples}")
    rep = funny.funny_word_search(src, fam, args.eps, args.samples, args.seed)
    _emit((render_json({**row.to_json_obj(), "caveat": rep.caveat}) for row in rep.rows),
          args.out, args.stdout)
    if rep.violations():
        print("note: bound exceeded by at least one candidate (degenerate dynamics?)",
              file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser; keeps its options by dest for --config defaults."""

    def __init__(self, **kwargs):
        self.options = {}
        super().__init__(**kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings and action.default is not argparse.SUPPRESS:
            self.options[action.dest] = action
        return action


def _add_common(p):
    p.add_argument("--out", default=None)
    p.add_argument("--stdout", action="store_true")
    p.add_argument("--config", default=None)


def _add_system_params(p, delta: float):
    """The parameters of the systems in _SYSTEMS, shared by system and funny."""
    p.add_argument("--alpha", default="sqrt2-1")
    p.add_argument("--beta", type=float, default=0.7)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=delta)
    p.add_argument("--delta0", type=float, default=0.5)
    p.add_argument("--M", type=int, default=201)
    p.add_argument("--phi", default="0,1")
    p.add_argument("--log2-length", type=int, default=20)


def build_parser() -> tuple[argparse.ArgumentParser, list[_CommandParser]]:
    ap = argparse.ArgumentParser(prog="atlab")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_CommandParser)

    m = sub.add_parser("measure", help="build or transform circle-measure tables")
    m.add_argument("kind", choices=list(_MEASURES))
    m.add_argument("--N", type=int, default=64)
    m.add_argument("--a", default="1")
    m.add_argument("--freq", default="1")
    m.add_argument("--c", type=float, default=0.3)
    m.add_argument("--m", type=int, default=2)
    m.add_argument("--in", dest="infile", default=None)
    m.add_argument("--density-csv", default=None)
    m.add_argument("--density-grid", type=int, default=None)
    _add_common(m)
    m.set_defaults(func=cmd_measure)

    c = sub.add_parser("certify", help="SBH certificates and verdict")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--k", type=int, default=4)
    c.add_argument("--window", type=int, default=8)
    c.add_argument("--budget", type=int, default=0)
    c.add_argument("--subsample-scan", default=None)
    c.add_argument("--seed", type=int, default=0)
    _add_common(c)
    c.set_defaults(func=cmd_certify)

    s = sub.add_parser("system", help="correlation tables and name batches")
    s.add_argument("system", choices=list(_ROW_SYSTEMS))
    s.add_argument("--L", type=int, default=2**20)
    s.add_argument("--nmax", type=int, default=16)
    # unused (distal tables are 0 at every scale): the benchmark's distal job passes it
    s.add_argument("--m-scale", type=int, default=1)
    s.add_argument("--names", type=int, default=0)
    s.add_argument("--length", type=int, default=256)
    s.add_argument("--names-out", default=None)
    s.add_argument("--seed", type=int, default=0)
    _add_system_params(s, delta=0.1)
    _add_common(s)
    s.set_defaults(func=cmd_system)

    g = sub.add_parser("gaussian", help="orthant laws, cocycle tables, constants")
    g.add_argument("mode", choices=["orthant", "product", "cocycle", "constants"])
    g.add_argument("--r", type=float, default=0.5)
    g.add_argument("--n", type=int, default=1)
    g.add_argument("--level", type=int, default=2, choices=[2, 4])
    g.add_argument("--samples", type=int, default=10**6)
    g.add_argument("--spec", default=None)
    g.add_argument("--M", type=int, default=201)
    g.add_argument("--nmax", type=int, default=8)
    g.add_argument("--seed", type=int, default=0)
    _add_common(g)
    g.set_defaults(func=cmd_gaussian)

    f = sub.add_parser("funny", help="funny-word probe of the non-AT bound")
    f.add_argument("--system", required=True, choices=list(_SYSTEMS))
    f.add_argument("--k", type=int, default=32)
    f.add_argument("--eps", type=float, default=0.1)
    f.add_argument("--samples", type=int, default=10**4)
    f.add_argument("--horizon", type=int, default=256)
    f.add_argument("--n-random", type=int, default=8)
    f.add_argument("--p0", type=float, default=0.5)
    f.add_argument("--seed", type=int, default=0)
    _add_system_params(f, delta=0.0)
    _add_common(f)
    f.set_defaults(func=cmd_funny)

    return ap, list(sub.choices.values())


def _config_value(key: str, action: argparse.Action, text: str):
    try:
        if isinstance(action.default, bool):  # store_true flags
            return {"true": True, "false": False}[text]
        return action.type(text) if action.type else text
    except (KeyError, ValueError):
        raise ValueError(f"config key {key!r}: bad value {text!r}") from None


def _apply_config(path: str, commands: list[_CommandParser]) -> None:
    """Make each key = value line of a --config file the default of that
    option on every subcommand that has it; explicit flags still win."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, text = line.partition("=")
            key, text = key.strip().replace("-", "_"), text.strip()
            owners = [p for p in commands if key in p.options]
            if not owners:
                raise ValueError(f"config key {key!r}: no subcommand has this option")
            for p in owners:
                p.set_defaults(**{key: _config_value(key, p.options[key], text)})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap, commands = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            _apply_config(args.config, commands)
            args = ap.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input, unreadable or unwritable file
        msg = str(exc)
    except MemoryError as exc:  # an allocation the machine cannot give
        msg = str(exc) or "out of memory"
    print(f"error: {msg}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
