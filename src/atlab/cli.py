"""Command-line front end: reproducible experiments with machine-readable output.

Exit codes: 0 success (certify: CERTIFIED_SBH), 2 invalid parameters,
3 certify CERTIFIED_NOT_SBH, 4 certify UNDECIDED.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import fourier, funny, gaussian, sbh, systems


# ---------------------------------------------------------------------------
# deterministic serialization: every float printed with 17 significant digits


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(x, ".17g")


def render_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        import json as _json
        return _json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [render_json(x, indent) for x in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        inner = ",\n".join(
            f'{pad} {render_json(str(k))}: {render_json(v, indent + 1)}'
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(payload: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")
    if args.stdout or not args.out:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _parse_alpha(s: str) -> float:
    named = {"sqrt2-1": systems.SQRT2_M1, "golden": systems.GOLDEN_M1}
    if s in named:
        return named[s]
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"alpha must be finite, got {s}")
    return x


def correlation_csv(rows) -> str:
    """rows: iterables of (n, complex value, method, error_bar)."""
    out = ["n,re,im,method,error_bar"]
    for n, v, method, err in rows:
        v = complex(v)
        out.append(f"{n},{_fmt_float(v.real)},{_fmt_float(v.imag)},{method},{_fmt_float(err)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_measure(args) -> int:
    kind = args.kind
    try:
        if kind == "lebesgue":
            t = fourier.lebesgue_table(args.N)
        elif kind == "dirac":
            t = fourier.dirac_table(args.N)
        elif kind == "riesz":
            amps = [float(x) for x in args.a.split(",")]
            freqs = [int(x) for x in args.freq.split(",")]
            t = fourier.riesz_product(amps, freqs, args.N)
        elif kind == "sqrt":
            t = fourier.sqrt_template(args.c, args.N)
        elif kind in ("arcsine", "arcsine4", "subsample"):
            if not args.infile:
                return _fail(f"measure {kind} needs --in")
            t0 = fourier.read_measure(args.infile)
            if kind == "arcsine":
                t = fourier.arcsine_transform(t0)
            elif kind == "arcsine4":
                t = fourier.arcsine_fourth_transform(t0)
            else:
                t = fourier.power_subsample(t0, args.m)
        else:
            return _fail(f"unknown measure kind {kind!r}")
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    payload = render_json(fourier.table_to_json_obj(t))
    _emit(payload, args)
    if args.density_csv:
        grid = args.density_grid or max(4 * t.half_width + 4, 256)
        thetas = np.arange(grid) / grid
        vals = t.density(thetas)
        lines = ["theta,density"]
        lines += [f"{_fmt_float(th)},{_fmt_float(v)}" for th, v in zip(thetas, vals)]
        with open(args.density_csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


_EXITCODE = {"CERTIFIED_SBH": 0, "CERTIFIED_NOT_SBH": 3, "UNDECIDED": 4}


def cmd_certify(args) -> int:
    try:
        t = fourier.read_measure(args.infile)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    if args.subsample_scan:
        try:
            lo, hi = (int(x) for x in args.subsample_scan.split(".."))
        except ValueError:
            return _fail("--subsample-scan expects LO..HI")
        found = None
        reports = []
        for m in range(lo, hi + 1):
            rep = sbh.certify(fourier.power_subsample(t, m), k=args.k,
                              window=args.window, seed=args.seed)
            reports.append({"m": m, "report": rep.to_json_obj()})
            if rep.verdict == "CERTIFIED_SBH" and found is None:
                found = m
        payload = render_json({"first_certified_m": found, "scan": reports})
        _emit(payload, args)
        return 0 if found is not None else 4
    try:
        rep = sbh.certify(t, k=args.k, window=args.window, seed=args.seed,
                          heuristic_budget=args.budget)
    except ValueError as exc:
        return _fail(str(exc))
    _emit(render_json(rep.to_json_obj()), args)
    return _EXITCODE[rep.verdict]


def _make_source(name: str, args) -> systems.NameSource:
    alpha = _parse_alpha(args.alpha)
    if name == "rudin-shapiro":
        return systems.RudinShapiroSource(log2_length=args.log2_length)
    if name == "rotation":
        return systems.RotationCocycleSource(alpha=alpha, delta=args.delta,
                                             delta0=args.delta0, M=args.M)
    if name == "nil":
        return systems.NilRotationSource(alpha=alpha, beta=args.beta,
                                         gamma=args.gamma, M=args.M)
    if name == "distal":
        return systems.DistalSource(alpha=alpha)
    if name == "odometer":
        phi = [int(x) for x in args.phi.split(",")]
        return systems.OdometerExtensionSource(phi)
    if name == "coin":
        return systems.CoinSource(p0=args.p0)
    if name == "constant":
        return systems.ConstantSource()
    raise ValueError(f"unknown system {name!r}")


def cmd_system(args) -> int:
    name = args.system
    try:
        alpha = _parse_alpha(args.alpha)
        rows = []
        if name == "rudin-shapiro":
            signs = systems.rudin_shapiro_names(args.L)
            table = systems.empirical_correlation(signs, args.nmax)
            err = 5.0 / math.sqrt(args.L)
            rows = [(n, table.at(n), "empirical", err) for n in range(args.nmax + 1)]
        elif name == "nil":
            for n in range(args.nmax + 1):
                v = systems.nil_rotation_correlation(alpha, args.beta, args.gamma,
                                                     n, args.M)
                err = systems.square_wave_coeffs(args.M).truncation_error if n else 0.0
                rows.append((n, v, "exact" if v == 0 else "series", err))
        elif name == "rotation":
            err = systems.square_wave_coeffs(args.M).truncation_error
            for n in range(args.nmax + 1):
                v = systems.rotation_ac_cocycle_correlation(
                    alpha, args.delta, args.delta0, n, args.M)
                rows.append((n, v, "quadrature", err) if n else (0, v, "exact", 0.0))
        elif name == "distal":
            for n in range(args.nmax + 1):
                rows.append((n, systems.distal_integral(n, args.m_scale), "exact", 0.0))
        elif name == "odometer":
            phi = [int(x) for x in args.phi.split(",")]
            for n in range(args.nmax + 1):
                rows.append((n, systems.two_point_extension_correlation(phi, n),
                             "exact", 0.0))
        else:
            return _fail(f"unknown system {name!r}")
    except ValueError as exc:
        return _fail(str(exc))
    _emit(correlation_csv(rows), args)
    if args.names:
        src = _make_source(name, args)
        bits = src.sample_names(args.names, args.length, args.seed)
        systems.write_names(bits, args.names_out or "names.bin")
    return 0


def cmd_gaussian(args) -> int:
    sub = args.mode
    try:
        if sub == "constants":
            rep = gaussian.gnoat_constant_check()
            _emit(render_json(rep.to_json_obj()), args)
            return 0
        if sub in ("orthant", "product"):
            if args.spec:
                spec = gaussian.GaussianSpec.from_fourier_table(
                    fourier.read_measure(args.spec))
                n = args.n
            else:
                r = np.zeros(max(args.n, 1) + 1)
                r[0] = 1.0
                r[args.n] = args.r
                spec = gaussian.GaussianSpec(r)
                n = args.n
            if sub == "orthant":
                rep = gaussian.sign_orthant_mc(spec, n, args.samples, args.seed)
            else:
                rep = gaussian.product_orthant_mc(spec, n, args.level,
                                                  args.samples, args.seed)
            _emit(render_json(rep.to_json_obj()), args)
            return 0
        if sub == "cocycle":
            if args.spec:
                spec = gaussian.GaussianSpec.from_fourier_table(
                    fourier.read_measure(args.spec))
            else:
                spec = gaussian.white_noise_spec(args.nmax)
            t = gaussian.cocycle_correlation_table(spec, args.M, args.nmax)
            _emit(render_json(fourier.table_to_json_obj(t)), args)
            return 0
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    return _fail(f"unknown gaussian mode {sub!r}")


def cmd_funny(args) -> int:
    try:
        src = _make_source(args.system, args)
    except ValueError as exc:
        return _fail(str(exc))
    fam = funny.LambdaFamily(k=args.k, horizon=args.horizon,
                             n_random=args.n_random)
    rep = funny.funny_word_search(src, fam, args.eps, args.samples, args.seed)
    lines = []
    for row in rep.rows:
        obj = row.to_json_obj()
        obj["caveat"] = rep.caveat
        lines.append(render_json(obj).replace("\n", " ").replace("  ", " "))
    payload = "\n".join(lines) + "\n"
    _emit(payload, args)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="worker-count hint; results are worker-independent")
    p.add_argument("--out", default=None)
    p.add_argument("--stdout", action="store_true")
    p.add_argument("--config", default=None)


def build_parser() -> tuple[argparse.ArgumentParser, list[_CommandParser]]:
    ap = argparse.ArgumentParser(prog="atlab")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_CommandParser)

    m = sub.add_parser("measure", help="build or transform circle-measure tables")
    m.add_argument("kind", choices=["lebesgue", "dirac", "riesz", "sqrt",
                                    "arcsine", "arcsine4", "subsample"])
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
    _add_common(c)
    c.set_defaults(func=cmd_certify)

    s = sub.add_parser("system", help="correlation tables and name batches")
    s.add_argument("system", choices=["rudin-shapiro", "nil", "rotation",
                                      "distal", "odometer"])
    s.add_argument("--L", type=int, default=2**20)
    s.add_argument("--nmax", type=int, default=16)
    s.add_argument("--alpha", default="sqrt2-1")
    s.add_argument("--beta", type=float, default=0.7)
    s.add_argument("--gamma", type=float, default=0.0)
    s.add_argument("--delta", type=float, default=0.1)
    s.add_argument("--delta0", type=float, default=0.5)
    s.add_argument("--M", type=int, default=201)
    s.add_argument("--m-scale", type=int, default=1)
    s.add_argument("--phi", default="0,1")
    s.add_argument("--log2-length", type=int, default=20)
    s.add_argument("--names", type=int, default=0)
    s.add_argument("--length", type=int, default=256)
    s.add_argument("--names-out", default=None)
    s.add_argument("--p0", type=float, default=0.5)
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
    _add_common(g)
    g.set_defaults(func=cmd_gaussian)

    f = sub.add_parser("funny", help="funny-word probe of the non-AT bound")
    f.add_argument("--system", required=True,
                   choices=["rudin-shapiro", "nil", "rotation", "distal",
                            "odometer", "coin", "constant"])
    f.add_argument("--k", type=int, default=32)
    f.add_argument("--eps", type=float, default=0.1)
    f.add_argument("--samples", type=int, default=10**4)
    f.add_argument("--horizon", type=int, default=256)
    f.add_argument("--n-random", type=int, default=8)
    f.add_argument("--alpha", default="sqrt2-1")
    f.add_argument("--beta", type=float, default=0.7)
    f.add_argument("--gamma", type=float, default=0.0)
    f.add_argument("--delta", type=float, default=0.0)
    f.add_argument("--delta0", type=float, default=0.5)
    f.add_argument("--M", type=int, default=201)
    f.add_argument("--phi", default="0,1")
    f.add_argument("--log2-length", type=int, default=20)
    f.add_argument("--p0", type=float, default=0.5)
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
    if args.config:
        try:
            _apply_config(args.config, commands)
        except (ValueError, OSError) as exc:
            return _fail(str(exc))
        args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
