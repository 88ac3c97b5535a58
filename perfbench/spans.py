"""Span records of a traced job and the per-layer metrics derived from them.

A span is one call into a public atlab function or method, recorded from
outside the program by ``traced_cli.py``:
``[id, parent_id, name, t0, t1, attrs]``. ``name`` is
``<module>.<function>`` or ``<module>.<Class>.<method>`` of the defining
module, so a call through a re-bound alias (``sbh.density_sup``) is recorded
as ``fourier.density_sup``. ``attrs`` holds the sizes of the call (N, grid, k,
window, budget, L, nmax, samples, count_x_length, bytes, ...).
"""

from __future__ import annotations

import math
from collections import defaultdict

MODULES = ("fourier", "sbh", "systems", "gaussian", "funny", "cli")
# the entry point's import of atlab.cli; reported as cli.import_s, not as cli self time
IMPORT_SPAN = "cli.import"
NAME_SOURCES = ("RotationCocycleSource", "NilRotationSource", "DistalSource",
                "OdometerExtensionSource", "RudinShapiroSource", "CoinSource",
                "ConstantSource")

# per-layer groups: metric prefix -> span names whose self times add up
GROUPS = {
    "fourier.density": ("fourier.FourierTable.density",),
    "fourier.is_positive_definite": ("fourier.is_positive_definite",),
    "fourier.power_subsample": ("fourier.power_subsample",),
    "fourier.transforms": ("fourier.arcsine_transform", "fourier.arcsine_fourth_transform"),
    "fourier.from_nonneg": ("fourier.FourierTable.from_nonneg",),
    "fourier.io": ("fourier.read_measure", "fourier.write_measure",
                   "fourier.table_from_json_obj", "fourier.table_to_json_obj"),
    "sbh.sbh_sup_exhaustive": ("sbh.sbh_sup_exhaustive",),
    "sbh.sbh_sup_heuristic": ("sbh.sbh_sup_heuristic",),
    "sbh.certify": ("sbh.certify",),
    "systems.rotation_ac_cocycle_correlation": ("systems.rotation_ac_cocycle_correlation",),
    "systems.nil_rotation_correlation": ("systems.nil_rotation_correlation",),
    "systems.two_point_extension_correlation": ("systems.two_point_extension_correlation",),
    "systems.distal_integral": ("systems.distal_integral",),
    "systems.empirical_correlation": ("systems.empirical_correlation",),
    "systems.rudin_shapiro_names": ("systems.rudin_shapiro_names",),
    "systems.sample_names": tuple(f"systems.{c}.sample_names" for c in NAME_SOURCES),
    "systems.write_names": ("systems.write_names",),
    "gaussian.sign_orthant_mc": ("gaussian.sign_orthant_mc",),
    "gaussian.product_orthant_mc": ("gaussian.product_orthant_mc",),
    "gaussian.cocycle_correlation_table": ("gaussian.cocycle_correlation_table",),
    "gaussian.GaussianSpec.from_fourier_table": ("gaussian.GaussianSpec.from_fourier_table",),
    "gaussian.gnoat_constant_check": ("gaussian.gnoat_constant_check",),
    "funny.funny_word_search": ("funny.funny_word_search",),
    "cli.main": ("cli.main",),
}
GROUPS.update({f"systems.{c}.sample_names": (f"systems.{c}.sample_names",)
               for c in NAME_SOURCES})
# span name -> the groups whose self time it adds to
SPAN_GROUPS = {name: [g for g, names in GROUPS.items() if name in names]
               for names in GROUPS.values() for name in names}


COUNTS = (
    "fourier.density.points_x_coeffs", "fourier.is_positive_definite.k_sq", "fourier.io.bytes",
    "sbh.sbh_sup_exhaustive.forms", "sbh.sbh_sup_heuristic.moves", "sbh.certify.calls",
    "sbh.certify.decided_frac", "systems.rotation_ac_cocycle_correlation.lags",
    "systems.nil_rotation_correlation.lags", "systems.two_point_extension_correlation.lags",
    "systems.empirical_correlation.lag_products", "systems.sample_names.bits",
    "systems.write_names.bytes", "gaussian.mc.samples", "funny.funny_word_search.candidates",
    "funny.funny_word_search.name_bits", "cli.render_json.total_s", "cli.correlation_csv.total_s",
    "cli.emit.bytes", "cli.import_s",
)
# every metric layer_metrics reports; a layer that does not run reads 0
METRIC_NAMES = (tuple(f"{m}.self_s" for m in MODULES) + tuple(f"{g}.self_s" for g in GROUPS)
                + COUNTS)


def union_length(intervals) -> float:
    """Total length covered by a set of [t0, t1] intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children's intervals
    (clipped to the span's own interval)."""
    children = defaultdict(list)
    for sid, parent, _name, t0, t1, _attrs in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _name, t0, t1, _attrs in spans:
        inside = [(max(a, t0), min(b, t1)) for a, b in children[sid] if b > t0 and a < t1]
        out[sid] = (t1 - t0) - union_length(inside)
    return out


def layer_metrics(jobs: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass: ``jobs`` is a list of span lists, one per job."""
    m = dict.fromkeys(METRIC_NAMES, 0.0)
    certify_calls = certify_decided = 0
    for spans in jobs:
        selfs = self_times(spans)
        for sid, _p, name, t0, t1, attrs in spans:
            module = name.split(".")[0]
            if module in MODULES and name != IMPORT_SPAN:
                m[f"{module}.self_s"] += selfs[sid]
            for group in SPAN_GROUPS.get(name, ()):
                m[f"{group}.self_s"] += selfs[sid]
            if name == IMPORT_SPAN:
                m["cli.import_s"] += t1 - t0
            elif name == "fourier.FourierTable.density":
                m["fourier.density.points_x_coeffs"] += attrs["grid"] * (2 * attrs["N"] + 1)
            elif name == "fourier.is_positive_definite":
                m["fourier.is_positive_definite.k_sq"] += attrs["k"] ** 2
            elif name in ("fourier.read_measure", "fourier.write_measure"):
                m["fourier.io.bytes"] += attrs.get("bytes", 0)
            elif name == "sbh.sbh_sup_exhaustive":
                m["sbh.sbh_sup_exhaustive.forms"] += (math.comb(attrs["window"], attrs["k"])
                                                       * 2 ** (attrs["k"] - 1))
            elif name == "sbh.sbh_sup_heuristic":
                m["sbh.sbh_sup_heuristic.moves"] += attrs["budget"]
            elif name == "sbh.certify":
                certify_calls += 1
                certify_decided += attrs.get("verdict") in ("CERTIFIED_SBH", "CERTIFIED_NOT_SBH")
            elif name in ("systems.rotation_ac_cocycle_correlation",
                          "systems.nil_rotation_correlation",
                          "systems.two_point_extension_correlation"):
                m[f"{name}.lags"] += 1
            elif name == "systems.empirical_correlation":
                m["systems.empirical_correlation.lag_products"] += attrs["L"] * attrs["nmax"]
            elif name in GROUPS["systems.sample_names"]:
                m["systems.sample_names.bits"] += attrs.get("count_x_length", 0)
            elif name == "systems.write_names":
                m["systems.write_names.bytes"] += attrs.get("bytes", 0)
            elif name in ("gaussian.sign_orthant_mc", "gaussian.product_orthant_mc"):
                m["gaussian.mc.samples"] += attrs.get("samples", 0)
            elif name == "funny.funny_word_search":
                m["funny.funny_word_search.candidates"] += attrs.get("candidates", 0)
                m["funny.funny_word_search.name_bits"] += (
                    2 * attrs.get("samples", 0) * attrs.get("horizon", 0))
            elif name == "cli.render_json":
                m["cli.render_json.total_s"] += t1 - t0
            elif name == "cli.correlation_csv":
                m["cli.correlation_csv.total_s"] += t1 - t0
            elif name == "cli._emit":
                m["cli.emit.bytes"] += attrs.get("bytes", 0)
    m["sbh.certify.calls"] = certify_calls
    m["sbh.certify.decided_frac"] = certify_decided / certify_calls if certify_calls else 0.0
    return m


# spans whose cost is printed by size, so growth rates across sizes show
SCALING = {
    "fourier.FourierTable.density": ("N", "grid"),
    "fourier.is_positive_definite": ("k",),
    "sbh.sbh_sup_exhaustive": ("k", "window"),
    "sbh.sbh_sup_heuristic": ("k", "window", "budget"),
    "systems.rudin_shapiro_names": ("L",),
    "systems.empirical_correlation": ("L", "nmax"),
    "gaussian.cocycle_correlation_table": ("nmax",),
    "funny.funny_word_search": ("k", "horizon", "samples"),
}
SCALING.update({f"systems.{c}.sample_names": ("count_x_length",) for c in NAME_SOURCES})


def scaling_rows(jobs: list[list]) -> list[tuple[str, tuple, int, float]]:
    """(span name, size tuple, calls, total self seconds) for the SCALING spans."""
    acc: dict[tuple, list] = {}
    for spans in jobs:
        selfs = self_times(spans)
        for sid, _p, name, _t0, _t1, attrs in spans:
            keys = SCALING.get(name)
            if keys is None:
                continue
            size = tuple((k, (attrs or {}).get(k)) for k in keys)
            row = acc.setdefault((name, size), [0, 0.0])
            row[0] += 1
            row[1] += selfs[sid]
    return sorted((name, size, n, s) for (name, size), (n, s) in acc.items())
