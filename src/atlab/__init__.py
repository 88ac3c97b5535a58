"""atlab: numerical laboratory for spectral non-AT criteria on circle measures.

Submodules load on first use (PEP 562): ``import atlab`` imports none of them,
and ``atlab.certify`` imports ``atlab.sbh`` (and what it needs) the first time
it is read.  So a command pays only for the modules it runs.
"""

import importlib

# each submodule -> the public names it defines; the submodules are public too
_EXPORTS = {
    "bessel": ("bessel_jv",),
    "fourier": (
        "DensityBoundReport", "FourierTable", "InvariantViolation",
        "arcsine_fourth_transform", "arcsine_transform", "density_sup", "dirac_table",
        "is_positive_definite", "l1_tail", "lebesgue_table", "power_subsample",
        "read_measure", "riesz_product", "sqrt_template", "square_wave_coeffs", "write_measure",
    ),
    "sbh": ("SbhReport", "certify", "epsilon0", "sbh_form", "sbh_sup_exhaustive",
            "sbh_sup_heuristic"),
    "systems": (
        "CoinSource", "ConstantSource", "DistalSource", "NameSource", "NilRotationSource",
        "OdometerExtensionSource", "RotationCocycleSource", "RudinShapiroSource",
        "nil_rotation_correlations", "nil_rotation_n1_series",
        "rotation_ac_cocycle_correlations", "rudin_shapiro_lag_sums", "rudin_shapiro_names",
        "two_point_extension_correlations",
    ),
    "gaussian": ("GaussianSpec", "cocycle_correlation_table", "cocycle_variances",
                 "gnoat_constant_check", "product_orthant_mc", "sample_path"),
    "funny": ("FunnyWord", "LambdaFamily", "funny_word_search", "non_at_bound",
              "theta_l2_exact", "theta_symmetry_check"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
