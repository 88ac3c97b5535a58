"""The package's public names: any change to them is an edit of this list."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atlab

PUBLIC = [
    "CoinSource", "ConstantSource", "DensityBoundReport", "DistalSource", "FourierTable",
    "FunnyWord", "GaussianSpec", "InvariantViolation", "LambdaFamily", "NameSource",
    "NilRotationSource", "OdometerExtensionSource", "RotationCocycleSource",
    "RudinShapiroSource", "SbhReport", "arcsine_fourth_transform", "arcsine_transform",
    "bessel", "bessel_jv", "certify", "cocycle_correlation_table", "cocycle_variances",
    "density_sup", "dirac_table", "epsilon0", "fourier", "funny",
    "funny_word_search", "gaussian", "gnoat_constant_check", "is_positive_definite",
    "l1_tail", "lebesgue_table", "nil_rotation_correlations", "nil_rotation_n1_series",
    "non_at_bound",
    "power_subsample", "product_orthant_mc", "read_measure", "riesz_product",
    "rotation_ac_cocycle_correlations", "rudin_shapiro_lag_sums", "rudin_shapiro_names",
    "sample_path", "sbh", "sbh_form", "sbh_sup_exhaustive", "sbh_sup_heuristic",
    "sqrt_template", "square_wave_coeffs", "systems", "theta_l2_exact",
    "theta_symmetry_check", "two_point_extension_correlations", "write_measure",
]


def test_public_names():
    assert sorted(atlab.__all__) == PUBLIC


def test_public_names_resolve_to_their_module_objects():
    for name in atlab.__all__:
        obj = getattr(atlab, name)
        if inspect.ismodule(obj):
            assert obj is importlib.import_module(f"atlab.{name}")
        else:
            assert obj.__module__.startswith("atlab.")
            assert obj is getattr(sys.modules[obj.__module__], name)
    assert sorted(dir(atlab)) == PUBLIC


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        atlab.nonexistent  # noqa: B018


def test_lazy_loading_in_a_fresh_interpreter():
    """`import atlab` loads no submodule; a name loads its own module on first
    use; `from atlab import *` binds every public name."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, atlab; loaded = lambda: sorted(m for m in sys.modules "
            "if m.startswith('atlab.')); print(loaded()); atlab.certify; print(loaded()); "
            "ns = {}; exec('from atlab import *', ns); "
            "print(sorted(n for n in ns if not n.startswith('__')) == sorted(atlab.__all__))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['atlab.fourier', 'atlab.sbh']", "True"]
