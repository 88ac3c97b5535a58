"""The package's public names: any change to them is an edit of this list."""

import atlab

PUBLIC = [
    "CoinSource", "ConstantSource", "DensityBoundReport", "DistalSource", "FourierTable",
    "FunnyWord", "GaussianSpec", "InvariantViolation", "LambdaFamily", "NameSource",
    "NilRotationSource", "OdometerExtensionSource", "RotationCocycleSource",
    "RudinShapiroSource", "SbhReport", "arcsine_fourth_transform", "arcsine_transform",
    "bessel", "bessel_jv", "certify", "cocycle_correlation_table", "cocycle_variances",
    "density_sup", "dirac_table", "empirical_correlation", "epsilon0", "fourier", "funny",
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
