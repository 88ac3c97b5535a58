"""atlab: numerical laboratory for spectral non-AT criteria on circle measures."""

from .bessel import bessel_jv
from .fourier import (
    FourierTable,
    DensityBoundReport,
    InvariantViolation,
    arcsine_fourth_transform,
    arcsine_transform,
    density_sup,
    dirac_table,
    is_positive_definite,
    l1_tail,
    lebesgue_table,
    power_subsample,
    read_measure,
    riesz_product,
    sqrt_template,
    write_measure,
)
from .sbh import (
    SbhReport,
    certify,
    epsilon0,
    sbh_form,
    sbh_sup_exhaustive,
    sbh_sup_heuristic,
)
from .systems import (
    CoinSource,
    ConstantSource,
    DistalSource,
    NameSource,
    NilRotationSource,
    OdometerExtensionSource,
    RotationCocycleSource,
    RudinShapiroSource,
    empirical_correlation,
    nil_rotation_correlations,
    nil_rotation_n1_series,
    rotation_ac_cocycle_correlations,
    rudin_shapiro_lag_sums,
    rudin_shapiro_names,
    square_wave_coeffs,
    two_point_extension_correlations,
)
from .gaussian import (
    GaussianSpec,
    cocycle_correlation_table,
    cocycle_variances,
    gnoat_constant_check,
    product_orthant_mc,
    sample_path,
)
from .funny import (
    FunnyWord,
    LambdaFamily,
    funny_word_search,
    non_at_bound,
    theta_l2_exact,
    theta_symmetry_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
