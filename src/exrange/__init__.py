"""Extremal range of threshold exceedances on gridded fields."""

from .errors import DegenerateFitError, ExrangeError, StackFormatError
from .geometry import (
    IntrinsicDensities,
    cdf_slope,
    euler_characteristic,
    intrinsic_densities,
    level_curve_length,
)
from .morphology import (
    RangeField,
    dilate,
    distance_transform,
    distance_transform_squared,
    erode,
)
from .ranges import (
    CdfEstimate,
    domain_inradius,
    ecdf,
    eroded_domain,
    gaussian_cdf_approx,
    median_range,
    median_range_map,
    range_cube,
    range_field,
    tail_dependence,
)
from .raster import (
    DomainMask,
    RasterStack,
    load_map,
    load_stack,
    save_map,
    save_stack,
)
from .simgrf import (
    AdSimConfig,
    GaussianSimConfig,
    matern_alpha,
    matern_correlation,
    simulate_ad_field,
    simulate_gaussian,
)
from .tailfit import (
    MerSurface,
    RangeSamples,
    SplineMerModel,
    collect_samples,
    consistency_check_theta,
    fit_mer_pixel,
    fit_mer_pixel_map,
    jackknife,
    jackknife_estimates,
    loglog_level,
    predict_mer,
    predict_mer_map,
    theta_hat,
)
from .thresholds import (
    BoundaryPolicy,
    ExcursionMask,
    ThresholdField,
    exceedance_stack,
    excursion_mask,
    quantile_field,
)

__version__ = "0.1.0"
