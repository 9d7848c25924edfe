"""Extremal range of threshold exceedances on gridded fields.

The exported names resolve on first use (PEP 562), so ``import exrange``
loads no numpy: ``exrange.cli`` can still size numpy's BLAS thread pool
before numpy loads it.
"""

from importlib import import_module

_EXPORTS = {
    "errors": ("DegenerateFitError", "ExrangeError", "StackFormatError"),
    "geometry": ("IntrinsicDensities", "cdf_slope", "euler_characteristic",
                 "intrinsic_densities", "level_curve_length"),
    "morphology": ("RangeField", "distance_transform", "distance_transform_squared",
                   "erode"),
    "ranges": ("CdfEstimate", "RangeEntries", "domain_distance", "ecdf", "median_range",
               "median_range_map", "range_entries", "range_field", "tail_dependence"),
    "raster": ("DomainMask", "RasterStack", "load_stack", "save_map", "save_stack"),
    "simgrf": ("AdSimConfig", "GaussianSimConfig", "matern_alpha", "matern_correlation",
               "simulate_ad_field", "simulate_gaussian"),
    "samples": ("RangeSamples", "SamplePool"),
    "tailfit": ("MerSurface", "SplineMerModel", "collect_samples", "fit_mer_pixel",
                "fit_mer_pixel_map", "jackknife", "jackknife_estimates", "loglog_level",
                "predict_mer_map", "theta_hat"),
    "thresholds": ("BoundaryPolicy", "ExcursionMask", "ThresholdField",
                   "exceedance_stack", "excursion_mask", "quantile_field", "quantile_fields"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    # resolved on every access, never bound here, so a name always is the
    # submodule's current binding
    if name in _SOURCE:
        return getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return list(__all__)
