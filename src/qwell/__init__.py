"""Exact-arithmetic analysis of probability plateaux in the suddenly
expanded 1D infinite well at fractional times."""

from .cyclotomic import CycInt, IntPoly, cyclotomic_poly, galois_conjugate
from .gauss import coefficient_c, gauss_abs_sq, gauss_sum_direct, phase_alpha
from .plateau import (
    Cell,
    PlateauInterval,
    PlateauReport,
    detect_plateaux,
    term_table,
    window_sums,
)
from .predictors import (
    FragmentationLayout,
    PlateauPrediction,
    ScanRecord,
    conjecture_scan,
    fragmentation_layout,
    has_fragmentation,
    nonfrag_prediction,
    peak_count,
)
from .rationals import dist_nearest_int, mod_inverse
from .wavefield import (
    WellParams,
    density_p,
    initial_g,
    interval_I,
    psi_fractional,
    series_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "CycInt",
    "IntPoly",
    "cyclotomic_poly",
    "galois_conjugate",
    "coefficient_c",
    "gauss_abs_sq",
    "gauss_sum_direct",
    "phase_alpha",
    "Cell",
    "PlateauInterval",
    "PlateauReport",
    "detect_plateaux",
    "term_table",
    "window_sums",
    "FragmentationLayout",
    "PlateauPrediction",
    "ScanRecord",
    "conjecture_scan",
    "fragmentation_layout",
    "has_fragmentation",
    "nonfrag_prediction",
    "peak_count",
    "dist_nearest_int",
    "mod_inverse",
    "WellParams",
    "density_p",
    "initial_g",
    "interval_I",
    "psi_fractional",
    "series_oracle",
]
