"""Certified central-spin dephasing on Delone point sets.

The package simulates Ramsey dephasing of a central spin coupled to a bath
of spins sitting on a uniformly discrete, relatively dense (Delone) point
set, with power-law couplings.  Every reported quantity carries a rigorous
error bound: lattice-sum tails are bracketed by integral sandwiches, cosine
products carry truncation certificates, and the self-similar spectral and
basis identities are checked in exact arithmetic where floats would lie.

Modules
-------
pointsets  Delone point-set generators, radii measurement, annulus counts
bounds     certified tail sums and integral sandwich / midpoint checks
ramsey     dephasing profiles, Gaussian comparison, envelope calibration
spectra    self-similar cosine products, Cantor function, digit maps
basis      digit-sign orthonormal system, Fourier data, L2 partial sums
cli        command-line front end (`centralspin ...`)
"""

from .basis import (
    PiecewiseDyadic,
    ThetaIndex,
    fourier_coeff,
    inner_product,
    l2_cauchy_check,
    l2_distance_to_x,
    partial_sum_x,
    t_fourier_action_check,
    theta_eval,
    to_piecewise,
)
from .bounds import (
    CertifiedValue,
    SandwichResult,
    SeqIntegralReport,
    asymptotic_ratio,
    delone_tail_sum,
    integral_tail,
    sandwich_check,
    seq_sum_integral_check,
)
from .pointsets import (
    AnnulusBoundsReport,
    AnnulusCount,
    DeloneRadii,
    PointSet,
    check_annulus_bounds,
    count_annulus,
    gen_jittered,
    gen_lattice,
    gen_poisson_disk,
    insertable_probes,
    measure_radii,
)
from .ramsey import (
    GaussianDiag,
    RamseyProfile,
    UniformScanReport,
    bloch_evolution,
    calibrate_envelope,
    compact_bound_check,
    decay_envelope_check,
    evaluate_profile,
    fit_gaussian,
    gaussian_sup_distance,
    normalization,
    uniform_convergence_scan,
)
from .spectra import (
    CharFunctionReport,
    CosProduct,
    cantor_function,
    char_function_check,
    cos_product,
    d_map,
    d_map_exact,
    persistent_oscillation,
    recursion_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # pointsets
    "PointSet", "DeloneRadii", "AnnulusCount", "AnnulusBoundsReport",
    "gen_lattice", "gen_jittered", "gen_poisson_disk", "insertable_probes",
    "measure_radii",
    "count_annulus", "check_annulus_bounds",
    # bounds
    "CertifiedValue", "SandwichResult", "SeqIntegralReport",
    "integral_tail", "delone_tail_sum", "sandwich_check",
    "seq_sum_integral_check", "asymptotic_ratio",
    # ramsey
    "RamseyProfile", "GaussianDiag", "UniformScanReport",
    "normalization", "evaluate_profile", "gaussian_sup_distance",
    "compact_bound_check", "decay_envelope_check", "calibrate_envelope",
    "uniform_convergence_scan", "fit_gaussian", "bloch_evolution",
    # spectra
    "CosProduct", "cos_product", "recursion_check", "persistent_oscillation",
    "cantor_function", "d_map", "d_map_exact", "char_function_check",
    "CharFunctionReport",
    # basis
    "ThetaIndex", "PiecewiseDyadic", "theta_eval", "to_piecewise",
    "inner_product", "fourier_coeff", "t_fourier_action_check",
    "partial_sum_x", "l2_distance_to_x", "l2_cauchy_check",
]
