"""Causal variational principles on compact manifolds.

Minimizes the action S[rho] = integral of L(x,y) drho(x) drho(y) over
probability measures on the circle, the sphere and the flag manifolds
F^{1,2}(C^f), certifies candidate minimizers against the Euler-Lagrange
and Gram positivity conditions, and brackets the minimal action with
closed-form lower and upper bounds.

The environment variable CVP_THREADS caps the numeric libraries' internal
parallelism; it must take effect before numpy is first imported, hence the
setup below.
"""

import os as _os
from types import ModuleType as _ModuleType

_cap = _os.environ.get("CVP_THREADS")
if _cap:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _cap)
del _os, _cap

from .manifold import (
    ManifoldModel,
    d_kernel,
    flag_point,
    lagrangian,
    sample_uniform,
    theta_max,
)
from .measure import (
    DensityMeasure,
    WeightedMeasure,
    action,
    density_action,
    kernel_potential,
    load_measure,
    measure_from_dict,
    measure_to_dict,
    volume_action,
)
from .optimize import (
    AnnealSchedule,
    MergeResult,
    ScanRow,
    anneal,
    merge_clusters,
    optimal_weights_info,
    tau_scan,
    write_scan_csv,
)
from .analysis import (
    BoundsReport,
    CertificateReport,
    Classification,
    HeatKernelBound,
    antipodal_obstruction,
    bounds_report,
    certify,
    flag_gt_threshold,
    gram_min_eigenvalue,
    gt_obstruction_conflict,
    load_packing,
    nu0_lower_bound,
    nu0_monte_carlo,
    optimize_heat_params,
    spectral_closed_form,
    tammes_upper_bound,
)
from .exact import (
    ChainMinimizer,
    circle_chain_minimizer,
    circle_m0,
    circle_tau_m,
    circle_uniform,
    flag_negative_witness,
    icosahedron,
    octahedron,
    three_band_density,
)

__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
