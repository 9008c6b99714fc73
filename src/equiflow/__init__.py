"""Numerical laboratory for m-equivariant Landau-Lifshitz flows.

Equivariant maps from the plane to the unit sphere evolve under the
family a = a1 + i a2: the dissipative case a = 1 is harmonic map heat
flow, the conservative case a = i is the Schrodinger map, and mixed a
interpolates.  Everything lives on a logarithmic radial grid, so the
profile of each map is the single radial section it is determined by.

The modules split the work as follows:

- ``radial_grid``: the log grid, high-order quadrature and derivatives,
  weighted norms.
- ``harmonic_family``: the stationary harmonic profiles, their scale and
  rotation parameters, energy, degree, and the linearized operator.
- ``gauge``: the flat-frame (generalized Hasimoto) transform taking a
  map to a single complex gauge field, its evolution equation, and the
  inverse reconstruction.
- ``modulation``: fitting scale and rotation to a map, the right inverse
  of the linearized operator, and the pairing window with its constant.
- ``evolve_llg``: the implicit midpoint integrator for the full flow and
  its great-circle scalar reduction, with energy bookkeeping.
- ``scenarios``: slowly decaying tail families for initial data, the
  closed-form scale-history prediction, and the behavior classifier.
- ``cli_io``: the ``equiflow`` command line driver, its CSV tables and
  the plain-text snapshot format.
"""

from .errors import (
    BuilderError,
    ConfigError,
    FitError,
    GaugeError,
    InstabilityError,
    NumericalError,
    ReconstructionError,
    StepError,
)
from .evolve_llg import (
    FlowConfig,
    RunSeries,
    SphereMap,
    beta_to_map,
    energy_identity_residual,
    map_to_beta,
    run_scalar,
    run_vector,
    stationary_angle,
)
from .gauge import GaugeState, hasimoto_forward, qeq_rhs, reconstruct_v
from .harmonic_family import Mu, degree, energy, h_profile, l_s_apply, mu_distance
from .modulation import (
    BumpProfile,
    ModulationState,
    PsiProfile,
    bump_phi,
    fit_mu,
    psi_and_c,
    r_inverse,
)
from .radial_grid import RadialGrid, build_grid, inner_product, norm
from .scenarios import (
    BehaviorClass,
    Prediction,
    TailFamily,
    build_initial_data,
    classify_behavior,
    predict_log_s,
)

__version__ = "0.1.0"

__all__ = [
    "BehaviorClass",
    "BuilderError",
    "BumpProfile",
    "ConfigError",
    "FitError",
    "FlowConfig",
    "GaugeError",
    "GaugeState",
    "InstabilityError",
    "ModulationState",
    "Mu",
    "NumericalError",
    "Prediction",
    "PsiProfile",
    "RadialGrid",
    "ReconstructionError",
    "RunSeries",
    "SphereMap",
    "StepError",
    "TailFamily",
    "beta_to_map",
    "build_grid",
    "build_initial_data",
    "bump_phi",
    "classify_behavior",
    "degree",
    "energy",
    "energy_identity_residual",
    "fit_mu",
    "h_profile",
    "hasimoto_forward",
    "inner_product",
    "l_s_apply",
    "map_to_beta",
    "mu_distance",
    "norm",
    "predict_log_s",
    "psi_and_c",
    "qeq_rhs",
    "r_inverse",
    "reconstruct_v",
    "run_scalar",
    "run_vector",
    "stationary_angle",
    "__version__",
]
