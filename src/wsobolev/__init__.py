"""Numerical toolkit for Sobolev analysis under exponentially decaying weights.

The package covers, on uniform 1d/2d boxes:

* a closed-form weight catalog exp(-beta*|x|^q - W - V) with admissibility
  diagnostics (growth fits, oscillation, doubling and Muckenhoupt ball
  estimates, reciprocal-power integrability);
* weighted Lebesgue/Sobolev norms, integration-by-parts residuals,
  mollification with convergence reports, maximal functions and the Hedberg
  pointwise bound;
* the certified constant chain down to a global Poincaré constant, plus
  quadrature verification of each inequality on a bump corpus;
* implicit-Euler gradient flows for the weighted p-Laplacian (weighted and
  plain-Lebesgue dualizations) and the mean-zero stationary problem;
* a batch CLI over JSON run configs.
"""

from .grid import (
    Grid,
    GridFunction,
    build_grid,
    discrete_gradient,
    maximal_function,
    mollify,
    quadrature,
    quadrature_with_error,
    sample_field,
)
from .weights import (
    AdmissibilityReport,
    Ball,
    ConstantTerm,
    CosineTerm,
    DoublingReport,
    MuckenhouptReport,
    PotentialExpr,
    PowerAbsTerm,
    QuadraticTerm,
    WeightSpec,
    check_admissibility,
    check_reciprocal_integrability,
    drift_on_grid,
    estimate_doubling,
    estimate_muckenhoupt,
    fit_dilation_bound,
    fit_growth_constants,
    root_on_grid,
    weight_on_grid,
)
from .corpus import CorpusMember, corpus_members
from .sobolev import (
    ApproximationReport,
    HedbergReport,
    hedberg_constant,
    ibp_residual,
    lebesgue_norm,
    maximal_bound_check,
    product_rule_residual,
    smooth_approximation,
    sobolev_norm,
)
from .inequalities import (
    ConstantChain,
    InequalityReport,
    build_constant_chain,
    constants_potential,
    constants_xq,
    empirical_poincare_ratio,
    oscillation_over_ball,
    poincare_bound,
    verify_poincare,
    verify_potential,
    verify_xq,
)
from .pde import (
    EvolutionProblem,
    IntegrabilityGateError,
    ProxConvergenceError,
    StationaryResult,
    Trajectory,
    apply_operator,
    check_lebesgue_compatibility,
    energy,
    solve_evolution,
    solve_stationary,
)
from .config import RunConfig, load_config, parse_config

__version__ = "0.1.0"
