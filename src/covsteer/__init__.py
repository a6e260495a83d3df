"""Steering a linear stochastic system between Gaussian state distributions.

Solves the coupled-Riccati boundary problem for minimal expected quadratic
input+state cost, including its zero-noise mass-transport limit, and
validates solutions by Monte Carlo simulation of the closed-loop SDE.
"""

from .bridge import (
    BridgeSolution,
    CouplingRoots,
    EscapeReport,
    SteeringProblem,
    SweepRow,
    corollary_q_zero,
    coupling_roots,
    epsilon_sweep,
    initial_conditions,
    lemma1_residual,
    solve,
    spurious_root_escape,
    sqrt_spd,
)
from .errors import (
    BoundaryResidualError,
    ConditioningError,
    ConfigError,
    ConjugatePointError,
    ControllabilityError,
    CovsteerError,
    DefinitenessError,
    DomainError,
    SingularMatrixError,
    UnsupportedDimensionError,
)
from .hamiltonian import (
    blocks,
    propagate,
    ratio_T,
    symplectic_residual,
)
from .monte_carlo import (
    CostGapReport,
    SimulationResult,
    cost_gap,
    empirical_covariance,
    simulate,
    tolerance_tube,
)
from .systems import (
    TimeVaryingLinearSystem,
    make_system,
    piecewise_constant_coefficient,
    reachability_gramian,
    sampled_coefficient,
    state_transition,
)

__version__ = "0.1.0"
