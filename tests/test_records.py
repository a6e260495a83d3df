"""The contract of covsteer's immutable records, which are named tuples."""

import dataclasses
import importlib
import pkgutil
from types import MappingProxyType

import numpy as np
import pytest

import covsteer
from covsteer import (
    BridgeSolution,
    CostGapReport,
    CouplingRoots,
    DomainError,
    EscapeReport,
    SimulationResult,
    SteeringProblem,
    SweepRow,
    TimeVaryingLinearSystem,
    cost_gap,
    coupling_roots,
    epsilon_sweep,
    make_system,
    propagate,
    simulate,
    solve,
    spurious_root_escape,
)

# each record's fields, in the order its dataclass declared them
FIELDS = {
    TimeVaryingLinearSystem: ("dim_state", "dim_input", "A", "B", "Q", "R"),
    SteeringProblem: ("sys", "sigma0", "sigma1", "epsilon"),
    CouplingRoots: ("z_minus", "z_plus", "t_weight"),
    BridgeSolution: ("grid", "pi", "h", "k", "sigma", "boundary_residuals", "epsilon",
                     "diagnostics"),
    EscapeReport: ("times", "determinants", "min_abs_determinant", "sign_change"),
    SweepRow: ("epsilon", "pi0", "gap", "boundary_residuals"),
    SimulationResult: ("n_paths", "grid", "states", "empirical_cov", "costs",
                       "cost_estimate", "cost_stderr", "seed"),
    CostGapReport: ("gap", "gap_stderr", "cost_optimal", "cost_perturbed",
                    "terminal_cov_residual_optimal", "terminal_cov_residual_perturbed"),
}
# the mutable configs, read through dataclasses.fields and asdict
DATACLASSES = {"covsteer.cli.RunConfig", "covsteer.cli.MonteCarloConfig"}


def inertial_problem(eps=1.0):
    sys = make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], np.eye(2))
    return SteeringProblem(sys, 2.0 * np.eye(2), 0.25 * np.eye(2), eps)


@pytest.fixture(scope="module")
def records():
    problem = inertial_problem()
    sol = solve(problem, 100)
    times, phi, _ = propagate(problem.sys, 100)
    roots = coupling_roots(problem.sigma0, problem.sigma1, phi[-1], problem.epsilon)
    return {
        TimeVaryingLinearSystem: problem.sys,
        SteeringProblem: problem,
        CouplingRoots: roots,
        BridgeSolution: sol,
        EscapeReport: spurious_root_escape(problem, (times, phi), roots.z_plus),
        SweepRow: epsilon_sweep(problem, [1.0, 0.0], 100)[0],
        SimulationResult: simulate(problem, sol, 10, 10, seed=1),
        CostGapReport: cost_gap(problem, sol, 0.1, 10, 10, seed=1),
    }


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_a_record_keeps_its_fields_in_order_and_refuses_assignment(records, cls):
    record = records[cls]
    assert type(record) is cls
    assert cls._fields == FIELDS[cls]
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.unknown = 1.0  # no instance dict either


def test_a_problem_is_checked_when_built_and_when_replaced():
    problem = inertial_problem()
    lopsided = np.array([[2.0, 0.4], [0.0, 2.0]])
    for made in (SteeringProblem(problem.sys, lopsided, lopsided, 1),
                 problem._replace(sigma0=lopsided, sigma1=lopsided, epsilon=1)):
        assert type(made) is SteeringProblem
        np.testing.assert_array_equal(made.sigma0, [[2.0, 0.2], [0.2, 2.0]])
        np.testing.assert_array_equal(made.sigma1, made.sigma0)
        assert type(made.epsilon) is float
    for bad in (-0.5, np.nan, "1"):
        with pytest.raises(DomainError, match="epsilon"):
            SteeringProblem(problem.sys, problem.sigma0, problem.sigma1, bad)
        with pytest.raises(DomainError, match="epsilon"):
            problem._replace(epsilon=bad)
    with pytest.raises(DomainError, match="n x n"):
        SteeringProblem(problem.sys, np.eye(3), problem.sigma1)
    with pytest.raises(DomainError, match="n x n"):
        problem._replace(sigma1=np.eye(3))
    noiseless = problem._replace(epsilon=0.0)
    assert noiseless.epsilon == 0.0 and noiseless.sys is problem.sys


def test_a_solution_built_without_diagnostics_holds_an_empty_read_only_mapping(records):
    sol = records[BridgeSolution]
    bare = BridgeSolution(*sol[:-1])
    assert isinstance(bare.diagnostics, MappingProxyType)
    assert dict(bare.diagnostics) == {}
    with pytest.raises(TypeError):
        bare.diagnostics["escape_minus"] = None


def test_only_the_configs_are_dataclasses():
    # a frozen dataclass execs its generated methods at import; a record is a named tuple
    found = set()
    for info in pkgutil.iter_modules(covsteer.__path__, "covsteer."):
        module = importlib.import_module(info.name)
        found |= {f"{obj.__module__}.{obj.__qualname__}" for obj in vars(module).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert found == DATACLASSES
