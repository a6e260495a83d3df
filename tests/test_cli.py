import csv
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from covsteer import (
    bridge,
    cli,
    coupling_roots,
    epsilon_sweep,
    initial_conditions,
    propagate,
    simulate,
    spurious_root_escape,
    tolerance_tube,
)
from covsteer.cli import (
    PRESETS,
    RunConfig,
    build_problem,
    load_config,
    main,
    run_simulate,
    run_solve,
    run_sweep,
    run_verify,
)
from covsteer.errors import ConfigError


def preset_config(name="inertial-q1", **overrides):
    raw = json.loads(json.dumps(PRESETS[name]))
    raw.update(overrides)
    return RunConfig.from_dict(raw)


def test_config_roundtrip():
    cfg = preset_config()
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_field():
    raw = json.loads(json.dumps(PRESETS["scalar-trivial"]))
    raw["typo_field"] = 1
    with pytest.raises(ConfigError):
        RunConfig.from_dict(raw)


def test_config_requires_core_fields():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"name": "x"})


def test_config_dimension_mismatch():
    raw = json.loads(json.dumps(PRESETS["inertial-q1"]))
    raw["sigma0"] = [[1.0]]
    with pytest.raises(ConfigError):
        RunConfig.from_dict(raw)


def test_constant_coefficients_are_one_matrix_at_every_time():
    sys = preset_config("inertial-r4").problem().sys
    for coef in (sys.A, sys.B, sys.Q, sys.R):
        value = coef(0.0)
        assert all(coef(t) is value for t in (0.25, 0.5, 1.0))


def test_ill_conditioned_phi12_exits_2(tmp_path, capsys):
    # a controllable system (its Gramian is I) whose Phi12(1, 0) has condition number 2.27e13
    raw = {"name": "ill", "system": {"A": [[0.0, 0.0], [0.0, 0.0]],
                                     "B": [[1.0, 0.0], [0.0, 1.0]],
                                     "Q": [[0.0, 0.0], [0.0, 1225.0]]},
           "sigma0": [[1.0, 0.0], [0.0, 1.0]], "sigma1": [[1.0, 0.0], [0.0, 1.0]]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "Phi12 is too ill-conditioned" in capsys.readouterr().err


def test_a_phi_that_overflows_exits_2(tmp_path, capsys):
    # Q = 1e300 I overflows Phi in its first step
    raw = json.loads(json.dumps(PRESETS["inertial-q1"]))
    raw["system"]["Q"] = [[1e300, 0.0], [0.0, 1e300]]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    # the suite turns warnings into errors, so an overflow warning on the way fails here
    code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error: Phi(t, 0) has non-finite entries from t = ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_conjugate_point_exits_2(tmp_path, capsys):
    # Q = -16 puts a zero of det X(t) inside the horizon (Phi12(t, 0) = -sin(4t) / 4)
    raw = json.loads(json.dumps(PRESETS["scalar-trivial"]))
    raw["system"]["Q"] = [[-16.0]]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "conjugate point" in capsys.readouterr().err


def test_an_r_that_is_not_positive_definite_between_the_nodes_exits_2(tmp_path, capsys):
    # R = -1 on [0.3449, 0.3451) holds the stage midpoint 0.345 of grid 100 and no node;
    # the solve used to take B R^-1 B' there unchecked and exit 0
    raw = json.loads(json.dumps(PRESETS["inertial-q1"]))
    raw["system"]["R"] = {"kind": "piecewise", "breaks": [0.0, 0.3449, 0.3451, 1.0],
                          "values": [[[1.0]], [[-1.0]], [[1.0]]]}
    raw["grid_size"] = 100
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "R(t) is not positive definite at t = 0.345 " in capsys.readouterr().err


def test_piecewise_coefficient_config():
    raw = json.loads(json.dumps(PRESETS["scalar-trivial"]))
    raw["system"]["Q"] = {
        "kind": "piecewise",
        "breaks": [0.0, 0.5, 1.0],
        "values": [[[0.0]], [[1.0]]],
    }
    cfg = RunConfig.from_dict(raw)
    problem = build_problem(cfg)
    assert problem.sys.Q(0.25)[0, 0] == 0.0
    assert problem.sys.Q(0.75)[0, 0] == 1.0
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "argv, calls",
    [(["solve", "--preset", "scalar-trivial"], 1),
     (["simulate", "--preset", "scalar-trivial", "--seed", "1", "--paths", "50"], 1),
     (["sweep", "--preset", "scalar-trivial"], 1),
     (["verify"], 5)],
    ids=["solve", "simulate", "sweep", "verify"],
)
def test_each_command_builds_each_problem_once(monkeypatch, tmp_path, argv, calls):
    built = []
    original = cli.build_problem

    def counted(cfg):
        built.append(cfg.name)
        return original(cfg)

    monkeypatch.setattr(cli, "build_problem", counted)
    out = [] if argv[0] == "verify" else ["--out", str(tmp_path)]
    assert main(argv + out) == 0
    assert len(built) == calls


def test_config_problem_is_rebuilt_only_after_its_definition_changes():
    cfg = preset_config("scalar-trivial")
    before = (cfg.to_dict(), cli._config_hash(cfg))
    problem = cfg.problem()
    assert cfg.problem() is problem
    assert (cfg.to_dict(), cli._config_hash(cfg)) == before
    cfg.monte_carlo.seed = 5
    assert cfg.problem() is problem
    cfg.epsilon = 0.0
    assert cfg.problem().epsilon == 0.0
    cfg.sigma1 = [[4.0]]
    np.testing.assert_array_equal(cfg.problem().sigma1, [[4.0]])


def test_run_solve_writes_expected_files(tmp_path):
    cfg = preset_config(grid_size=400)
    run_solve(cfg, tmp_path)
    for name in ("gains.csv", "pi.csv", "h.csv", "sigma.csv", "report.txt"):
        assert (tmp_path / name).exists()
    head = (tmp_path / "gains.csv").read_text().splitlines()
    assert head[0].startswith("# covsteer")
    assert "config=" in head[0]
    assert head[1] == "t,k_1_1,k_1_2"
    report = (tmp_path / "report.txt").read_text()
    assert "boundary residual t=1" in report
    assert "escape scan (minus root): sign change=False" in report
    assert "plus root" not in report
    # the plus root's escape is the problem's, read off propagate's Phi stack
    problem = cfg.problem()
    times, phi, _ = propagate(problem.sys, cfg.grid_size)
    roots = coupling_roots(problem.sigma0, problem.sigma1, phi[-1], problem.epsilon)
    assert spurious_root_escape(problem, (times, phi), roots.z_plus).sign_change


def test_the_solve_report_has_one_line_per_reading(tmp_path):
    assert main(["solve", "--preset", "inertial-q1", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "report.txt").read_text().splitlines()
    prefixes = ["covsteer ", "config hash: ", "epsilon: ", "boundary residual t=0: ",
                "boundary residual t=1: ", "symplectic residual of Phi(1,0): ",
                "branch: minus root selected; Pi(0) eigenvalues ",
                "escape scan (minus root): sign change="]
    assert len(lines) == len(prefixes)
    for line, prefix in zip(lines, prefixes):
        assert line.startswith(prefix)


def test_run_solve_sigma_endpoints(tmp_path):
    cfg = preset_config(grid_size=400)
    run_solve(cfg, tmp_path)
    rows = (tmp_path / "sigma.csv").read_text().splitlines()
    first = [float(v) for v in rows[2].split(",")]
    last = [float(v) for v in rows[-1].split(",")]
    np.testing.assert_allclose(first, [0.0, 2.0, 0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(last, [1.0, 0.25, 0.0, 0.25], atol=1e-6)


def test_run_simulate_outputs_and_determinism(tmp_path):
    cfg = preset_config(grid_size=300)
    cfg.monte_carlo.n_paths = 50
    cfg.monte_carlo.n_steps = 300
    cfg.monte_carlo.seed = 777
    run_simulate(cfg, tmp_path / "a")
    run_simulate(cfg, tmp_path / "b")
    for name in ("paths.csv", "empirical_cov.csv", "tube.csv", "cost.txt"):
        assert (tmp_path / "a" / name).exists()
    assert (tmp_path / "a" / "paths.csv").read_bytes() == (tmp_path / "b" / "paths.csv").read_bytes()
    tube_rows = (tmp_path / "a" / "tube.csv").read_text().splitlines()[2:]
    t0 = [r.split(",") for r in tube_rows if r.startswith("0,")]
    radii = [np.hypot(float(r[2]), float(r[3])) for r in t0]
    np.testing.assert_allclose(radii, 3.0 * np.sqrt(2.0), atol=1e-9)


def test_run_simulate_requires_seed(tmp_path):
    cfg = preset_config(grid_size=300)
    cfg.monte_carlo.seed = None
    with pytest.raises(ConfigError):
        run_simulate(cfg, tmp_path)


def test_run_sweep_scalar_closed_form(tmp_path):
    cfg = preset_config("scalar-trivial", eps_list=[1.0, 0.1, 0.01, 0.0])
    run_sweep(cfg, tmp_path)
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    gaps = [float(r.split(",")[1]) for r in rows]
    for eps, gap in zip([1.0, 0.1, 0.01], gaps):
        expected = eps / 2.0 + 1.0 - np.sqrt(eps**2 / 4.0 + 1.0)
        assert gap == pytest.approx(expected, abs=1e-9)
    assert gaps[-1] == 0.0


def test_run_sweep_single_row(tmp_path):
    cfg = preset_config("scalar-trivial", eps_list=[0.5])
    run_sweep(cfg, tmp_path)
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3  # comment, header, one data row


def test_main_exit_codes(tmp_path):
    assert main(["solve", "--preset", "no-such-preset", "--out", str(tmp_path)]) == 1
    assert main(["solve", "--out", str(tmp_path)]) == 1
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{not json")
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    cfg_path.write_text("[1, 2]")  # the root is not an object
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    # a directory is not a readable config file
    assert main(["solve", "--config", str(tmp_path), "--out", str(tmp_path)]) == 1
    raw = json.loads(json.dumps(PRESETS["scalar-trivial"]))
    cfg_path.write_text(json.dumps(dict(raw, eps_list=[])))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides, path", [
    ({"monte_carlo": {"n_paths": "10"}}, "monte_carlo.n_paths"),
    ({"monte_carlo": {"n_paths": 1}}, "monte_carlo.n_paths"),
    ({"epsilon": "abc"}, "epsilon"),
    ({"grid_size": "x"}, "grid_size"),
    ({"grid_size": 2.0}, "grid_size"),
    ({"epsilon": float("nan")}, "epsilon"),
    ({"epsilon": float("inf")}, "epsilon"),
    ({"eps_list": [0.1, 1.0]}, "eps_list"),
    ({"eps_list": [1.0, -0.1]}, "eps_list[1]"),
    ({"eps_list": ["x"]}, "eps_list[0]"),
    ({"sigma0": [["a"]]}, "sigma0"),
    ({"system": {"A": {"kind": "sampled", "times": [0.0, 0.5],
                       "values": [[[0.0]], [[0.0]]]}, "B": [[1.0]]}}, "system.A"),
    ({"system": {"A": [[float("nan")]], "B": [[1.0]]}}, "system.A"),
    ({"monte_carlo": {"checkpoints": [0.0, float("nan")]}}, "monte_carlo.checkpoints"),
    ({"monte_carlo": {"checkpoints": [0.0, float("inf")]}}, "monte_carlo.checkpoints"),
    ({"monte_carlo": {"checkpoints": "0.5"}}, "monte_carlo.checkpoints"),
    ({"monte_carlo": {"tube_level": 0.0}}, "monte_carlo.tube_level"),
    ({"monte_carlo": {"tube_resolution": 2}}, "monte_carlo.tube_resolution"),
    ({"monte_carlo": {"tube_level": float("inf")}}, "monte_carlo.tube_level"),
    ({"monte_carlo": {"seed": 2**70}}, "monte_carlo.seed"),
    ({"monte_carlo": {"seed": True}}, "monte_carlo.seed"),
    ({"monte_carlo": [1]}, "monte_carlo"),
    ({"monte_carlo": {"n_steps": 0}}, "monte_carlo.n_steps"),
    ({"eps_list": 1.0}, "eps_list"),
    ({"grid_size": 0}, "grid_size"),
    ({"system": {"A": [[0.0]]}}, "system"),
    ({"system": {"A": 1.0, "B": [[1.0]]}}, "system.A"),
    ({"system": {"A": [0.0], "B": [[1.0]]}}, "system.A"),
    ({"system": {"A": {"kind": "spline"}, "B": [[1.0]]}}, "system.A"),
    ({"system": {"A": {"kind": "piecewise", "breaks": [0.0, 1.0]}, "B": [[1.0]]}}, "system.A"),
    ({"system": {"A": {"kind": "piecewise", "breaks": [0.0, 0.6, 0.4, 1.0],
                       "values": [[[0.0]]] * 3}, "B": [[1.0]]}}, "system.A"),
    ({"system": {"A": {"kind": "sampled", "times": [0.0, 0.7, 0.3, 1.0],
                       "values": [[[0.0]]] * 4}, "B": [[1.0]]}}, "system.A"),
])
def test_main_malformed_config_exits_1(tmp_path, capsys, overrides, path):
    raw = json.loads(json.dumps(PRESETS["scalar-trivial"]))
    raw.update(overrides)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))  # NaN and Infinity are written as JSON literals
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}")
    assert err[len(f"config error: {path}")] in " :"  # the whole path, not a prefix of it
    assert "bool" not in err  # "abc" once read "must be a real number, not a bool"
    assert not (tmp_path / "o").exists()


def test_json_integers_hash_as_their_float_twins():
    ints = {"epsilon": 1, "eps_list": [1, 0], "monte_carlo": {"n_steps": 10, "checkpoints": [0, 1]}}
    floats = {"epsilon": 1.0, "eps_list": [1.0, 0.0],
              "monte_carlo": {"n_steps": 10, "checkpoints": [0.0, 1.0]}}
    cfg_int, cfg_float = (preset_config("scalar-trivial", **json.loads(json.dumps(o)))
                          for o in (ints, floats))
    assert json.dumps(cfg_int.to_dict()) == json.dumps(cfg_float.to_dict())
    assert cli._config_hash(cfg_int) == cli._config_hash(cfg_float)


@pytest.mark.parametrize("overrides, command", [
    ({"grid_size": 10**15}, ["solve"]),
    ({"monte_carlo": {"n_steps": 10**15}}, ["simulate", "--seed", "1"]),
], ids=["grid_size", "n_steps"])
def test_a_size_the_machine_cannot_allocate_exits_4_without_a_traceback(tmp_path, capsys,
                                                                         overrides, command):
    # 10**15 + 1 float64 nodes are 7.1 PiB, past any address space: the allocation
    # fails at once (grid_size in solve, n_steps in simulate's step grid)
    raw = json.loads(json.dumps(PRESETS["scalar-trivial"]))
    raw.update(overrides)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main([*command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("memory error: Unable to allocate ")
    assert err.count("\n") == 1 and "Traceback" not in err
    # the solve ran, but a run that fails writes nothing, not the solve's files
    assert list((tmp_path / "o").iterdir()) == []
    if "monte_carlo" in overrides:  # validating the config builds no step grid
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 0


@pytest.mark.parametrize("checkpoints", [None, [i / 10 for i in range(11)]],
                         ids=["default", "tenths"])
@pytest.mark.parametrize("n_steps", [10**7, 2 * 10**7, 10**15])
def test_a_config_of_any_step_count_validates_without_building_its_grid(n_steps, checkpoints):
    # the n_steps + 1 grid nodes were built to check the checkpoints against, and
    # from 10**7 steps on the grid's 0.8 lay an ulp off k / n, so the tenths were refused
    raw = json.loads(json.dumps(PRESETS["scalar-trivial"]))
    raw["monte_carlo"] = {"n_steps": n_steps, "checkpoints": checkpoints}
    tracemalloc.start()
    try:
        cfg = RunConfig.from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.monte_carlo.checkpoints == [i / 10 for i in range(11)]
    assert peak < 64 << 10


@pytest.mark.parametrize("field, value", [
    ("tube_level", 0.0), ("tube_level", float("inf")), ("tube_resolution", 2),
    ("seed", 2**70), ("seed", 2**63), ("seed", -1),
])
def test_bad_monte_carlo_values_exit_1_before_solving(tmp_path, capsys, field, value):
    # simulate once solved and wrote its CSVs before reaching these values
    raw = json.loads(json.dumps(PRESETS["inertial-q1"]))
    raw["monte_carlo"] = {"n_paths": 10, "n_steps": 10, "seed": 1, field: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert f"monte_carlo.{field}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_off_grid_checkpoints_exit_1_before_solving(tmp_path):
    raw = json.loads(json.dumps(PRESETS["scalar-trivial"]))
    raw["monte_carlo"] = {"n_steps": 10, "seed": 1, "checkpoints": [0.0, 0.15, 1.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="monte_carlo.checkpoints"):
        RunConfig.from_dict(raw)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def test_default_checkpoints_follow_the_step_count(tmp_path):
    # the default was 0, 0.1, ..., 1 whatever the grid, so --steps 4 exited 1
    out = tmp_path / "o"
    assert main(["simulate", "--preset", "scalar-trivial", "--seed", "1", "--steps", "4",
                 "--out", str(out)]) == 0
    with open(out / "paths.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert sorted({float(row["t"]) for row in rows}) == [0.0, 0.25, 0.5, 0.75, 1.0]
    # at the default 1000 steps the recorded list, and so the config hash, is unchanged
    assert preset_config().monte_carlo.checkpoints == [i / 10 for i in range(11)]


def test_repeated_checkpoints_exit_1_before_solving(tmp_path, capsys):
    # two t = 0.5 checkpoints once exited 0 and wrote two different t = 0.5 rows
    raw = json.loads(json.dumps(PRESETS["scalar-trivial"]))
    raw["monte_carlo"] = {"n_steps": 10, "seed": 1, "checkpoints": [0.0, 0.5, 0.5, 1.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="monte_carlo.checkpoints must .*strictly increasing"):
        RunConfig.from_dict(raw)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("config error: monte_carlo.checkpoints must ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["solve", "simulate", "sweep"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_an_unusable_out_path_exits_1_before_solving(monkeypatch, tmp_path, capsys,
                                                      command, below):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output directory was made")

    monkeypatch.setattr(cli, "solve", no_solve)
    monkeypatch.setattr(cli, "epsilon_sweep", no_solve)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    out = blocker / "sub" if below else blocker
    seed = ["--seed", "1"] if command == "simulate" else []
    argv = [command, "--preset", "scalar-trivial", *seed, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory '{out}': ")
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory"


def test_load_config_applies_flags_before_validation():
    def args(paths):
        return SimpleNamespace(config=None, preset="scalar-trivial", seed=3, steps=50, paths=paths)

    with pytest.raises(ConfigError, match="n_paths"):
        load_config(args(1))
    cfg = load_config(args(20))
    assert (cfg.monte_carlo.seed, cfg.monte_carlo.n_steps, cfg.monte_carlo.n_paths) == (3, 50, 20)


def test_inertial_r4_preset_solves_and_simulates(tmp_path):
    ctx = run_solve(preset_config("inertial-r4"), tmp_path)
    problem, solution = ctx["problem"], ctx["solution"]
    assert solution.boundary_residuals[1] < 1e-4
    result = simulate(problem, solution, 20000, 1000, seed=20260826)
    gap = np.linalg.norm(result.empirical_cov[-1] - problem.sigma1)
    assert gap / np.linalg.norm(problem.sigma1) < 0.05


@pytest.mark.parametrize("argv", [
    ["solve", "--bogus"],
    ["verify", "--tol-scale", "abc"],
    [],
    ["solve", "--preset", "scalar-trivial", "--seed", "1"],
    ["solve", "--preset", "inertial-q1", "--paths", "1"],
    ["sweep", "--preset", "scalar-trivial", "--steps", "0"],
    ["verify", "--debug-plus-branch"],
], ids=["unknown-flag", "bad-value", "no-command", "solve-seed", "solve-paths", "sweep-steps",
        "verify-debug-plus-branch"])
def test_a_usage_error_exits_1_after_the_usage_message(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: covsteer")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, options", [
    ("solve", ["--config", "--preset", "--out"]),
    ("simulate", ["--config", "--preset", "--out", "--seed", "--steps", "--paths"]),
    ("sweep", ["--config", "--preset", "--out"]),
    ("verify", ["--tol-scale"]),
])
def test_each_command_takes_only_the_options_it_reads(capsys, command, options):
    assert main([command, "--help"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("  --")]
    assert listed == options


def test_main_solve_preset(tmp_path):
    raw = json.loads(json.dumps(PRESETS["scalar-trivial"]))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "report.txt").exists()


def test_verify_passes(capsys):
    assert run_verify() == 0
    out = capsys.readouterr().out
    assert "PASS endpoint-coupling" in out
    assert "FAIL" not in out


def write_reference_csv(path, cfg, header, rows):
    """The CSV format, written independently: csv.writer, one f"{float(x):.17g}" per cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# covsteer {cli.__version__} schema={cli.SCHEMA_VERSION} "
                 f"config={cli._config_hash(cfg)}\r\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{float(x):.17g}" for x in row])


def test_write_csv_formats_every_cell_with_17_digits(tmp_path):
    path = tmp_path / "row.csv"
    assert cli._cells([3, 0.1, np.float64(1 / 3), np.nan]) == [
        "3", "0.10000000000000001", "0.33333333333333331", "nan"]
    cli._write_csv(path, ["a", "b", "c", "d"],
                   cli._table_rows(cli._cells([3]), np.array([[0.1, np.float64(1 / 3), np.nan]])),
                   preset_config())
    assert path.read_bytes().splitlines(keepends=True)[2] == (
        b"3,0.10000000000000001,0.33333333333333331,nan\r\n"
    )


@pytest.mark.parametrize("chunk_rows", [7, cli.CHUNK_ROWS])
def test_write_csv_matches_a_csv_module_reference(tmp_path, monkeypatch, chunk_rows):
    # the table spans several chunks and holds every special value, in key
    # cells and in slots; at 7 rows a chunk splits every 30-row block
    monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(5)
    table = rng.standard_normal((9000, 3)) * 10.0 ** rng.integers(-300, 300, (9000, 3))
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
    table[:6, 0] = specials
    table[6:12, 1] = specials
    cfg = preset_config()
    ref, path = tmp_path / "ref.csv", tmp_path / "out.csv"
    write_reference_csv(ref, cfg, ["a", "b", "c"], table)
    lines = list(cli._table_rows(cli._cells(table[:, 0]), table[:, 1:]))
    for rows in (lines, iter(lines)):
        cli._write_csv(path, ["a", "b", "c"], rows, cfg)
        assert path.read_bytes() == ref.read_bytes()
    # blocks of 30 rows: a key cell, a fixed cell per row template and two slots
    blocks = table.reshape(300, 30, 3)
    fixed = rng.standard_normal(30) * 10.0 ** rng.integers(-300, 300, 30)
    fixed[:6] = specials
    write_reference_csv(ref, cfg, ["id", "t", "x", "y"],
                        ([b, fixed[r], *blocks[b, r, 1:]] for b in range(300) for r in range(30)))
    cli._write_csv(path, ["id", "t", "x", "y"],
                   cli._block_rows(cli._cells(np.arange(300)),
                                   [f"{c},%.17g,%.17g" for c in cli._cells(fixed)],
                                   blocks[:, :, 1:]), cfg)
    assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("rows_per_block", [10_000, 100_000])
def test_block_rows_working_memory_is_bounded_by_the_chunk(rows_per_block):
    # a block of many rows (a large tube_resolution or checkpoint count) is
    # formatted a chunk at a time; the unbounded form held 11 MB at 100 000 rows
    templates = ["%.17g,%.17g"] * rows_per_block
    values = np.random.default_rng(1).standard_normal((2, rows_per_block, 2))
    lines = cli._block_rows(["0", "1"], templates, values)
    next(lines)  # the per-template tails are as large as the templates themselves
    tracemalloc.start()
    try:
        count = 1 + sum(1 for _ in lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2 * rows_per_block
    assert peak < 1 << 20


def test_simulate_csvs_match_an_independent_writer(tmp_path):
    # tube_level 0.1 formats differently under %.17g and repr, and 300 paths
    # of 11 checkpoints span several chunks of paths.csv
    cfg = preset_config(grid_size=200, eps_list=[1.0, 0.1, 0.0])
    cfg.monte_carlo = cli.MonteCarloConfig(n_paths=300, n_steps=100, seed=11,
                                           tube_level=0.1, tube_resolution=5)
    assert 300 * 11 > 3 * cli.CHUNK_ROWS
    ctx = run_simulate(cfg, tmp_path / "out")
    run_sweep(cfg, tmp_path / "out")
    sol, result = ctx["solution"], ctx["result"]
    tri = [(i, j) for i in range(2) for j in range(i, 2)]
    expected = {
        "gains": (["t", "k_1_1", "k_1_2"],
                  ([t, *k.ravel()] for t, k in zip(sol.grid, sol.k))),
        "paths": (["path_id", "t", "x_1", "x_2"],
                  ([p, t, *result.states[p, c]] for p in range(300)
                   for c, t in enumerate(result.grid))),
        "empirical_cov": (["t", "cov_1_1", "cov_1_2", "cov_2_2"],
                          ([t, *(cov[i, j] for i, j in tri)]
                           for t, cov in zip(result.grid, result.empirical_cov))),
        "tube": (["t", "point_index", "z_1", "z_2", "level"],
                 ([t, i, *z, 0.1] for t, points in zip(sol.grid, tolerance_tube(sol, 0.1, 5))
                  for i, z in enumerate(points))),
        "sweep": (["epsilon", "pi0_gap", "boundary_residual_0", "boundary_residual_1"],
                  ([row.epsilon, row.gap, *row.boundary_residuals]
                   for row in epsilon_sweep(cfg.problem(), cfg.eps_list, cfg.grid_size))),
    }
    for label in ("pi", "h", "sigma"):
        expected[label] = (["t"] + [f"{label}_{i + 1}_{j + 1}" for i, j in tri],
                           ([t, *(m[i, j] for i, j in tri)]
                            for t, m in zip(sol.grid, getattr(sol, label))))
    for label, (header, rows) in expected.items():
        write_reference_csv(tmp_path / "ref.csv", cfg, header, rows)
        assert (tmp_path / "out" / f"{label}.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes(), label
    assert sorted(p.name for p in (tmp_path / "out").glob("*.csv")) == \
        sorted(f"{label}.csv" for label in expected)


def test_each_simulate_csv_passes_the_writer_once_one_item_per_data_row(monkeypatch, tmp_path):
    # perfbench's tracer wraps _write_csv by name and counts each item of rows as a data row
    calls = {}
    original = cli._write_csv

    def counted(path, header, rows, cfg):
        items = list(rows)
        calls[path.name] = calls.get(path.name, []) + [items]
        original(path, header, iter(items), cfg)

    monkeypatch.setattr(cli, "_write_csv", counted)
    argv = ["simulate", "--preset", "inertial-q1", "--seed", "3", "--paths", "200",
            "--steps", "50", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert sorted(calls) == sorted(["gains.csv", "pi.csv", "h.csv", "sigma.csv", "paths.csv",
                                    "empirical_cov.csv", "tube.csv"])
    for name, [items] in calls.items():
        data = (tmp_path / name).read_bytes().decode("utf-8").splitlines(True)[2:]
        assert items == data, name
        assert all(item.endswith("\r\n") and item.count("\n") == 1 for item in items), name
    assert len(calls["tube.csv"][0]) == 2001 * 64
    assert len(calls["paths.csv"][0]) == 200 * 11


def test_verify_takes_no_seed(capsys):
    # every verify check is deterministic, so a --seed is a usage error
    assert main(["verify", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments: --seed 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tol_scale", ["inf", "nan", "0", "-1"])
def test_verify_rejects_a_tol_scale_that_is_not_finite_and_positive(capsys, tol_scale):
    assert main(["verify", "--tol-scale", tol_scale]) == 1
    captured = capsys.readouterr()
    assert "config error: --tol-scale must be finite and positive" in captured.err
    assert captured.out == ""


def test_verify_overtight_tolerance_fails(capsys):
    assert run_verify(tol_scale=1e-7) == 3
    assert "FAIL" in capsys.readouterr().out


def test_verify_prints_its_15_checks_from_one_propagation_per_preset(monkeypatch, capsys):
    calls = {"propagate": 0, "build_problem": 0}
    for name in calls:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    assert main(["verify"]) == 0
    assert calls == {"propagate": 5, "build_problem": 5}
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("PASS ") for line in lines)
    names = sorted(line.split()[1].rstrip(":") for line in lines)
    presets = ["scalar-trivial", "inertial-q1", "inertial-q10", "inertial-qneg5"]
    assert names == sorted(
        ["endpoint-coupling"]
        + [f"{check}:{name}" for name in presets
           for check in ("symplectic-residual", "escape-plus-root", "no-escape-minus-root")]
        + ["gramian-route-equivalence:scalar-trivial", "gramian-route-equivalence:inertial-q0"])


@pytest.mark.parametrize("eps", [1.0, 0.0])
def test_verify_fails_the_endpoint_coupling_of_the_plus_root(monkeypatch, capsys, eps):
    # Pi0 taken from the root that escapes, at this eps alone, misses the entropic OT
    # coupling (by 2.0 or more relative on every preset), so verify must catch it
    def plus_root_at_eps(problem, phi):
        if problem.epsilon != eps:
            return initial_conditions(problem, phi)
        roots = coupling_roots(problem.sigma0, problem.sigma1, phi, problem.epsilon)
        return bridge._start(roots.z_plus, problem)

    monkeypatch.setattr(cli, "initial_conditions", plus_root_at_eps)
    assert main(["verify"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL endpoint-coupling: ") for line in lines)
