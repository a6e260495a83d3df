import json
from types import SimpleNamespace

import numpy as np
import pytest

from covsteer import cli, simulate
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
    raw = {"name": "ill", "system": {"A": [[0.0, 0.0], [0.0, 0.0]],
                                     "B": [[1e3, 0.0], [0.0, 1e-4]]},
           "sigma0": [[1.0, 0.0], [0.0, 1.0]], "sigma1": [[1.0, 0.0], [0.0, 1.0]]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "Phi12 is too ill-conditioned" in capsys.readouterr().err


def test_conjugate_point_exits_2(tmp_path, capsys):
    # Q = -16 puts a zero of det X(t) inside the horizon (Phi12(t, 0) = -sin(4t) / 4)
    raw = json.loads(json.dumps(PRESETS["scalar-trivial"]))
    raw["system"]["Q"] = [[-16.0]]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "conjugate point" in capsys.readouterr().err


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
    assert "sign change=True" in report  # plus-root escape diagnostic


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


@pytest.mark.parametrize("overrides", [
    {"monte_carlo": {"n_paths": "10"}},
    {"epsilon": "abc"},
    {"grid_size": "x"},
    {"epsilon": float("nan")},
    {"epsilon": float("inf")},
    {"eps_list": [0.1, 1.0]},
    {"eps_list": [1.0, -0.1]},
    {"sigma0": [["a"]]},
    {"system": {"A": {"kind": "sampled", "times": [0.0, 0.5],
                      "values": [[[0.0]], [[0.0]]]}, "B": [[1.0]]}},
    {"system": {"A": [[float("nan")]], "B": [[1.0]]}},
    {"monte_carlo": {"checkpoints": [0.0, float("nan")]}},
    {"monte_carlo": {"checkpoints": [0.0, float("inf")]}},
    {"monte_carlo": {"tube_level": 0.0}},
    {"monte_carlo": {"tube_resolution": 2}},
    {"monte_carlo": {"tube_level": float("inf")}},
    {"monte_carlo": {"seed": 2**70}},
    {"monte_carlo": [1]},
    {"monte_carlo": {"n_steps": 0}},
    {"eps_list": 1.0},
    {"grid_size": 0},
    {"system": {"A": [[0.0]]}},
    {"system": {"A": 1.0, "B": [[1.0]]}},
    {"system": {"A": [0.0], "B": [[1.0]]}},
    {"system": {"A": {"kind": "spline"}, "B": [[1.0]]}},
    {"system": {"A": {"kind": "piecewise", "breaks": [0.0, 1.0]}, "B": [[1.0]]}},
    {"system": {"A": {"kind": "piecewise", "breaks": [0.0, 0.6, 0.4, 1.0],
                      "values": [[[0.0]]] * 3}, "B": [[1.0]]}},
    {"system": {"A": {"kind": "sampled", "times": [0.0, 0.7, 0.3, 1.0],
                      "values": [[[0.0]]] * 4}, "B": [[1.0]]}},
])
def test_main_malformed_config_exits_1(tmp_path, overrides):
    raw = json.loads(json.dumps(PRESETS["scalar-trivial"]))
    raw.update(overrides)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))  # NaN and Infinity are written as JSON literals
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


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


def test_main_solve_preset(tmp_path):
    raw = json.loads(json.dumps(PRESETS["scalar-trivial"]))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "report.txt").exists()


def test_verify_passes(capsys):
    assert run_verify() == 0
    out = capsys.readouterr().out
    assert "PASS lemma1-identity" in out
    assert "FAIL" not in out


def test_write_csv_formats_every_cell_with_17_digits(tmp_path):
    path = tmp_path / "row.csv"
    cli._write_csv(path, ["a", "b", "c", "d"], [[3, 0.1, np.float64(1 / 3), np.nan]],
                   preset_config())
    assert path.read_bytes().splitlines(keepends=True)[2] == (
        b"3,0.10000000000000001,0.33333333333333331,nan\r\n"
    )


def test_write_csv_matches_a_csv_module_reference(tmp_path):
    # reference: csv.writer with one f"{float(x):.17g}" per cell; the table spans
    # several chunked writes and holds every special value
    import csv

    rng = np.random.default_rng(5)
    table = rng.standard_normal((9000, 3)) * 10.0 ** rng.integers(-300, 300, (9000, 3))
    table[:6, 0] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
    cfg = preset_config()
    header = ["a", "b", "c"]
    ref = tmp_path / "ref.csv"
    with open(ref, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# covsteer {cli.__version__} schema={cli.SCHEMA_VERSION} "
                 f"config={cli._config_hash(cfg)}\r\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in table:
            writer.writerow([f"{float(v):.17g}" for v in row])
    for rows in (table, (row for row in table), table.tolist()):
        path = tmp_path / "out.csv"
        cli._write_csv(path, header, rows, cfg)
        assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("seed", [-1, 2**70])
def test_verify_rejects_a_seed_outside_the_stream_keys(capsys, seed):
    assert main(["verify", "--seed", str(seed)]) == 1
    assert "config error: --seed must be in [0, 2**63)" in capsys.readouterr().err


@pytest.mark.parametrize("tol_scale", ["inf", "nan", "0", "-1"])
def test_verify_rejects_a_tol_scale_that_is_not_finite_and_positive(capsys, tol_scale):
    assert main(["verify", "--tol-scale", tol_scale]) == 1
    captured = capsys.readouterr()
    assert "config error: --tol-scale must be finite and positive" in captured.err
    assert captured.out == ""


def test_verify_overtight_tolerance_fails(capsys):
    assert run_verify(tol_scale=1e-7) == 3
    assert "FAIL" in capsys.readouterr().out


def test_verify_debug_branch_line(monkeypatch, capsys):
    # one propagation per preset serves every check, the debug line included
    calls = []
    original = cli.propagate

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "propagate", counted)
    assert run_verify(debug_plus_branch=True) == 0
    assert len(calls) == 5
    out = capsys.readouterr().out
    assert "EXPECTED-FAIL forced-plus-branch" in out
    assert sum(line.startswith("PASS ") for line in out.splitlines()) == 15
