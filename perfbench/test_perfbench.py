"""Tests of the benchmark itself: statistics, span arithmetic, gates and the oracle.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] holds two children and 1 s of leaf calls;
    # child a [1, 4] holds grandchild c [2, 3]; child b [5, 6] follows a.
    spans = [
        ["root", 0.0, 10.0, tracer.ROOT],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 6.0, 0],
        ["c", 2.0, 3.0, 1],
        ["c", 12.0, 13.5, tracer.ROOT],
    ]
    leaves = {(0, "leaf"): [4, 1.0]}
    counts = {(1, "rk4_steps"): 7, (3, "rk4_steps"): 2, (3, "rk4_steps_elsewhere"): 5}
    assert tracer.self_times(spans, leaves) == [5.0, 2.0, 1.0, 1.0, 1.5]
    totals = tracer.summarize(spans, leaves, counts)
    assert totals["c.calls"] == 2
    assert totals["c.self_s"] == 2.5
    assert totals["leaf.calls"] == 4 and totals["leaf.self_s"] == 1.0
    assert totals["a.rk4_steps"] == 7 and totals["c.rk4_steps"] == 2
    assert totals["rk4_steps_elsewhere"] == 5


def test_recorder_nests_spans_and_attributes_leaves():
    ticks = iter([0.0, 1.0, 4.0, 10.0])
    rec = tracer.Recorder(clock=lambda: next(ticks))
    with rec.span("outer"):
        with rec.span("inner"):
            rec.leaf("coef", 0.25)
            rec.count("rk4_steps", 3)
        rec.leaf("coef", 0.5)
    assert rec.spans == [["outer", 0.0, 10.0, tracer.ROOT], ["inner", 1.0, 4.0, 0]]
    totals = rec.totals()
    assert totals["outer.self_s"] == 10.0 - 3.0 - 0.5
    assert totals["inner.self_s"] == 3.0 - 0.25
    assert totals["coef.calls"] == 2
    assert totals["inner.rk4_steps"] == 3


@pytest.mark.parametrize("n, value, percentile", [
    (10, None, None),
    (11, 0, 0.0),
    (21, 10, 50.0),
    (101, 90, 90.0),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, percentile):
    got = harness.tail(list(reversed(range(n))))
    if value is None:
        assert got is None
    else:
        assert got == {"value": value, "percentile": percentile, "samples": n}
        assert sum(x > got["value"] for x in range(n)) == 10


def _fake_solution(sigma_end):
    grid = np.linspace(0.0, 1.0, 5)
    sigma = np.array([(1 - t) * harness.SIGMA0 + t * np.asarray(sigma_end) for t in grid])
    return SimpleNamespace(sigma=sigma, pi=np.array([np.eye(2)] * 5))


def test_solve_gate_rejects_nan_and_misses():
    assert harness.solve_failure(_fake_solution(harness.SIGMA1), harness.SIGMA1) is None
    assert harness.solve_failure(_fake_solution(np.full((2, 2), np.nan)), harness.SIGMA1)
    assert harness.solve_failure(_fake_solution(1.01 * harness.SIGMA1), harness.SIGMA1)
    assert harness.solve_failure(_fake_solution(harness.SIGMA1), harness.SIGMA1,
                                 pi0_ref=np.eye(2) * (1 + 1e-6))
    nan_cost = SimpleNamespace(grid=np.array([0.0, 1.0]), cost_estimate=float("nan"),
                               empirical_cov=np.array([harness.SIGMA0, harness.SIGMA1]))
    assert "cost" in harness.mc_failure(nan_cost, harness.SIGMA1)


def _write_solve_csvs(out, comment, sigma_end, rows=harness.GRID + 1):
    out.mkdir()
    headers = {"gains": "t,k_1_1,k_1_2", "pi": "t,pi_1_1,pi_1_2,pi_2_2",
               "h": "t,h_1_1,h_1_2,h_2_2", "sigma": "t,sigma_1_1,sigma_1_2,sigma_2_2"}
    for name, header in headers.items():
        ncol = header.count(",")
        lines = [comment, header] + [",".join(["0.5"] * (ncol + 1))] * (rows - 1)
        lines.append("1," + ",".join(sigma_end[:ncol]))
        (out / f"{name}.csv").write_bytes(("\r\n".join(lines) + "\r\n").encode())
    (out / "report.txt").write_text("report\n")


def test_cli_gate_rejects_wrong_rows_header_and_nan(tmp_path):
    comment = harness.csv_comment("0.1.0", harness.cli_config(None, harness.CLI_PATHS))
    good = ["0.25", "0", "0.25"]
    _write_solve_csvs(tmp_path / "ok", comment, good)
    assert harness.cli_solve_failure(tmp_path / "ok", comment) is None
    _write_solve_csvs(tmp_path / "short", comment, good, rows=harness.GRID)
    assert "rows" in harness.cli_solve_failure(tmp_path / "short", comment)
    _write_solve_csvs(tmp_path / "nan", comment, ["nan", "0", "0.25"])
    assert "Sigma1" in harness.cli_solve_failure(tmp_path / "nan", comment)
    assert "header" in harness.cli_solve_failure(tmp_path / "ok", comment.replace("=1", "=2"))


def test_corrupted_operations_count_as_failed_not_as_errors():
    bad = _fake_solution(np.full((2, 2), np.nan))

    def boom():
        raise FloatingPointError("overflow in step")

    class Stub:
        def ops(self, cs, state, r):
            gate = lambda s: harness.solve_failure(s, harness.SIGMA1)  # noqa: E731
            return [harness.Op("nan", lambda: bad, gate),
                    harness.Op("raises", boom, gate),
                    harness.Op("fine", lambda: _fake_solution(harness.SIGMA1), gate)]

        def end_round(self, state, r):
            pass

    rounds = harness.measure(Stub(), None, None, seconds=0.0, probe=harness.Probe())
    assert len(rounds) == 1
    failures = {label: why for label, _, why, _ in rounds[0]}
    assert "residual" in failures["nan"]
    assert failures["raises"].startswith("FloatingPointError")
    assert failures["fine"] is None


def test_probe_samples_during_a_call_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    probe = harness.Probe()

    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return "done"

    out, speed = probe.sampled(busy)
    assert out == "done"
    assert len(probe.samples) - 2 * harness.CAL_REPS >= 2  # timer ticks during busy()
    assert speed == pytest.approx(harness.CAL_REF_S / statistics.mean(probe.samples))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_cli_expectations_mirror_the_inertial_q1_preset():
    from covsteer import cli

    cfg = cli.RunConfig.from_dict(dict(cli.PRESETS["inertial-q1"]))
    cfg.monte_carlo.seed = 7
    assert cfg.to_dict() == harness.cli_config(7, harness.CLI_PATHS)
    for label, q_scale, _ in harness.LTI_CASES:
        preset = cli.PRESETS[label.removesuffix("-eps0")]
        assert preset["system"]["Q"] == (q_scale * np.eye(2)).tolist()
        assert preset["system"]["A"] == harness.A_DI and preset["system"]["B"] == harness.B_DI
        assert np.array_equal(preset["sigma0"], harness.SIGMA0)
        assert np.array_equal(preset["sigma1"], harness.SIGMA1)


def test_tracer_counts_rk4_steps_per_layer_and_restores_names():
    import covsteer
    from covsteer import bridge, cli, hamiltonian

    original = hamiltonian.propagate
    rec = tracer.Recorder()
    with tracer.Tracer(rec):
        assert bridge.propagate is not original and cli.propagate is bridge.propagate
        sys_ = covsteer.make_system(harness.A_DI, harness.B_DI, np.eye(2), [[1.0]])
        problem = covsteer.SteeringProblem(sys_, harness.SIGMA0, harness.SIGMA1)
        rec.reset()
        covsteer.solve(problem, grid_size=200)
    assert bridge.propagate is original and cli.propagate is original
    totals = rec.totals()
    for layer in ("systems.gramian", "hamiltonian.propagate", "bridge.trajectory"):
        assert totals[f"{layer}.rk4_steps"] == 200
    assert totals["bridge.solve.calls"] == 1
    assert totals["systems.coef.calls"] > 0


def test_solve_tv_pi0_matches_dop853_oracle():
    import covsteer

    data = harness.tv_problem_data(np.random.default_rng([11, 0x7A]))
    sol = covsteer.solve(harness.tv_problem(covsteer, data), grid_size=harness.GRID)
    assert harness.rel_err(sol.pi[0], oracle.tv_pi0(data)) <= 1e-3
