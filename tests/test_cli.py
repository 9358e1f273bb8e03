"""End-to-end checks of the command-line front end.

Everything runs in-process through ``tugpricer.cli.main`` (same interpreter,
fast) except one subprocess smoke test that exercises ``python -m tugpricer``.
"""

from __future__ import annotations

import filecmp
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tugpricer import cli, game, isaacs, pde
from tugpricer._interp import multilinear
from tugpricer.errors import ValidationError
from tugpricer.market import BasketPut, MarketParams

K = 100.0
LOG_K = math.log(K)


def base_config(**sections) -> dict:
    cfg = {
        "market": {"sigma": 0.2, "T": 1.0},
        "payoff": {"kind": "basket_put", "weights": 1.0, "strike": K},
    }
    cfg.update(sections)
    return cfg


def load(tmp_path, cfg: dict) -> cli.RunConfig:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cli.load_config(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def first_line(path) -> str:
    with open(path) as fh:
        return fh.readline().rstrip("\n")


class TestConfigParsing:
    def test_minimal_config_defaults(self, tmp_path):
        cfg = load(tmp_path, base_config())
        r = cfg.resolved
        assert r["market"]["mu"] == [0.0]
        assert r["market"]["r"] == 0.0
        assert r["market"]["running_cost"] is None
        assert r["payoff"]["lipschitz_bound"] == K
        assert r["payoff"]["sup_bound"] == K
        # default box: advection floor 4*(|mu| T + 1) dominates at sigma=0.2
        assert r["grid"]["lo"] == [pytest.approx(LOG_K - 4.0)]
        assert r["grid"]["hi"] == [pytest.approx(LOG_K + 4.0)]
        assert r["grid"]["nx"] == [101]
        assert r["grid"]["nt"] is None
        assert r["solver"]["mode"] == "limit_F"
        assert r["solver"]["m"] is None
        assert r["solver"]["cfl"] == 0.5
        assert r["solver"]["n_dirs"] == 2  # exact two-point set in one dimension
        assert r["solver"]["eps_grad"] == pytest.approx(2e-9)
        assert r["solver"]["boundary"] == "discounted_payoff"
        g = r["game"]
        assert (g["m"], g["N"], g["paths"], g["seed"]) == (10.0, 100, 10000, 0)
        assert g["start"] == [pytest.approx(LOG_K)]
        assert (g["t0"], g["nt_sim"], g["side"], g["dynamics"]) == (0.0, 200, "both", "sde")
        assert g["strategies"] == {"kind": "null"}
        assert r["outputs"] == {"surface_path": "surface.npz",
                                "report_path": "report.json",
                                "table_path": "game_table.csv", "points": None}
        assert r["operators"]["m_ladder"] == [1.0, 10.0, 100.0, 1000.0]
        assert (r["operators"]["inputs"], r["operators"]["seed"]) == (100, 7)
        assert r["certify"] == {"samples": 4096}

    def test_digest_is_stable(self, tmp_path):
        a = load(tmp_path, base_config()).digest
        b = load(tmp_path, base_config()).digest
        assert a == b
        assert len(a) == 64 and set(a) <= set("0123456789abcdef")

    def test_unknown_key_reports_dotted_path(self, tmp_path):
        cfg = base_config()
        cfg["market"]["vol"] = 0.3
        with pytest.raises(ValidationError, match="unknown config key market.vol"):
            load(tmp_path, cfg)

    @pytest.mark.parametrize("outputs,message", [
        ({"surface_path": "report.json"},
         r"outputs.report_path \('report.json'\) collides with outputs.surface_path"),
        ({"table_path": "./surface.npz"}, "outputs.table_path .* outputs.surface_path"),
        ({"report_path": "resolved_config.json"},
         "outputs.report_path .* resolved_config.json"),
        ({"surface_path": "a/../t.csv", "table_path": "t.csv"},
         "outputs.table_path .* outputs.surface_path"),
    ])
    def test_output_paths_must_differ(self, tmp_path, outputs, message):
        with pytest.raises(ValidationError, match=message):
            load(tmp_path, base_config(outputs=outputs))

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown config key extras"):
            load(tmp_path, base_config(extras={}))

    def test_sigma_must_be_positive(self, tmp_path):
        cfg = base_config()
        cfg["market"]["sigma"] = [0.0]
        with pytest.raises(ValidationError) as err:
            load(tmp_path, cfg)
        assert "market.sigma[0] must be > 0" in str(err.value)

    def test_missing_required_key(self, tmp_path):
        cfg = base_config()
        del cfg["market"]["T"]
        with pytest.raises(ValidationError, match="missing required key market.T"):
            load(tmp_path, cfg)

    def test_missing_market_section(self, tmp_path):
        cfg = base_config()
        del cfg["market"]
        with pytest.raises(ValidationError, match="missing required section market"):
            load(tmp_path, cfg)

    def test_weights_must_sum_to_one(self, tmp_path):
        cfg = base_config()
        cfg["market"]["sigma"] = [0.2, 0.3]
        cfg["payoff"]["weights"] = [0.6, 0.3]
        with pytest.raises(ValidationError, match="payoff.weights must sum to 1"):
            load(tmp_path, cfg)

    def test_scalar_mu_broadcasts(self, tmp_path):
        cfg = base_config()
        cfg["market"]["sigma"] = [0.2, 0.3]
        cfg["market"]["mu"] = 0.05
        cfg["payoff"]["weights"] = [0.5, 0.5]
        run = load(tmp_path, cfg)
        assert run.resolved["market"]["mu"] == [0.05, 0.05]
        assert run.params.n == 2

    def test_echo_keeps_resolved_values_and_types(self, tmp_path):
        cfg = base_config(grid={"nx": 11})
        cfg["market"].update(r=0, running_cost={"value": -0.5})
        r = load(tmp_path, cfg).resolved
        assert r["market"]["running_cost"] == {"value": -0.5, "alpha": 0.5}
        assert json.dumps(r["market"]["r"]) == "0.0"
        assert json.dumps(r["grid"]["nx"]) == "[11]"

    def test_bad_payoff_kind(self, tmp_path):
        cfg = base_config()
        cfg["payoff"] = {"kind": "call"}
        with pytest.raises(ValidationError, match="payoff.kind must be one of"):
            load(tmp_path, cfg)

    def test_grid_lo_hi_must_come_together(self, tmp_path):
        with pytest.raises(ValidationError, match="lo and grid.hi"):
            load(tmp_path, base_config(grid={"lo": [0.0]}))

    def test_seed_override_changes_digest(self, tmp_path):
        run = load(tmp_path, base_config())
        before = run.digest
        run.override_seed(9)
        assert run.resolved["game"]["seed"] == 9
        assert run.digest != before
        with pytest.raises(ValidationError):
            run.override_seed(-1)


class TestExitCodes:
    def test_invalid_config_returns_2(self, run_cli, tmp_path, capsys):
        cfg = base_config()
        cfg["market"]["sigma"] = -1.0
        code = run_cli("price", cfg, tmp_path / "bad")
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_config_file_returns_2(self, tmp_path, capsys):
        code = cli.main(["price", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json_returns_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(["price", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_colliding_output_paths_return_2(self, run_cli, tmp_path, capsys):
        out = tmp_path / "collide"
        cfg = base_config(grid={"lo": [LOG_K - 2.0], "hi": [LOG_K + 2.0], "nx": 41},
                          outputs={"surface_path": "report.json"})
        assert run_cli("price", cfg, out) == 2
        assert "outputs.report_path" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_zero_threads_returns_2(self, run_cli, tmp_path, capsys):
        code = run_cli("price", base_config(), tmp_path / "t0", "--threads", "0")
        assert code == 2
        assert "--threads" in capsys.readouterr().err

    def test_coarse_time_grid_returns_3(self, run_cli, tmp_path):
        cfg = base_config(grid={"lo": [-4.0], "hi": [4.0], "nx": 41, "nt": 1})
        cfg["market"]["sigma"] = 1.0
        cfg["payoff"] = {"kind": "constant", "value": 5.0}
        assert run_cli("price", cfg, tmp_path / "cfl") == 3

    def test_displacement_margin_returns_3(self, run_cli, tmp_path):
        cfg = base_config(grid={"lo": [-2.0], "hi": [2.0], "nx": 11, "nt": 2},
                          game={"m": 50.0})
        cfg["market"]["sigma"] = 1.0
        cfg["payoff"] = {"kind": "constant", "value": 5.0}
        assert run_cli("game-value", cfg, tmp_path / "margin") == 3

    def test_false_lipschitz_claim_returns_4(self, run_cli, tmp_path, capsys):
        cfg = base_config(game={"paths": 10})
        cfg["payoff"]["lipschitz_bound"] = 0.5
        code = run_cli("simulate", cfg, tmp_path / "cert")
        assert code == 4
        assert capsys.readouterr().err.startswith("error:")

    def test_out_is_an_existing_file_returns_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(grid={"nx": 11})))
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        code = cli.main(["price", "--config", str(cfg_path), "--out", str(blocker)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_output_subdirectory_returns_2(self, run_cli, tmp_path, capsys):
        cfg = base_config(grid={"nx": 11}, outputs={"surface_path": "sub/s.csv"})
        assert run_cli("price", cfg, tmp_path / "sub_out") == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_oversized_backward_induction_returns_3(self, run_cli, tmp_path, capsys):
        # default 2-D grid (101^2) and direction count: refused before any sweep
        cfg = {"market": {"sigma": [0.2, 0.2], "T": 1.0},
               "payoff": {"kind": "basket_put", "weights": [0.5, 0.5], "strike": K}}
        start = time.perf_counter()
        assert run_cli("game-value", cfg, tmp_path / "budget") == 3
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert "game.n_dirs" in err and "grid.nx" in err

    def test_unexpected_exception_returns_1_without_traceback(self, run_cli, tmp_path,
                                                              capsys, monkeypatch):
        def boom(cfg, out, threads):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "price", boom)
        assert run_cli("price", base_config(grid={"nx": 11}), tmp_path / "boom") == 1
        err = capsys.readouterr().err
        assert err == "error: internal: RuntimeError: boom\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,section,value", [
        ("grid.nx", "grid", {"nx": 2}),
        ("grid.lo", "grid", {"lo": [LOG_K + 1.0], "hi": [LOG_K - 1.0]}),
        ("solver.mode", "solver", {"mode": "implicit"}),
        ("solver.cfl", "solver", {"cfl": 1.5}),
        ("solver.m", "solver", {"mode": "bounded_minus"}),
        ("solver.eps_grad", "solver", {"eps_grad": -1.0}),
        ("market.running_cost.alpha", "market",
         {"running_cost": {"value": -0.5, "alpha": -1.0}}),
        ("payoff.sup_bound", "payoff", {"sup_bound": -1.0}),
        ("game.paths", "game", {"paths": -1}),
        ("game.t0", "game", {"t0": 1.0}),
        ("game.nt_sim", "game", {"nt_sim": 0}),
        ("game.N", "game", {"N": 0}),
        ("game.n_dirs", "game", {"n_dirs": 1}),
        ("game.strategies.plus.d", "game", {"strategies": {
            "kind": "constant", "plus": {"theta": [1.0], "d": -1.0},
            "minus": {"theta": [-1.0], "d": 0.0}}}),
        ("game.strategies.minus.d", "game", {"strategies": {
            "kind": "constant", "plus": {"theta": [1.0], "d": 0.5},
            "minus": {"theta": [-1.0], "d": 2.0}, "m": 1.0}}),
        ("game.strategies.plus.theta", "game", {"strategies": {
            "kind": "constant", "plus": {"theta": [0.5], "d": 0.0},
            "minus": {"theta": [-1.0], "d": 0.0}}}),
        ("game.strategies.kind", "game", {"strategies": {"kind": "random"}}),
        ("game.strategies.mode", "game", {"strategies": {"kind": "greedy",
                                                         "mode": "limit_F"}}),
        ("game.side", "game", {"side": "left"}),
        ("game.dynamics", "game", {"dynamics": "coin"}),
        ("game.seed", "game", {"seed": -1}),
        ("game.start", "game", {"start": [LOG_K, LOG_K]}),
        ("grid.nt", "grid", {"nt": 0}),
        ("solver.n_dirs", "solver", {"n_dirs": 2.5}),
        ("operators.m_ladder", "operators", {"m_ladder": [1, 0]}),
        ("operators.inputs", "operators", {"inputs": 0}),
        ("operators.p_min", "operators", {"p_min": 3.0}),
        ("certify.samples", "certify", {"samples": 1}),
        ("outputs.points", "outputs", {"points": []}),
        ("market.r", "market", {"r": None}),  # null is absent only where the default is
    ])
    def test_rejected_value_names_its_dotted_key(self, run_cli, tmp_path, capsys,
                                                 key, section, value):
        cfg = base_config()
        if key == "game.n_dirs":  # the direction count matters only for n >= 2
            cfg["market"]["sigma"] = [0.2, 0.2]
            cfg["payoff"]["weights"] = [0.5, 0.5]
        cfg.setdefault(section, {}).update(value)
        assert run_cli("simulate", cfg, tmp_path / "bad") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {key} "), lines

    def test_point_outside_box_returns_2(self, run_cli, tmp_path):
        cfg = base_config(grid={"lo": [LOG_K - 2], "hi": [LOG_K + 2], "nx": 11},
                          outputs={"points": [[10.0]]})
        assert run_cli("price", cfg, tmp_path / "pts") == 2

    @pytest.mark.parametrize("command", ["price", "game-value", "compare"])
    def test_point_outside_box_is_refused_before_solving(self, run_cli, tmp_path, capsys,
                                                         monkeypatch, command):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking outputs.points")

        monkeypatch.setattr(pde, "solve_terminal_value", no_solve)
        monkeypatch.setattr(game, "dpp_solve", no_solve)
        cfg = base_config(grid={"lo": [LOG_K - 2], "hi": [LOG_K + 2], "nx": 11, "nt": 8},
                          outputs={"points": [[20.0]]})
        out = tmp_path / "pts"
        assert run_cli(command, cfg, out) == 2
        assert capsys.readouterr().err == "error: outputs.points[0] lies outside the grid box\n"
        assert sorted(f.name for f in out.iterdir()) == ["config.json"]


class TestPriceCommand:
    GRID = {"lo": [LOG_K - 2.0], "hi": [LOG_K + 2.0], "nx": 41}

    def test_report_matches_library_solve(self, run_cli, tmp_path):
        out = tmp_path / "price"
        cfg = base_config(grid=dict(self.GRID),
                          outputs={"surface_path": "s.csv", "report_path": "r.json"})
        cfg["market"]["r"] = 0.02
        assert run_cli("price", cfg, out) == 0

        report = read_json(out / "r.json")
        resolved = read_json(out / "resolved_config.json")
        assert report["config_digest"] == resolved["config_digest"]
        assert first_line(out / "s.csv") == f"# config_digest={report['config_digest']}"

        params = MarketParams(mu=np.array([0.0]), sigma=np.array([0.2]),
                              r=0.02, T=1.0)
        payoff = BasketPut(weights=np.array([1.0]), strike=K)
        spec = pde.GridSpec(lo=np.array(self.GRID["lo"]),
                            hi=np.array(self.GRID["hi"]), nx=(41,), nt=None)
        surface = pde.solve_terminal_value(payoff, params, pde.SolverConfig(), spec)
        assert report["nt"] == surface.nt
        assert report["dt"] == pytest.approx(surface.dt, rel=0, abs=0)

        u0 = multilinear(surface.spec.axes, surface.values[0],
                         np.array([[LOG_K]]))[0]
        pt = report["points"][0]
        assert pt["x"] == [pytest.approx(LOG_K)]
        assert pt["u"] == pytest.approx(u0, abs=1e-12)

        # the CSV must round-trip the solved surface exactly, slices from T to 0
        times, points, values = pde.read_surface_csv(out / "s.csv")
        stacked = values.reshape(surface.nt + 1, -1)[::-1]
        assert np.array_equal(stacked, surface.values.reshape(surface.nt + 1, -1))
        assert times[0] == params.T and times[-1] == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_default_archive_is_the_library_solve(self, run_cli, tmp_path, n):
        out = tmp_path / "npz"
        if n == 1:
            cfg = base_config(grid=dict(self.GRID))
        else:
            cfg = {"market": {"sigma": [0.2, 0.3], "T": 1.0},
                   "payoff": {"kind": "basket_put", "weights": [0.5, 0.5], "strike": K},
                   "grid": {"nx": [9, 7]}}
        assert run_cli("price", cfg, out) == 0
        assert not (out / "surface.csv").exists()
        report = read_json(out / "report.json")
        resolved = read_json(out / "resolved_config.json")
        grid = resolved["config"]["grid"]
        run = cli.load_config(out / "config.json")
        surface = pde.solve_terminal_value(run.payoff, run.params, run.solver, run.grid)
        axes = [f"x_{i + 1}" for i in range(n)]
        with np.load(out / "surface.npz", allow_pickle=False) as archive:
            assert archive.files == ["t", *axes, "u", "config_digest"]
            assert np.array_equal(archive["u"], surface.values)
            assert np.array_equal(archive["t"], np.arange(report["nt"] + 1) * report["dt"])
            for i, name in enumerate(axes):
                assert np.array_equal(archive[name], np.linspace(grid["lo"][i], grid["hi"][i],
                                                                 grid["nx"][i]))
            digest = archive["config_digest"]
            assert digest.dtype.kind == "U"
            assert digest.item() == report["config_digest"] == resolved["config_digest"]

    def test_archive_lands_at_exactly_the_configured_path(self, run_cli, tmp_path):
        out = tmp_path / "bin"
        cfg = base_config(grid=dict(self.GRID), outputs={"surface_path": "s.bin"})
        assert run_cli("price", cfg, out) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "config.json", "report.json", "resolved_config.json", "s.bin"]
        with np.load(out / "s.bin", allow_pickle=False) as archive:
            assert archive["u"].shape == (read_json(out / "report.json")["nt"] + 1, 41)

    @pytest.mark.parametrize("sections", [
        {},
        {"game": {"strategies": {"kind": "constant", "plus": {"theta": [1.0], "d": 2},
                                 "minus": {"theta": -1.0, "d": 0}}}},
        {"game": {"m": 2, "strategies": {"kind": "greedy", "mode": "bounded_plus"}}},
        {"market": {"sigma": [0.2, 0.3], "mu": 0.01, "T": 1.0},
         "payoff": {"kind": "basket_put", "weights": [0.5, 0.5], "strike": K},
         "solver": {"n_dirs": 8}, "game": {"n_dirs": 16}},
        {"market": {"sigma": 0.2, "T": 1.0, "running_cost": {"value": -0.5}}},
        {"payoff": {"kind": "table", "path": "put.csv", "sup_bound": K,
                    "lipschitz_bound": 2 * K}},
        {"game": {"dynamics": "discrete", "N": 16, "side": "minus", "start": LOG_K}},
        {"market": {"sigma": 0.2, "T": 1.0, "running_cost": None},
         "payoff": {"kind": "basket_put", "weights": 1.0, "strike": K,
                    "lipschitz_bound": None, "sup_bound": None},
         "grid": None, "solver": None, "game": None, "outputs": None, "operators": None,
         "certify": None},
        {"solver": {"m": None, "eps_grad": None, "n_dirs": None},
         "game": {"n_dirs": None, "start": None, "strategies": None},
         "outputs": {"points": None}},
    ], ids=["defaults", "constant", "greedy", "2d", "running_cost", "table", "discrete",
            "null_sections", "null_keys"])
    def test_resolved_config_reruns_cleanly(self, run_cli, tmp_path, sections):
        """The echoed config is itself a valid config with the same digest."""
        out = tmp_path / "echo"
        n = len(np.atleast_1d(sections.get("market", {}).get("sigma", 0.2)))
        cfg = base_config(**{"grid": {"lo": [LOG_K - 1] * n, "hi": [LOG_K + 1] * n,
                                      "nx": 11}, **sections})
        x = np.linspace(LOG_K - 2, LOG_K + 2, 41).tolist()
        table = "x_1,g\n" + "".join(f"{v!r},{max(K - math.exp(v), 0.0)!r}\n" for v in x)
        out.mkdir()
        for base in (out, tmp_path):  # the run's and the reload's config directory
            (base / "put.csv").write_text(table)
        assert run_cli("price", cfg, out) == 0
        resolved = read_json(out / "resolved_config.json")
        again = load(tmp_path, resolved["config"])
        assert again.digest == resolved["config_digest"]


class TestSimulateCommand:
    def small(self, **game_over):
        game = {"paths": 400, "nt_sim": 25, "seed": 5}
        game.update(game_over)
        return base_config(game=game)

    def test_report_has_exact_shape(self, run_cli, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", self.small(), out) == 0
        report = read_json(out / "report.json")
        assert set(report) == {"mean", "stderr", "paths", "seed", "config_digest"}
        assert report["paths"] == 400 and report["seed"] == 5
        assert 0.0 <= report["mean"] <= K
        assert report["stderr"] > 0.0

    def test_seed_flag_overrides_config(self, run_cli, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        assert run_cli("simulate", self.small(), out_a) == 0
        assert run_cli("simulate", self.small(), out_b, "--seed", "9") == 0
        assert run_cli("simulate", self.small(), out_c, "--seed", "5") == 0
        rep_a = read_json(out_a / "report.json")
        rep_b = read_json(out_b / "report.json")
        assert rep_b["seed"] == 9
        assert read_json(out_b / "resolved_config.json")["config"]["game"]["seed"] == 9
        assert rep_b["config_digest"] != rep_a["config_digest"]
        assert rep_b["mean"] != rep_a["mean"]
        # overriding with the value already in the config is a no-op
        assert filecmp.cmp(out_a / "report.json", out_c / "report.json",
                           shallow=False)

    def test_reruns_and_threads_are_byte_identical(self, run_cli, tmp_path):
        runs = {"t1a": (), "t1b": (), "t4a": ("--threads", "4"),
                "t4b": ("--threads", "4")}
        for name, extra in runs.items():
            assert run_cli("simulate", self.small(paths=2000), tmp_path / name,
                           *extra) == 0
        for name in ("t1b", "t4a", "t4b"):
            assert filecmp.cmp(tmp_path / "t1a" / "report.json",
                               tmp_path / name / "report.json", shallow=False)
            assert filecmp.cmp(tmp_path / "t1a" / "resolved_config.json",
                               tmp_path / name / "resolved_config.json",
                               shallow=False)

    def test_constant_strategies_accepted(self, run_cli, tmp_path):
        cfg = self.small()
        cfg["game"]["strategies"] = {
            "kind": "constant",
            "plus": {"theta": [1.0], "d": 2.0},
            "minus": {"theta": [-1.0], "d": 0.0},
        }
        out = tmp_path / "const"
        assert run_cli("simulate", cfg, out) == 0
        assert math.isfinite(read_json(out / "report.json")["mean"])

    def test_greedy_strategies_from_solved_surface(self, run_cli, tmp_path):
        cfg = self.small(m=2.0)
        cfg["grid"] = {"lo": [LOG_K - 2.0], "hi": [LOG_K + 2.0], "nx": 41}
        cfg["game"]["strategies"] = {"kind": "greedy", "mode": "bounded_minus"}
        out = tmp_path / "greedy"
        assert run_cli("simulate", cfg, out) == 0
        report = read_json(out / "report.json")
        assert 0.0 <= report["mean"] <= K

    def test_greedy_pair_plays_the_solver_directions(self, run_cli, tmp_path, monkeypatch):
        """The greedy controls search the direction set the surface was solved
        with (``solver.n_dirs``), not the DPP's (``game.n_dirs``)."""
        counts = {"hm": set(), "greedy": set()}
        hm, greedy = isaacs.hm_values_batch, game.greedy_controls_batch

        def hm_spy(xi, p, M, m, params, dirs, side):
            counts["hm"].add(dirs.dirs.shape[0])
            return hm(xi, p, M, m, params, dirs, side)

        def greedy_spy(xi, p, M, m, params, dirs, side):
            counts["greedy"].add(dirs.dirs.shape[0])
            return greedy(xi, p, M, m, params, dirs, side)

        monkeypatch.setattr(isaacs, "hm_values_batch", hm_spy)
        monkeypatch.setattr(game, "greedy_controls_batch", greedy_spy)
        cfg = base_config(
            market={"sigma": [0.2, 0.2], "T": 1.0},
            payoff={"kind": "basket_put", "weights": [0.5, 0.5], "strike": K},
            grid={"lo": [LOG_K - 2.0] * 2, "hi": [LOG_K + 2.0] * 2, "nx": [11, 13]},
            solver={"n_dirs": 8},
            game={"m": 2.0, "n_dirs": 16, "paths": 50, "nt_sim": 5, "seed": 5,
                  "strategies": {"kind": "greedy", "mode": "bounded_plus"}})
        assert run_cli("simulate", cfg, tmp_path / "dirs") == 0
        assert counts == {"hm": {8}, "greedy": {8}}

    def test_discrete_dynamics(self, run_cli, tmp_path):
        cfg = self.small(dynamics="discrete", N=16, paths=500)
        out = tmp_path / "disc"
        assert run_cli("simulate", cfg, out) == 0
        report = read_json(out / "report.json")
        assert 0.0 <= report["mean"] <= K and report["paths"] == 500

    @pytest.mark.parametrize("T, t0, N", [(0.5, 0.0, 3), (1.0, 0.25, 10)])
    def test_horizon_off_the_step_grid_returns_2(self, run_cli, tmp_path, capsys, T, t0, N):
        cfg = self.small(dynamics="discrete", N=N, t0=t0, paths=500)
        cfg["market"]["T"] = T
        out = tmp_path / "off"
        assert run_cli("simulate", cfg, out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: (market.T - game.t0) * game.N = ")
        assert "whole number of game steps" in err
        assert not (out / "report.json").exists()
        # the SDE clock has no 1/N grid, so the same horizon runs there
        cfg["game"]["dynamics"] = "sde"
        assert run_cli("simulate", cfg, tmp_path / "sde") == 0

    @pytest.mark.parametrize("dynamics", ["sde", "discrete"])
    def test_zero_paths_returns_2_before_certifying(self, run_cli, tmp_path, capsys,
                                                    monkeypatch, dynamics):
        def no_certify(cfg):
            raise AssertionError("certified before checking game.paths")

        monkeypatch.setattr(cli, "_certify", no_certify)
        out = tmp_path / "zero"
        assert run_cli("simulate", self.small(dynamics=dynamics, N=16, paths=0), out) == 2
        assert capsys.readouterr().err == "error: game.paths must be >= 1\n"
        assert not (out / "report.json").exists()

    def test_horizon_on_the_step_grid_runs(self, run_cli, tmp_path):
        out = tmp_path / "on"
        assert run_cli("simulate", self.small(dynamics="discrete", N=30, t0=0.1), out) == 0
        assert read_json(out / "report.json")["paths"] == 400


class TestCheckOperators:
    def test_one_dimensional_ladder_is_exact(self, run_cli, tmp_path):
        out = tmp_path / "ops"
        cfg = base_config(operators={"m_ladder": [1, 10], "inputs": 20, "seed": 7})
        cfg["market"] = {"sigma": 1.0, "r": 0.1, "T": 1.0}
        cfg["payoff"] = {"kind": "constant", "value": 5.0}
        assert run_cli("check-operators", cfg, out) == 0
        report = read_json(out / "report.json")
        assert report["n"] == 1 and report["n_dirs"] == 2
        assert report["m_ladder"] == [1.0, 10.0]
        for errs in (report["max_err_plus"], report["max_err_minus"]):
            assert len(errs) == 2
            assert all(e <= 1e-12 for e in errs)

        table = out / "game_table.csv"
        assert first_line(table) == f"# config_digest={report['config_digest']}"
        lines = table.read_text().splitlines()
        assert lines[1] == "input,m,err_plus,err_minus,norm_M"
        assert len(lines) == 2 + 2 * 20  # digest + header + inputs * rungs

    def test_table_bytes_match_savetxt(self, run_cli, tmp_path):
        out = tmp_path / "ops2"
        cfg = {"market": {"sigma": [1.0, 1.0], "r": 0.1, "T": 1.0},
               "payoff": {"kind": "constant", "value": 5.0}, "solver": {"n_dirs": 16},
               "operators": {"m_ladder": [1, 10, 1000], "inputs": 6, "seed": 5}}
        assert run_cli("check-operators", cfg, out) == 0
        text = (out / "game_table.csv").read_text()
        lines = text.splitlines(keepends=True)
        rows = np.loadtxt(io.StringIO("".join(lines[2:])), delimiter=",", ndmin=2)
        assert rows.shape == (3 * 6, 5)
        ref = io.StringIO()
        ref.write("".join(lines[:2]))
        np.savetxt(ref, rows, fmt="%d,%.17g,%.17g,%.17g,%.17g")
        assert text == ref.getvalue()


class TestGameValueCommand:
    def test_tables_and_ordering(self, run_cli, tmp_path):
        out = tmp_path / "gv"
        cfg = base_config(
            grid={"lo": [LOG_K - 1.5], "hi": [LOG_K + 1.5], "nx": 31, "nt": 20},
            game={"m": 2.0})
        assert run_cli("game-value", cfg, out) == 0
        report = read_json(out / "report.json")
        assert report["nt"] == 20
        assert report["max_lower_minus_upper"] <= 1e-9
        pt = report["points"][0]
        assert pt["u_minus"] <= pt["u_plus"] + 1e-9
        assert 0.0 <= pt["u_minus"] <= K
        assert first_line(out / "game_table.csv") == \
            f"# config_digest={report['config_digest']}"

    def test_single_side_skips_gap(self, run_cli, tmp_path):
        out = tmp_path / "gv1"
        cfg = base_config(
            grid={"lo": [LOG_K - 1.5], "hi": [LOG_K + 1.5], "nx": 21, "nt": 10},
            game={"m": 2.0, "side": "minus"})
        assert run_cli("game-value", cfg, out) == 0
        report = read_json(out / "report.json")
        assert "max_lower_minus_upper" not in report
        assert "u_minus" in report["points"][0]
        assert "u_plus" not in report["points"][0]


    def test_two_dimensional_both_sides(self, run_cli, tmp_path):
        out = tmp_path / "gv2"
        cfg = {"market": {"sigma": [0.2, 0.2], "T": 1.0},
               "payoff": {"kind": "basket_put", "weights": [0.5, 0.5], "strike": K},
               "grid": {"nx": 15, "nt": 4}, "game": {"n_dirs": 8}}
        assert run_cli("game-value", cfg, out) == 0
        report = read_json(out / "report.json")
        assert report["max_lower_minus_upper"] <= 1e-9
        pt = report["points"][0]
        assert pt["u_minus"] <= pt["u_plus"] + 1e-9
        with open(out / "game_table.csv") as fh:
            sides = {line.rsplit(",", 1)[1].strip() for line in fh if line[0].isdigit()}
        assert sides == {"minus", "plus"}

    def test_archive_tables_are_the_dpp_tables(self, run_cli, tmp_path):
        out = tmp_path / "gvz"
        cfg = base_config(
            grid={"lo": [LOG_K - 1.5], "hi": [LOG_K + 1.5], "nx": 21, "nt": 10},
            game={"m": 2.0}, outputs={"table_path": "tables.npz"})
        assert run_cli("game-value", cfg, out) == 0
        assert not (out / "game_table.csv").exists()
        report = read_json(out / "report.json")
        run = cli.load_config(out / "config.json")
        with np.load(out / "tables.npz", allow_pickle=False) as archive:
            assert archive.files == ["t", "x_1", "u_minus", "u_plus", "config_digest"]
            for side in ("minus", "plus"):
                tables = game.dpp_solve(run.payoff, run.params, 2.0, run.grid, side)
                assert np.array_equal(archive[f"u_{side}"], getattr(tables, f"u_{side}"))
            assert np.array_equal(archive["t"], np.arange(11) * report["dt"])
            assert archive["config_digest"].item() == report["config_digest"]


class TestCompareCommand:
    def test_three_way_report(self, run_cli, tmp_path):
        out = tmp_path / "cmp"
        cfg = base_config(
            grid={"lo": [LOG_K - 2.0], "hi": [LOG_K + 2.0], "nx": 21, "nt": 12},
            game={"m": 2.0, "paths": 0})
        assert run_cli("compare", cfg, out) == 0
        report = read_json(out / "report.json")
        assert report["max_lower_minus_upper"] <= 1e-9
        for side in ("minus", "plus"):
            assert report[f"max_gap_dpp_{side}_vs_pde"] >= \
                report[f"max_interior_gap_dpp_{side}_vs_pde"]
        pt = report["points"][0]
        assert {"u_pde", "u_dpp_minus", "u_dpp_plus"} <= set(pt)
        assert "mc" not in report  # paths=0 disables the Monte Carlo leg

    def test_bad_constant_pair_is_refused_before_solving(self, run_cli, tmp_path, capsys,
                                                        monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the strategy pair")

        monkeypatch.setattr(game, "dpp_solve", no_solve)
        monkeypatch.setattr(pde, "solve_terminal_value", no_solve)
        cfg = base_config(game={"strategies": {
            "kind": "constant", "plus": {"theta": [0.5], "d": 1.0},
            "minus": {"theta": [-1.0], "d": 0.0}}})
        assert run_cli("compare", cfg, tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: game.strategies.plus.theta must be a unit vector")

    def test_monte_carlo_leg(self, run_cli, tmp_path):
        out = tmp_path / "cmpmc"
        cfg = base_config(
            grid={"lo": [LOG_K - 2.0], "hi": [LOG_K + 2.0], "nx": 21, "nt": 12},
            game={"m": 2.0, "paths": 300, "nt_sim": 25, "seed": 3})
        assert run_cli("compare", cfg, out) == 0
        report = read_json(out / "report.json")
        assert report["mc"]["paths"] == 300 and report["mc"]["seed"] == 3


class TestSubprocess:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "sub"
        out.mkdir()
        cfg_path = out / "config.json"
        cfg = base_config(grid={"lo": [LOG_K - 1.0], "hi": [LOG_K + 1.0], "nx": 11})
        cfg_path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "tugpricer", "price",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()
        assert (out / "surface.npz").exists()
        assert (out / "resolved_config.json").exists()

    def test_import_loads_no_scipy(self):
        # scipy is needed only for n >= 4 direction fans; importing the CLI
        # must not pay for it
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, tugpricer.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
