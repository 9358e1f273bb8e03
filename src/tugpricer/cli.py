"""Command-line front end.

Subcommands:

* ``price``           solve the backward PDE and write the surface + report
* ``game-value``      backward-induction value tables of the bounded game
* ``simulate``        Monte Carlo play-out of a strategy pair (SDE or coin game)
* ``check-operators`` |H_m +- F| error table over an m-ladder
* ``compare``         joint PDE / DPP / Monte Carlo report with gaps

All commands read one JSON config (strict: unknown keys are errors), write
their artifacts into ``--out`` and echo the fully defaulted configuration to
``resolved_config.json``.  Every artifact embeds the SHA-256 digest of the
canonical resolved config, and reruns with identical config, seed and any
``--threads`` value are byte-identical.

Exit codes: 0 ok, 1 internal error, 2 configuration or contract error or
unwritable output, 3 numerical precondition (the CFL bound, the DPP
displacement margin, the DPP query budget, a non-finite solve, or a solution
leaving [0, sup g]), 4 payoff certification failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import game, isaacs, pde
from ._interp import multilinear
from .errors import CertificationError, PreconditionError, PricingError, ValidationError
from .market import (BasketPut, MarketParams, Payoff, TabulatedPayoff, certify_payoff,
                     constant_payoff, constant_running_cost, read_payoff_table)

_MISSING = object()


class _Node:
    """One object level of the config tree; tracks consumed keys so that
    anything left over can be reported as an unknown key by full path."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ValidationError(f"{path or 'config'} must be a JSON object")
        self._data = data
        self._path = path
        self._seen: set[str] = set()

    def key(self, name: str) -> str:
        return f"{self._path}.{name}" if self._path else name

    def take(self, name: str, default=_MISSING):
        self._seen.add(name)
        if name in self._data:
            return self._data[name]
        if default is _MISSING:
            raise ValidationError(f"missing required key {self.key(name)}")
        return default

    def child(self, name: str, required: bool = False) -> "_Node":
        """The named section; an optional one that is absent or null is empty."""
        raw = self.take(name, None)
        if raw is None:
            if required:
                raise ValidationError(f"missing required section {self.key(name)}")
            raw = {}
        return _Node(raw, self.key(name))

    def close(self) -> None:
        unknown = sorted(set(self._data) - self._seen)
        if unknown:
            raise ValidationError(f"unknown config key {self.key(unknown[0])}")


def _scalar(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path} must be a number")
    val = float(value)
    if not np.isfinite(val):
        raise ValidationError(f"{path} must be finite")
    return val


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path} must be an integer")
    return int(value)


def _vector(value, path: str, n: int | None = None) -> list[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out = [_scalar(value, path)]
        if n is not None and n != 1:
            out = out * n
        return out
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{path} must be a number or a non-empty list")
    out = [_scalar(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if n is not None and len(out) != n:
        raise ValidationError(f"{path} must have {n} entries, got {len(out)}")
    return out


def _build(section: str, make, *args, **kwargs):
    """Call a library constructor; its ValidationError gains the section key.

    The library messages lead with the field name, so the result names the
    dotted config key, e.g. ``market.sigma[0] must be > 0``.
    """
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{section}.{exc}") from exc


def _optional(node: _Node, name: str) -> float | None:
    value = node.take(name, None)
    return None if value is None else _scalar(value, node.key(name))


def _parse_market(node: _Node) -> tuple[MarketParams, dict]:
    sigma = _vector(node.take("sigma"), "market.sigma")
    mu = _vector(node.take("mu", 0.0), "market.mu", len(sigma))
    r = _scalar(node.take("r", 0.0), "market.r")
    T = _scalar(node.take("T"), "market.T")
    rc = None
    rc_echo = None
    if node.take("running_cost", None) is not None:
        rc_node = node.child("running_cost")
        value = _scalar(rc_node.take("value"), "market.running_cost.value")
        alpha = _optional(rc_node, "alpha")
        rc_node.close()
        rc = _build("market.running_cost", constant_running_cost, value, alpha)
        rc_echo = {"value": value, "alpha": rc.alpha}
    node.close()
    params = _build("market", MarketParams, mu=np.array(mu), sigma=np.array(sigma),
                    r=r, T=T, running_cost=rc)
    echo = {"mu": mu, "sigma": sigma, "r": r, "T": T, "running_cost": rc_echo}
    return params, echo


def _parse_payoff(node: _Node, n: int, base: Path) -> tuple[Payoff, dict]:
    kind = node.take("kind")
    if kind == "basket_put":
        weights = _vector(node.take("weights"), "payoff.weights", n)
        strike = _scalar(node.take("strike"), "payoff.strike")
        lip = _optional(node, "lipschitz_bound")
        sup = _optional(node, "sup_bound")
        node.close()
        payoff = _build("payoff", BasketPut, weights=np.array(weights), strike=strike,
                        lipschitz_bound=lip, sup_bound=sup)
        echo = {"kind": kind, "weights": weights, "strike": strike,
                "lipschitz_bound": payoff.lipschitz_bound, "sup_bound": payoff.sup_bound}
        return payoff, echo
    if kind == "constant":
        value = _scalar(node.take("value"), "payoff.value")
        node.close()
        return _build("payoff", constant_payoff, value, n), {"kind": kind, "value": value}
    if kind == "table":
        rel = node.take("path")
        if not isinstance(rel, str):
            raise ValidationError("payoff.path must be a string")
        lip = _optional(node, "lipschitz_bound")
        sup = _optional(node, "sup_bound")
        node.close()
        path = (base / rel).resolve() if not Path(rel).is_absolute() else Path(rel)
        axes, table = read_payoff_table(path)  # its messages lead with the file path
        payoff = _build("payoff", TabulatedPayoff, axes=axes, table=table,
                        lipschitz_bound=lip, sup_bound=sup)
        if payoff.n != n:
            raise ValidationError(
                f"payoff.path table has {payoff.n} axes but market.sigma implies n={n}")
        echo = {"kind": kind, "path": str(rel),
                "lipschitz_bound": payoff.lipschitz_bound, "sup_bound": payoff.sup_bound}
        return payoff, echo
    raise ValidationError(
        f"payoff.kind must be one of basket_put, constant, table (got {kind!r})")


def _parse_grid(node: _Node, params: MarketParams,
                payoff: Payoff) -> tuple[pde.GridSpec, dict]:
    n = params.n
    lo_raw = node.take("lo", None)
    hi_raw = node.take("hi", None)
    if (lo_raw is None) != (hi_raw is None):
        raise ValidationError("grid.lo and grid.hi must be given together")
    if lo_raw is None:
        lo, hi = pde.default_domain(params, payoff.center())
    else:
        lo = np.array(_vector(lo_raw, "grid.lo", n))
        hi = np.array(_vector(hi_raw, "grid.hi", n))
    nx_raw = node.take("nx", 101)
    if isinstance(nx_raw, list):
        nx = tuple(_integer(v, f"grid.nx[{i}]") for i, v in enumerate(nx_raw))
    else:
        nx = tuple([_integer(nx_raw, "grid.nx")] * n)
    nt = node.take("nt", None)
    if nt is not None:
        nt = _integer(nt, "grid.nt")
    node.close()
    spec = _build("grid", pde.GridSpec, lo=lo, hi=hi, nx=nx, nt=nt)
    echo = {"lo": [float(v) for v in lo], "hi": [float(v) for v in hi],
            "nx": list(nx), "nt": nt}
    return spec, echo


def _parse_solver(node: _Node, params: MarketParams) -> tuple[pde.SolverConfig, dict]:
    mode = node.take("mode", "limit_F")
    m = _optional(node, "m")
    eps = _optional(node, "eps_grad")
    n_dirs = node.take("n_dirs", None)
    if n_dirs is not None:
        n_dirs = _integer(n_dirs, "solver.n_dirs")
    cfl = _scalar(node.take("cfl", 0.5), "solver.cfl")
    boundary = node.take("boundary", "discounted_payoff")
    node.close()
    cfg = _build("solver", pde.SolverConfig, mode=mode, m=m, eps_grad=eps, n_dirs=n_dirs,
                 cfl=cfl, boundary=boundary)
    echo = {"mode": cfg.mode, "m": cfg.m,
            "eps_grad": cfg.resolved_eps_grad(params),
            "n_dirs": _directions("solver", params.n, cfg.n_dirs).count,
            "cfl": cfg.cfl, "boundary": cfg.boundary}
    return cfg, echo


def _directions(section: str, n: int, n_dirs: int | None) -> isaacs.DirectionSet:
    return _build(section, isaacs.DirectionSet.for_dimension, n, n_dirs)


def _parse_strategies(node: _Node, n: int) -> dict:
    kind = node.take("kind", "null")
    if kind == "null":
        node.close()
        return {"kind": "null"}
    if kind == "constant":
        out = {"kind": "constant"}
        for name in ("plus", "minus"):
            sub = node.child(name, required=True)
            theta = _vector(sub.take("theta"), f"game.strategies.{name}.theta", n)
            d = _scalar(sub.take("d"), f"game.strategies.{name}.d")
            sub.close()
            out[name] = {"theta": theta, "d": d}
        out["m"] = _optional(node, "m")
        node.close()
        return out
    if kind == "greedy":
        mode = node.take("mode", "bounded_minus")
        if mode not in ("bounded_minus", "bounded_plus"):
            raise ValidationError(
                "game.strategies.mode must be bounded_minus or bounded_plus")
        node.close()
        return {"kind": "greedy", "mode": mode}
    raise ValidationError(
        f"game.strategies.kind must be one of null, constant, greedy (got {kind!r})")


def _parse_game(node: _Node, params: MarketParams, payoff: Payoff) -> dict:
    n = params.n
    m = _scalar(node.take("m", 10.0), "game.m")
    if m <= 0:
        raise ValidationError("game.m must be > 0")
    n_dirs = node.take("n_dirs", None)
    if n_dirs is not None:
        n_dirs = _integer(n_dirs, "game.n_dirs")
        _directions("game", n, n_dirs)
    N = _integer(node.take("N", 100), "game.N")
    if N < 1:
        raise ValidationError("game.N must be >= 1")
    paths = _integer(node.take("paths", 10000), "game.paths")
    if paths < 0:
        raise ValidationError("game.paths must be >= 0")
    seed = game._check_seed(node.take("seed", 0), "game.seed")
    start_raw = node.take("start", None)
    start = (list(payoff.center()) if start_raw is None
             else _vector(start_raw, "game.start", n))
    t0 = _scalar(node.take("t0", 0.0), "game.t0")
    if not 0.0 <= t0 < params.T:
        raise ValidationError("game.t0 must lie in [0, market.T)")
    nt_sim = _integer(node.take("nt_sim", 200), "game.nt_sim")
    if nt_sim < 1:
        raise ValidationError("game.nt_sim must be >= 1")
    side = node.take("side", "both")
    if side not in ("plus", "minus", "both"):
        raise ValidationError("game.side must be plus, minus or both")
    dynamics = node.take("dynamics", "sde")
    if dynamics not in ("sde", "discrete"):
        raise ValidationError("game.dynamics must be sde or discrete")
    strategies = _parse_strategies(node.child("strategies"), n)
    node.close()
    return {"m": m, "n_dirs": n_dirs, "N": N, "paths": paths, "seed": seed,
            "start": [float(v) for v in start], "t0": t0, "nt_sim": nt_sim,
            "side": side, "dynamics": dynamics, "strategies": strategies}


def _parse_outputs(node: _Node, n: int) -> dict:
    surface = node.take("surface_path", "surface.npz")
    report = node.take("report_path", "report.json")
    table = node.take("table_path", "game_table.csv")
    points_raw = node.take("points", None)
    points = None
    if points_raw is not None:
        if not isinstance(points_raw, list) or not points_raw:
            raise ValidationError("outputs.points must be a non-empty list")
        points = [_vector(p, f"outputs.points[{i}]", n) for i, p in enumerate(points_raw)]
    node.close()
    taken = {"resolved_config.json": "resolved_config.json"}  # normalised path -> owner
    for name, val in (("surface_path", surface), ("report_path", report),
                      ("table_path", table)):
        if not isinstance(val, str) or not val:
            raise ValidationError(f"outputs.{name} must be a non-empty string")
        key = os.path.normpath(val)
        if key in taken:
            raise ValidationError(f"outputs.{name} ({val!r}) collides with {taken[key]}")
        taken[key] = f"outputs.{name}"
    return {"surface_path": surface, "report_path": report, "table_path": table,
            "points": points}


def _parse_operators(node: _Node) -> dict:
    ladder_raw = node.take("m_ladder", [1, 10, 100, 1000])
    if not isinstance(ladder_raw, list) or not ladder_raw:
        raise ValidationError("operators.m_ladder must be a non-empty list")
    ladder = [_scalar(v, f"operators.m_ladder[{i}]") for i, v in enumerate(ladder_raw)]
    if any(v <= 0 for v in ladder):
        raise ValidationError("operators.m_ladder entries must be > 0")
    inputs = _integer(node.take("inputs", 100), "operators.inputs")
    if inputs < 1:
        raise ValidationError("operators.inputs must be >= 1")
    seed = game._check_seed(node.take("seed", 7), "operators.seed")
    p_min = _scalar(node.take("p_min", 0.5), "operators.p_min")
    p_max = _scalar(node.take("p_max", 2.0), "operators.p_max")
    if not 0 < p_min <= p_max:
        raise ValidationError("operators must satisfy 0 < p_min <= p_max")
    node.close()
    return {"m_ladder": ladder, "inputs": inputs, "seed": seed,
            "p_min": p_min, "p_max": p_max}


class RunConfig:
    """Everything a command needs, parsed and defaulted from one JSON file."""

    def __init__(self, data: dict, base: Path):
        root = _Node(data, "")
        self.params, market_echo = _parse_market(root.child("market", required=True))
        n = self.params.n
        self.payoff, payoff_echo = _parse_payoff(root.child("payoff", required=True),
                                                 n, base)
        self.grid, grid_echo = _parse_grid(root.child("grid"), self.params, self.payoff)
        self.solver, solver_echo = _parse_solver(root.child("solver"), self.params)
        self.game = _parse_game(root.child("game"), self.params, self.payoff)
        self.outputs = _parse_outputs(root.child("outputs"), n)
        self.operators = _parse_operators(root.child("operators"))
        certify = root.child("certify")
        self.certify_samples = _integer(certify.take("samples", 4096), "certify.samples")
        certify.close()
        if self.certify_samples < 2:
            raise ValidationError("certify.samples must be >= 2")
        root.close()
        self.resolved = {
            "market": market_echo, "payoff": payoff_echo, "grid": grid_echo,
            "solver": solver_echo, "game": self.game, "outputs": self.outputs,
            "operators": self.operators, "certify": {"samples": self.certify_samples},
        }

    def override_seed(self, seed: int) -> None:
        self.game["seed"] = game._check_seed(seed, "--seed")

    @property
    def digest(self) -> str:
        canon = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return RunConfig(data, path.parent)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _certify(cfg: RunConfig) -> None:
    region = (cfg.grid.lo, cfg.grid.hi)
    certify_payoff(cfg.payoff, region, cfg.certify_samples)


def _points(cfg: RunConfig) -> np.ndarray:
    pts = cfg.outputs["points"]
    if pts is None:
        pts = [list(cfg.payoff.center())]
    arr = np.array(pts, dtype=float)
    for i, p in enumerate(arr):
        if np.any(p < cfg.grid.lo) or np.any(p > cfg.grid.hi):
            raise ValidationError(f"outputs.points[{i}] lies outside the grid box")
    return arr


def _build_strategies(cfg: RunConfig, surface: pde.PriceGrid | None = None):
    """The configured strategy pair; a greedy pair reuses ``surface``, the
    solve under ``cfg.solver``, when its own solver settings are the same."""
    spec = cfg.game["strategies"]
    n = cfg.params.n
    if spec["kind"] == "null":
        return game.null_strategy_pair(n)
    if spec["kind"] == "constant":
        m = spec["m"]
        if m is None:
            m = max(spec["plus"]["d"], spec["minus"]["d"])
        return tuple(_build(f"game.strategies.{name}", game.ConstantStrategy,
                            theta=np.array(spec[name]["theta"]), d=spec[name]["d"], m=m)
                     for name in ("plus", "minus"))
    solver = pde.SolverConfig(mode=spec["mode"], m=cfg.game["m"],
                              n_dirs=cfg.solver.n_dirs, cfl=cfg.solver.cfl,
                              eps_grad=cfg.solver.eps_grad)
    if surface is None or solver != cfg.solver:
        surface = pde.solve_terminal_value(cfg.payoff, cfg.params, solver, cfg.grid)
    side = "minus" if spec["mode"] == "bounded_minus" else "plus"
    dirs = isaacs.DirectionSet.for_dimension(n, cfg.game["n_dirs"])
    return game.greedy_strategy_pair(surface, cfg.params, cfg.game["m"], dirs, side)


def _sim_config(cfg: RunConfig, discrete: bool):
    """The Monte Carlo run of ``game``: a ``DiscreteGameConfig`` for the coin
    game (whose horizon must be whole 1/N steps), else an SDE ``SimConfig``."""
    g = cfg.game
    if discrete:
        game._game_steps(cfg.params.T, g["t0"], g["N"], ("market.T", "game.t0", "game.N"))
        return _build("game", game.DiscreteGameConfig, start=np.array(g["start"]),
                      t0=g["t0"], N=g["N"], paths=g["paths"], seed=g["seed"])
    return _build("game", game.SimConfig, start=np.array(g["start"]), t0=g["t0"],
                  paths=g["paths"], seed=g["seed"], nt=g["nt_sim"])


def cmd_price(cfg: RunConfig, out: Path, threads: int) -> dict:
    pts = _points(cfg)
    _certify(cfg)
    surface = pde.solve_terminal_value(cfg.payoff, cfg.params, cfg.solver, cfg.grid)
    u0 = multilinear(surface.spec.axes, surface.values[0], pts)
    pde.write_surface(out / cfg.outputs["surface_path"], surface, config_digest=cfg.digest)
    return {
        "command": "price",
        "mode": cfg.solver.mode,
        "m": cfg.solver.m,
        "nt": surface.nt,
        "dt": surface.dt,
        "cfl_dt_max": pde.cfl_max_dt(surface.spec, cfg.params, cfg.solver.cfl),
        "a_design": pde.a_design(cfg.params, cfg.payoff.lipschitz_bound),
        "points": [{"x": [float(v) for v in p], "t": 0.0, "u": float(u)}
                   for p, u in zip(pts, u0)],
    }


def _solve_tables(cfg: RunConfig) -> game.GameValueTables:
    dirs = isaacs.DirectionSet.for_dimension(cfg.params.n, cfg.game["n_dirs"])
    sides = ("minus", "plus") if cfg.game["side"] == "both" else (cfg.game["side"],)
    solved = [game.dpp_solve(cfg.payoff, cfg.params, cfg.game["m"], cfg.grid, side, dirs=dirs)
              for side in sides]
    return functools.reduce(game.GameValueTables.merged, solved)


def _report_dpp(report: dict, tables: game.GameValueTables, pts: np.ndarray, key: str) -> None:
    """Add each solved side's t = 0 value at the points as ``<key>_<side>``, and
    ``max_lower_minus_upper`` when both sides were solved."""
    for entry, p in zip(report["points"], pts):
        for side, arr in (("minus", tables.u_minus), ("plus", tables.u_plus)):
            if arr is not None:
                entry[f"{key}_{side}"] = multilinear(tables.spec.axes, arr[0], p).item()
    if tables.u_plus is not None and tables.u_minus is not None:
        report["max_lower_minus_upper"] = float(np.max(tables.u_minus - tables.u_plus))


def cmd_game_value(cfg: RunConfig, out: Path, threads: int) -> dict:
    pts = _points(cfg)
    _certify(cfg)
    tables = _solve_tables(cfg)
    game.write_value_table(out / cfg.outputs["table_path"], tables, config_digest=cfg.digest)
    report = {
        "command": "game-value",
        "m": cfg.game["m"],
        "nt": tables.spec.nt,
        "dt": tables.dt,
        "points": [{"x": [float(v) for v in p], "t": 0.0} for p in pts],
    }
    _report_dpp(report, tables, pts, "u")
    return report


def cmd_simulate(cfg: RunConfig, out: Path, threads: int) -> dict:
    discrete = cfg.game["dynamics"] == "discrete"
    sim = _sim_config(cfg, discrete)  # paths >= 1 and the horizon, before any work
    _certify(cfg)
    strategies = _build_strategies(cfg)
    if discrete:
        est = game.simulate_discrete_game(sim, cfg.payoff, cfg.params, *strategies,
                                          threads=threads)
    else:
        est = game.mc_value(cfg.payoff, cfg.params, *strategies, sim, threads=threads)
    return {"mean": est.mean, "stderr": est.stderr, "paths": est.paths, "seed": est.seed}


def cmd_check_operators(cfg: RunConfig, out: Path, threads: int) -> dict:
    params = cfg.params
    n = params.n
    ops = cfg.operators
    B = ops["inputs"]
    rng = np.random.Generator(np.random.Philox(key=np.array([ops["seed"], 0],
                                                            dtype=np.uint64)))
    xi = rng.uniform(-1.0, 1.0, B)
    if n == 1:
        sign = rng.integers(0, 2, B) * 2 - 1
        p = (sign * rng.uniform(ops["p_min"], ops["p_max"], B))[:, None]
        # keep sigma^2 |M| <= m_min p_min so the two-direction enumeration
        # reproduces -F exactly for every rung of the ladder
        cap = 0.99 * min(ops["m_ladder"]) * ops["p_min"] / float(params.sigma[0] ** 2)
        M = rng.uniform(-cap, cap, B)[:, None, None]
    else:
        raw = rng.standard_normal((B, n))
        p = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        A = rng.standard_normal((B, n, n))
        M = 0.5 * (A + np.transpose(A, (0, 2, 1)))
        norm = np.max(np.abs(np.linalg.eigvalsh(M)), axis=1)
        M = M / norm[:, None, None] * rng.uniform(0.25, 1.0, B)[:, None, None]
    norm_M = np.max(np.abs(np.linalg.eigvalsh(M)), axis=1)
    dirs = isaacs.DirectionSet.for_dimension(n, cfg.solver.n_dirs)
    f_vals = isaacs.limit_values_batch(xi, p, M, params, cfg.solver.resolved_eps_grad(params))
    err_plus = []
    err_minus = []
    for m in ops["m_ladder"]:
        hp = isaacs.hm_values_batch(xi, p, M, m, params, dirs, "plus")
        hm = isaacs.hm_values_batch(xi, p, M, m, params, dirs, "minus")
        err_plus.append(np.abs(hp + f_vals))
        err_minus.append(np.abs(hm + f_vals))
    # rows input,m,err_plus,err_minus,norm_M, one block per rung of the ladder
    norms = ["%.17g" % v for v in norm_M.tolist()]
    blocks = [("".join([f"{i},{'%.17g' % m},%.17g,%.17g,{norms[i]}\n" for i in range(B)]),
               np.column_stack([err_plus[k], err_minus[k]]))
              for k, m in enumerate(ops["m_ladder"])]
    columns = ["input", "m", "err_plus", "err_minus", "norm_M"]
    pde._write_csv(out / cfg.outputs["table_path"], columns, blocks, cfg.digest)
    return {
        "command": "check-operators",
        "n": n,
        "n_dirs": dirs.dirs.shape[0],
        "m_ladder": ops["m_ladder"],
        "max_err_plus": [float(np.max(e)) for e in err_plus],
        "max_err_minus": [float(np.max(e)) for e in err_minus],
    }


def cmd_compare(cfg: RunConfig, out: Path, threads: int) -> dict:
    pts = _points(cfg)
    _certify(cfg)
    tables = _solve_tables(cfg)
    surface = pde.solve_terminal_value(cfg.payoff, cfg.params, cfg.solver, cfg.grid)
    band = np.sqrt(5.0) * cfg.params.sigma * np.sqrt(cfg.params.T)
    inner = pde.interior_mask(cfg.grid, band)
    report = {
        "command": "compare",
        "mode": cfg.solver.mode,
        "m": cfg.game["m"],
        "pde_nt": surface.nt,
        "dpp_nt": tables.spec.nt,
        "points": [{"x": [float(v) for v in p], "t": 0.0,
                    "u_pde": multilinear(surface.spec.axes, surface.values[0], p).item()}
                   for p in pts],
    }
    _report_dpp(report, tables, pts, "u_dpp")
    for side, arr in (("minus", tables.u_minus), ("plus", tables.u_plus)):
        if arr is not None:
            gap = np.abs(arr[0] - surface.values[0])
            report[f"max_gap_dpp_{side}_vs_pde"] = float(np.max(gap))
            report[f"max_interior_gap_dpp_{side}_vs_pde"] = float(np.max(gap[inner]))
    if cfg.game["paths"] > 0:
        est = game.mc_value(cfg.payoff, cfg.params, *_build_strategies(cfg, surface),
                            _sim_config(cfg, False), threads=threads)
        report["mc"] = {"mean": est.mean, "stderr": est.stderr,
                        "paths": est.paths, "seed": est.seed,
                        "start": cfg.game["start"]}
    return report


_COMMANDS = {
    "price": cmd_price,
    "game-value": cmd_game_value,
    "simulate": cmd_simulate,
    "check-operators": cmd_check_operators,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tugpricer",
        description="Adversarial-manipulation option pricing: PDE, game and "
                    "Monte Carlo cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override game.seed from the config")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (results are thread-count invariant)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.override_seed(args.seed)
        if args.threads < 1:
            raise ValidationError("--threads must be >= 1")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report = _COMMANDS[args.command](cfg, out, args.threads)
        report["config_digest"] = cfg.digest
        _write_json(out / cfg.outputs["report_path"], report)
        _write_json(out / "resolved_config.json",
                    {"config": cfg.resolved, "config_digest": cfg.digest})
    except (PricingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, PreconditionError):
            return 3
        return 4 if isinstance(exc, CertificationError) else 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
