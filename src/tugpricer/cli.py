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
unwritable output, 3 numerical precondition (the CFL bound, the PDE stack
budget, the DPP displacement margin, the DPP query budget, a non-finite solve,
or a solution leaving [0, sup g]), 4 payoff certification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _scalar(value, key: str, integer: bool = False, gt=None, ge=None):
    """A finite number (an int when ``integer``), ``> gt`` and ``>= ge`` when given."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValidationError(f"{key} must be {'an integer' if integer else 'a number'}")
    value = int(value) if integer else float(value)
    if not (integer or np.isfinite(value)):
        raise ValidationError(f"{key} must be finite")
    if gt is not None and not value > gt:
        raise ValidationError(f"{key} must be > {gt}")
    if ge is not None and not value >= ge:
        raise ValidationError(f"{key} must be >= {ge}")
    return value


def _items(value, key: str, each, what: str = "a non-empty list", gt=None) -> list:
    """A non-empty list with ``each(item, key[i])`` applied to every item, all
    of them ``> gt`` when given."""
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{key} must be {what}")
    out = [each(v, f"{key}[{i}]") for i, v in enumerate(value)]
    if gt is not None and not all(v > gt for v in out):
        raise ValidationError(f"{key} entries must be > {gt}")
    return out


def _vector(value, key: str, n: int | None = None, integer: bool = False) -> list:
    """A number (repeated ``n`` times) or a list of numbers, of length ``n`` when
    given; integers when ``integer``."""
    each = functools.partial(_scalar, integer=integer)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out = [each(value, key)] * (n or 1)
    else:
        out = _items(value, key, each, "a number or a non-empty list")
    if n is not None and len(out) != n:
        raise ValidationError(f"{key} must have {n} entries, got {len(out)}")
    return out


def _choice(value, key: str, options: tuple[str, ...]):
    if value not in options:
        raise ValidationError(f"{key} must be one of {', '.join(options)} (got {value!r})")
    return value


def _text(value, key: str, nonempty: bool = False) -> str:
    if not isinstance(value, str) or (nonempty and not value):
        raise ValidationError(f"{key} must be a {'non-empty ' * nonempty}string")
    return value


def _build(section: str, make, *args, **kwargs):
    """Call a library constructor; its ValidationError gains the section key.

    The library messages lead with the field name, so the result names the
    dotted config key, e.g. ``market.sigma[0] must be > 0``.
    """
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{section}.{exc}") from exc


class _Node:
    """One object level of the config tree.

    Every read takes a key and its default, checks the value, names the
    dotted key in any error and records the value it returns in ``echo``;
    ``close`` reports a key that no read took as unknown and returns the
    echo.  An explicit null is read as absent only where the default is null.
    """

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ValidationError(f"{path or 'config'} must be a JSON object")
        self._data = data
        self.path = path
        self.echo: dict = {}

    def key(self, name: str) -> str:
        return f"{self.path}.{name}" if self.path else name

    def read(self, name: str, default=_MISSING, check=None, **opts):
        """The value at ``name``, passed through ``check(value, key, **opts)``."""
        if name in self._data:
            value = self._data[name]
        elif default is _MISSING:
            raise ValidationError(f"missing required key {self.key(name)}")
        else:
            value = default
        if check is not None and not (value is None and default is None):
            value = check(value, self.key(name), **opts)
        self.echo[name] = value
        return value

    def number(self, name: str, default=_MISSING, gt=None) -> float | None:
        return self.read(name, default, _scalar, gt=gt)

    def integer(self, name: str, default=_MISSING, ge=None) -> int | None:
        return self.read(name, default, _scalar, integer=True, ge=ge)

    def vector(self, name: str, default=_MISSING, n: int | None = None) -> list[float] | None:
        return self.read(name, default, _vector, n=n)

    def choice(self, name: str, options: tuple[str, ...], default=_MISSING) -> str:
        return self.read(name, default, _choice, options=options)

    def child(self, name: str, required: bool = False) -> "_Node":
        """The named section; an optional one that is absent or null is empty."""
        raw = self.read(name, None)
        if raw is None:
            if required:
                raise ValidationError(f"missing required section {self.key(name)}")
            raw = {}
        node = _Node(raw, self.key(name))
        self.echo[name] = node.echo
        return node

    def close(self) -> dict:
        unknown = sorted(set(self._data) - set(self.echo))
        if unknown:
            raise ValidationError(f"unknown config key {self.key(unknown[0])}")
        return self.echo


def _parse_market(node: _Node) -> MarketParams:
    sigma = node.vector("sigma")
    mu = node.vector("mu", 0.0, len(sigma))
    r = node.number("r", 0.0)
    T = node.number("T")
    rc = None
    if node.read("running_cost", None) is not None:
        rc_node = node.child("running_cost")
        value = rc_node.number("value")
        alpha = rc_node.number("alpha", None)
        rc_node.close()
        rc = _build(rc_node.path, constant_running_cost, value, alpha)
        rc_node.echo["alpha"] = rc.alpha
    node.close()
    return _build(node.path, MarketParams, mu=np.array(mu), sigma=np.array(sigma), r=r, T=T,
                  running_cost=rc)


def _parse_payoff(node: _Node, n: int, base: Path) -> Payoff:
    kind = node.choice("kind", ("basket_put", "constant", "table"))
    if kind == "constant":
        value = node.number("value")
        node.close()
        return _build(node.path, constant_payoff, value, n)
    if kind == "basket_put":
        weights = node.vector("weights", n=n)
        strike = node.number("strike")
    else:
        rel = node.read("path", _MISSING, _text)
    lip = node.number("lipschitz_bound", None)
    sup = node.number("sup_bound", None)
    node.close()
    if kind == "basket_put":
        payoff = _build(node.path, BasketPut, weights=np.array(weights), strike=strike,
                        lipschitz_bound=lip, sup_bound=sup)
    else:
        path = (base / rel).resolve() if not Path(rel).is_absolute() else Path(rel)
        try:
            axes, table = read_payoff_table(path)  # its messages lead with the file path
        except OSError as exc:
            raise ValidationError(f"{node.key('path')} {rel!r} cannot be read: "
                                  f"{exc.strerror or exc}") from exc
        payoff = _build(node.path, TabulatedPayoff, axes=axes, table=table,
                        lipschitz_bound=lip, sup_bound=sup)
        if payoff.n != n:
            raise ValidationError(
                f"{node.key('path')} table has {payoff.n} axes but market.sigma implies n={n}")
    node.echo.update(lipschitz_bound=payoff.lipschitz_bound, sup_bound=payoff.sup_bound)
    return payoff


def _parse_grid(node: _Node, params: MarketParams, payoff: Payoff) -> pde.GridSpec:
    n = params.n
    if (node.read("lo", None) is None) != (node.read("hi", None) is None):
        raise ValidationError(f"{node.key('lo')} and {node.key('hi')} must be given together")
    lo, hi = node.vector("lo", None, n), node.vector("hi", None, n)
    if lo is None:
        lo, hi = pde.default_domain(params, payoff.center())
        node.echo.update(lo=[float(v) for v in lo], hi=[float(v) for v in hi])
    nx = node.read("nx", 101, _vector, n=n, integer=True)
    nt = node.integer("nt", None)
    node.close()
    return _build(node.path, pde.GridSpec, lo=np.array(lo), hi=np.array(hi), nx=tuple(nx), nt=nt)


def _parse_solver(node: _Node, params: MarketParams) -> pde.SolverConfig:
    fields = dict(mode=node.read("mode", "limit_F"), m=node.number("m", None),
                  eps_grad=node.number("eps_grad", None), n_dirs=node.integer("n_dirs", None),
                  cfl=node.number("cfl", 0.5))
    node.close()
    cfg = _build(node.path, pde.SolverConfig, **fields)
    node.echo.update(
        eps_grad=cfg.resolved_eps_grad(params),
        n_dirs=_build(node.path, isaacs.DirectionSet.for_dimension, params.n, cfg.n_dirs).count)
    return cfg


def _parse_strategies(node: _Node, n: int) -> tuple | None:
    """The null or constant pair, checked now; None for a greedy pair, which
    needs a solved surface."""
    kind = node.choice("kind", ("null", "constant", "greedy"), "null")
    if kind == "greedy":
        node.choice("mode", ("bounded_minus", "bounded_plus"), "bounded_minus")
    elif kind == "constant":
        sides = []
        for name in ("plus", "minus"):
            sub = node.child(name, required=True)
            sides.append((sub, sub.vector("theta", n=n), sub.number("d")))
            sub.close()
        m = node.number("m", None)
        if m is None:
            m = max(d for _, _, d in sides)
    node.close()
    if kind == "null":
        return game.null_strategy_pair(n)
    if kind == "constant":
        return tuple(_build(sub.path, game.ConstantStrategy, theta=np.array(theta), d=d, m=m)
                     for sub, theta, d in sides)
    return None


def _parse_game(node: _Node, params: MarketParams, payoff: Payoff) -> tuple[dict, tuple | None]:
    n = params.n
    node.number("m", 10.0, gt=0)
    n_dirs = node.integer("n_dirs", None)
    if n_dirs is not None:
        _build(node.path, isaacs.DirectionSet.for_dimension, n, n_dirs)
    node.integer("N", 100, ge=1)
    node.integer("paths", 10000, ge=0)
    node.read("seed", 0, game._check_seed)
    if node.vector("start", None, n) is None:
        node.echo["start"] = [float(v) for v in payoff.center()]
    if not 0.0 <= node.number("t0", 0.0) < params.T:
        raise ValidationError(f"{node.key('t0')} must lie in [0, market.T)")
    node.integer("nt_sim", 200, ge=1)
    node.choice("side", ("plus", "minus", "both"), "both")
    node.choice("dynamics", ("sde", "discrete"), "sde")
    strategies = _parse_strategies(node.child("strategies"), n)
    return node.close(), strategies


def _parse_outputs(node: _Node, n: int) -> dict:
    node.read("points", None, _items, each=functools.partial(_vector, n=n))
    taken = {"resolved_config.json": "resolved_config.json"}  # normalised path -> owner
    for name, default in (("surface_path", "surface.npz"), ("report_path", "report.json"),
                          ("table_path", "game_table.csv")):
        val = node.read(name, default, _text, nonempty=True)
        key = os.path.normpath(val)
        if key in taken:
            raise ValidationError(f"{node.key(name)} ({val!r}) collides with {taken[key]}")
        taken[key] = node.key(name)
    return node.close()


def _parse_operators(node: _Node) -> dict:
    node.read("m_ladder", [1, 10, 100, 1000], _items, each=_scalar, gt=0)
    node.integer("inputs", 100, ge=1)
    node.read("seed", 7, game._check_seed)
    if not 0 < node.number("p_min", 0.5) <= node.number("p_max", 2.0):
        raise ValidationError(f"{node.key('p_min')} must lie in (0, {node.key('p_max')}]")
    return node.close()


class RunConfig:
    """Everything a command needs, parsed and defaulted from one JSON file."""

    def __init__(self, data: dict, base: Path):
        root = _Node(data, "")
        self.params = _parse_market(root.child("market", required=True))
        self.payoff = _parse_payoff(root.child("payoff", required=True), self.params.n, base)
        self.grid = _parse_grid(root.child("grid"), self.params, self.payoff)
        self.solver = _parse_solver(root.child("solver"), self.params)
        self.game, self.strategies = _parse_game(root.child("game"), self.params, self.payoff)
        self.outputs = _parse_outputs(root.child("outputs"), self.params.n)
        self.operators = _parse_operators(root.child("operators"))
        certify = root.child("certify")
        self.certify_samples = certify.integer("samples", 4096, ge=2)
        certify.close()
        self.resolved = root.close()

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
    """The configured pair: the null or constant pair checked at load, or a
    greedy pair that reuses ``surface``, the solve under ``cfg.solver``, when
    its own solver settings are the same, and plays the solve's directions."""
    if cfg.strategies is not None:
        return cfg.strategies
    mode = cfg.game["strategies"]["mode"]
    solver = dataclasses.replace(cfg.solver, mode=mode, m=cfg.game["m"])
    if surface is None or solver != cfg.solver:
        surface = pde.solve_terminal_value(cfg.payoff, cfg.params, solver, cfg.grid)
    side = "minus" if mode == "bounded_minus" else "plus"
    dirs = isaacs.DirectionSet.for_dimension(cfg.params.n, solver.n_dirs)
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
    return game.dpp_solve(cfg.payoff, cfg.params, cfg.game["m"], cfg.grid, cfg.game["side"],
                          dirs=dirs)


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
    blocks = [("%.17g,%.17g,%.17g,%.17g,%.17g\n" * B,
               np.column_stack([np.arange(B), np.full(B, m), err_plus[k], err_minus[k], norm_M]))
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
