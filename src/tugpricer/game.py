"""Game-side machinery: coin-toss games, controlled SDE paths, DPP tables.

Three independent routes to the same prices live here.  The discrete game
replays the binomial manipulation game exactly as defined (steps of size 1/N,
controls capped at 1/sqrt(N)).  The SDE simulator runs Euler-Maruyama on the
controlled diffusion.  The DPP solver performs backward induction of the
2^(n+1)-scenario expectation on a value lattice, giving upper/lower tables
that bracket the PDE solutions.

Randomness is reproducible by construction: each fixed block of 8192 paths
draws row-major, in one call, from a counter-based stream keyed by (seed, block),
so a path's draws depend only on (seed, path index, steps, n), never on threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import numpy.random  # numpy loads it lazily; load it at import, not in the first simulation

from . import pde
from ._interp import multilinear_apply, multilinear_plan
from .errors import PreconditionError, StrategyContractError, ValidationError
from .isaacs import ControlPoint, DirectionSet, _check_m, _sign, greedy_controls_batch
from .market import MarketParams, Payoff, _as_vector

Array = np.ndarray

_BLOCK = 8192  # paths per work block and per RNG stream; fixed so threads never change results
# cap on the interpolation query coordinates of one DPP sweep; tracemalloc puts a
# sweep's peak at 42 (11^2, K=8) to 45 (21^2, K=16) bytes per coordinate, so this
# bounds it near 0.75 GB
_DPP_QUERY_BUDGET = 1 << 24


def path_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-based Philox stream for one block of ``_BLOCK`` paths.

    Distinct (seed, block) keys give independent streams; the block's paths
    take consecutive row-major slices of one draw from it.
    """
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_seed(seed: int, name: str = "seed") -> int:
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer))
                                      and 0 <= int(seed) < 2**64):
        raise ValidationError(f"{name} must be an unsigned 64-bit integer")
    return int(seed)


@dataclass(frozen=True)
class SimConfig:
    """Euler-Maruyama Monte Carlo run: start state, clock and path budget."""

    start: Array
    t0: float
    paths: int
    seed: int
    nt: int = 200

    def __post_init__(self) -> None:
        start = _as_vector(self.start, "start")
        if self.paths < 1:
            raise ValidationError("paths must be >= 1")
        if self.nt < 1:
            raise ValidationError("nt must be >= 1")
        _check_seed(self.seed)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "t0", float(self.t0))


@dataclass(frozen=True)
class DiscreteGameConfig:
    """Coin-toss game run: N steps per unit time from (start, t0)."""

    start: Array
    t0: float
    N: int
    paths: int
    seed: int

    def __post_init__(self) -> None:
        start = _as_vector(self.start, "start")
        if self.N < 1:
            raise ValidationError("N must be >= 1")
        if self.paths < 1:
            raise ValidationError("paths must be >= 1")
        _check_seed(self.seed)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "t0", float(self.t0))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    paths: int
    seed: int


class FeedbackStrategy:
    """Markov control rule for one player: (x, t) -> (theta, d), d <= m.

    Implementations provide :meth:`controls` acting on state batches of shape
    (B, n).  Outputs are validated on every call (a greedy pair's tables once,
    when built); violations raise :class:`StrategyContractError` naming the
    offending state and time.
    """

    m: float

    def controls(self, x: Array, t: float) -> tuple[Array, Array]:
        raise NotImplementedError

    def at(self, x, t: float) -> ControlPoint:
        theta, d = checked_controls(self, np.atleast_2d(np.asarray(x, dtype=float)), float(t))
        return ControlPoint(theta=theta[0], d=float(d[0]))


def checked_controls(strategy: FeedbackStrategy, x: Array, t: float) -> tuple[Array, Array]:
    theta, d = strategy.controls(x, t)
    theta = np.asarray(theta, dtype=float)
    d = np.asarray(d, dtype=float)
    _check_controls(theta, d, strategy.m, lambda i: f"x={x[i]}, t={t}")
    return theta, d


def _check_controls(theta: Array, d: Array, m: float, where: Callable[[int], str]) -> None:
    """Refuse a non-unit theta row or a d outside [0, m]; ``where(i)`` names row i."""
    norms = np.linalg.norm(theta, axis=1)
    bad = np.abs(norms - 1.0) > 1e-9
    if np.any(bad):
        i = int(np.argmax(bad))
        raise StrategyContractError(
            f"strategy returned non-unit theta (|theta|={norms[i]!r}) at {where(i)}"
        )
    bad = (d < 0) | (d > m * (1.0 + 1e-12) + 1e-12)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise StrategyContractError(
            f"strategy returned d={d[i]!r} outside [0, m={m}] at {where(i)}"
        )


@dataclass
class ConstantStrategy(FeedbackStrategy):
    """Plays the same (theta, d) at every state and time."""

    theta: Array
    d: float
    m: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        point = ControlPoint(theta=np.asarray(self.theta, dtype=float), d=self.d)
        self.theta = point.theta
        self.d = point.d
        if self.m is None:
            self.m = self.d
        if self.d > self.m:
            raise ValidationError(f"d must be <= m = {self.m!r}, got {self.d!r}")

    def controls(self, x: Array, t: float) -> tuple[Array, Array]:
        B = x.shape[0]
        return np.tile(self.theta, (B, 1)), np.full(B, self.d)


def null_strategy_pair(n: int) -> tuple[ConstantStrategy, ConstantStrategy]:
    """Both players idle: opposed directions, zero intensity."""
    theta = np.zeros(n)
    theta[0] = 1.0
    return (ConstantStrategy(theta=theta, d=0.0, m=0.0),
            ConstantStrategy(theta=-theta, d=0.0, m=0.0))


class _GreedyCore:
    """Greedy lattice controls of a solved surface: per time slice, one checked
    (interior nodes, 2n + 2) table with the columns (theta+, d+, theta-, d-)."""

    def __init__(self, grid: pde.PriceGrid, params: MarketParams, m: float,
                 dirs: DirectionSet, side: str):
        _sign(side)  # refuses any side but 'plus' and 'minus'
        if not dirs.n == params.n == grid.n:
            raise ValidationError("directions, params and surface dimensions must agree")
        self.grid = grid
        self.params = params
        self.m = _check_m(m)
        self.dirs = dirs
        self.side = side
        self.h = grid.spec.h
        self._tables: dict[int, Array] = {}

    def _slice_table(self, k: int) -> Array:
        cached = self._tables.get(k)
        if cached is not None:
            return cached
        tp, dp, tm, dm = greedy_controls_batch(*pde._interior_inputs(self.grid.values[k], self.h),
                                               self.m, self.params, self.dirs, self.side)
        t = k * self.grid.dt
        for theta, d in ((tp, dp), (tm, dm)):
            _check_controls(theta, d, self.m, lambda i: f"interior node {i} of the slice t={t}")
        table = np.column_stack([tp, dp, tm, dm])
        self._tables[k] = table
        return table

    def lookup(self, x: Array, t: float) -> tuple[Array, Array, Array, Array]:
        """(theta+, d+, theta-, d-) at the interior node nearest each row of x."""
        spec = self.grid.spec
        n = spec.n
        k = int(np.clip(round(t / self.grid.dt), 0, self.grid.nt))
        table = self._slice_table(k)
        flat = np.zeros(x.shape[0], dtype=np.intp)
        stride = 1
        for a in range(n - 1, -1, -1):
            idx = np.clip(np.rint((x[:, a] - spec.lo[a]) / self.h[a]).astype(np.intp),
                          1, spec.nx[a] - 2) - 1
            flat += idx * stride
            stride *= spec.nx[a] - 2
        rows = table.take(flat, axis=0)
        return rows[:, :n], rows[:, n], rows[:, n + 1:2 * n + 1], rows[:, 2 * n + 1]


@dataclass
class _GreedyView(FeedbackStrategy):
    core: _GreedyCore
    player: str
    m: float = field(init=False)

    def __post_init__(self) -> None:
        self.m = self.core.m

    def controls(self, x: Array, t: float) -> tuple[Array, Array]:
        tp, dp, tm, dm = self.core.lookup(x, t)
        return (tp, dp) if self.player == "plus" else (tm, dm)


def greedy_strategy_pair(grid: pde.PriceGrid, params: MarketParams, m: float,
                         dirs: DirectionSet | None = None,
                         side: str = "minus") -> tuple[FeedbackStrategy, FeedbackStrategy]:
    """Feedback strategies that replay the lattice optimizers of a solved surface.

    States snap to the nearest interior node of the nearest time slice, so the
    controls are piecewise constant; both returned views share one cache.
    """
    if dirs is None:
        dirs = DirectionSet.for_dimension(grid.n)
    core = _GreedyCore(grid, params, m, dirs, side)
    return _GreedyView(core=core, player="plus"), _GreedyView(core=core, player="minus")


def _play(cfg: SimConfig | DiscreteGameConfig, params: MarketParams,
          strat_plus: FeedbackStrategy, strat_minus: FeedbackStrategy, threads: int,
          steps: int, dt: float, rc, draw: Callable, step: Callable, store: Callable) -> None:
    """Play every path from (cfg.start, cfg.t0) for `steps` steps of length `dt`.

    Each block draws its noise once, ``draw(gen, (B, steps, n + 1))``, advances
    ``X = step(X, tp, dp, tm, dm, noise[:, k])`` with the controls read at the
    pre-step state, then hands its rows to ``store(lo, hi, X, acc)``; acc holds
    the discounted left-endpoint sums of the running cost `rc` (0 when None).
    """
    if steps < 1:
        raise ValidationError("the horizon must cover at least one game step")
    if (isinstance(strat_plus, _GreedyView) and isinstance(strat_minus, _GreedyView)
            and strat_plus.core is strat_minus.core
            and (strat_plus.player, strat_minus.player) == ("plus", "minus")):
        # one lookup per step serves both views; the core checked its tables
        read = strat_plus.core.lookup
    else:
        def read(X, t):
            return (*checked_controls(strat_plus, X, t), *checked_controls(strat_minus, X, t))

    def worker(lo: int) -> None:
        hi = min(cfg.paths, lo + _BLOCK)
        noise = draw(path_rng(cfg.seed, lo // _BLOCK), (hi - lo, steps, params.n + 1))
        X = np.tile(cfg.start, (hi - lo, 1))
        acc = np.zeros(hi - lo)
        for k in range(steps):
            t_k = cfg.t0 + k * dt
            tp, dp, tm, dm = read(X, t_k)
            if rc is not None:
                acc += np.exp(-params.r * (params.T - t_k)) * rc(X, t_k) * dt
            X = step(X, tp, dp, tm, dm, noise[:, k])
        store(lo, hi, X, acc)

    starts = range(0, cfg.paths, _BLOCK)
    if threads <= 1 or len(starts) == 1:
        list(map(worker, starts))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(worker, starts))


def _check_start(cfg: SimConfig | DiscreteGameConfig, params: MarketParams) -> None:
    """Refuse a start the market cannot play from, before any clock arithmetic."""
    if cfg.start.size != params.n:
        raise ValidationError(f"start must have {params.n} coordinates")
    if not 0.0 <= cfg.t0 < params.T:
        raise ValidationError("t0 must lie in [0, T)")


def _sde(cfg: SimConfig, params: MarketParams) -> tuple[float, Callable, Callable]:
    """The Euler-Maruyama clock of a run, its normal draw and its step, for ``_play``."""
    _check_start(cfg, params)
    n = params.n
    dt = (params.T - cfg.t0) / cfg.nt
    sqdt = np.sqrt(dt)
    sigma = params.sigma

    def step(X, tp, dp, tm, dm, z):
        drift = params.mu + sigma * (dp + dm)[:, None] * (tp + tm)
        return (X + drift * dt + sigma * sqdt * z[:, :n]
                + sigma * (tp - tm) * sqdt * z[:, n][:, None])

    return dt, lambda gen, shape: gen.standard_normal(shape), step


def _value(cfg: SimConfig | DiscreteGameConfig, payoff: Payoff, params: MarketParams,
           strat_plus: FeedbackStrategy, strat_minus: FeedbackStrategy, threads: int,
           steps: int, dt: float, draw: Callable, step: Callable) -> McEstimate:
    """Play every path (see ``_play``); estimate the discounted payoff plus running cost."""
    rewards = np.empty(cfg.paths)

    def store(lo, hi, X, acc):
        rewards[lo:hi] = discounted_reward(X, cfg.t0, params, payoff) + acc

    _play(cfg, params, strat_plus, strat_minus, threads, steps, dt, params.running_cost,
          draw, step, store)
    return _estimate(rewards, cfg.paths, cfg.seed)


def simulate_sde_paths(cfg: SimConfig, params: MarketParams,
                       strat_plus: FeedbackStrategy, strat_minus: FeedbackStrategy,
                       threads: int = 1) -> Array:
    """Euler-Maruyama terminal states, shape (paths, n), of the controlled
    log-price dynamics; controls are read at the pre-step state.  The value of
    a run, running cost included, is :func:`mc_value`."""
    dt, draw, step = _sde(cfg, params)
    terminals = np.empty((cfg.paths, params.n))

    def store(lo, hi, X, acc):
        terminals[lo:hi] = X

    _play(cfg, params, strat_plus, strat_minus, threads, cfg.nt, dt, None, draw, step, store)
    return terminals


def simulate_discrete_game(cfg: DiscreteGameConfig, payoff: Payoff, params: MarketParams,
                           strat_plus: FeedbackStrategy, strat_minus: FeedbackStrategy,
                           threads: int = 1) -> McEstimate:
    """Play the N-per-unit-time coin-toss game to T and average the rewards.

    Raw strategy intensities are mapped onto the capped lattice controls
    ``theta_k = min(d / sqrt(N), 1) * theta / sqrt(N)``, which keeps every
    lattice control inside the 1/sqrt(N) ball by construction.
    """
    _check_start(cfg, params)
    n = params.n
    steps = int(round((params.T - cfg.t0) * cfg.N))
    root_n = np.sqrt(cfg.N)
    dt = 1.0 / cfg.N
    sigma = params.sigma

    def draw(gen: np.random.Generator, shape) -> Array:
        coins = gen.integers(0, 2, size=shape, dtype=np.int8)
        coins <<= 1  # 0/1 -> -1/+1 in place: no block-sized temporaries
        coins -= 1
        return coins

    def step(X, tp, dp, tm, dm, c):
        scaled_p = tp * (np.minimum(dp / root_n, 1.0) / root_n)[:, None]
        scaled_m = tm * (np.minimum(dm / root_n, 1.0) / root_n)[:, None]
        return (X + params.mu * dt + (2.0 / root_n) * sigma * c[:, :n]
                + sigma * (scaled_p - scaled_m) * c[:, n][:, None]
                + sigma * (scaled_p + scaled_m))

    return _value(cfg, payoff, params, strat_plus, strat_minus, threads, steps, dt, draw, step)


def _estimate(rewards: Array, paths: int, seed: int) -> McEstimate:
    mean = float(np.mean(rewards))
    stderr = 0.0 if paths < 2 else float(np.std(rewards, ddof=1) / np.sqrt(paths))
    return McEstimate(mean=mean, stderr=stderr, paths=paths, seed=seed)


def discounted_reward(terminal, t0: float, params: MarketParams, payoff: Payoff,
                      running_cost_samples=None, dt: float | None = None):
    """Discounted payoff plus the left-endpoint running-cost Riemann sum.

    ``running_cost_samples[..., k]`` holds h at time t0 + k*dt; the sum adds
    ``exp(-r (T - s_k)) h_k dt`` over the sampled clock.
    """
    arr = np.asarray(terminal, dtype=float)
    scalar = arr.ndim == 1
    if scalar:
        arr = arr[None, :]
    out = np.exp(-params.r * (params.T - t0)) * np.asarray(payoff.values(arr), dtype=float)
    if running_cost_samples is not None:
        if dt is None or dt <= 0:
            raise ValidationError("running-cost samples require the sampling dt")
        samples = np.atleast_2d(np.asarray(running_cost_samples, dtype=float))
        times = t0 + dt * np.arange(samples.shape[1])
        out = out + dt * np.sum(samples * np.exp(-params.r * (params.T - times)), axis=1)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class GameValueTables:
    """Backward-induction value tables, one or both sides of the game."""

    spec: pde.GridSpec
    dt: float
    m: float
    u_plus: Array | None = None
    u_minus: Array | None = None

    def __post_init__(self) -> None:
        if self.u_plus is None and self.u_minus is None:
            raise ValidationError("at least one side must be populated")
        for name, arr in (("u_plus", self.u_plus), ("u_minus", self.u_minus)):
            if arr is not None:
                object.__setattr__(self, name, pde._slice_stack(arr, self.spec, name))
        if self.u_plus is not None and self.u_minus is not None:
            worst = float(np.max(self.u_minus - self.u_plus, initial=-np.inf))
            if worst > 1e-9:
                raise ValidationError(
                    f"lower table exceeds upper table by {worst:g} (> 1e-9)"
                )

    def merged(self, other: "GameValueTables") -> "GameValueTables":
        if other.spec != self.spec or other.dt != self.dt or other.m != self.m:
            raise ValidationError("tables to merge must share grid, dt and m")
        return GameValueTables(
            spec=self.spec, dt=self.dt, m=self.m,
            u_plus=self.u_plus if self.u_plus is not None else other.u_plus,
            u_minus=self.u_minus if self.u_minus is not None else other.u_minus,
        )


def aligned_time_steps(spec: pde.GridSpec, params: MarketParams, cells: int = 1) -> int:
    """Step count whose coin displacement sigma*sqrt(dt) spans ~`cells` grid cells.

    Aligning the walk with the lattice keeps the interpolation bias of the
    backward induction near zero on the dominant scenarios.
    """
    if cells < 1:
        raise ValidationError("cells must be >= 1")
    h = spec.h
    target = float(np.min((cells * h / params.sigma) ** 2))
    return max(1, int(round(params.T / target)))


def _margin_check(spec: pde.GridSpec, params: MarketParams, m: float, dt: float) -> None:
    disp = (np.abs(params.mu) + 2.0 * m * params.sigma) * dt + 2.0 * params.sigma * np.sqrt(dt)
    margin = (spec.hi - spec.lo) / 4.0
    if np.any(disp > margin):
        a = int(np.argmax(disp - margin))
        raise PreconditionError(
            f"one-step displacement {disp[a]:g} exceeds the grid margin {margin[a]:g} "
            f"on axis {a}; shrink dt or m, or widen the box"
        )


def _query_check(spec: pde.GridSpec, dirs: DirectionSet) -> None:
    """Refuse a DPP sweep whose query array would exceed the memory budget."""
    nodes = int(np.prod(spec.nx))
    coords = nodes * (2 * dirs.count) ** 2 * (1 << (spec.n + 1)) * spec.n
    if coords > _DPP_QUERY_BUDGET:
        raise PreconditionError(
            f"backward induction needs {coords:.3g} query coordinates per step "
            f"({nodes} nodes, {dirs.count} directions), over the budget of "
            f"{_DPP_QUERY_BUDGET:.3g}; lower game.n_dirs or grid.nx"
        )


def _coin_matrix(n: int) -> Array:
    """All 2^(n+1) sign vectors, one row per scenario."""
    count = 1 << (n + 1)
    rows = np.arange(count)
    return 1.0 - 2.0 * ((rows[:, None] >> np.arange(n + 1)[None, :]) & 1)


class _Sweep:
    """A DPP sweep's node-independent geometry, built once per solve: the queries'
    ``lo <= q <= hi`` split, the interpolation plan of those inside and the payoff
    at those outside. Calling it on a next slice gathers, discounts and optimizes."""

    def __init__(self, spec: pde.GridSpec, dt: float, m: float, payoff: Payoff,
                 params: MarketParams, dirs: DirectionSet, side: str):
        _sign(side)  # refuses any side but 'plus' and 'minus'
        n = spec.n
        _margin_check(spec, params, m, dt)
        D = dirs.dirs
        K = D.shape[0]
        dvals = np.array([0.0, m])
        sqdt = np.sqrt(dt)
        sigma = params.sigma

        tsum = D[:, None, :] + D[None, :, :]          # (K, K, n): theta+ + theta-
        tdiff = D[:, None, :] - D[None, :, :]
        dsum = dvals[:, None] + dvals[None, :]        # (2, 2): d+ + d-
        coins = _coin_matrix(n)                       # (C, n+1)
        C = coins.shape[0]

        drift = (params.mu[None, None, None, None, :]
                 + sigma * dsum[None, :, None, :, None] * tsum[:, None, :, None, :]) * dt
        move = (drift[:, :, :, :, None, :]
                + sigma * coins[None, None, None, None, :, :n] * sqdt
                + sigma * tdiff[:, None, :, None, None, :] * coins[None, None, None, None, :, n:] * sqdt)
        # move axes: (k_plus, j_plus, k_minus, j_minus, coin, i)
        move = move.reshape(-1, C, n)

        pts = spec.points()
        queries = (pts[:, None, None, :] + move[None, :, :, :]).reshape(-1, n)
        self.inside = inside = np.all((queries >= spec.lo) & (queries <= spec.hi), axis=1)
        self.outside = None if np.all(inside) else payoff.values(queries[~inside])
        queries = queries[inside]
        self.plan = multilinear_plan(spec.axes, queries) if queries.size else None
        self.shape = (pts.shape[0], move.shape[0], C)
        self.nx, self.K, self.side = spec.nx, K, side
        self.r, self.T, self.dt = params.r, params.T, dt

    def __call__(self, values_next: Array, t_next: float) -> Array:
        vals = np.empty(self.inside.size)
        if self.plan is not None:
            vals[self.inside] = multilinear_apply(self.plan, values_next)
        if self.outside is not None:
            vals[~self.inside] = np.exp(-self.r * (self.T - t_next)) * self.outside
        table = np.exp(-self.r * self.dt) * vals.reshape(self.shape).mean(axis=2)
        table = table.reshape(self.shape[0], self.K, 2, self.K, 2)
        if self.side == "minus":
            # plus player commits, minus player answers
            return np.max(np.min(table, axis=(3, 4)), axis=(1, 2)).reshape(self.nx)
        return np.min(np.max(table, axis=(1, 2)), axis=(1, 2)).reshape(self.nx)


def dpp_step(values_next: Array, t_next: float, spec: pde.GridSpec, dt: float,
             m: float, payoff: Payoff, params: MarketParams, dirs: DirectionSet,
             side: str) -> Array:
    """One backward-induction sweep of the bounded game on the value lattice.

    Every node takes the discounted average of the interpolated next-slice
    value over all coin scenarios, optimized over both players' lattice
    actions; queries leaving the box fall back to the discounted payoff.
    """
    _query_check(spec, dirs)
    return _Sweep(spec, dt, m, payoff, params, dirs, side)(values_next, t_next)


def dpp_solve(payoff: Payoff, params: MarketParams, m: float, spec: pde.GridSpec,
              side: str, dirs: DirectionSet | None = None,
              nt: int | None = None) -> GameValueTables:
    """Backward induction from the payoff at T; returns one side's table."""
    m = _check_m(m)
    if dirs is None:
        dirs = DirectionSet.for_dimension(spec.n)
    _query_check(spec, dirs)  # before any node-sized allocation
    terminal = pde._lattice(payoff, params, spec)
    if nt is None:
        nt = spec.nt if spec.nt is not None else aligned_time_steps(spec, params)
    spec = replace(spec, nt=nt)  # refuses nt < 1
    dt = params.T / spec.nt
    values = pde._march(terminal, spec.nt, dt, _Sweep(spec, dt, m, payoff, params, dirs, side))
    return GameValueTables(spec=spec, dt=dt, m=m, **{f"u_{side}": values})


def mc_value(payoff: Payoff, params: MarketParams, strat_plus: FeedbackStrategy,
             strat_minus: FeedbackStrategy, cfg: SimConfig, threads: int = 1) -> McEstimate:
    """Monte Carlo estimate of the expected discounted reward under two strategies."""
    dt, draw, step = _sde(cfg, params)
    return _value(cfg, payoff, params, strat_plus, strat_minus, threads, cfg.nt, dt, draw, step)


def write_value_table_csv(path, tables: GameValueTables,
                          config_digest: str | None = None) -> None:
    """Value-table CSV: the surface layout plus a trailing ``side`` column.

    All populated sides are written, lower (minus) table first.
    """
    stacks = [(f",{side}", arr) for side, arr in (("minus", tables.u_minus),
                                                 ("plus", tables.u_plus)) if arr is not None]
    pde._write_slices(path, tables.spec, tables.dt, ["u", "side"], stacks, config_digest)
