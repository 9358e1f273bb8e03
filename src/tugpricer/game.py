"""Game-side machinery: coin-toss games, controlled SDE paths, DPP tables.

Three independent routes to the same prices live here.  The discrete game
replays the binomial manipulation game exactly as defined (steps of size 1/N,
controls capped at 1/sqrt(N)).  The SDE simulator runs the two-point weak
Euler scheme on the controlled diffusion: the Euler step driven by fair +-1
coins, the Markov chain the DPP solves at equal dt.  The DPP solver performs
backward induction of the 2^(n+1)-scenario expectation on a value lattice,
giving upper/lower tables that bracket the PDE solutions.

Randomness is reproducible by construction: each fixed block of 8192 paths
draws from a counter-based stream keyed by (seed, block), so a path's draws
depend only on (seed, path index, steps, n), never on threads.  The coin game
draws every row of its block row-major in one call of 32-bit words and reads
coin j as the top bit of byte j, the bit ``integers(0, 2, int8)`` would give.
The SDE draws its coins the same way, for only the block's first 4096 rows;
row j >= 4096 is the negation of row j - 4096, still coins, an antithetic
pair with the same law under any Markov strategy.  That half is applied by
subtraction, never stored.
Standard errors treat each such pair as one sample (see ``_estimate``).

Both simulators split a step into its coefficients, built from the controls
alone, and the state update that applies them.  Every player is an exact
constant strategy or a per-slice policy, the policies on one grid and clock,
so the coefficients are built before any draw: once per run without a
policy, else once per slice that the clock reads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np
import numpy.random  # numpy loads it lazily; load it at import, not in the first simulation

from . import pde
from ._interp import multilinear_apply, multilinear_plan
from .errors import PreconditionError, StrategyContractError, ValidationError
from .isaacs import UNIT_TOL, DirectionSet, _check_m, _sign, greedy_controls_batch
from .market import MarketParams, Payoff, _as_vector, _count

Array = np.ndarray

_BLOCK = 8192  # paths per work block and per RNG stream; fixed so threads never change results
_HALF = _BLOCK // 2  # SDE rows drawn per block; row j >= _HALF replays row j - _HALF negated
# cap on the interpolation query coordinates of one DPP sweep: nodes x the size of
# the sweep's move array (3K^2 actions x 2^(n+1) coins x n); tracemalloc puts a
# solve's peak at 42 (11^2, K=8) to 45 (21^2, K=16) bytes per coordinate, so this
# bounds it near 0.75 GB
_DPP_QUERY_BUDGET = 1 << 24


def path_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-based Philox stream for one block of ``_BLOCK`` paths.

    Distinct (seed, block) keys give independent streams.  The block's paths
    take consecutive row-major slices of one draw of coins from it (see
    ``_coins``): all of them in the coin game, the first min(B, ``_HALF``)
    in the SDE, whose later rows negate the rows ``_HALF`` before them; the
    SDE draw holds only the drawn rows.  A draw of count coins reads
    ceil(count / 4) ``uint32`` words and takes coin i as 2 (byte i >> 7) - 1
    of their little-endian bytes, the same coins as ``integers(0, 2, int8)``.
    """
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_seed(seed: int, name: str = "seed") -> int:
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer))
                                      and 0 <= int(seed) < 2**64):
        raise ValidationError(f"{name} must be an unsigned 64-bit integer")
    return int(seed)


def _check_run(cfg, counts: tuple[str, ...]) -> None:
    """Refuse a run whose ``counts`` fields are not integers >= 1 (a bool is not)
    or whose seed is bad; store its start as a float vector and t0 as a float."""
    start = _as_vector(cfg.start, "start")
    for name in counts:
        _count(getattr(cfg, name), name, 1)
    _check_seed(cfg.seed)
    object.__setattr__(cfg, "start", start)
    object.__setattr__(cfg, "t0", float(cfg.t0))


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run of the two-point weak Euler scheme: start state, clock
    and path budget."""

    start: Array
    t0: float
    paths: int
    seed: int
    nt: int = 200

    def __post_init__(self) -> None:
        _check_run(self, ("paths", "nt"))


@dataclass(frozen=True)
class DiscreteGameConfig:
    """Coin-toss game run: N steps per unit time from (start, t0)."""

    start: Array
    t0: float
    N: int
    paths: int
    seed: int

    def __post_init__(self) -> None:
        _check_run(self, ("N", "paths"))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    paths: int
    seed: int


class FeedbackStrategy:
    """Markov control rule for one player: (x, t) -> (theta, d), d <= m.

    Implementations provide :meth:`controls` acting on state batches of shape
    (B, n).  The simulators play only an exact :class:`ConstantStrategy` and
    policies (:func:`greedy_strategy_pair`, :func:`tabulate_strategy`), all read
    before any path is drawn; violations raise :class:`StrategyContractError`
    naming the offending state and time.
    """

    m: float

    def controls(self, x: Array, t: float) -> tuple[Array, Array]:
        raise NotImplementedError


def checked_controls(strategy: FeedbackStrategy, x: Array, t: float) -> tuple[Array, Array]:
    theta, d = (np.asarray(a, dtype=float) for a in strategy.controls(x, t))
    if theta.shape != x.shape or d.shape != x.shape[:1]:
        raise StrategyContractError(f"strategy returned theta {theta.shape} and d {d.shape} "
                                    f"for states {x.shape} at t={t}")
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
        self.theta = _as_vector(self.theta, "theta")
        if abs(np.linalg.norm(self.theta) - 1.0) > UNIT_TOL:
            raise ValidationError(f"theta must be a unit vector within {UNIT_TOL}")
        if not (np.isfinite(self.d) and self.d >= 0):
            raise ValidationError("d must be finite and >= 0")
        self.d = float(self.d)
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


class _Tables:
    """Control tables on one grid and clock: ``table(k)`` builds and checks the
    (interior nodes, columns) table of slice k, at t = k dt, on every call."""

    def __init__(self, spec: pde.GridSpec, dt: float, m: float,
                 build: Callable[[int, float], Array]):
        self.spec, self.dt, self.m, self._build = spec, dt, m, build
        # per axis: (lo, h, interior nodes), as Python numbers for the per-step snap
        self._axes = [(float(lo), float(h), nx - 2)
                      for lo, h, nx in zip(spec.lo, spec.h, spec.nx)]

    def table(self, k: int) -> Array:
        return self._build(k, k * self.dt)

    def slice_index(self, t: float) -> int:
        """The slice whose controls a state at time t plays: the nearest one."""
        return min(max(round(t / self.dt), 0), self.spec.nt)

    def node(self, x: Array) -> Array:
        """Flat table row of the interior node nearest each row of x."""
        flat = None
        for a, (lo, h, inner) in enumerate(self._axes):
            q = x[:, a] - lo
            q /= h
            idx = np.rint(q, out=q).astype(np.intp)
            np.maximum(idx, 1, out=idx)
            np.minimum(idx, inner, out=idx)
            idx -= 1
            if flat is None:
                flat = idx
            else:
                flat *= inner
                flat += idx
        return flat


class _Policy(FeedbackStrategy):
    """One player's (theta, d) columns of a table set, from ``column`` on;
    :meth:`controls` is its rule form."""

    def __init__(self, tables: _Tables, column: int):
        self.tables, self.column, self.m = tables, column, tables.m

    def columns(self, rows: Array) -> tuple[Array, Array]:
        """This player's (theta, d) of table rows."""
        n, j = self.tables.spec.n, self.column
        return rows[:, j:j + n], rows[:, j + n]

    def controls(self, x: Array, t: float) -> tuple[Array, Array]:
        tables = self.tables
        return self.columns(tables.table(tables.slice_index(t)).take(tables.node(x), axis=0))


def greedy_strategy_pair(grid: pde.PriceGrid, params: MarketParams, m: float,
                         dirs: DirectionSet | None = None,
                         side: str = "minus") -> tuple[FeedbackStrategy, FeedbackStrategy]:
    """Policies that replay the lattice optimizers of a solved surface.

    States snap to the nearest interior node of the nearest time slice, so the
    controls are piecewise constant; the two policies share one table per slice,
    each built on a stencil of its own.
    """
    if dirs is None:
        dirs = DirectionSet.for_dimension(grid.n)
    _sign(side)  # refuses any side but 'plus' and 'minus'
    if not dirs.n == params.n == grid.n:
        raise ValidationError("directions, params and surface dimensions must agree")
    m = _check_m(m)
    interior = tuple(k - 2 for k in grid.spec.nx)

    def table(k: int, t: float) -> Array:
        stencil = pde._Stencil(grid.spec.h, interior)
        tp, dp, tm, dm = greedy_controls_batch(*stencil.fill(grid.values[k]), m, params,
                                               dirs, side)
        for theta, d in ((tp, dp), (tm, dm)):
            _check_controls(theta, d, m, lambda i: f"interior node {i} of the slice t={t}")
        return np.column_stack([tp, dp, tm, dm])

    tables = _Tables(grid.spec, grid.dt, m, table)
    return _Policy(tables, 0), _Policy(tables, grid.n + 1)


def tabulate_strategy(rule: FeedbackStrategy, spec: pde.GridSpec, dt: float) -> FeedbackStrategy:
    """``rule`` as a policy, piecewise constant on ``spec``'s interior nodes and
    slices t = k dt, k <= spec.nt, as a greedy view is: a simulation reads it
    through :func:`checked_controls` at every interior node once per slice its
    clock reaches, before any path is drawn."""
    if spec.nt is None or not (math.isfinite(dt) and dt > 0):
        raise ValidationError("a policy needs spec.nt set and a finite dt > 0")
    nodes = spec.points().reshape(*spec.nx, -1)[(slice(1, -1),) * spec.n].reshape(-1, spec.n)
    return _Policy(_Tables(spec, float(dt), rule.m,
                           lambda k, t: np.column_stack(checked_controls(rule, nodes, t))), 0)


def _play(cfg: SimConfig | DiscreteGameConfig, params: MarketParams,
          strat_plus: FeedbackStrategy, strat_minus: FeedbackStrategy, threads: int,
          steps: int, dt: float, rc, draw: Callable, prep: Callable, advance: Callable,
          store: Callable) -> None:
    """Play every path from (cfg.start, cfg.t0) for `steps` steps of length `dt`.

    Each block of B paths draws its noise once, ``draw(gen, (B, steps, n + 1))``
    (the SDE returns only its min(B, ``_HALF``) drawn rows), advances
    ``X = advance(X, coef, noise[:, k])`` by coefficients ``prep(tp, dp, tm,
    dm)``, two (rows, n) terms elementwise in the controls at the pre-step
    state, then hands its rows to ``store(lo, hi, X, acc)``; acc holds the
    left-endpoint sums of the running cost `rc` (0 when None), the cost paid
    at t_k discounted by exp(-r (t_k - t0)).

    Each player, of the market's dimension, is an exact :class:`ConstantStrategy`
    or a policy, and all policies share one grid spec and ``dt``; anything else
    is refused with ``ValidationError``.  Before any draw, each constant is read
    once, at (cfg.start, cfg.t0), each table set once per slice the clock reads,
    in clock order, and ``prep`` runs once per slice on the two players'
    columns (a constant's one row broadcasts): each step gathers one row per
    path, bit for bit ``prep`` of the gathered controls.  Without a policy,
    ``prep`` runs once, and a term that is exactly zero is left out (adding it
    could only turn a -0.0 state into +0.0).
    """
    n = params.n
    players = (strat_plus, strat_minus)
    sets = dict.fromkeys(s.tables for s in players if type(s) is _Policy)
    for s in players:
        if type(s) not in (ConstantStrategy, _Policy):
            raise ValidationError(f"{type(s).__name__} plays only through tabulate_strategy")
        width = np.size(s.theta) if type(s) is ConstantStrategy else s.tables.spec.n
        if width != n:
            raise ValidationError(f"a {width}-D player cannot play in a {n}-D market")
    if len({(ts.spec, ts.dt) for ts in sets}) > 1:
        raise ValidationError("policies on two grids or clocks; use tabulate_strategy")
    times = [cfg.t0 + k * dt for k in range(steps)]
    fixed = [checked_controls(s, cfg.start[None, :], cfg.t0)
             if type(s) is ConstantStrategy else None for s in players]
    if not sets:
        coef = tuple(c if c.any() else None for c in prep(*fixed[0], *fixed[1]))

        def coef_at(X, k):
            return coef
    else:
        clock = next(iter(sets))  # every table set has its node layout and slices
        slices = [clock.slice_index(t) for t in times]
        tables = {}
        for s in dict.fromkeys(slices):  # in clock order
            built = {ts: ts.table(s) for ts in sets}
            (tp, dp), (tm, dm) = (f if f is not None else p.columns(built[p.tables])
                                  for p, f in zip(players, fixed))
            tables[s] = np.hstack(prep(tp, dp, tm, dm))
        step_tables = [tables[s] for s in slices]

        def coef_at(X, k):
            rows = step_tables[k].take(clock.node(X), axis=0)
            return rows[:, :n], rows[:, n:]

    def worker(lo: int) -> None:
        hi = min(cfg.paths, lo + _BLOCK)
        noise = draw(path_rng(cfg.seed, lo // _BLOCK), (hi - lo, steps, n + 1))
        X = np.tile(cfg.start, (hi - lo, 1))
        acc = np.zeros(hi - lo)
        for k, t_k in enumerate(times):
            coef = coef_at(X, k)
            if rc is not None:
                acc += np.exp(-params.r * (t_k - cfg.t0)) * rc(X, t_k) * dt
            X = advance(X, coef, noise[:, k])
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


def _euler(params: MarketParams, dt: float) -> tuple[Array, Callable]:
    """The controlled Euler step of length dt: the noise scale sigma sqrt(dt) and
    ``prep(tp, dp, tm, dm)``, the step's drift shift and the lever of its
    direction-difference coin, two (rows, n) terms elementwise in the controls."""
    sqdt = np.sqrt(dt)
    sigma = params.sigma

    def prep(tp, dp, tm, dm):
        drift = params.mu + sigma * (dp + dm)[:, None] * (tp + tm)
        return drift * dt, sigma * (tp - tm) * sqdt

    return sigma * sqdt, prep


def _sde(cfg: SimConfig, params: MarketParams) -> tuple[float, Callable, Callable, Callable]:
    """The clock of a run of the two-point weak Euler scheme, its coin draw and
    its step split into ``prep`` and ``advance``, for ``_play``: the Euler step
    of ``_euler`` with int8 +-1 coins in place of normals, which ``advance``
    multiplies into the float terms directly (the promotion of +-1 is exact)."""
    _check_start(cfg, params)
    n = params.n
    dt = (params.T - cfg.t0) / cfg.nt
    spread, prep = _euler(params, dt)

    def advance(X, coef, z):
        # z holds the h drawn rows of coins; rows h.. of X replay rows ..B - h
        # negated, applied by subtraction: a (-z) = -(a z) and x + (-y) = x - y exactly
        shift, lever = coef
        B, h = X.shape[0], z.shape[0]
        X = X + shift if shift is not None else X.copy()
        term = spread * z[:, :n]
        X[:h] += term
        X[h:] -= term[:B - h]
        if lever is not None:
            zn = z[:, n:].copy()  # one contiguous copy of the strided column, read twice
            lever = np.broadcast_to(lever, X.shape)
            X[:h] += lever[:h] * zn
            X[h:] -= lever[h:] * zn[:B - h]
        return X

    def draw(gen: np.random.Generator, shape) -> Array:
        # the antithetic block's drawn half only; advance applies the other
        return _coins(gen, (min(shape[0], _HALF), *shape[1:]))

    return dt, draw, prep, advance


def _value(cfg: SimConfig | DiscreteGameConfig, payoff: Payoff, params: MarketParams,
           strat_plus: FeedbackStrategy, strat_minus: FeedbackStrategy, threads: int,
           steps: int, dt: float, draw: Callable, prep: Callable,
           advance: Callable) -> McEstimate:
    """Play every path (see ``_play``); estimate the discounted payoff plus running cost."""
    rewards = np.empty(cfg.paths)

    def store(lo, hi, X, acc):
        rewards[lo:hi] = discounted_reward(X, cfg.t0, params, payoff) + acc

    _play(cfg, params, strat_plus, strat_minus, threads, steps, dt, params.running_cost,
          draw, prep, advance, store)
    return _estimate(rewards, cfg.paths, cfg.seed)


def simulate_sde_paths(cfg: SimConfig, params: MarketParams,
                       strat_plus: FeedbackStrategy, strat_minus: FeedbackStrategy,
                       threads: int = 1) -> Array:
    """Terminal states, shape (paths, n), of the two-point weak Euler scheme on
    the controlled log-price dynamics: each step draws n + 1 fair +-1 coins,
    antithetic rows negate them, and controls are read at the pre-step state.
    The value of a run, running cost included, is :func:`mc_value`."""
    dt, draw, prep, advance = _sde(cfg, params)
    terminals = np.empty((cfg.paths, params.n))

    def store(lo, hi, X, acc):
        terminals[lo:hi] = X

    _play(cfg, params, strat_plus, strat_minus, threads, cfg.nt, dt, None, draw, prep, advance,
          store)
    return terminals


def simulate_discrete_game(cfg: DiscreteGameConfig, payoff: Payoff, params: MarketParams,
                           strat_plus: FeedbackStrategy, strat_minus: FeedbackStrategy,
                           threads: int = 1) -> McEstimate:
    """Play the N-per-unit-time coin-toss game to T and average the rewards.

    Raw strategy intensities are mapped onto the capped lattice controls
    ``theta_k = min(d / sqrt(N), 1) * theta / sqrt(N)``, which keeps every
    lattice control inside the 1/sqrt(N) ball by construction.  (T - t0) N
    must be a whole number of steps, to within 1e-9 relative.
    """
    _check_start(cfg, params)
    n = params.n
    steps = _game_steps(params.T, cfg.t0, cfg.N)
    root_n = np.sqrt(cfg.N)
    dt = 1.0 / cfg.N
    sigma = params.sigma
    drift = params.mu * dt
    spread = (2.0 / root_n) * sigma

    def prep(tp, dp, tm, dm):
        scaled_p = tp * (np.minimum(dp / root_n, 1.0) / root_n)[:, None]
        scaled_m = tm * (np.minimum(dm / root_n, 1.0) / root_n)[:, None]
        return sigma * (scaled_p - scaled_m), sigma * (scaled_p + scaled_m)

    def advance(X, coef, c):
        lever, push = coef
        X = X + drift
        X += spread * c[:, :n]
        if lever is not None:
            X += lever * c[:, n][:, None]
        if push is not None:
            X += push
        return X

    return _value(cfg, payoff, params, strat_plus, strat_minus, threads, steps, dt, _coins,
                  prep, advance)


def _coins(gen: np.random.Generator, shape) -> Array:
    """A block's +-1 coins as int8, for both simulators: coin i is the top bit t
    of byte i of ceil(count / 4) raw words (see ``path_rng``), mapped to 2t - 1
    by four passes over the words in place, with no block-sized temporaries."""
    count = math.prod(shape)
    words = gen.integers(0, 1 << 32, size=-(-count // 4), dtype=np.uint32)
    words = words.astype("<u4", copy=False)
    words >>= 7  # the top bit of each byte to its bottom bit
    words &= 0x01010101
    words *= 0xFE  # 0 or 0xFE per byte; no byte carries into the next
    words ^= 0xFFFFFFFF  # 0xFF (-1) or 0x01 (+1)
    return words.view(np.int8)[:count].reshape(shape)


def _game_steps(T: float, t0: float, N: int,
                names: tuple[str, str, str] = ("T", "t0", "N")) -> int:
    """The number of 1/N steps from t0 to T.  A horizon off the 1/N grid, which
    the game could only play short or long, is refused; ``names`` label T, t0, N."""
    span = (T - t0) * N
    steps = round(span)
    if abs(span - steps) > 1e-9 * span:
        raise ValidationError(
            "({} - {}) * {} = {!r} must be a whole number of game steps".format(*names, span))
    return steps


def _estimate(rewards: Array, paths: int, seed: int) -> McEstimate:
    """Sample mean and its standard error over the block layout's independent units.

    Each block of B paths pairs row j with row j + h, h = min(B, ``_HALF``),
    for j < B - h; rows B - h .. h - 1 of a short block stay single.  With P
    pair means and U singles, each group with its own sample variance,

        stderr = sqrt(4 P var(pair means) + U var(singles)) / paths,

    which is unbiased whether or not a pair is antithetic, so the coin game's
    independent rows use it too.  A group of fewer than two units adds 0.
    """
    mean = float(np.mean(rewards))
    full, B = divmod(paths, _BLOCK)
    h = min(B, _HALF)
    blocks = rewards[:full * _BLOCK].reshape(full, 2, _HALF)
    tail = rewards[full * _BLOCK:]
    pairs = np.concatenate([(blocks[:, 0] + blocks[:, 1]).ravel(), tail[:B - h] + tail[h:]])
    pairs *= 0.5
    singles = tail[B - h:h]
    var = 4 * pairs.size * _sample_var(pairs) + singles.size * _sample_var(singles)
    return McEstimate(mean=mean, stderr=float(np.sqrt(var)) / paths, paths=paths, seed=seed)


def _sample_var(units: Array) -> float:
    return float(np.var(units, ddof=1)) if units.size > 1 else 0.0


def discounted_reward(terminal, t0: float, params: MarketParams, payoff: Payoff):
    """The payoff at the terminal states, discounted from T back to t0."""
    arr = np.asarray(terminal, dtype=float)
    scalar = arr.ndim == 1
    if scalar:
        arr = arr[None, :]
    out = np.exp(-params.r * (params.T - t0)) * np.asarray(payoff.values(arr), dtype=float)
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


def aligned_time_steps(spec: pde.GridSpec, params: MarketParams) -> int:
    """Step count whose coin displacement sigma*sqrt(dt) spans about one grid cell.

    Aligning the walk with the lattice keeps the interpolation bias of the
    backward induction near zero on the dominant scenarios.
    """
    target = float(np.min((spec.h / params.sigma) ** 2))
    return max(1, int(round(params.T / target)))


def _coin_matrix(n: int) -> Array:
    """All 2^(n+1) sign vectors, one row per scenario."""
    count = 1 << (n + 1)
    rows = np.arange(count)
    return 1.0 - 2.0 * ((rows[:, None] >> np.arange(n + 1)[None, :]) & 1)


class _Sweep:
    """A DPP sweep's node-independent geometry, built once per solve for both
    sides: the moves of the 3K^2 distinct actions, the queries' ``lo <= q <= hi``
    split, the interpolation plan of those inside and the payoff at those
    outside.  Calling it on a next slice and a side gathers, discounts,
    optimizes and adds the running cost."""

    def __init__(self, spec: pde.GridSpec, dt: float, m: float, payoff: Payoff,
                 params: MarketParams, dirs: DirectionSet):
        self.m = m = _check_m(m)
        if not dirs.n == params.n == spec.n:
            raise ValidationError("directions, params and grid dimensions must agree")
        n = spec.n
        D = dirs.dirs
        K = D.shape[0]
        coins = _coin_matrix(n)                       # (C, n+1)
        # a move sees d+ and d- only through lam = d+ + d- in {0, m, 2m}: the
        # actions are (k_plus, k_minus, lam), and each coin row c moves by
        # shift + scale c[:n] + lever c[n]
        actions = (K, K, 3)
        nodes = math.prod(spec.nx)
        # every node queries every action's coin moves: refuse their count before
        # building them, which at the default 3-D fan (K = 2048) takes 4.8 GB
        coords = nodes * math.prod(actions) * coins[:, :n].size
        if coords > _DPP_QUERY_BUDGET:
            raise PreconditionError(
                f"backward induction needs {coords:.3g} query coordinates per step "
                f"({nodes} nodes, {K} directions), over the budget of "
                f"{_DPP_QUERY_BUDGET:.3g}; lower game.n_dirs or grid.nx"
            )
        kp, km, lam = np.indices(actions).reshape(3, -1)
        scale, prep = _euler(params, dt)
        shift, lever = prep(D[kp], np.array([0.0, m, m + m])[lam], D[km], np.zeros(lam.size))
        move = shift[:, None, :] + scale * coins[:, :n] + lever[:, None, :] * coins[:, n:]
        disp = np.max(np.abs(move), axis=(0, 1))   # the largest move on each axis
        margin = (spec.hi - spec.lo) / 4.0
        if np.any(disp > margin):
            a = int(np.argmax(disp - margin))
            raise PreconditionError(
                f"one-step displacement {disp[a]:g} exceeds the grid margin {margin[a]:g} "
                f"on axis {a}; shrink dt or m, or widen the box"
            )
        pts = spec.points()
        queries = (pts[:, None, None, :] + move[None, :, :, :]).reshape(-1, n)
        self.inside = inside = np.all((queries >= spec.lo) & (queries <= spec.hi), axis=1)
        self.outside = None if np.all(inside) else payoff.values(queries[~inside])
        queries = queries[inside]
        self.plan = multilinear_plan(spec.axes, queries) if queries.size else None
        self.shape = (pts.shape[0], *actions, coins.shape[0])
        self.nx, self.points, self.cost = spec.nx, pts, params.running_cost
        self.r, self.T, self.dt = params.r, params.T, dt

    def __call__(self, values_next: Array, t_next: float, side: str) -> Array:
        vals = np.empty(self.inside.size)
        if self.plan is not None:
            vals[self.inside] = multilinear_apply(self.plan, values_next)
        if self.outside is not None:
            vals[~self.inside] = np.exp(-self.r * (self.T - t_next)) * self.outside
        # (nodes, K+, K-, lam): each action's expectation over the coins
        E = np.exp(-self.r * self.dt) * vals.reshape(self.shape).mean(axis=-1)
        # each player's intensity j in {0, 1} adds j m to lam: the pair (j, j')
        # plays lam index j + j', so E[..., :2] and E[..., 1:] fold one side's j
        if side == "minus":
            # plus player commits (k+, j+), minus player answers (k-, j-)
            out = np.minimum(E[..., :2], E[..., 1:]).min(axis=2).max(axis=(1, 2))
        else:
            out = np.maximum(E[..., :2], E[..., 1:]).max(axis=1).min(axis=(1, 2))
        if self.cost is not None:
            # the cost of the step from the node's own time t_next - dt
            out += self.cost(self.points, t_next - self.dt) * self.dt
        return out.reshape(self.nx)


def dpp_solve(payoff: Payoff, params: MarketParams, m: float, spec: pde.GridSpec,
              side: str, dirs: DirectionSet | None = None,
              nt: int | None = None) -> GameValueTables:
    """Backward induction from the payoff at T; returns one side's table, or
    both for ``side="both"``, marched on one sweep.

    Every node takes the discounted average of the interpolated next-slice
    value over all coin scenarios, optimized over both players' lattice
    actions, plus the running cost h(x, t) dt at its own time t; queries
    leaving the box fall back to the discounted payoff.
    """
    sides = {"minus": ("minus",), "plus": ("plus",), "both": ("minus", "plus")}.get(side)
    if sides is None:
        raise ValidationError(f"side must be 'plus', 'minus' or 'both', got {side!r}")
    if dirs is None:
        dirs = DirectionSet.for_dimension(spec.n)
    if nt is None:
        nt = spec.nt if spec.nt is not None else aligned_time_steps(spec, params)
    spec = replace(spec, nt=nt)  # refuses nt < 1
    dt = params.T / spec.nt
    sweep = _Sweep(spec, dt, m, payoff, params, dirs)  # checks before any node-sized allocation
    terminal = pde._lattice(payoff, params, spec)
    values = {f"u_{s}": pde._march(terminal, spec.nt, dt, partial(sweep, side=s))
              for s in sides}
    return GameValueTables(spec=spec, dt=dt, m=sweep.m, **values)


def mc_value(payoff: Payoff, params: MarketParams, strat_plus: FeedbackStrategy,
             strat_minus: FeedbackStrategy, cfg: SimConfig, threads: int = 1) -> McEstimate:
    """Monte Carlo estimate of the expected discounted reward under two strategies."""
    return _value(cfg, payoff, params, strat_plus, strat_minus, threads, cfg.nt,
                  *_sde(cfg, params))


def write_value_table(path, tables: GameValueTables,
                      config_digest: str | None = None) -> None:
    """The value tables as an archive, or as CSV when ``path`` ends in ``.csv``.

    The archive holds ``u_minus`` and / or ``u_plus``, each shaped
    (nt + 1, *nx); the CSV has the surface layout plus a trailing ``side``
    column, lower (minus) table first.  See :func:`pde._write_slices`.
    """
    stacks = {name: arr for name, arr in (("u_minus", tables.u_minus),
                                          ("u_plus", tables.u_plus)) if arr is not None}
    pde._write_slices(path, tables.spec, tables.dt, stacks, config_digest)
