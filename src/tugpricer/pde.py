"""Backward-in-time finite-difference solvers for the game value PDEs.

The evolution reads ``du/dt + G(u, Du, D^2u) = 0`` backwards from the payoff
at T, where G is either the gradient-weighted limit operator or the negated
bounded operator of either sign.  Marching is explicit Euler on a uniform
box grid with central differences, a discounted-payoff lateral boundary, and
a CFL restriction ``dt <= cfl * min h_i^2 / (5 n max sigma_i^2)``.

Under that restriction the step is monotone in 1-D.  For n >= 2 it is not:
with the four-corner cross term, raising a neighbour value can lower a node's
next value (ROADMAP item 1 tracks a monotone replacement).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from . import isaacs
from .errors import (OutOfDomainError, PreconditionError, ValidationError)
from .market import MarketParams, Payoff, _as_vector

Array = np.ndarray

MODES = ("limit_F", "bounded_plus", "bounded_minus")


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box [lo, hi] with nx nodes per axis and nt time steps.

    ``nt = None`` asks the solver to pick the smallest step count allowed by
    the CFL bound.
    """

    lo: Array
    hi: Array
    nx: tuple[int, ...]
    nt: int | None = None

    def __post_init__(self) -> None:
        lo = _as_vector(self.lo, "lo")
        hi = _as_vector(self.hi, "hi", lo.size)
        nx = tuple(int(k) for k in np.atleast_1d(self.nx))
        if len(nx) != lo.size:
            raise ValidationError(f"nx must have {lo.size} entries")
        if any(k < 3 for k in nx):
            raise ValidationError("nx must be >= 3 per axis")
        if np.any(hi <= lo):
            raise ValidationError("lo must be < hi per axis")
        if self.nt is not None and int(self.nt) < 1:
            raise ValidationError("nt must be >= 1")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "nt", None if self.nt is None else int(self.nt))

    def __eq__(self, other: object) -> bool:
        """By value: the same box, node counts and step count."""
        if not isinstance(other, GridSpec):
            return NotImplemented
        return (self.nx == other.nx and self.nt == other.nt
                and np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi))

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which __eq__ treats as equal
        return hash(((self.lo + 0.0).tobytes(), (self.hi + 0.0).tobytes(), self.nx, self.nt))

    @property
    def n(self) -> int:
        return self.lo.size

    @property
    def h(self) -> Array:
        return (self.hi - self.lo) / (np.array(self.nx) - 1)

    @property
    def axes(self) -> tuple[Array, ...]:
        return tuple(np.linspace(self.lo[i], self.hi[i], self.nx[i])
                     for i in range(self.n))

    def points(self) -> Array:
        """All nodes as an (N, n) array in C (lexicographic) order."""
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.column_stack([g.reshape(-1) for g in grids])


@dataclass(frozen=True)
class SolverConfig:
    """Mode and tuning knobs for :func:`solve_terminal_value`."""

    mode: str = "limit_F"
    m: float | None = None
    eps_grad: float | None = None
    n_dirs: int | None = None
    cfl: float = 0.5
    boundary: str = "discounted_payoff"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode != "limit_F":
            if self.m is None or not (np.isfinite(self.m) and self.m > 0):
                raise ValidationError("m must be finite and > 0 in the bounded modes")
        if self.eps_grad is not None and not (np.isfinite(self.eps_grad) and self.eps_grad > 0):
            raise ValidationError("eps_grad must be finite and > 0")
        if not (0.0 < self.cfl <= 1.0):
            raise ValidationError("cfl must lie in (0, 1]")
        if self.boundary != "discounted_payoff":
            raise ValidationError("boundary must be 'discounted_payoff'")

    def resolved_eps_grad(self, params: MarketParams) -> float:
        if self.eps_grad is not None:
            return float(self.eps_grad)
        return 1e-8 * float(np.max(params.sigma))


@dataclass(frozen=True)
class BarrierParams:
    """Anchor point, smoothing width and constants of the comparison cone."""

    y: Array
    eps: float
    A: float
    L: float

    def __post_init__(self) -> None:
        y = _as_vector(self.y, "barrier y")
        if not (0.0 < self.eps <= 1.0):
            raise ValidationError("barrier eps must lie in (0, 1]")
        if not (np.isfinite(self.A) and self.A >= 0):
            raise ValidationError("barrier A must be finite and >= 0")
        if not (np.isfinite(self.L) and self.L >= 0):
            raise ValidationError("barrier L must be finite and >= 0")
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class PriceGrid:
    """A solved space-time surface; ``values[k]`` is the slice at t = k*dt."""

    spec: GridSpec
    dt: float
    values: Array

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.nt + 1, *self.spec.nx):
            raise ValidationError(
                f"values shape {vals.shape} does not match grid {(self.nt + 1, *self.spec.nx)}"
            )
        object.__setattr__(self, "values", vals)

    @property
    def nt(self) -> int:
        assert self.spec.nt is not None
        return self.spec.nt

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def axes(self) -> tuple[Array, ...]:
        return self.spec.axes

    def times(self) -> Array:
        return self.dt * np.arange(self.nt + 1)

    def node_index(self, x) -> tuple[int, ...]:
        """Index of the node nearest to x."""
        x = _as_vector(x, "x", self.n)
        h = self.spec.h
        idx = np.rint((x - self.spec.lo) / h).astype(int)
        return tuple(int(np.clip(idx[i], 0, self.spec.nx[i] - 1)) for i in range(self.n))


def a_design(params: MarketParams, lipschitz_bound: float) -> float:
    """Default barrier growth constant for a payoff with the given Lipschitz bound."""
    return 20.0 * float(lipschitz_bound) * params.n * (
        float(np.max(params.sigma) ** 2) + float(np.max(np.abs(params.mu))) + params.r + 1.0
    )


def default_domain(params: MarketParams, center) -> tuple[Array, Array]:
    """Truncation box: wide enough that the boundary is far in both the
    diffusive scale (the limit dynamics carry variance 5 sigma^2 t per axis)
    and the advective scale."""
    center = _as_vector(center, "center", params.n)
    half = np.maximum(4.0 * np.sqrt(5.0) * params.sigma * np.sqrt(params.T),
                      4.0 * (np.abs(params.mu) * params.T + 1.0))
    return center - half, center + half


def cfl_max_dt(spec: GridSpec, params: MarketParams, cfl: float) -> float:
    h = spec.h
    return cfl * float(np.min(h) ** 2) / (5.0 * spec.n * float(np.max(params.sigma) ** 2))


def _check_cfl(dt: float, spec: GridSpec, params: MarketParams, config: SolverConfig) -> None:
    dt_max = cfl_max_dt(spec, params, config.cfl)
    if dt > dt_max * (1.0 + 1e-12):
        raise PreconditionError(
            f"CFL violated: dt={dt:g} exceeds {dt_max:g} "
            f"(cfl={config.cfl}, min h={np.min(spec.h):g}, max sigma={np.max(params.sigma):g})"
        )


def resolve_time_steps(spec: GridSpec, params: MarketParams, config: SolverConfig) -> int:
    """The grid's nt if given (checked against CFL), else the smallest valid nt."""
    if spec.nt is None:
        dt_max = cfl_max_dt(spec, params, config.cfl)
        return max(1, int(np.ceil(params.T / dt_max * (1.0 - 1e-12))))
    _check_cfl(params.T / spec.nt, spec, params, config)
    return spec.nt


def _shift(n: int, axis: int, off: int, axis2: int | None = None, off2: int = 0):
    sl = []
    for a in range(n):
        o = off if a == axis else (off2 if a == axis2 else 0)
        stop = -1 + o
        sl.append(slice(1 + o, None if stop == 0 else stop))
    return tuple(sl)


def interior_derivatives(u: Array, h: Array) -> tuple[Array, Array]:
    """Central-difference gradient and Hessian on all interior nodes.

    Returns p with shape (*interior, n) and M with shape (*interior, n, n);
    cross terms use the four-corner formula, so M is symmetric by construction
    and both are exact on quadratics.
    """
    n = u.ndim
    core = u[tuple(slice(1, -1) for _ in range(n))]
    p = np.empty(core.shape + (n,))
    M = np.empty(core.shape + (n, n))
    for i in range(n):
        up = u[_shift(n, i, +1)]
        dn = u[_shift(n, i, -1)]
        p[..., i] = (up - dn) / (2.0 * h[i])
        M[..., i, i] = (up - 2.0 * core + dn) / h[i] ** 2
        for j in range(i + 1, n):
            cross = (u[_shift(n, i, +1, j, +1)] - u[_shift(n, i, +1, j, -1)]
                     - u[_shift(n, i, -1, j, +1)] + u[_shift(n, i, -1, j, -1)])
            val = cross / (4.0 * h[i] * h[j])
            M[..., i, j] = val
            M[..., j, i] = val
    return p, M


def discrete_derivatives(grid: PriceGrid, node: tuple[int, ...], slice_index: int) -> isaacs.OperatorInput:
    """OperatorInput at one interior node of one time slice."""
    n = grid.n
    node = tuple(int(i) for i in node)
    if len(node) != n:
        raise ValidationError(f"node must have {n} indices")
    if not 0 <= slice_index <= grid.nt:
        raise ValidationError(f"slice_index must lie in [0, {grid.nt}]")
    for a, i in enumerate(node):
        if not 1 <= i <= grid.spec.nx[a] - 2:
            raise OutOfDomainError(
                f"node {node} touches the boundary on axis {a}; derivatives need interior nodes"
            )
    u = grid.values[slice_index]
    p, M = interior_derivatives(u[tuple(slice(i - 1, i + 2) for i in node)], grid.spec.h)
    return isaacs.OperatorInput(xi=float(u[node]), p=p.reshape(n), M=M.reshape(n, n))


def _limit_values(xi: Array, p: Array, M: Array, params: MarketParams, eps_grad: float) -> Array:
    """Vectorized limit operator with the mean-eigenvalue fallback below eps_grad."""
    sig = params.sigma
    sms = M * sig[None, :, None] * sig[None, None, :]
    trace_s2m = np.sum(np.diagonal(M, axis1=1, axis2=2) * sig**2, axis=1)
    norm_sq = np.sum(p * p, axis=1)
    mask = np.sqrt(norm_sq) >= eps_grad
    safe = np.where(mask, norm_sq, 1.0)
    lead = np.where(mask,
                    2.0 * np.einsum("bi,bij,bj->b", p, sms, p) / safe,
                    (2.0 / params.n) * np.trace(sms, axis1=1, axis2=2))
    return lead + 0.5 * trace_s2m + p @ params.mu - params.r * xi


def _batched_operator(config: SolverConfig, params: MarketParams):
    """G(xi, p, M) over a batch of points, for the configured mode."""
    eps = config.resolved_eps_grad(params)
    if config.mode == "limit_F":
        return lambda xi, p, M: _limit_values(xi, p, M, params, eps)
    dirs = isaacs.DirectionSet.for_dimension(params.n, config.n_dirs)
    side = "plus" if config.mode == "bounded_plus" else "minus"
    return lambda xi, p, M: -isaacs.hm_values_batch(xi, p, M, config.m, params, dirs, side)


def apply_operator(inp: isaacs.OperatorInput, config: SolverConfig, params: MarketParams) -> float:
    """The term G in ``du/dt + G = 0`` at one point, for the configured mode."""
    op = _batched_operator(config, params)
    return float(op(np.array([inp.xi]), inp.p[None, :], inp.M[None, :, :])[0])


class _Workspace:
    """Precomputed geometry shared by every backward step."""

    def __init__(self, payoff: Payoff, params: MarketParams, config: SolverConfig,
                 spec: GridSpec):
        if params.n != spec.n or payoff.n != spec.n:
            raise ValidationError("payoff, params and grid dimensions must agree")
        if spec.n > 4:
            raise ValidationError("solver supports at most 4 spatial dimensions")
        self.spec = spec
        self.params = params
        self.h = spec.h
        self.points = spec.points()
        self.terminal = np.asarray(payoff.values(self.points), dtype=float).reshape(spec.nx)
        mask = np.zeros(spec.nx, dtype=bool)
        for a in range(spec.n):
            sl = [slice(None)] * spec.n
            sl[a] = 0
            mask[tuple(sl)] = True
            sl[a] = -1
            mask[tuple(sl)] = True
        self.boundary_mask = mask
        self.boundary_payoff = self.terminal[mask]
        self.interior_points = self.points.reshape(*spec.nx, spec.n)[
            tuple(slice(1, -1) for _ in range(spec.n))].reshape(-1, spec.n)
        self.operator = _batched_operator(config, params)

    def step(self, values_next: Array, t_next: float, dt: float) -> Array:
        n = self.spec.n
        p, M = interior_derivatives(values_next, self.h)
        interior_shape = p.shape[:-1]
        xi = values_next[tuple(slice(1, -1) for _ in range(n))].reshape(-1)
        rhs = self.operator(xi, p.reshape(-1, n), M.reshape(-1, n, n))
        if self.params.running_cost is not None:
            rhs = rhs + self.params.running_cost(self.interior_points, t_next)
        out = np.empty_like(values_next)
        out[tuple(slice(1, -1) for _ in range(n))] = (
            values_next[tuple(slice(1, -1) for _ in range(n))] + dt * rhs.reshape(interior_shape)
        )
        t = t_next - dt
        disc = np.exp(-self.params.r * (self.params.T - t))
        out[self.boundary_mask] = disc * self.boundary_payoff
        return out


def step_backward(values_next: Array, t_next: float, payoff: Payoff, params: MarketParams,
                  config: SolverConfig, spec: GridSpec, dt: float | None = None) -> Array:
    """One explicit backward step; standalone variant of the solver kernel."""
    if dt is None:
        if spec.nt is None:
            raise ValidationError("dt is required when the grid does not fix nt")
        dt = params.T / spec.nt
    _check_cfl(dt, spec, params, config)
    ws = _Workspace(payoff, params, config, spec)
    vals = np.asarray(values_next, dtype=float)
    if vals.shape != spec.nx:
        raise ValidationError(f"values shape {vals.shape} does not match grid {spec.nx}")
    return ws.step(vals, float(t_next), float(dt))


def solve_terminal_value(payoff: Payoff, params: MarketParams, config: SolverConfig,
                         spec: GridSpec) -> PriceGrid:
    """March the configured operator backwards from the payoff at T."""
    nt = resolve_time_steps(spec, params, config)
    spec = replace(spec, nt=nt)
    dt = params.T / nt
    ws = _Workspace(payoff, params, config, spec)
    values = np.empty((nt + 1, *spec.nx))
    values[nt] = ws.terminal
    for k in range(nt, 0, -1):
        values[k - 1] = ws.step(values[k], k * dt, dt)
    if not np.all(np.isfinite(values)):
        raise PreconditionError("solver produced non-finite values (unstable configuration)")
    if params.running_cost is None:
        slack = 1e-6 * (1.0 + payoff.sup_bound)
        if float(values.min()) < -slack or float(values.max()) > payoff.sup_bound + slack:
            raise PreconditionError(
                f"solution left [0, sup g] by more than {slack:g}: "
                f"range [{values.min():g}, {values.max():g}]"
            )
    return PriceGrid(spec=spec, dt=dt, values=values)


def barrier_pair(x, t: float, bp: BarrierParams, g_y: float, T: float):
    """Comparison cones anchored at (y, g(y)): returns (lower, upper).

    upper = g(y) + (A/eps^2)(T - t) + 2 L sqrt(|x - y|^2 + eps); lower mirrors it.
    """
    if not (np.isfinite(t) and t <= T):
        raise ValidationError("barrier time must satisfy t <= T")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 1
    if scalar:
        arr = arr[None, :]
    if arr.shape[1] != bp.y.size:
        raise ValidationError(f"x must have {bp.y.size} coordinates")
    dist_sq = np.sum((arr - bp.y) ** 2, axis=1)
    bulge = (bp.A / bp.eps**2) * (T - t) + 2.0 * bp.L * np.sqrt(dist_sq + bp.eps)
    lower = g_y - bulge
    upper = g_y + bulge
    if scalar:
        return float(lower[0]), float(upper[0])
    return lower, upper


def interior_mask(spec: GridSpec, margin) -> Array:
    """Boolean node mask keeping points at least `margin` from every lateral face."""
    margin = np.broadcast_to(np.asarray(margin, dtype=float), (spec.n,)).astype(float)
    mask = np.ones(spec.nx, dtype=bool)
    for a, ax in enumerate(spec.axes):
        ok = (ax >= spec.lo[a] + margin[a]) & (ax <= spec.hi[a] - margin[a])
        shape = [1] * spec.n
        shape[a] = -1
        mask &= ok.reshape(shape)
    return mask


def write_surface_csv(path, grid: PriceGrid, config_digest: str | None = None) -> None:
    """Surface CSV: header t,x_1,...,x_n,u; slices run from T down to 0."""
    _write_slices(path, grid.spec, grid.dt, ["u"], [("", grid.values)], config_digest)


def _write_slices(path, spec: GridSpec, dt: float, columns: list[str],
                  stacks: list[tuple[str, Array]], config_digest: str | None) -> None:
    """The one CSV writer of value surfaces and tables.

    Writes the optional ``# config_digest=`` line, the header
    ``t,x_1,...,x_n,<columns>`` and, for each ``(suffix, values)`` in
    ``stacks``, the slices k = nt..0 as rows ``t,x_1,...,x_n,u<suffix>`` in
    node (C) order.  Every number is ``%.17g``, so the bytes are those of
    ``np.savetxt(fmt="%.17g")`` on the same rows.  Each node's coordinates are
    formatted once per file into a row template; a slice formats t once and
    fills all its values with one ``%``, and is written as one string.
    """
    coords = ["".join([",%.17g" % v for v in p]) for p in spec.points().tolist()]
    with open(path, "w", newline="") as fh:
        if config_digest is not None:
            fh.write(f"# config_digest={config_digest}\n")
        fh.write(",".join(["t"] + [f"x_{i + 1}" for i in range(spec.n)] + columns) + "\n")
        for suffix, values in stacks:
            rows = [""] + [f"{c},%.17g{suffix}\n" for c in coords]
            for k in range(values.shape[0] - 1, -1, -1):
                fh.write(("%.17g" % (k * dt)).join(rows) % tuple(values[k].ravel().tolist()))


def read_surface_csv(path) -> tuple[Array, Array, Array]:
    """Inverse of :func:`write_surface_csv`: (times, points, values) row-wise."""
    with open(path) as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    if header[0] != "t" or header[-1] != "u":
        raise ValidationError(f"unexpected surface header: {header}")
    data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
    return data[:, 0], data[:, 1:-1], data[:, -1]


__all__ = [
    "GridSpec", "SolverConfig", "BarrierParams", "PriceGrid", "a_design",
    "default_domain", "cfl_max_dt", "resolve_time_steps", "interior_derivatives",
    "discrete_derivatives", "apply_operator", "step_backward", "solve_terminal_value",
    "barrier_pair", "interior_mask", "write_surface_csv", "read_surface_csv", "MODES",
]
