"""Backward-in-time finite-difference solvers for the game value PDEs.

The evolution reads ``du/dt + G(u, Du, D^2u) = 0`` backwards from the payoff
at T, where G is either the gradient-weighted limit operator or the negated
bounded operator of either sign.  Marching is explicit Euler on a uniform
box grid with central differences, a discounted-payoff lateral boundary, and
a CFL restriction ``dt <= cfl * min h_i^2 / (5 n max sigma_i^2)``.

Under that restriction the step is monotone in 1-D.  For n >= 2 it is not:
with the four-corner cross term, raising a neighbour value can lower a node's
next value (ROADMAP item 1 tracks a monotone replacement).

A solve prepares its step once, in ``_Workspace``: the stencil's neighbour
slices and the gradient and Hessian buffers that each step refills in place
(``_Stencil``), the mode's operator (for limit_F the kernel ``isaacs._Limit``,
with its constants derived and its batch shapes checked against those
buffers; for the bounded modes ``hm_values_batch``), and the interior points
of a running cost.  A step then writes the discounted payoff over the slice
and the interior update over its core through slices.
``interior_derivatives`` and ``limit_values_batch`` check their inputs on
every call and run the same stencil and kernel, so every node gets the same
floats either way, for every n <= 4 and mode.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

import numpy as np

from . import isaacs
from .errors import PreconditionError, ValidationError
from .market import MarketParams, Payoff, _as_vector, _count

Array = np.ndarray

MODES = ("limit_F", "bounded_plus", "bounded_minus")
# cap on the doubles a solve holds at its peak: the (nt + 1) value slices and
# the n coordinates of spec.points(), each prod(nx) nodes, per interior node
# the stencil's gradient and Hessian buffers, n + n^2, and the step's
# temporaries, which tracemalloc puts under n^2 + 2n + 8 for limit_F at every
# n <= 4, and in the bounded modes the operator's scratch for one slice of
# inputs (isaacs._scratch_doubles), without which a bounded solve peaked at
# 2.03 times the count (1-D, 24,001 nodes) and 7.8 times (2-D, 41^2, K = 18).
# The default 3-D grid (nx 101, nt 188) needs 2.32e8 (1.9 GB) and runs; the
# default 4-D one needs 3.15e10 (252 GB) and is refused before its first
# node-sized allocation
_STACK_BUDGET = 1 << 28


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
        nx = tuple(_count(k, "nx", 3) for k in (self.nx if np.ndim(self.nx) else (self.nx,)))
        if len(nx) != lo.size:
            raise ValidationError(f"nx must have {lo.size} entries")
        if np.any(hi <= lo):
            raise ValidationError("lo must be < hi per axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "nt", None if self.nt is None else _count(self.nt, "nt", 1))

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
    """Mode and tuning knobs for :func:`solve_terminal_value`.

    The lateral boundary is not among them: every solve holds the discounted
    payoff there.
    """

    mode: str = "limit_F"
    m: float | None = None
    eps_grad: float | None = None
    n_dirs: int | None = None
    cfl: float = 0.5

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


def _slice_stack(values, spec: GridSpec, name: str) -> Array:
    """``values`` as floats, refused unless shaped (nt + 1, *nx) for a spec with a fixed nt."""
    arr = np.asarray(values, dtype=float)
    if spec.nt is None or arr.shape != (spec.nt + 1, *spec.nx):
        raise ValidationError(f"{name} shape {arr.shape} does not fit (nt + 1, *nx) of a grid "
                              f"with nt={spec.nt}, nx={spec.nx}")
    return arr


@dataclass(frozen=True)
class PriceGrid:
    """A solved space-time surface; ``values[k]`` is the slice at t = k*dt."""

    spec: GridSpec
    dt: float
    values: Array

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _slice_stack(self.values, self.spec, "values"))

    @property
    def nt(self) -> int:
        return self.spec.nt

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def axes(self) -> tuple[Array, ...]:
        return self.spec.axes

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


def resolve_time_steps(spec: GridSpec, params: MarketParams, config: SolverConfig) -> int:
    """The grid's nt if given (checked against CFL), else the smallest valid nt."""
    dt_max = cfl_max_dt(spec, params, config.cfl)
    if spec.nt is None:
        return max(1, int(np.ceil(params.T / dt_max * (1.0 - 1e-12))))
    dt = params.T / spec.nt
    if dt > dt_max * (1.0 + 1e-12):
        raise PreconditionError(
            f"CFL violated: dt={dt:g} exceeds {dt_max:g} "
            f"(cfl={config.cfl}, min h={np.min(spec.h):g}, max sigma={np.max(params.sigma):g})"
        )
    return spec.nt


def _shift(n: int, axis: int, off: int, axis2: int | None = None, off2: int = 0):
    sl = []
    for a in range(n):
        o = off if a == axis else (off2 if a == axis2 else 0)
        stop = -1 + o
        sl.append(slice(1 + o, None if stop == 0 else stop))
    return tuple(sl)


class _Stencil:
    """Central differences on one grid shape, written into buffers it owns.

    Built once: the interior's neighbour slices, the divisors 2 h_i, h_i^2
    and 4 h_i h_j, the gradient buffer p (*interior, n), the Hessian buffer
    M (*interior, n, n), their (B, n) and (B, n, n) row views ``rows`` (the
    operator's inputs) and the views of their entries.  :meth:`fill` writes
    each entry term by term in the order of

        p_i  = (u[+i] - u[-i]) / (2 h_i)
        M_ii = (u[+i] - 2 u + u[-i]) / h_i^2
        M_ij = M_ji = (u[+i+j] - u[+i-j] - u[-i+j] + u[-i-j]) / (4 h_i h_j)

    so M is symmetric by construction and both are exact on quadratics, and
    returns the operator inputs (xi, p, M) of the interior nodes in node (C)
    order: the row views, which the next fill overwrites.
    """

    def __init__(self, h: Array, interior: tuple[int, ...]):
        n = h.size
        self.core = tuple(slice(1, -1) for _ in range(n))
        self.p = np.empty(interior + (n,))
        self.M = np.empty(interior + (n, n))
        self.rows = self.p.reshape(-1, n), self.M.reshape(-1, n, n)
        self.axes = [(_shift(n, i, +1), _shift(n, i, -1), 2.0 * h[i], h[i] ** 2,
                      self.p[..., i], self.M[..., i, i]) for i in range(n)]
        self.cross = [(_shift(n, i, +1, j, +1), _shift(n, i, +1, j, -1),
                       _shift(n, i, -1, j, +1), _shift(n, i, -1, j, -1), 4.0 * h[i] * h[j],
                       self.M[..., i, j], self.M[..., j, i])
                      for i in range(n) for j in range(i + 1, n)]

    def fill(self, u: Array) -> tuple[Array, Array, Array]:
        core = u[self.core]
        for up, dn, two_h, h_sq, p_i, m_ii in self.axes:
            u_up, u_dn = u[up], u[dn]
            np.subtract(u_up, u_dn, out=p_i)
            np.divide(p_i, two_h, out=p_i)
            np.multiply(core, 2.0, out=m_ii)
            np.subtract(u_up, m_ii, out=m_ii)
            np.add(m_ii, u_dn, out=m_ii)
            np.divide(m_ii, h_sq, out=m_ii)
        for pp, pm, mp, mm, four_hh, m_ij, m_ji in self.cross:
            np.subtract(u[pp], u[pm], out=m_ij)
            np.subtract(m_ij, u[mp], out=m_ij)
            np.add(m_ij, u[mm], out=m_ij)
            np.divide(m_ij, four_hh, out=m_ij)
            m_ji[...] = m_ij
        return (core.reshape(-1), *self.rows)


def interior_derivatives(u: Array, h: Array) -> tuple[Array, Array]:
    """Central-difference gradient and Hessian on all interior nodes.

    Returns p with shape (*interior, n) and M with shape (*interior, n, n),
    with the floats of :class:`_Stencil`, which the solver's step fills.
    """
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=float)
    if (u.ndim < 1 or min(u.shape) < 3 or h.shape != (u.ndim,)
            or not np.all(np.isfinite(h) & (h > 0))):
        raise ValidationError(f"u shape {u.shape} and h {h} do not fit: want at least 3 nodes "
                              f"per axis of u and one finite spacing h > 0 per axis")
    stencil = _Stencil(h, tuple(k - 2 for k in u.shape))
    stencil.fill(u)
    return stencil.p, stencil.M


def _operator(config: SolverConfig, params: MarketParams, p: Array, M: Array,
              dirs: isaacs.DirectionSet | None):
    """G(xi, p, M) of the configured mode on batches shaped like p and M.

    limit_F runs the kernel ``isaacs._Limit``, built and checked against
    those shapes once; the bounded modes call ``hm_values_batch`` on
    ``dirs``, the solve's one direction set (None for limit_F), whose
    direction search outweighs its checks.
    """
    eps = config.resolved_eps_grad(params)
    if config.mode == "limit_F":
        kernel = isaacs._Limit(params, eps)
        kernel.check(p, M)
        return kernel
    side = config.mode.removeprefix("bounded_")
    return lambda xi, p, M: -isaacs.hm_values_batch(xi, p, M, config.m, params, dirs, side)


def _lattice(payoff: Payoff, params: MarketParams, spec: GridSpec) -> Array:
    """The payoff on the grid's nodes, shaped nx: the terminal slice of both backward solvers."""
    if params.n != spec.n or payoff.n != spec.n:
        raise ValidationError("payoff, params and grid dimensions must agree")
    return np.asarray(payoff.values(spec.points()), dtype=float).reshape(spec.nx)


def _march(terminal: Array, nt: int, dt: float, step) -> Array:
    """The one backward loop: values[nt] = terminal, values[k - 1] = step(values[k], k * dt)."""
    values = np.empty((nt + 1, *terminal.shape))
    values[nt] = terminal
    for k in range(nt, 0, -1):
        values[k - 1] = step(values[k], k * dt)
    return values


class _Workspace:
    """The explicit step, prepared once per solve (see the module docstring);
    ``ws(values_next, t_next)`` steps back dt and returns a new slice."""

    def __init__(self, payoff: Payoff, params: MarketParams, config: SolverConfig,
                 spec: GridSpec, dt: float, dirs: isaacs.DirectionSet | None):
        if spec.n > 4:
            raise ValidationError("solver supports at most 4 spatial dimensions")
        n = spec.n
        self.terminal = _lattice(payoff, params, spec)
        self.params, self.dt = params, dt
        self.interior = tuple(k - 2 for k in spec.nx)
        self.stencil = _Stencil(spec.h, self.interior)
        self.core = self.stencil.core
        self.operator = _operator(config, params, *self.stencil.rows, dirs)
        self.cost_points = None
        if params.running_cost is not None:
            self.cost_points = spec.points().reshape(*spec.nx, n)[self.core].reshape(-1, n)

    def __call__(self, values_next: Array, t_next: float) -> Array:
        xi, p, M = self.stencil.fill(values_next)
        rhs = self.operator(xi, p, M)
        if self.cost_points is not None:
            rhs = rhs + self.params.running_cost(self.cost_points, t_next)
        t = t_next - self.dt
        disc = np.exp(-self.params.r * (self.params.T - t))
        out = np.multiply(self.terminal, disc)      # the boundary; the core is overwritten
        rhs *= self.dt
        np.add(xi.reshape(self.interior), rhs.reshape(self.interior), out=out[self.core])
        return out


def solve_terminal_value(payoff: Payoff, params: MarketParams, config: SolverConfig,
                         spec: GridSpec) -> PriceGrid:
    """March the configured operator backwards from the payoff at T."""
    nt = resolve_time_steps(spec, params, config)
    n = spec.n
    nodes = math.prod(spec.nx)
    inner = math.prod(k - 2 for k in spec.nx)
    dirs = None if config.mode == "limit_F" else isaacs.DirectionSet.for_dimension(
        n, config.n_dirs)
    scratch = 0 if dirs is None else isaacs._scratch_doubles(dirs, inner)
    doubles = (nt + 1 + n) * nodes + (2 * n * n + 3 * n + 8) * inner + scratch
    if doubles > _STACK_BUDGET:
        raise PreconditionError(
            f"the PDE needs {doubles:.3g} doubles ({nt + 1} value slices and {n} "
            f"coordinates of {nodes} nodes, {n + n * n} stencil entries and "
            f"{n * n + 2 * n + 8} step temporaries for each of {inner} interior nodes, "
            f"and {scratch} of operator scratch), over the budget of "
            f"{_STACK_BUDGET:.3g}; lower grid.nx")
    spec = replace(spec, nt=nt)
    dt = params.T / nt
    ws = _Workspace(payoff, params, config, spec, dt, dirs)
    values = _march(ws.terminal, nt, dt, ws)
    lo, hi = float(values.min()), float(values.max())  # NaN reaches both
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise PreconditionError("solver produced non-finite values (unstable configuration)")
    if params.running_cost is None:
        slack = 1e-6 * (1.0 + payoff.sup_bound)
        if lo < -slack or hi > payoff.sup_bound + slack:
            raise PreconditionError(
                f"solution left [0, sup g] by more than {slack:g}: range [{lo:g}, {hi:g}]")
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


def write_surface(path, grid: PriceGrid, config_digest: str | None = None) -> None:
    """The surface as an archive, or as CSV when ``path`` ends in ``.csv``.

    The archive holds ``u``, shaped (nt + 1, *nx), with ``u[k]`` at ``t[k]``;
    the CSV has the header t,x_1,...,x_n,u and runs from T down to 0.  See
    :func:`_write_slices`.
    """
    _write_slices(path, grid.spec, grid.dt, {"u": grid.values}, config_digest)


def _write_slices(path, spec: GridSpec, dt: float, stacks: dict[str, Array],
                  config_digest: str | None) -> None:
    """The one writer of value surfaces and tables; the format follows ``path``.

    ``stacks`` maps ``u`` (a surface) or ``u_minus`` / ``u_plus`` (value
    tables) to (nt + 1, *nx) arrays whose slice k lies at t = k dt.

    A path ending in ``.csv`` gets the optional ``# config_digest=`` line, the
    header ``t,x_1,...,x_n,u`` (plus ``,side`` for tables) and, for each
    stack, the slices k = nt..0 as rows ``t,x_1,...,x_n,u[,side]`` in node (C)
    order, with every number ``%.17g``.  Any other path gets an uncompressed
    ``np.savez`` archive at exactly that path, read back with ``np.load``:
    ``t`` (ascending), the axes ``x_1 .. x_n``, each stack under its own name
    and, when given, ``config_digest`` as a string array.
    """
    if not str(path).endswith(".csv"):
        arrays = {"t": np.arange(spec.nt + 1) * dt,
                  **{f"x_{i + 1}": ax for i, ax in enumerate(spec.axes)}, **stacks}
        if config_digest is not None:
            arrays["config_digest"] = np.array(config_digest)
        with open(path, "wb") as fh:  # a str path would gain a ".npz" suffix
            np.savez(fh, **arrays)
        return
    sides = ["" if name == "u" else "," + name.removeprefix("u_") for name in stacks]
    coords = ["".join([",%.17g" % v for v in p]) for p in spec.points().tolist()]

    def blocks():
        # each node's coordinates are formatted once per file into a row
        # template; a slice formats t once and is filled by one ``%``
        for side, values in zip(sides, stacks.values()):
            rows = [""] + [f"{c},%.17g{side}\n" for c in coords]
            for k in range(values.shape[0] - 1, -1, -1):
                yield ("%.17g" % (k * dt)).join(rows), values[k]

    columns = (["t"] + [f"x_{i + 1}" for i in range(spec.n)]
               + (["u", "side"] if any(sides) else ["u"]))
    _write_csv(path, columns, blocks(), config_digest)


def _write_csv(path, columns: list[str], blocks, config_digest: str | None) -> None:
    """The one CSV writer: the optional ``# config_digest=`` line, the header,
    then each ``(template, values)`` block as ``template % values``.

    A template holds one ``%.17g`` per value, so a block of rows is filled by
    one ``%`` and written as one string; the bytes are those of
    ``np.savetxt(fmt="%.17g")`` on the same rows.
    """
    with open(path, "w", newline="") as fh:
        if config_digest is not None:
            fh.write(f"# config_digest={config_digest}\n")
        fh.write(",".join(columns) + "\n")
        for template, values in blocks:
            fh.write(template % tuple(values.ravel().tolist()))


def read_surface_csv(path) -> tuple[Array, Array, Array]:
    """Inverse of :func:`write_surface` for a ``.csv`` path: (times, points,
    values) row-wise, in file order, so slices run from T down to 0.  Read an
    archive with ``np.load(path, allow_pickle=False)`` instead."""
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
    "solve_terminal_value", "barrier_pair", "interior_mask", "write_surface",
    "read_surface_csv", "MODES",
]
