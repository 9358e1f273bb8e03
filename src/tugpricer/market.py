"""Market parameters and terminal payoffs with certified bounds.

Prices enter in log coordinates: the state x holds log-prices, so a basket
struck at K pays ``max(K - sum_i w_i * exp(x_i), 0)``.  Every payoff carries a
declared sup bound and Lipschitz bound; :func:`certify_payoff` spot-checks the
declarations on a deterministic low-discrepancy sample and refuses payoffs
whose observed behaviour exceeds them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._interp import check_axes, multilinear
from .errors import CertificationError, ValidationError

Array = np.ndarray

WEIGHT_TOL = 1e-12


def _as_vector(value, name: str, length: int | None = None) -> Array:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D vector")
    if length is not None and v.size != length:
        raise ValidationError(f"{name} must have length {length}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} must be finite")
    v = v.copy()
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class RunningCost:
    """Running penalty h(x, t) certified to stay at or below ``-alpha < 0``.

    ``h`` must accept a batch of states with shape (B, n) and a time, and
    return values with shape (B,).  The declared bound is re-checked at every
    evaluation; sampled violations raise :class:`ValidationError`.
    """

    h: Callable[[Array, float], Array]
    alpha: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValidationError("alpha must be finite and > 0")

    def __call__(self, x: Array, t: float) -> Array:
        vals = np.asarray(self.h(np.asarray(x, dtype=float), float(t)), dtype=float)
        if np.any(vals > -self.alpha + 1e-12):
            bad = np.asarray(x, dtype=float).reshape(-1, 1) if np.ndim(x) == 1 else x
            idx = int(np.argmax(vals > -self.alpha + 1e-12))
            raise ValidationError(
                f"running cost exceeded its declared bound -alpha={-self.alpha} "
                f"at t={t}, x={np.asarray(bad)[idx]}"
            )
        return vals


def constant_running_cost(value: float, alpha: float | None = None) -> RunningCost:
    """Wrap a constant h(x, t) = value < 0; alpha defaults to ``-value``."""
    value = float(value)
    if value >= 0:
        raise ValidationError(f"value must be < 0, got {value!r}")
    cost = RunningCost(h=lambda x, t: np.full(np.shape(x)[0], value),
                       alpha=-value if alpha is None else alpha)
    if value > -cost.alpha:
        raise ValidationError(f"alpha must be <= -value = {-value!r}, got {cost.alpha!r}")
    return cost


@dataclass(frozen=True)
class MarketParams:
    """Drift, volatility, discount rate and horizon for n log-price factors."""

    mu: Array
    sigma: Array
    r: float
    T: float
    running_cost: RunningCost | None = None

    def __post_init__(self) -> None:
        mu = _as_vector(self.mu, "mu")
        sigma = _as_vector(self.sigma, "sigma", mu.size)
        if np.any(sigma <= 0):
            idx = int(np.argmax(sigma <= 0))
            raise ValidationError(f"sigma[{idx}] must be > 0")
        if not (np.isfinite(self.r) and self.r >= 0):
            raise ValidationError("r must be finite and >= 0")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValidationError("T must be finite and > 0")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "T", float(self.T))

    @property
    def n(self) -> int:
        return self.mu.size


class Payoff:
    """Terminal reward g(x) on log-prices with certified bounds.

    Subclasses set ``kind``, ``n``, ``sup_bound`` and ``lipschitz_bound`` and
    implement :meth:`values` for batches of shape (B, n).
    """

    kind: str
    n: int
    sup_bound: float
    lipschitz_bound: float

    def values(self, x: Array) -> Array:
        raise NotImplementedError

    def __call__(self, x) -> Array | float:
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 1:
            if arr.size != self.n:
                raise ValidationError(f"payoff expects {self.n} coordinates, got {arr.size}")
            return float(self.values(arr[None, :])[0])
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ValidationError(f"payoff expects points of shape (B, {self.n})")
        return self.values(arr)

    def center(self) -> Array:
        """A natural anchor point for grid placement."""
        return np.zeros(self.n)

    def _check_bounds(self) -> None:
        if not (np.isfinite(self.sup_bound) and self.sup_bound >= 0):
            raise ValidationError("sup_bound must be finite and >= 0")
        if not (np.isfinite(self.lipschitz_bound) and self.lipschitz_bound >= 0):
            raise ValidationError("lipschitz_bound must be finite and >= 0")


def payoff_basket_put(x, weights, strike: float):
    """Put on a weighted basket of exponentials: max(strike - sum w*exp(x), 0)."""
    w = np.asarray(weights, dtype=float)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 1
    if scalar:
        arr = arr[None, :]
    if arr.shape[-1] != w.size:
        raise ValidationError(
            f"basket put expects {w.size} coordinates per point, got {arr.shape[-1]}"
        )
    vals = np.maximum(strike - np.exp(arr) @ w, 0.0)
    return float(vals[0]) if scalar else vals


@dataclass(frozen=True)
class BasketPut(Payoff):
    """``max(K - sum_i w_i exp(x_i), 0)`` with weights on the unit simplex."""

    weights: Array
    strike: float
    lipschitz_bound: float = None  # type: ignore[assignment]
    sup_bound: float = None  # type: ignore[assignment]

    kind = "basket_put"

    def __post_init__(self) -> None:
        w = _as_vector(self.weights, "weights")
        if np.any(w < 0):
            idx = int(np.argmax(w < 0))
            raise ValidationError(f"weights[{idx}] must be >= 0")
        if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            raise ValidationError(
                f"weights must sum to 1 within {WEIGHT_TOL}, got {float(w.sum())!r}")
        if not (np.isfinite(self.strike) and self.strike > 0):
            raise ValidationError("strike must be finite and > 0")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "strike", float(self.strike))
        # the gradient magnitude and the value itself are both capped by the strike
        if self.lipschitz_bound is None:
            object.__setattr__(self, "lipschitz_bound", float(self.strike))
        if self.sup_bound is None:
            object.__setattr__(self, "sup_bound", float(self.strike))
        self._check_bounds()

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.weights.size

    def values(self, x: Array) -> Array:
        return np.maximum(self.strike - np.exp(x) @ self.weights, 0.0)

    def center(self) -> Array:
        return np.full(self.n, np.log(self.strike))


@dataclass(frozen=True)
class TabulatedPayoff(Payoff):
    """Multilinear interpolation of a tabulated payoff, flat outside the table."""

    axes: tuple[Array, ...]
    table: Array
    lipschitz_bound: float = None  # type: ignore[assignment]
    sup_bound: float = None  # type: ignore[assignment]

    kind = "tabulated"

    def __post_init__(self) -> None:
        axes = tuple(_as_vector(ax, f"axes[{i}]") for i, ax in enumerate(self.axes))
        check_axes(axes)
        table = np.asarray(self.table, dtype=float)
        expect = tuple(ax.size for ax in axes)
        if table.shape != expect:
            raise ValidationError(f"table shape {table.shape} does not match axes {expect}")
        if not np.all(np.isfinite(table)):
            raise ValidationError("table values must be finite")
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "table", table)
        if self.sup_bound is None:
            object.__setattr__(self, "sup_bound", float(np.max(np.abs(table))))
        if self.lipschitz_bound is None:
            object.__setattr__(self, "lipschitz_bound", self._default_lipschitz())
        self._check_bounds()

    def _default_lipschitz(self) -> float:
        # per-axis worst slope; multilinear pieces cannot exceed the
        # Euclidean combination of the axis slopes
        sq = 0.0
        for i, ax in enumerate(self.axes):
            diffs = np.abs(np.diff(self.table, axis=i))
            widths = np.diff(ax).reshape([-1 if j == i else 1 for j in range(len(self.axes))])
            sq += float(np.max(diffs / widths, initial=0.0)) ** 2
        return float(np.sqrt(sq))

    @property
    def n(self) -> int:  # type: ignore[override]
        return len(self.axes)

    def values(self, x: Array) -> Array:
        return multilinear(self.axes, self.table, x)

    def center(self) -> Array:
        return np.array([0.5 * (ax[0] + ax[-1]) for ax in self.axes])


def constant_payoff(value: float, n: int) -> TabulatedPayoff:
    """A payoff that is identically ``value`` >= 0 (flat table, flat extrapolation)."""
    if value < 0:
        raise ValidationError(f"value must be >= 0, got {value!r}")
    axes = tuple(np.array([0.0, 1.0]) for _ in range(n))
    table = np.full((2,) * n, float(value))
    return TabulatedPayoff(axes=axes, table=table, lipschitz_bound=0.0,
                           sup_bound=abs(float(value)))


def read_payoff_table(path) -> tuple[tuple[Array, ...], Array]:
    """Read a payoff table CSV with header ``x_1,...,x_n,g``.

    Rows must enumerate a full rectangular grid in lexicographic order with
    the first coordinate varying slowest.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValidationError(f"{path}: empty payoff table")
    header = rows[0]
    n = len(header) - 1
    if n < 1 or header != [f"x_{i + 1}" for i in range(n)] + ["g"]:
        raise ValidationError(f"{path}: header must be x_1,...,x_n,g, got {header}")
    try:
        data = np.array([[float(c) for c in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric cell ({exc})") from exc
    if data.ndim != 2 or data.shape[1] != n + 1:
        raise ValidationError(f"{path}: rows must have {n + 1} columns")
    axes = tuple(np.unique(data[:, i]) for i in range(n))
    shape = tuple(ax.size for ax in axes)
    if int(np.prod(shape)) != data.shape[0]:
        raise ValidationError(f"{path}: rows do not form a full {shape} grid")
    grids = np.meshgrid(*axes, indexing="ij")
    expected = np.column_stack([g.reshape(-1) for g in grids])
    if not np.array_equal(expected, data[:, :n]):
        raise ValidationError(f"{path}: rows must be in lexicographic grid order")
    return axes, data[:, n].reshape(shape)


def write_payoff_table(path, axes: Sequence[Array], table: Array) -> None:
    axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
    n = len(axes)
    grids = np.meshgrid(*axes, indexing="ij")
    flat = np.asarray(table, dtype=float).reshape(-1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{i + 1}" for i in range(n)] + ["g"])
        for k in range(flat.size):
            writer.writerow([f"{g.reshape(-1)[k]:.17g}" for g in grids] + [f"{flat[k]:.17g}"])


def tabulated_payoff_from_csv(path, lipschitz_bound: float | None = None,
                              sup_bound: float | None = None) -> TabulatedPayoff:
    axes, table = read_payoff_table(path)
    return TabulatedPayoff(axes=axes, table=table, lipschitz_bound=lipschitz_bound,
                           sup_bound=sup_bound)


def _halton(d: int, count: int) -> Array:
    """The first ``count`` points of the unscrambled d-dimensional Halton sequence.

    Axis j holds the radical inverses of 0, 1, ..., count - 1 in the j-th
    prime base, summed least significant digit first as
    ``scipy.stats.qmc.Halton(d, scramble=False).random(count)`` sums them, so
    the two agree bit for bit.
    """
    bases: list[int] = []
    p = 2
    while len(bases) < d:
        if all(p % b for b in bases):
            bases.append(p)
        p += 1
    out = np.zeros((count, d))
    for j, base in enumerate(bases):
        q = np.arange(count)
        b2r = 1.0 / base
        while q.any():
            out[:, j] += (q % base) * b2r
            b2r /= base
            q //= base
    return out


@dataclass(frozen=True)
class PayoffCertificate:
    observed_sup: float
    observed_lipschitz: float


def certify_payoff(payoff: Payoff, region: tuple, samples: int) -> PayoffCertificate:
    """Spot-check the declared payoff bounds over a box region.

    Draws a deterministic Halton sample, records the largest magnitude and the
    steepest finite-difference quotient (per axis and along the estimated
    gradient direction), and raises :class:`CertificationError` naming witness
    points whenever an observation exceeds the declared bound.
    """
    lo = _as_vector(region[0], "region lo", payoff.n)
    hi = _as_vector(region[1], "region hi", payoff.n)
    if np.any(hi <= lo):
        raise ValidationError("certification region must satisfy lo < hi per axis")
    if samples < 2:
        raise ValidationError("samples must be >= 2")

    n = payoff.n
    unit = _halton(n, samples)
    pts = lo + unit * (hi - lo)
    delta = 1e-5 * float(np.min(hi - lo))

    g0 = payoff.values(pts)
    observed_sup = float(np.max(np.abs(g0)))
    sup_witness = pts[int(np.argmax(np.abs(g0)))]

    # one-sided probes, flipped inward near the upper faces
    slopes = np.zeros((samples, n))
    for i in range(n):
        sign = np.where(pts[:, i] + delta <= hi[i], 1.0, -1.0)
        probe = pts.copy()
        probe[:, i] += sign * delta
        slopes[:, i] = (payoff.values(probe) - g0) * sign / delta
    quot = np.abs(slopes).max(axis=1)

    norms = np.linalg.norm(slopes, axis=1)
    mask = norms > 0
    if np.any(mask):
        dirs = slopes[mask] / norms[mask, None]
        probe = np.clip(pts[mask] + delta * dirs, lo, hi)
        dist = np.linalg.norm(probe - pts[mask], axis=1)
        ok = dist > 1e-3 * delta
        if np.any(ok):
            dq = np.abs(payoff.values(probe[ok]) - g0[mask][ok]) / dist[ok]
            sub = quot[mask]
            sub[ok] = np.maximum(sub[ok], dq)
            quot[mask] = sub
    observed_lipschitz = float(np.max(quot))
    lip_witness = pts[int(np.argmax(quot))]

    slack = 1e-9 * (1.0 + abs(payoff.sup_bound) + abs(payoff.lipschitz_bound))
    if observed_sup > payoff.sup_bound + slack:
        raise CertificationError(
            f"observed |g| = {observed_sup:.12g} exceeds declared sup bound "
            f"{payoff.sup_bound:.12g} at x = {sup_witness}"
        )
    if observed_lipschitz > payoff.lipschitz_bound + slack:
        raise CertificationError(
            f"observed difference quotient {observed_lipschitz:.12g} exceeds declared "
            f"Lipschitz bound {payoff.lipschitz_bound:.12g} near x = {lip_witness}"
        )
    return PayoffCertificate(observed_sup=observed_sup, observed_lipschitz=observed_lipschitz)
