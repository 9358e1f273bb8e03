"""Pointwise Bellman-Isaacs operators for the two-player pricing game.

Both players steer the log-price diffusion: each picks a unit direction theta
and an intensity d in [0, m].  The joint running term is

    phi = -1/2 (th+ - th-)' S M S (th+ - th-) - 1/2 trace(S^2 M)
          - (d+ + d-) (th+ + th-) . p - mu . p,          S = diag(sigma).

``hm_plus`` takes sup over the minus controls of inf over the plus controls
(``hm_minus`` the reverse order) and adds the discount term r*xi.  Because phi
is affine in each intensity separately, restricting d to {0, m} is exact, and
the direction search runs over a finite set augmented with +-p/|p|.  As m
grows both operators approach ``-f_limit``, the gradient-weighted limit
operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm, qmc

from .errors import GradientDegenerateError, ValidationError

Array = np.ndarray

UNIT_TOL = 1e-12
SYMMETRY_TOL = 1e-12
# cap on the number of scratch elements per reduction chunk
_CHUNK_ELEMS = 4_000_000


def _vector(value, name: str) -> Array:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.ndim != 1 or not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} must be a finite 1-D vector")
    return v


@dataclass(frozen=True)
class OperatorInput:
    """A point (xi, p, M): value, gradient and symmetrized Hessian."""

    xi: float
    p: Array
    M: Array

    def __post_init__(self) -> None:
        if not np.isfinite(self.xi):
            raise ValidationError("xi must be finite")
        p = _vector(self.p, "p")
        M = np.asarray(self.M, dtype=float)
        if M.shape != (p.size, p.size) or not np.all(np.isfinite(M)):
            raise ValidationError(f"M must be a finite {p.size}x{p.size} matrix")
        skew = float(np.max(np.abs(M - M.T), initial=0.0))
        if skew > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(M), initial=0.0))):
            raise ValidationError(f"M must be symmetric within {SYMMETRY_TOL}, skew={skew:g}")
        M = 0.5 * (M + M.T)
        p = p.copy()
        p.flags.writeable = False
        M.flags.writeable = False
        object.__setattr__(self, "xi", float(self.xi))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "M", M)

    @property
    def n(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class ControlPoint:
    """A single action: unit direction theta and intensity d >= 0."""

    theta: Array
    d: float

    def __post_init__(self) -> None:
        theta = _vector(self.theta, "theta")
        if abs(np.linalg.norm(theta) - 1.0) > UNIT_TOL:
            raise ValidationError(f"theta must be a unit vector within {UNIT_TOL}")
        if not (np.isfinite(self.d) and self.d >= 0):
            raise ValidationError("d must be finite and >= 0")
        theta = theta.copy()
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "d", float(self.d))


@dataclass(frozen=True)
class DirectionSet:
    """An ordered finite family of unit directions used by the searches."""

    dirs: Array

    def __post_init__(self) -> None:
        d = np.asarray(self.dirs, dtype=float)
        if d.ndim != 2 or d.shape[0] < 2 or not np.all(np.isfinite(d)):
            raise ValidationError("dirs must be a finite (count, n) array with count >= 2")
        norms = np.linalg.norm(d, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_TOL):
            raise ValidationError(f"all directions must be unit vectors within {UNIT_TOL}")
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "dirs", d)

    @property
    def count(self) -> int:
        return self.dirs.shape[0]

    @property
    def n(self) -> int:
        return self.dirs.shape[1]

    @classmethod
    def for_dimension(cls, n: int, count: int | None = None) -> "DirectionSet":
        """Build the default search set: exact {-1,+1} in 1-D, equally spaced
        angles in 2-D, a Fibonacci sphere in 3-D and a deterministic
        low-discrepancy sphere sample beyond."""
        if n < 1:
            raise ValidationError("dimension must be >= 1")
        if n == 1:
            # the 0-sphere is finite; any requested count is ignored
            return cls(np.array([[-1.0], [1.0]]))
        if count is None:
            count = 720 if n == 2 else 2048
        if count < 2:
            raise ValidationError("direction count must be >= 2")
        if n == 2:
            ang = 2.0 * np.pi * np.arange(count) / count
            d = np.column_stack([np.cos(ang), np.sin(ang)])
        elif n == 3:
            i = np.arange(count)
            z = 1.0 - (2.0 * i + 1.0) / count
            rad = np.sqrt(np.maximum(1.0 - z * z, 0.0))
            ang = np.pi * (3.0 - np.sqrt(5.0)) * i
            d = np.column_stack([rad * np.cos(ang), rad * np.sin(ang), z])
        else:
            u = qmc.Halton(d=n, scramble=False).random(count)
            d = norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return cls(d)


def _sms(M: Array, sigma: Array) -> Array:
    """S M S with S = diag(sigma); works on (n, n) or batched (B, n, n)."""
    return M * sigma[..., :, None] * sigma[..., None, :]


def _trace_s2m(M: Array, sigma: Array) -> Array:
    return np.sum(np.diagonal(M, axis1=-2, axis2=-1) * sigma**2, axis=-1)


def phi(theta_plus: ControlPoint | Array, theta_minus: ControlPoint | Array,
        d_plus: float, d_minus: float, inp: OperatorInput, params) -> float:
    """Joint running term of the game for one pair of actions."""
    tp = theta_plus.theta if isinstance(theta_plus, ControlPoint) else _vector(theta_plus, "theta_plus")
    tm = theta_minus.theta if isinstance(theta_minus, ControlPoint) else _vector(theta_minus, "theta_minus")
    for name, th in (("theta_plus", tp), ("theta_minus", tm)):
        if th.size != inp.n:
            raise ValidationError(f"{name} must have length {inp.n}")
        if abs(np.linalg.norm(th) - 1.0) > UNIT_TOL:
            raise ValidationError(f"{name} must be a unit vector within {UNIT_TOL}")
    for name, d in (("d_plus", d_plus), ("d_minus", d_minus)):
        if not (np.isfinite(d) and d >= 0):
            raise ValidationError(f"{name} must be finite and >= 0")
    sms = _sms(inp.M, params.sigma)
    diff = tp - tm
    quad = -0.5 * float(diff @ sms @ diff)
    trace = -0.5 * float(_trace_s2m(inp.M, params.sigma))
    drift = -(float(d_plus) + float(d_minus)) * float((tp + tm) @ inp.p)
    return quad + trace + drift - float(params.mu @ inp.p)


def _augment(dirs: Array, p: Array) -> Array:
    """Per-row direction sets: the base fan plus +-p/|p| (n >= 2 only)."""
    B, n = p.shape
    K0 = dirs.shape[0]
    if n == 1:
        return np.broadcast_to(dirs, (B, K0, 1))
    out = np.empty((B, K0 + 2, n))
    out[:, :K0, :] = dirs
    norms = np.linalg.norm(p, axis=1)
    unit = np.where(norms[:, None] > 0, p / np.where(norms[:, None] > 0, norms[:, None], 1.0),
                    dirs[0])
    out[:, K0, :] = unit
    out[:, K0 + 1, :] = -unit
    return out


def _phi_pieces(p: Array, M: Array, params, dirs: Array):
    """Shared tensors for the lattice search on a batch of inputs.

    Returns D (B,K,n), A (B,K,K) with A[b,i,j] = -1/2 (D_i - D_j)' SMS (D_i - D_j),
    c (B,K) with c[b,k] = D_k . p_b, and the control-free constant term.
    """
    D = _augment(dirs, p)
    sms = _sms(M, params.sigma)
    q = np.einsum("bki,bij,bkj->bk", D, sms, D)
    G = np.einsum("bki,bij,blj->bkl", D, sms, D)
    A = -0.5 * (q[:, :, None] - 2.0 * G + q[:, None, :])
    c = np.einsum("bki,bi->bk", D, p)
    const = -0.5 * _trace_s2m(M, params.sigma) - p @ params.mu
    return D, A, c, const


def _chunks(p: Array, M: Array, params, dirs: DirectionSet):
    """Yield (rows, D, A, c, const) over consecutive row slices of the batch,
    each small enough that its (B, K, K) scratch stays near _CHUNK_ELEMS."""
    p = np.asarray(p, dtype=float)
    M = np.asarray(M, dtype=float)
    B = p.shape[0]
    K = dirs.count + (0 if dirs.n == 1 else 2)
    chunk = max(1, _CHUNK_ELEMS // max(1, K * K))
    for start in range(0, B, chunk):
        rows = slice(start, min(B, start + chunk))
        yield (rows, *_phi_pieces(p[rows], M[rows], params, dirs.dirs))


def _outer_table(A: Array, c: Array, m: float, side: str) -> Array:
    """What the outer player secures with each of its lattice actions.

    Returns (B, K, 2): entry [b, k, j] is the inner player's best reply value
    against direction k and intensity j*m.  The outer player is the minus
    player for side='plus' (sup-inf) and the plus player for side='minus'
    (inf-sup).  The intensity search is exact: for fixed directions the
    objective is affine in each d, so only d in {0, m} can attain the optimum.
    """
    s = c[:, :, None] + c[:, None, :]  # s[b, k_plus, k_minus]
    if side == "plus":
        core = A - m * np.maximum(s, 0.0)       # optimal d_plus response
        return np.stack([np.min(core, axis=1), np.min(core - m * s, axis=1)], axis=2)
    if side == "minus":
        core = A - m * np.minimum(s, 0.0)       # optimal d_minus response
        return np.stack([np.max(core, axis=2), np.max(core - m * s, axis=2)], axis=2)
    raise ValidationError(f"side must be 'plus' or 'minus', got {side!r}")


def _check_m(m: float) -> float:
    if not (np.isfinite(m) and m > 0):
        raise ValidationError("m must be finite and > 0")
    return float(m)


def hm_values_batch(xi: Array, p: Array, M: Array, m: float, params,
                    dirs: DirectionSet, side: str) -> Array:
    """Vectorized bounded operator over a batch of (xi, p, M) triples."""
    m = _check_m(m)
    best = np.max if side == "plus" else np.min
    out = np.empty(np.shape(p)[0])
    for rows, _, A, c, const in _chunks(p, M, params, dirs):
        out[rows] = best(_outer_table(A, c, m, side), axis=(1, 2)) + const
    return out + params.r * np.asarray(xi, dtype=float)


def _hm_single(inp: OperatorInput, m: float, params, dirs: DirectionSet, side: str) -> float:
    if dirs.n != inp.n or params.n != inp.n:
        raise ValidationError("dimension mismatch between input, params and directions")
    val = hm_values_batch(np.array([inp.xi]), inp.p[None, :], inp.M[None, :, :],
                          m, params, dirs, side)
    return float(val[0])


def hm_plus(inp: OperatorInput, m: float, params, dirs: DirectionSet) -> float:
    """sup over minus controls of inf over plus controls of phi, plus r*xi."""
    return _hm_single(inp, m, params, dirs, "plus")


def hm_minus(inp: OperatorInput, m: float, params, dirs: DirectionSet) -> float:
    """inf over plus controls of sup over minus controls of phi, plus r*xi."""
    return _hm_single(inp, m, params, dirs, "minus")


def _reply(a: Array, s: Array, d: Array, m: float, pick):
    """The inner player's best (direction index, intensity index) against a
    committed outer action: ``a`` and ``s`` hold that action's slice of A and
    of s, and ``d`` its intensity."""
    inner = np.stack([a - d[:, None] * s, a - (d[:, None] + m) * s], axis=2)
    return np.divmod(pick(inner.reshape(a.shape[0], -1), axis=1), 2)


def greedy_controls_batch(xi: Array, p: Array, M: Array, m: float, params,
                          dirs: DirectionSet, side: str):
    """Optimal lattice actions for a batch of inputs.

    Returns (theta_plus, d_plus, theta_minus, d_minus) arrays.  Ties resolve to
    the earliest direction in the set ordering with d = 0 preferred, matching
    the scan order of the value search, so evaluating phi at the returned pair
    reproduces the corresponding hm value exactly.
    """
    m = _check_m(m)
    B = np.shape(p)[0]
    theta_p = np.empty((B, dirs.n))
    theta_m = np.empty((B, dirs.n))
    d_p = np.empty(B)
    d_m = np.empty(B)
    for rows, D, A, c, _ in _chunks(p, M, params, dirs):
        table = _outer_table(A, c, m, side).reshape(A.shape[0], -1)
        idx = np.arange(A.shape[0])
        if side == "plus":
            # outer: sup over (theta_minus, d_minus); inner: inf over (theta_plus, d_plus)
            km, jm = np.divmod(np.argmax(table, axis=1), 2)
            a_col = np.take_along_axis(A, km[:, None, None], axis=2)[:, :, 0]
            kp, jp = _reply(a_col, c + c[idx, km][:, None], m * jm, m, np.argmin)
        else:
            # outer: inf over (theta_plus, d_plus); inner: sup over (theta_minus, d_minus)
            kp, jp = np.divmod(np.argmin(table, axis=1), 2)
            a_row = np.take_along_axis(A, kp[:, None, None], axis=1)[:, 0, :]
            km, jm = _reply(a_row, c[idx, kp][:, None] + c, m * jp, m, np.argmax)
        theta_p[rows] = D[idx, kp]
        theta_m[rows] = D[idx, km]
        d_p[rows] = m * jp
        d_m[rows] = m * jm
    return theta_p, d_p, theta_m, d_m


def greedy_controls(inp: OperatorInput, m: float, params, dirs: DirectionSet,
                    side: str) -> tuple[ControlPoint, ControlPoint]:
    """Optimal (maximizer action, minimizer action) for one input."""
    if dirs.n != inp.n or params.n != inp.n:
        raise ValidationError("dimension mismatch between input, params and directions")
    tp, dp, tm, dm = greedy_controls_batch(np.array([inp.xi]), inp.p[None, :],
                                           inp.M[None, :, :], m, params, dirs, side)
    return ControlPoint(theta=tp[0], d=float(dp[0])), ControlPoint(theta=tm[0], d=float(dm[0]))


def f_limit(inp: OperatorInput, params) -> float:
    """Gradient-weighted limit operator; requires a nonvanishing gradient."""
    norm_sq = float(inp.p @ inp.p)
    if norm_sq == 0.0:
        raise GradientDegenerateError(
            "f_limit is undefined at p = 0; use f_envelopes for the semicontinuous values"
        )
    sms = _sms(inp.M, params.sigma)
    lead = 2.0 * float(inp.p @ sms @ inp.p) / norm_sq
    return (lead + 0.5 * float(_trace_s2m(inp.M, params.sigma))
            + float(params.mu @ inp.p) - params.r * inp.xi)


def f_envelopes(inp: OperatorInput, params) -> tuple[float, float]:
    """(lower, upper) semicontinuous envelopes of the limit operator.

    Both collapse to f_limit away from p = 0; at p = 0 the leading term ranges
    over [2 lambda_min, 2 lambda_max] of S M S.
    """
    if float(inp.p @ inp.p) > 0.0:
        val = f_limit(inp, params)
        return val, val
    eig = np.linalg.eigvalsh(_sms(inp.M, params.sigma))
    rest = 0.5 * float(_trace_s2m(inp.M, params.sigma)) - params.r * inp.xi
    return 2.0 * float(eig[0]) + rest, 2.0 * float(eig[-1]) + rest


def f_mean_eigenvalue(inp: OperatorInput, params) -> float:
    """Degenerate-gradient surrogate: replaces the directional weight by the
    eigenvalue average (2/n) trace(S M S), which lies between the envelopes."""
    n = inp.n
    sms = _sms(inp.M, params.sigma)
    lead = (2.0 / n) * float(np.trace(sms))
    return (lead + 0.5 * float(_trace_s2m(inp.M, params.sigma))
            + float(params.mu @ inp.p) - params.r * inp.xi)
