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

The lattice search works on a Gram matrix, not on the table of phi over all
pairs of actions.  With Q = S M S, q_k = D_k' Q D_k, c_k = D_k . p and the
Gram matrix G = D Q D' of the K directions D_k,

    phi(plus D_i, minus D_j, d+, d-) = G_ij - q_i/2 - q_j/2
                                       - lam (c_i + c_j) + const,

where lam = d+ + d- takes only the values 0, m and 2m.  For each lam one
reduction over the inner player's directions of G shifted by q/2 + lam c
gives that player's best reply to every outer direction, and the outer
player's table follows from the three.  The split is symmetric in the two
players, and the inf-sup of phi is minus the sup-inf of -phi, so
``hm_minus`` runs the same search on negated pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GradientDegenerateError, ValidationError
from .market import _as_vector, _halton

Array = np.ndarray

UNIT_TOL = 1e-12
SYMMETRY_TOL = 1e-12
# cap on the elements of each scratch array of the lattice search, i.e. on
# the Gram entries (input, outer direction, inner direction) shifted at once:
# 2**17 doubles (1 MiB) stay in a core's L2 cache, and larger blocks ran
# slower (2-D kernel, K=724)
_CHUNK_ELEMS = 1 << 17


@dataclass(frozen=True)
class OperatorInput:
    """A point (xi, p, M): value, gradient and symmetrized Hessian."""

    xi: float
    p: Array
    M: Array

    def __post_init__(self) -> None:
        if not np.isfinite(self.xi):
            raise ValidationError("xi must be finite")
        p = _as_vector(self.p, "p")
        M = np.asarray(self.M, dtype=float)
        if M.shape != (p.size, p.size) or not np.all(np.isfinite(M)):
            raise ValidationError(f"M must be a finite {p.size}x{p.size} matrix")
        skew = float(np.max(np.abs(M - M.T), initial=0.0))
        if skew > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(M), initial=0.0))):
            raise ValidationError(f"M must be symmetric within {SYMMETRY_TOL}, skew={skew:g}")
        M = 0.5 * (M + M.T)
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
        theta = _as_vector(self.theta, "theta")
        if abs(np.linalg.norm(theta) - 1.0) > UNIT_TOL:
            raise ValidationError(f"theta must be a unit vector within {UNIT_TOL}")
        if not (np.isfinite(self.d) and self.d >= 0):
            raise ValidationError("d must be finite and >= 0")
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
            raise ValidationError("n_dirs must be >= 2")
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
            from scipy.special import ndtri  # here, so only n >= 4 fans load scipy
            d = ndtri(np.clip(_halton(n, count), 1e-12, 1.0 - 1e-12))
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
    tp = theta_plus.theta if isinstance(theta_plus, ControlPoint) else _as_vector(theta_plus, "theta_plus")
    tm = theta_minus.theta if isinstance(theta_minus, ControlPoint) else _as_vector(theta_minus, "theta_minus")
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


def _sign(side: str) -> float:
    """+1 for side 'plus' (sup-inf), -1 for 'minus': the inf-sup of phi is
    minus the sup-inf of -phi, so both sides run the sup-inf search."""
    if side == "plus":
        return 1.0
    if side == "minus":
        return -1.0
    raise ValidationError(f"side must be 'plus' or 'minus', got {side!r}")


def _phi_pieces(p: Array, M: Array, params, dirs: Array, sign: float):
    """The pieces of the G/q/c split of sign * phi (module docstring) on a
    batch of inputs: the augmented directions D (B,K,n), the Gram factor
    QD = Q D' (B,n,K) with G = D QD, q and c, the last three times ``sign``.
    """
    D = _augment(dirs, p)
    QD = np.einsum("bij,bkj->bik", sign * _sms(M, params.sigma), D)
    q = np.einsum("bki,bik->bk", D, QD)
    c = np.einsum("bki,bi->bk", D, sign * p)
    return D, QD, q, c


def _chunks(p: Array, M: Array, params, dirs: DirectionSet, sign: float):
    """Yield (rows, D, QD, q, c) over consecutive row slices of the batch,
    each with as many rows as fit their K x K Gram blocks in _CHUNK_ELEMS
    (at least one row; ``_outer_table`` splits a single larger block)."""
    B = p.shape[0]
    K = dirs.count + (0 if dirs.n == 1 else 2)
    chunk = max(1, _CHUNK_ELEMS // (K * K))
    for start in range(0, B, chunk):
        rows = slice(start, min(B, start + chunk))
        yield (rows, *_phi_pieces(p[rows], M[rows], params, dirs.dirs, sign))


def _outer_table(D: Array, QD: Array, q: Array, c: Array, m: float) -> Array:
    """What the outer (maximizing) player secures with each lattice action.

    Returns (B, K, 2): entry [b, k, j] is the min over the inner player's
    actions (direction l, intensity d) of phi - const against outer
    direction k at intensity j*m.  Only the sum lam = d + j*m in {0, m, 2m}
    enters phi, so three passes over the shifted Gram block

        G_kl - q_l/2 - lam c_l,   lam = 0, m, 2m (one subtraction apart)

    find the inner direction l for each (k, lam), and entry [k, j] is the
    smaller of the values at lam = j*m and lam = j*m + m.  The value at each
    found l is recomputed as (G_kl - q_l/2) - q_k/2 - lam (c_l + c_k), which
    is exactly 0 for l = k at lam = 0 and the same for every lam when
    c_l + c_k = 0, so such actions tie exactly, as in the scan of the direct
    formula.  The intensity search is exact: for fixed directions phi is
    affine in each d, so only d in {0, m} can attain the optimum.  Outer
    directions go in slices of at most _CHUNK_ELEMS Gram entries.
    """
    B, K = q.shape
    n = D.shape[2]
    lam = np.array([[0.0], [m], [2.0 * m]])
    hq = -0.5 * q
    Dx = np.concatenate([D, np.ones((B, K, 1))], axis=2)        # [D_k, 1]
    QDx = np.concatenate([QD, hq[:, None, :]], axis=1)          # [Q D_l; -q_l/2]
    QDt = QD.transpose(0, 2, 1).reshape(B * K, n)              # row b*K + l: Q D_l
    mc = m * c[:, None, :]
    base = K * np.arange(B)[:, None, None]
    out = np.empty((B, 2, K))
    step = max(1, _CHUNK_ELEMS // (B * K))
    scratch = np.empty((B, min(step, K), K))
    for start in range(0, K, step):
        ks = slice(start, min(K, start + step))
        shifted = np.matmul(Dx[:, ks], QDx, out=scratch[:, :ks.stop - start])
        reply = np.empty((B, 3, shifted.shape[1]), dtype=np.intp)
        for t in range(3):
            if t:
                shifted -= mc
            np.argmin(shifted, axis=2, out=reply[:, t])
        # matmul rounding varies with the block's shape, so the shifted block
        # only ranks; the values are recomputed, the same way for every shape
        at = reply + base
        val = (np.einsum("bki,btki->btk", D[:, ks], QDt.take(at, axis=0))
               + hq.take(at) + hq[:, None, ks] - lam * (c.take(at) + c[:, None, ks]))
        np.minimum(val[:, :2], val[:, 1:], out=out[:, :, ks])
    return out.transpose(0, 2, 1)


def _check_m(m: float) -> float:
    if not (np.isfinite(m) and m > 0):
        raise ValidationError("m must be finite and > 0")
    return float(m)


def hm_values_batch(xi: Array, p: Array, M: Array, m: float, params,
                    dirs: DirectionSet, side: str) -> Array:
    """Vectorized bounded operator over a batch of (xi, p, M) triples."""
    m = _check_m(m)
    sign = _sign(side)
    p = np.asarray(p, dtype=float)
    M = np.asarray(M, dtype=float)
    out = np.empty(p.shape[0])
    for rows, *pieces in _chunks(p, M, params, dirs, sign):
        out[rows] = sign * np.max(_outer_table(*pieces, m), axis=(1, 2))
    const = -0.5 * _trace_s2m(M, params.sigma) - p @ params.mu
    return out + const + params.r * np.asarray(xi, dtype=float)


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


def _reply(D: Array, QD: Array, q: Array, c: Array, k: Array, d: Array, m: float):
    """The inner player's best (direction index, intensity index) against
    outer direction k at intensity d: the first minimum, in the flattened
    (direction, intensity) scan, of phi - const rebuilt for that row as
    ``_outer_table`` recomputes its values."""
    rows = np.arange(k.size)
    a = np.einsum("bi,bil->bl", D[rows, k], QD) - 0.5 * q - 0.5 * q[rows, k][:, None]
    s = c + c[rows, k][:, None]
    inner = np.stack([a - d[:, None] * s, a - (d[:, None] + m) * s], axis=2)
    return np.divmod(np.argmin(inner.reshape(k.size, -1), axis=1), 2)


def greedy_controls_batch(xi: Array, p: Array, M: Array, m: float, params,
                          dirs: DirectionSet, side: str):
    """Optimal lattice actions for a batch of inputs.

    Returns (theta_plus, d_plus, theta_minus, d_minus) arrays.  Ties resolve to
    the earliest direction in the set ordering with d = 0 preferred, matching
    the scan order of the value search, so evaluating phi at the returned pair
    reproduces the corresponding hm value exactly.
    """
    m = _check_m(m)
    sign = _sign(side)
    p = np.asarray(p, dtype=float)
    B = p.shape[0]
    theta_p = np.empty((B, dirs.n))
    theta_m = np.empty((B, dirs.n))
    d_p = np.empty(B)
    d_m = np.empty(B)
    # side 'plus': the minus player commits first (outer) and the plus player
    # replies (inner); side 'minus' swaps the roles
    (th_out, d_out), (th_in, d_in) = (((theta_m, d_m), (theta_p, d_p)) if side == "plus"
                                      else ((theta_p, d_p), (theta_m, d_m)))
    for rows, D, QD, q, c in _chunks(p, np.asarray(M, dtype=float), params, dirs, sign):
        table = _outer_table(D, QD, q, c, m).reshape(q.shape[0], -1)
        ko, jo = np.divmod(np.argmax(table, axis=1), 2)
        ki, ji = _reply(D, QD, q, c, ko, m * jo, m)
        idx = np.arange(q.shape[0])
        th_out[rows] = D[idx, ko]
        th_in[rows] = D[idx, ki]
        d_out[rows] = m * jo
        d_in[rows] = m * ji
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
