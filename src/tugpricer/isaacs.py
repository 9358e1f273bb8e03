"""Batched Bellman-Isaacs operators for the two-player pricing game.

Both players steer the log-price diffusion: each picks a unit direction theta
and an intensity d in [0, m].  The joint running term is

    phi = -1/2 (th+ - th-)' S M S (th+ - th-) - 1/2 trace(S^2 M)
          - (d+ + d-) (th+ + th-) . p - mu . p,          S = diag(sigma).

``hm_values_batch`` on side 'plus' takes sup over the minus controls of inf
over the plus controls (side 'minus' the reverse order) and adds the discount
term r*xi.  Because phi is affine in each intensity separately, restricting d
to {0, m} is exact, and the direction search runs over a finite set augmented
with +-p/|p|.  As m grows both sides approach minus ``limit_values_batch``,
the gradient-weighted limit operator.

The lattice search works on a Gram matrix, not on the table of phi over all
pairs of actions.  With Q = S M S, q_k = D_k' Q D_k, c_k = D_k . p and the
Gram matrix G = D Q D' of the K directions D_k,

    phi(plus D_i, minus D_j, d+, d-) = G_ij - q_i/2 - q_j/2
                                       - lam (c_i + c_j) + const,

where lam = d+ + d- takes only the values 0, m and 2m.  For each lam one
reduction over the inner player's directions of G shifted by q/2 + lam c
gives that player's best reply to every outer direction, and the outer
player's table follows from the three.  The split is symmetric in the two
players, and the inf-sup of phi is minus the sup-inf of -phi, so side
'minus' runs the same search on negated pieces.

In 1-D the default directions, ``DirectionSet.for_dimension(1)``, are
exactly [-1, +1], each player's lattice is {-1, +1} x {0, m}, and each
outer action meets one of two replies: the same direction, worth
-lam (c_k + c_k), or the opposed one, worth -2 q at every lam.  For that
set ``_pair_table`` builds the outer table and the inner reply in closed
form from (B,) vectors, with the lattice's own floats, ranking and tie
rules, so values and greedy controls are the lattice's bit for bit on
finite inputs.  The choice rests on the direction set alone: any other 1-D
set (reversed, or with duplicates) and every n >= 2 search the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .errors import ValidationError
from .market import _halton

Array = np.ndarray

UNIT_TOL = 1e-12
# cap on the elements of each scratch array of the lattice search, i.e. on
# the Gram entries (input, outer direction, inner direction) shifted at once:
# 2**17 doubles (1 MiB) stay in a core's L2 cache, and larger blocks ran
# slower (2-D kernel, K=724)
_CHUNK_ELEMS = 1 << 17
# the exact 1-D direction pair, which takes the closed form of _pair_table
_PAIR = np.array([[-1.0], [1.0]])
# the most directions a fan may have: 32 times the largest default (2048).
# One input of the lattice search compares K^2 direction pairs, an estimated
# 12 s at this K in 2-D (the default K = 722 takes 1.5 ms), so a larger fan
# is no usable run; the cap refuses it before any direction array (at this K
# at most 2 MiB, at n = 4) is allocated.
MAX_DIRS = 1 << 16


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
        if count > MAX_DIRS:
            raise ValidationError(f"n_dirs must be <= {MAX_DIRS}, got {count}")
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


def _row_sum(terms: list[Array]) -> Array:
    """Row sums of the columns ``terms``, with np.sum's floats up to the sign
    of a zero.

    np.sum adds fewer than 8 columns to 0.0 from left to right; this adds
    them left to right without the 0.0, one ufunc call per column (none for
    one), far cheaper.  The sums are equal, except that a row of -0.0 sums
    to -0.0 here and to +0.0 in np.sum: 0.0 + this is np.sum exactly.  From
    8 columns np.sum adds in blocks, and this calls it.
    """
    if len(terms) < 8:
        return reduce(np.add, terms)
    return np.add.reduce(np.stack(terms, axis=1), axis=1)


def _trace_s2m(M: Array, sigma_sq) -> Array:
    """trace(S^2 M) per row of a (B, n, n) batch, from the n values of
    sigma**2, summed by :func:`_row_sum` (add 0.0 for np.sum's floats)."""
    return _row_sum([M[:, i, i] * s for i, s in enumerate(sigma_sq)])


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


def _is_pair(dirs: DirectionSet) -> bool:
    """Whether dirs is exactly [[-1], [1]], the set of DirectionSet.for_dimension(1)."""
    d = dirs.dirs
    return d.shape == (2, 1) and d[0, 0] == -1.0 and d[1, 0] == 1.0


def _chunks(p: Array, M: Array, params, dirs: DirectionSet, sign: float, m: float):
    """Yield (rows, D, table, reply) over consecutive row slices of the batch:
    the rows' direction table D (B,K,n), their outer table (``_outer_table``)
    and ``reply(ko, jo)``, the inner player's best (direction index, intensity
    index) against outer direction ko at intensity jo*m.  Each slice has as
    many rows as fit their K x K Gram blocks in _CHUNK_ELEMS (at least one
    row; ``_outer_table`` splits a single larger block).  The exact 1-D pair
    [-1, +1] takes the closed form ``_pair_table`` instead of the lattice."""
    B = p.shape[0]
    pair = _is_pair(dirs)
    K = dirs.count + (0 if dirs.n == 1 else 2)
    chunk = max(1, _CHUNK_ELEMS // (K * K))
    for start in range(0, B, chunk):
        rows = slice(start, min(B, start + chunk))
        if pair:
            yield (rows, *_pair_table(p[rows, 0], M[rows, 0, 0], params.sigma[0], sign, m))
        else:
            pieces = _phi_pieces(p[rows], M[rows], params, dirs.dirs, sign)
            yield rows, pieces[0], _outer_table(*pieces, m), partial(_reply, *pieces, m=m)


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


def _check_batch(p: Array, M: Array, params, dirs: DirectionSet | None = None) -> None:
    """Refuse a batch unless p is (B, n) and M (B, n, n), with n the market's
    (and the directions') dimension; reads shapes only, copies nothing."""
    n = params.n
    if (np.ndim(p) != 2 or np.shape(p)[1] != n or np.shape(M) != (np.shape(p)[0], n, n)
            or (dirs is not None and dirs.n != n)):
        where = "" if dirs is None else f", directions of dimension {dirs.n}"
        raise ValidationError(
            f"operator batch shapes p {np.shape(p)} and M {np.shape(M)}{where} do not "
            f"match a market of dimension {n}: want p (B, {n}) and M (B, {n}, {n})"
        )


def hm_values_batch(xi: Array, p: Array, M: Array, m: float, params,
                    dirs: DirectionSet, side: str) -> Array:
    """Vectorized bounded operator over a batch of (xi, p, M) triples."""
    m = _check_m(m)
    sign = _sign(side)
    p = np.asarray(p, dtype=float)
    M = np.asarray(M, dtype=float)
    _check_batch(p, M, params, dirs)
    out = np.empty(p.shape[0])
    for rows, _, table, _ in _chunks(p, M, params, dirs, sign, m):
        out[rows] = sign * np.max(table, axis=(1, 2))
    # 0.0 + keeps np.sum's +0.0 for a diagonal of -0.0, which the result shows
    const = -0.5 * (0.0 + _trace_s2m(M, params.sigma**2)) - p @ params.mu
    return out + const + params.r * np.asarray(xi, dtype=float)


def _reply(D: Array, QD: Array, q: Array, c: Array, k: Array, j: Array, m: float):
    """The inner player's best (direction index, intensity index) against
    outer direction k at intensity j*m: the first minimum, in the flattened
    (direction, intensity) scan, of phi - const rebuilt for that row as
    ``_outer_table`` recomputes its values."""
    rows = np.arange(k.size)
    d = m * j
    a = np.einsum("bi,bil->bl", D[rows, k], QD) - 0.5 * q - 0.5 * q[rows, k][:, None]
    s = c + c[rows, k][:, None]
    inner = np.stack([a - d[:, None] * s, a - (d[:, None] + m) * s], axis=2)
    return np.divmod(np.argmin(inner.reshape(k.size, -1), axis=1), 2)


def _pair_table(p: Array, M: Array, sigma: float, sign: float, m: float):
    """``_chunks``' (D, table, reply) for the 1-D pair D = [-1, +1], from the
    (B,) vectors p = p_0 and M = M_00, without the lattice search.

    With q = sign sigma^2 M and c = sign p, a same-direction pair at
    lam = d+ + d- is worth -lam (c_k + c_k) and an opposed pair -2q for every
    lam, so each table entry picks one of two values.  The pick and the
    values repeat the lattice's floats: the inner direction is chosen on the
    shifted Gram values q/2 and fl(-3q/2), each less m c_l once per lam step,
    the first (theta = -1) on a tie, and the values are rebuilt term by term
    in ``_outer_table``'s order.  The lattice's einsum sums each product onto
    +0.0, which turns -0.0 into +0.0; that changes no value except the
    opposed Gram entry, taken here as 0.0 - q (its sign of zero does not
    change a rank).
    """
    B = p.size
    q = sign * (M * sigma * sigma)                       # q_k = D_k' Q D_k, both k
    hq = -0.5 * q
    c = np.multiply.outer(_PAIR[:, 0], sign * p)         # c_k = D_k . sign p
    # the Gram entry D_k Q D_l less q_l/2 for l = k and for l = -k
    g_same = q + hq
    g_opposed = (0.0 - q) + hq
    # s[lam, k, l]: that entry less lam c_l, outer k, inner l
    s = np.empty((3, 2, 2, B))
    s[0, 0, 0] = s[0, 1, 1] = g_same
    s[0, 0, 1] = s[0, 1, 0] = g_opposed
    mc = m * c
    np.subtract(s[0], mc, out=s[1])
    np.subtract(s[1], mc, out=s[2])
    # argmin's pick of l = 0: the first minimum, or a NaN in the first place
    first = (s[:, :, 0] <= s[:, :, 1]) | np.isnan(s[:, :, 0])
    same = (g_same + hq) - np.array([0.0, m, 2.0 * m])[:, None, None] * (c + c)
    # less c_0 + c_1, +0.0 unless p is not finite, as the lattice's lam (c_l + c_k)
    opposed = (g_opposed + hq) - (c[0] + c[1])
    # outer k = 0 meets the same direction at l = 0, outer k = 1 at l = 1
    val = np.where(first != np.array([[False], [True]]), same, opposed)   # (lam, k, B)
    # stored (k, j, B), so a row's max or argmax reads four contiguous slabs;
    # no entry is -0.0 for finite inputs, so the max is the lattice's in any order
    out = np.empty((2, 2, B))
    np.minimum(val[:2], val[1:], out=out.transpose(1, 0, 2))
    return (np.broadcast_to(_PAIR, (B, 2, 1)), out.transpose(2, 0, 1),
            partial(_pair_reply, same, opposed))


def _pair_reply(same: Array, opposed: Array, k: Array, j: Array):
    """``_reply`` for ``_pair_table``: the inner player's first minimum over
    (direction l, intensity i) of the same-direction value at lam = (j + i) m
    where l = k, and the opposed value where l != k."""
    B = k.size
    i = np.arange(2)
    own = same[j[:, None] + i, k[:, None], np.arange(B)[:, None]]       # (B, i)
    inner = np.where((k[:, None] == i)[:, :, None], own[:, None, :], opposed[:, None, None])
    return np.divmod(np.argmin(inner.reshape(B, 4), axis=1), 2)


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
    M = np.asarray(M, dtype=float)
    _check_batch(p, M, params, dirs)
    B = p.shape[0]
    theta_p = np.empty((B, dirs.n))
    theta_m = np.empty((B, dirs.n))
    d_p = np.empty(B)
    d_m = np.empty(B)
    # side 'plus': the minus player commits first (outer) and the plus player
    # replies (inner); side 'minus' swaps the roles
    (th_out, d_out), (th_in, d_in) = (((theta_m, d_m), (theta_p, d_p)) if side == "plus"
                                      else ((theta_p, d_p), (theta_m, d_m)))
    for rows, D, table, reply in _chunks(p, M, params, dirs, sign, m):
        ko, jo = np.divmod(np.argmax(table.reshape(D.shape[0], -1), axis=1), 2)
        ki, ji = reply(ko, jo)
        idx = np.arange(D.shape[0])
        th_out[rows] = D[idx, ko]
        th_in[rows] = D[idx, ki]
        d_out[rows] = m * jo
        d_in[rows] = m * ji
    return theta_p, d_p, theta_m, d_m


class _Limit:
    """The limit operator of one market and eps_grad, on batches that
    :meth:`check` accepts: sigma, sigma**2 and the fallback weight 2/n are
    derived once.  ``limit_values_batch`` builds one per call; the PDE step
    builds one per solve and checks its batch shapes once.

    It works column by column, on (B,) arrays for each p_i and M_ij, with
    the floats of the whole-batch formulas it replaces: S M S entry by entry
    as (M_ij sigma_i) sigma_j, the quadratic form's terms (p_i (SMS)_ij) p_j
    added in ``np.einsum``'s order, (i, j) row-major, and each sum over i
    by :func:`_row_sum`.
    """

    def __init__(self, params, eps_grad: float):
        n = params.n
        self.params, self.eps_grad, self.n = params, eps_grad, n
        # (i, j, sigma_i, sigma_j) in row-major order
        self.pairs = [(i, j, params.sigma[i], params.sigma[j]) for i in range(n) for j in range(n)]
        self.sigma_sq = list(params.sigma**2)
        self.mean_weight = 2.0 / n

    def check(self, p: Array, M: Array) -> None:
        _check_batch(p, M, self.params)

    def __call__(self, xi: Array, p: Array, M: Array) -> Array:
        col = list(p.T)
        sms = [M[:, i, j] * s_i * s_j for i, j, s_i, s_j in self.pairs]
        # np.einsum and np.sum add to a leading 0.0, which these sums leave
        # out; that can only change the sign of a zero, and no such sign
        # reaches the result, as each sum enters it before mu . p is added,
        # and mu . p is never -0.0
        quad = 2.0 * reduce(
            np.add, [col[i] * e * col[j] for (i, j, _, _), e in zip(self.pairs, sms)])
        norm_sq = _row_sum([c * c for c in col])
        mask = np.sqrt(norm_sq) >= self.eps_grad
        lead = np.where(mask, quad / np.where(mask, norm_sq, 1.0),
                        self.mean_weight * _row_sum(sms[::self.n + 1]))
        trace = _trace_s2m(M, self.sigma_sq)
        return lead + 0.5 * trace + p @ self.params.mu - self.params.r * xi


def limit_values_batch(xi: Array, p: Array, M: Array, params, eps_grad: float) -> Array:
    """Gradient-weighted limit operator over a batch of (xi, p, M) triples.

    F = 2 p' S M S p / |p|^2 + 1/2 trace(S^2 M) + mu . p - r xi.  Where
    |p| < eps_grad the directional weight is undefined; it is replaced by
    the eigenvalue average (2/n) trace(S M S), which lies between the
    envelope values 2 lambda_min and 2 lambda_max of S M S.
    """
    kernel = _Limit(params, eps_grad)
    p = np.asarray(p, dtype=float)
    M = np.asarray(M, dtype=float)
    kernel.check(p, M)
    return kernel(np.asarray(xi, dtype=float), p, M)
