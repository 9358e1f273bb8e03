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
set ``_pair_table`` builds the outer table in closed form from (B,)
vectors, and the inner reply only at the entries read, with the lattice's
own floats, ranking and tie rules, so values and greedy controls are the
lattice's bit for bit on finite inputs.  The choice rests on the direction
set alone: any other 1-D set (reversed, or with duplicates) and every
n >= 2 search the lattice.

Both public operators read only the best outer action: ``hm_values_batch``
the max of the outer table, ``greedy_controls_batch`` its first argmax and,
through a reply read, the inner reply to it, which the lattice search
records beside each entry.  So the lattice search is pruned, alpha-beta
style (Knuth and Moore, Artif. Intell. 6, 1975), in three batched passes
over each chunk of inputs (``_search``):

1. Seed rows: full rows (``_outer_table``) for every _SEED_STRIDE-th fan
   direction and for +-p/|p|.  Their best entry is the incumbent alpha.
2. Bound: every outer row against the seed inner directions only.  A min
   over some of the inner actions is no smaller than the min over all, so
   each row's least values there, plus a derived rounding tolerance, bound
   its entries from above (``_row_bounds``).
3. Survivors: full rows for the rows whose bound is not below alpha.

A pruned row holds -inf.  Its entries were strictly below alpha, which is
at most the max, so it held neither the max nor the first argmax, and the
max, its sign of zero and the first-index argmax of the table are the full
lattice's: ties are kept, as only a bound strictly below alpha prunes.  An
input with a NaN or an infinity gets an inf or NaN bound, which prunes
nothing, so its NaN stay where the full lattice puts them.  A fan of fewer
than _FULL_BELOW directions makes every row a seed, which is the full
lattice.  Each full row has the same floats in any block (``_outer_table``),
so values and greedy controls equal the full lattice's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ValidationError
from .market import _halton

Array = np.ndarray

UNIT_TOL = 1e-12
# cap on the elements of each scratch block of the lattice search: the Gram
# entries (input, outer direction, inner direction) shifted at once for full
# rows, and (input, seed, outer direction) for the bounds; a chunk of inputs
# holds as many as fit their bound blocks.  2**17 doubles (1 MiB) stay in a
# core's L2 cache, and larger blocks ran slower (2-D kernel, K=724)
_CHUNK_ELEMS = 1 << 17
# the exact 1-D direction pair, which takes the closed form of _pair_table
_PAIR = np.array([[-1.0], [1.0]])
# the most directions a fan may have: 32 times the largest default (2048).
# One input of the lattice search compares up to K^2 direction pairs: at
# this K in 2-D an estimated 12 s where every row survives the pruning, as
# on near-flat inputs (1.5 ms at the default K = 722), and a measured 1.6 to
# 1.8 s on operators-2d inputs, so a larger fan is no usable run; the cap
# refuses it before any direction array (at this K at most 2 MiB, at n = 4)
# is allocated.
MAX_DIRS = 1 << 16
# the pruned search's seed rows: every _SEED_STRIDE-th fan direction, or
# every row for a fan of fewer than _FULL_BELOW directions
_SEED_STRIDE = 32
_FULL_BELOW = 128


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


def _seeds(count: int, K: int) -> Array:
    """The outer rows searched in full first (module docstring): every
    _SEED_STRIDE-th of the ``count`` fan directions and the rows after the
    fan (+-p/|p|), or every row when the fan has fewer than _FULL_BELOW."""
    if count < _FULL_BELOW:
        return np.arange(K)
    return np.concatenate([np.arange(0, count, _SEED_STRIDE), np.arange(count, K)])


def _layout(dirs: DirectionSet) -> tuple[int, Array, int]:
    """(K, seeds, chunk): the directions per input, the seed rows and the
    inputs per slice of ``_chunks``."""
    K = dirs.count + (0 if dirs.n == 1 else 2)
    seeds = _seeds(dirs.count, K)
    return K, seeds, max(1, _CHUNK_ELEMS // (K * seeds.size))


def _scratch_doubles(dirs: DirectionSet, B: int) -> int:
    """A bound on the doubles one ``hm_values_batch`` call on B inputs holds at
    once besides a few (B,) arrays: the scratch of one ``_chunks`` slice, 44
    per input for the 1-D pair, else (8n + 24) K per input and n + 3
    _CHUNK_ELEMS blocks (the Gram block, the bound block and, for row sets
    of two, (n + 1) / 2 blocks of the owners' Gram rows and one of their c).
    tracemalloc puts the peaks less 4 doubles per input at up to 0.97 of it
    on random, flat and solver inputs (n <= 4, K = 2 .. 20002)."""
    K, _, chunk = _layout(dirs)
    rows = min(B, chunk)
    if _is_pair(dirs):
        return 44 * rows + 1024
    return (8 * dirs.n + 24) * K * rows + (dirs.n + 3) * _CHUNK_ELEMS


def _chunks(p: Array, M: Array, params, dirs: DirectionSet, sign: float, m: float):
    """Yield (rows, D, table, reply) over consecutive row slices of the batch:
    the rows' direction table D (B,K,n), their outer table (``_search``) and
    the reply read ``reply(b, k, j)``, the inner player's reply 2 l + i to
    the entries [b, k, j] (index arrays), direction l at intensity i*m
    (``_outer_table``).  Each slice has as many rows as fit the K x S blocks
    of their S seed rows in _CHUNK_ELEMS (at least one row; the passes split
    a larger block).  The exact 1-D pair [-1, +1] takes the closed form
    ``_pair_table`` instead of the search."""
    B = p.shape[0]
    pair = _is_pair(dirs)
    K, seeds, chunk = _layout(dirs)
    for start in range(0, B, chunk):
        rows = slice(start, min(B, start + chunk))
        if pair:
            yield (rows, *_pair_table(p[rows, 0], M[rows, 0, 0], params.sigma[0], sign, m))
        else:
            pieces = _phi_pieces(p[rows], M[rows], params, dirs.dirs, sign)
            yield rows, pieces[0], *_search(*pieces, m, seeds)


def _search(D: Array, QD: Array, q: Array, c: Array, m: float, seeds: Array):
    """The outer table (B, K, 2) of ``_outer_table``'s entries, with -inf in
    each row that cannot hold the best entry (module docstring), and the
    reply read of the inner replies recorded beside it (0 in the pruned
    rows): the seed rows, then the rows whose ``_row_bounds`` is not below
    the best seed entry (every row where that comparison is not True, as
    with NaN)."""
    B, K = q.shape
    table = np.full((B, K, 2), -np.inf)
    inner = np.zeros((B, K, 2), dtype=np.intp)
    _outer_table(D, QD, q, c, m, None, seeds, table, inner)
    if seeds.size < K:
        alpha = np.max(table[:, seeds], axis=(1, 2))
        keep = ~(_row_bounds(D, QD, q, c, m, seeds) < alpha[:, None])
        keep[:, seeds] = False
        b, k = np.nonzero(keep)
        if b.size:
            _outer_table(D, QD, q, c, m, *_row_sets(b, k, B), table, inner)
    return table, lambda b, k, j: inner[b, k, j]


def _row_sets(b: Array, k: Array, B: int):
    """The rows k[i] of inputs b[i] (sorted by b) as ``_outer_table``'s row
    sets: each input's rows in sets of w, the median count of rows per input
    (at least 2), its last set padded by repeating its last row."""
    counts = np.bincount(b, minlength=B)
    some = counts[counts > 0]
    w = max(2, int(np.partition(some, some.size // 2)[some.size // 2]))
    sets = -(-counts // w)
    owner = np.repeat(np.arange(B), sets)
    # the set's first pair, and the last pair of its input
    first = (np.repeat(np.cumsum(counts) - counts, sets)
             + w * (np.arange(owner.size) - np.repeat(np.cumsum(sets) - sets, sets)))
    last = np.cumsum(counts)[owner] - 1
    return owner, k[np.minimum(first[:, None] + np.arange(w), last[:, None])]


def _row_bounds(D: Array, QD: Array, q: Array, c: Array, m: float, seeds: Array) -> Array:
    """(B, K): for each outer row, a float no smaller than its best entry in
    ``_outer_table``, or inf or NaN.

    Entry [k, j] is at most the smaller of the row's values at lam = j*m and
    j*m + m, and each of these is at most the least value over any subset of
    the inner directions, here the seeds, up to rounding.  Rounding moves
    each value, ranked or recomputed, by at most (n + 5) u Z with u = 2**-53
    and Z = max_l sum_i |(Q D_l)_i| + max |q| + 4 m max |c| (|D_ki| <= 1),
    so the lattice's entry exceeds the bound computed here by at most
    (4 n + 26) u Z; tol = (n + 8) 2**-46 Z is 128 (n + 8) u Z, with an
    absolute (n + 8) 2**-1000 for the underflows.  2 Z overflows where a
    sum could, and then tol, and every bound, is inf.
    """
    B, K = q.shape
    n = D.shape[2]
    S = seeds.size
    hq = -0.5 * q
    inner = QD[:, :, seeds].transpose(0, 2, 1)                 # Q D_l of the seeds
    hq_s = hq[:, seeds, None]
    mc = m * c[:, seeds, None]
    least = np.empty((3, B, K))
    step = max(1, _CHUNK_ELEMS // (B * S))
    for start in range(0, K, step):
        ks = slice(start, start + step)
        shifted = np.matmul(inner, D[:, ks].transpose(0, 2, 1))  # (B, S, outer rows)
        shifted += hq_s
        for t in range(3):
            if t:
                shifted -= mc
            np.min(shifted, axis=1, out=least[t, :, ks])
    least += hq - np.array([0.0, m, 2.0 * m])[:, None, None] * c
    best = np.maximum(np.minimum(least[0], least[1]), np.minimum(least[1], least[2]))
    Z = (np.max(np.abs(QD).sum(axis=1), axis=1) + np.max(np.abs(q), axis=1)
         + 4.0 * m * np.max(np.abs(c), axis=1))
    tol = (n + 8) * (2.0**-47 * (2.0 * Z) + 2.0**-1000)
    return best + tol[:, None]


def _outer_table(D: Array, QD: Array, q: Array, c: Array, m: float, owner: Array | None,
                 rows: Array, out: Array, inner: Array) -> None:
    """Write into out[owner[i], rows[i]] (out is (B, K, 2)) what the outer
    (maximizing) player secures with the lattice actions of the outer
    directions rows[i] (G, r) of input owner[i] (G,), and into inner the
    inner player's reply that attains it.  owner None means every input
    with the same rows (r,): owner np.arange(B), and rows as each one's set.

    Entry [b, k, j] is the min over the inner player's actions (direction
    l, intensity d) of phi - const against outer direction k at intensity
    j*m.  Only the sum lam = d + j*m in {0, m, 2m} enters phi, so three
    passes over the shifted Gram block

        G_kl - q_l/2 - lam c_l,   lam = 0, m, 2m (one subtraction apart)

    find the inner direction l for each (k, lam), and entry [k, j] is the
    smaller of the values at lam = j*m and lam = j*m + m.  The value at each
    found l is recomputed as (G_kl - q_l/2) - q_k/2 - lam (c_l + c_k), which
    is exactly 0 for l = k at lam = 0 and the same for every lam when
    c_l + c_k = 0, so such actions tie exactly, as in the scan of the direct
    formula.  The intensity search is exact: for fixed directions phi is
    affine in each d, so only d in {0, m} can attain the optimum.  The reply
    inner[b, k, j] = 2 l + i is the direction l found at lam = (j + i) m,
    with i = 1 where that value is below the one at i = 0, or equal to it
    with an earlier l: the first of the two found replies in the inner
    player's (direction, intensity) scan that attains the entry's value.

    np.matmul rounds a one-row block (gemv) differently from a block of
    several rows, and, in the BLAS this was measured with, a block of over
    about 10**6 products differently again.  So the row sets go in slices of
    at most _CHUNK_ELEMS // K rows, a lone last row padded with itself to
    two, and as many sets share a block as fit _CHUNK_ELEMS Gram entries:
    every row then ranks, and so has, the same floats in any block.
    """
    B, K = q.shape
    if owner is None:
        owner, rows = np.arange(B), np.repeat(rows[None], B, axis=0)
    lam = np.array([[0.0], [m], [2.0 * m]])
    hq = -0.5 * q
    QDx = np.concatenate([QD, hq[:, None, :]], axis=1)          # [Q D_l; -q_l/2]
    QDt = QD.transpose(0, 2, 1).reshape(B * K, -1)             # row b*K + l: Q D_l
    G, r = rows.shape
    step = max(2, _CHUNK_ELEMS // K)
    # no block has more than G * max(2, r) rows, nor more entries than the cap
    # (or two rows where one row of K is over the cap)
    scratch = np.empty(min(G * max(2, r) * K, max(_CHUNK_ELEMS, 2 * K)))
    for lo in range(0, r, step):
        ks = rows[:, lo:lo + step]
        if ks.shape[1] == 1:
            ks = np.repeat(ks, 2, axis=1)
        group = max(1, _CHUNK_ELEMS // (ks.shape[1] * K))
        for start in range(0, G, group):
            bs = owner[start:start + group]
            sel = (bs[:, None], ks[start:start + group])
            Dk = D[sel]
            g, rb = Dk.shape[:2]
            shifted = np.matmul(np.concatenate([Dk, np.ones((g, rb, 1))], axis=2),   # [D_k, 1]
                                QDx.take(bs, axis=0), out=scratch[:g * rb * K].reshape(g, rb, K))
            mcb = m * c.take(bs, axis=0)[:, None, :]
            reply = np.empty((g, 3, rb), dtype=np.intp)
            for t in range(3):
                if t:
                    shifted -= mcb
                np.argmin(shifted, axis=2, out=reply[:, t])
            # matmul rounding varies with the block's shape, so the shifted
            # block only ranks; the values are recomputed, the same way for
            # every shape
            at = reply + K * bs[:, None, None]
            val = (np.einsum("bki,btki->btk", Dk, QDt.take(at, axis=0))
                   + hq.take(at) + hq[sel][:, None] - lam * (c.take(at) + c[sel][:, None]))
            out[sel] = np.minimum(val[:, :2], val[:, 1:]).transpose(0, 2, 1)
            lo, hi = reply[:, :2], reply[:, 1:]
            i = (val[:, 1:] < val[:, :2]) | ((val[:, 1:] == val[:, :2]) & (hi < lo))
            inner[sel] = (2 * np.where(i, hi, lo) + i).transpose(0, 2, 1)


def _check_m(m: float) -> float:
    if not (np.isfinite(m) and m > 0):
        raise ValidationError("m must be finite and > 0")
    return float(m)


def _check_batch(p: Array, M: Array, params, dirs: DirectionSet | None = None,
                 xi: Array | None = None) -> None:
    """Refuse a batch unless p is (B, n), M (B, n, n) and xi, when given, (B,),
    with n the market's (and the directions') dimension; reads shapes only,
    copies nothing."""
    n = params.n
    if (np.ndim(p) != 2 or np.shape(p)[1] != n or np.shape(M) != (np.shape(p)[0], n, n)
            or (dirs is not None and dirs.n != n)):
        where = "" if dirs is None else f", directions of dimension {dirs.n}"
        raise ValidationError(
            f"operator batch shapes p {np.shape(p)} and M {np.shape(M)}{where} do not "
            f"match a market of dimension {n}: want p (B, {n}) and M (B, {n}, {n})"
        )
    if xi is not None and np.shape(xi) != np.shape(p)[:1]:
        raise ValidationError(f"operator batch xi {np.shape(xi)} does not match p "
                              f"{np.shape(p)}: want xi ({np.shape(p)[0]},)")


def hm_values_batch(xi: Array, p: Array, M: Array, m: float, params,
                    dirs: DirectionSet, side: str) -> Array:
    """Vectorized bounded operator over a batch of (xi, p, M) triples."""
    m = _check_m(m)
    sign = _sign(side)
    p = np.asarray(p, dtype=float)
    M = np.asarray(M, dtype=float)
    _check_batch(p, M, params, dirs, xi)
    out = np.empty(p.shape[0])
    for rows, _, table, _ in _chunks(p, M, params, dirs, sign, m):
        out[rows] = sign * np.max(table, axis=(1, 2))
    # 0.0 + keeps np.sum's +0.0 for a diagonal of -0.0, which the result shows
    const = -0.5 * (0.0 + _trace_s2m(M, params.sigma**2)) - p @ params.mu
    return out + const + params.r * np.asarray(xi, dtype=float)


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
    change a rank).  The reply read works 2 l + i out at the entries asked
    for only, from the picks and values kept for each (lam, k): a value call
    never asks, and builds no reply.
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

    def reply(b, k, j):
        # the lattice's 2 l + i: the pick at lam = (j + i) m, where l = 0 is
        # first; at and at + 2 B are the flat indices of [j, k, b] and
        # [j + 1, k, b] in the (lam, k, B) arrays
        at = (2 * j + k) * B + b
        v0, v1, f0, f1 = val.take(at), val.take(at + 2 * B), first.take(at), first.take(at + 2 * B)
        i = (v1 < v0) | ((v1 == v0) & f1 & ~f0)
        return 2 * ~first.take(at + 2 * B * i) + i

    return np.broadcast_to(_PAIR, (B, 2, 1)), out.transpose(2, 0, 1), reply


def greedy_controls_batch(xi: Array, p: Array, M: Array, m: float, params,
                          dirs: DirectionSet, side: str):
    """Optimal lattice actions for a batch of inputs.

    Returns (theta_plus, d_plus, theta_minus, d_minus) arrays: the outer
    player's first best entry of the value search's table, and the inner
    reply that search recorded for it.  Ties resolve as the search ranks
    them: the outer action to the earliest direction in the set ordering
    with d = 0 preferred; the inner reply to the direction ranked first at
    each intensity, and between the two intensities, on equal values, to
    the earlier direction, then to d = 0.  So phi at the returned pair, in
    the search's arithmetic, is the hm value bit for bit.
    """
    m = _check_m(m)
    sign = _sign(side)
    p = np.asarray(p, dtype=float)
    M = np.asarray(M, dtype=float)
    _check_batch(p, M, params, dirs, xi)
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
        idx = np.arange(D.shape[0])
        ki, ji = np.divmod(reply(idx, ko, jo), 2)
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
    _check_batch(p, M, params, xi=xi)
    return kernel(np.asarray(xi, dtype=float), p, M)
