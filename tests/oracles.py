"""Independent reference implementations used to validate the package.

Everything here is written directly from the mathematical definitions with
naive loops, closed forms and library interpolation, deliberately sharing no
code with the package internals.  The exceptions are the whole-batch
formulas at the end: the explicit step as the solver took it before its
prepared workspace, built on the public derivatives and operators, the
NumPy expressions the derivatives and operators evaluated before they
worked column by column, kept to pin their floats bit for bit, and the
per-step play that the simulators' table route must reproduce exactly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.stats import binom


def put_value_oracle(x0: float, strike: float, variance: float, drift: float = 0.0,
                     r: float = 0.0, T: float = 1.0) -> float:
    """Discounted expected put payoff of a Gaussian terminal log-price, in closed
    form: for X ~ N(m, v) and d = (ln K - m) / sqrt(v),
    E[max(K - e^X, 0)] = K Phi(d) - e^(m + v/2) Phi(d - sqrt(v))."""
    m, sd = x0 + drift * T, math.sqrt(variance)
    d = (math.log(strike) - m) / sd

    def Phi(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    return math.exp(-r * T) * (strike * Phi(d) - math.exp(m + variance / 2) * Phi(d - sd))


def phi_formula(theta_p, theta_m, d_p, d_m, p, M, mu, sigma) -> float:
    """The game Hamiltonian integrand, straight from its definition."""
    theta_p = np.asarray(theta_p, dtype=float)
    theta_m = np.asarray(theta_m, dtype=float)
    p = np.asarray(p, dtype=float)
    M = np.asarray(M, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    S = np.diag(sigma)
    diff = theta_p - theta_m
    quad = -0.5 * diff @ (S @ M @ S) @ diff
    tr = -0.5 * np.trace(S @ S @ M)
    dterm = -(d_p + d_m) * float((theta_p + theta_m) @ p)
    return float(quad + tr + dterm - mu @ p)


def limit_oracle(xi, p, M, mu, sigma, r, eps_grad) -> float:
    """The limit operator F at one input, straight from its definition.

    Away from p = 0 the leading term is 2 p'SMSp / |p|^2; where |p| < eps_grad
    it is twice the mean eigenvalue of SMS.
    """
    p = np.asarray(p, dtype=float)
    M = np.asarray(M, dtype=float)
    S = np.diag(np.asarray(sigma, dtype=float))
    sms = S @ M @ S
    if np.linalg.norm(p) >= eps_grad:
        lead = 2.0 * (p @ sms @ p) / (p @ p)
    else:
        lead = 2.0 * np.mean(np.linalg.eigvalsh(sms))
    return float(lead + 0.5 * np.trace(S @ S @ M) + np.asarray(mu, dtype=float) @ p - r * xi)


def limit_envelopes_oracle(xi, M, sigma, r) -> tuple[float, float]:
    """(lower, upper) envelopes of F at p = 0, where the leading term ranges
    over [2 lambda_min, 2 lambda_max] of SMS."""
    M = np.asarray(M, dtype=float)
    S = np.diag(np.asarray(sigma, dtype=float))
    eig = np.linalg.eigvalsh(S @ M @ S)
    rest = 0.5 * np.trace(S @ S @ M) - r * xi
    return float(2.0 * eig[0] + rest), float(2.0 * eig[-1] + rest)


def _augmented(dirs: np.ndarray, p: np.ndarray) -> list[np.ndarray]:
    out = [np.array(d, dtype=float) for d in dirs]
    # batched axis-norm, bit-identical to the implementation under test
    norm = np.linalg.norm(np.asarray(p, dtype=float)[None, :], axis=1)[0]
    if dirs.shape[1] > 1 and norm > 0:
        unit = np.asarray(p, dtype=float) / norm
        out.append(unit)
        out.append(-unit)
    return out


def brute_hm(xi, p, M, m, mu, sigma, r, dirs, side: str) -> float:
    """sup-inf / inf-sup of phi over dirs x {0, m} by exhaustive loops."""
    cands = _augmented(np.atleast_2d(dirs), np.asarray(p, dtype=float))
    dvals = [0.0, float(m)]
    if side == "plus":  # sup over minus player of inf over plus player
        best_outer = -np.inf
        for tm in cands:
            for dm in dvals:
                best_inner = np.inf
                for tp in cands:
                    for dp in dvals:
                        val = phi_formula(tp, tm, dp, dm, p, M, mu, sigma)
                        best_inner = min(best_inner, val)
                best_outer = max(best_outer, best_inner)
        return best_outer + r * xi
    best_outer = np.inf
    for tp in cands:
        for dp in dvals:
            best_inner = -np.inf
            for tm in cands:
                for dm in dvals:
                    val = phi_formula(tp, tm, dp, dm, p, M, mu, sigma)
                    best_inner = max(best_inner, val)
            best_outer = min(best_outer, best_inner)
    return best_outer + r * xi


def brute_greedy(xi, p, M, m, mu, sigma, dirs, side: str):
    """First-occurrence argmin/argmax pair matching the greedy tie rules.

    Candidates are scanned in direction order with d = 0 before d = m, so the
    first strict improvement wins, mirroring a flat argmax over the
    (direction, d) grid.
    """
    cands = _augmented(np.atleast_2d(dirs), np.asarray(p, dtype=float))
    dvals = [0.0, float(m)]
    if side == "plus":  # outer sup over minus, inner inf over plus
        best_val, best_tm, best_dm = -np.inf, None, None
        for tm in cands:
            for dm in dvals:
                cur = np.inf
                for tp in cands:
                    for dp in dvals:
                        cur = min(cur, phi_formula(tp, tm, dp, dm, p, M, mu, sigma))
                if cur > best_val:
                    best_val, best_tm, best_dm = cur, tm, dm
        best_inner, best_tp, best_dp = np.inf, None, None
        for tp in cands:
            for dp in dvals:
                val = phi_formula(tp, best_tm, dp, best_dm, p, M, mu, sigma)
                if val < best_inner:
                    best_inner, best_tp, best_dp = val, tp, dp
        return best_tp, best_dp, best_tm, best_dm
    best_val, best_tp, best_dp = np.inf, None, None
    for tp in cands:
        for dp in dvals:
            cur = -np.inf
            for tm in cands:
                for dm in dvals:
                    cur = max(cur, phi_formula(tp, tm, dp, dm, p, M, mu, sigma))
            if cur < best_val:
                best_val, best_tp, best_dp = cur, tp, dp
    best_inner, best_tm, best_dm = -np.inf, None, None
    for tm in cands:
        for dm in dvals:
            val = phi_formula(best_tp, tm, best_dp, dm, p, M, mu, sigma)
            if val > best_inner:
                best_inner, best_tm, best_dm = val, tm, dm
    return best_tp, best_dp, best_tm, best_dm


def brute_dpp_value(x, values_next, axes, lo, hi, t_next, dt, m, payoff_func,
                    mu, sigma, r, T, dirs, side: str) -> float:
    """One-node backward-induction value by full enumeration.

    Interpolation uses scipy's RegularGridInterpolator; queries outside the
    box fall back to the discounted payoff, matching the scheme contract.
    """
    interp = RegularGridInterpolator(axes, values_next, method="linear",
                                     bounds_error=False, fill_value=None)
    x = np.asarray(x, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    n = x.size
    cands = [np.array(d, dtype=float) for d in np.atleast_2d(dirs)]
    dvals = [0.0, float(m)]
    coin_count = 1 << (n + 1)
    coins = [1.0 - 2.0 * ((c >> np.arange(n + 1)) & 1) for c in range(coin_count)]

    def expected(tp, dp, tm, dm):
        acc = 0.0
        for signs in coins:
            q = (x + (mu + sigma * (dp + dm) * (tp + tm)) * dt
                 + sigma * signs[:n] * np.sqrt(dt)
                 + sigma * (tp - tm) * signs[n] * np.sqrt(dt))
            if np.any(q < lo) or np.any(q > hi):
                v = np.exp(-r * (T - t_next)) * payoff_func(q)
            else:
                v = interp(q).item()
            acc += v
        return np.exp(-r * dt) * acc / coin_count

    if side == "minus":  # sup over plus of inf over minus
        best = -np.inf
        for tp in cands:
            for dp in dvals:
                cur = np.inf
                for tm in cands:
                    for dm in dvals:
                        cur = min(cur, expected(tp, dp, tm, dm))
                best = max(best, cur)
        return best
    best = np.inf
    for tm in cands:
        for dm in dvals:
            cur = -np.inf
            for tp in cands:
                for dp in dvals:
                    cur = max(cur, expected(tp, dp, tm, dm))
            best = min(best, cur)
    return best


def binomial_walk_mean(payoff_func, x0: float, sigma: float, N: int,
                       horizon: float = 1.0) -> float:
    """Exact mean of g after the null-control coin walk: steps of size
    (2 sigma / sqrt(N)) * (+-1), N * horizon of them."""
    steps = int(round(N * horizon))
    j = np.arange(steps + 1)
    xs = x0 + (2.0 * sigma / np.sqrt(N)) * (2.0 * j - steps)
    w = binom.pmf(j, steps, 0.5)
    return float(np.sum(w * np.array([payoff_func(np.array([v])) for v in xs])))


def coin_sde_put_value(x0: float, strike: float, sigma: float, nt: int,
                       r: float = 0.0, T: float = 1.0) -> float:
    """Exact discounted E[max(K - e^X, 0)] after nt steps of the null-control
    1-D SDE chain: each step moves sigma sqrt(T / nt) (c_0 + 2 c_1) for
    independent fair +-1 coins, so by {+-1, +-3} sigma sqrt(dt), each with
    probability 1/4.  The law of the step sum is the convolution of the two
    coins' binomial walks, c_0's on the even offsets 2j - nt and 2 c_1's on
    4k - 2 nt, over the lattice -3 nt .. 3 nt."""
    walk = np.array([math.comb(nt, j) / 2**nt for j in range(nt + 1)])
    noise = np.zeros(2 * nt + 1)
    noise[::2] = walk
    lever = np.zeros(4 * nt + 1)
    lever[::4] = walk
    pmf = np.convolve(noise, lever)
    x = x0 + sigma * math.sqrt(T / nt) * np.arange(-3 * nt, 3 * nt + 1)
    return math.exp(-r * T) * float(np.sum(pmf * np.maximum(strike - np.exp(x), 0.0)))


def central_differences_formula(u, h):
    """Central-difference gradient and Hessian of every interior node, as
    whole-array expressions over shifted slices of u: p (*interior, n) and
    M (*interior, n, n), with the four-corner cross term."""
    u = np.asarray(u, dtype=float)
    n = u.ndim

    def shifted(offsets):
        return u[tuple(slice(1 + o, u.shape[a] - 1 + o) for a, o in enumerate(offsets))]

    def offs(*pairs):
        o = [0] * n
        for axis, off in pairs:
            o[axis] = off
        return o

    core = shifted([0] * n)
    p = np.empty(core.shape + (n,))
    M = np.empty(core.shape + (n, n))
    for i in range(n):
        up, dn = shifted(offs((i, 1))), shifted(offs((i, -1)))
        p[..., i] = (up - dn) / (2.0 * h[i])
        M[..., i, i] = (up - 2.0 * core + dn) / h[i] ** 2
        for j in range(i + 1, n):
            cross = (shifted(offs((i, 1), (j, 1))) - shifted(offs((i, 1), (j, -1)))
                     - shifted(offs((i, -1), (j, 1))) + shifted(offs((i, -1), (j, -1))))
            M[..., i, j] = M[..., j, i] = cross / (4.0 * h[i] * h[j])
    return p, M


def limit_batch_formula(xi, p, M, mu, sigma, r, eps_grad):
    """The limit operator over a batch as whole-batch NumPy expressions:
    S M S by broadcasting, the quadratic form by ``np.einsum``, the sums by
    ``np.sum`` and ``np.trace``, mu . p by ``@``, and the |p| < eps_grad
    fallback by ``np.where`` over every row."""
    sms = M * sigma[:, None] * sigma[None, :]
    norm_sq = np.sum(p * p, axis=1)
    mask = np.sqrt(norm_sq) >= eps_grad
    safe = np.where(mask, norm_sq, 1.0)
    lead = np.where(mask, 2.0 * np.einsum("bi,bij,bj->b", p, sms, p) / safe,
                    (2.0 / sigma.size) * np.trace(sms, axis1=1, axis2=2))
    trace = np.sum(np.diagonal(M, axis1=-2, axis2=-1) * sigma**2, axis=-1)
    return lead + 0.5 * trace + p @ mu - r * xi


def bounded_constant_formula(p, M, mu, sigma):
    """The part of the bounded operator that no control moves,
    -1/2 trace(S^2 M) - mu . p, as whole-batch NumPy expressions."""
    return -0.5 * np.sum(np.diagonal(M, axis1=-2, axis2=-1) * sigma**2, axis=-1) - p @ mu


def explicit_step_oracle(values_next, t_next, terminal, points, h, dt, params, operator):
    """One backward explicit step as the solver took it before its prepared
    workspace: the public ``interior_derivatives``, ``operator(xi, p, M)``
    (the mode's public operator, negated in the bounded modes) on the flat
    interior, a running cost at t_next on the interior rows of ``points``
    (all nodes in C order), and boolean-mask writes of the interior update
    and of the discounted-payoff boundary."""
    from tugpricer.pde import interior_derivatives

    n = values_next.ndim
    interior = np.zeros(values_next.shape, dtype=bool)
    interior[tuple(slice(1, -1) for _ in range(n))] = True
    p, M = interior_derivatives(values_next, h)
    xi = values_next[interior]
    rhs = operator(xi, p.reshape(-1, n), M.reshape(-1, n, n))
    if params.running_cost is not None:
        rhs = rhs + params.running_cost(points[interior.reshape(-1)], t_next)
    out = np.empty_like(values_next)
    out[interior] = xi + dt * rhs
    t = t_next - dt
    out[~interior] = np.exp(-params.r * (params.T - t)) * terminal[~interior]
    return out


def _coin_step(cfg, params):
    """The coin game's clock and step, as ``simulate_discrete_game`` defines
    them: the step count, 1/N, the spread 2 sigma / sqrt(N), ``prep`` of the
    (shift, lever) terms, mu dt added to the push before the coins, and a
    block's rows drawn, ``_BLOCK``: the game's rows stay independent."""
    from tugpricer import game

    root_n = np.sqrt(cfg.N)
    dt = 1.0 / cfg.N
    drift = params.mu * dt

    def prep(tp, dp, tm, dm):
        scaled_p = tp * (np.minimum(dp / root_n, 1.0) / root_n)[:, None]
        scaled_m = tm * (np.minimum(dm / root_n, 1.0) / root_n)[:, None]
        return (drift + params.sigma * (scaled_p + scaled_m),
                params.sigma * (scaled_p - scaled_m))

    return (game._game_steps(params.T, cfg.t0, cfg.N), dt, (2.0 / root_n) * params.sigma,
            prep, game._BLOCK)


def stepwise_play(cfg, payoff, params, strat_plus, strat_minus):
    """Every path played step by step, as the simulators did before their table
    route: each block of ``_BLOCK`` paths draws its min(B, half) rows of
    ``_coins`` from ``path_rng``, then every step reads both players through
    ``checked_controls`` at the pre-step states and time, builds the step's
    coefficients from those controls and its own spread term spread c[:n]
    from that step's coins, not a chunk's, and applies them by
    ``game._step``, the one state update.  Returns the terminal states
    (paths, n) and the estimate of the discounted payoff plus the running
    cost's left-endpoint sum.  A ``SimConfig`` plays the SDE of
    ``game._sde``, half ``_HALF``; any other config the coin game, half
    ``_BLOCK``."""
    from tugpricer import game

    if isinstance(cfg, game.SimConfig):
        steps = cfg.nt
        dt, spread, prep, half = game._sde(cfg, params)
    else:
        steps, dt, spread, prep, half = _coin_step(cfg, params)
    n, rc = params.n, params.running_cost
    terminals = np.empty((cfg.paths, n))
    rewards = np.empty(cfg.paths)
    for lo in range(0, cfg.paths, game._BLOCK):
        hi = min(cfg.paths, lo + game._BLOCK)
        coins = game._coins(game.path_rng(cfg.seed, lo // game._BLOCK),
                            (min(hi - lo, half), steps, n + 1))
        X = np.tile(cfg.start, (hi - lo, 1))
        acc = np.zeros(hi - lo)
        scratch = np.empty((len(coins), n))
        for k in range(steps):
            t = cfg.t0 + k * dt
            coef = prep(*game.checked_controls(strat_plus, X, t),
                        *game.checked_controls(strat_minus, X, t))
            if rc is not None:
                acc += np.exp(-params.r * (t - cfg.t0)) * rc(X, t) * dt
            z = coins[:, k]
            game._step(X, coef, z[:, n:], spread * z[:, :n], scratch)
        terminals[lo:hi] = X
        rewards[lo:hi] = game.discounted_reward(X, cfg.t0, params, payoff) + acc
    return terminals, game._estimate(rewards, cfg.paths, cfg.seed)
