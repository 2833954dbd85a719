"""Independent numerical oracles used to cross-check closed forms and solvers.

Everything here is deliberately self-contained: the reverse entropy, the
shared-scale objectives, the second-order perspective, the generic
optimisers and the log-domain scaling loops are written from their
definitions rather than imported from the package, so an agreement test
exercises two genuinely different computational routes.  The imports from
the package are the exception type the tilt loop raises, and the closed
form H plus the simplex behind the full-density second-order LP, which
assembles its own constraint matrix.  The relaxed atom LPs are solved
densely by scipy's HiGHS.  The two broadcast perspective costs are a
reference of another kind: the package's closed forms evaluated on the full
broadcast mesh, against which its open-mesh evaluation is checked bit for
bit.
"""

import math

import numpy as np
from scipy.optimize import linprog

from uotlab.costs import perspective_H
from uotlab.simplex import solve_lp
from uotlab.solver_y import InfeasibleProblemError

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def reverse_kl(s: float) -> float:
    """Reverse KL entropy s - log s - 1 with the boundary value +inf."""
    if s < 0:
        raise ValueError("negative argument")
    if s == 0.0:
        return math.inf
    return s - math.log(s) - 1.0


def golden_section(f, lo: float, hi: float, iters: int = 200) -> tuple[float, float]:
    """Minimise a unimodal function on [lo, hi] by golden-section search."""
    a, b = lo, hi
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def h_by_minimization(s0: float, s1: float, c: float) -> float:
    """inf_t t (R(s0/t) + R(s1/t) + c) over the shared scale t > 0."""
    t_max = 10.0 * max(s0, s1, 1.0)

    def objective(t):
        return t * (reverse_kl(s0 / t) + reverse_kl(s1 / t) + c)

    _, val = golden_section(objective, 1e-12, t_max)
    return val


def h_eps_by_minimization(s0: float, s1: float, S: float, c: float, eps: float) -> float:
    """inf_t t (R(s0/t) + R(s1/t) + eps R(S/t) + c)."""
    t_max = 10.0 * max(s0, s1, S, 1.0)

    def objective(t):
        return t * (reverse_kl(s0 / t) + reverse_kl(s1 / t)
                    + eps * reverse_kl(S / t) + c)

    _, val = golden_section(objective, 1e-12, t_max)
    return val


def h_eps_by_dual_ascent(s0: float, s1: float, S: float, c: float, eps: float,
                         rounds: int = 60) -> float:
    """Coordinate ascent on the concave two-potential dual of the
    regularised shared-scale cost."""

    def objective(phi0, phi1):
        return (s0 * (1.0 - math.exp(-phi0)) + s1 * (1.0 - math.exp(-phi1))
                - eps * S * (math.exp((phi0 + phi1 - c) / eps) - 1.0))

    phi0 = phi1 = 0.0
    span = 5.0 + abs(c)
    for _ in range(rounds):
        phi0, _ = golden_section(lambda t: -objective(t, phi1), -span, span, iters=120)
        phi1, _ = golden_section(lambda t: -objective(phi0, t), -span, span, iters=120)
    return objective(phi0, phi1)


def perspective_H_broadcast(s0, s1, c):
    """The closed form H(s0, s1, c) with every operation on the full
    broadcast mesh: the package's order of operations, without its
    open-mesh evaluation, so the two agree bit for bit."""
    a0, a1, cc = np.broadcast_arrays(
        np.asarray(s0, dtype=float), np.asarray(s1, dtype=float), np.asarray(c, dtype=float)
    )
    scalar = a0.ndim == 0
    if np.any(a0 < 0) or np.any(a1 < 0):
        raise ValueError("radial arguments must be nonnegative")
    infc = np.isinf(cc)
    expf = np.where(infc, 0.0, np.exp(-np.where(infc, 0.0, cc) / 2.0))
    out = np.maximum(a0 + a1 - 2.0 * np.sqrt(a0 * a1) * expf, 0.0)
    return float(out) if scalar else out


def perspective_H_eps_broadcast(s0, s1, S, c, eps: float):
    """The closed form H_eps(s0, s1, S, c) on the full broadcast mesh, as
    ``perspective_H_broadcast``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    a0, a1, aS, cc = np.broadcast_arrays(
        np.asarray(s0, dtype=float),
        np.asarray(s1, dtype=float),
        np.asarray(S, dtype=float),
        np.asarray(c, dtype=float),
    )
    scalar = a0.ndim == 0
    if np.any(a0 < 0) or np.any(a1 < 0) or np.any(aS < 0):
        raise ValueError("radial arguments must be nonnegative")
    q = 2.0 + eps
    with np.errstate(divide="ignore"):
        term = q * np.exp((np.log(a0) + np.log(a1) + eps * np.log(aS) - cc) / q)
    out = np.maximum(a0 + a1 + eps * aS - term, 0.0)
    return float(out) if scalar else out


def projected_gradient(value, grad, x0: np.ndarray, iters: int = 50_000,
                       grad_tol: float = 1e-13) -> tuple[np.ndarray, float]:
    """Generic projected gradient descent onto the nonnegative orthant with
    Armijo backtracking."""
    x = np.array(x0, dtype=float)
    fx = value(x)
    step = 1.0
    stalled = 0
    for _ in range(iters):
        g = grad(x)
        ref = np.maximum(x - g, 0.0)
        if float(np.max(np.abs(ref - x))) <= grad_tol * (1.0 + float(np.max(np.abs(x)))):
            break
        moved = False
        prev = fx
        for _ in range(70):
            trial = np.maximum(x - step * g, 0.0)
            if not np.any(trial != x):
                break  # below float resolution
            ft = value(trial)
            if ft <= fx + 1e-4 * float(np.sum(g * (trial - x))):
                x, fx = trial, ft
                step = min(step * 2.0, 1e8)
                moved = True
                break
            step *= 0.5
        if not moved:
            break
        stalled = stalled + 1 if fx >= prev - 1e-14 * (1.0 + abs(prev)) else 0
        if stalled >= 30:
            break
    return x, fx


def homogeneous_marginal_matrix(n0: int, n1: int, s0p: np.ndarray,
                                s1p: np.ndarray) -> np.ndarray:
    """Constraint matrix of the extended-space marginals over the atoms
    (i0, j0, i1, j1) in C order: row i0 weighs an atom by s0p[j0], row
    n0 + i1 by s1p[j1]."""
    i0, j0, i1, j1 = np.indices((n0, s0p.size, n1, s1p.size)).reshape(4, -1)
    cols = np.arange(i0.size)
    a = np.zeros((n0 + n1, i0.size))
    a[i0, cols] = s0p[j0]
    a[n0 + i1, cols] = s1p[j1]
    return a


def kkt_newton(h: np.ndarray, nu: np.ndarray, a_mat: np.ndarray, b: np.ndarray,
               eps: float) -> tuple[np.ndarray, np.ndarray, float]:
    """min h.x + eps KL(x | nu) s.t. A x = b by infeasible-start Newton on
    the KKT system (Boyd and Vandenberghe, Convex Optimization, 10.3).

    Atoms with nu = 0 or h = +inf stay at 0.  From x = nu, v = 0 each step
    solves [[diag(eps / x), A^T], [A, 0]] (dx, dv) = -r for the residual
    r = (h + eps log(x / nu) + A^T v, A x - b), by elimination through the
    Schur complement A diag(x / eps) A^T, and backtracks on |r| while
    keeping x > 0.  Stops once max |r| <= 1e-14, or when |r| stops falling
or after 100 steps.
    Returns (x, v, value).
    """
    live = (nu > 0) & np.isfinite(h)
    hl, nl, al = h[live], nu[live], a_mat[:, live]
    n = hl.size

    def residual(x, v):
        return np.concatenate([hl + eps * np.log(x / nl) + al.T @ v, al @ x - b])

    x, v = nl.copy(), np.zeros(b.size)
    r = residual(x, v)
    for _ in range(100):
        if float(np.max(np.abs(r))) <= 1e-14:
            break
        norm = float(np.linalg.norm(r))
        hinv = x / eps
        dv = np.linalg.solve((al * hinv) @ al.T, r[n:] - al @ (hinv * r[:n]))
        dx = -hinv * (r[:n] + al.T @ dv)
        t = 1.0
        while np.any(x + t * dx <= 0.0):
            t *= 0.5
        while t > 1e-12:
            r_new = residual(x + t * dx, v + t * dv)
            if float(np.linalg.norm(r_new)) <= (1.0 - 0.01 * t) * norm:
                break
            t *= 0.5
        else:
            break  # no decrease left at working precision
        x, v, r = x + t * dx, v + t * dv, r_new
    full = np.zeros(h.size)
    full[live] = x
    value = float(hl @ x) + eps * (float(np.sum(x * np.log(x / nl) - x)) + float(np.sum(nu)))
    return full, v, value


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    """Root of an increasing scalar function by plain bisection."""
    flo, fhi = f(lo), f(hi)
    if flo > 0 or fhi < 0:
        raise ValueError("root not bracketed")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tilt_solve(w: np.ndarray, a: np.ndarray, target_log: float) -> float:
    """Solve LSE(w + delta * a) = target_log for delta, one scalar at a time.

    w are log-weights (finite), a > 0.  The left side is convex and strictly
    increasing in delta; Newton steps are safeguarded by a bracket found by
    doubling, with bisection as fallback.
    """
    def value_and_slope(delta):
        z = w + delta * a
        m = np.max(z)
        e = np.exp(z - m)
        se = float(np.sum(e))
        val = m + math.log(se) - target_log
        slope = float(np.sum(a * e)) / se
        return val, slope

    val, slope = value_and_slope(0.0)
    if abs(val) < 1e-14:
        return 0.0
    step = max(1.0, abs(val) / max(slope, 1e-12))
    if val < 0:
        lo, hi = 0.0, step
        while value_and_slope(hi)[0] <= 0:
            lo, hi = hi, hi * 2.0
            if hi > 1e13:
                raise InfeasibleProblemError("tilt equation has no finite solution")
    else:
        lo, hi = -step, 0.0
        while value_and_slope(lo)[0] > 0:
            lo, hi = lo * 2.0, lo
            if lo < -1e13:
                raise InfeasibleProblemError("tilt equation has no finite solution")

    delta = 0.5 * (lo + hi)
    for _ in range(200):
        val, slope = value_and_slope(delta)
        if abs(val) < 1e-14:
            return delta
        if val > 0:
            hi = delta
        else:
            lo = delta
        newton = delta - val / max(slope, 1e-300)
        delta = newton if lo < newton < hi else 0.5 * (lo + hi)
    return delta


def project_family_loop(log_alpha: np.ndarray, sp: np.ndarray, mu_w: np.ndarray,
                        axis_point: int, lam: np.ndarray, log_tiny: float = -745.0) -> None:
    """KL projection onto one homogeneous-marginal family, point by point.

    The reference for the vectorised projection: for each support point the
    atoms of its slice with a positive radial node and log-weight above
    ``log_tiny`` enter one scalar tilt equation, solved by ``tilt_solve``.
    Updates lam in place.  ``axis_point`` is 0 or 2, as in the package.
    """
    n = log_alpha.shape[axis_point]
    for i in range(n):
        slc = np.moveaxis(log_alpha, axis_point, 0)[i]
        radial_axis = 0 if axis_point == 0 else 2
        s_shape = [1, 1, 1]
        s_shape[radial_axis] = sp.size
        a_full = np.broadcast_to(sp.reshape(s_shape), slc.shape)
        mask = (a_full > 0) & (slc > log_tiny)
        if mu_w[i] <= 0:
            # park the tilt low enough that every positive-radial atom underflows
            if np.any(sp > 0):
                lam[i] = 4.0 * log_tiny / float(np.min(sp[sp > 0]))
            continue
        if not np.any(mask):
            raise InfeasibleProblemError(
                "a support point carries mass but no reachable atom has a positive radial node"
            )
        w = slc[mask] + np.log(a_full[mask])
        delta = tilt_solve(w, a_full[mask], math.log(mu_w[i]))
        lam[i] += delta


def lse(a: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp along an axis; empty (all -inf) slices give -inf."""
    amax = np.max(a, axis=axis)
    finite = np.isfinite(amax)
    safe = np.where(finite, amax, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - np.expand_dims(safe, axis)), axis=axis))
    return np.where(finite, out + safe, -math.inf)


def log_domain_sinkhorn(log_k, mu0_w, mu1_w, kappa, omega, max_iters, check_every, stop):
    """The scaling loop in the log domain from zero potentials, one full
    log-sum-exp per half-step.

    The reference for the package's stabilised scaling kernel with the steps
    of ``proximal_step``.  The plain row step is
    f* = (log mu0 - LSE_j(g_j + log_k_ij))/(1 + kappa), -inf at zero-mass
    points.  Where f and f* are both finite, the row takes
    f + omega (f* - f) if that does not lower the dual over eps,
    sum_i mu0_i (1 - exp(-kappa f_i))/kappa - sum_ij exp(f_i + g_j + log_k_ij)
    (sum_i mu0_i f_i at kappa 0), and f* otherwise; the change is summed
    line by line as mu0 exp(-kappa f) (1 - exp(-kappa (f' - f)))/kappa
    (mu0 (f' - f) at kappa 0) less the row mass exp(f + LSE_j(g_j + log_k_ij))
    times (exp(f' - f) - 1).  Then the column twin for g.  With kappa > 0 each
    iteration ends with f + t, g - t for the t that maximises the dual,
    t = log(sum mu0 exp(-kappa f) / sum mu1 exp(-kappa g)) / (2 kappa) over
    the points with mass and a finite potential, skipped when either sum is
    empty.  ``stop(f, g, plan)`` sees the full plan every ``check_every``-th
    and at the last iteration.  Returns (iterations, plan, stopped).
    """
    with np.errstate(divide="ignore"):
        log_mu0, log_mu1 = np.log(mu0_w), np.log(mu1_w)
    dead = np.isneginf(log_k)

    def shifted(vec):
        with np.errstate(invalid="ignore"):
            return np.where(dead, -math.inf, vec + log_k)

    def plan(f, g):
        # a zero-mass point (-inf) carries no plan mass, even against +inf
        with np.errstate(invalid="ignore"):
            expo = shifted(f[:, None] + g[None, :])
        return np.exp(np.nan_to_num(expo, nan=-math.inf))

    def step(old, log_mu, mu, lse_other):
        plain = np.where(np.isneginf(log_mu), -math.inf, (log_mu - lse_other) / (1.0 + kappa))
        both = np.isfinite(old) & np.isfinite(plain)
        if omega == 1.0 or not both.any():
            return plain
        f, d = old[both], omega * (plain[both] - old[both])
        sep = (mu[both] * d if kappa == 0.0
               else mu[both] * np.exp(-kappa * f) * -np.expm1(-kappa * d) / kappa)
        change = float(np.sum(sep - np.exp(f + lse_other[both]) * np.expm1(d)))
        if not 0.0 <= change < math.inf:
            return plain
        out = plain.copy()
        out[both] = f + d
        return out

    def log_sum(log_mu, p):
        keep = np.isfinite(log_mu) & np.isfinite(p)
        return lse(log_mu[keep] - kappa * p[keep], 0) if keep.any() else None

    f, g = np.zeros(len(mu0_w)), np.zeros(len(mu1_w))
    stopped = False
    iters = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for iters in range(1, max_iters + 1):
            f = step(f, log_mu0, mu0_w, lse(shifted(g[None, :]), 1))
            g = step(g, log_mu1, mu1_w, lse(shifted(f[:, None]), 0))
            if kappa > 0.0:
                sums = log_sum(log_mu0, f), log_sum(log_mu1, g)
                if None not in sums:
                    t = 0.5 * (sums[0] - sums[1]) / kappa
                    f, g = f + t, g - t
            if iters % check_every == 0 or iters == max_iters:
                stopped = stop(f, g, plan(f, g))
                if stopped:
                    break
    return iters, plan(f, g), stopped


def _kl_divergence(a: np.ndarray, b: np.ndarray) -> float:
    """sum a log(a/b) - a + b, +inf when a charges a b-null atom."""
    if np.any((a > 0) & (b <= 0)):
        return math.inf
    pos = a > 0
    return float(np.sum(a[pos] * np.log(a[pos] / b[pos]) - a[pos]) + np.sum(b))


def balanced_entropic_value(gamma: np.ndarray, mu_w: np.ndarray, cost: np.ndarray,
                            eps: float, reference: np.ndarray) -> float:
    """(c, g) + eps * (sum g log(g / reference) - mu(X) + reference(X)), the
    balanced entropic value of a coupling g of mu, evaluated over the n x n
    plan entries."""
    pos = gamma > 0
    value = float(np.sum(cost[pos] * gamma[pos]))
    return value + eps * (float(np.sum(gamma[pos] * np.log(gamma[pos] / reference[pos])))
                          - float(np.sum(mu_w)) + float(np.sum(reference)))


def solve_x_log_domain(mu0_w, mu1_w, cost, nu_w, eps, omega, tol, max_iters):
    """Generalized Sinkhorn in the log domain, relaxed by ``omega`` and
    translated, with the full primal and dual evaluated every 5th iteration.

    The loop stops when primal - dual <= tol (1 + |primal|) and the
    first-order residuals |sigma_i - exp(-phi_i)| are at most max(tol, 1e-9),
    with the potentials clamped as the package clamps them.  Returns
    (primal, iterations, converged, plan).
    """
    with np.errstate(divide="ignore"):
        log_k = (np.where(nu_w > 0, np.log(np.maximum(nu_w, 1e-300)), -math.inf)
                 - np.where(np.isinf(cost), math.inf, cost) / eps)
    lim = 745.0 + 40.0 / eps

    def primal(gamma):
        pos = gamma > 0
        if np.any(pos & np.isinf(cost)):
            return math.inf
        return (_kl_divergence(gamma.sum(1), mu0_w) + _kl_divergence(gamma.sum(0), mu1_w)
                + float(np.sum(cost[pos] * gamma[pos])) + eps * _kl_divergence(gamma, nu_w))

    def stop(f, g, gamma):
        phi0, phi1 = eps * np.clip(f, -2.0 * lim, lim), eps * np.clip(g, -2.0 * lim, lim)
        dual, res = 0.0, 0.0
        for m, p, marg in ((mu0_w, phi0, gamma.sum(1)), (mu1_w, phi1, gamma.sum(0))):
            pos = m > 0
            dual += float(np.sum(m[pos] * (1.0 - np.exp(-p[pos]))))
            res = max(res, float(np.max(np.abs(marg[pos] / m[pos] - np.exp(-p[pos])))))
        with np.errstate(invalid="ignore"):
            expo = np.minimum((phi0[:, None] + phi1[None, :] - cost) / eps, 700.0)
        pos = nu_w > 0
        dual += eps * float(np.sum(nu_w[pos] * (1.0 - np.exp(expo[pos]))))
        value = primal(gamma)
        return value - dual <= tol * (1.0 + abs(value)) and res <= max(tol, 1e-9)

    iters, gamma, stopped = log_domain_sinkhorn(log_k, mu0_w, mu1_w, eps, omega, max_iters, 5, stop)
    return primal(gamma), iters, stopped, gamma


def second_order_H_tilde(s0, s1, w0, w1, H_val):
    """Second-order perspective: w0 * H when the density pair agrees, else +inf.

    A zero shared density annihilates the cost even when H is +inf (the
    contribution of a null set).
    """
    a0, a1, b0, b1, h = np.broadcast_arrays(
        np.asarray(s0, dtype=float),
        np.asarray(s1, dtype=float),
        np.asarray(w0, dtype=float),
        np.asarray(w1, dtype=float),
        np.asarray(H_val, dtype=float),
    )
    scalar = a0.ndim == 0
    if np.any(a0 < 0) or np.any(a1 < 0):
        raise ValueError("radial arguments must be nonnegative")
    if np.any(b0 < 0) or np.any(b1 < 0):
        raise ValueError("density arguments must be nonnegative")
    agree = b0 == b1
    prod = np.where(b0 == 0, 0.0, np.where(b0 == 0, 1.0, b0) * h)
    out = np.where(agree, prod, np.inf)
    return float(out) if scalar else out


def solve_second_order_full_w(mu0, mu1, cost, grids) -> float:
    """Second-order LP over the full (w0, w1) grid with the sharp gate.

    Atoms with w0 != w1 price at +inf and are dropped, so the value must
    coincide with the shared-w reduction; kept to assert exactly that.
    """
    n0, n1 = mu0.ground.size, mu1.ground.size
    grid0, grid1, grid_w = grids
    k0, k1, kw = grid0.size, grid1.size, grid_w.size
    s0, s1, wv = grid0.nodes, grid1.nodes, grid_w.nodes

    hbase = perspective_H(
        s0[None, None, :, None],
        s1[None, None, None, :],
        cost.values[:, :, None, None],
    )
    htilde = second_order_H_tilde(
        s0[None, None, :, None, None, None],
        s1[None, None, None, :, None, None],
        wv[None, None, None, None, :, None],
        wv[None, None, None, None, None, :],
        hbase[..., None, None],
    ).ravel()

    nvars = n0 * n1 * k0 * k1 * kw * kw
    idx = np.arange(nvars)
    i0 = idx // (n1 * k0 * k1 * kw * kw)
    i1 = (idx // (k0 * k1 * kw * kw)) % n1
    j0 = (idx // (k1 * kw * kw)) % k0
    j1 = (idx // (kw * kw)) % k1
    jw0 = (idx // kw) % kw
    jw1 = idx % kw
    keep = np.flatnonzero(np.isfinite(htilde))
    a = np.zeros((n0 + n1, keep.size))
    cols = np.arange(keep.size)
    a[i0[keep], cols] += (s0[j0] * wv[jw0])[keep]
    a[n0 + i1[keep], cols] += (s1[j1] * wv[jw1])[keep]
    b = np.concatenate([mu0.weights, mu1.weights])
    res = solve_lp(htilde[keep], a, b)
    if not res.optimal:
        raise InfeasibleProblemError("full-density second-order LP infeasible")
    return res.value


def relaxed_lp_value(cost, families, prices):
    """Dense LP of an atom cost tensor with each family relaxed to <=: a
    slack column per row, priced at the family's entry of ``prices``,
    solved by scipy's HiGHS."""
    n = cost.size
    blocks, b, c = [], [], [cost.ravel()]
    for (rows, coeff, target), price in zip(families, prices):
        a = np.zeros((np.size(target), n))
        a[np.broadcast_to(rows, cost.shape).ravel(), np.arange(n)] = (
            np.broadcast_to(coeff, cost.shape).ravel())
        blocks.append(a)
        b.append(np.ravel(target))
        c.append(np.full(np.size(target), price))
    a = np.vstack(blocks)
    ref = linprog(np.concatenate(c), A_eq=np.hstack([a, np.eye(a.shape[0])]),
                  b_eq=np.concatenate(b), bounds=(0, None), method="highs")
    assert ref.status == 0
    return ref.fun
