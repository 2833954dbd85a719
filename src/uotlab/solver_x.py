"""Original-space regularised unbalanced transport.

Implements the four equivalent functionals of the problem

    UOT_eps(mu0, mu1) = inf_gamma  sum_i Div(gamma_i | mu_i) + (c, gamma)
                                   + eps * Div(gamma | nu_X)

over plans gamma on the product support, Div the KL divergence of
``entropy``, together with a generalized Sinkhorn solver.  The solver
performs exact alternating maximisation of the concave dual

    D(phi) = sum_i mu_i(1 - exp(-phi_i))
             + eps * nu_X(1 - exp((phi_0 + phi_1 - c)/eps)),

whose block updates close to a = (mu0 / (K b))^(1/(1+eps)) with scaling
variables a = exp(phi_0/eps), b = exp(phi_1/eps) and kernel
K = exp(-c/eps) * nu_X.  ``scaling_kernel`` runs these updates, the
balanced ones (exponent 1) of ``identities`` and the tilt projections of
``solver_y``, each as its own marginal step (a ``ScalingStep``) from zero
potentials, by mat-vecs on one kernel with absorbed log-potentials, which
keeps eps <= 1e-3, underflowing rows and infinite costs exact.  Each step
over-relaxes itself under its own guard, a relaxed step kept only where the
dual does not decrease: summed over a side's lines for the KL and balanced
steps (``proximal_step``), point by point for the tilts.  The KL steps are
also translated along the dual's shift mode (phi_0 + t, phi_1 - t) after
each iteration; guard and translation cost O(n) per iteration.
Convergence checks read the marginals the sweep computes and certify the
gap by Fenchel-Young terms, in O(n); the report reuses them, as a scaling
plan's primal value is its dual plus that gap.  A side with no mass needs no
case of its own, here (the kernel empties its lines) or in the ray LP.

Solver state is confined to each solve call; distinct solves may run in
parallel and results are deterministic for a fixed thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .costs import CostMatrix, perspective_H_eps
from .entropy import F_ZERO, R, F_star, divergence_arrays
from .measures import (DiscreteMeasure, GroundMismatchError, Plan, _frozen_array, _read_only,
                       split_arrays)
from .simplex import atom_lp

_EXP_CLIP = 700.0  # exp overflow guard
_LOG_TINY = -745.0  # log of the smallest positive double, used to clamp potentials


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualPotentials:
    """Pair of dual potential vectors over the two supports."""

    phi0: np.ndarray
    phi1: np.ndarray

    def __post_init__(self):
        for field in ("phi0", "phi1"):
            _frozen_array(self, field, "dual potentials", ndim=1)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls; tolerance is a relative duality-gap target."""

    eps: float
    max_iters: int = 10_000
    tolerance: float = 1e-9

    def __post_init__(self):
        # chained comparisons are False for nan, so nan and inf fail both
        if not (0.0 < self.eps < math.inf):
            raise ValueError("eps must be positive and finite")
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError("tolerance must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class SolveReport:
    primal: float
    dual: float
    gap: float
    iterations: int
    marginal_residuals: tuple[float, float]
    converged: bool


# ---------------------------------------------------------------------------
# Shape checks and shared pieces
# ---------------------------------------------------------------------------

def _check_instance(mu0: DiscreteMeasure, mu1: DiscreteMeasure, cost: CostMatrix,
                    reference):
    """The cost's shape, and the grounds of a reference (a ``Plan`` or a
    ``solver_y.AtomPlan``, or None for none) against those of mu0 and mu1."""
    n0, n1 = mu0.ground.size, mu1.ground.size
    if cost.shape != (n0, n1):
        raise GroundMismatchError(
            f"cost shape {cost.shape} does not match supports ({n0}, {n1})"
        )
    if reference is not None:
        if reference.row_ground is not mu0.ground or reference.col_ground is not mu1.ground:
            raise GroundMismatchError("reference must live on the same grounds")


def default_nu_x(mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> Plan:
    """Product reference normalized to a probability measure."""
    m = mu0.total_mass * mu1.total_mass
    if m <= 0:
        raise ValueError("default reference needs both measures to carry mass")
    w = np.outer(mu0.weights, mu1.weights)
    w /= m
    return Plan(mu0.ground, mu1.ground, _read_only(w))


def _coupling_value(cost: np.ndarray, gamma: np.ndarray) -> float:
    """(c, gamma) with the 0 * inf = 0 convention on gamma-null pairs."""
    pos = gamma > 0
    if np.any(pos & np.isinf(cost)):
        return math.inf
    return float(np.sum(np.where(pos, cost, 0.0) * gamma))


# ---------------------------------------------------------------------------
# Functional evaluators
# ---------------------------------------------------------------------------

def eval_primal_eps(plan: Plan, mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                    cost: CostMatrix, nu_x: Plan, eps: float) -> float:
    """Primal value Div(g0|mu0) + Div(g1|mu1) + (c,g) + eps*Div(g|nu_X)."""
    _check_instance(mu0, mu1, cost, nu_x)
    return (eval_primal_unreg(plan, mu0, mu1, cost)
            + eps * divergence_arrays(plan.weights, nu_x.weights))


def eval_dual_eps(phi: DualPotentials, mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                  cost: CostMatrix, nu_x: Plan, eps: float) -> float:
    """Dual value sum_i mu_i(-F*(-phi_i)) + eps*nu_X(-F*((phi0+phi1-c)/eps)).

    Integrals run over the supports of mu_i and nu_X only, so clamped
    potentials at zero-mass points cannot overflow.
    """
    _check_instance(mu0, mu1, cost, nu_x)
    total = 0.0
    for m, p in ((mu0.weights, phi.phi0), (mu1.weights, phi.phi1)):
        pos = m > 0
        total += float(np.sum(m[pos] * (-F_star(-p[pos]))))
    expo = (phi.phi0[:, None] + phi.phi1[None, :] - cost.values) / eps
    expo = np.minimum(expo, _EXP_CLIP)
    pos = nu_x.weights > 0
    total += eps * float(np.sum(nu_x.weights[pos] * (-F_star(expo[pos]))))
    return total


def eval_reverse_eps(plan: Plan, mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                     cost: CostMatrix, nu_x: Plan, eps: float) -> float:
    """Reverse value with densities of (mu_i, nu_X) relative to the plan."""
    _check_instance(mu0, mu1, cost, nu_x)
    g = plan.weights
    g0, g1 = g.sum(axis=1), g.sum(axis=0)
    rho0, sing0 = split_arrays(mu0.weights, g0)
    rho1, sing1 = split_arrays(mu1.weights, g1)
    varrho, sing_nu = split_arrays(nu_x.weights, g)

    pos = g > 0
    integrand = np.zeros_like(g)
    r0 = R(rho0)
    r1 = R(rho1)
    rr = R(varrho[pos]) if np.any(pos) else np.zeros(0)
    integrand[pos] = (
        r0[np.nonzero(pos)[0]] + r1[np.nonzero(pos)[1]] + cost.values[pos] + eps * rr
    )
    if np.any(np.isinf(integrand[pos])):
        return math.inf
    total = float(np.sum(integrand[pos] * g[pos]))
    # plan-null masses cost R'_inf = F(0) per unit
    total += F_ZERO * float(np.sum(sing0) + np.sum(sing1))
    total += eps * F_ZERO * float(np.sum(sing_nu))
    return total


def eval_homogeneous_eps(plan: Plan, mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                         cost: CostMatrix, nu_x: Plan, eps: float) -> float:
    """Homogeneous value: regularised perspective cost of the plan densities.

    The plan-null masses of mu_i are charged at F(0) and that of nu_X at
    eps F(0), as H_eps(0, 0, S, c) = eps S: the defect terms of the extended
    formulation, and the charges of ``eval_reverse_eps``.
    """
    _check_instance(mu0, mu1, cost, nu_x)
    g = plan.weights
    g0, g1 = g.sum(axis=1), g.sum(axis=0)
    rho0, sing0 = split_arrays(mu0.weights, g0)
    rho1, sing1 = split_arrays(mu1.weights, g1)
    varrho, sing_nu = split_arrays(nu_x.weights, g)

    i_idx, j_idx = np.nonzero(g > 0)
    hvals = perspective_H_eps(
        rho0[i_idx], rho1[j_idx], varrho[i_idx, j_idx], cost.values[i_idx, j_idx], eps
    )
    total = float(np.sum(hvals * g[i_idx, j_idx]))
    total += F_ZERO * float(np.sum(sing0) + np.sum(sing1))
    total += eps * F_ZERO * float(np.sum(sing_nu))
    return total


# ---------------------------------------------------------------------------
# Generalized Sinkhorn
# ---------------------------------------------------------------------------

_ABSORB = 30.0  # |log u|, |log v| past which the scalings are absorbed into the kernel
_TINY = 1e-200  # a kernel mat-vec entry below this may have lost terms to underflow


_BLOCK = 1 << 15  # entries of the cost/eps block log_kernel subtracts at a time


def log_kernel(reference: np.ndarray, cost, eps: float) -> np.ndarray:
    """log(reference * exp(-cost/eps)), -inf where either factor vanishes.

    ``cost`` broadcasts to the reference's (rows, cols) shape.  cost/eps is
    subtracted from the log in place, a block of rows at a time, so the log
    is the one full-size array."""
    with np.errstate(divide="ignore"):
        log_k = np.log(reference)
    cost = np.broadcast_to(cost, log_k.shape)
    step = max(1, _BLOCK // max(1, log_k.shape[1]))
    for i in range(0, log_k.shape[0], step):
        log_k[i:i + step] -= cost[i:i + step] / eps
    return log_k


_BALANCED_OMEGA = 1.5  # over-relaxation of balanced steps


class ScalingStep(NamedTuple):
    """One marginal step of ``scaling_kernel``, with its translation.

    ``update(side, m, old)`` returns the side's new log-potentials from the m
    of ``scaling_kernel`` and the side's current log-potentials ``old``, whose
    lines carry plan mass exp(old + m): a step that relaxes itself reads its
    guard from them (``proximal_step``, ``solver_y._tilt_step``).
    ``shift(f, g)``, or None for no translation, returns the t that
    maximises the dual along (f + t, g - t).
    """

    update: Callable
    shift: Optional[Callable]


def proximal_step(mu0_w: np.ndarray, mu1_w: np.ndarray, kappa: float) -> ScalingStep:
    """The closed-form marginal step (log mu - m)/(1 + kappa) of
    ``scaling_kernel``, relaxed under a guard and translated for KL marginals.

    ``kappa`` is eps over the weight of the marginal penalty: eps for the KL
    marginals of ``solve_x_eps``, 0 for the fixed marginals of a balanced
    problem.  In log-potentials p = phi/eps each side adds
    sum mu (1 - exp(-kappa p))/kappa to the dual over eps (sum mu p at
    kappa 0), and the step maximises that less the plan mass.

    On the lines where ``old`` and the plain step are both finite, the update
    moves old by d = omega (step - old) if that does not lower the dual,
    summed over the side's lines: the separable change
    sum mu exp(-kappa old) (1 - exp(-kappa d))/kappa (sum mu d at kappa 0)
    less the change of plan mass sum exp(old + m) (exp(d) - 1), in O(n); else,
    or when that sum is not finite, it returns the plain step.  omega is
    max(1, 2/(1 + sqrt(2 kappa))) for KL marginals (Thibault, Chizat, Dossal
    and Papadakis, arXiv:1711.01851), the plain step from kappa 1/2 up, and
    1.5 for balanced ones.  The KL translation is
    t = (LSE(log mu0 - kappa f) - LSE(log mu1 - kappa g)) / (2 kappa) over the
    lines with mass and a finite potential, 0 when either side has none:
    the closed-form maximiser of the dual along (f + t, g - t) (Sejourne,
    Vialard and Peyre, arXiv:2201.00730).  A balanced dual is constant
    along that line, so balanced steps have no translation.
    """
    with np.errstate(divide="ignore"):
        log_mu = (np.log(mu0_w), np.log(mu1_w))
    mus = (mu0_w, mu1_w)
    damp = 1.0 / (1.0 + kappa)
    omega = _BALANCED_OMEGA if kappa == 0.0 else max(1.0, 2.0 / (1.0 + math.sqrt(2.0 * kappa)))

    def _update(side, m, old):
        # a zero-mass line comes out -inf or nan, and an overflowing change rejects
        with np.errstate(over="ignore", invalid="ignore"):
            new = damp * (log_mu[side] - m)
            if omega == 1.0:
                return new
            use = np.isfinite(old) & np.isfinite(new)
            p, d, mu = old[use], omega * (new[use] - old[use]), mus[side][use]
            sep = (mu * d if kappa == 0.0
                   else mu * np.exp(-kappa * p) * -np.expm1(-kappa * d) / kappa)
            gain = np.sum(sep - np.exp(p + m[use]) * np.expm1(d))
        if 0.0 <= gain < math.inf:  # false for nan
            new[use] = p + d
        return new

    if kappa == 0.0:
        return ScalingStep(_update, None)

    def _shift(f, g):
        lse = []
        for lm, p in zip(log_mu, (f, g)):
            lines = np.isfinite(lm) & np.isfinite(p)
            if not lines.any():
                return 0.0
            z = lm[lines] - kappa * p[lines]
            top = z.max()
            lse.append(top + math.log(np.sum(np.exp(z - top))))
        return 0.5 * (lse[0] - lse[1]) / kappa

    return ScalingStep(_update, _shift)


def scaling_kernel(log_k: np.ndarray, mu0_w: np.ndarray, mu1_w: np.ndarray,
                   step: ScalingStep, max_iters: int, check_every: int,
                   check: Callable) -> tuple[int, np.ndarray, object]:
    """Alternate f = step.update(0, m, f) with m_i = LSE_j(g_j + log_k_ij),
    then g likewise, from zero potentials f and g.

    With f = alpha + log u and g = beta + log v, the absorbed parts live in
    one kernel K = exp(alpha_i + beta_j + log_k_ij), so m is the log of one
    mat-vec less the side's absorbed part.  K is rebuilt when |log u| or
    |log v| passes ``_ABSORB`` (absorbing both), and, with that side's lines
    peaking at 1 so m is exact, before the first half-step and whenever a
    line with mass gets a mat-vec entry below ``_TINY``.  Zero-mass lines
    get -inf whatever the step returns; a line with mass and no reachable
    partner has m = -inf.  A step with a shift translates f by +t and g by
    -t after each iteration, moving the absorbed parts with them, so K, u, v
    and the plan stay as they are.

    ``check(f, g, marg0, marg1)`` runs after every ``check_every``-th
    iteration and after the last, with both marginals of the plan
    exp(f_i + g_j + log_k_ij) (the row mat-vec is reused by the next
    half-step), and returns (stop, result); a true stop ends the sweep.  The
    potentials are the kernel's own arrays, so a check copies what it keeps
    of them into its result.  Returns (iterations, that plan in the kernel's
    storage, read-only, the last check's result).
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    null = (mu0_w <= 0, mu1_w <= 0)
    live = [~null[0], ~null[1]]  # lines with mass, less those found out of reach
    pot = [np.zeros(log_k.shape[0]), np.zeros(log_k.shape[1])]
    absorbed, scal = [None, None], [None, None]
    kern = np.empty_like(log_k)
    lines, log_lines = (kern, kern.T), (log_k, log_k.T)
    bound = math.exp(_ABSORB)

    def rescale(side):
        # clipped: a +inf line (no reachable partner) has an all-zero kernel line
        scal[side] = np.exp(np.minimum(pot[side] - absorbed[side], _EXP_CLIP))

    def drifted(side):
        if 1.0 / bound <= scal[side].min() and scal[side].max() <= bound:
            return False
        d = pot[side] - absorbed[side]
        return np.max(np.abs(d), where=np.isfinite(d), initial=0.0) > _ABSORB

    def rebuild(normalise=None):
        ext = [np.where(np.isfinite(p), p, -math.inf) for p in pot]
        if normalise is None:
            np.add(log_k, ext[0][:, None], out=kern)
            np.add(kern, ext[1], out=kern)
        else:
            lines_s = lines[normalise]
            np.add(log_lines[normalise], ext[1 - normalise], out=lines_s)
            peak = np.max(lines_s, axis=1)
            live[normalise] &= np.isfinite(peak)
            ext[normalise] = np.where(np.isfinite(peak), -peak, 0.0)
            lines_s += ext[normalise][:, None]
        np.exp(kern, out=kern)
        for s in (0, 1):
            absorbed[s] = np.where(np.isfinite(ext[s]), ext[s], 0.0)
            rescale(s)

    def half_step(side, prod=None):
        if prod is None:
            prod = lines[side] @ scal[1 - side]
        if prod.min() < _TINY and np.min(prod, where=live[side], initial=math.inf) < _TINY:
            rebuild(normalise=side)
            prod = lines[side] @ scal[1 - side]
        new = step.update(side, np.log(prod) - absorbed[side], pot[side])
        new[null[side]] = -math.inf
        pot[side] = new
        rescale(side)
        return prod

    with np.errstate(divide="ignore", invalid="ignore"):
        rebuild(normalise=0)
        prod0 = None
        for iters in range(1, max_iters + 1):
            half_step(0, prod0)
            prod1 = half_step(1)
            prod0 = None
            if step.shift is not None:
                # alpha + t and beta - t: K, the scalings and the plan stay as they are
                t = step.shift(pot[0], pot[1])
                for s, shift in ((0, t), (1, -t)):
                    pot[s] += shift
                    absorbed[s] += shift
            if iters % check_every == 0 or iters == max_iters:
                prod0 = kern @ scal[1]
                stop, result = check(pot[0], pot[1], scal[0] * prod0, scal[1] * prod1)
                if stop:
                    break
            if drifted(0) or drifted(1):
                rebuild()
                prod0 = None
        rebuild()
    return iters, _read_only(kern), result


def _clamped_potentials(f, g, eps: float) -> tuple[np.ndarray, np.ndarray]:
    # clamp so that exp((phi0 + phi1 - c)/eps) underflows exactly at the
    # clamped points while mu-side terms stay negligible; -inf (zero mass)
    # clamps twice as far as +inf (mass, no reachable partner), so a pair of
    # the two never cancels
    lim = -_LOG_TINY + 40.0 / eps
    return eps * np.clip(f, -2.0 * lim, lim), eps * np.clip(g, -2.0 * lim, lim)


def _assess(phi0, phi1, marg0, marg1, mu0_w, mu1_w, eps: float, nu_mass: float):
    """Dual, Fenchel-Young gap and KL marginal residuals of the scaling plan
    gamma = nu_X exp((phi0 + phi1 - c)/eps), in O(n) from its marginals.

    The dual's coupling term is eps * (nu_X(X) - gamma(X)); with s_i the
    marginal densities, the gap sum_i mu_i (F(s_i) + F*(-phi_i) + s_i phi_i)
    is exactly primal - dual, each term clamped at 0 against rounding.  The
    residuals are max_i |s_i - exp(-phi_i)|.  Returns (dual, gap, residuals).
    """
    dual = eps * (nu_mass - float(np.sum(marg1)))
    gap, res = 0.0, []
    for m, p, marg in ((mu0_w, phi0, marg0), (mu1_w, phi1, marg1)):
        pos = m > 0
        m, p = m[pos], p[pos]
        dual += float(np.sum(m * -np.expm1(-p)))
        s, w = marg[pos] / m, np.exp(-p)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(s > 0, s * (np.log(s) + p) - s + w, w)
        gap += float(np.sum(m * np.maximum(terms, 0.0)))
        res.append(float(np.max(np.abs(s - w), initial=0.0)))
    return dual, gap, tuple(res)


def _converged(gap: float, primal: float, residuals, tol: float) -> bool:
    """The loop's stop test and the final verdict; residuals count, as the side
    updated first lags half an iteration and a small gap leaves them ~sqrt(gap)."""
    return gap <= tol * (1.0 + abs(primal)) and max(residuals) <= max(tol, 1e-9)


def solve_x_eps(mu0: DiscreteMeasure, mu1: DiscreteMeasure, cost: CostMatrix,
                nu_x: Optional[Plan], config: SolverConfig,
                ) -> tuple[Plan, DualPotentials, SolveReport]:
    """Generalized Sinkhorn for the KL-penalised regularised problem.

    One ``scaling_kernel`` call runs the KL steps from zero potentials until
    the Fenchel-Young gap and the first-order marginal residuals, checked
    every 5 iterations from the marginals the sweep computes, meet
    ``config.tolerance``, or for ``config.max_iters`` iterations.  Each
    check's result is its assessment (dual, gap, residuals, verdict) and its
    clamped potentials, and the returned potentials and report are the
    result of the loop's last check, which sees both marginals of the
    returned plan, the scaling plan of those potentials: its primal value is
    dual + gap, and ``converged`` is the stop test itself.  ``nu_x`` None is
    ``default_nu_x``, dropped once the log-kernel is built, so that the sweep
    holds the log-kernel and the kernel alone.
    """
    if nu_x is None:
        nu_x = default_nu_x(mu0, mu1)
    _check_instance(mu0, mu1, cost, nu_x)
    eps = config.eps
    mu0_w, mu1_w = mu0.weights, mu1.weights
    nu_mass = float(np.sum(nu_x.weights))
    log_k = log_kernel(nu_x.weights, cost.values, eps)
    del nu_x  # from here on only its mass is needed

    def check(f, g, marg0, marg1):
        phi = _clamped_potentials(f, g, eps)
        dual, gap, res = _assess(*phi, marg0, marg1, mu0_w, mu1_w, eps, nu_mass)
        converged = _converged(gap, dual + gap, res, config.tolerance)
        return converged, (dual, gap, res, converged, phi)

    iters, gamma, result = scaling_kernel(
        log_k, mu0_w, mu1_w, proximal_step(mu0_w, mu1_w, eps), config.max_iters, 5, check)

    dual, gap, res, converged, phi = result
    report = SolveReport(dual + gap, dual, gap, iters, res, converged)
    return Plan(mu0.ground, mu1.ground, gamma), DualPotentials(*phi), report


# ---------------------------------------------------------------------------
# Unregularised problem
# ---------------------------------------------------------------------------

def eval_primal_unreg(plan: Plan, mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                      cost: CostMatrix) -> float:
    """Unregularised value Div(g0|mu0) + Div(g1|mu1) + (c,g)."""
    g = plan.weights
    total = divergence_arrays(g.sum(axis=1), mu0.weights)
    total += divergence_arrays(g.sum(axis=0), mu1.weights)
    total += _coupling_value(cost.values, g)
    return total


def _c_transform_dual(sigma0, mu0_w, mu1_w, cost) -> float:
    """Lower bound from the double c-transform of phi0 = -log sigma0.

    Potentials are -inf (no constraint) where sigma0 vanishes and at
    zero-mass points, which the dual does not weigh; phi1 = min_i (c_ij -
    phi0_i) and phi0 = min_j (c_ij - phi1_j) run over finite costs, +inf for
    a potential with no finite constraint, so phi0 + phi1 <= c and each
    transform only raises the dual sum mu_i (1 - exp(-phi_i)).
    """
    finite = np.isfinite(cost)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi0 = np.where((sigma0 > 0) & (mu0_w > 0), -np.log(sigma0), -math.inf)
        phi1 = np.min(np.where(finite, cost - phi0[:, None], math.inf), axis=0)
        phi1[mu1_w <= 0] = -math.inf
        phi0 = np.min(np.where(finite, cost - phi1, math.inf), axis=1)
        return sum(float(np.sum(m[m > 0] * -np.expm1(-p[m > 0])))
                   for m, p in ((mu0_w, phi0), (mu1_w, phi1)))


_RAY_ROUNDS = 200  # round cap of solve_x_unreg's column generation
_RAY_ENTER = -2e-12  # reduced cost below which a pair's best ray enters


def _best_ray(alpha, beta, k_half):
    """(a, cost) of the ray (a, 1 - a) of least a alpha + b beta - 2 sqrt(ab)
    k_half: the least eigenvalue (alpha + beta - r)/2, r = hypot(alpha - beta,
    2 k_half), of [[alpha, -k_half], [-k_half, beta]] at its unit eigenvector
    (sqrt a, sqrt b), negative iff alpha beta < k_half^2; a is nan at r = 0."""
    diff = alpha - beta
    r = np.hypot(diff, 2.0 * k_half)
    with np.errstate(invalid="ignore"):
        a = 0.5 * (1.0 - diff / r)
    return a, 0.5 * (alpha + beta - r)


def solve_x_unreg(mu0: DiscreteMeasure, mu1: DiscreteMeasure, cost: CostMatrix
                  ) -> tuple[Plan, SolveReport]:
    """Minimise the unregularised functional Div+Div+(c, .).

    Balanced transport is ``simplex.transport_lp``.  Solves the cone
    formulation's LP over rays (a, 1 - a) per pair at cost
    H(a, b, c) = a + b - 2 sqrt(ab) exp(-c/2), a in row i (target mu0_i) and
    b in row j (target mu1_j), by column generation on ``simplex.atom_lp``:
    round 1 holds the unit a and b columns at cost F(0) = 1, and each round
    starts from the last one's basis and adds, for every pair of two points
    with mass pricing below -2e-12, its ``_best_ray`` under alpha = 1 - u_i,
    beta = 1 - v_j from the row duals.  ``dual`` is the best double
    c-transform bound of max(alpha, 0); the loop stops once the LP value is
    within 1e-9 (1 + |value|) of it, when no pair prices negative, or after
    ``_RAY_ROUNDS`` rounds (``iterations``).  The plan is
    gamma_ij = sum_k x_k sqrt(a_k b_k) exp(-c_ij/2) over the pair's rays,
    ``primal`` its value, gap = primal - dual, and ``converged`` holds at a
    finite primal and a gap of at most 1e-9 (1 + |primal|).  When not even
    round 1 ends optimal, the plan is 0, the dual -inf and the gap +inf.
    """
    _check_instance(mu0, mu1, cost, None)
    mu0_w, mu1_w, c = mu0.weights, mu1.weights, cost.values
    n0, n1 = c.shape
    k_half = np.exp(-0.5 * c)  # 0 on infinite costs, which never price negative
    massive = (mu0_w[:, None] > 0) & (mu1_w[None, :] > 0)
    # the unit a columns of rows i, then the unit b columns of rows j
    i_col = np.r_[np.arange(n0), np.zeros(n1, dtype=int)]
    j_col = np.r_[np.zeros(n0, dtype=int), np.arange(n1)]
    a_col = np.r_[np.ones(n0), np.zeros(n1)]
    price = np.ones(n0 + n1)
    start = (np.arange(n0 + n1), np.arange(n0 + n1))
    dual, lp = -math.inf, None
    for rounds in range(1, _RAY_ROUNDS + 1):
        res = atom_lp(price, [(i_col, a_col, mu0_w), (j_col, 1.0 - a_col, mu1_w)], start=start)
        if not res.optimal:  # a pivot cap: the last optimal round stands
            break
        lp, start = res, res.basis
        alpha = np.maximum(1.0 - res.duals[:n0], 0.0)
        beta = np.maximum(1.0 - res.duals[n0:], 0.0)
        dual = max(dual, _c_transform_dual(alpha, mu0_w, mu1_w, c))
        if res.value - dual <= 1e-9 * (1.0 + abs(res.value)):
            break
        a, reduced = _best_ray(alpha[:, None], beta[None, :], k_half)
        i, j = np.nonzero(massive & (reduced < _RAY_ENTER))
        if i.size == 0:
            break
        a = a[i, j]
        i_col, j_col, a_col = np.r_[i_col, i], np.r_[j_col, j], np.r_[a_col, a]
        price = np.r_[price, 1.0 - 2.0 * np.sqrt(a * (1.0 - a)) * k_half[i, j]]

    if lp is None:  # no round solved: the zero plan, which destroys every mass
        gamma = np.zeros((n0, n1))
    else:
        k = lp.x.size  # the columns of the last optimal round
        weight = lp.x * np.sqrt(a_col[:k] * (1.0 - a_col[:k]))
        gamma = np.bincount(i_col[:k] * n1 + j_col[:k], weight, n0 * n1).reshape(n0, n1) * k_half
    plan = Plan(mu0.ground, mu1.ground, _read_only(gamma))
    primal = eval_primal_unreg(plan, mu0, mu1, cost)
    gap = primal - dual
    converged = math.isfinite(primal) and gap <= 1e-9 * (1.0 + abs(primal))
    return plan, SolveReport(primal, dual, gap, rounds, (0.0, 0.0), converged)


# ---------------------------------------------------------------------------
# Identities between the regularisation conventions
# ---------------------------------------------------------------------------

def _plain_kl(gamma: np.ndarray, ref: np.ndarray) -> float:
    """sum gamma log(gamma/ref) - gamma, the convention without the +ref term."""
    pos = gamma > 0
    if np.any(pos & (ref <= 0)):
        return math.inf
    t = gamma[pos]
    return float(np.sum(t * np.log(t / ref[pos]) - t))


def check_remark_identities(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                            cost: CostMatrix, nu_x: Optional[Plan], eps: float,
                            seed: int = 0) -> dict:
    """Cross-check the three regularisation conventions and the homogeneity
    functional rewrite.

    Evaluates, at one converged plan, the value with the full divergence
    penalty, the variant with F(s) = s log s - s, and the variant that
    absorbs the cost into the reference exp(-c/eps) nu_X; returns the
    residuals of the affine relations tying them together.  Also compares
    the two algebraic forms of the mass-normalised product-reference
    penalty on a random plan.
    """
    if nu_x is None:
        nu_x = default_nu_x(mu0, mu1)
    cfg = SolverConfig(eps=eps, max_iters=50_000, tolerance=1e-12)
    plan, _, rep = solve_x_eps(mu0, mu1, cost, nu_x, cfg)
    g = plan.weights
    nu_w = nu_x.weights
    nu_mass = float(np.sum(nu_w))

    value = rep.primal
    marg_cost = value - eps * divergence_arrays(g, nu_w)

    tilde_value = marg_cost + eps * _plain_kl(g, nu_w)
    residual_tilde = abs(value - (tilde_value + eps * nu_mass))

    bar_ref = np.where(np.isinf(cost.values), 0.0, np.exp(-np.minimum(cost.values, _EXP_CLIP) / eps)) * nu_w
    bar_marg = marg_cost - _coupling_value(cost.values, g)
    bar_value = bar_marg + eps * divergence_arrays(g, bar_ref)
    residual_bar = abs(value - (bar_value - eps * float(np.sum(bar_ref)) + eps * nu_mass))

    # two forms of the homogeneity-preserving penalty, on a random plan
    rng = np.random.default_rng(seed)
    m0, m1 = mu0.total_mass, mu1.total_mass
    base = np.outer(mu0.weights, mu1.weights)
    gamma_rand = base * rng.uniform(0.25, 4.0, size=base.shape)
    half_form = 0.5 * (
        divergence_arrays(gamma_rand, base / m0)
        + divergence_arrays(gamma_rand, base / m1)
    )
    c0 = 0.5 * math.log(m0 * m1)
    c1 = 2.0 * m0 * m1 / (m0 + m1)
    sigma, _ = split_arrays(gamma_rand, base)
    pos = base > 0
    s = sigma[pos]
    g_form = float(np.sum(np.where(s > 0, s * np.log(np.where(s > 0, s, 1.0)), 0.0) * base[pos]))
    g_form += (c0 - 1.0) * float(np.sum(gamma_rand)) + float(np.sum(base)) / c1
    residual_g = abs(half_form - g_form)

    return {
        "uot_eps": value,
        "tilde_value": tilde_value,
        "bar_value": bar_value,
        "residual_tilde": residual_tilde,
        "residual_bar": residual_bar,
        "residual_g_forms": residual_g,
        "solver_gap": rep.gap,
    }
