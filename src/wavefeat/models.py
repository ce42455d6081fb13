"""Learners: linear discriminant analysis, one-vs-rest logistic regression,
and hierarchical agglomerative clustering.

LDA pools the within-class covariance and inverts it with every eigenvalue
raised to a floor of rel_tol times the largest, so it stays usable when
features outnumber samples: the directions in which no class spreads get the
floor variance and weigh most, instead of being ignored.  Logistic regression
minimizes mean logistic loss plus a ridge or a lasso penalty.  The ridge
solution lies in the row space of the m training rows, so Newton's method
solves it in min(m, n) coordinates plus the intercept, not in the n feature
coordinates.  The lasso is solved by the barrier method of Koh, Kim & Boyd
(JMLR 2007), whose Newton systems, like the ridge's, are solved in the
m-dimensional row space, with the one-vs-rest classes stepping together and
gap-safe screening leaving out of each class's systems the columns that are
zero at the optimum; it stops at a duality gap of 1e-10, and Newton's method
on the support with the signs fixed then gives exact zeros.  A lasso class
converges when the KKT residual of the full objective (the largest entry of
its minimum-norm subgradient) is at most the tolerance.  Clustering is
agglomerative on the distance matrix of ``pairwise_distances`` (the
euclidean and cosine matrices read one Gram matrix, ``gram_matrix``), and
``cut_tree`` and ``dendrogram_export`` read the merge list ``hac_fit``
returns.  ``hac_fit`` runs Muellner's algorithms (arXiv:1109.2378) in numpy:
Prim's minimum spanning tree for single linkage and the nearest-neighbour
chain for the others, with scipy's floating-point operations and tie-breaks,
so its merges are byte-identical to scipy's ``linkage`` and no process
imports scipy to cluster.  It links K precomputed matrices of one size in
one call.  A chain walk is sequential, but the walks of a call are
independent, so when there are at least as many chain walks as rows they
advance side by side, one numpy call per step for all of them; fewer walks
run one by one, which costs less there.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, NumericalError

AFFINITIES = ("euclidean", "manhattan", "cosine")
LINKAGES = ("single", "complete", "average", "ward")
PENALTIES = ("l1", "l2")
GRAM_BLOCK_ROWS = 64  # most rows whose squares gram_matrix holds at once


# ----------------------------------------------------------------------
# linear discriminant analysis
# ----------------------------------------------------------------------

@dataclass
class LdaModel:
    classes: list
    means: np.ndarray          # (n_classes, n_features)
    log_priors: np.ndarray     # (n_classes,)
    cov_basis: np.ndarray      # (n_features, r) orthonormal
    cov_inv_eigs: np.ndarray   # (r,) inverse eigenvalues of the pooled covariance
    complement_inv_var: float  # inverse variance of every direction outside cov_basis

    def scores(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.means.shape[1]:
            raise InvalidInputError(
                f"feature dimension {x.shape[1]} does not match model "
                f"({self.means.shape[1]})")
        # (inv x, mu_s) - 0.5 (inv mu_s, mu_s) + log prior
        basis_means = self.means @ self.cov_basis                       # (S, r)
        proj_means = basis_means * self.cov_inv_eigs                    # (S, r)
        lin = (x @ self.cov_basis) @ proj_means.T                       # (m, S)
        quad = 0.5 * np.sum(proj_means * basis_means, axis=1)
        if self.complement_inv_var:
            # x . mu_perp = x . mu - (x V)(mu V): the means' part outside V.
            # Skipped at full rank, where it would add only rounding noise.
            perp_means = self.means - basis_means @ self.cov_basis.T    # (S, n)
            lin = lin + self.complement_inv_var * (x @ perp_means.T)
            quad = quad + 0.5 * self.complement_inv_var * np.sum(
                perp_means * perp_means, axis=1)
        return lin - quad + self.log_priors


def _check_fit_inputs(x, labels) -> tuple[np.ndarray, list, list]:
    """(x as a float array, labels as a list, sorted classes) after checking
    that x is a finite 2-D array with one label per row and at least 2
    classes."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidInputError("expected (n_samples, n_features)")
    labels = list(labels)
    if len(labels) != x.shape[0]:
        raise InvalidInputError("one label per sample required")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("features must be finite")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise InvalidInputError("need at least 2 classes")
    return x, labels, classes


def lda_fit(x: np.ndarray, labels, rel_tol: float = 1e-10) -> LdaModel:
    """Fit class means, priors, and the inverse of the floored pooled covariance.

    The pooled scatter is factored as C^T C / (m - S) with C the within-class
    centered data, so the inverse costs an SVD of C instead of an SVD of the
    full feature-by-feature covariance.

    Every eigenvalue of the pooled covariance below rel_tol * lambda_max,
    rel_tol in (0, 1), is raised to that floor.  The eigenvectors at or above
    the floor are kept in ``cov_basis``; all other directions (the near-null
    and null space of the scatter, which is most of the space when features
    outnumber samples) share the inverse variance ``complement_inv_var``.  At
    full rank there are no such directions, ``complement_inv_var`` is 0 and
    the model uses the Moore-Penrose inverse.  As rel_tol shrinks the rule
    tends to null-space LDA: class means are told apart first in the
    directions where no class spreads.

    If the within-class scatter is zero (for example one sample per class)
    there is no scale to floor against; the covariance is then taken as the
    identity, so the model picks the nearest class mean (Euclidean) plus the
    log prior.
    """
    if not 0.0 < rel_tol < 1.0:
        raise InvalidConfigError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    x, labels, classes = _check_fit_inputs(x, labels)
    m, n = x.shape
    s_cnt = len(classes)
    means = np.empty((s_cnt, n))
    priors = np.empty(s_cnt)
    centered = np.empty_like(x)
    arr_labels = np.asarray(labels, dtype=object)
    for i, cls in enumerate(classes):
        mask = arr_labels == cls
        cnt = int(mask.sum())
        if cnt == 0:
            raise InvalidInputError(f"class {cls!r} has no samples")
        means[i] = x[mask].mean(axis=0)
        priors[i] = cnt / m
        centered[mask] = x[mask] - means[i]
    dof = max(m - s_cnt, 1)
    # economy SVD of C: pooled covariance = V diag(sv^2/dof) V^T
    _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    eigs = sv * sv / dof
    if eigs.size and eigs[0] > 0:
        floor = rel_tol * eigs[0]
        keep = eigs >= floor
    else:
        floor = 1.0  # zero scatter: identity covariance
        keep = np.zeros(eigs.shape, dtype=bool)
    basis = vt[keep].T
    inv_eigs = 1.0 / eigs[keep] if keep.any() else np.zeros(0)
    return LdaModel(
        classes=classes,
        means=means,
        log_priors=np.log(priors),
        cov_basis=basis,
        cov_inv_eigs=inv_eigs,
        complement_inv_var=1.0 / floor if basis.shape[1] < n else 0.0,
    )


def lda_predict(model: LdaModel, x: np.ndarray) -> list:
    """Argmax of the discriminant scores; ties go to the lowest class index."""
    scores = model.scores(x)
    idx = np.argmax(scores, axis=1)  # first maximum wins ties
    return [model.classes[i] for i in idx]


# ----------------------------------------------------------------------
# one-vs-rest logistic regression
# ----------------------------------------------------------------------

@dataclass
class LrModel:
    classes: list
    weights: np.ndarray      # (n_classes, n_features)
    intercepts: np.ndarray   # (n_classes,)
    penalty: str
    inverse_reg: float       # C = 1/lambda
    converged: bool
    n_iter: int
    duality_gap: float | None = None  # largest of the classes' (l1); None for l2


def _logistic_terms(z):
    """sigma(-z) and sigma(z) sigma(-z) of margins z; the second is formed as
    e s s with e = exp(z), which stays above 0 where 1 - s rounds to 0."""
    e = np.exp(np.clip(z, -500, 500))
    s = 1.0 / (1.0 + e)
    return s, e * s * s


def _newton_binary_l2(ra, q, y, lam, grad_tol, max_iter, x0):
    """Newton's method with Armijo backtracking on mean logistic loss +
    lam ||beta||^2 over t = (beta, b); ra = [R^T, 1], so x w + b = ra t for
    w = q beta (see lr_fit).  Returns t, converged, and the Newton steps.

    Each step solves H p = -g with the (r+1) x (r+1) Hessian
    ra^T diag(s (1 - s) / m) ra + 2 lam diag(1, .., 1, 0), s = sigma(-y ra t),
    or takes the least-norm solution where badly scaled features make H
    numerically singular.  The first trial step is 1, or less if that would
    move some margin by more than 20; it is halved until the loss falls by
    1e-4 of the decrease the gradient predicts.  A step that finds no such
    decrease ends the solve unconverged.
    """
    m, k = ra.shape
    ridge = np.full(k, 2.0 * lam)
    ridge[-1] = 0.0  # intercept unpenalized

    def loss(t):
        z = y * (ra @ t)
        return float(np.mean(np.logaddexp(0.0, -z))) + lam * float(t[:-1] @ t[:-1]), z

    t = x0
    f, z = loss(t)
    for it in range(max_iter + 1):
        s, curv = _logistic_terms(z)
        grad = ra.T @ (-y * s / m) + ridge * t
        if max(np.max(np.abs(q @ grad[:-1])), abs(grad[-1])) <= grad_tol:
            return t, True, it
        if it == max_iter:
            break
        hess = (ra.T * (curv / m)) @ ra
        hess[np.diag_indices(k)] += ridge
        try:
            p = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            p = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        slope = float(grad @ p)
        # past a margin change of 20 a sample's loss is linear to within
        # e^-20, so the quadratic model says nothing there; a full step from
        # a start that saturates every margin would overshoot by far
        reach = float(np.max(np.abs(ra @ p)))
        step = 1.0 if reach <= 20.0 else 20.0 / reach
        for _ in range(50):
            new = t + step * p
            f_new, z_new = loss(new)
            if f_new <= f + 1e-4 * step * slope:
                break
            step /= 2.0
        else:
            break
        t, f, z = new, f_new, z_new
    return t, False, it


GAP_TOL = 1e-10       # the barrier stops at this duality gap
T_GROWTH = 8.0        # t grows by at most this factor per step


def _l1_residuals(x, ys, lam, w, b):
    """KKT residual per class of mean logistic loss + lam ||w||_1: the
    largest entry of the minimum-norm subgradient, max(|g_b|, max over the
    zero weights of |g_j| - lam, max over the support of
    |g_j + lam sign(w_j)|).  ys holds one +-1 target row per class, w one
    weight row.  A NaN anywhere gives NaN."""
    s, _ = _logistic_terms(ys * (w @ x.T + b[:, None]))
    coef = -ys * s / ys.shape[1]
    g = coef @ x
    sub = np.where(w != 0.0, np.abs(g + lam * np.sign(w)), np.abs(g) - lam)
    return np.maximum(np.max(sub, axis=1, initial=-np.inf), np.abs(np.sum(coef, axis=1)))


def _best_intercepts(xw, ys, b):
    """The intercept that minimises each class's mean logistic loss at fixed
    margins xw (X w, per class row), by Newton's method from b with each
    step clipped to 1, which keeps it from overshooting where the loss is
    nearly linear."""
    for _ in range(100):
        s, curv = _logistic_terms(ys * (xw + b[:, None]))
        step = np.clip(np.sum(ys * s, axis=1) / np.sum(curv, axis=1), -1.0, 1.0)
        b = b + step
        if np.all(np.abs(step) <= 1e-13 * (1.0 + np.abs(b))):
            break
    return b


def _duality_bounds(x, ys, lam, w, b):
    """(primal value, dual value, g, scale) per class of mean logistic loss +
    lam ||w||_1 at w; the dual value is a lower bound on the optimum.

    The primal value is taken at the intercept that is optimal for w, and
    the dual point is theta = sigma(-z) / m there, so sum(theta y) = 0.  With
    g = X^T (y theta), it is scaled by scale = lam / max(||g||_inf, lam) to
    make it dual feasible (Koh, Kim & Boyd 2007, sec. 2.3).  The dual value
    is -mean(p log p + (1 - p) log(1 - p)) at p = m scale theta, with
    0 log 0 = 0."""
    m = ys.shape[1]
    xw = w @ x.T
    z = ys * (xw + _best_intercepts(xw, ys, b)[:, None])
    s, _ = _logistic_terms(z)
    g = (ys * s / m) @ x
    scale = lam / np.maximum(np.max(np.abs(g), axis=1, initial=0.0), lam)
    p = s * scale[:, None]
    q = 1.0 - p
    entropy = (p * np.log(np.where(p > 0.0, p, 1.0))
               + q * np.log(np.where(q > 0.0, q, 1.0)))
    primal = np.mean(np.logaddexp(0.0, -z), axis=1) + lam * np.sum(np.abs(w), axis=1)
    return primal, -np.mean(entropy, axis=1), g, scale


def _barrier_l1(x, ys, lam, max_iter, w, b):
    """The one-vs-rest classes of an l1 fit, stepped together by the
    barrier method of Koh, Kim & Boyd ("An interior-point method for
    large-scale l1-regularized logistic regression", JMLR 8, 2007).

    Each class minimises t (mean loss + lam sum(u)) - sum log(u + w)
    - sum log(u - w) over (w, u, b) by Newton's method, from u = |w| + 1 and
    t = 1 / lam.  The iterate is held as p = u + w and q = u - w, which a
    step keeps positive exactly.  u is eliminated: its Schur complement adds
    S = diag(2 / (u^2 + w^2)) to the w block, which leaves S + t X^T D X, with
    D the loss curvature per row over m, plus the intercept row.  By the
    Woodbury identity that system is solved through the m x m matrix
    K = diag(1 / (t d)) + X S^-1 X^T (Boyd & Vandenberghe, Convex
    Optimization, app. C.4), with b by block elimination:
    K [a, q] = [1, X S^-1 r_w], db = (r_b - sum q) / sum a,
    dw = S^-1 (r_w - X^T (q + a db)).  Each class's K is the product of
    X S^-1/2 with itself over the columns the class keeps (below), formed in
    one reused buffer, and the classes' systems are solved in one batched
    call.

    The step starts at 1, or at 0.99 of the largest step that keeps p and q
    positive, and is halved until phi_t falls by 0.01 of the decrease the
    gradient predicts.  After a step of at least 0.5, t becomes
    max(T_GROWTH min(2n / gap, t), t), where the gap is the primal value
    less the best dual value so far (_duality_bounds).  A class stops at a
    gap of at most GAP_TOL, after max_iter steps, or when 50 halvings find no
    decrease.

    After every step, gap-safe screening (Ndiaye, Fercoq, Gramfort & Salmon,
    "Gap Safe Screening Rules for Sparsity Enforcing Penalties", JMLR 18,
    2017) drops the columns whose weight is 0 in every optimum.  The dual
    value D(p) = -mean(p log p + (1 - p) log(1 - p)) of _duality_bounds has
    Hessian -diag(1 / p + 1 / (1 - p)) / m, so it is (4 / m)-strongly
    concave in p, and its optimum p* is unique.  For the feasible point p of
    this step, D(p*) - D(p) >= (2 / m) ||p - p*||^2, and D(p*) is at most the
    primal value P, so ||p - p*|| <= sqrt(m (P - D(p)) / 2): the gap is the
    one at this p, not against the best dual value seen.  A weight can be
    non-zero at the optimum only where |x_j^T (y p*)| / m = lam, and
    |x_j^T (y p*)| / m <= scale |g_j| + ||x_j|| sqrt((P - D(p)) / (2 m)),
    with g and scale as _duality_bounds returns them.  So class c drops
    column j once that bound is below lam (1 - 1e-9): its weight is fixed at
    0 (p = q = u), and the column leaves the class's K, gradient and step.
    When the columns some live class keeps fall below 3/4 of the working
    set, x and the iterates are cut down to them; the duality bounds then
    read the reduced problem, whose optimum is the full one.  Returns w, u,
    b, the steps, the best dual value and the (classes, n) mask of the
    columns each class kept.
    """
    c, m = ys.shape
    n = x.shape[1]
    p = np.abs(w) + 1.0 + w
    q = np.abs(w) + 1.0 - w
    t = np.full(c, 1.0 / lam)
    steps = np.zeros(c, dtype=int)
    lower = np.full(c, -np.inf)
    kept = np.ones((c, n), dtype=bool)
    # the working set: the columns some live class keeps, their part of x
    # and their norms
    cols, xs, norms = np.arange(n), x, np.sqrt(np.einsum("ij,ij->j", x, x))
    buf = np.empty(m * n)
    kmat = np.empty((c, m, m))
    diag = np.arange(m)
    live = np.arange(c) if max_iter > 0 else np.arange(0)
    while live.size:
        k = live.size
        at = np.ix_(live, cols)
        pl, ql, kl = p[at], q[at], kept[at]
        bl, tl, yl = b[live], t[live], ys[live]
        wl = 0.5 * (pl - ql)
        z = yl * (wl @ xs.T + bl[:, None])
        s, curv = _logistic_terms(z)
        coef = -yl * s / m
        gb = tl * np.sum(coef, axis=1)
        ip, iq = 1.0 / pl, 1.0 / ql
        gw = tl[:, None] * (coef @ xs) + iq - ip
        gu = (tl * lam)[:, None] - iq - ip
        sq = pl * pl + ql * ql
        half_sq = np.where(kl, 0.25 * sq, 0.0)      # S^-1, 0 where dropped
        uws = (pl - ql) * (pl + ql) / sq            # u w S
        rw = -gw - uws * gu
        roots = np.sqrt(half_sq)
        for j in range(k):
            idx = np.flatnonzero(kl[j])
            part = buf[:m * idx.size].reshape(m, idx.size)
            # idx is in range; mode "raise" would gather into a temporary
            np.take(xs, idx, axis=1, out=part, mode="clip")
            part *= roots[j, idx]
            np.matmul(part, part.T, out=kmat[j])
        km = kmat[:k]
        km[:, diag, diag] += m / (tl[:, None] * curv)
        v = (rw * half_sq) @ xs.T
        # explicit (k, m, 2) right-hand sides: numpy 1 reads a (k, m) b as
        # k vectors, numpy 2 as one (k, m) matrix
        sol = np.linalg.solve(km, np.stack((np.ones_like(v), v), axis=2))
        a, qv = sol[..., 0], sol[..., 1]
        db = (-gb - np.sum(qv, axis=1)) / np.sum(a, axis=1)
        dw = (rw - (qv + a * db[:, None]) @ xs) * half_sq
        pq = pl * ql
        du = np.where(kl, uws * dw - gu * pq * pq / sq, 0.0)
        slope = np.sum(gw * dw + gu * du, axis=1) + gb * db
        # phi_t(step) - phi_t(0), with the barrier terms as log1p of the
        # relative changes of p and q
        rp, rq = (du + dw) * ip, (du - dw) * iq
        worst = np.min(np.minimum(rp, rq), axis=1, initial=0.0)
        step = np.where(worst < 0.0, np.minimum(1.0, -0.99 / np.minimum(worst, -1e-300)), 1.0)
        rsum, rprod = rp + rq, rp * rq
        dz = yl * (dw @ xs.T + db[:, None])
        loss0 = np.mean(np.logaddexp(0.0, -z), axis=1)
        lin = lam * np.sum(du, axis=1)
        pending = np.arange(k)
        for _ in range(50):
            sp = step[pending][:, None]
            loss = np.mean(np.logaddexp(0.0, -(z[pending] + sp * dz[pending])), axis=1)
            change = (tl[pending] * (loss - loss0[pending] + sp[:, 0] * lin[pending])
                      - np.sum(np.log1p(sp * (rsum[pending] + sp * rprod[pending])), axis=1))
            pending = pending[change > 0.01 * sp[:, 0] * slope[pending]]
            if not pending.size:
                break
            step[pending] /= 2.0
        step[pending] = 0.0
        st = step[:, None]
        pl, ql, bl = pl + st * (du + dw), ql + st * (du - dw), bl + step * db
        primal, dual, g, scale = _duality_bounds(xs, yl, lam, 0.5 * (pl - ql), bl)
        lower[live] = np.maximum(lower[live], dual)
        gap = primal - lower[live]
        t[live] = np.where(step >= 0.5, np.maximum(
            T_GROWTH * np.minimum(2 * n / np.maximum(gap, GAP_TOL), tl), tl), tl)
        # gap-safe screening: the sphere is centred on this step's dual point
        radius = np.sqrt(np.maximum(primal - dual, 0.0) / (2 * m))
        drop = kl & (scale[:, None] * np.abs(g) + norms * radius[:, None]
                     < lam * (1.0 - 1e-9))
        kl &= ~drop
        u = 0.5 * (pl + ql)
        p[at], q[at], kept[at] = np.where(drop, u, pl), np.where(drop, u, ql), kl
        b[live] = bl
        steps[live] += 1
        stop = (gap <= GAP_TOL) | (step == 0.0) | (steps[live] >= max_iter)
        live = live[~stop]
        union = np.any(kl[~stop], axis=0)
        if np.count_nonzero(union) < 0.75 * cols.size:
            cols, xs, norms = cols[union], xs[:, union], norms[union]
    return 0.5 * (p - q), 0.5 * (p + q), b, steps, lower, kept


def _polish_l1(x, y, lam, w, b, tol, budget):
    """Newton's method on the support of w with the signs held fixed, where
    the objective is smooth: mean loss + lam sum(sign_j w_j).  A step ends
    at the first weight it would carry across 0, which is then set to 0 and
    leaves the support.  Once the gradient on the support and of b is at most
    tol, the zero weight with the largest |g_j| > lam + tol joins with the
    sign -sign(g_j); when there is none, the weights meet the KKT conditions
    to tol with exact zeros.  Steps are halved until the objective falls by
    1e-4 of the decrease the gradient predicts, and a full step is taken
    where that decrease is below the objective's rounding.  Returns w, b and
    the steps taken, at most budget; a full step that leaves the gradient
    above tol ends the polish, since the gradient is then at its rounding
    level."""
    m = y.size
    signs = np.sign(w)
    steps = 0
    blind = False
    while steps < budget:
        cols = np.flatnonzero(signs)
        xs = x[:, cols]
        z = y * (xs @ w[cols] + b)
        s, curv = _logistic_terms(z)
        coef = -y * s / m
        grad = np.append(coef @ xs + lam * signs[cols], np.sum(coef))
        if np.max(np.abs(grad)) <= tol:
            g = coef @ x
            excess = np.where(signs == 0.0, np.abs(g) - lam, -np.inf)
            j = int(np.argmax(excess))
            if not excess[j] > tol:
                break
            signs[j] = -np.sign(g[j])
            blind = False
            continue
        if blind:
            break
        xb = np.column_stack([xs, np.ones(m)])
        hess = (xb.T * (curv / m)) @ xb
        try:
            p = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            p = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        pw = p[:-1]
        against = signs[cols] * pw < 0.0
        if np.any(against & (w[cols] == 0.0)):
            break  # a joining weight would leave the wrong way: rounding level
        reach = np.full(cols.size, np.inf)
        np.divide(-w[cols], pw, out=reach, where=against)
        first = int(np.argmin(reach)) if cols.size else 0
        limit = min(1.0, reach[first]) if cols.size else 1.0
        step = limit
        slope = float(grad @ p)
        dz = y * (xs @ pw + p[-1])
        loss0 = np.mean(np.logaddexp(0.0, -z))
        blind = -slope <= 1e-10 * loss0
        if not blind:
            pen = lam * float(signs[cols] @ pw)
            for _ in range(50):
                change = np.mean(np.logaddexp(0.0, -(z + step * dz))) - loss0 + step * pen
                if change <= 1e-4 * step * slope:
                    break
                step /= 2.0
            else:
                break
        w[cols] += step * pw
        b += step * p[-1]
        if step == limit < 1.0:
            w[cols[first]] = 0.0
            signs[cols[first]] = 0.0
        steps += 1
    return w, b, steps


def _fit_l1(x, ys, lam, grad_tol, max_iter, x0):
    """(weights, intercepts, KKT residual, Newton steps, duality gap) of the
    l1 problem of every class (ys: one +-1 target row per class), all from
    the start x0 = (w, b).

    A column that is zero in every row has a zero gradient, so its weight is
    0 at the optimum and takes no part in any step: the solve leaves such
    columns out.  A class whose start meets the KKT test takes no step, and
    neither does one that meets it once b is the best intercept for the
    start's w, as every class does when lam is so large that w = 0 is the
    solution.  When every column is zero, w = 0 with the best intercept is
    the solution and no class steps.  The other classes step together by
    the barrier method (_barrier_l1), which leaves out of each class's
    steps the columns that gap-safe screening proves zero; then each is
    polished (_polish_l1) from the weights with |w_j| > (1 - 1e-6) u_j,
    which on the central path are those with |g_j| within 1e-6 lam of lam,
    to a tolerance of grad_tol / 1000.  The polish, the KKT residual and the
    final duality bounds read every column, so a column dropped in error
    would join again in the polish, and the KKT test would still hold the
    fit to the full problem.  The gap is taken against the best dual value
    seen."""
    c = ys.shape[0]
    cols = np.flatnonzero(np.any(x != 0.0, axis=0))
    x = x[:, cols]
    w = np.tile(x0[cols], (c, 1))
    b = np.full(c, x0[-1])
    steps = np.zeros(c, dtype=int)
    lower = np.full(c, -np.inf)
    todo = np.flatnonzero(~(_l1_residuals(x, ys, lam, w, b) <= grad_tol))
    b[todo] = _best_intercepts(w[todo] @ x.T, ys[todo], b[todo])
    todo = todo[~(_l1_residuals(x, ys[todo], lam, w[todo], b[todo]) <= grad_tol)]
    if todo.size and cols.size:
        wt, ut, bt, steps[todo], lower[todo], _ = _barrier_l1(
            x, ys[todo], lam, max_iter, w[todo], b[todo])
        wt[np.abs(wt) <= (1.0 - 1e-6) * ut] = 0.0
        for i, k in enumerate(todo):
            w[k], b[k], n_polish = _polish_l1(x, ys[k], lam, wt[i], bt[i],
                                              1e-3 * grad_tol, max_iter - steps[k])
            steps[k] += n_polish
    primal, dual, _, _ = _duality_bounds(x, ys, lam, w, b)
    weights = np.zeros((c, x0.size - 1))
    weights[:, cols] = w
    return (weights, b, _l1_residuals(x, ys, lam, w, b), steps,
            primal - np.maximum(lower, dual))


def lr_fit(x: np.ndarray, labels, penalty: str = "l2", inverse_reg: float = 1.0,
           grad_tol: float = 1e-6, max_iter: int = 5000,
           x0: np.ndarray | None = None) -> LrModel:
    """One-vs-rest regularized logistic regression.

    The objective per class is mean log(1 + exp(-y (w.x + b))) plus
    lambda ||w||_2^2 or lambda ||w||_1 with lambda = 1/inverse_reg.

    The l2 problem is solved in the row space of x.  Its stationarity
    condition 2 lambda w = -x^T c / m (c the loss derivative per sample) puts
    the optimal w in the span of the rows.  With the reduced QR factorization
    x^T = Q R (Q is n x r, r = min(m, n)), computed once per fit and shared by
    the classes, every w = Q beta has x w = R^T beta and ||w|| = ||beta||, so
    the same optimum solves the problem in the r + 1 unknowns (beta, b)
    (Hastie & Tibshirani, Biostatistics 2004).  Newton's method solves it
    (see _newton_binary_l2) from beta = Q^T w0, the start x0 projected onto
    the span, and stops when the largest entry of the full-space gradient
    (Q g_beta, g_b) is at most grad_tol.

    The l1 problem (see _fit_l1) is solved by a barrier method whose Newton
    systems are m x m, with the classes stepping together (_barrier_l1), until the
    duality gap is at most GAP_TOL.  After each step, gap-safe screening
    drops from a class's systems the columns whose weight the dual point
    proves 0 at the optimum, so most steps form their m x m matrices from
    a fraction of the columns.  Then Newton's method on the support
    with the signs fixed gives exact zeros (see _polish_l1).  A class
    converges when its KKT residual, the largest entry of the minimum-norm
    subgradient, is at most grad_tol; ``duality_gap`` is the largest gap of
    the classes at the returned weights.

    ``x0`` is the start (w, b) of every class.  n_iter is the most Newton
    steps any class took, at most max_iter.  A class that does not converge
    produces a warning; the model is still returned.
    """
    if penalty not in PENALTIES:
        raise InvalidConfigError(f"penalty must be one of {PENALTIES}")
    if inverse_reg <= 0:
        raise InvalidConfigError("inverse_reg must be positive")
    x, labels, classes = _check_fit_inputs(x, labels)
    lam = 1.0 / inverse_reg
    m, n = x.shape
    start = np.zeros(n + 1) if x0 is None else np.asarray(x0, dtype=float)
    arr_labels = np.asarray(labels, dtype=object)
    ys = np.array([np.where(arr_labels == cls, 1.0, -1.0) for cls in classes])
    gap = None
    if penalty == "l1":
        weights, intercepts, residual, n_iters, gaps = _fit_l1(
            x, ys, lam, grad_tol, max_iter, start)
        converged = residual <= grad_tol
        gap = float(np.max(gaps))
    else:
        q, r = np.linalg.qr(x.T)  # x^T = q r, q: n x min(m, n)
        ra = np.column_stack([r.T, np.ones(m)])
        weights = np.empty((len(classes), n))
        intercepts = np.empty(len(classes))
        converged = np.empty(len(classes), dtype=bool)
        n_iters = np.empty(len(classes), dtype=int)
        for i, y in enumerate(ys):
            tb, converged[i], n_iters[i] = _newton_binary_l2(
                ra, q, y, lam, grad_tol, max_iter,
                np.append(q.T @ start[:-1], start[-1]))
            weights[i] = q @ tb[:-1]
            intercepts[i] = tb[-1]
    for cls, conv in zip(classes, converged):
        if not conv:
            warnings.warn(
                f"logistic regression for class {cls!r} did not reach "
                f"tolerance {grad_tol} in {max_iter} iterations",
                RuntimeWarning, stacklevel=2)
    return LrModel(classes, weights, intercepts, penalty, inverse_reg,
                   bool(np.all(converged)), int(np.max(n_iters)), gap)


def lr_scores(model: LrModel, x: np.ndarray) -> np.ndarray:
    """Per-class sigmoid scores, shape (n_samples, n_classes)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.weights.shape[1]:
        raise InvalidInputError(
            f"feature dimension {x.shape[1]} does not match model "
            f"({model.weights.shape[1]})")
    z = x @ model.weights.T + model.intercepts
    return 1.0 / (1.0 + np.exp(-z))


def lr_predict(model: LrModel, x: np.ndarray) -> list:
    scores = lr_scores(model, x)
    idx = np.argmax(scores, axis=1)
    return [model.classes[i] for i in idx]


# ----------------------------------------------------------------------
# hierarchical agglomerative clustering
# ----------------------------------------------------------------------

def gram_matrix(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x @ x.T, the row sums of squares): what the euclidean and the cosine
    distances of ``pairwise_distances`` are built from.

    The sums of squares are taken over near-equal blocks of at most
    ``GRAM_BLOCK_ROWS`` rows, so the scratch is one block's squares, not a
    copy of x.  Each sum is ``np.sum(x * x, axis=1)``'s to the bit: numpy
    reduces a row in an order set by the memory layout, which a block of
    rows keeps, and a block has at least 2 rows when x has (a lone row of
    a column-major x would be summed pairwise, where 2 or more rows are
    summed column by column).
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    sq = np.empty(m)
    blocks = -(-m // GRAM_BLOCK_ROWS)
    for i in range(blocks):
        rows = slice(i * m // blocks, (i + 1) * m // blocks)
        sq[rows] = np.sum(x[rows] * x[rows], axis=1)
    return x @ x.T, sq


def pairwise_distances(x: np.ndarray, affinity: str,
                       gram: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Symmetric distance matrix with zero diagonal.

    ``gram`` is a precomputed ``gram_matrix(x)``, which the euclidean and the
    cosine affinity read; manhattan ignores it.  The cosine norms are the
    square roots of its row sums, as ``np.linalg.norm(x, axis=1)`` computes
    them.  A zero row has no cosine distance: a NumericalError names it.
    """
    if affinity not in AFFINITIES:
        raise InvalidConfigError(f"affinity must be one of {AFFINITIES}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidInputError("expected (n_samples, n_features)")
    if affinity == "manhattan":
        # one row at a time, so the only temporary is (m, n), not (m, m, n)
        d = np.empty((x.shape[0], x.shape[0]))
        for i, row in enumerate(x):
            d[i] = np.abs(row - x).sum(axis=1)
    else:
        g, sq = gram_matrix(x) if gram is None else gram
        if affinity == "euclidean":
            d = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * g, 0.0))
        else:
            norms = np.sqrt(sq)
            zero = np.flatnonzero(norms == 0)
            if zero.size:
                raise NumericalError(f"cosine affinity undefined for zero vectors: "
                                     f"feature row {zero[0]} of {x.shape[0]} is zero")
            d = 1.0 - np.clip(g / np.outer(norms, norms), -1.0, 1.0)
    np.fill_diagonal(d, 0.0)
    return (d + d.T) / 2.0


@dataclass
class LinkageTree:
    """Merge history: (node_a, node_b, height, new_size) rows, length m-1.

    Leaves are 0..m-1; merge i creates node m+i.  node_a < node_b.
    """

    merges: list
    n_leaves: int
    affinity: str
    linkage: str


def _root(parent: list, i: int) -> int:
    """Root of node i in a union-find forest, halving the path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _prim_walk(d: np.ndarray) -> tuple[list, list, list]:
    """The minimum spanning tree as scipy's ``mst_single_linkage`` walks it:
    from node 0, each step adds the node nearest to the tree, the first in
    index order on ties.  Returns the (tree node, new node, distance) of each
    step, in step order."""
    m = d.shape[0]
    dist = d.copy()  # a node's column turns inf once it joins the tree
    reach = np.full(m, math.inf)  # each outside node's distance to the tree
    xs, ys, heights = [], [], []
    x = 0
    for _ in range(m - 1):
        dist[:, x] = math.inf
        reach[x] = math.inf
        row = dist[x]
        np.copyto(reach, row, where=row < reach)
        y = int(reach.argmin())
        xs.append(x)
        ys.append(y)
        heights.append(reach.item(y))
        x = y
    return xs, ys, heights


def _chain_walk(d: np.ndarray, linkage: str) -> tuple[list, list, list]:
    """The merges of scipy's ``nn_chain``, in the order it makes them: the
    (lower, higher) cluster index of each pair and its distance.  The merged
    cluster takes the higher index."""
    m = d.shape[0]
    dist = d.copy()  # the diagonal and the columns of merged-away clusters are inf
    np.fill_diagonal(dist, math.inf)
    # cluster sizes as floats: their sums are exact below 2**53, so each
    # product rounds as it does after scipy's int-to-double conversions
    size = np.ones(m)
    xs, ys, heights = [], [], []
    chain: list = []
    low = 0  # the lowest live index, where an empty chain restarts
    for _ in range(m - 1):
        if not chain:
            while size.item(low) == 0.0:
                low += 1
            chain.append(low)
        while True:
            x = chain[-1]
            row = dist[x]
            y = int(row.argmin())
            h = row.item(y)
            if not h < math.inf:
                raise NumericalError("linkage distances overflowed")
            # the previous chain element stays unless strictly beaten
            if len(chain) > 1 and not h < row.item(chain[-2]):
                y = chain[-2]
                h = row.item(y)
                break
            chain.append(y)
        del chain[-2:]
        if x > y:
            x, y = y, x
        nx, ny = size.item(x), size.item(y)
        new = _lance_williams(linkage, nx, ny, dist[x], dist[y], size, h)
        dist[y] = new
        dist[:, y] = new
        dist[y, y] = math.inf
        dist[:, x] = math.inf
        size[y] = nx + ny
        size[x] = 0.0
        xs.append(x)
        ys.append(y)
        heights.append(h)
    return xs, ys, heights


def _lance_williams(linkage: str, nx, ny, dx, dy, size, h) -> np.ndarray:
    """The distances of the cluster merged from x and y to every cluster, by
    scipy's updates operation for operation: dx and dy are the rows of x and
    y, size holds every cluster's size and h is the merge distance.  A
    stack of walks passes (K, m) rows with (K, 1) columns nx, ny and h; each
    element then rounds as it would alone."""
    if linkage == "complete":
        return np.fmax(dx, dy)
    if linkage == "average":
        return (nx * dx + ny * dy) / (nx + ny)
    t = 1.0 / (nx + ny + size)  # ward
    return np.sqrt((size + nx) * t * dx * dx + (size + ny) * t * dy * dy
                   - size * t * h * h)


CHAIN_LINKAGES = ("complete", "average", "ward")


def _lockstep_chain_walks(dist: np.ndarray, counts: list) -> tuple:
    """``_chain_walk`` of each of K matrices of one size, side by side:
    (K, m - 1) arrays of each walk's lower and higher merge indices and its
    merge distances, in the walk's merge order.  ``dist`` is the (K, m, m)
    stack, and is overwritten; its first ``counts[0]`` walks link by the
    first of ``CHAIN_LINKAGES``, the next ``counts[1]`` by the second, and
    so on, so that each linkage's walks are one slice of every round.

    Each round takes one argmin per live chain: a walk whose chain top has
    the element below it as nearest neighbour (not strictly beaten) merges
    the two, every other walk pushes the neighbour, and an empty chain
    restarts at its walk's lowest live index.  The merging walks of each
    linkage get their Lance-Williams update together, so every walk makes
    the operations, ties and restarts of ``_chain_walk``."""
    walks, m = dist.shape[:2]
    diag = np.arange(m)
    dist[:, diag, diag] = math.inf
    size = np.ones((walks, m))
    chain = np.zeros((walks, m), dtype=np.intp)
    depth = np.zeros(walks, dtype=np.intp)  # chain lengths
    done = np.zeros(walks, dtype=np.intp)   # merges made
    xs = np.empty((walks, m - 1), dtype=np.intp)
    ys = np.empty_like(xs)
    heights = np.empty((walks, m - 1))
    edges = np.cumsum([0, *counts])
    live = np.arange(walks)
    while live.size:
        restart = live[depth[live] == 0]
        if restart.size:
            chain[restart, 0] = (size[restart] != 0.0).argmax(axis=1)
            depth[restart] = 1
        n = depth[live]
        top = chain[live, n - 1]
        below = chain[live, np.maximum(n - 2, 0)]
        rows = dist[live, top]
        at = np.arange(live.size)
        nearest = rows.argmin(axis=1)
        h = rows[at, nearest]
        if not (h < math.inf).all():
            raise NumericalError("linkage distances overflowed")
        # the previous chain element stays unless strictly beaten
        h_below = rows[at, below]
        merge = (n > 1) & ~(h < h_below)
        push = ~merge
        chain[live[push], n[push]] = nearest[push]
        depth[live[push]] += 1
        if merge.any():
            w = live[merge]
            x = np.minimum(top[merge], below[merge])
            y = np.maximum(top[merge], below[merge])
            h = h_below[merge]
            step = done[w]
            xs[w, step], ys[w, step], heights[w, step] = x, y, h
            done[w] += 1
            depth[w] -= 2
            sizes = size[w]
            nx, ny = sizes[at[:w.size], x], sizes[at[:w.size], y]
            dx, dy = dist[w, x], dist[w, y]
            new = np.empty_like(dx)
            cuts = np.searchsorted(w, edges).tolist()
            for name, lo, hi in zip(CHAIN_LINKAGES, cuts, cuts[1:]):
                if lo < hi:
                    g = slice(lo, hi)
                    new[g] = _lance_williams(
                        name, nx[g, None], ny[g, None], dx[g], dy[g],
                        sizes[g], h[g, None])
            dist[w, y] = new
            dist[w, :, y] = new
            dist[w, y, y] = math.inf
            dist[w, :, x] = math.inf
            size[w, y] = nx + ny
            size[w, x] = 0.0
            live = live[done[live] < m - 1]
    return xs, ys, heights


def _linkage_tree(xs, ys, heights, m: int, affinity: str,
                  linkage: str) -> LinkageTree:
    """A walk's merges sorted by height with a stable mergesort and
    relabelled with union-find, as scipy does."""
    parent = list(range(2 * m - 1))
    count = [1] * (2 * m - 1)
    merges = []
    for new, i in enumerate(np.argsort(heights, kind="mergesort").tolist(), m):
        a, b = _root(parent, xs[i]), _root(parent, ys[i])
        if a > b:
            a, b = b, a
        parent[a] = parent[b] = new
        count[new] = count[a] + count[b]
        merges.append((a, b, heights[i], count[new]))
    return LinkageTree(merges=merges, n_leaves=m, affinity=affinity, linkage=linkage)


def _check_linkage(linkage: str, affinity: str) -> None:
    if linkage not in LINKAGES:
        raise InvalidConfigError(f"linkage must be one of {LINKAGES}")
    if linkage == "ward" and affinity != "euclidean":
        raise InvalidConfigError("ward linkage requires euclidean affinity")


def _check_distances(d: np.ndarray) -> None:
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InvalidInputError("a distance matrix must be square")
    if d.shape[0] < 2:
        raise InvalidInputError("need at least 2 samples")
    if not np.isfinite(d).all():
        raise NumericalError("the distance matrix has non-finite entries")


def hac_fit(distances: list, linkages: list, affinities: list) -> list:
    """Agglomerate each of K distance matrices of one size with its linkage;
    the K LinkageTrees come back as a list, each deterministic for its
    matrix and equal to what that matrix alone gives.

    Each matrix is a precomputed ``pairwise_distances(x, affinity)``,
    symmetric.  Ward runs on euclidean distances and its heights are
    sqrt(2 * increase in within-cluster sum of squares).  A distance matrix
    with a non-finite entry, or a linkage distance that overflows, raises
    NumericalError.  When the complete, average and ward walks number at
    least m, the matrix size, they run side by side
    (``_lockstep_chain_walks``), which shares numpy's per-call cost of each
    step among them; fewer walks run one by one, which is faster there.
    Single linkage always runs one walk at a time.

    The merges are those of scipy's ``linkage(squareform(distances),
    method=linkage)``, byte for byte: the same floating-point operations in
    the same order, and the same tie-breaks (Muellner, arXiv:1109.2378).
    Single linkage is Prim's minimum spanning tree walk (``_prim_walk``);
    the others run the nearest-neighbour chain (``_chain_walk``), where
    complete linkage takes fmax(dx, dy), average (nx dx + ny dy) / (nx + ny)
    and ward sqrt((ni + nx) t dx dx + (ni + ny) t dy dy - ni t d d) with
    t = 1 / (nx + ny + ni), each product taken left to right.  A chain
    restarts at the lowest live index, and the first minimum in index order
    wins.  The merges are then sorted by height with a stable mergesort and
    relabelled with union-find, as scipy does.
    """
    mats = [np.asarray(d, dtype=float) for d in distances]
    if not len(linkages) == len(affinities) == len(mats) > 0:
        raise InvalidInputError(
            "hac_fit needs one linkage, affinity and distance matrix per tree")
    for linkage, affinity, d in zip(linkages, affinities, mats):
        _check_linkage(linkage, affinity)
        _check_distances(d)
    m = mats[0].shape[0]
    if any(d.shape[0] != m for d in mats):
        raise InvalidInputError("the distance matrices must have one size")
    # the complete, average and ward walks, grouped by linkage
    chained = sorted((k for k, linkage in enumerate(linkages) if linkage != "single"),
                     key=lambda k: CHAIN_LINKAGES.index(linkages[k]))
    trees: list = [None] * len(mats)
    if len(chained) >= m:
        counts = [linkages.count(name) for name in CHAIN_LINKAGES]
        xs, ys, heights = _lockstep_chain_walks(
            np.array([mats[k] for k in chained]), counts)
        for k, *walk in zip(chained, xs.tolist(), ys.tolist(), heights.tolist()):
            trees[k] = _linkage_tree(*walk, m, affinities[k], linkages[k])
    for k, linkage in enumerate(linkages):
        if trees[k] is None:
            walk = (_prim_walk(mats[k]) if linkage == "single"
                    else _chain_walk(mats[k], linkage))
            trees[k] = _linkage_tree(*walk, m, affinities[k], linkage)
    return trees


def cut_tree(tree: LinkageTree, k: int) -> list[int]:
    """Labels after undoing the last k-1 merges; label ids follow the order
    of first appearance when scanning samples by index."""
    m = tree.n_leaves
    if not 1 <= k <= m:
        raise InvalidInputError(f"k must lie in 1..{m}")
    parent = list(range(m + len(tree.merges)))
    for step, (a, b, _, _) in enumerate(tree.merges[:m - k]):
        new = m + step
        parent[_root(parent, a)] = new
        parent[_root(parent, b)] = new
    labels = []
    seen: dict = {}
    for i in range(m):
        root = _root(parent, i)
        if root not in seen:
            seen[root] = len(seen)
        labels.append(seen[root])
    return labels


def dendrogram_export(tree: LinkageTree, leaf_names: list) -> dict:
    """Nested merge record consumable by external plotters."""
    if len(leaf_names) != tree.n_leaves:
        raise InvalidInputError(
            f"{len(leaf_names)} names for {tree.n_leaves} leaves")
    nodes: dict = {
        i: {"name": str(leaf_names[i]), "height": 0.0}
        for i in range(tree.n_leaves)
    }
    for step, (a, b, height, count) in enumerate(tree.merges):
        nodes[tree.n_leaves + step] = {
            "height": float(height),
            "count": int(count),
            "children": [nodes.pop(a), nodes.pop(b)],
        }
    # m - 1 merges leave one node: the root
    (root,) = nodes.values()
    return {
        "affinity": tree.affinity,
        "linkage": tree.linkage,
        "n_leaves": tree.n_leaves,
        "root": root,
    }

