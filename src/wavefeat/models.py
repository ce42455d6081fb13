"""Learners: linear discriminant analysis, one-vs-rest logistic regression,
and hierarchical agglomerative clustering.

LDA pools the within-class covariance and inverts it with every eigenvalue
raised to a floor of rel_tol times the largest, so it stays usable when
features outnumber samples: the directions in which no class spreads get the
floor variance and weigh most, instead of being ignored.  Logistic regression
minimizes mean logistic loss plus a ridge (solved by L-BFGS) or a lasso
penalty (solved by accelerated proximal gradient, FISTA, which yields exact
zeros).  The lasso solver picks its step by backtracking on a
sufficient-decrease test, starting from the global Lipschitz bound, and stops
when the KKT residual of the full objective (the largest entry of its
minimum-norm subgradient) is at most the tolerance.  Clustering is classic
Lance-Williams agglomeration with a variance-increase criterion for ward
linkage.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import InvalidConfigError, InvalidInputError

AFFINITIES = ("euclidean", "manhattan", "cosine")
LINKAGES = ("single", "complete", "average", "ward")
PENALTIES = ("l1", "l2")


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

    def pooled_covariance_pinv(self) -> np.ndarray:
        """Materialized inverse of the floored pooled covariance (kept factored
        internally).  When the pooled covariance has full rank, with no
        eigenvalue below the floor, this is its Moore-Penrose inverse."""
        inv = (self.cov_basis * self.cov_inv_eigs) @ self.cov_basis.T
        if self.complement_inv_var:
            n = self.cov_basis.shape[0]
            inv += self.complement_inv_var * (
                np.eye(n) - self.cov_basis @ self.cov_basis.T)
        return inv

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


def _plain_labels(labels) -> list:
    """Labels with numpy scalars turned into Python ones, so a model holds
    the class values that save_model writes and load_model gives back."""
    return [v.item() if isinstance(v, np.generic) else v for v in labels]


def _check_fit_inputs(x, labels) -> tuple[np.ndarray, list, list]:
    """(x as a float array, plain labels, sorted classes) after checking that
    x is a finite 2-D array with one label per row and at least 2 classes."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidInputError("expected (n_samples, n_features)")
    labels = _plain_labels(labels)
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


def _logistic_loss_grad(wb: np.ndarray, x: np.ndarray, y: np.ndarray,
                        lam: float, penalty: str):
    """Mean logistic loss with optional ridge term (intercept unpenalized)."""
    w, b = wb[:-1], wb[-1]
    z = y * (x @ w + b)
    loss = float(np.mean(np.logaddexp(0.0, -z)))
    sig = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))  # sigma(-z)
    coef = -y * sig / x.shape[0]
    grad_w = x.T @ coef
    grad_b = float(np.sum(coef))
    if penalty == "l2":
        loss += lam * float(w @ w)
        grad_w = grad_w + 2.0 * lam * w
    return loss, np.concatenate([grad_w, [grad_b]])


def _soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _fit_binary_l2(x, y, lam, grad_tol, max_iter, x0):
    res = minimize(
        _logistic_loss_grad, x0, args=(x, y, lam, "l2"),
        method="L-BFGS-B", jac=True,
        options={"maxiter": max_iter, "gtol": grad_tol, "ftol": 1e-16,
                 "maxfun": 10 * max_iter},
    )
    _, grad = _logistic_loss_grad(res.x, x, y, lam, "l2")
    converged = bool(np.max(np.abs(grad)) <= grad_tol)
    return res.x, converged, int(res.nit)


def _kkt_residual(wb: np.ndarray, grad: np.ndarray, lam: float) -> float:
    """Largest entry of the minimum-norm subgradient of f + lam ||w||_1 at wb,
    given grad = grad f(wb); the last entry of both is the intercept."""
    w, g = wb[:-1], grad[:-1]
    sub = np.where(w != 0.0, np.abs(g + lam * np.sign(w)),
                   np.maximum(np.abs(g) - lam, 0.0))
    return max(float(np.max(sub, initial=0.0)), abs(float(grad[-1])))


def _fit_binary_l1(xa, y, lam, grad_tol, max_iter, x0, lip):
    """FISTA with backtracking and adaptive restart on the smooth logistic
    loss + lam * ||w||_1 (intercept unpenalized); xa is the data with a
    trailing column of ones.  The proximal step yields exact zeros.

    Step size: each iteration first tries L/2, then doubles L until the
    sufficient-decrease test f(p) <= f(z) + <grad f(z), p - z> + L/2 ||p - z||^2
    holds at the proximal point p of the extrapolated point z.  ``lip`` is
    the global bound sigma_max(xa)^2 / (4 m): it is the first L, and since
    the test holds at or above it, L is never raised past it.

    Stopping rule: the KKT residual at z (the largest entry of the
    minimum-norm subgradient of the full objective) is at most grad_tol; z is
    then returned.  The residual does not depend on the step, and it is never
    smaller than the gradient-mapping residual |prox step| * L.
    """
    m = xa.shape[0]
    lip_max = lip
    wb = zb = x0.copy()
    xw = xz = xa @ wb  # margins before the labels: X w + b and X z + b
    t_acc = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        margin = y * xz
        loss_z = np.mean(np.logaddexp(0.0, -margin))
        grad = xa.T @ (-y / (1.0 + np.exp(np.clip(margin, -500, 500))) / m)
        if _kkt_residual(zb, grad, lam) <= grad_tol:
            wb = zb
            converged = True
            break
        lip /= 2.0
        while True:
            new = zb - grad / lip
            new[:-1] = _soft_threshold(new[:-1], lam / lip)
            step = new - zb
            xnew = xa @ new
            loss_new = np.mean(np.logaddexp(0.0, -y * xnew))
            if (lip >= lip_max or loss_new
                    <= loss_z + grad @ step + 0.5 * lip * (step @ step)):
                break
            lip *= 2.0
        # restart the momentum when it points against the step direction
        if np.dot(zb - new, new - wb) > 0:
            t_acc = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        beta = (t_acc - 1.0) / t_next
        zb = new + beta * (new - wb)
        xz = (1.0 + beta) * xnew - beta * xw  # X z without a mat-vec
        wb, xw = new, xnew
        t_acc = t_next
    return wb, converged, it


def lr_fit(x: np.ndarray, labels, penalty: str = "l2", inverse_reg: float = 1.0,
           grad_tol: float = 1e-6, max_iter: int = 5000,
           x0: np.ndarray | None = None) -> LrModel:
    """One-vs-rest regularized logistic regression.

    The objective per class is mean log(1 + exp(-y (w.x + b))) plus
    lambda ||w||_2^2 or lambda ||w||_1 with lambda = 1/inverse_reg.  The l2
    problem is solved by L-BFGS and stops when the largest gradient entry is
    at most grad_tol.  The l1 problem is solved by backtracking FISTA (see
    _fit_binary_l1), which starts from the Lipschitz bound
    sigma_max([x, 1])^2 / (4 m), computed once per fit and shared by the
    classes, and stops when the largest entry of the minimum-norm
    subgradient (the KKT residual) is at most grad_tol.  ``x0`` is the start
    (w, b) of every class.  A class that fails to converge within max_iter
    iterations produces a warning; the model is still returned.
    """
    if penalty not in PENALTIES:
        raise InvalidConfigError(f"penalty must be one of {PENALTIES}")
    if inverse_reg <= 0:
        raise InvalidConfigError("inverse_reg must be positive")
    x, labels, classes = _check_fit_inputs(x, labels)
    lam = 1.0 / inverse_reg
    m, n = x.shape
    if penalty == "l1":
        xa = np.column_stack([x, np.ones(m)])
        lip = np.linalg.norm(xa, 2) ** 2 / (4.0 * m)
    weights = np.empty((len(classes), n))
    intercepts = np.empty(len(classes))
    all_converged = True
    worst_iter = 0
    for i, cls in enumerate(classes):
        y = np.where(np.asarray(labels, dtype=object) == cls, 1.0, -1.0)
        start = np.zeros(n + 1) if x0 is None else np.asarray(x0, dtype=float)
        if penalty == "l2":
            wb, conv, n_it = _fit_binary_l2(x, y, lam, grad_tol, max_iter, start)
        else:
            wb, conv, n_it = _fit_binary_l1(xa, y, lam, grad_tol, max_iter,
                                            start, lip)
        weights[i] = wb[:-1]
        intercepts[i] = wb[-1]
        all_converged &= conv
        worst_iter = max(worst_iter, n_it)
        if not conv:
            warnings.warn(
                f"logistic regression for class {cls!r} did not reach "
                f"tolerance {grad_tol} in {max_iter} iterations",
                RuntimeWarning, stacklevel=2)
    return LrModel(classes, weights, intercepts, penalty, inverse_reg,
                   all_converged, worst_iter)


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

def pairwise_distances(x: np.ndarray, affinity: str) -> np.ndarray:
    """Symmetric distance matrix with zero diagonal."""
    if affinity not in AFFINITIES:
        raise InvalidConfigError(f"affinity must be one of {AFFINITIES}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidInputError("expected (n_samples, n_features)")
    if affinity == "euclidean":
        sq = np.sum(x * x, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        d = np.sqrt(np.maximum(d2, 0.0))
    elif affinity == "manhattan":
        d = np.sum(np.abs(x[:, None, :] - x[None, :, :]), axis=-1)
    else:
        norms = np.linalg.norm(x, axis=1)
        if np.any(norms == 0):
            raise InvalidInputError("cosine affinity undefined for zero vectors")
        sim = (x @ x.T) / np.outer(norms, norms)
        d = 1.0 - np.clip(sim, -1.0, 1.0)
    np.fill_diagonal(d, 0.0)
    return (d + d.T) / 2.0


@dataclass
class LinkageTree:
    """Merge history: (node_a, node_b, height, new_size) rows, length m-1.

    Leaves are 0..m-1; merge i creates node m+i.  node_a < node_b.
    """

    merges: list = field(default_factory=list)
    n_leaves: int = 0
    affinity: str = "euclidean"
    linkage: str = "average"


def hac_fit(x: np.ndarray, linkage: str, affinity: str = "euclidean",
            distances: np.ndarray | None = None) -> LinkageTree:
    """Agglomerate with the requested linkage; deterministic tie-breaking.

    Ties on the merge distance pick the pair with the lexicographically
    smallest (min cluster id, max cluster id).
    """
    if linkage not in LINKAGES:
        raise InvalidConfigError(f"linkage must be one of {LINKAGES}")
    if linkage == "ward" and affinity != "euclidean":
        raise InvalidConfigError("ward linkage requires euclidean affinity")
    if distances is None:
        d = pairwise_distances(x, affinity)
    else:
        d = np.asarray(distances, dtype=float)
    m = d.shape[0]
    if m < 2:
        raise InvalidInputError("need at least 2 samples")
    # ward recurrence runs on squared distances; heights take the square root
    w = d * d if linkage == "ward" else d.copy()
    size = {i: 1 for i in range(m)}
    # rows indexed by slot; ids maps slot -> current cluster id
    ids = list(range(m))
    merges = []
    next_id = m
    masked = w.copy()
    np.fill_diagonal(masked, np.inf)
    for _ in range(m - 1):
        dist = float(masked.min())
        cand = np.argwhere(masked == dist)
        ai = bi = None
        best_key = None
        for ci, cj in cand:
            if ci >= cj:
                continue
            key = (min(ids[ci], ids[cj]), max(ids[ci], ids[cj]))
            if best_key is None or key < best_key:
                best_key = key
                ai, bi = int(ci), int(cj)
        ia, ib = ids[ai], ids[bi]
        na, nb = size[ia], size[ib]
        height = float(np.sqrt(max(dist, 0.0))) if linkage == "ward" else float(dist)
        merges.append((min(ia, ib), max(ia, ib), height, na + nb))
        # Lance-Williams update into slot ai, retire slot bi
        others = np.isfinite(masked[ai]) | np.isfinite(masked[bi])
        others[ai] = others[bi] = False
        dac = masked[ai, others]
        dbc = masked[bi, others]
        if linkage == "single":
            new = np.minimum(dac, dbc)
        elif linkage == "complete":
            new = np.maximum(dac, dbc)
        elif linkage == "average":
            new = (na * dac + nb * dbc) / (na + nb)
        else:  # ward on squared distances
            nc = np.array([size[ids[ci]] for ci in np.flatnonzero(others)], dtype=float)
            new = ((na + nc) * dac + (nb + nc) * dbc - nc * dist) / (na + nb + nc)
        masked[ai, others] = new
        masked[others, ai] = new
        masked[bi, :] = np.inf
        masked[:, bi] = np.inf
        masked[ai, ai] = np.inf
        ids[ai] = next_id
        size[next_id] = na + nb
        next_id += 1
    return LinkageTree(merges=merges, n_leaves=m, affinity=affinity, linkage=linkage)


def cut_tree(tree: LinkageTree, k: int) -> list[int]:
    """Labels after undoing the last k-1 merges; label ids follow the order
    of first appearance when scanning samples by index."""
    m = tree.n_leaves
    if not 1 <= k <= m:
        raise InvalidInputError(f"k must lie in 1..{m}")
    parent = list(range(m + len(tree.merges)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for step, (a, b, _, _) in enumerate(tree.merges[:m - k]):
        new = m + step
        parent[find(a)] = new
        parent[find(b)] = new
    labels = []
    seen: dict = {}
    for i in range(m):
        root = find(i)
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
    roots = list(nodes.values())
    root = roots[0] if len(roots) == 1 else {"height": None, "children": roots}
    return {
        "affinity": tree.affinity,
        "linkage": tree.linkage,
        "n_leaves": tree.n_leaves,
        "root": root,
    }


def save_model(path: str, model) -> None:
    """Serialize an LDA or LR model to .npz at full precision."""
    if isinstance(model, LdaModel):
        header = {"kind": "lda", "classes": model.classes,
                  "complement_inv_var": float(model.complement_inv_var)}
        arrays = {
            "means": model.means,
            "log_priors": model.log_priors,
            "cov_basis": model.cov_basis,
            "cov_inv_eigs": model.cov_inv_eigs,
        }
    elif isinstance(model, LrModel):
        header = {
            "kind": "lr", "classes": model.classes, "penalty": model.penalty,
            "inverse_reg": model.inverse_reg, "converged": model.converged,
            "n_iter": model.n_iter,
        }
        arrays = {"weights": model.weights, "intercepts": model.intercepts}
    else:
        raise InvalidInputError(f"cannot serialize {type(model).__name__}")
    np.savez(path, header=np.array(json.dumps(header)), **arrays)


def load_model(path: str):
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"]))
        if header["kind"] == "lda":
            return LdaModel(
                classes=header["classes"],
                means=data["means"],
                log_priors=data["log_priors"],
                cov_basis=data["cov_basis"],
                cov_inv_eigs=data["cov_inv_eigs"],
                complement_inv_var=header["complement_inv_var"],
            )
        if header["kind"] == "lr":
            return LrModel(
                classes=header["classes"],
                weights=data["weights"],
                intercepts=data["intercepts"],
                penalty=header["penalty"],
                inverse_reg=header["inverse_reg"],
                converged=header["converged"],
                n_iter=header["n_iter"],
            )
    raise InvalidInputError(f"unknown model kind in {path}")
