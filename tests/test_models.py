"""Tests for the three learners."""
import json

import numpy as np
import pytest

from wavefeat.errors import InvalidConfigError, InvalidInputError, NumericalError
from wavefeat import models as M
from wavefeat.features import magnitude_quantile, sign_quantize, threshold
from wavefeat.metrics import adjusted_rand
from wavefeat.synth import SyntheticSpec, synth_dataset


def _logistic_loss_grad(wb, x, y, lam, penalty):
    """Reference formula: mean logistic loss of (w, b) = wb, plus
    lam ||w||^2 when penalty is "l2" (intercept unpenalized), and its
    gradient in the full (w, b) space."""
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


def _factored_inverse(model):
    """The inverse covariance an LdaModel keeps in factored form, as a matrix."""
    basis = model.cov_basis
    inv = (basis * model.cov_inv_eigs) @ basis.T
    return inv + model.complement_inv_var * (np.eye(basis.shape[0]) - basis @ basis.T)


class TestLda:
    def test_separable_blobs(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(0, 0.3, (20, 2)), rng.normal(10, 0.3, (20, 2))])
        y = [0] * 20 + [1] * 20
        model = M.lda_fit(x, y)
        test = np.vstack([rng.normal(0, 0.3, (10, 2)), rng.normal(10, 0.3, (10, 2))])
        pred = M.lda_predict(model, test)
        assert pred == [0] * 10 + [1] * 10

    def test_symmetric_midpoint_boundary(self):
        # equal priors, symmetric blobs: scores tie exactly at the midpoint
        x = np.array([[-1.0, 0.0], [-2.0, 1.0], [-2.0, -1.0],
                      [1.0, 0.0], [2.0, 1.0], [2.0, -1.0]])
        y = [0, 0, 0, 1, 1, 1]
        model = M.lda_fit(x, y)
        scores = model.scores(np.array([[0.0, 0.0]]))
        assert scores[0, 0] == pytest.approx(scores[0, 1], abs=1e-10)

    def test_analytic_1d_flip(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.normal(0, 1, 600), rng.normal(5, 1, 600)])[:, None]
        y = [0] * 600 + [1] * 600
        model = M.lda_fit(x, y)
        grid = np.linspace(0, 5, 2001)[:, None]
        pred = np.array(M.lda_predict(model, grid))
        flip = grid[int(np.argmax(pred == 1)), 0]
        assert abs(flip - 2.5) <= 0.15

    def test_pinv_matches_numerics(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 6))
        y = [0] * 10 + [1] * 10
        model = M.lda_fit(x, y)
        centered = x.copy()
        for c in (0, 1):
            mask = np.array(y) == c
            centered[mask] -= x[mask].mean(axis=0)
        cov = centered.T @ centered / (20 - 2)
        assert model.complement_inv_var == 0.0
        assert np.allclose(_factored_inverse(model), np.linalg.pinv(cov, 1e-10),
                           atol=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 5))
        y = list(rng.integers(0, 3, 30))
        shift = rng.standard_normal(5) * 7
        p1 = M.lda_predict(M.lda_fit(x, y), x)
        p2 = M.lda_predict(M.lda_fit(x + shift, y), x + shift)
        assert p1 == p2

    def test_wide_features(self):
        # features >> samples exercises the pseudo-inverse path
        rng = np.random.default_rng(4)
        x = np.vstack([rng.normal(0, 1, (6, 200)), rng.normal(3, 1, (6, 200))])
        y = [0] * 6 + [1] * 6
        model = M.lda_fit(x, y)
        assert M.lda_predict(model, x) == y

    def test_floored_inverse_wide(self):
        # the factored inverse equals the pooled covariance's eigendecomposition
        # with every eigenvalue below rel_tol * lambda_max raised to that floor
        rng = np.random.default_rng(21)
        x = rng.standard_normal((12, 30))
        y = [0] * 4 + [1] * 4 + [2] * 4
        model = M.lda_fit(x, y, rel_tol=1e-2)
        centered = x.copy()
        for c in (0, 1, 2):
            mask = np.array(y) == c
            centered[mask] -= x[mask].mean(axis=0)
        eigs, vecs = np.linalg.eigh(centered.T @ centered / (12 - 3))
        floored = np.maximum(eigs, 1e-2 * eigs.max())
        expected = (vecs / floored) @ vecs.T
        assert model.cov_basis.shape[1] < 30
        assert np.allclose(_factored_inverse(model), expected,
                           rtol=0, atol=1e-8 * np.abs(expected).max())

    def test_rel_tol_outside_unit_interval(self):
        for tol in (0.0, 1.0, -1e-3, 2.0, float("nan")):
            with pytest.raises(InvalidConfigError):
                M.lda_fit(np.eye(4), [0, 0, 1, 1], rel_tol=tol)

    def test_zero_scatter_nearest_mean(self):
        # one sample per class: no within-class spread to set a floor from
        x = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        model = M.lda_fit(x, ["a", "b", "c"])
        probe = np.array([[0.5, 0.2], [3.0, 1.0], [0.2, 3.5]])
        assert np.all(np.isfinite(model.scores(probe)))
        assert M.lda_predict(model, probe) == ["a", "b", "c"]

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            M.lda_fit(np.ones((4, 2)), [0, 0, 0, 0])  # one class
        model = M.lda_fit(np.eye(4), [0, 0, 1, 1])
        with pytest.raises(InvalidInputError):
            M.lda_predict(model, np.ones((1, 3)))


class TestLr:
    def test_separable_pair(self):
        model = M.lr_fit(np.array([[-1.0], [1.0]]), [-1, 1], "l2", 1e6)
        assert M.lr_predict(model, np.array([[-1.0], [1.0]])) == [-1, 1]

    def test_lambda_dominance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 5))
        y = list(rng.integers(0, 2, 40))
        model = M.lr_fit(x, y, "l2", 1e-9)
        assert np.max(np.abs(model.weights)) <= 1e-3

    def test_l1_sparsity_exact_zero(self):
        rng = np.random.default_rng(6)
        n = 200
        f1 = rng.standard_normal(n)
        y = list(np.where(f1 > 0, 1, -1))
        x = np.column_stack([f1, rng.standard_normal(n)])
        model = M.lr_fit(x, y, "l1", 10.0)
        w = model.weights[model.classes.index(1)]
        assert w[1] == 0.0
        assert w[0] != 0.0

    def test_gradient_vs_central_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 5))
        y = np.where(rng.standard_normal(30) > 0, 1.0, -1.0)
        for _ in range(10):
            wb = rng.standard_normal(6) * 0.5
            _, grad = _logistic_loss_grad(wb, x, y, 0.1, "l2")
            num = np.zeros_like(wb)
            eps = 1e-6
            for i in range(wb.size):
                e = np.zeros_like(wb)
                e[i] = eps
                lp, _ = _logistic_loss_grad(wb + e, x, y, 0.1, "l2")
                lm, _ = _logistic_loss_grad(wb - e, x, y, 0.1, "l2")
                num[i] = (lp - lm) / (2 * eps)
            rel = np.max(np.abs(grad - num)) / max(np.max(np.abs(num)), 1e-12)
            assert rel <= 1e-5

    def test_two_initializations_agree(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((60, 8))
        y = list(rng.integers(0, 2, 60))
        a = M.lr_fit(x, y, "l2", 1.0)
        b = M.lr_fit(x, y, "l2", 1.0, x0=rng.standard_normal(9))
        assert np.max(np.abs(a.weights - b.weights)) <= 1e-4

    def test_objective_not_worse_than_zero(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((50, 6))
        y = list(rng.integers(0, 2, 50))
        model = M.lr_fit(x, y, "l2", 2.0)
        for i, cls in enumerate(model.classes):
            yy = np.where(np.asarray(y, dtype=object) == cls, 1.0, -1.0)
            wb = np.concatenate([model.weights[i], [model.intercepts[i]]])
            loss, _ = _logistic_loss_grad(wb, x, yy, 0.5, "l2")
            assert loss <= np.log(2) + 1e-12

    def test_zero_weights_tie_goes_to_first_class(self):
        model = M.LrModel(classes=[0, 1, 2], weights=np.zeros((3, 2)),
                          intercepts=np.zeros(3), penalty="l2",
                          inverse_reg=1.0, converged=True, n_iter=0)
        scores = M.lr_scores(model, np.ones((1, 2)))
        assert np.allclose(scores, 0.5)
        assert M.lr_predict(model, np.ones((1, 2))) == [0]

    def test_scores_monotone_in_margin(self):
        model = M.LrModel(classes=[0, 1], weights=np.array([[1.0], [-1.0]]),
                          intercepts=np.zeros(2), penalty="l2",
                          inverse_reg=1.0, converged=True, n_iter=0)
        x = np.array([[-2.0], [0.0], [2.0]])
        s = M.lr_scores(model, x)[:, 0]
        assert s[0] < s[1] < s[2]

    def test_three_class_argmax_matches_bruteforce(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((12, 3))
        w = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        model = M.LrModel(classes=["a", "b", "c"], weights=w, intercepts=b,
                          penalty="l2", inverse_reg=1.0, converged=True, n_iter=0)
        pred = M.lr_predict(model, x)
        for i in range(12):
            scores = [1 / (1 + np.exp(-(w[j] @ x[i] + b[j]))) for j in range(3)]
            assert pred[i] == ["a", "b", "c"][int(np.argmax(scores))]

    def test_nonconvergence_warns_but_returns(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((30, 4))
        y = list(rng.integers(0, 2, 30))
        with pytest.warns(RuntimeWarning):
            model = M.lr_fit(x, y, "l1", 1e5, max_iter=2)
        assert not model.converged
        assert model.weights.shape == (2, 4)

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            M.lr_fit(np.eye(2), [0, 1], "elastic", 1.0)
        with pytest.raises(InvalidConfigError):
            M.lr_fit(np.eye(2), [0, 1], "l2", -1.0)

    def test_label_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            M.lr_fit(np.eye(4), [0, 1, 0], "l2", 1.0)

    def test_one_dimensional_features(self):
        with pytest.raises(InvalidInputError):
            M.lr_fit(np.arange(4.0), [0, 1, 0, 1], "l1", 1.0)

    def test_non_finite_features(self):
        x = np.eye(4)
        x[2, 1] = np.nan
        with pytest.raises(InvalidInputError):
            M.lr_fit(x, [0, 1, 0, 1], "l1", 1.0)


def _l1_objective_and_kkt(x, y, wb, lam):
    """Objective and KKT residual (largest entry of the minimum-norm
    subgradient) of mean logistic loss + lam ||w||_1 at wb = (w, b)."""
    loss, grad = _logistic_loss_grad(wb, x, y, 0.0, "none")
    w, g = wb[:-1], grad[:-1]
    sub = np.where(w > 0, np.abs(g + lam), np.where(
        w < 0, np.abs(g - lam), np.maximum(np.abs(g) - lam, 0.0)))
    return loss + lam * np.sum(np.abs(w)), max(np.max(sub), abs(grad[-1]))


def _binary_targets(labels, cls):
    return np.where(np.asarray(labels, dtype=object) == cls, 1.0, -1.0)


def _l2_full_gradients(model, x, labels):
    """Largest entry of the full-space gradient of mean logistic loss +
    ||w||^2 / C at each class's (w, b)."""
    lam = 1.0 / model.inverse_reg
    return [np.max(np.abs(_logistic_loss_grad(
        np.append(model.weights[i], model.intercepts[i]), x,
        _binary_targets(labels, cls), lam, "l2")[1]))
        for i, cls in enumerate(model.classes)]


def _wide_problem(m=40, n=2048, seed=24):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n))
    signal = x[:, :3] @ np.array([1.0, -1.0, 0.5])
    return x, list(np.digitize(signal, [-0.5, 0.5]))


def _lbfgs_reference(x, labels, inverse_reg):
    """The l2 fit by scipy L-BFGS-B over all n + 1 coordinates, to a
    gradient far below the solver's tolerance."""
    from scipy.optimize import minimize
    classes = sorted(set(labels))
    wb = [minimize(_logistic_loss_grad, np.zeros(x.shape[1] + 1),
                   args=(x, _binary_targets(labels, cls), 1.0 / inverse_reg, "l2"),
                   method="L-BFGS-B", jac=True,
                   options={"gtol": 1e-10, "ftol": 1e-300,
                            "maxiter": 100000, "maxfun": 1000000}).x
          for cls in classes]
    return M.LrModel(classes, np.array([v[:-1] for v in wb]),
                     np.array([v[-1] for v in wb]), "l2", inverse_reg, True, 0)


class TestLrL2:
    @pytest.mark.parametrize("inverse_reg", [1.0, 100.0, 1e4])
    def test_wide_input_reaches_gradient_tolerance(self, inverse_reg):
        x, y = _wide_problem()
        model = M.lr_fit(x, y, "l2", inverse_reg)
        assert model.converged and len(model.classes) == 3
        assert max(_l2_full_gradients(model, x, y)) <= 1e-6

    @pytest.mark.parametrize("shape",
                             ["tall", "centred", "duplicated", "1e12", "1e150"])
    def test_tall_rank_deficient_and_badly_scaled_inputs(self, shape):
        x, y = _wide_problem(*((80, 12) if shape == "tall" else (30, 200)))
        if shape == "centred":  # rank m - 1
            x = x - x.mean(axis=0)
        elif shape == "duplicated":
            x[-1], y[-1] = x[0], y[0]
        elif shape.startswith("1e"):  # the Hessian is numerically singular
            x = x * float(shape)
        model = M.lr_fit(x, y, "l2", 100.0)
        assert model.converged
        assert max(_l2_full_gradients(model, x, y)) <= 1e-6

    @pytest.mark.parametrize("inverse_reg", [1.0, 100.0, 1e4])
    def test_far_start_reaches_the_same_weights(self, inverse_reg):
        # a start whose margins are all in the hundreds
        x, y = _wide_problem(m=40, n=300)
        x0 = np.random.default_rng(27).standard_normal(301) * 10.0
        far = M.lr_fit(x, y, "l2", inverse_reg, x0=x0)
        near = M.lr_fit(x, y, "l2", inverse_reg)
        assert far.converged
        assert max(_l2_full_gradients(far, x, y)) <= 1e-6
        # the objective is (2 / C)-strongly convex, so two points whose
        # gradients are within 1e-6 per entry lie within this distance
        bound = 2e-6 * np.sqrt(x.shape[1] + 1) / (2.0 / inverse_reg)
        assert np.max(np.linalg.norm(far.weights - near.weights, axis=1)) <= bound
        assert M.lr_predict(far, x) == M.lr_predict(near, x)

    def test_start_is_projected_onto_the_row_space(self):
        # the start's part outside the row space is dropped, so a start at
        # class 1's solution plus such a part is that solution after no step;
        # class 0's solution is minus class 1's, so one step leaves it short
        x, labels = _wide_problem(m=40, n=300)
        y = [int(v == 1) for v in labels]
        model = M.lr_fit(x, y, "l2", 100.0)
        w, b = model.weights[1], model.intercepts[1]
        _, _, vt = np.linalg.svd(x, full_matrices=False)
        u = np.random.default_rng(28).standard_normal(300)
        u -= vt.T @ (vt @ u)
        with pytest.warns(RuntimeWarning, match="class 0 did not reach"):
            warm = M.lr_fit(x, y, "l2", 100.0, max_iter=1, x0=np.append(w + u, b))
        assert np.max(np.abs(warm.weights[1] - w)) <= 1e-12 * np.max(np.abs(w))
        assert warm.intercepts[1] == b

    def test_weights_lie_in_the_row_space(self):
        x, y = _wide_problem()
        model = M.lr_fit(x, y, "l2", 100.0,
                         x0=np.random.default_rng(25).standard_normal(x.shape[1] + 1))
        _, _, vt = np.linalg.svd(x, full_matrices=False)
        for w in model.weights:
            outside = w - vt.T @ (vt @ w)
            assert np.linalg.norm(outside) <= 1e-10 * np.linalg.norm(w)

    @pytest.mark.parametrize("inverse_reg", [1.0, 100.0])
    def test_predictions_match_lbfgs(self, inverse_reg):
        x, y = _wide_problem(m=40, n=300)
        model = M.lr_fit(x, y, "l2", inverse_reg)
        ref = _lbfgs_reference(x, y, inverse_reg)
        probe = np.vstack([x, np.random.default_rng(26).standard_normal((60, 300))])
        assert M.lr_predict(model, probe) == M.lr_predict(ref, probe)
        assert np.max(np.abs(model.weights - ref.weights)) <= 1e-4

    def test_one_newton_step_warns_and_is_not_converged(self):
        x, y = _wide_problem(m=40, n=300)
        with pytest.warns(RuntimeWarning, match="did not reach"):
            model = M.lr_fit(x, y, "l2", 100.0, max_iter=1)
        assert not model.converged and model.n_iter == 1


class TestLrL1:
    @pytest.fixture(scope="class")
    def sparse_problem(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((60, 8))
        y = list(np.where(x[:, 0] + 0.5 * x[:, 1]
                          + 0.5 * rng.standard_normal(60) > 0, 1, 0))
        return x, y

    def test_raw_spectra_converge_to_kkt_tolerance(self):
        # p >> n raw spectra, centred per feature: a fixed 1/L step stops
        # at the iteration cap here
        data = synth_dataset(SyntheticSpec())
        x = data.intensities[::2]
        x = x - x.mean(axis=0)
        labels = data.labels[::2]
        model = M.lr_fit(x, labels, "l1", 100.0)
        assert model.converged and model.n_iter < 5000
        for i, cls in enumerate(model.classes):
            wb = np.append(model.weights[i], model.intercepts[i])
            _, kkt = _l1_objective_and_kkt(x, _binary_targets(labels, cls),
                                           wb, 0.01)
            assert kkt <= 1e-6

    def test_two_initializations_agree(self, sparse_problem):
        x, y = sparse_problem
        a = M.lr_fit(x, y, "l1", 10.0)
        b = M.lr_fit(x, y, "l1", 10.0,
                     x0=np.random.default_rng(13).standard_normal(9))
        assert a.converged and b.converged
        assert np.any(a.weights == 0.0) and np.any(a.weights != 0.0)
        for i, cls in enumerate(a.classes):
            yy = _binary_targets(y, cls)
            obj_a, _ = _l1_objective_and_kkt(
                x, yy, np.append(a.weights[i], a.intercepts[i]), 0.1)
            obj_b, _ = _l1_objective_and_kkt(
                x, yy, np.append(b.weights[i], b.intercepts[i]), 0.1)
            assert abs(obj_a - obj_b) <= 1e-8

    def test_warm_start_from_solution_stops_at_first_iteration(self, sparse_problem):
        # a start that already meets the KKT test is returned before any step
        x, y = sparse_problem
        yy = _binary_targets(y, 1)[None]
        w, b, residual, steps, _ = M._fit_l1(x, yy, 0.1, 1e-6, 5000, np.zeros(9))
        assert residual[0] <= 1e-6 and steps[0] > 0
        start = np.append(w[0], b[0])
        w2, b2, residual2, steps2, _ = M._fit_l1(x, yy, 0.1, 1e-6, 5000, start)
        assert steps2[0] == 0 and residual2[0] <= 1e-6
        assert np.append(w2[0], b2[0]).tobytes() == start.tobytes()

    def test_weights_have_exact_zeros_and_meet_the_kkt_conditions(self):
        x, y = _wide_problem(m=40, n=300)
        model = M.lr_fit(x, y, "l1", 10.0)
        assert model.converged
        for i, cls in enumerate(model.classes):
            w = model.weights[i]
            assert 0 < np.count_nonzero(w) < 40
            _, kkt = _l1_objective_and_kkt(
                x, _binary_targets(y, cls), np.append(w, model.intercepts[i]), 0.1)
            assert kkt <= 1e-9

    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_polish_drops_and_adds_weights_to_reach_the_support(self, change):
        # from the solution with one weight too many (a zero weight set to
        # its loss-gradient's sign, which the polish carries back across 0)
        # or one too few, the polish ends on the solution's zeros
        x, labels = _wide_problem(m=40, n=300)
        y = _binary_targets(labels, 1)
        w, b, _, _, _ = M._fit_l1(x, y[None], 0.1, 1e-6, 5000, np.zeros(301))
        w, b = w[0], b[0]
        z = y * (x @ w + b)
        g = (-y / (1.0 + np.exp(z)) / 40) @ x
        start = w.copy()
        if change == "extra":
            j = int(np.argmax(np.where(w == 0.0, np.abs(g), -np.inf)))
            start[j] = 1e-3 * np.sign(g[j])
        else:
            j = int(np.argmax(np.abs(w)))
            start[j] = 0.0
        got, got_b, steps = M._polish_l1(x, y, 0.1, start, b, 1e-9, 100)
        assert steps > 0 and np.sign(got[j]) == np.sign(w[j])
        assert np.array_equal(got != 0.0, w != 0.0)
        _, kkt = _l1_objective_and_kkt(x, y, np.append(got, got_b), 0.1)
        assert kkt <= 1e-9

    def test_lambda_past_the_largest_gradient_gives_zero_weights_without_a_step(
            self, sparse_problem):
        # w = 0 is optimal once lam >= ||X^T c||_inf at the best intercept,
        # which is the log-odds of the class
        x, y = sparse_problem
        model = M.lr_fit(x, y, "l1", 0.1)
        assert model.converged and model.n_iter == 0
        assert not np.any(model.weights)
        share = np.mean(np.asarray(y) == 1)
        assert model.intercepts[1] == pytest.approx(np.log(share / (1 - share)),
                                                    abs=1e-12)

    def test_columns_zero_in_every_row_get_zero_weight(self, sparse_problem):
        x, y = sparse_problem
        wide = np.insert(x, [0, 3, 8], 0.0, axis=1)
        zero = [0, 4, 10]
        x0 = np.zeros(12)
        x0[zero] = 5.0  # a start with weight on the zero columns
        narrow, padded = M.lr_fit(x, y, "l1", 10.0), M.lr_fit(wide, y, "l1", 10.0, x0=x0)
        assert padded.converged and not np.any(padded.weights[:, zero])
        kept = np.delete(padded.weights, zero, axis=1)
        assert np.max(np.abs(kept - narrow.weights)) <= 1e-8
        assert np.array_equal(kept != 0.0, narrow.weights != 0.0)

    def test_features_zero_in_every_column_give_the_log_odds_intercepts(self):
        # no column is left to solve for: w = 0 and each intercept is the
        # log-odds of its class, taken without a step
        labels = ["a"] * 4 + ["b"] * 5 + ["c"] * 3
        x0 = np.arange(8.0)  # a start with weight on every (zero) column
        model = M.lr_fit(np.zeros((12, 7)), labels, "l1", 10.0, x0=x0)
        assert model.converged and model.n_iter == 0
        assert not np.any(model.weights)
        share = np.array([4, 5, 3]) / 12
        assert np.allclose(model.intercepts, np.log(share / (1 - share)),
                           rtol=0.0, atol=1e-12)
        assert 0.0 <= model.duality_gap <= 1e-12

    def test_classes_in_lock_step_agree_with_each_class_alone(self, synth_fold):
        xa, _, labels = synth_fold
        x = xa[:, :-1]
        ys = np.array([_binary_targets(labels, c) for c in sorted(set(labels))])
        lam = 1.0 / (100 * 40)
        w, b, residual, steps, gaps = M._fit_l1(x, ys, lam, 1e-6, 5000,
                                                np.zeros(xa.shape[1]))
        assert np.all(residual <= 1e-6)
        assert np.all(gaps <= 1e-9)
        for k, y in enumerate(ys):
            wk, bk, _, steps_k, _ = M._fit_l1(x, y[None], lam, 1e-6, 5000,
                                              np.zeros(xa.shape[1]))
            together, _ = _l1_objective_and_kkt(x, y, np.append(w[k], b[k]), lam)
            alone, _ = _l1_objective_and_kkt(x, y, np.append(wk[0], bk[0]), lam)
            assert abs(together - alone) <= 1e-10
            assert np.array_equal(w[k] != 0.0, wk[0] != 0.0)

    def test_badly_scaled_features_converge_within_the_step_cap(self, synth_fold):
        # features of the size of a smoothed second derivative, at a C large
        # enough to offset them: 5,000 FISTA iterations did not converge here
        xa, _, labels = synth_fold
        x = 0.002 * xa[:, :-1]
        model = M.lr_fit(x, labels, "l1", 100.0 * 4000)
        assert model.converged and model.n_iter <= 100
        assert model.duality_gap <= 1e-9
        for i, cls in enumerate(model.classes):
            _, kkt = _l1_objective_and_kkt(
                x, _binary_targets(labels, cls),
                np.append(model.weights[i], model.intercepts[i]), 1.0 / (100 * 4000))
            assert kkt <= 1e-6

    def test_duality_bounds_at_saturated_margins(self):
        # margins far past where sigma rounds to 0 or 1: the dual's entropy
        # meets 0 log 0, which must read as 0 and not warn
        x = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        ys = np.array([[1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, -1.0, 1.0]])
        for scale in (40.0, 800.0):
            w = np.array([[scale], [scale]])
            primal, dual, _, _ = M._duality_bounds(x, ys, 0.1, w, np.zeros(2))
            assert np.all(np.isfinite(primal)) and np.all(np.isfinite(dual))
            assert np.all(dual <= primal)

    def test_screening_drops_most_columns_within_a_few_steps(self, synth_fold):
        # the hard-thresholded fold at C = 100, as the classify workload fits
        # it: each class takes more than 20 steps, and after 20 every class
        # forms its Newton system from fewer than half of the columns
        xa, _, labels = synth_fold
        x = threshold(xa[:, :-1], "hard", magnitude_quantile(xa[:, :-1], 0.9))
        ys = np.array([_binary_targets(labels, c) for c in sorted(set(labels))])
        c, n = ys.shape[0], x.shape[1]
        *_, kept = M._barrier_l1(x, ys, 0.01, 20, np.zeros((c, n)), np.zeros(c))
        assert np.all(kept.sum(axis=1) < n / 2)
        w, _, _, steps, _, kept = M._barrier_l1(x, ys, 0.01, 5000, np.zeros((c, n)),
                                                np.zeros(c))
        assert np.all(steps > 20) and np.all(kept.sum(axis=1) < 40)
        assert not np.any(w[~kept])

    def test_a_dual_point_that_proves_nothing_drops_nothing(self, synth_fold,
                                                           monkeypatch):
        # the screening sphere is centred on the step's own dual point: from
        # step K + 1 on, every step's dual value reads primal - 1e6, so its
        # sphere bounds no column below lam, while the best dual value seen
        # still makes the gap small
        xa, _, labels = synth_fold
        x = threshold(xa[:, :-1], "hard", magnitude_quantile(xa[:, :-1], 0.9))
        ys = np.array([_binary_targets(labels, c) for c in sorted(set(labels))])
        c, n = ys.shape[0], x.shape[1]
        k = 10
        *_, want = M._barrier_l1(x, ys, 0.01, k, np.zeros((c, n)), np.zeros(c))
        bounds, calls = M._duality_bounds, []

        def proving_nothing(*args):
            primal, dual, g, scale = bounds(*args)
            calls.append(dual)
            return primal, dual if len(calls) <= k else primal - 1e6, g, scale

        monkeypatch.setattr(M, "_duality_bounds", proving_nothing)
        _, _, _, steps, _, kept = M._barrier_l1(x, ys, 0.01, 60, np.zeros((c, n)),
                                                np.zeros(c))
        assert np.all(steps > k) and len(calls) > k
        assert np.array_equal(kept, want)

    def test_l2_fits_report_no_gap(self, sparse_problem):
        x, y = sparse_problem
        assert M.lr_fit(x, y, "l2", 10.0).duality_gap is None
        assert M.lr_fit(x, y, "l1", 10.0).duality_gap <= 1e-9


# A long reference solve: FISTA with backtracking, written as plain formulas
# and run to a KKT residual of 1e-10, against which the barrier solver's
# objective, KKT residual and support are checked.

def _reference_soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _reference_kkt_residual(wb, grad, lam):
    w, g = wb[:-1], grad[:-1]
    sub = np.where(w != 0.0, np.abs(g + lam * np.sign(w)),
                   np.maximum(np.abs(g) - lam, 0.0))
    return max(float(np.max(sub, initial=0.0)), abs(float(grad[-1])))


def _reference_fit_binary_l1(xa, y, lam, grad_tol, max_iter, x0, lip):
    m = xa.shape[0]
    lip_max = lip
    wb = zb = x0.copy()
    xw = xz = xa @ wb
    t_acc = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        margin = y * xz
        loss_z = np.mean(np.logaddexp(0.0, -margin))
        grad = xa.T @ (-y / (1.0 + np.exp(np.clip(margin, -500, 500))) / m)
        if _reference_kkt_residual(zb, grad, lam) <= grad_tol:
            wb = zb
            converged = True
            break
        lip /= 2.0
        while True:
            new = zb - grad / lip
            new[:-1] = _reference_soft_threshold(new[:-1], lam / lip)
            step = new - zb
            xnew = xa @ new
            loss_new = np.mean(np.logaddexp(0.0, -y * xnew))
            if (lip >= lip_max or loss_new
                    <= loss_z + grad @ step + 0.5 * lip * (step @ step)):
                break
            lip *= 2.0
        if np.dot(zb - new, new - wb) > 0:
            t_acc = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        beta = (t_acc - 1.0) / t_next
        zb = new + beta * (new - wb)
        xz = (1.0 + beta) * xnew - beta * xw
        wb, xw = new, xnew
        t_acc = t_next
    return wb, converged, it


def _with_ones(x):
    xa = np.column_stack([x, np.ones(x.shape[0])])
    return xa, np.linalg.norm(xa, 2) ** 2 / (4.0 * x.shape[0])


@pytest.fixture(scope="module")
def synth_fold():
    """40 x 1600 training rows of the default synth set, centred as the
    classification grid centres them, with a trailing column of ones."""
    data = synth_dataset(SyntheticSpec())
    x = data.intensities[::2]
    return _with_ones(x - x.mean(axis=0)) + (data.labels[::2],)


def _assert_matches_reference(xa, y, lam, x0, lip):
    """The barrier solve from x0 against the reference solve from x0: the
    objective is not above the reference's and within 1e-10 of it, the KKT
    residual is at most 1e-9 and the zero weights are the same."""
    x = xa[:, :-1]
    w, b, residual, steps, gap = M._fit_l1(x, y[None], lam, 1e-6, 5000, x0)
    got = np.append(w[0], b[0])
    want, conv, _ = _reference_fit_binary_l1(xa, y, lam, 1e-10, 100000, x0, lip)
    assert conv
    obj, kkt = _l1_objective_and_kkt(x, y, got, lam)
    ref, _ = _l1_objective_and_kkt(x, y, want, lam)
    assert obj <= ref + 1e-15 and ref - obj <= 1e-10
    assert kkt <= 1e-9 and residual[0] <= 1e-9
    assert np.array_equal(got[:-1] != 0.0, want[:-1] != 0.0)
    assert 0.0 <= gap[0] <= 1e-9 and 0 < steps[0] <= 100


class TestAgainstReferenceSolve:
    def test_sparse_problem_both_classes_and_a_random_start(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((60, 8))
        y = np.where(x[:, 0] + 0.5 * x[:, 1]
                     + 0.5 * rng.standard_normal(60) > 0, 1.0, -1.0)
        xa, lip = _with_ones(x)
        starts = (np.zeros(9), np.random.default_rng(13).standard_normal(9))
        for yy in (y, -y):
            for x0 in starts:
                _assert_matches_reference(xa, yy, 0.1, x0, lip)

    @pytest.mark.parametrize("lam", [0.01, 1.0 / (100 * 40)])
    @pytest.mark.parametrize("cls", ["class_0", "class_3"])
    def test_synth_fold(self, synth_fold, lam, cls):
        xa, lip, labels = synth_fold
        _assert_matches_reference(xa, _binary_targets(labels, cls), lam,
                                  np.zeros(xa.shape[1]), lip)

    def test_synth_fold_random_start(self, synth_fold):
        xa, lip, labels = synth_fold
        x0 = np.random.default_rng(14).standard_normal(xa.shape[1]) * 1e-3
        _assert_matches_reference(xa, _binary_targets(labels, "class_1"), 0.01,
                                  x0, lip)

    @pytest.mark.parametrize("lam", [0.01, 1.0 / (100 * 40)])
    @pytest.mark.parametrize("features", ["centred", "sign"])
    def test_columns_the_barrier_drops_are_zero_in_the_reference(
            self, synth_fold, features, lam):
        # a column is dropped only where the dual optimum proves it zero in
        # every optimum; sign features repeat columns, so there the optimum
        # is not unique
        xa, _, labels = synth_fold
        x = xa[:, :-1]
        if features == "sign":
            x = sign_quantize(x, magnitude_quantile(x, 0.97))
        xa, lip = _with_ones(x)
        y = _binary_targets(labels, "class_0")
        n = x.shape[1]
        *_, kept = M._barrier_l1(x, y[None], lam, 5000, np.zeros((1, n)), np.zeros(1))
        want, conv, _ = _reference_fit_binary_l1(xa, y, lam, 1e-10, 100000,
                                                 np.zeros(n + 1), lip)
        assert conv and np.count_nonzero(~kept[0]) > n / 2
        assert not np.any(want[:-1][~kept[0]])

    def test_synth_fold_iteration_cap(self, synth_fold):
        xa, _, labels = synth_fold
        with pytest.warns(RuntimeWarning, match="did not reach"):
            model = M.lr_fit(xa[:, :-1], labels, "l1", 100.0, max_iter=5)
        assert not model.converged and model.n_iter == 5


class TestPairwiseDistances:
    def test_identical_points(self):
        d = M.pairwise_distances(np.ones((3, 2)), "euclidean")
        assert np.allclose(d, 0.0)

    def test_triangle_345(self):
        d = M.pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]), "euclidean")
        assert d[0, 1] == pytest.approx(5.0)

    def test_manhattan(self):
        d = M.pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]), "manhattan")
        assert d[0, 1] == pytest.approx(7.0)

    def test_cosine_orthogonal(self):
        d = M.pairwise_distances(np.array([[1.0, 0.0], [0.0, 2.0]]), "cosine")
        assert d[0, 1] == pytest.approx(1.0)

    def test_cosine_zero_vector(self):
        with pytest.raises(InvalidInputError):
            M.pairwise_distances(np.array([[0.0, 0.0], [1.0, 0.0]]), "cosine")

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((6, 3))
        for aff in M.AFFINITIES:
            d = M.pairwise_distances(x, aff)
            assert np.array_equal(d, d.T)
            assert np.allclose(np.diag(d), 0.0)


class TestGramMatrix:
    # the row sums of squares as they were taken before the row blocks:
    # numpy sums a contiguous row pairwise, and the rows of a column-major
    # array column by column, so 65 rows (one past a block) column-major
    # would differ in the last bits if a one-row block were cut off
    @pytest.mark.parametrize("rows", [1, 2, 3, 64, 65, 129, 500])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bit_equal_to_the_whole_block_formula(self, rows, layout):
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, 2 * 2048)) * 10.0 ** rng.integers(-3, 4, (rows, 2 * 2048))
        x = {"C": x[:, :2048], "F": np.asfortranarray(x[:, :2048]),
             "strided": np.asfortranarray(x)[:, ::2]}[layout]
        g, sq = M.gram_matrix(x)
        assert np.array_equal(g, x @ x.T)
        assert sq.tobytes() == np.sum(x * x, axis=1).tobytes()


def _hac_by_definition(x, linkage):
    """Reference HAC: merge the pair of clusters closest under the linkage's
    definition, computed from the members each time, until one is left."""
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    clusters = {i: [i] for i in range(len(x))}

    def dist(a, b):
        block = d[np.ix_(clusters[a], clusters[b])]
        if linkage == "single":
            return block.min()
        if linkage == "complete":
            return block.max()
        if linkage == "average":
            return block.mean()
        na, nb = len(clusters[a]), len(clusters[b])
        gap = x[clusters[a]].mean(axis=0) - x[clusters[b]].mean(axis=0)
        return np.sqrt(2.0 * na * nb / (na + nb)) * np.linalg.norm(gap)

    merges = []
    for new in range(len(x), 2 * len(x) - 1):
        h, a, b = min((dist(a, b), a, b) for a in clusters for b in clusters if a < b)
        merges.append((a, b, h, len(clusters[a]) + len(clusters[b])))
        clusters[new] = clusters.pop(a) + clusters.pop(b)
    return merges


def _hac(x, linkage, affinity="euclidean"):
    """The tree of the points ``x``: hac_fit on a stack of one matrix."""
    return M.hac_fit([M.pairwise_distances(x, affinity)], [linkage], [affinity])[0]


class TestHac:
    @pytest.mark.parametrize("linkage", M.LINKAGES)
    def test_matches_definition_on_random_points(self, linkage):
        # random points have no tied heights, so the tree is unique
        for seed in (20, 21, 22):
            x = np.random.default_rng(seed).standard_normal((14, 3))
            got = _hac(x, linkage).merges
            want = _hac_by_definition(x, linkage)
            assert [(a, b, c) for a, b, _, c in got] == [(a, b, c) for a, b, _, c in want]
            assert [m[2] for m in got] == pytest.approx([m[2] for m in want], rel=1e-10)

    def test_collinear_single_linkage(self):
        tree = _hac(np.array([[0.0], [1.0], [10.0]]), "single")
        assert tree.merges[0] == (0, 1, 1.0, 2)
        assert tree.merges[1][2] == pytest.approx(9.0)

    def test_two_points(self):
        for linkage in ("single", "complete", "average", "ward"):
            tree = _hac(np.array([[0.0], [3.0]]), linkage)
            assert len(tree.merges) == 1
            assert tree.merges[0][2] == pytest.approx(3.0)

    @pytest.mark.parametrize("linkage, heights", [
        ("single", [1.0, 2.0, 4.0]),
        ("complete", [1.0, 3.0, 7.0]),
        # means of the member distances: (3 + 2) / 2, then (7 + 6 + 4) / 3;
        # the size-blind "weighted" recurrence would end at (6.5 + 4) / 2
        ("average", [1.0, 2.5, 17.0 / 3.0]),
        # sqrt(2 na nb / (na + nb)) * |centroid gap|: sqrt(4/3) * 2.5, then
        # sqrt(6/4) * (7 - 4/3)
        ("ward", [1.0, np.sqrt(25.0 / 3.0), np.sqrt(1.5) * 17.0 / 3.0]),
    ])
    def test_heights_by_hand(self, linkage, heights):
        # points 0, 1, 3, 7: {0, 1} first, then 3 joins it, then 7
        tree = _hac(np.array([[0.0], [1.0], [3.0], [7.0]]), linkage)
        assert [m[:2] for m in tree.merges] == [(0, 1), (2, 4), (3, 5)]
        assert [m[3] for m in tree.merges] == [2, 3, 4]
        assert [m[2] for m in tree.merges] == pytest.approx(heights, rel=1e-12)

    def test_blobs_ward(self):
        rng = np.random.default_rng(13)
        x = np.vstack([rng.normal(0, 0.5, (15, 2)),
                       rng.normal(20, 0.5, (12, 2)),
                       rng.normal([0, 40], 0.5, (13, 2))])
        labels = [0] * 15 + [1] * 12 + [2] * 13
        tree = _hac(x, "ward", "euclidean")
        assert adjusted_rand(labels, M.cut_tree(tree, 3)) == 1.0

    def test_ward_requires_euclidean(self):
        with pytest.raises(InvalidConfigError):
            _hac(np.eye(3), "ward", "cosine")

    def test_heights_monotone(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((20, 4))
        for linkage, aff in (("single", "euclidean"), ("complete", "manhattan"),
                             ("average", "cosine"), ("ward", "euclidean")):
            tree = _hac(x, linkage, aff)
            heights = [m[2] for m in tree.merges]
            assert all(heights[i] <= heights[i + 1] + 1e-12
                       for i in range(len(heights) - 1)), linkage

    def test_permutation_invariance(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((25, 3))
        base = M.cut_tree(_hac(x, "average", "manhattan"), 4)
        perm = rng.permutation(25)
        permuted = M.cut_tree(_hac(x[perm], "average", "manhattan"), 4)
        undone = np.empty(25, dtype=int)
        undone[perm] = permuted
        assert adjusted_rand(base, list(undone)) == 1.0

    def test_deterministic_tie_break(self):
        # four corners of a square: first merge must pick ids (0, 1)
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        tree = _hac(x, "single")
        assert tree.merges[0][:2] == (0, 1)


def _assert_scipy_merges(x, linkage, affinity):
    """hac_fit against scipy's linkage on the same distance matrix: the
    same ids, counts and height bits."""
    from scipy.cluster.hierarchy import linkage as scipy_linkage
    from scipy.spatial.distance import squareform
    d = M.pairwise_distances(x, affinity)
    want = scipy_linkage(squareform(d, checks=False), method=linkage)
    got = M.hac_fit([d], [linkage], [affinity])[0].merges
    assert [(a, b, c) for a, b, _, c in got] == [
        (int(a), int(b), int(c)) for a, b, _, c in want]
    assert np.array_equal(np.array([m[2] for m in got]).view(np.uint64),
                          want[:, 2].view(np.uint64))


HAC_PAIRS = [(linkage, affinity) for linkage in M.LINKAGES
             for affinity in M.AFFINITIES
             if linkage != "ward" or affinity == "euclidean"]


def _assert_stack_merges(xs, linkages, affinities):
    """One stack call of hac_fit against scipy's linkage and against
    hac_fit on each matrix alone: the same ids, counts and height bits."""
    from scipy.cluster.hierarchy import linkage as scipy_linkage
    from scipy.spatial.distance import squareform
    mats = [M.pairwise_distances(x, aff) for x, aff in zip(xs, affinities)]
    trees = M.hac_fit(mats, linkages, affinities)
    assert len(trees) == len(mats)
    for tree, d, linkage, affinity in zip(trees, mats, linkages, affinities):
        assert (tree.n_leaves, tree.linkage, tree.affinity) == (
            d.shape[0], linkage, affinity)
        alone = M.hac_fit([d], [linkage], [affinity])[0]
        assert tree.merges == alone.merges
        want = scipy_linkage(squareform(d, checks=False), method=linkage)
        assert [(a, b, c) for a, b, _, c in tree.merges] == [
            (int(a), int(b), int(c)) for a, b, _, c in want]
        assert np.array_equal(np.array([m[2] for m in tree.merges]).view(np.uint64),
                              want[:, 2].view(np.uint64))


def _stack_points(rng, m, k, points):
    """k point sets of m rows, with mixed linkages and affinities."""
    pairs = [HAC_PAIRS[i % len(HAC_PAIRS)] for i in rng.permutation(k)]
    xs = [rng.standard_normal((m, 5)) if points == "random"
          else rng.integers(0, 3, (m, 3)) + 0.5 for _ in range(k)]
    return xs, [p[0] for p in pairs], [p[1] for p in pairs]


class TestHacMatchesScipy:
    @pytest.mark.parametrize("linkage, affinity", HAC_PAIRS)
    @pytest.mark.parametrize("points", ["random", "integer grid"])
    def test_small_blocks(self, linkage, affinity, points):
        # integer grid points repeat distances, so the tie-breaks show
        rng = np.random.default_rng(31)
        for m in range(2, 81):
            if points == "random":
                x = rng.standard_normal((m, 5))
            else:
                x = rng.integers(0, 3, (m, 3)) + 0.5
            _assert_scipy_merges(x, linkage, affinity)

    @pytest.mark.parametrize("linkage, affinity", HAC_PAIRS)
    def test_500_rows(self, linkage, affinity):
        x = np.random.default_rng(32).standard_normal((500, 40))
        _assert_scipy_merges(x, linkage, affinity)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_distances_raise(self, bad):
        d = M.pairwise_distances(np.eye(4), "euclidean")
        d[1, 2] = d[2, 1] = bad
        with pytest.raises(NumericalError):
            M.hac_fit([d], ["average"], ["euclidean"])

    def test_overflowing_linkage_distance_raises(self):
        # the average of 1.5e308 and 1.7e308 overflows in nx dx + ny dy
        d = np.array([[0.0, 1.0, 1.5e308], [1.0, 0.0, 1.7e308],
                      [1.5e308, 1.7e308, 0.0]])
        with pytest.raises(NumericalError), pytest.warns(RuntimeWarning):
            M.hac_fit([d], ["average"], ["euclidean"])

    # the same cases as stacks of K matrices in one call
    @pytest.mark.parametrize("points", ["random", "integer grid"])
    @pytest.mark.parametrize("more", [False, True], ids=["K=1", "K>m"])
    def test_stacks_match_scipy(self, points, more):
        # K > m runs the chain walks side by side, K = 1 one by one
        rng = np.random.default_rng(33)
        for m in (2, 3, 4, 5, 7, 10, 16, 25, 40, 60, 80):
            xs, linkages, affinities = _stack_points(rng, m, 2 * m + 3 if more else 1,
                                                     points)
            chained = sum(linkage != "single" for linkage in linkages)
            assert (chained >= m) == more
            _assert_stack_merges(xs, linkages, affinities)

    @pytest.mark.parametrize("points", ["random", "integer grid"])
    def test_side_by_side_walks_equal_walks_alone(self, points):
        # below the size rule too, with a linkage that has no walks
        rng = np.random.default_rng(34)
        for m in (2, 3, 6, 12, 30):
            for counts in ([1, 0, 0], [0, 2, 1], [3, 1, 2], [2, 2, 0]):
                linkages = [name for name, n in zip(M.CHAIN_LINKAGES, counts)
                            for _ in range(n)]
                mats = [M.pairwise_distances(
                    rng.standard_normal((m, 4)) if points == "random"
                    else rng.integers(0, 3, (m, 2)) + 0.5, "euclidean")
                    for _ in linkages]
                xs, ys, heights = M._lockstep_chain_walks(np.array(mats), counts)
                for row, (d, linkage) in enumerate(zip(mats, linkages)):
                    want = M._chain_walk(d, linkage)
                    assert (xs[row].tolist(), ys[row].tolist()) == want[:2]
                    assert np.array_equal(heights[row].view(np.uint64),
                                          np.array(want[2]).view(np.uint64))

    def test_one_non_finite_matrix_raises(self):
        rng = np.random.default_rng(35)
        for k in (1, 8):  # one by one, and side by side
            mats = [M.pairwise_distances(rng.standard_normal((4, 2)), "euclidean")
                    for _ in range(k)]
            mats[-1][1, 2] = mats[-1][2, 1] = np.nan
            with pytest.raises(NumericalError):
                M.hac_fit(mats, ["average"] * k, ["euclidean"] * k)

    def test_one_overflowing_walk_raises(self):
        # the average of 1.5e308 and 1.7e308 overflows in nx dx + ny dy
        huge = np.array([[0.0, 1.0, 1.5e308], [1.0, 0.0, 1.7e308],
                         [1.5e308, 1.7e308, 0.0]])
        tame = M.pairwise_distances(np.eye(3), "euclidean")
        for mats in ([huge], [tame, tame, huge, tame]):
            k = len(mats)
            with pytest.raises(NumericalError), pytest.warns(RuntimeWarning):
                M.hac_fit(mats, ["average"] * k, ["euclidean"] * k)

    def test_stack_arguments_are_checked(self):
        d = M.pairwise_distances(np.eye(3), "euclidean")
        with pytest.raises(InvalidInputError):
            M.hac_fit([d, d], ["average", "ward"], ["euclidean"])
        with pytest.raises(InvalidInputError):
            M.hac_fit([d, np.zeros((2, 2))], ["average"] * 2, ["euclidean"] * 2)
        # an empty stack, a non-square matrix and a 1 x 1 matrix
        for mats in ([], [np.zeros((2, 3))], [np.zeros((1, 1))]):
            with pytest.raises(InvalidInputError):
                M.hac_fit(mats, ["average"] * len(mats), ["euclidean"] * len(mats))
        with pytest.raises(InvalidConfigError):
            M.hac_fit([d], ["ward"], ["cosine"])


class TestCutTree:
    @pytest.fixture
    def tree(self):
        rng = np.random.default_rng(16)
        x = np.vstack([rng.normal(0, 0.3, (5, 2)), rng.normal(8, 0.3, (5, 2))])
        return _hac(x, "average")

    def test_all_singletons(self, tree):
        assert M.cut_tree(tree, 10) == list(range(10))

    def test_one_cluster(self, tree):
        assert M.cut_tree(tree, 1) == [0] * 10

    def test_blob_cut(self, tree):
        labels = M.cut_tree(tree, 2)
        assert adjusted_rand([0] * 5 + [1] * 5, labels) == 1.0

    def test_refinement(self, tree):
        fine = M.cut_tree(tree, 5)
        coarse = M.cut_tree(tree, 4)
        for g in set(fine):
            members = [i for i in range(10) if fine[i] == g]
            assert len({coarse[i] for i in members}) == 1

    def test_label_order_first_appearance(self, tree):
        labels = M.cut_tree(tree, 3)
        seen = []
        for v in labels:
            if v not in seen:
                seen.append(v)
        assert seen == sorted(seen)

    def test_k_out_of_range(self, tree):
        with pytest.raises(InvalidInputError):
            M.cut_tree(tree, 0)
        with pytest.raises(InvalidInputError):
            M.cut_tree(tree, 11)


class TestDendrogramExport:
    def test_two_leaves(self):
        tree = _hac(np.array([[0.0], [2.0]]), "complete")
        doc = M.dendrogram_export(tree, ["a", "b"])
        assert doc["n_leaves"] == 2
        kids = doc["root"]["children"]
        assert {k["name"] for k in kids} == {"a", "b"}
        assert doc["root"]["height"] == pytest.approx(2.0)

    def test_heights_non_decreasing_rootward(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((12, 3))
        tree = _hac(x, "complete")
        doc = M.dendrogram_export(tree, [str(i) for i in range(12)])

        def check(node):
            if "children" not in node:
                return
            for child in node["children"]:
                assert child["height"] <= node["height"] + 1e-12
                check(child)

        check(doc["root"])

    def test_json_round_trip(self):
        rng = np.random.default_rng(18)
        tree = _hac(rng.standard_normal((8, 2)), "ward", "euclidean")
        doc = M.dendrogram_export(tree, [f"s{i}" for i in range(8)])
        assert json.loads(json.dumps(doc)) == doc

    def test_name_count_mismatch(self):
        tree = _hac(np.array([[0.0], [2.0]]), "single")
        with pytest.raises(InvalidInputError):
            M.dendrogram_export(tree, ["only-one"])
