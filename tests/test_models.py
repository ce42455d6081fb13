"""Tests for the three learners."""
import json

import numpy as np
import pytest

from wavefeat.errors import InvalidConfigError, InvalidInputError
from wavefeat import models as M
from wavefeat.metrics import adjusted_rand
from wavefeat.models import _logistic_loss_grad
from wavefeat.numerics import pseudo_inverse
from wavefeat.synth import SyntheticSpec, synth_dataset


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
        assert np.allclose(model.pooled_covariance_pinv(),
                           pseudo_inverse(cov, 1e-10), atol=1e-10)

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
        assert np.allclose(model.pooled_covariance_pinv(), expected,
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
        x, y = sparse_problem
        xa = np.column_stack([x, np.ones(len(y))])
        lip = np.linalg.norm(xa, 2) ** 2 / (4.0 * len(y))
        yy = _binary_targets(y, 1)
        wb, conv, _ = M._fit_binary_l1(xa, yy, 0.1, 1e-6, 5000, np.zeros(9), lip)
        assert conv
        again, conv, n_it = M._fit_binary_l1(xa, yy, 0.1, 1e-6, 5000, wb, lip)
        assert conv and n_it == 1
        assert np.array_equal(again, wb)


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


class TestHac:
    def test_collinear_single_linkage(self):
        tree = M.hac_fit(np.array([[0.0], [1.0], [10.0]]), "single")
        assert tree.merges[0] == (0, 1, 1.0, 2)
        assert tree.merges[1][2] == pytest.approx(9.0)

    def test_two_points(self):
        for linkage in ("single", "complete", "average", "ward"):
            tree = M.hac_fit(np.array([[0.0], [3.0]]), linkage)
            assert len(tree.merges) == 1
            assert tree.merges[0][2] == pytest.approx(3.0)

    def test_blobs_ward(self):
        rng = np.random.default_rng(13)
        x = np.vstack([rng.normal(0, 0.5, (15, 2)),
                       rng.normal(20, 0.5, (12, 2)),
                       rng.normal([0, 40], 0.5, (13, 2))])
        labels = [0] * 15 + [1] * 12 + [2] * 13
        tree = M.hac_fit(x, "ward", "euclidean")
        assert adjusted_rand(labels, M.cut_tree(tree, 3)) == 1.0

    def test_ward_requires_euclidean(self):
        with pytest.raises(InvalidConfigError):
            M.hac_fit(np.eye(3), "ward", "cosine")

    def test_heights_monotone(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((20, 4))
        for linkage, aff in (("single", "euclidean"), ("complete", "manhattan"),
                             ("average", "cosine"), ("ward", "euclidean")):
            tree = M.hac_fit(x, linkage, aff)
            heights = [m[2] for m in tree.merges]
            assert all(heights[i] <= heights[i + 1] + 1e-12
                       for i in range(len(heights) - 1)), linkage

    def test_permutation_invariance(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((25, 3))
        base = M.cut_tree(M.hac_fit(x, "average", "manhattan"), 4)
        perm = rng.permutation(25)
        permuted = M.cut_tree(M.hac_fit(x[perm], "average", "manhattan"), 4)
        undone = np.empty(25, dtype=int)
        undone[perm] = permuted
        assert adjusted_rand(base, list(undone)) == 1.0

    def test_deterministic_tie_break(self):
        # four corners of a square: first merge must pick ids (0, 1)
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        tree = M.hac_fit(x, "single")
        assert tree.merges[0][:2] == (0, 1)


class TestCutTree:
    @pytest.fixture
    def tree(self):
        rng = np.random.default_rng(16)
        x = np.vstack([rng.normal(0, 0.3, (5, 2)), rng.normal(8, 0.3, (5, 2))])
        return M.hac_fit(x, "average")

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
        tree = M.hac_fit(np.array([[0.0], [2.0]]), "complete")
        doc = M.dendrogram_export(tree, ["a", "b"])
        assert doc["n_leaves"] == 2
        kids = doc["root"]["children"]
        assert {k["name"] for k in kids} == {"a", "b"}
        assert doc["root"]["height"] == pytest.approx(2.0)

    def test_heights_non_decreasing_rootward(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((12, 3))
        tree = M.hac_fit(x, "complete")
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
        tree = M.hac_fit(rng.standard_normal((8, 2)), "ward", "euclidean")
        doc = M.dendrogram_export(tree, [f"s{i}" for i in range(8)])
        assert json.loads(json.dumps(doc)) == doc

    def test_name_count_mismatch(self):
        tree = M.hac_fit(np.array([[0.0], [2.0]]), "single")
        with pytest.raises(InvalidInputError):
            M.dendrogram_export(tree, ["only-one"])


class TestModelSerialization:
    def test_lda_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((20, 5))
        y = [0] * 10 + [1] * 10
        model = M.lda_fit(x, y)
        path = str(tmp_path / "lda.npz")
        M.save_model(path, model)
        loaded = M.load_model(path)
        assert loaded.classes == model.classes
        assert np.array_equal(loaded.means, model.means)
        assert M.lda_predict(loaded, x) == M.lda_predict(model, x)

    def test_lr_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((20, 4))
        y = list(rng.integers(0, 3, 20))
        model = M.lr_fit(x, y, "l2", 10.0)
        path = str(tmp_path / "lr.npz")
        M.save_model(path, model)
        loaded = M.load_model(path)
        assert loaded.penalty == "l2"
        assert np.array_equal(loaded.weights, model.weights)
        assert M.lr_predict(loaded, x) == M.lr_predict(model, x)

    def test_lda_round_trip_wide(self, tmp_path):
        # rank-deficient pooled covariance: the complement variance is saved too
        rng = np.random.default_rng(22)
        x = np.vstack([rng.normal(0, 1, (6, 200)), rng.normal(1, 1, (6, 200))])
        y = [0] * 6 + [1] * 6
        model = M.lda_fit(x, y)
        assert model.complement_inv_var > 0
        path = str(tmp_path / "lda_wide.npz")
        M.save_model(path, model)
        loaded = M.load_model(path)
        assert loaded.complement_inv_var == model.complement_inv_var
        probe = rng.normal(0.5, 1, (40, 200))
        assert np.array_equal(loaded.scores(probe), model.scores(probe))
        assert M.lda_predict(loaded, probe) == M.lda_predict(model, probe)

    def test_numpy_labels_become_plain(self, tmp_path):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((30, 4))
        y = rng.integers(0, 3, 30)
        for model, predict in ((M.lda_fit(x, y), M.lda_predict),
                               (M.lr_fit(x, y, "l2", 1.0), M.lr_predict)):
            assert model.classes == [0, 1, 2]
            assert all(type(c) is int for c in model.classes)
            assert all(type(p) is int for p in predict(model, x))
            path = str(tmp_path / "model.npz")
            M.save_model(path, model)
            loaded = M.load_model(path)
            assert loaded.classes == model.classes
            assert predict(loaded, x) == predict(model, x)
