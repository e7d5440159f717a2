import numpy as np
import pytest

from cgdp import discovery
from cgdp.discovery import (NotearsConfig, acyclicity, corrupt_masks,
                            discover_masks, notears_fit)
from cgdp.scm import Transitions, generate_dataset, random_scm

from conftest import rel_err
from references import exact_masks, exhaustive_dag_oracle


class TestAcyclicity:
    def test_zero_matrix(self):
        assert acyclicity(np.zeros((3, 3))) == 0.0

    def test_two_cycle(self):
        h = acyclicity(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert abs(h - (2.0 * np.cosh(1.0) - 2.0)) < 1e-12
        assert abs(h - 1.0862) < 1e-4

    def test_single_edge_is_acyclic(self):
        assert abs(acyclicity(np.array([[0.0, 1.0], [0.0, 0.0]]))) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.standard_normal((4, 4)) * 0.5
            _, grad = acyclicity(w, with_grad=True)
            fd = np.zeros_like(w)
            h = 1e-6
            for i in range(4):
                for j in range(4):
                    wp, wm = w.copy(), w.copy()
                    wp[i, j] += h
                    wm[i, j] -= h
                    fd[i, j] = (acyclicity(wp) - acyclicity(wm)) / (2 * h)
            assert rel_err(grad, fd) < 1e-5

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            acyclicity(np.zeros((2, 3)))


class TestNotearsFit:
    def test_three_node_chain_recovery(self):
        rng = np.random.default_rng(1)
        n = 1000
        x1 = rng.standard_normal(n)
        x2 = 1.5 * x1 + rng.standard_normal(n)
        x3 = -1.2 * x2 + rng.standard_normal(n)
        cfg = NotearsConfig()
        res = notears_fit(np.column_stack([x1, x2, x3]), cfg)
        est = np.abs(res.w) >= cfg.tau
        truth = np.zeros((3, 3), dtype=bool)
        truth[0, 1] = truth[1, 2] = True
        assert np.array_equal(est, truth)
        assert abs(res.w[0, 1] - 1.5) < 0.15
        assert abs(res.w[1, 2] + 1.2) < 0.15

    def test_independent_noise_yields_empty_graph(self):
        rng = np.random.default_rng(2)
        cfg = NotearsConfig()
        res = notears_fit(rng.standard_normal((1000, 3)), cfg)
        assert np.all(np.abs(res.w) < cfg.tau)

    def test_two_node_weight_estimate(self):
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal(1000)
        x2 = 2.0 * x1 + rng.standard_normal(1000)
        cfg = NotearsConfig()
        res = notears_fit(np.column_stack([x1, x2]), cfg)
        assert 1.85 <= res.w[0, 1] <= 2.15
        assert abs(res.w[1, 0]) < cfg.tau

    def test_thresholded_pattern_invariant_to_column_scaling(self):
        rng = np.random.default_rng(4)
        n = 2000
        x1 = rng.standard_normal(n)
        x2 = 1.5 * x1 + rng.standard_normal(n)
        x3 = 1.2 * x1 - 1.4 * x2 + rng.standard_normal(n)
        data = np.column_stack([x1, x2, x3])
        cfg = NotearsConfig()
        base = np.abs(notears_fit(data, cfg).w) >= cfg.tau
        # modest positive rescalings only: extreme scalings change the
        # noise-variance ordering the least-squares score relies on
        scaled = data * np.array([1.3, 0.8, 1.1])
        assert np.array_equal(np.abs(notears_fit(scaled, cfg).w) >= cfg.tau,
                              base)

    def test_acyclicity_tolerance_reached(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((500, 3))
        res = notears_fit(x, NotearsConfig())
        assert res.converged and res.h_value <= discovery._TOL

    def test_acyclic_support_evaluates_acyclicity_once(self, monkeypatch):
        import cgdp.numerics
        rng = np.random.default_rng(5)
        x = rng.standard_normal((200, 3))
        x[:, 2] += 1.5 * x[:, 0]
        forbidden = np.tril(np.ones((3, 3), dtype=bool))  # only i -> j > i
        calls = []
        real = cgdp.numerics.mat_expm
        monkeypatch.setattr(cgdp.numerics, "mat_expm",
                            lambda m: calls.append(m) or real(m))
        res = notears_fit(x, NotearsConfig(), forbidden=forbidden)
        assert len(calls) == 1
        assert res.converged and res.h_value == 0.0
        found = np.abs(res.w) >= NotearsConfig().tau
        assert np.array_equal(np.argwhere(found), [[0, 2]])

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            notears_fit(np.zeros((10, 3)), NotearsConfig())

    @pytest.mark.parametrize("max_inner", [0, -5])
    def test_rejects_no_inner_iterations(self, max_inner):
        with pytest.raises(ValueError, match="notears.max_inner must be >= 1"):
            NotearsConfig(max_inner=max_inner)
        NotearsConfig(max_inner=1)


class TestExhaustiveOracle:
    def test_two_node_linear(self):
        rng = np.random.default_rng(6)
        x1 = rng.standard_normal(1000)
        x2 = 2.0 * x1 + rng.standard_normal(1000)
        dag = exhaustive_dag_oracle(np.column_stack([x1, x2]))
        assert dag.adjacency[0, 1] != 0 and dag.adjacency[1, 0] == 0

    def test_pure_noise_empty_graph(self):
        rng = np.random.default_rng(7)
        dag = exhaustive_dag_oracle(rng.standard_normal((1000, 2)))
        assert np.all(dag.adjacency == 0)

    def test_three_node_collider(self):
        rng = np.random.default_rng(8)
        n = 1000
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        x3 = x1 + x2 + rng.standard_normal(n)
        dag = exhaustive_dag_oracle(np.column_stack([x1, x2, x3]))
        pattern = dag.adjacency != 0
        truth = np.zeros((3, 3), dtype=bool)
        truth[0, 2] = truth[1, 2] = True
        assert np.array_equal(pattern, truth)

    def test_rejects_more_than_four_variables(self):
        with pytest.raises(ValueError):
            exhaustive_dag_oracle(np.zeros((100, 5)))


class TestDiscoverMasks:
    def test_ground_truth_recovery(self):
        rng = np.random.default_rng(9)
        scm = random_scm(4, 3, 2, rng=rng)
        data = generate_dataset(scm, 2000, 5, 1.5, rng)
        masks = discover_masks(data, NotearsConfig()).masks
        gt = exact_masks(scm)
        for est, true in ((masks.c_ss, gt.c_ss), (masks.c_as, gt.c_as),
                          (masks.u_sr, gt.u_sr), (masks.u_ar, gt.u_ar)):
            assert np.sum(est != true) <= 1

    def test_temporal_blocks_forbidden(self):
        rng = np.random.default_rng(10)
        scm = random_scm(3, 2, 2, rng=rng)
        data = generate_dataset(scm, 200, 5, 1.5, rng)
        result = discover_masks(data, NotearsConfig())
        n, d = 3, 2
        assert np.all(result.w[:, :n + d] == 0)
        assert np.all(result.w[-1, :] == 0)

    def test_constant_action_gives_no_action_masks(self):
        rng = np.random.default_rng(11)
        scm = random_scm(3, 2, 2, rng=rng)
        data = generate_dataset(scm, 200, 5, 0.0, rng)
        data.a[:] = 0.7
        masks = discover_masks(data, NotearsConfig()).masks
        assert np.all(masks.c_as == 0) and np.all(masks.u_ar == 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            discover_masks(Transitions.zeros(0, 3, 2), NotearsConfig())


class TestCorruptMasks:
    def test_flip_prob_zero_identity(self):
        rng = np.random.default_rng(12)
        scm = random_scm(3, 2, 2, rng=rng)
        masks = exact_masks(scm)
        out = corrupt_masks(masks, 0.0, np.random.default_rng(0))
        assert np.array_equal(out.c_ss, masks.c_ss)
        assert np.array_equal(out.c_as, masks.c_as)
        assert np.array_equal(out.u_sr, masks.u_sr)
        assert np.array_equal(out.u_ar, masks.u_ar)

    def test_flip_prob_one_complement(self):
        rng = np.random.default_rng(13)
        scm = random_scm(3, 2, 2, rng=rng)
        masks = exact_masks(scm)
        out = corrupt_masks(masks, 1.0, np.random.default_rng(0))
        assert np.array_equal(out.c_ss, 1.0 - masks.c_ss)
        assert np.array_equal(out.u_ar, 1.0 - masks.u_ar)

    def test_binomial_flip_count(self):
        from cgdp.scm import CausalMasks
        masks = CausalMasks(np.zeros((8, 8)), np.zeros((4, 8)),
                            np.zeros(8), np.zeros(4))
        out = corrupt_masks(masks, 0.25, np.random.default_rng(14))
        flips = (np.sum(out.c_ss) + np.sum(out.c_as) + np.sum(out.u_sr)
                 + np.sum(out.u_ar))
        total = 64 + 32 + 8 + 4
        expect = 0.25 * total
        sigma = np.sqrt(total * 0.25 * 0.75)
        assert abs(flips - expect) <= 3 * sigma

    def test_rejects_bad_probability(self):
        from cgdp.scm import CausalMasks
        masks = CausalMasks(np.zeros((2, 2)), np.zeros((1, 2)),
                            np.zeros(2), np.zeros(1))
        with pytest.raises(ValueError):
            corrupt_masks(masks, 1.5, np.random.default_rng(0))
