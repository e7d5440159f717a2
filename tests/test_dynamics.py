import numpy as np
import pytest

from cgdp.dynamics import (CausalDynamics, do_intervention_joint_grad,
                           fit_dynamics, joint_grad_jacobian, load_dynamics,
                           save_dynamics)
from cgdp.scm import (CausalMasks, GroundTruthScm, generate_dataset,
                      random_scm)

from conftest import central_fd, rel_err
from references import (exact_masks, reward_logpdf_grad,
                        transition_logpdf_grad)


def ones_masks(n, d):
    return CausalMasks(np.ones((n, n)), np.ones((d, n)), np.ones(n),
                       np.ones(d))


def simple_linear_dyn(n=2, d=2):
    return CausalDynamics(masks=ones_masks(n, d),
                          sigma_s=np.eye(n), sigma_r=1.0,
                          a_s=np.zeros((n, n)), a_a=np.eye(d, n),
                          b_s=np.zeros(n), b_a=np.ones(d))


def random_data(d=2):
    rng = np.random.default_rng(0)
    scm = random_scm(2, d, d, rng=rng)
    return generate_dataset(scm, 60, 5, 1.5, rng)


class TestApplyMasks:
    def test_all_ones_identity_gate(self):
        # all-ones gates fit the unmasked least-squares operators
        data = random_data()
        dyn = fit_dynamics(data, ones_masks(2, 2))
        x = np.concatenate([data.s, data.a], axis=1)
        coefs = np.linalg.lstsq(x, data.s_next, rcond=None)[0]
        assert np.allclose(np.vstack([dyn.a_s, dyn.a_a]), coefs,
                           rtol=1e-9, atol=1e-12)

    def test_all_zero_masks(self):
        data = random_data()
        dyn = fit_dynamics(data, CausalMasks(np.zeros((2, 2)),
                                             np.zeros((2, 2)), np.zeros(2),
                                             np.zeros(2)))
        rng = np.random.default_rng(1)
        s, a = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
        out = dyn.transition_mean_batch(s, a)
        assert np.all(out == out[0])
        r = dyn.reward_mean_batch(s, a)
        assert np.all(r == r[0])

    def test_reward_masks(self):
        data = random_data(d=1)
        dyn = fit_dynamics(data, CausalMasks(np.ones((2, 2)),
                                             np.ones((1, 2)),
                                             np.array([1.0, 0.0]),
                                             np.array([0.0])))
        assert dyn.b_s[1] == 0.0 and dyn.b_a[0] == 0.0 and dyn.b_s[0] != 0
        r = dyn.reward_mean_batch(np.array([[3.0, 5.0]]), np.array([[7.0]]))
        assert r[0] == dyn.reward_mean_batch(np.array([[3.0, -2.0]]),
                                             np.array([[0.0]]))[0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            simple_linear_dyn().transition_mean_batch(np.ones((1, 3)),
                                                      np.ones((1, 2)))


class TestFitDynamics:
    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(0)
        scm = random_scm(3, 2, 2, rng=rng)
        noiseless = GroundTruthScm(scm.f_s, scm.f_a, scm.b_s, scm.b_a,
                                   np.zeros((3, 3)), 0.0)
        data = generate_dataset(noiseless, 100, 5, 1.0, rng)
        dyn = fit_dynamics(data, exact_masks(scm))
        assert np.max(np.abs(dyn.a_s - scm.f_s)) < 1e-6
        assert np.max(np.abs(dyn.a_a - scm.f_a)) < 1e-6
        assert np.max(np.abs(dyn.b_s - scm.b_s)) < 1e-6
        assert np.max(np.abs(dyn.b_a - scm.b_a)) < 1e-6

    def test_noisy_consistency(self):
        rng = np.random.default_rng(1)
        scm = random_scm(3, 2, 2, rng=rng, noise_scale=np.sqrt(0.1))
        data = generate_dataset(scm, 2000, 5, 1.5, rng)
        dyn = fit_dynamics(data, exact_masks(scm))
        assert np.max(np.abs(dyn.a_s - scm.f_s)) < 0.05
        assert np.max(np.abs(dyn.a_a - scm.f_a)) < 0.05
        rel = np.linalg.norm(dyn.sigma_s - scm.sigma_s) / \
            np.linalg.norm(scm.sigma_s)
        assert rel < 0.15

    def test_mask_zero_coefficients_exactly_zero(self):
        rng = np.random.default_rng(2)
        scm = random_scm(3, 2, 2, rng=rng)
        data = generate_dataset(scm, 200, 5, 1.5, rng)
        masks = exact_masks(scm)
        masks.c_as[:] = 0.0
        dyn = fit_dynamics(data, masks)
        assert np.all(dyn.a_a == 0)

    def test_requires_enough_transitions(self):
        rng = np.random.default_rng(3)
        scm = random_scm(3, 2, 2, rng=rng)
        data = generate_dataset(scm, 2, 5, 1.0, rng)
        with pytest.raises(ValueError):
            fit_dynamics(data, exact_masks(scm))


class TestGradients:
    def test_transition_grad_trivial(self):
        dyn = simple_linear_dyn()
        _, grad = transition_logpdf_grad(dyn, np.zeros(2),
                                         np.array([1.0, 0.0]), np.zeros(2))
        assert np.allclose(grad, np.array([-1.0, 0.0]), atol=1e-14)

    def test_transition_grad_zero_at_mean(self):
        dyn = simple_linear_dyn()
        a = np.array([0.3, -0.4])
        s = np.ones(2)
        mean = s @ dyn.a_s + a @ dyn.a_a
        _, grad = transition_logpdf_grad(dyn, s, a, mean)
        assert np.allclose(grad, 0.0, atol=1e-14)

    def test_reward_grad_trivial(self):
        dyn = CausalDynamics(masks=ones_masks(1, 1),
                             sigma_s=np.eye(1), sigma_r=1.0,
                             a_s=np.zeros((1, 1)), a_a=np.zeros((1, 1)),
                             b_s=np.zeros(1), b_a=np.ones(1))
        _, grad = reward_logpdf_grad(dyn, np.zeros(1), np.array([2.0]), 0.0)
        assert np.allclose(grad, np.array([-2.0]), atol=1e-14)

    def test_reward_grad_zero_at_prediction(self):
        dyn = simple_linear_dyn()
        s_next, a = np.ones(2), np.array([0.5, -0.5])
        r = dyn.reward_mean_batch(s_next[None], a[None])[0]
        _, grad = reward_logpdf_grad(dyn, s_next, a, r)
        assert np.allclose(grad, 0.0, atol=1e-14)

    def test_joint_grad_reductions_and_additivity(self):
        dyn = simple_linear_dyn()
        s, a = np.ones((1, 2)), np.array([[0.2, -0.7]])
        s_next = np.array([[0.5, 0.1]])
        zero = do_intervention_joint_grad(dyn, s, a, s_next, 1.0, 0.0, 0.0)
        assert zero.shape == (1, 2) and np.all(zero == 0)
        rows = np.tile(a, (3, 1))
        for sn in (s_next, None):
            zero = do_intervention_joint_grad(dyn, s, rows, sn, 1.0, 0.0,
                                              0.0)
            assert zero.shape == rows.shape and np.all(zero == 0)
        _, gt = transition_logpdf_grad(dyn, s[0], a[0], s_next[0])
        only_t = do_intervention_joint_grad(dyn, s, a, s_next, 1.0, 1.0, 0.0)
        assert np.array_equal(only_t[0], gt)
        _, gr = reward_logpdf_grad(dyn, s_next[0], a[0], 1.0)
        both = do_intervention_joint_grad(dyn, s, a, s_next, 1.0, 1.0, 1.0)
        assert np.allclose(both[0], gt + gr, atol=1e-14)

    def test_batched_rows_match_single_rows(self, small_instance):
        _, dyn, _ = small_instance
        rng = np.random.default_rng(8)
        s = rng.standard_normal((4, dyn.n))
        a = rng.uniform(-1, 1, (4, dyn.d))
        s_next = rng.standard_normal((4, dyn.n))
        r = rng.standard_normal(4)
        shared = do_intervention_joint_grad(dyn, s[:1], a, s_next[:1], r[0],
                                            0.7, 1.3)
        assert np.allclose(shared[1], do_intervention_joint_grad(
            dyn, s[:1], a[1:2], s_next[:1], r[0], 0.7, 1.3)[0], rtol=1e-12)
        for sn in (s_next, None):
            batched = do_intervention_joint_grad(dyn, s, a, sn, r, 0.7, 1.3)
            for i in range(4):
                row = do_intervention_joint_grad(
                    dyn, s[i:i + 1], a[i:i + 1],
                    None if sn is None else sn[i:i + 1], r[i], 0.7, 1.3)
                assert np.allclose(batched[i], row[0], rtol=1e-12,
                                   atol=1e-14)

    def test_action_jacobian_matches_finite_differences(self, small_instance):
        _, dyn, _ = small_instance
        rng = np.random.default_rng(9)
        s = rng.standard_normal((1, dyn.n))
        s_next = rng.standard_normal((1, dyn.n))
        a = rng.uniform(-1, 1, dyn.d)
        for sn in (s_next, None):
            jac = joint_grad_jacobian(dyn, 0.7, 1.3, predicted_next=sn is None)
            for i in range(dyn.d):
                fd = central_fd(lambda v: do_intervention_joint_grad(
                    dyn, s, v[None], sn, 0.4, 0.7, 1.3)[0, i], a)
                assert rel_err(jac[i], fd) < 1e-6

    def test_linear_gradients_match_finite_differences(self, small_instance):
        _, dyn, _ = small_instance
        rng = np.random.default_rng(4)
        for _ in range(30):
            s = rng.standard_normal(dyn.n)
            a = rng.uniform(-1, 1, dyn.d)
            s_next = rng.standard_normal(dyn.n)
            r = rng.standard_normal()
            _, grad = transition_logpdf_grad(dyn, s, a, s_next)
            fd = central_fd(
                lambda v: transition_logpdf_grad(dyn, s, v, s_next)[0], a)
            assert rel_err(grad, fd) < 1e-6
            _, grad = reward_logpdf_grad(dyn, s_next, a, r)
            fd = central_fd(
                lambda v: reward_logpdf_grad(dyn, s_next, v, r)[0], a)
            assert rel_err(grad, fd) < 1e-6

    def test_factorization_joint_equals_sum_of_logpdfs(self, small_instance):
        _, dyn, _ = small_instance
        rng = np.random.default_rng(5)
        s = rng.standard_normal(dyn.n)
        a = rng.uniform(-1, 1, dyn.d)
        s_next = rng.standard_normal(dyn.n)
        r = rng.standard_normal()
        lt, _ = transition_logpdf_grad(dyn, s, a, s_next)
        lr, _ = reward_logpdf_grad(dyn, s_next, a, r)
        joint = lt + lr
        assert np.isfinite(joint)


class TestMaskInvariance:
    def test_masked_out_inputs_have_no_influence(self):
        rng = np.random.default_rng(6)
        scm = random_scm(3, 2, 2, rng=rng)
        data = generate_dataset(scm, 200, 5, 1.5, rng)
        masks = exact_masks(scm)
        dyn = fit_dynamics(data, masks)
        s = rng.standard_normal((1, 3))
        a = rng.uniform(-1, 1, (1, 2))
        base = dyn.transition_mean_batch(s, a)[0]
        # each action coordinate moves exactly the outputs it is gated into
        for j in range(dyn.d):
            a2 = a.copy()
            a2[0, j] += 5.0
            moved = dyn.transition_mean_batch(s, a2)[0] != base
            assert np.array_equal(moved, masks.c_as[j] != 0)


def header_with(index, value):
    """An edit that sets token ``index`` of the header line to ``value``."""
    def edit(lines):
        head = lines[0].split()
        head[index] = value
        return [" ".join(head)] + lines[1:]
    return edit


class TestCheckpoint:
    def test_round_trip_bit_exact(self, small_instance, tmp_path):
        _, dyn, _ = small_instance
        p1 = tmp_path / "dyn.txt"
        p2 = tmp_path / "dyn2.txt"
        save_dynamics(dyn, str(p1))
        loaded = load_dynamics(str(p1))
        assert np.array_equal(loaded.a_s, dyn.a_s)
        assert np.array_equal(loaded.a_a, dyn.a_a)
        assert np.array_equal(loaded.sigma_s, dyn.sigma_s)
        assert loaded.sigma_r == dyn.sigma_r
        assert loaded.r_star == dyn.r_star
        save_dynamics(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:10] + [" ".join(lines[10].split()[:-2])]
         + lines[11:], ":11: array a_s needs 9 finite values"),
        (lambda lines: lines[:12] + ["nan " + lines[12].split(" ", 1)[1]]
         + lines[13:], ":13: array a_a needs 6 finite values"),
        (lambda lines: lines[:-1], ":19: array sigma_s needs 9"),
        (lambda lines: lines[:5], ":6: expected array header 'u_sr 3'"),
        (lambda lines: lines + ["extra 1", "0.5"],
         ":20: text after the last array"),
        (lambda lines: ["cgdp-dynamics-v1 linear 3"] + lines[1:], ":1: "),
        (lambda lines: [""] + lines, ":1: unrecognized checkpoint header ''"),
        (header_with(4, "nan"), ":1: sigma_r must be finite and > 0"),
        (header_with(4, "inf"), ":1: sigma_r must be finite and > 0"),
        (header_with(5, "nan"), ":1: .* and r_star finite"),
        (header_with(5, "-inf"), ":1: .* and r_star finite"),
    ])
    def test_malformed_checkpoint_names_file_line_and_array(
            self, small_instance, tmp_path, edit, message):
        _, dyn, _ = small_instance
        path = tmp_path / "dyn.txt"
        save_dynamics(dyn, str(path))
        path.write_text("\n".join(edit(path.read_text().splitlines()))
                        + "\n")
        with pytest.raises(ValueError, match=message) as exc:
            load_dynamics(str(path))
        assert str(exc.value).startswith(f"{path}:")
