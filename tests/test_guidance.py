from dataclasses import replace

import numpy as np
import pytest

from cgdp import guidance
from cgdp.diffusion import ddim_sample, ddim_vjp, make_schedule
from cgdp.guidance import (GuidanceConfig, GuidanceHook, KlAccumulator,
                           LipschitzBundle, estimate_lipschitz,
                           euler_maruyama_guided, stability_max_step)
from cgdp.diffusion import NoiseNet
from cgdp.dynamics import do_intervention_joint_grad


def guided(eps, grad, lam, abar):
    """eps plus the hook's correction, for a hook whose joint gradient is
    ``grad``, on a one-step schedule with abar_1 = ``abar``."""
    beta = 1.0 - abar
    d = len(eps)
    hook = GuidanceHook.from_maps(GuidanceConfig(lam=lam),
                                  make_schedule(1, beta, beta),
                                  np.asarray(grad, dtype=float)[None],
                                  np.zeros((1, d, d)))
    return eps + hook(np.zeros_like(eps), 1)


class TestGuidedNoise:
    def test_lambda_zero_identity(self):
        eps = np.array([0.3, -0.2])
        out = guided(eps, np.ones(2), 0.0, 0.5)
        assert np.array_equal(out, eps)

    def test_example_value(self):
        out = guided(np.zeros(2), np.array([2.0, 0.0]), 1.0, 0.75)
        assert np.allclose(out, [-1.0, 0.0], rtol=1e-14)

    def test_score_space_additivity(self):
        def score_from_noise(eps, abar):
            return -eps / np.sqrt(1.0 - abar)

        rng = np.random.default_rng(0)
        for _ in range(20):
            eps = rng.standard_normal(3)
            grad = rng.standard_normal(3)
            lam, abar = rng.uniform(0.1, 2.0), rng.uniform(0.05, 0.95)
            lhs = score_from_noise(guided(eps, grad, lam, abar), abar)
            rhs = score_from_noise(eps, abar) + lam * grad
            assert np.allclose(lhs, rhs, rtol=1e-12)


def close_rel(got, want, rtol=1e-12):
    """Every entry within ``rtol`` of the largest entry of ``want``."""
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestAffineHook:
    """The hook's map const + a @ jac.T against the joint gradient."""

    @pytest.mark.parametrize("rows", [1, 64])
    @pytest.mark.parametrize("gamma_t, beta_guid_t",
                             [(0.7, 1.3), (0.0, 1.3), (0.7, 0.0), (0.0, 0.0)])
    def test_joint_grad_matches_the_reference(self, small_instance, rows,
                                              gamma_t, beta_guid_t):
        _, dyn, _ = small_instance
        dyn = replace(dyn, r_star=dyn.r_star + 1)
        sched = make_schedule(10)
        cfg = GuidanceConfig(lam=0.7, gamma_t=gamma_t,
                             beta_guid_t=beta_guid_t)
        rng = np.random.default_rng(rows)
        s, s_next = rng.standard_normal((2, rows, dyn.n))
        r = rng.standard_normal(rows)
        # the replay form (next states, one reward per row) and the
        # predicted form (the model's mean, dyn.r_star)
        for nexts, r_value, r_target in ((s_next, r, r),
                                         (None, None, dyn.r_star)):
            hook = GuidanceHook(dyn, cfg, sched, s, s_next=nexts,
                                r_value=r_value)
            for k in (1, 4, 10):
                a = rng.uniform(-1, 1, (rows, dyn.d))
                want = do_intervention_joint_grad(dyn, s, a, nexts, r_target,
                                                  gamma_t, beta_guid_t)
                got = hook.joint_grad(a)
                assert got.shape == want.shape == (rows, dyn.d)
                assert close_rel(got, want)
                scale = -cfg.lam * np.sqrt(1.0 - sched.abar_at(k))
                assert close_rel(hook(a, k), scale * want)

    def test_one_state_row_serves_every_action_row(self, small_instance):
        _, dyn, _ = small_instance
        dyn = replace(dyn, r_star=dyn.r_star + 1.0)
        cfg = GuidanceConfig(lam=1.0)
        rng = np.random.default_rng(7)
        s = rng.standard_normal((1, dyn.n))
        a = rng.uniform(-1, 1, (64, dyn.d))
        hook = GuidanceHook(dyn, cfg, make_schedule(10), s)
        want = do_intervention_joint_grad(dyn, s, a, None, dyn.r_star, 1.0,
                                          1.0)
        assert close_rel(hook.joint_grad(a), want)

    def test_a_chain_builds_the_map_once(self, small_instance, monkeypatch):
        _, dyn, _ = small_instance
        sched = make_schedule(10)
        net = NoiseNet(dyn.n, dyn.d, 10, hidden=(8,),
                       rng=np.random.default_rng(0))
        s = np.random.default_rng(1).standard_normal((4, dyn.n))
        calls = []

        def counted(*args):
            calls.append(args)
            return do_intervention_joint_grad(*args)

        monkeypatch.setattr(guidance, "do_intervention_joint_grad", counted)
        hook = GuidanceHook(dyn, GuidanceConfig(), sched, s)
        tape = []
        a0 = ddim_sample(net, sched, s, np.random.default_rng(2), hook=hook,
                         tape=tape)
        ddim_vjp(net, sched, tape, np.ones_like(a0), hook=hook)
        assert len(calls) == 1


@pytest.mark.parametrize("lam", [-0.5, np.nan, np.inf, np.ones(10)])
def test_guidance_scale_is_one_finite_value(lam):
    with pytest.raises(ValueError, match="lambda must be one finite value"):
        GuidanceConfig(lam=lam)


class TestGuidanceHook:
    def test_zero_coefficients_bit_identical_sampling(self, small_instance):
        _, dyn, _ = small_instance
        sched = make_schedule(15)
        net = NoiseNet(dyn.n, dyn.d, 15, hidden=(8,),
                       rng=np.random.default_rng(1))
        cfg = GuidanceConfig(lam=1.0, gamma_t=0.0, beta_guid_t=0.0)
        s = np.random.default_rng(2).standard_normal((3, dyn.n))
        hook = GuidanceHook(dyn, cfg, sched, s)
        base = ddim_sample(net, sched, s, np.random.default_rng(3))
        guided = ddim_sample(net, sched, s, np.random.default_rng(3),
                             hook=hook)
        assert np.array_equal(base, guided)

    def test_lambda_zero_bit_identical_sampling(self, small_instance):
        _, dyn, _ = small_instance
        sched = make_schedule(15)
        net = NoiseNet(dyn.n, dyn.d, 15, hidden=(8,),
                       rng=np.random.default_rng(1))
        cfg = GuidanceConfig(lam=0.0)
        s = np.random.default_rng(2).standard_normal((3, dyn.n))
        hook = GuidanceHook(dyn, cfg, sched, s)
        base = ddim_sample(net, sched, s, np.random.default_rng(3))
        guided = ddim_sample(net, sched, s, np.random.default_rng(3),
                             hook=hook)
        assert np.array_equal(base, guided)

    def test_correction_linear_in_action_with_known_slope(self, small_instance):
        _, dyn, _ = small_instance
        sched = make_schedule(15)
        cfg = GuidanceConfig(lam=1.3)
        rng = np.random.default_rng(4)
        s = rng.standard_normal((1, dyn.n))
        s_next = rng.standard_normal((1, dyn.n))
        hook = GuidanceHook(dyn, cfg, sched, s, s_next=s_next, r_value=0.5)
        k = 7
        jac = hook.eps_jacobian(k)
        a1 = rng.uniform(-1, 1, (1, dyn.d))
        a2 = rng.uniform(-1, 1, (1, dyn.d))
        diff = hook(a1, k) - hook(a2, k)
        assert np.allclose(diff, (a1 - a2) @ jac.T, rtol=1e-10)

    def test_r_star_correction_aligns_with_reward_gradient(self, small_instance):
        _, dyn, _ = small_instance
        dyn = replace(dyn, r_star=dyn.r_star + 5.0)
        sched = make_schedule(15)
        cfg = GuidanceConfig(lam=1.0, gamma_t=0.0, beta_guid_t=1.0)
        rng = np.random.default_rng(5)
        hits = 0
        probes = 100
        for _ in range(probes):
            s = rng.standard_normal((1, dyn.n))
            hook = GuidanceHook(dyn, cfg, sched, s)
            grad = hook.joint_grad(rng.uniform(-1, 1, (1, dyn.d)))[0]
            # below-target reward residual pushes the action along b_a
            hits += int(grad @ dyn.b_a > 0)
        assert hits >= 95

    def test_zero_lambda_skips_gradient(self, small_instance, monkeypatch):
        _, dyn, _ = small_instance
        sched = make_schedule(10)
        net = NoiseNet(dyn.n, dyn.d, 10, hidden=(8,),
                       rng=np.random.default_rng(0))
        s = np.random.default_rng(1).standard_normal((3, dyn.n))
        acc = KlAccumulator()
        hook = GuidanceHook(dyn, GuidanceConfig(lam=0.0), sched, s,
                            kl_acc=acc)

        def no_grad(a):
            raise AssertionError("gradient evaluated at lambda = 0")

        monkeypatch.setattr(hook, "joint_grad", no_grad)
        ddim_sample(net, sched, s, np.random.default_rng(2), hook=hook)
        assert hook.eps_jacobian(3) is None
        assert acc.total == 0.0

    def test_batch_matches_per_row(self, small_instance):
        _, dyn, _ = small_instance
        sched = make_schedule(15)
        cfg = GuidanceConfig(lam=1.0)
        rng = np.random.default_rng(6)
        s = rng.standard_normal((4, dyn.n))
        hook = GuidanceHook(dyn, cfg, sched, s)
        a = rng.uniform(-1, 1, (4, dyn.d))
        batched = hook(a, 3)
        for i in range(4):
            single = GuidanceHook(dyn, cfg, sched, s[i:i + 1])(a[i:i + 1], 3)
            assert np.allclose(batched[i], single[0], rtol=1e-12)


    def test_kl_row_mean_matches_numpy_mean_bitwise(self):
        rng = np.random.default_rng(8)
        for rows in (1, 3, 64, 1000):
            c = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(-3, 4)
            acc = KlAccumulator().add(c, 0.3, 0.7)
            expected = float(np.sum(c * c, axis=-1).mean()) / (0.3 * 0.3) \
                * 0.7
            assert acc.total == expected


class TestKlAccumulator:
    def test_zero_correction_no_change(self):
        acc = KlAccumulator()
        acc.add(np.zeros((2, 3)), 1.0, 0.1)
        assert acc.total == 0.0

    def test_constant_correction_unit_integral(self):
        acc = KlAccumulator()
        for _ in range(10):
            acc.add(np.array([[1.0, 0.0], [0.0, -1.0]]), 1.0, 0.1)
        assert abs(acc.total - 1.0) < 1e-12

    def test_ratio_normalization(self):
        acc = KlAccumulator()
        acc.add(np.array([[2.0]]), 2.0, 1.0)
        assert abs(acc.total - 1.0) < 1e-12

    def test_monotone_and_unguided_zero(self, small_instance):
        _, dyn, _ = small_instance
        sched = make_schedule(10)
        net = NoiseNet(dyn.n, dyn.d, 10, hidden=(8,),
                       rng=np.random.default_rng(0))
        s = np.random.default_rng(1).standard_normal((2, dyn.n))
        acc = KlAccumulator()
        cfg = GuidanceConfig(lam=0.0)
        ddim_sample(net, sched, s, np.random.default_rng(2),
                    hook=GuidanceHook(dyn, cfg, sched, s, kl_acc=acc))
        assert acc.total == 0.0
        acc2 = KlAccumulator()
        cfg2 = GuidanceConfig(lam=1.0)
        dyn2 = replace(dyn, r_star=dyn.r_star + 3.0)
        ddim_sample(net, sched, s, np.random.default_rng(2),
                    hook=GuidanceHook(dyn2, cfg2, sched, s, kl_acc=acc2))
        assert acc2.total > 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            KlAccumulator().add(np.ones((1, 2)), 0.0, 0.1)


class TestStabilityBound:
    def test_direct_arithmetic(self):
        bundle = LipschitzBundle(l_f=1.0, l_s=2.0, l_phi=0.5, l_omega=0.5,
                                 delta=0.5, g2_max=1.0)
        dt = stability_max_step(bundle, 1.0, 1.0)
        assert abs(dt - 0.125) < 1e-14

    def test_zero_guidance_reduction(self):
        bundle = LipschitzBundle(l_f=1.0, l_s=2.0, l_phi=9.0, l_omega=9.0,
                                 delta=0.5, g2_max=1.0)
        dt = stability_max_step(bundle, 0.0, 0.0)
        assert abs(dt - 0.5 / 3.0) < 1e-14

    def test_linearity_in_delta(self):
        b1 = LipschitzBundle(1.0, 1.0, 1.0, 1.0, delta=0.2, g2_max=1.0)
        b2 = LipschitzBundle(1.0, 1.0, 1.0, 1.0, delta=0.4, g2_max=1.0)
        assert abs(2 * stability_max_step(b1, 1, 1)
                   - stability_max_step(b2, 1, 1)) < 1e-14

    def test_monotone_decreasing_in_coefficients(self):
        bundle = LipschitzBundle(1.0, 1.0, 1.0, 1.0, delta=0.5, g2_max=1.0)
        assert stability_max_step(bundle, 2.0, 1.0) < \
            stability_max_step(bundle, 1.0, 1.0)
        assert stability_max_step(bundle, 1.0, 2.0) < \
            stability_max_step(bundle, 1.0, 1.0)


class TestEstimateLipschitz:
    def test_exact_linear_constants(self):
        from cgdp.dynamics import CausalDynamics
        from cgdp.scm import CausalMasks
        n = d = 2
        masks = CausalMasks(np.ones((n, n)), np.ones((d, n)), np.ones(n),
                            np.ones(d))
        dyn = CausalDynamics(masks=masks, sigma_s=np.eye(n),
                             sigma_r=2.0, a_s=np.zeros((n, n)),
                             a_a=2.0 * np.eye(d), b_s=np.zeros(n),
                             b_a=np.array([1.0, 2.0]))
        sched = make_schedule(10)
        bundle = estimate_lipschitz(dyn, sched)
        assert bundle.l_s == 1.0   # the score -a of a standard normal
        assert abs(bundle.l_phi - 4.0) < 1e-12
        assert abs(bundle.l_omega - 5.0 / 2.0) < 1e-12
        assert abs(bundle.l_f - 0.5 * float(sched.betas.max())) < 1e-15

    @pytest.mark.parametrize("k_steps", [10, 1000])
    def test_bound_reads_the_largest_beta(self, small_instance, k_steps):
        _, dyn, _ = small_instance
        sched = make_schedule(k_steps)
        bundle = estimate_lipschitz(dyn, sched)
        betas = sched.betas
        # g(1)^2 of beta linearly interpolated over process time
        assert bundle.g2_max == betas[0] + (betas[-1] - betas[0]) * 1.0 \
            == betas.max()


class TestEulerIntegration:
    def test_safe_step_no_divergence(self, small_instance):
        _, dyn, _ = small_instance
        sched = make_schedule(20)
        dt_max = stability_max_step(estimate_lipschitz(dyn, sched), 1.0, 1.0)
        cfg = GuidanceConfig(lam=1.0)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            _, diverged = euler_maruyama_guided(
                dyn, sched, cfg, rng.standard_normal((1, dyn.n)),
                0.5 * dt_max, 2000, [rng])
            assert not diverged[0]

    def test_divergence_is_flagged_not_raised(self):
        from cgdp.verify import stiff_linear_instance
        dyn = stiff_linear_instance(l_total=400.0)
        sched = make_schedule(20)
        cfg = GuidanceConfig(lam=1.0)
        traj, diverged = euler_maruyama_guided(
            dyn, sched, cfg, np.zeros((1, dyn.n)), 50.0, 2000,
            [np.random.default_rng(0)])
        assert diverged[0]
        assert traj.ndim == 3 and len(traj) >= 2


def reference_euler(dyn, schedule, cfg, s, dt, steps, rng):
    """The one-state integrator as it was before rows were added: one
    noise draw per step, a Python list of states, a break at divergence.
    ``s`` is one state row (1, n); guidance is taken with one-row calls."""
    rng = np.random.default_rng(rng)
    beta_start = float(schedule.betas.min())
    beta_end = float(schedule.betas.max())
    hook = GuidanceHook(dyn, cfg, schedule, s)
    a = rng.standard_normal(dyn.d)
    traj = [a.copy()]
    diverged = False
    for nstep in range(steps):
        t = min(nstep * dt, 1.0)
        beta_t = beta_start + (beta_end - beta_start) * t
        g = np.sqrt(beta_t)
        score = -a
        guid = hook.joint_grad(a[None])[0]
        drift = 0.5 * beta_t * a + beta_t * score + guid
        a = a + drift * dt + g * np.sqrt(dt) * rng.standard_normal(dyn.d)
        if not np.all(np.isfinite(a)) or np.linalg.norm(a) > 1e6:
            diverged = True
            traj.append(a.copy())
            break
        traj.append(a.copy())
    return np.array(traj), diverged


class TestEulerRows:
    """Rows of states integrated in lockstep, one generator per row."""

    @staticmethod
    def instance(small_instance):
        _, dyn, _ = small_instance
        sched = make_schedule(20)
        return dyn, sched, GuidanceConfig(lam=1.0)

    @pytest.mark.parametrize("dt,steps", [(0.01, 300), (2.0, 400)])
    def test_one_state_equals_reference_loop(self, small_instance, dt,
                                             steps):
        dyn, sched, cfg = self.instance(small_instance)
        s = np.random.default_rng(9).standard_normal((1, dyn.n))
        g_new, g_ref = np.random.default_rng(4), np.random.default_rng(4)
        traj, diverged = euler_maruyama_guided(dyn, sched, cfg, s, dt,
                                               steps, [g_new])
        ref, ref_div = reference_euler(dyn, sched, cfg, s, dt, steps, g_ref)
        assert np.array_equal(traj[:, 0], ref) and diverged[0] == ref_div
        if not ref_div:
            # the block draw leaves the generator where per-step draws do
            assert g_new.random() == g_ref.random()

    def test_diverging_row_still_draws_its_whole_block(self):
        from cgdp.verify import stiff_linear_instance
        dyn = stiff_linear_instance(l_total=400.0)
        sched = make_schedule(20)
        cfg = GuidanceConfig(lam=1.0)
        gen = np.random.default_rng(0)
        traj, diverged = euler_maruyama_guided(dyn, sched, cfg,
                                               np.zeros((1, dyn.n)), 50.0,
                                               2000, [gen])
        assert diverged[0] and len(traj) < 2001
        after = np.random.default_rng(0)
        after.standard_normal((2001, dyn.d))
        assert gen.random() == after.random()

    @staticmethod
    def one_row_run(dyn, sched, cfg, state, dt, steps, seed):
        traj, diverged = euler_maruyama_guided(
            dyn, sched, cfg, state[None], dt, steps,
            [np.random.default_rng(seed)])
        return traj[:, 0], diverged[0]

    def test_rows_are_bitwise_one_row_runs(self, small_instance):
        dyn, sched, cfg = self.instance(small_instance)
        states = np.random.default_rng(5).standard_normal((4, dyn.n))
        states[1] *= 1e7      # with linear guidance it diverges early
        steps = 200
        traj, diverged = euler_maruyama_guided(
            dyn, sched, cfg, states, 0.05, steps,
            [np.random.default_rng(10 + i) for i in range(4)])
        assert traj.shape == (steps + 1, 4, dyn.d)
        assert diverged.tolist() == [i == 1 for i in range(4)]
        for i in range(4):
            one, one_div = self.one_row_run(dyn, sched, cfg, states[i], 0.05,
                                            steps, 10 + i)
            assert one_div == diverged[i]
            assert np.array_equal(traj[:len(one), i], one)
            # a diverged row keeps its value at the break
            assert np.all(traj[len(one):, i] == traj[len(one) - 1, i])

    def test_call_ends_when_every_row_diverged(self):
        from cgdp.verify import stiff_linear_instance
        dyn = stiff_linear_instance(l_total=400.0)
        sched = make_schedule(20)
        cfg = GuidanceConfig(lam=1.0)
        states = np.zeros((3, dyn.n))
        traj, diverged = euler_maruyama_guided(
            dyn, sched, cfg, states, 50.0, 2000,
            [np.random.default_rng(i) for i in range(3)])
        assert diverged.all()
        lengths = []
        for i in range(3):
            one, _ = self.one_row_run(dyn, sched, cfg, states[i], 50.0, 2000,
                                      i)
            lengths.append(len(one))
            assert np.array_equal(traj[:len(one), i], one)
        assert len(traj) == max(lengths) < 2001

    def test_return_shapes(self, small_instance):
        dyn, sched, cfg = self.instance(small_instance)
        traj, diverged = euler_maruyama_guided(
            dyn, sched, cfg, np.zeros((1, dyn.n)), 0.01, 5,
            [np.random.default_rng(0)])
        assert traj.shape == (6, 1, dyn.d)
        assert diverged.shape == (1,) and diverged.dtype == bool

    def test_rows_need_one_generator_each(self, small_instance):
        dyn, sched, cfg = self.instance(small_instance)
        states = np.zeros((2, dyn.n))
        for rng in (np.random.default_rng(0), [np.random.default_rng(0)]):
            with pytest.raises(ValueError, match="one generator per row"):
                euler_maruyama_guided(dyn, sched, cfg, states, 0.01, 5, rng)
        with pytest.raises(ValueError, match="at least one state row"):
            euler_maruyama_guided(dyn, sched, cfg, np.zeros((0, dyn.n)),
                                  0.01, 5, [])

    def test_the_guidance_scale_is_not_read(self, small_instance):
        dyn, sched, cfg = self.instance(small_instance)
        s = np.random.default_rng(3).standard_normal((2, dyn.n))
        runs = [euler_maruyama_guided(dyn, sched, replace(cfg, lam=lam), s,
                                      0.01, 20, [np.random.default_rng(i)
                                                 for i in range(2)])[0]
                for lam in (0.0, 2.5)]
        assert np.array_equal(runs[0], runs[1])
