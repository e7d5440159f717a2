import numpy as np
import pytest

import cgdp.verify
from cgdp.diffusion import make_schedule
from cgdp.guidance import (GuidanceConfig, GuidanceHook, estimate_lipschitz,
                           euler_maruyama_guided, stability_max_step)
from cgdp.verify import (THEOREM1_MAX_GRID_ROWS, GaussianPriorNet,
                         PosteriorSpec, _exact_guidance_maps, check_lemma1,
                         check_prop1, check_prop2, check_theorem1,
                         default_linear_instance, gaussian_posterior,
                         stiff_linear_instance)


def scalar_spec(mu=1.0, var=0.5, m=1.0, noise=0.5, y=2.0):
    return PosteriorSpec(mu_bar=[mu], sigma_bar=[[var]], m=[[m]],
                         sigma_y=[[noise]], y=[y])


class TestPosteriorSpec:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PosteriorSpec(mu_bar=[0.0, 0.0], sigma_bar=[[1.0]], m=[[1.0]],
                          sigma_y=[[1.0]], y=[0.0])

    def test_rejects_asymmetric_prior(self):
        with pytest.raises(ValueError):
            PosteriorSpec(mu_bar=[0.0, 0.0],
                          sigma_bar=[[1.0, 0.5], [0.0, 1.0]],
                          m=[[1.0, 0.0]], sigma_y=[[1.0]], y=[0.0])

    def test_rejects_indefinite_noise(self):
        with pytest.raises(ValueError):
            PosteriorSpec(mu_bar=[0.0], sigma_bar=[[1.0]], m=[[1.0]],
                          sigma_y=[[-1.0]], y=[0.0])


class TestGaussianPosterior:
    def test_scalar_closed_form(self):
        mean, cov = gaussian_posterior(scalar_spec())
        assert abs(mean[0] - 1.5) < 1e-14
        assert abs(cov[0, 0] - 0.25) < 1e-14

    def test_zero_observation_operator_returns_prior(self):
        spec = PosteriorSpec(mu_bar=[1.0, -1.0], sigma_bar=np.eye(2),
                             m=np.zeros((1, 2)), sigma_y=[[1.0]], y=[5.0])
        mean, cov = gaussian_posterior(spec)
        assert np.array_equal(mean, spec.mu_bar)
        assert np.array_equal(cov, spec.sigma_bar)

    def test_huge_noise_approaches_prior(self):
        spec = scalar_spec(noise=1e12)
        mean, cov = gaussian_posterior(spec)
        assert abs(mean[0] - 1.0) < 1e-6
        assert abs(cov[0, 0] - 0.5) < 1e-6

    def test_sequential_equals_joint_conditioning(self):
        rng = np.random.default_rng(0)
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        mu = np.array([0.5, -0.5])
        m1 = rng.standard_normal((1, 2))
        m2 = rng.standard_normal((1, 2))
        y1, y2 = 0.7, -1.2
        joint = PosteriorSpec(mu_bar=mu, sigma_bar=sigma,
                              m=np.vstack([m1, m2]),
                              sigma_y=np.eye(2), y=[y1, y2])
        jm, jc = gaussian_posterior(joint)
        im, ic = gaussian_posterior(PosteriorSpec(
            mu_bar=mu, sigma_bar=sigma, m=m1, sigma_y=[[1.0]], y=[y1]))
        sm, sc = gaussian_posterior(PosteriorSpec(
            mu_bar=im, sigma_bar=ic, m=m2, sigma_y=[[1.0]], y=[y2]))
        assert np.max(np.abs(sm - jm)) < 1e-8
        assert np.max(np.abs(sc - jc)) < 1e-8

    def test_singular_innovation_raises(self):
        spec = PosteriorSpec(mu_bar=[0.0], sigma_bar=[[1.0]],
                             m=[[1.0], [1.0]],
                             sigma_y=1e-15 * np.eye(2), y=[0.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError):
            gaussian_posterior(spec)


class TestGaussianPriorNet:
    def test_zero_noise_at_scaled_mean(self):
        sched = make_schedule(100)
        mu = np.array([0.4, -0.2])
        net = GaussianPriorNet(mu, np.eye(2), sched)
        k = 40
        a = np.sqrt(sched.abar_at(k)) * mu
        assert np.allclose(net.forward(a, None, k), 0.0, atol=1e-14)

    def test_matches_marginal_score_formula(self):
        sched = make_schedule(100)
        sigma = np.array([[1.0, 0.2], [0.2, 0.5]])
        mu = np.array([1.0, 0.0])
        net = GaussianPriorNet(mu, sigma, sched)
        k = 60
        abar = sched.abar_at(k)
        a = np.array([0.3, -0.8])
        cov_k = abar * sigma + (1 - abar) * np.eye(2)
        score = -np.linalg.solve(cov_k, a - np.sqrt(abar) * mu)
        assert np.allclose(net.forward(a, None, k), -np.sqrt(1 - abar) * score,
                           rtol=1e-12)


def unfolded_prior_noise(mu, sigma, schedule, a, k):
    """The prior's exact noise from its marginal precision at k."""
    abar = schedule.abar_at(k)
    prec = np.linalg.inv(abar * sigma + (1.0 - abar) * np.eye(len(mu)))
    score = -(a - np.sqrt(abar) * mu) @ prec
    return np.sqrt(max(1.0 - abar, 1e-12)) * -score


def unfolded_guidance(spec, schedule, lam, a, k):
    """The exact-guidance correction through the clean-action mean and
    the innovation, without folding it into one affine map."""
    d = spec.mu_bar.shape[0]
    abar = schedule.abar_at(k)
    p_k = np.linalg.inv(abar * spec.sigma_bar + (1.0 - abar) * np.eye(d))
    jac = np.sqrt(abar) * spec.sigma_bar @ p_k
    cov0 = spec.sigma_bar - abar * spec.sigma_bar @ p_k @ spec.sigma_bar
    innov = spec.sigma_y + spec.m @ cov0 @ spec.m.T
    m0 = spec.mu_bar + (np.atleast_2d(a) - np.sqrt(abar) * spec.mu_bar) \
        @ jac.T
    resid = spec.y - m0 @ spec.m.T
    grad = resid @ np.linalg.solve(innov, spec.m @ jac)
    corr = -lam * np.sqrt(1.0 - abar) * grad
    return corr if np.asarray(a).ndim > 1 else corr[0]


class TestFoldedMaps:
    SIGMA = np.array([[1.0, 0.3, 0.1], [0.3, 0.8, -0.2], [0.1, -0.2, 0.6]])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_prior_matches_unfolded_formula(self, d):
        sched = make_schedule(200)
        rng = np.random.default_rng(d)
        mu, sigma = rng.standard_normal(d), self.SIGMA[:d, :d]
        net = GaussianPriorNet(mu, sigma, sched)
        for k in (1, 2, 57, 199, 200):
            for a in (rng.standard_normal(d), rng.standard_normal((50, d))):
                got = net.forward(a, None, k)
                assert got.shape == a.shape
                assert np.allclose(got,
                                   unfolded_prior_noise(mu, sigma, sched, a,
                                                        k),
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_prior_exactly_zero_at_scaled_mean(self, d):
        sched = make_schedule(100)
        mu = np.random.default_rng(d).standard_normal(d)
        net = GaussianPriorNet(mu, self.SIGMA[:d, :d], sched)
        for k in range(1, 101):
            a = np.sqrt(sched.abar_at(k)) * mu
            assert np.all(net.forward(a, None, k) == 0.0)
            assert np.all(net.forward(a[None], None, k) == 0.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_hook_matches_unfolded_formula(self, lam):
        rng = np.random.default_rng(7)
        spec = PosteriorSpec(mu_bar=[0.2, -0.3], sigma_bar=self.SIGMA[:2, :2],
                             m=rng.standard_normal((4, 2)),
                             sigma_y=0.5 * np.eye(4),
                             y=rng.standard_normal(4))
        sched = make_schedule(500)
        prior = GaussianPriorNet(spec.mu_bar, spec.sigma_bar, sched)
        hook = GuidanceHook.from_maps(GuidanceConfig(lam=lam), sched,
                                      *_exact_guidance_maps(spec, prior))
        for k in (1, 2, 250, 499, 500):
            for a in (rng.standard_normal(2), rng.standard_normal((50, 2))):
                got = hook(a, k)
                assert got.shape == a.shape
                assert np.allclose(got,
                                   unfolded_guidance(spec, sched, lam, a, k),
                                   rtol=1e-12, atol=1e-14)


def exact_chain_moments(net, hook, schedule):
    """Terminal mean and covariance of the guided DDPM chain from
    a^K ~ N(0, I), without sampling.  Prior noise and guidance are affine
    in a^k, so each reverse step is a^{k-1} = a^k M_k + v_k plus
    N(0, beta_k I) noise (none at k = 1), and the moments follow
    m <- m M_k + v_k, C <- M_k' C M_k + beta_k I."""
    d = net.d_action
    mean, cov = np.zeros(d), np.eye(d)
    zero = np.zeros((1, d))
    for k in range(schedule.k_steps, 0, -1):
        beta, alpha = schedule.betas[k - 1], schedule.alphas[k - 1]
        # eps_hat(a) = a @ eps_lin + eps_off
        eps_lin = net.lin[k - 1] + hook.eps_jacobian(k).T
        eps_off = (net.forward(zero, None, k) + hook(zero, k))[0]
        w = beta / np.sqrt(1.0 - schedule.abar_at(k))
        m_k = (np.eye(d) - w * eps_lin) / np.sqrt(alpha)
        mean = mean @ m_k - w * eps_off / np.sqrt(alpha)
        cov = m_k.T @ cov @ m_k + (beta * np.eye(d) if k > 1 else 0.0)
    return mean, cov


class TestExactChainMoments:
    """lemma1's guided chain without its Monte Carlo error: the check's
    3-SE mean test and 10% covariance test can fail only by sampling."""

    # 111, 149 and 152 are config seeds at which ``cgdp verify lemma1``
    # fails its 3-SE test
    @pytest.mark.parametrize("seed", [0, 7, 111, 149, 152])
    def test_terminal_moments_match_the_posterior(self, seed):
        # the problem cgdp verify lemma1 draws for its config seed
        rng = np.random.default_rng(seed)
        spec = PosteriorSpec(mu_bar=np.zeros(2), sigma_bar=np.eye(2),
                             m=rng.standard_normal((4, 2)),
                             sigma_y=0.5 * np.eye(4),
                             y=rng.standard_normal(4))
        sched = make_schedule(1000)
        net = GaussianPriorNet(spec.mu_bar, spec.sigma_bar, sched)
        hook = GuidanceHook.from_maps(GuidanceConfig(), sched,
                                      *_exact_guidance_maps(spec, net))
        mean, cov = exact_chain_moments(net, hook, sched)
        target_mean, target_cov = gaussian_posterior(spec)
        se = np.sqrt(np.diag(target_cov) / 20000)   # verify.samples
        assert np.all(np.abs(mean - target_mean) < 0.05 * se)
        assert np.linalg.norm(cov - target_cov) < \
            0.02 * np.linalg.norm(target_cov)


class TestCheckLemma1:
    def test_guided_terminal_moments(self):
        spec = PosteriorSpec(mu_bar=[0.5, -0.5],
                             sigma_bar=[[1.0, 0.3], [0.3, 0.8]],
                             m=[[1.0, 1.0]], sigma_y=[[0.5]], y=[1.5])
        rep = check_lemma1(spec, make_schedule(500), 10 ** 4,
                           np.random.default_rng(0))
        assert rep["passed"]
        assert np.all(rep["mean_err"] < 3.0 * rep["se"])
        assert rep["cov_rel_err"] < 0.10

    def test_unguided_limit_matches_prior(self):
        spec = scalar_spec()
        rep = check_lemma1(spec, make_schedule(500), 10 ** 4,
                           np.random.default_rng(1), lam=0.0)
        assert rep["passed"]
        assert np.array_equal(rep["target_mean"], spec.mu_bar)

    def test_rejects_small_budgets(self):
        spec = scalar_spec()
        with pytest.raises(ValueError):
            check_lemma1(spec, make_schedule(100), 10 ** 4,
                         np.random.default_rng(0))
        with pytest.raises(ValueError):
            check_lemma1(spec, make_schedule(500), 100,
                         np.random.default_rng(0))


class TestCheckProp2:
    def test_reward_only_one_dimensional_case(self):
        from cgdp.dynamics import CausalDynamics
        from cgdp.scm import CausalMasks
        masks = CausalMasks(np.ones((1, 1)), np.ones((1, 1)), np.ones(1),
                            np.ones(1))
        dyn = CausalDynamics(masks=masks,
                             sigma_s=np.eye(1), sigma_r=1.0,
                             a_s=np.zeros((1, 1)), a_a=np.zeros((1, 1)),
                             b_s=np.zeros(1), b_a=np.array([2.0]))
        rep = check_prop2(dyn, np.zeros(1), np.zeros(1), 10 ** 4,
                          np.random.default_rng(2))
        assert rep["passed"]
        assert np.allclose(rep["analytic"], [2.0])
        assert abs(rep["estimate"][0] - 2.0) < 0.3

    def test_zero_effect_actions(self):
        from cgdp.dynamics import CausalDynamics
        from cgdp.scm import CausalMasks
        masks = CausalMasks(np.ones((1, 1)), np.ones((1, 1)), np.ones(1),
                            np.ones(1))
        dyn = CausalDynamics(masks=masks,
                             sigma_s=np.eye(1), sigma_r=1.0,
                             a_s=np.zeros((1, 1)), a_a=np.zeros((1, 1)),
                             b_s=np.zeros(1), b_a=np.zeros(1))
        rep = check_prop2(dyn, np.zeros(1), np.zeros(1), 10 ** 4,
                          np.random.default_rng(3))
        assert rep["passed"] and rep["cosine"] == 1.0

    def test_fitted_instance_aligns(self, small_instance):
        _, dyn, _ = small_instance
        rep = check_prop2(dyn, np.zeros(dyn.n), np.zeros(dyn.d), 10 ** 4,
                          np.random.default_rng(4))
        assert rep["cosine"] >= 0.95


class TestCheckProp1:
    def test_safe_factors_stable_and_stiff_diverges(self):
        dyn = stiff_linear_instance(l_total=4.0)
        rep = check_prop1(dyn, make_schedule(20), [0, 1], steps=2000,
                          stiff_dyn=stiff_linear_instance())
        assert rep["passed"]
        for row in rep["rows"]:
            if row["factor"] <= 1.0:
                assert row["diverged"] == 0
        assert rep["stiff"]["diverged"] >= 1


def per_seed_prop1(dyn, schedule, seeds, steps=10 ** 4, gamma_t=1.0,
                   beta_guid_t=1.0, stiff_dyn=None):
    """check_prop1 with one one-row Euler run per seed and factor, as
    it was computed before the seeds ran in lockstep."""

    def one_row_run(model, cfg, seed, dt, n_steps):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((1, model.n))
        traj, diverged = euler_maruyama_guided(model, schedule, cfg, s, dt,
                                               n_steps, [rng])
        return traj[:, 0], bool(diverged[0])

    dt_max = stability_max_step(estimate_lipschitz(dyn, schedule), gamma_t,
                                beta_guid_t)
    cfg = GuidanceConfig(lam=1.0, gamma_t=gamma_t, beta_guid_t=beta_guid_t)
    rows = []
    for factor in (0.1, 0.5, 1.0, 10.0, 50.0):
        dt = factor * dt_max
        n_steps = steps if factor <= 1.0 else min(steps, 2000)
        n_div = 0
        worst = 0.0
        for seed in seeds:
            traj, diverged = one_row_run(dyn, cfg, seed, dt, n_steps)
            n_div += int(diverged)
            worst = max(worst, float(np.linalg.norm(traj[-1])))
        rows.append({"factor": factor, "dt": dt, "diverged": n_div,
                     "terminal_norm": worst})
    safe_ok = all(row["diverged"] == 0 for row in rows
                  if row["factor"] <= 1.0)
    stiff_row = None
    if stiff_dyn is not None:
        s_dt_max = stability_max_step(estimate_lipschitz(stiff_dyn, schedule),
                                      gamma_t, beta_guid_t)
        s_cfg = GuidanceConfig(lam=1.0, gamma_t=gamma_t,
                               beta_guid_t=beta_guid_t)
        n_div = 0
        for seed in seeds:
            _, diverged = one_row_run(stiff_dyn, s_cfg, seed,
                                      50.0 * s_dt_max, min(steps, 2000))
            n_div += int(diverged)
        stiff_row = {"factor": 50.0, "dt": 50.0 * s_dt_max,
                     "diverged": n_div}
    stiff_ok = stiff_row is None or stiff_row["diverged"] >= 1
    return {"dt_max": dt_max, "rows": rows, "stiff": stiff_row,
            "passed": bool(safe_ok and stiff_ok)}


class TestProp1Lockstep:
    @pytest.mark.parametrize("instance", ["small", "stiff"])
    def test_report_equals_per_seed_loop(self, small_instance, instance):
        dyn = small_instance[1] if instance == "small" else \
            stiff_linear_instance(l_total=4.0)
        sched = make_schedule(20)
        kwargs = dict(steps=1500, stiff_dyn=stiff_linear_instance())
        seeds = [0, 1, 2, 3]
        rep = check_prop1(dyn, sched, seeds, **kwargs)
        assert rep == per_seed_prop1(dyn, sched, seeds, **kwargs)
        # the sweep has factors where no seed diverges and factors where
        # the seeds diverge at different steps
        assert rep["rows"][0]["diverged"] == 0
        assert rep["rows"][-1]["diverged"] >= 1
        assert rep["stiff"]["diverged"] >= 1

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ValueError, match="at least one seed"):
            check_prop1(stiff_linear_instance(l_total=4.0),
                        make_schedule(20), [])


class TestCheckTheorem1:
    def test_rows_and_determinism(self):
        scm, dyn = default_linear_instance()
        sched = make_schedule(30)
        kwargs = dict(horizon=10, n_rollouts=100, n_adv_states=2,
                      m_rollouts=4, grid_res=0.5)
        r1 = check_theorem1(scm, dyn, sched, [0, 1], GuidanceConfig(),
                            **kwargs)
        r2 = check_theorem1(scm, dyn, sched, [0, 1], GuidanceConfig(),
                            **kwargs)
        assert r1 == r2
        assert 0.0 <= r1["fraction_holds"] <= 1.0
        for row in r1["rows"]:
            for key in ("seed", "j_base", "j_guided", "gap", "kl", "bound",
                        "holds"):
                assert key in row
            assert row["kl"] >= 0.0
            assert row["bound"] >= 0.0

    def test_zero_guidance_has_zero_gap(self):
        # the guided rollouts replay the base rollouts' random numbers, so
        # at lam = 0 they are the base rollouts and the zero bound holds
        scm, dyn = default_linear_instance()
        kwargs = dict(horizon=10, n_rollouts=100, n_adv_states=2,
                      m_rollouts=4, grid_res=0.5)
        rep = check_theorem1(scm, dyn, make_schedule(30), [0, 1, 2],
                             GuidanceConfig(lam=0.0), **kwargs)
        for row in rep["rows"]:
            assert row["kl"] == row["bound"] == row["gap"] == 0.0
            assert row["j_guided"] == row["j_base"] and row["holds"]
        assert rep["passed"]
        guided = check_theorem1(scm, dyn, make_schedule(30), [0, 1, 2],
                                GuidanceConfig(lam=1.0), **kwargs)
        assert [row["j_base"] for row in guided["rows"]] == \
            [row["j_base"] for row in rep["rows"]]

    def test_refuses_a_grid_over_the_row_limit_before_any_rollout(
            self, monkeypatch):
        # 41 points an axis at the default grid_res, 12 rollouts a point
        assert 41 ** 3 * 12 <= THEOREM1_MAX_GRID_ROWS < 41 ** 4 * 12
        scm, dyn = default_linear_instance(n=2, d=4)

        def no_rollout(*args, **kwargs):
            raise AssertionError("a rollout ran")

        monkeypatch.setattr(cgdp.verify, "_rollout_returns", no_rollout)
        with pytest.raises(ValueError, match="at d = 4 has 2825761 points, "
                                             "33909132 rollout rows"):
            check_theorem1(scm, dyn, make_schedule(30), [0],
                           GuidanceConfig())

    def test_empty_seed_list(self):
        scm, dyn = default_linear_instance()
        rep = check_theorem1(scm, dyn, make_schedule(30), [],
                             GuidanceConfig())
        assert rep["rows"] == [] and rep["passed"]
