import numpy as np
import pytest

from cgdp.diffusion import (NoiseNet, ddim_sample, ddim_vjp, forward_corrupt,
                            make_schedule)
from cgdp.dynamics import CausalDynamics, fit_dynamics
from cgdp.envs import Environment, EnvSpec, make_env_scm
from cgdp.guidance import GuidanceConfig, GuidanceHook
from cgdp.numerics import AdamState
from cgdp.rl import (CriticPair, ReplayBuffer, TrainerConfig, critic_update,
                     offline_stage, online_stage, policy_update)
from cgdp.scm import CausalMasks, Transitions, generate_dataset

from conftest import rel_err
from references import exact_masks


def make_transition(rng, n=2, d=2, done=False):
    """One (s, a, r, s_next, done) row."""
    return (rng.standard_normal(n), rng.uniform(-1, 1, d),
            float(rng.standard_normal()), rng.standard_normal(n), float(done))


def columns(rows):
    """``Transitions`` holding the (s, a, r, s_next, done) rows."""
    return Transitions(*(np.array(col, dtype=float) for col in zip(*rows)))


def same_rows(t1, t2):
    return len(t1) == len(t2) and all(
        np.array_equal(getattr(t1, col), getattr(t2, col))
        for col in ("s", "a", "r", "s_next", "done"))


def filled_buffer(capacity, count):
    buf = ReplayBuffer(capacity, 2, 2)
    rows = [make_transition(np.random.default_rng(i), done=i % 3 == 2)
            for i in range(count)]
    for row in rows:
        buf.add(*row)
    return buf, rows


def linear_dyn(n=2, d=2):
    masks = CausalMasks(np.ones((n, n)), np.ones((d, n)), np.ones(n),
                        np.ones(d))
    return CausalDynamics(masks=masks, sigma_s=np.eye(n),
                          sigma_r=1.0, a_s=0.3 * np.eye(n),
                          a_a=0.5 * np.eye(d, n), b_s=np.ones(n),
                          b_a=np.array([0.5, -0.5]))


class TestReplayBuffer:
    def test_window_before_full(self):
        buf, items = filled_buffer(10, 4)
        assert same_rows(buf.window(2), columns(items[-2:]))
        assert same_rows(buf.window(10), columns(items))

    def test_window_larger_than_the_fill(self):
        buf, items = filled_buffer(8, 3)
        assert same_rows(buf.window(5), columns(items))
        assert len(ReplayBuffer(8, 2, 2).window(5)) == 0

    @pytest.mark.parametrize("count", [5, 8])
    def test_sample_gathers_the_drawn_rows(self, count):
        # row i of the store holds add i
        buf, items = filled_buffer(8, count)
        batch = buf.sample(16, np.random.default_rng(3))
        idx = np.random.default_rng(3).integers(len(buf), size=16)
        assert same_rows(batch, columns([items[i] for i in idx]))

    def test_sample_determinism(self):
        buf, _ = filled_buffer(8, 8)
        s1 = buf.sample(4, np.random.default_rng(0))
        s2 = buf.sample(4, np.random.default_rng(0))
        assert same_rows(s1, s2)

    def test_a_full_store_refuses_one_more_add(self):
        buf, items = filled_buffer(4, 4)
        with pytest.raises(IndexError):
            buf.add(*make_transition(np.random.default_rng(9)))
        assert len(buf) == 4
        assert same_rows(buf.window(4), columns(items))

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, 2, 2)


def td_loss(q1_target, q2_target, r, done):
    """critic_update's loss when both online critics output 0 and the
    targets output constants: the mean of 2 y^2 for the TD target y."""
    critics = CriticPair(2, 2, hidden=(4,), lr=0.0)
    critics.q1_target.biases[-1][:] = q1_target
    critics.q2_target.biases[-1][:] = q2_target
    batch = columns([(np.zeros(2), np.zeros(2), r, np.zeros(2), done)])
    return critic_update(critics, batch, lambda s, rng: np.zeros((1, 2)),
                         np.random.default_rng(0))


class TestTdTarget:
    def test_constant_target_value(self):
        y = 1.0 + 0.99 * 2.0
        assert abs(td_loss(2.0, 2.0, 1.0, False) - 2 * y * y) < 1e-12

    def test_done_truncates_bootstrap(self):
        assert abs(td_loss(100.0, 100.0, 0.7, True) - 2 * 0.7 * 0.7) < 1e-12

    def test_min_over_pair(self):
        y = 0.99 * 1.0
        assert abs(td_loss(3.0, 1.0, 0.0, False) - 2 * y * y) < 1e-12


class TestCritics:
    def test_regression_loss_decreases(self):
        rng = np.random.default_rng(0)
        critics = CriticPair(2, 2, hidden=(16, 16), rng=rng, lr=1e-3)
        batch = columns([make_transition(rng, done=True) for _ in range(16)])

        def zero_sampler(states, sampler_rng):
            return np.zeros((states.shape[0], 2))

        losses = [critic_update(critics, batch, zero_sampler, rng)
                  for _ in range(300)]
        assert losses[-1] < 0.2 * losses[0]

    def test_soft_update_moves_by_rho(self):
        critics = CriticPair(2, 2, hidden=(4,), rho_target=0.01)
        for p in critics.q1.views(critics.q1.flat):
            p[:] = 1.0
        target = critics.q1_target
        before = [p.copy() for p in target.views(target.flat)]
        critics.soft_update()
        for b, t in zip(before, target.views(target.flat)):
            assert np.allclose(t, 0.99 * b + 0.01, rtol=1e-12)

    def test_empty_batch_rejected(self):
        critics = CriticPair(2, 2, hidden=(4,))
        with pytest.raises(ValueError):
            critic_update(critics, Transitions.zeros(0, 2, 2), lambda s, r: s,
                          np.random.default_rng(0))


class TestGuidedChain:
    def test_forward_matches_manual_unrolled_steps(self):
        sched = make_schedule(3)
        net = NoiseNet(2, 2, 3, hidden=(8,), rng=np.random.default_rng(0))
        s = np.random.default_rng(1).standard_normal((2, 2))
        tape = []
        a_gen = ddim_sample(net, sched, s, np.random.default_rng(2),
                            tape=tape)
        a = np.random.default_rng(2).standard_normal((2, 2))
        for k in range(3, 0, -1):
            eps = net.forward_cache(a, s, k)[0]
            abar_k, abar_prev = sched.abar_at(k), sched.abar_at(k - 1)
            u = np.sqrt(abar_prev / abar_k)
            w = np.sqrt(1 - abar_prev) - u * np.sqrt(1 - abar_k)
            a = u * a + w * eps
        assert np.allclose(a_gen, a, rtol=1e-12)
        assert len(tape) == 3

    def test_backward_matches_finite_differences(self):
        sched = make_schedule(3)
        net = NoiseNet(2, 2, 3, hidden=(8,), rng=np.random.default_rng(3))
        dyn = linear_dyn()
        cfg = GuidanceConfig(lam=0.7, r_star=1.0)
        s = np.random.default_rng(4).standard_normal((2, 2))
        hook = GuidanceHook(dyn, cfg, sched, s)

        def objective(tape=None):
            a_gen = ddim_sample(net, sched, s, np.random.default_rng(5),
                                hook=hook, tape=tape)
            return float(a_gen.sum())

        tape = []
        objective(tape)
        grad = ddim_vjp(net, sched, tape, np.ones((2, 2)), hook=hook)
        assert grad.shape == net.mlp.flat.shape
        rng = np.random.default_rng(6)
        flat = net.mlp.flat
        h = 1e-6
        for _ in range(20):
            i = int(rng.integers(flat.size))
            orig = flat[i]
            flat[i] = orig + h
            up = objective()
            flat[i] = orig - h
            down = objective()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            assert rel_err(np.array([grad[i]]), np.array([fd])) < 1e-4


class TestPolicyUpdate:
    def test_unguided_limit_matches_plain_denoising_step(self):
        sched = make_schedule(5)
        dyn = linear_dyn()
        rng = np.random.default_rng(7)
        batch = columns([make_transition(rng) for _ in range(8)])
        cfg = TrainerConfig(eta=0.0, guidance=GuidanceConfig(lam=0.0),
                            k_steps=5, lr=1e-3)
        net = NoiseNet(2, 2, 5, hidden=(8,), rng=np.random.default_rng(8))
        net2 = net.copy()
        opt = AdamState(net.mlp.flat, lr=1e-3)
        opt2 = AdamState(net2.mlp.flat, lr=1e-3)
        critics = CriticPair(2, 2, hidden=(4,))

        policy_update(net, critics, dyn, batch, cfg, sched, opt,
                      np.random.default_rng(9))

        rng2 = np.random.default_rng(9)
        s, a0 = batch.s, batch.a
        k = int(rng2.integers(1, 6))
        ak, eps = forward_corrupt(sched, a0, k, rng2)
        pred, cache = net2.forward_cache(ak, s, k)
        grad, _ = net2.backward(cache, (2.0 / len(batch)) * (pred - eps))
        opt2.step(net2.mlp.flat, grad)

        assert np.array_equal(net.mlp.flat, net2.mlp.flat)

    def test_q_term_changes_update(self):
        sched = make_schedule(5)
        dyn = linear_dyn()
        rng = np.random.default_rng(10)
        batch = columns([make_transition(rng) for _ in range(8)])
        nets = []
        for eta in (0.0, 3.0):
            cfg = TrainerConfig(eta=eta, guidance=GuidanceConfig(lam=0.5),
                                k_steps=5, lr=1e-3)
            net = NoiseNet(2, 2, 5, hidden=(8,),
                           rng=np.random.default_rng(11))
            opt = AdamState(net.mlp.flat, lr=1e-3)
            critics = CriticPair(2, 2, hidden=(8,),
                                 rng=np.random.default_rng(12))
            policy_update(net, critics, dyn, batch, cfg, sched, opt,
                          np.random.default_rng(13))
            nets.append(net)
        assert not np.array_equal(nets[0].mlp.flat, nets[1].mlp.flat)

    def test_empty_batch_rejected(self):
        cfg = TrainerConfig(k_steps=5)
        net = NoiseNet(2, 2, 5, hidden=(4,))
        with pytest.raises(ValueError):
            policy_update(net, CriticPair(2, 2, hidden=(4,)), linear_dyn(),
                          Transitions.zeros(0, 2, 2), cfg, make_schedule(5),
                          AdamState(net.mlp.flat),
                          np.random.default_rng(0))


class TestTrainerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainerConfig(eta=-1.0)
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)

    @pytest.mark.parametrize("key", ["batch_size", "refresh_window",
                                     "k_steps"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_rejects_counts_below_one_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"train.{key} must be >= 1"):
            TrainerConfig(**{key: value})
        TrainerConfig(**{key: 1})

    @pytest.mark.parametrize("key", ["offline_steps", "online_episodes",
                                     "mask_refresh"])
    def test_rejects_negative_counts_naming_the_key(self, key):
        with pytest.raises(ValueError, match=f"train.{key} must be >= 0"):
            TrainerConfig(**{key: -5})
        TrainerConfig(**{key: 0})

    @pytest.mark.parametrize("key", ["lr", "eta", "refresh_min_action_std",
                                     "beta_start", "beta_end"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects_non_finite_floats_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"train.{key} must be finite"):
            TrainerConfig(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("gamma_disc", 1.0), ("gamma_disc", -0.1),
        ("gamma_disc", float("nan")), ("rho_target", 0.0),
        ("rho_target", 1.5), ("rho_target", float("nan"))])
    def test_rejects_rates_out_of_range_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"train.{key} must lie in"):
            TrainerConfig(**{key: value})


class TestStages:
    def test_offline_stage_deterministic(self, small_instance):
        scm, _, data = small_instance
        masks = exact_masks(scm)
        cfg = TrainerConfig(offline_steps=100, k_steps=10, hidden=(16, 16))
        art1 = offline_stage(data, cfg, np.random.default_rng(0),
                             masks=masks.copy())
        art2 = offline_stage(data, cfg, np.random.default_rng(0),
                             masks=masks.copy())
        assert np.array_equal(art1.net.mlp.flat, art2.net.mlp.flat)
        assert np.array_equal(art1.dyn.a_s, art2.dyn.a_s)
        assert np.array_equal(art1.dyn.a_a, art2.dyn.a_a)

    def test_offline_stage_rejects_empty(self):
        with pytest.raises(ValueError):
            offline_stage(Transitions.zeros(0, 3, 2), TrainerConfig(),
                          np.random.default_rng(0))

    def test_online_stage_zero_episodes(self):
        spec = EnvSpec(n=3, d=2, horizon=5, seed=0)
        env = Environment(spec)
        data = generate_dataset(env.scm, 50, 5, 1.5,
                                np.random.default_rng(0))
        cfg = TrainerConfig(offline_steps=50, k_steps=10, hidden=(16,),
                            online_episodes=0, batch_size=16)
        art = offline_stage(data, cfg, np.random.default_rng(0),
                            masks=exact_masks(env.scm))
        records, final = online_stage(env, art, cfg, np.random.default_rng(1))
        assert records == []
        assert final.net is art.net

    def test_online_stage_records_and_unguided_kl(self):
        spec = EnvSpec(n=3, d=2, horizon=5, seed=0)
        env = Environment(spec)
        data = generate_dataset(env.scm, 50, 5, 1.5,
                                np.random.default_rng(0))
        cfg = TrainerConfig(offline_steps=50, k_steps=10, hidden=(16,),
                            online_episodes=2, batch_size=8,
                            mask_refresh=0,
                            guidance=GuidanceConfig(lam=0.0))
        art = offline_stage(data, cfg, np.random.default_rng(0),
                            masks=exact_masks(env.scm))
        records, _ = online_stage(env, art, cfg, np.random.default_rng(1))
        assert len(records) == 2
        for i, rec in enumerate(records):
            assert rec["episode"] == i
            assert np.isfinite(rec["return"])
            assert rec["kl_integral"] == 0.0
            assert rec["mask_refresh_flag"] == 0

    def test_online_stage_guided_kl_positive(self):
        spec = EnvSpec(n=3, d=2, horizon=5, seed=0)
        env = Environment(spec)
        data = generate_dataset(env.scm, 50, 5, 1.5,
                                np.random.default_rng(0))
        cfg = TrainerConfig(offline_steps=50, k_steps=10, hidden=(16,),
                            online_episodes=1, batch_size=8,
                            mask_refresh=0,
                            guidance=GuidanceConfig(lam=1.0, r_star=5.0))
        art = offline_stage(data, cfg, np.random.default_rng(0),
                            masks=exact_masks(env.scm))
        records, _ = online_stage(env, art, cfg, np.random.default_rng(1))
        assert records[0]["kl_integral"] > 0.0

    def test_refresh_skips_windows_below_the_refit_minimum(self, monkeypatch):
        import cgdp.rl
        spec = EnvSpec(n=3, d=2, horizon=5, seed=0)
        env = Environment(spec)
        data = generate_dataset(env.scm, 50, 5, 1.5,
                                np.random.default_rng(0))
        cfg = TrainerConfig(offline_steps=20, hidden=(8,), batch_size=8,
                            online_episodes=2, mask_refresh=5,
                            refresh_min_action_std=0.0)
        art = offline_stage(data, cfg, np.random.default_rng(0),
                            masks=exact_masks(env.scm))

        def no_discovery(*args, **kwargs):
            raise AssertionError("NOTEARS ran on a window the refit rejects")

        monkeypatch.setattr(cgdp.rl, "discover_masks", no_discovery)
        records, _ = online_stage(env, art, cfg, np.random.default_rng(1))
        assert [rec["mask_refresh_flag"] for rec in records] == [0, 0]
        assert [rec["refreshes"] for rec in records] == \
            [["skipped (window too small)"]] * 2

    def test_failed_refit_keeps_masks_and_dynamics_together(self,
                                                            monkeypatch):
        import cgdp.rl
        spec = EnvSpec(n=3, d=2, horizon=5, seed=0)
        env = Environment(spec)
        data = generate_dataset(env.scm, 50, 5, 1.5,
                                np.random.default_rng(0))
        cfg = TrainerConfig(offline_steps=20, hidden=(8,), batch_size=8,
                            online_episodes=12, mask_refresh=60,
                            refresh_min_action_std=0.0)
        art = offline_stage(data, cfg, np.random.default_rng(0),
                            masks=exact_masks(env.scm), w0=np.zeros((9, 9)))

        def failing_fit(*args, **kwargs):
            raise ValueError("refit failed")

        monkeypatch.setattr(cgdp.rl, "fit_dynamics", failing_fit)
        records, final = online_stage(env, art, cfg,
                                      np.random.default_rng(1))
        assert sum(rec["mask_refresh_flag"] for rec in records) == 0
        assert [o for rec in records for o in rec["refreshes"]] == \
            ["failed (refit failed)"]
        assert final.dyn is art.dyn
        assert final.discovery_w is art.discovery_w

    def test_refit_r_star_is_the_window_best_not_the_target(self,
                                                            monkeypatch):
        import cgdp.rl
        spec = EnvSpec(n=3, d=2, horizon=5, seed=0)
        env = Environment(spec)
        data = generate_dataset(env.scm, 50, 5, 1.5,
                                np.random.default_rng(0))
        cfg = TrainerConfig(offline_steps=20, hidden=(8,), batch_size=8,
                            online_episodes=12, mask_refresh=60,
                            refresh_min_action_std=0.0,
                            guidance=GuidanceConfig(r_star=100.0))
        art = offline_stage(data, cfg, np.random.default_rng(0),
                            masks=exact_masks(env.scm))
        windows = []

        def recording_fit(transitions, masks):
            windows.append(transitions)
            return fit_dynamics(transitions, masks)

        monkeypatch.setattr(cgdp.rl, "fit_dynamics", recording_fit)
        records, final = online_stage(env, art, cfg,
                                      np.random.default_rng(1))
        assert [o for rec in records for o in rec["refreshes"]] == \
            ["applied"]
        assert final.dyn.r_star == float(windows[0].r.max()) < 100.0

    def test_refresh_outcomes_are_recorded(self):
        spec = EnvSpec(n=3, d=2, horizon=5, seed=0)
        env = Environment(spec)
        data = generate_dataset(env.scm, 50, 5, 1.5,
                                np.random.default_rng(0))
        outcomes = {}
        for min_std in (0.0, 10.0):
            cfg = TrainerConfig(offline_steps=20, hidden=(8,), batch_size=8,
                                online_episodes=12, mask_refresh=30,
                                refresh_min_action_std=min_std)
            art = offline_stage(data, cfg, np.random.default_rng(0),
                                masks=exact_masks(env.scm))
            records, _ = online_stage(env, art, cfg,
                                      np.random.default_rng(1))
            outcomes[min_std] = [(rec["episode"], o) for rec in records
                                 for o in rec["refreshes"]]
            assert [rec["mask_refresh_flag"] for rec in records] == [
                int("applied" in rec["refreshes"]) for rec in records]
        # the refit needs 10 (n + d) = 50 rows: too few at step 30
        assert outcomes[0.0] == [(5, "skipped (window too small)"),
                                 (11, "applied")]
        assert outcomes[10.0] == [(5, "skipped (uninformative actions)"),
                                  (11, "skipped (uninformative actions)")]
