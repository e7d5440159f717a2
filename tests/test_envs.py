import numpy as np
import pytest
from scipy import stats

from cgdp.envs import (Environment, EnvSpec, EnvState, make_env_scm,
                       optimal_reward)
from cgdp.scm import GroundTruthScm


def step(state, a, spec, rng, scm):
    """One ``Environment.step`` from ``state``."""
    env = Environment(spec, scm=scm)
    env.state = state
    return env.step(a, rng)


class TestSpec:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            EnvSpec(n=0)
        with pytest.raises(ValueError):
            EnvSpec(d=0)
        with pytest.raises(ValueError):
            EnvSpec(horizon=0)

    @pytest.mark.parametrize("key, value", [
        ("noise_scale", float("nan")), ("noise_scale", -0.5),
        ("reward_noise", float("nan")), ("reward_noise", float("inf")),
        ("n_causal_actions", -1)])
    def test_rejects_bad_noise_and_causal_counts_naming_the_key(self, key,
                                                               value):
        with pytest.raises(ValueError, match=f"env.{key} must be"):
            EnvSpec(**{key: value})

    def test_scm_deterministic_in_seed(self):
        spec = EnvSpec(n=3, d=2, seed=4)
        s1, s2 = make_env_scm(spec), make_env_scm(spec)
        assert np.array_equal(s1.f_s, s2.f_s)
        assert np.array_equal(s1.f_a, s2.f_a)
        assert np.array_equal(s1.b_s, s2.b_s)


class TestReset:
    def test_lin_scm_reset_deterministic(self):
        env = Environment(EnvSpec(n=3, d=2))
        st1 = env.reset(np.random.default_rng(5))
        st2 = env.reset(np.random.default_rng(5))
        assert np.array_equal(st1.obs, st2.obs)
        assert st1.t == 0 and not st1.done


class TestStep:
    def test_zero_operator_scm_is_inert(self):
        spec = EnvSpec(n=2, d=1, horizon=3)
        scm = GroundTruthScm(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros(2),
                             np.zeros(1), np.zeros((2, 2)), 0.0)
        st = EnvState(obs=np.ones(2), t=0, done=False)
        nxt, r, _ = step(st, np.ones(1), spec, np.random.default_rng(0),
                         scm=scm)
        assert np.all(nxt.obs == 0) and r == 0.0

    def test_actions_clamped_to_unit_box(self):
        spec = EnvSpec(n=2, d=1, horizon=3)
        scm = GroundTruthScm(np.zeros((2, 2)), np.ones((1, 2)), np.zeros(2),
                             np.zeros(1), np.zeros((2, 2)), 0.0)
        st = EnvState(obs=np.zeros(2), t=0, done=False)
        big, _, _ = step(st, np.array([100.0]), spec,
                         np.random.default_rng(0), scm=scm)
        unit, _, _ = step(st, np.array([1.0]), spec,
                          np.random.default_rng(0), scm=scm)
        assert np.array_equal(big.obs, unit.obs)

    def test_step_after_done_raises(self):
        spec = EnvSpec(n=2, d=1, horizon=1)
        st = EnvState(obs=np.zeros(2), t=1, done=True)
        with pytest.raises(RuntimeError):
            step(st, np.zeros(1), spec, np.random.default_rng(0),
                 make_env_scm(spec))

    def test_horizon_sets_done(self):
        spec = EnvSpec(n=2, d=2, horizon=3)
        env = Environment(spec)
        rng = np.random.default_rng(1)
        env.reset(rng)
        steps = 0
        done = False
        while not done:
            _, _, done = env.step(np.zeros(2), rng)
            steps += 1
        assert steps == 3


class TestOptimalReward:
    def test_matches_corner_grid_search(self):
        for seed in range(5):
            spec = EnvSpec(n=3, d=2, seed=seed)
            scm = make_env_scm(spec)
            coef = scm.f_a @ scm.b_s + scm.b_a
            grid = np.array(np.meshgrid(*([[-1.0, 0.0, 1.0]] * 2))
                            ).reshape(2, -1).T
            best = max(float(g @ coef) for g in grid)
            assert abs(optimal_reward(scm) - best) < 1e-9


class TestNonCausalCoordinates:
    def _dead_coord(self, scm):
        for j in range(scm.d):
            if not np.any(scm.f_a[j]) and scm.b_a[j] == 0.0:
                return j
        return None

    def test_dead_coordinate_has_no_paired_effect(self):
        spec = EnvSpec(n=4, d=3, n_causal_actions=2, seed=0)
        scm = make_env_scm(spec)
        j = self._dead_coord(scm)
        assert j is not None
        rng = np.random.default_rng(2)
        for _ in range(50):
            st = EnvState(obs=rng.standard_normal(4), t=0, done=False)
            a = rng.uniform(-1, 1, 3)
            a2 = a.copy()
            a2[j] = rng.uniform(-1, 1)
            n1, r1, _ = step(st, a, spec, np.random.default_rng(7), scm=scm)
            n2, r2, _ = step(st, a2, spec, np.random.default_rng(7), scm=scm)
            assert np.array_equal(n1.obs, n2.obs) and r1 == r2

    def test_dead_coordinate_reward_distribution_unchanged(self):
        spec = EnvSpec(n=4, d=3, n_causal_actions=2, seed=0)
        scm = make_env_scm(spec)
        j = self._dead_coord(scm)
        base = np.zeros(3)
        rng = np.random.default_rng(3)
        rewards_fixed, rewards_moved = [], []
        for _ in range(1000):
            st = EnvState(obs=np.zeros(4), t=0, done=False)
            _, r, _ = step(st, base, spec, rng, scm=scm)
            rewards_fixed.append(r)
            a = base.copy()
            a[j] = rng.uniform(-1, 1)
            st = EnvState(obs=np.zeros(4), t=0, done=False)
            _, r, _ = step(st, a, spec, rng, scm=scm)
            rewards_moved.append(r)
        _, p = stats.ks_2samp(rewards_fixed, rewards_moved)
        assert p > 0.01

    def test_causal_coordinate_shifts_reward(self):
        spec = EnvSpec(n=4, d=3, n_causal_actions=2, seed=0)
        scm = make_env_scm(spec)
        causal = [jj for jj in range(3)
                  if np.any(scm.f_a[jj]) or scm.b_a[jj] != 0.0]
        j = causal[0]
        rng = np.random.default_rng(4)
        lo, hi = [], []
        for _ in range(1000):
            for sign, out in ((-1.0, lo), (1.0, hi)):
                a = np.zeros(3)
                a[j] = sign
                st = EnvState(obs=np.zeros(4), t=0, done=False)
                _, r, _ = step(st, a, spec, rng, scm=scm)
                out.append(r)
        _, p = stats.ks_2samp(lo, hi)
        assert p < 0.01
