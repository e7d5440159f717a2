"""The synthetic interactive environment with known ground truth: the
linear-Gaussian SCM recursion (``lin-scm``), with only a designated subset
of action coordinates causal.  Actions are clamped to [-1, 1]^d.
"""

from dataclasses import dataclass

import numpy as np

from .scm import random_scm, scm_step

__all__ = ["EnvSpec", "EnvState", "make_env_scm", "optimal_reward",
           "Environment"]


@dataclass
class EnvSpec:
    n: int = 6
    d: int = 4
    horizon: int = 20
    n_causal_actions: int = 2
    noise_scale: float = 1.0
    reward_noise: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for key in ("n", "d", "horizon"):
            if getattr(self, key) < 1:
                raise ValueError(f"env.{key} must be >= 1, got "
                                 f"{getattr(self, key)}")
        for key in ("noise_scale", "reward_noise"):
            value = getattr(self, key)
            if not 0 <= value < np.inf:
                raise ValueError(f"env.{key} must be finite and >= 0, got "
                                 f"{value!r}")
        # more causal actions than d are clamped to d by random_scm
        if self.n_causal_actions < 0:
            raise ValueError(f"env.n_causal_actions must be >= 0, got "
                             f"{self.n_causal_actions}")


@dataclass
class EnvState:
    obs: np.ndarray
    t: int
    done: bool


def make_env_scm(spec):
    """The ground-truth SCM behind a spec (deterministic in seed)."""
    return random_scm(spec.n, spec.d, spec.n_causal_actions,
                      rng=np.random.default_rng(spec.seed),
                      noise_scale=spec.noise_scale,
                      reward_noise=spec.reward_noise)


class Environment:
    """Stateful reset/step wrapper over an EnvSpec."""

    def __init__(self, spec, scm=None):
        self.spec = spec
        self.scm = scm if scm is not None else make_env_scm(spec)
        self.state = None

    def reset(self, rng):
        self.state = EnvState(obs=rng.standard_normal(self.spec.n), t=0,
                              done=False)
        return self.state

    def step(self, a, rng):
        """Advance one environment step; returns (next EnvState, r, done)."""
        if self.state.done:
            raise RuntimeError("step() called on a finished episode")
        a = np.clip(np.asarray(a, dtype=float), -1.0, 1.0)
        if a.shape[0] != self.spec.d:
            raise ValueError("action dimension mismatch")
        s_next, r = scm_step(self.scm, self.state.obs, a, rng)
        t = self.state.t + 1
        done = t >= self.spec.horizon
        self.state = EnvState(obs=s_next, t=t, done=done)
        return self.state, r, done


def optimal_reward(scm):
    """Best expected one-step reward r* of an SCM.

    The reward is linear in the action with coefficient F_a B_s + B_a,
    so the box-constrained maximum (at s = 0) is attained at a corner and
    equals sum |c_i|.
    """
    coef = scm.f_a @ scm.b_s + scm.b_a
    return float(np.abs(coef).sum())
