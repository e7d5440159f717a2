"""Causal guidance injection: the sampler hook that corrects the noise
prediction, the path-KL accumulator behind the performance-difference
bound, and the explicit-Euler step-size stability machinery.

Time convention for the SDE view: one unit of process time per diffusion
schedule traversal, g(t)^2 = beta(t) with beta linearly interpolated over
the schedule, and each discrete sampler step treated as dt with
g^2 dt = beta_k.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import do_intervention_joint_grad, joint_grad_jacobian
from .numerics import affine_rows

__all__ = [
    "GuidanceConfig",
    "LipschitzBundle",
    "KlAccumulator",
    "GuidanceHook",
    "stability_max_step",
    "estimate_lipschitz",
    "euler_maruyama_guided",
]


@dataclass
class GuidanceConfig:
    lam: float = 1.0                # guidance scale, the same at every step
    gamma_t: float = 1.0            # state-guidance coefficient
    beta_guid_t: float = 1.0        # reward-guidance coefficient

    def __post_init__(self):
        if np.ndim(self.lam) or not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"guidance.lambda must be one finite value "
                             f">= 0, got {self.lam!r}")
        for key in ("gamma_t", "beta_guid_t"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"guidance.{key} must be finite, got "
                                 f"{getattr(self, key)!r}")

    def lam_at(self, k):
        """The guidance scale at diffusion step ``k``."""
        return float(self.lam)


@dataclass
class LipschitzBundle:
    l_f: float
    l_s: float
    l_phi: float
    l_omega: float
    delta: float = 0.5
    g2_max: float = 2e-2            # max of g(t)^2 = beta(t), at t = 1

    def __post_init__(self):
        for c in (self.l_f, self.l_s, self.l_phi, self.l_omega):
            if c < 0:
                raise ValueError("Lipschitz constants must be >= 0")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0,1)")


class KlAccumulator:
    """Running Girsanov-form path integral of the squared drift correction.

    Accumulates ||correction / g||^2 dt per call; monotone non-decreasing
    and exactly zero on unguided runs.
    """

    def __init__(self):
        self.total = 0.0

    def add(self, correction, g_t, dt):
        """Add one term, the row mean over the correction rows (B, d)."""
        if g_t <= 0 or dt <= 0:
            raise ValueError("g_t and dt must be > 0")
        # the row mean of the squared norms, as .mean() computes it
        rows = np.add.reduce(correction * correction, axis=-1)
        sq = float(np.add.reduce(rows)) / rows.shape[0]
        self.total += sq / (g_t * g_t) * dt
        return self


class GuidanceHook:
    """Sampler hook computing the epsilon-space guidance correction.

    It holds the guidance gradient as one affine map per diffusion step,
    g_k(a) = const[k-1] + a @ jac[k-1].T, and at step k returns
    -lam_k sqrt(1-abar_k) g_k(a^k), which adds lam_k g_k to the base
    score, feeding the KL accumulator.  Built from the dynamics, every
    step shares one map: the joint gradient
    (:func:`do_intervention_joint_grad`) is affine in the action, so it is
    evaluated once, at a = 0, for the state rows ``s_t`` against the next
    states ``s_next`` (replay) or the predicted mean (acting), the reward
    pulled toward ``r_value`` if given, else toward the model's own
    target ``dyn.r_star``; jac is :func:`joint_grad_jacobian`.  At
    lam = 0 no map is built.
    """

    def __init__(self, dyn, cfg, schedule, s_t, s_next=None, r_value=None,
                 kl_acc=None):
        self.cfg, self.schedule, self.kl_acc = cfg, schedule, kl_acc
        self.const = self.jac = None
        if cfg.lam != 0.0:
            self.const = [do_intervention_joint_grad(
                dyn, s_t, np.zeros((1, dyn.d)), s_next,
                dyn.r_star if r_value is None else r_value, cfg.gamma_t,
                cfg.beta_guid_t)] * schedule.k_steps
            self.jac = [joint_grad_jacobian(
                dyn, cfg.gamma_t, cfg.beta_guid_t,
                predicted_next=s_next is None)] * schedule.k_steps

    @classmethod
    def from_maps(cls, cfg, schedule, const, jac):
        """A hook over the maps ``const`` (K, d), one row for every action
        row, and ``jac`` (K, d, d), without a KL accumulator."""
        hook = cls.__new__(cls)
        hook.cfg, hook.schedule, hook.kl_acc = cfg, schedule, None
        hook.const, hook.jac = const, jac
        return hook

    def joint_grad(self, a, k=1):
        """Gradient rows g_k(a) for candidate action rows ``a``."""
        return affine_rows(a, self.jac[k - 1].T, self.const[k - 1])

    def _scale(self, k):
        """The correction per unit of gradient at step k."""
        return -self.cfg.lam_at(k) * np.sqrt(1.0 - self.schedule.abar_at(k))

    def __call__(self, a, k):
        lam_k = self.cfg.lam_at(k)
        if lam_k == 0.0:
            return np.zeros(np.shape(a))
        grad = self.joint_grad(a, k)
        if self.kl_acc is not None:
            beta_k = self.schedule.betas[k - 1]
            self.kl_acc.add(beta_k * lam_k * grad, np.sqrt(beta_k), 1.0)
        return np.multiply(self._scale(k), grad, out=grad)  # in place

    def eps_jacobian(self, k):
        """d(correction)/da at step k; None at lam_k = 0."""
        if self.cfg.lam_at(k) == 0.0:
            return None
        return self._scale(k) * self.jac[k - 1]


def stability_max_step(bundle, gamma_t, beta_guid_t):
    """Sufficient explicit-Euler step bound
    delta / (L_f + g(1)^2 L_s + |gamma_t| L_phi + |beta_guid_t| L_omega),
    with g(1)^2 = ``bundle.g2_max``, the largest g(t)^2."""
    denom = (bundle.l_f + bundle.g2_max * bundle.l_s
             + abs(gamma_t) * bundle.l_phi + abs(beta_guid_t) * bundle.l_omega)
    return bundle.delta / denom


def _spectral_norm(m):
    return float(np.linalg.norm(m, 2))


def estimate_lipschitz(dyn, schedule):
    """Lipschitz constants of the guided drift's ingredients, all exact:
    spectral norms of the dynamics' gradient Jacobians, L_f = beta_max / 2
    of the VP drift, and L_s = 1 for the standard-normal score -a that
    :func:`euler_maruyama_guided` integrates; delta is the default 0.5."""
    beta_max = float(schedule.betas.max())
    return LipschitzBundle(
        l_f=0.5 * beta_max, l_s=1.0,
        l_phi=_spectral_norm(joint_grad_jacobian(dyn, 1.0, 0.0, False)),
        l_omega=_spectral_norm(joint_grad_jacobian(dyn, 0.0, 1.0, False)),
        g2_max=beta_max)


def euler_maruyama_guided(dyn, schedule, cfg, s, dt, steps, rng):
    """Explicit Euler integration of the guided reverse VP-SDE.

    Integrated in the denoising direction: the drift is
    -f(a, t) + g(t)^2 * score + (gamma grad_phi + beta_guid grad_omega)
    with the VP ingredients f(a, t) = -0.5 beta(t) a, g(t) = sqrt(beta(t)),
    beta interpolated over [0, 1] process time and clamped beyond.  The
    score is -a, a standard normal's; the guidance is evaluated at the
    predicted next state.

    ``s`` holds rows of states (P, n), integrated in lockstep, and ``rng``
    a list of one Generator per row.  Each generator draws its row's
    whole (steps + 1, d) noise block at once: the initial action, then one
    increment per step, the values that drawing them step by step gives.
    The rows are a stack of one-row matrices, which NumPy multiplies one
    at a time with the kernel of a one-row product, so each row is
    bitwise the run of its state alone.
    A row diverges once its norm exceeds 1e6 or an entry goes non-finite
    (reported, never raised); it keeps its value at the break while the
    other rows go on, and the call ends when every row has diverged or
    the steps run out.  Returns (trajectory (T+1, P, d), diverged (P,)).
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if not isinstance(rng, (list, tuple)) or len(rng) != len(s):
        raise ValueError("state rows need one generator per row")
    if len(s) == 0:
        raise ValueError("need at least one state row")
    s = s[:, None, :]
    noise = np.stack([g.standard_normal((steps + 1, dyn.d)) for g in rng],
                     axis=1)[:, :, None, :]
    traj = np.empty_like(noise)
    traj[0] = a = noise[0]
    diverged = np.zeros(len(s), dtype=bool)
    live = slice(None)                 # the rows still integrating
    cfg = replace(cfg, lam=1.0)  # not in the drift; at 0 no map is built
    hook = GuidanceHook(dyn, cfg, schedule, s)
    beta_start = float(schedule.betas.min())
    beta_end = float(schedule.betas.max())
    root_dt = math.sqrt(dt)
    end = steps
    for nstep in range(steps):
        t = min(nstep * dt, 1.0)
        beta_t = beta_start + (beta_end - beta_start) * t
        g = math.sqrt(beta_t)
        guid = hook.joint_grad(a)  # carries the gamma/beta weights
        # -f(a, t) = 0.5 beta_t a, plus beta_t times the score -a
        drift = 0.5 * beta_t * a - beta_t * a + guid
        a = a + drift * dt + g * root_dt * noise[nstep + 1, live]
        # a squared norm well below 1e12 cannot diverge; a non-finite
        # entry fails the comparison too
        if not np.einsum("pij,pij->p", a, a).max() <= 0.99e12:
            bad = np.array([not np.all(np.isfinite(row))
                            or np.linalg.norm(row) > 1e6 for row in a])
            if bad.any():
                rows = np.arange(len(s))[live]
                traj[nstep + 1:, rows[bad]] = a[bad]
                diverged[rows[bad]] = True
                if bad.all():
                    end = nstep + 1
                    break
                live, a = rows[~bad], a[~bad]
                hook = GuidanceHook(dyn, cfg, schedule, s[live])
        traj[nstep + 1, live] = a
    return traj[:end + 1, :, 0], diverged
