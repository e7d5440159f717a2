"""Causal guidance injection: the sampler hook that corrects the noise
prediction, the path-KL accumulator behind the performance-difference
bound, and the explicit-Euler step-size stability machinery.

Time convention for the SDE view: one unit of process time per diffusion
schedule traversal, g(t)^2 = beta(t) with beta linearly interpolated over
the schedule, and each discrete sampler step treated as dt with
g^2 dt = beta_k.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import do_intervention_joint_grad, joint_grad_jacobian

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
    r_star: float = 0.0             # optimal-reward target

    def __post_init__(self):
        if np.ndim(self.lam) or not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"guidance.lambda must be one finite value "
                             f">= 0, got {self.lam!r}")
        for key in ("gamma_t", "beta_guid_t", "r_star"):
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

    At diffusion step k with candidate actions a^k the hook evaluates the
    interventional joint gradient at (s_t, a^k) against either the
    recorded next state (replay) or the model-predicted mean (online
    acting, where the transition term then vanishes at its own mean), with
    the reward term pulled toward ``r_value`` when one is given (replayed
    rewards) and toward ``cfg.r_star`` otherwise, and returns
    -lam_k sqrt(1-abar_k) * gradient: the guided noise is the base noise
    plus this correction, which in score space is exactly the base score
    plus lam_k * gradient.  Every call also feeds the
    KL accumulator; at lam_k = 0 the gradient is skipped and the
    correction and KL term are zero.  ``s_t``, ``s_next`` and the actions
    are rows, as :func:`do_intervention_joint_grad` takes them.
    """

    def __init__(self, dyn, cfg, schedule, s_t, s_next=None, r_value=None,
                 kl_acc=None):
        self.dyn = dyn
        self.cfg = cfg
        self.schedule = schedule
        self.s_t = s_t
        self.s_next = s_next
        self.r_value = cfg.r_star if r_value is None else r_value
        self.kl_acc = kl_acc
        self._grad_jac = None
        self._s_term = None

    def joint_grad(self, a):
        """Interventional gradient rows for candidate actions."""
        if self._s_term is None:
            self._s_term = self.s_t @ self.dyn.a_s   # the same every step
        return do_intervention_joint_grad(
            self.dyn, self.s_t, a, self.s_next, self.r_value,
            self.cfg.gamma_t, self.cfg.beta_guid_t, s_term=self._s_term)

    def __call__(self, a, k):
        lam_k = self.cfg.lam_at(k)
        beta_k = self.schedule.betas[k - 1]
        if lam_k == 0.0:
            corr = np.zeros(np.shape(a))
            if self.kl_acc is not None:
                self.kl_acc.add(corr, np.sqrt(beta_k), 1.0)
            return corr
        grad = self.joint_grad(a)
        if self.kl_acc is not None:
            self.kl_acc.add(beta_k * lam_k * grad, np.sqrt(beta_k), 1.0)
        return -lam_k * np.sqrt(1.0 - self.schedule.abar_at(k)) * grad

    def eps_jacobian(self, k):
        """d(correction)/da at step k; None at lam_k = 0."""
        lam_k = self.cfg.lam_at(k)
        if lam_k == 0.0:
            return None
        if self._grad_jac is None:
            self._grad_jac = joint_grad_jacobian(
                self.dyn, self.cfg.gamma_t, self.cfg.beta_guid_t,
                predicted_next=self.s_next is None)
        return -lam_k * np.sqrt(1.0 - self.schedule.abar_at(k)) * \
            self._grad_jac


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
