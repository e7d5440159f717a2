"""Masked Gaussian transition and reward models and the interventional
log-density gradients that make up the causal guidance signal.

Masking is per output coordinate: input i reaches output j of the
transition model only through the gate c_ss[i, j] (resp. c_as[i, j]), so
a zero gate makes the output provably independent of that input.  The
reward model is scalar and gated by the vectors u_sr, u_ar.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import read_arrays, read_header, save_arrays
from .scm import CausalMasks

__all__ = [
    "CausalDynamics",
    "fit_dynamics",
    "do_intervention_joint_grad",
    "joint_grad_jacobian",
    "save_dynamics",
    "load_dynamics",
]

_VAR_FLOOR = 1e-9


@dataclass
class CausalDynamics:
    """Fitted causal dynamical model: linear-Gaussian operators.

    The stored operators are already mask-gated, so masked-out
    coefficients are exactly zero.
    """

    masks: CausalMasks
    sigma_s: np.ndarray            # (n, n) transition covariance, PD
    sigma_r: float                 # reward variance, > 0
    a_s: np.ndarray                # (n, n) s -> s_next
    a_a: np.ndarray                # (d, n) a -> s_next
    b_s: np.ndarray                # (n,)   s_next -> r
    b_a: np.ndarray                # (d,)   a -> r
    # the guidance target: the best reward in the fitted rows, or the
    # target online training ended on (``online_stage``)
    r_star: float = 0.0
    _prec_s: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.sigma_s = np.asarray(self.sigma_s, dtype=float)
        if not 0 < self.sigma_r < np.inf:
            raise ValueError(f"sigma_r must be finite and > 0, got "
                             f"{self.sigma_r!r}")
        if np.any(np.linalg.eigvalsh(self.sigma_s) <= 0):
            raise ValueError("sigma_s must be positive definite")
        self._prec_s = np.linalg.inv(self.sigma_s)

    @property
    def n(self):
        return self.masks.c_ss.shape[0]

    @property
    def d(self):
        return self.masks.c_as.shape[0]

    # ---- means (rows of s / s_next (B, n) and a (B, d)) -----------------

    def transition_mean_batch(self, s, a):
        return s @ self.a_s + a @ self.a_a

    def reward_mean_batch(self, s_next, a):
        return s_next @ self.b_s + a @ self.b_a


def _masked_ols(features, targets, gate):
    """OLS restricted to gated features; returns dense coefficients with
    exact zeros where the gate is zero.  Falls back to a 1e-6 ridge when
    the design is rank-deficient."""
    active = np.flatnonzero(gate != 0)
    coefs = np.zeros(features.shape[1])
    if active.size == 0:
        return coefs
    xg = features[:, active] * gate[active]
    gram = xg.T @ xg
    rhs = xg.T @ targets
    try:
        sol = np.linalg.solve(gram, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        sol = np.linalg.solve(gram + 1e-6 * np.eye(active.size), rhs)
    coefs[active] = sol * gate[active]
    return coefs


def fit_dynamics(transitions, masks):
    """Fit the masked transition and reward models from transitions:
    per-coordinate masked least squares with residual covariance
    estimates, from at least 10 (n + d) rows.  Draws no random numbers."""
    s, a, r, s_next = (transitions.s, transitions.a, transitions.r,
                       transitions.s_next)
    n, d = s.shape[1], a.shape[1]
    if len(transitions) < 10 * (n + d):
        raise ValueError(f"linear fit needs >= {10 * (n + d)} transitions, "
                         f"got {len(transitions)}")
    r_star = float(r.max())

    a_s = np.zeros((n, n))
    a_a = np.zeros((d, n))
    feats = np.concatenate([s, a], axis=1)
    for j in range(n):
        gate = np.concatenate([masks.c_ss[:, j], masks.c_as[:, j]])
        coefs = _masked_ols(feats, s_next[:, j], gate)
        a_s[:, j] = coefs[:n]
        a_a[:, j] = coefs[n:]
    resid = s_next - (s @ a_s + a @ a_a)
    if n <= 8:
        sigma_s = resid.T @ resid / len(transitions)
    else:
        sigma_s = np.diag((resid ** 2).mean(axis=0))
    sigma_s = sigma_s + _VAR_FLOOR * np.eye(n)

    feats_r = np.concatenate([s_next, a], axis=1)
    gate_r = np.concatenate([masks.u_sr, masks.u_ar])
    coefs_r = _masked_ols(feats_r, r, gate_r)
    b_s, b_a = coefs_r[:n], coefs_r[n:]
    resid_r = r - (s_next @ b_s + a @ b_a)
    sigma_r = float((resid_r ** 2).mean()) + _VAR_FLOOR
    return CausalDynamics(masks=masks.copy(), sigma_s=sigma_s,
                          sigma_r=sigma_r, a_s=a_s, a_a=a_a, b_s=b_s,
                          b_a=b_a, r_star=r_star)


def do_intervention_joint_grad(dyn, s, a, s_next, r_target, gamma_t,
                               beta_guid_t):
    """gamma_t * grad_a log p(s_next | s, do(a))
    + beta_guid_t * grad_a log p(r_target | s_next, do(a)), row by row.

    ``a``, ``s`` and ``s_next`` hold rows, (B, d) and (B, n), or one row
    that serves every row, and ``r_target`` a scalar or one value per
    row.  ``s_next = None`` evaluates at the model's predicted mean, where
    the transition term vanishes.  The reward term holds s_next fixed.
    Returns one gradient row per row.  The do-semantics hold by
    construction: a enters only through its structural-equation role in
    the two masked models.  ``s`` and ``a`` may also be stacks (P, 1, n)
    and (P, 1, d) of single rows, with a scalar ``r_target`` and no
    ``s_next``; the result is then a (P, 1, d) stack, each row bitwise its
    one-row result.
    """
    with_trans = gamma_t != 0.0 and s_next is not None
    if s_next is None or with_trans:
        mean_next = dyn.transition_mean_batch(s, a)
    grad = None
    if with_trans:
        grad = gamma_t * (s_next - mean_next) @ dyn._prec_s @ dyn.a_a.T
    if beta_guid_t != 0.0:
        sn = mean_next if s_next is None else s_next
        resid = r_target - (sn @ dyn.b_s + a @ dyn.b_a)
        reward = beta_guid_t * resid[..., None] * dyn.b_a / dyn.sigma_r
        grad = reward if grad is None else grad + reward
    return np.zeros(a.shape) if grad is None else grad


def joint_grad_jacobian(dyn, gamma_t, beta_guid_t, predicted_next):
    """d(joint gradient)/da, a constant (d, d) matrix.

    ``predicted_next`` selects the ``s_next = None`` form: the transition
    residual is then identically zero, and the reward residual sees a
    both directly and through the predicted next state.
    """
    jac = np.zeros((dyn.d, dyn.d))
    if gamma_t != 0.0 and not predicted_next:
        jac += -gamma_t * dyn.a_a @ dyn._prec_s @ dyn.a_a.T
    if beta_guid_t != 0.0:
        eff = dyn.a_a @ dyn.b_s + dyn.b_a if predicted_next else dyn.b_a
        jac += -beta_guid_t / dyn.sigma_r * np.outer(dyn.b_a, eff)
    return jac


# ---- checkpoint serialization -------------------------------------------

_CKPT_VERSION = "cgdp-dynamics-v1"
_MASK_ARRAYS = ("c_ss", "c_as", "u_sr", "u_ar")
_MODEL_ARRAYS = ("a_s", "a_a", "b_s", "b_a", "sigma_s")


def save_dynamics(dyn, path):
    """Checkpoint ``dyn`` in the :mod:`cgdp.checkpoint` layout: header
    ``cgdp-dynamics-v1 linear n d sigma_r r_star``, then the four masks
    and the five operators."""
    arrays = {name: getattr(dyn.masks, name) for name in _MASK_ARRAYS}
    arrays.update((name, getattr(dyn, name)) for name in _MODEL_ARRAYS)
    save_arrays(path, f"{_CKPT_VERSION} linear {dyn.n} {dyn.d} "
                f"{repr(dyn.sigma_r)} {repr(dyn.r_star)}", arrays)


def load_dynamics(path):
    """Read a :func:`save_dynamics` checkpoint.  A bad header, a missing
    or short array, non-finite values and text after the last array raise
    ValueError naming the file, the line and the array."""
    header, lines = read_header(path, _CKPT_VERSION)
    try:
        kind, n, d = header[0], int(header[1]), int(header[2])
        sigma_r, r_star = float(header[3]), float(header[4])
    except (ValueError, IndexError):
        kind = None
    if kind != "linear" or len(header) != 5 or n < 1 or d < 1:
        raise ValueError(f"{path}:1: expected '{_CKPT_VERSION} linear n d "
                         f"sigma_r r_star', got {lines[0]!r}")
    if not (0 < sigma_r < np.inf and math.isfinite(r_star)):
        raise ValueError(f"{path}:1: sigma_r must be finite and > 0 and "
                         f"r_star finite, got {lines[0]!r}")
    arrays = read_arrays(path, lines, {
        "c_ss": (n, n), "c_as": (d, n), "u_sr": (n,), "u_ar": (d,),
        "a_s": (n, n), "a_a": (d, n), "b_s": (n,), "b_a": (d,),
        "sigma_s": (n, n)})
    masks = CausalMasks(*(arrays[name] for name in _MASK_ARRAYS))
    return CausalDynamics(masks=masks, sigma_r=sigma_r, r_star=r_star,
                          **{name: arrays[name] for name in _MODEL_ARRAYS})
