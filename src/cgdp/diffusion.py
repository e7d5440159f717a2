"""Base diffusion policy: noise schedule, forward corruption, noise-net
training, and DDPM (stochastic) / DDIM (deterministic) reverse samplers.

Diffusion steps are indexed k = 1..K; schedule arrays use index k-1.
Samplers accept an optional guidance hook ``hook(a_k, k) -> correction``
returning an epsilon-space additive correction; a hook returning zeros is
bit-identical to no hook under the same seed, because hooks never touch
the random stream.  A noise predictor is anything with ``d_action``,
``forward(a, s, k, x=None)`` and ``chain_inputs(s)``: ``forward`` maps
action rows (B, d) and state rows (B, n) to noise rows (B, d), and
``chain_inputs`` returns an input buffer that ``forward`` may reuse as
``x`` along one reverse chain over the state rows ``s`` (or None, for a
predictor without one).  The samplers take state rows and return action
rows.  A trained predictor (:class:`NoiseNet`) keeps its parameters in
one flat vector, ``net.mlp.flat``, and its gradients (``backward``,
:func:`ddim_vjp`) are flat vectors of the same layout.
"""

from dataclasses import dataclass

import numpy as np

from .checkpoint import read_arrays, read_header, save_arrays
from .numerics import Mlp, AdamState

__all__ = [
    "DiffusionSchedule",
    "make_schedule",
    "NoiseNet",
    "forward_corrupt",
    "train_noise_net",
    "ddpm_sample",
    "ddim_sample",
    "ddim_vjp",
    "save_noise_net",
    "load_noise_net",
]

@dataclass
class DiffusionSchedule:
    betas: np.ndarray      # (K,) in (0,1)
    alphas: np.ndarray     # 1 - betas
    abar: np.ndarray       # cumulative products of alphas

    def __post_init__(self):
        # DDIM step a^{k-1} = u_k a^k + w_k eps_hat with
        # u_k = sqrt(abar_{k-1} / abar_k) (= 1/sqrt(alpha_k), bounded) and
        # w_k = sqrt(1 - abar_{k-1}) - u_k sqrt(1 - abar_k)
        abar_prev = np.concatenate([[1.0], self.abar[:-1]])
        self.ddim_u = np.sqrt(abar_prev / self.abar)
        self.ddim_w = np.sqrt(1.0 - abar_prev) - \
            self.ddim_u * np.sqrt(1.0 - self.abar)

    @property
    def k_steps(self):
        return len(self.betas)

    def abar_at(self, k):
        """abar_k with the k = 0 edge convention abar_0 = 1."""
        return 1.0 if k == 0 else float(self.abar[k - 1])


def make_schedule(k_steps, beta_start=1e-4, beta_end=2e-2):
    if k_steps < 1:
        raise ValueError("need K >= 1 diffusion steps")
    if not 0 < beta_start <= beta_end < 1:
        raise ValueError("require 0 < beta_start <= beta_end < 1")
    betas = np.linspace(beta_start, beta_end, k_steps)
    alphas = 1.0 - betas
    return DiffusionSchedule(betas, alphas, np.cumprod(alphas))


class NoiseNet:
    """Noise predictor: an Mlp over (noisy action, state, k/K)."""

    def __init__(self, n_state, d_action, k_steps, hidden, rng=None):
        self.n_state = n_state
        self.d_action = d_action
        self.k_steps = k_steps
        self.mlp = Mlp([d_action + n_state + 1, *hidden, d_action], rng=rng)

    def chain_inputs(self, s):
        """An input buffer [a | s | k/K] for the state rows ``s``, with
        the state block filled; :meth:`forward` fills the rest."""
        x = np.empty((s.shape[0], self.d_action + self.n_state + 1))
        x[:, self.d_action:-1] = s
        return x

    def _inputs(self, a, s, k, x):
        if x is None:
            x = self.chain_inputs(s)
        x[:, :self.d_action] = a
        x[:, -1] = k / self.k_steps
        return x

    def forward(self, a, s, k, x=None):
        return self.mlp.forward(self._inputs(a, s, k, x))

    def forward_cache(self, a, s, k, x=None):
        return self.mlp.forward_cache(self._inputs(a, s, k, x))

    def backward(self, cache, cotangent):
        """Returns (flat parameter gradient, grad w.r.t. the action
        block only)."""
        grad, gx = self.mlp.backward(cache, cotangent)
        return grad, gx[:, :self.d_action]

    def copy(self):
        clone = NoiseNet.__new__(NoiseNet)
        clone.n_state = self.n_state
        clone.d_action = self.d_action
        clone.k_steps = self.k_steps
        clone.mlp = self.mlp.copy()
        return clone


def forward_corrupt(schedule, a0, k, rng):
    """Closed-form corruption a^k = sqrt(abar_k) a0 + sqrt(1-abar_k) eps.

    Returns (a^k, eps) with the injected standard-normal noise, for use as
    the regression target.  k = 0 returns a0 with zero noise.
    """
    if not 0 <= k <= schedule.k_steps:
        raise ValueError(f"step {k} out of range 0..{schedule.k_steps}")
    a0 = np.asarray(a0, dtype=float)
    if k == 0:
        return a0.copy(), np.zeros_like(a0)
    abar_k = schedule.abar_at(k)
    eps = rng.standard_normal(a0.shape)
    return np.sqrt(abar_k) * a0 + np.sqrt(1.0 - abar_k) * eps, eps


def train_noise_net(net, dataset, schedule, opt, steps, rng, batch_size=64):
    """Minibatch noise-prediction training; returns the per-step losses.
    A loss that is not finite raises ValueError naming its step."""
    if not dataset:
        raise ValueError("empty dataset")
    losses = []
    for step in range(steps):
        idx = rng.integers(len(dataset), size=batch_size)
        k = int(rng.integers(1, schedule.k_steps + 1))
        ak, eps = forward_corrupt(schedule, dataset.a[idx], k, rng)
        pred, cache = net.forward_cache(ak, dataset.s[idx], k)
        err = pred - eps
        loss = float((err ** 2).sum(axis=1).mean())
        if not np.isfinite(loss):
            raise ValueError(f"offline step {step}: the denoising loss is "
                             f"{loss!r}, not finite")
        grad, _ = net.backward(cache, (2.0 / batch_size) * err)
        opt.step(net.mlp.flat, grad)
        losses.append(loss)
    return losses


def ddpm_sample(net, schedule, s, rng, hook=None):
    """Stochastic reverse sampler.

    Starts at a^K ~ N(0, I) and applies K reverse steps with mean
    (1/sqrt(alpha_k)) (a^k - beta_k / sqrt(1-abar_k) eps_hat) and variance
    beta_k; the terminal step adds no noise.  Takes state rows (B, n) and
    returns action rows (B, d).
    """
    s = np.asarray(s, dtype=float)
    batch = s.shape[0]
    d = net.d_action
    a = rng.standard_normal((batch, d))
    for k in range(schedule.k_steps, 0, -1):
        beta_k = schedule.betas[k - 1]
        alpha_k = schedule.alphas[k - 1]
        abar_k = schedule.abar_at(k)
        eps_hat = net.forward(a, s, k)
        if hook is not None:
            eps_hat = eps_hat + hook(a, k)
        mean = (a - beta_k / np.sqrt(1.0 - abar_k) * eps_hat) / np.sqrt(alpha_k)
        if k > 1:
            a = mean + np.sqrt(beta_k) * rng.standard_normal((batch, d))
        else:
            a = mean
    return a


def ddim_sample(net, schedule, s, rng, hook=None, tape=None):
    """Deterministic reverse chain from a^K ~ N(0, I):
    a^{k-1} = u_k a^k + w_k eps_hat(a^k, s, k), over state rows (B, n).

    Passing a list as ``tape`` records each step's ``(k, net cache)`` for
    :func:`ddim_vjp`; the returned sample is the same either way.
    """
    s = np.asarray(s, dtype=float)
    a = rng.standard_normal((s.shape[0], net.d_action))
    # one input buffer for the whole chain; a taped step keeps its input
    # in the cache, so it gets a fresh one
    x = net.chain_inputs(s) if tape is None else None
    for k in range(schedule.k_steps, 0, -1):
        if tape is None:
            eps_hat = net.forward(a, s, k, x)
        else:
            eps_hat, cache = net.forward_cache(a, s, k)
            tape.append((k, cache))
        if hook is not None:
            eps_hat = eps_hat + hook(a, k)
        a = schedule.ddim_u[k - 1] * a + schedule.ddim_w[k - 1] * eps_hat
    return a


def ddim_vjp(net, schedule, tape, cot, hook=None):
    """Exact VJP of a taped :func:`ddim_sample` with respect to the noise
    net's parameters, for the cotangent ``cot`` of a^0.

    The hook's dependence on a^k enters through ``hook.eps_jacobian(k)``,
    a (d, d) matrix, or is treated as locally constant where that is None.
    Returns one flat gradient laid out like ``net.mlp.flat``.
    """
    grad = np.zeros(net.mlp.flat.size)
    for k, cache in reversed(tape):
        cot_eps = schedule.ddim_w[k - 1] * cot
        step_grad, ga = net.backward(cache, cot_eps)
        grad += step_grad
        cot = schedule.ddim_u[k - 1] * cot + ga
        if hook is not None:
            jac = hook.eps_jacobian(k)
            if jac is not None:
                cot = cot + cot_eps @ jac
    return grad


_NET_VERSION = "cgdp-noise-net-v2"


def save_noise_net(net, path):
    """Checkpoint ``net`` in the :mod:`cgdp.checkpoint` layout: header
    ``cgdp-noise-net-v2 n d K hidden...`` and one array, ``flat``, the
    parameter vector ``net.mlp.flat``."""
    header = [_NET_VERSION, net.n_state, net.d_action, net.k_steps,
              *net.mlp.widths[1:-1]]
    save_arrays(path, " ".join(map(str, header)), {"flat": net.mlp.flat})


def load_noise_net(path):
    """Read a :func:`save_noise_net` checkpoint.  A bad header, a ``flat``
    array of the wrong size, non-finite values and text after the array
    raise ValueError naming ``file:line``, before the net is built."""
    header, lines = read_header(path, _NET_VERSION)
    try:
        n_state, d_action, k_steps, *hidden = map(int, header)
        ok = min(n_state, d_action, k_steps, *hidden) >= 1
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"{path}:1: expected '{_NET_VERSION} n d K "
                         f"hidden...' with integers >= 1, got {lines[0]!r}")
    size = Mlp.flat_size([d_action + n_state + 1, *hidden, d_action])
    flat = read_arrays(path, lines, {"flat": (size,)})["flat"]
    net = NoiseNet(n_state, d_action, k_steps, tuple(hidden))
    net.mlp.flat[...] = flat
    return net
