"""Causal mask learning: NOTEARS continuous optimization with an augmented
Lagrangian, mask slicing for the stacked transition variables, and the
noise-corruption variant used in ablations.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import acyclicity
from .scm import CausalMasks

__all__ = [
    "NotearsConfig",
    "DiscoveryResult",
    "acyclicity",
    "notears_fit",
    "discover_masks",
    "corrupt_masks",
]


# the augmented-Lagrangian schedule; under discover_masks' forbidden
# pattern every admissible W is acyclic and the first round converges
_RHO = 1.0
_RHO_GROWTH = 10.0
_ALPHA = 0.0
_TOL = 1e-8
_MAX_OUTER = 30


@dataclass
class NotearsConfig:
    l1: float = 0.1
    max_inner: int = 300
    tau: float = 0.3

    def __post_init__(self):
        if not 0 < self.tau < 1:
            raise ValueError(f"notears.tau must lie in (0,1), got "
                             f"{self.tau!r}")
        if not self.l1 >= 0:
            raise ValueError(f"notears.l1 must be >= 0, got {self.l1!r}")
        if self.max_inner < 1:
            raise ValueError(f"notears.max_inner must be >= 1, got "
                             f"{self.max_inner}")


@dataclass
class DiscoveryResult:
    w: np.ndarray
    masks: CausalMasks | None
    h_value: float
    converged: bool = True


def _soft_threshold(w, thresh):
    return np.sign(w) * np.maximum(np.abs(w) - thresh, 0.0)


def notears_fit(data, cfg, forbidden=None, w0=None):
    """Linear-SEM NOTEARS: minimize the least-squares score subject to
    acyclicity via augmented Lagrangian dual ascent.

    The smooth part is handled by proximal gradient descent with
    backtracking; the l1 term by soft-thresholding.  ``forbidden`` is a
    boolean matrix of entries hard-zeroed throughout (diagonal always is).
    Returns a :class:`DiscoveryResult` whose ``masks`` field is None (use
    :func:`discover_masks` for the RL variable layout).

    No command reaches the rounds after the first: the forbidden pattern
    of :func:`discover_masks` leaves an acyclic support, so h(W) = 0 and
    the first round converges.  The general augmented-Lagrangian path, on
    a support with cycles, is exercised by acceptance property 03 and by
    ``test_discovery``.
    """
    x = np.asarray(data, dtype=float)
    n_samples, dim = x.shape
    if n_samples < 30:
        raise ValueError("notears_fit needs at least 30 samples")
    x = x - x.mean(axis=0)
    # centering only: rescaling the columns would erase the noise-scale
    # ordering the least-squares score needs to orient edges
    fixed_zero = np.eye(dim, dtype=bool)
    if forbidden is not None:
        fixed_zero = fixed_zero | np.asarray(forbidden, dtype=bool)

    gram = x.T @ x / n_samples
    # when the allowed support is itself acyclic, so is every admissible
    # W: h(W) = 0 and its gradient vanishes, and neither is evaluated
    acyclic_support = acyclicity((~fixed_zero).astype(float)) == 0.0

    def smooth_and_grad(w, rho, alpha):
        resid_op = np.eye(dim) - w
        # 0.5/n ||X - XW||_F^2 expressed through the Gram matrix
        grad = -(gram @ resid_op)
        val = -0.5 * float(np.sum(resid_op * grad))
        h = 0.0
        if not acyclic_support:
            with np.errstate(over="ignore", invalid="ignore"):
                h, g_h = acyclicity(w, with_grad=True)
                val = val + 0.5 * rho * h * h + alpha * h
                grad = grad + (rho * h + alpha) * g_h
        if not np.isfinite(val):
            val = np.inf  # backtracking rejects oversized proposals
        return val, grad, h

    w = np.zeros((dim, dim)) if w0 is None else np.array(w0, dtype=float)
    w[fixed_zero] = 0.0
    rho, alpha = _RHO, _ALPHA
    h_val = 0.0 if acyclic_support else acyclicity(w)
    best_w, best_h = w.copy(), h_val
    converged = False
    rho_max = 1e16

    for _ in range(_MAX_OUTER):
        # inner proximal-gradient solve at fixed (rho, alpha)
        step = 1.0
        val, grad, h_val = smooth_and_grad(w, rho, alpha)
        for _ in range(cfg.max_inner):
            while True:
                w_new = _soft_threshold(w - step * grad, step * cfg.l1)
                w_new[fixed_zero] = 0.0
                diff = w_new - w
                val_new, grad_new, h_new = smooth_and_grad(w_new, rho, alpha)
                quad = val + float(np.sum(grad * diff)) + \
                    0.5 / step * float(np.sum(diff * diff))
                if val_new <= quad + 1e-12 or step < 1e-12:
                    break
                step *= 0.5
            move = np.max(np.abs(diff))
            w, val, grad, h_val = w_new, val_new, grad_new, h_new
            step = min(step * 2.0, 1.0)
            if move < 1e-6:
                break
        if h_val < best_h:
            best_w, best_h = w.copy(), h_val
        if h_val <= _TOL:
            converged = True
            break
        alpha += rho * h_val
        if rho < rho_max:
            rho *= _RHO_GROWTH

    if not converged:
        w, h_val = best_w, best_h
    return DiscoveryResult(w=w, masks=None, h_value=h_val,
                           converged=converged)


def discover_masks(transitions, cfg, w0=None):
    """NOTEARS over the stacked [s_t | a_t | s_{t+1} | r_t] matrix.

    Temporal ordering is enforced by construction: columns into s_t and
    a_t are hard-zeroed, and the reward node is a sink.  The learned
    adjacency is sliced into the four mask blocks and thresholded at tau.
    Returns the :class:`DiscoveryResult` with ``masks`` set.
    """
    if not transitions:
        raise ValueError("discover_masks needs non-empty transitions")
    t = transitions
    n, d = t.s.shape[1], t.a.shape[1]
    data = np.column_stack([t.s, t.a, t.s_next, t.r])
    dim = 2 * n + d + 1
    forbidden = np.zeros((dim, dim), dtype=bool)
    forbidden[:, :n + d] = True          # nothing points into s_t or a_t
    forbidden[-1, :] = True              # reward is terminal
    # next-state coordinates are contemporaneous: their couplings are
    # explained by shared parents, not by within-slice edges
    forbidden[n + d:2 * n + d, n + d:2 * n + d] = True
    # the reward mechanism reads (s_{t+1}, a_t); a direct s_t -> r edge
    # has no mask slot and only siphons signal from the real parents
    forbidden[:n, -1] = True
    result = notears_fit(data, cfg, forbidden=forbidden, w0=w0)
    w = result.w
    thresholded = (np.abs(w) >= cfg.tau).astype(float)
    masks = CausalMasks(
        thresholded[:n, n + d:2 * n + d],
        thresholded[n:n + d, n + d:2 * n + d],
        thresholded[n + d:2 * n + d, -1],
        thresholded[n:n + d, -1],
    )
    result.masks = masks
    return result


def corrupt_masks(masks, flip_prob, rng):
    """Independently flip each mask entry x -> 1-x with probability
    flip_prob (the noise-injected ablation arm)."""
    if not 0 <= flip_prob <= 1:
        raise ValueError("flip_prob must lie in [0,1]")
    rng = np.random.default_rng(rng)
    out = masks.copy()
    for arr in (out.c_ss, out.c_as, out.u_sr, out.u_ar):
        flips = rng.random(arr.shape) < flip_prob
        arr[flips] = 1.0 - arr[flips]
    return out
