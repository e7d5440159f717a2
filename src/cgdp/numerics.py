"""Dense numerical substrate: matrix exponential, the NOTEARS acyclicity
function, a small feed-forward network with exact manual backprop, and
Adam.

Everything operates on plain numpy float64 arrays and takes an explicit
``numpy.random.Generator`` wherever randomness is involved, so that any
computation is reproducible from a seed.
"""

import numpy as np

__all__ = [
    "mat_expm",
    "acyclicity",
    "Mlp",
    "AdamState",
]


def _check_finite(m, name="matrix"):
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")


def mat_expm(m):
    """Matrix exponential by scaling-and-squaring with a series core.

    The input is scaled by 2^-s until its 1-norm is <= 0.5, e^m is
    approximated by a truncated Taylor series of order 12, and the result
    is squared s times.  Accurate to well below 1e-10 relative error for
    the small dense matrices used here.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("mat_expm requires a square matrix")
    _check_finite(m, "mat_expm input")
    d = m.shape[0]
    norm1 = np.abs(m).sum(axis=0).max() if d else 0.0
    s = 0
    if norm1 > 0.5:
        s = int(np.ceil(np.log2(norm1 / 0.5)))
    a = m / (2.0 ** s)
    result = np.eye(d)
    term = np.eye(d)
    for k in range(1, 13):
        term = term @ a / k
        result = result + term
    for _ in range(s):
        result = result @ result
    return result


def acyclicity(w, with_grad=False):
    """h(W) = tr(e^{W o W}) - d, optionally with its gradient.

    The gradient is (e^{W o W})^T o 2W.  h is exactly 0 for the weights
    of a DAG.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("acyclicity requires a square matrix")
    e = mat_expm(w * w)
    h = float(np.trace(e) - w.shape[0])
    if with_grad:
        return h, e.T * (2.0 * w)
    return h


class Mlp:
    """Fully-connected network, tanh hidden layers, identity output.

    Parameters live in ``self.weights`` (lists of (out, in) matrices) and
    ``self.biases``.  ``forward``/``backward`` accept a single vector or a
    batch of rows; ``backward`` returns exact gradients of
    ``sum(output * cotangent)`` w.r.t. every parameter and the input.
    """

    def __init__(self, widths, rng=None, init_scale=None):
        if len(widths) < 2:
            raise ValueError("need at least an input and an output width")
        self.widths = list(widths)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            if rng is None:
                w = np.zeros((fan_out, fan_in))
            else:
                scale = init_scale if init_scale is not None else np.sqrt(1.0 / fan_in)
                w = rng.standard_normal((fan_out, fan_in)) * scale
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out))

    @property
    def n_layers(self):
        return len(self.weights)

    def params(self):
        """Flat list of parameter arrays (weights then bias per layer)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def set_params(self, arrays):
        it = iter(arrays)
        for i in range(self.n_layers):
            self.weights[i] = next(it).reshape(self.weights[i].shape).copy()
            self.biases[i] = next(it).reshape(self.biases[i].shape).copy()

    def copy(self):
        clone = Mlp(self.widths)
        clone.weights = [w.copy() for w in self.weights]
        clone.biases = [b.copy() for b in self.biases]
        return clone

    def forward(self, x):
        y, _ = self.forward_cache(x)
        return y

    def forward_cache(self, x):
        """Forward pass keeping per-layer activations for backward."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        h = x[None, :] if squeeze else x
        if h.shape[1] != self.widths[0]:
            raise ValueError(
                f"input width {h.shape[1]} != expected {self.widths[0]}")
        acts = [h]
        for i in range(self.n_layers):
            z = h @ self.weights[i].T + self.biases[i]
            h = np.tanh(z) if i < self.n_layers - 1 else z
            acts.append(h)
        y = acts[-1][0] if squeeze else acts[-1]
        return y, (acts, squeeze)

    def backward(self, cache, cotangent):
        """Backprop a cotangent; returns (param_grads, input_grad).

        ``param_grads`` matches the layout of :meth:`params` and sums over
        the batch; ``input_grad`` has the shape of the original input.
        """
        acts, squeeze = cache
        g = np.asarray(cotangent, dtype=float)
        if squeeze:
            g = g[None, :]
        grads_w = [None] * self.n_layers
        grads_b = [None] * self.n_layers
        for i in range(self.n_layers - 1, -1, -1):
            h_in = acts[i]
            if i < self.n_layers - 1:
                # activation output of this hidden layer
                g = g * (1.0 - acts[i + 1] ** 2)
            grads_w[i] = g.T @ h_in
            grads_b[i] = g.sum(axis=0)
            g = g @ self.weights[i]
        param_grads = []
        for gw, gb in zip(grads_w, grads_b):
            param_grads.append(gw)
            param_grads.append(gb)
        input_grad = g[0] if squeeze else g
        return param_grads, input_grad


class AdamState:
    """Adam optimizer state for a fixed list of parameter arrays."""

    def __init__(self, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr < 0:
            raise ValueError("learning rate must be >= 0")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        """Apply one Adam update in place.  lr == 0 leaves params untouched."""
        if self.lr == 0.0:
            self.step_count += 1
            return
        self.step_count += 1
        t = self.step_count
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1 ** t)
            v_hat = self.v[i] / (1 - self.beta2 ** t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
