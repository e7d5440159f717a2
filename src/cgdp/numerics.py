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

    Parameters live in one flat float64 array ``self.flat``;
    ``self.weights`` ((out, in) matrices) and ``self.biases`` are views
    into it, laid out weights then bias per layer as :meth:`views` lists
    them.  Write parameters in place (``net.weights[0][...] = w``) so the
    flat buffer sees them.  Inputs are rows, shape (B, in); ``backward``
    returns the exact gradient of ``sum(output * cotangent)`` w.r.t. the
    parameters, as one fresh flat array in the layout of ``self.flat``,
    and w.r.t. the input rows.
    """

    def __init__(self, widths, rng=None):
        if len(widths) < 2:
            raise ValueError("need at least an input and an output width")
        self.__setstate__({"widths": list(widths),
                           "flat": np.zeros(Mlp.flat_size(widths))})
        if rng is None:
            return
        for w in self.weights:
            fan_out, fan_in = w.shape
            w[...] = rng.standard_normal((fan_out, fan_in)) * \
                np.sqrt(1.0 / fan_in)

    @staticmethod
    def flat_size(widths):
        """The number of parameters of an Mlp with these widths."""
        return sum(fan_out * (fan_in + 1)
                   for fan_in, fan_out in zip(widths[:-1], widths[1:]))

    def __getstate__(self):
        return {"widths": self.widths, "flat": self.flat}

    def __setstate__(self, state):
        # a flat that views foreign memory (an unpickled out-of-band
        # buffer) is copied, so that the parameter views alias self.flat
        self.widths = list(state["widths"])
        flat = state["flat"]
        self.flat = flat if flat.base is None else flat.copy()
        views = self.views(self.flat)
        self.weights, self.biases = views[0::2], views[1::2]

    def views(self, flat):
        """The parameter arrays (weights then bias per layer), as views
        into ``flat``."""
        out = []
        start = 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            stop = start + fan_out * fan_in
            out.append(flat[start:stop].reshape(fan_out, fan_in))
            out.append(flat[stop:stop + fan_out])
            start = stop + fan_out
        return out

    def copy(self):
        clone = Mlp(self.widths)
        clone.flat[...] = self.flat
        return clone

    def forward(self, x):
        y, _ = self.forward_cache(x)
        return y

    def forward_cache(self, x):
        """Forward pass over input rows (B, in), keeping per-layer
        activations for backward."""
        h = np.asarray(x, dtype=float)
        if h.ndim != 2 or h.shape[1] != self.widths[0]:
            raise ValueError(f"expected input rows of shape (B, "
                             f"{self.widths[0]}), got {h.shape}")
        acts = [h]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.T + b
            h = np.tanh(z) if i < last else z
            acts.append(h)
        return h, acts

    def backward(self, cache, cotangent):
        """Backprop cotangent rows (B, out); returns (grad, input_grad).

        ``grad`` sums over the rows and is one fresh flat array laid out
        like ``self.flat``; ``input_grad`` has the shape of the input.
        """
        acts = cache
        g = np.asarray(cotangent, dtype=float)
        grad = np.empty(self.flat.size)
        grad_views = self.views(grad)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            if i < last:
                # activation output of this hidden layer
                g = g * (1.0 - acts[i + 1] ** 2)
            np.matmul(g.T, acts[i], out=grad_views[2 * i])
            np.add.reduce(g, axis=0, out=grad_views[2 * i + 1])
            g = g @ self.weights[i]
        return grad, g


class AdamState:
    """Adam optimizer state for one flat parameter vector, with the
    usual beta1 = 0.9, beta2 = 0.999 and eps = 1e-8."""

    def __init__(self, params, lr=3e-4):
        if lr < 0:
            raise ValueError("learning rate must be >= 0")
        if np.ndim(params) != 1:
            raise ValueError("AdamState takes one flat parameter vector")
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros(np.size(params))
        self.v = np.zeros(np.size(params))

    def step(self, params, grad):
        """Apply one Adam update to the flat ``params`` in place.  lr == 0
        leaves params untouched."""
        self.step_count += 1
        if self.lr == 0.0:
            return
        t = self.step_count
        b1, b2 = 0.9, 0.999
        m, v = self.m, self.v
        # m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g g
        m *= b1
        m += (1 - b1) * grad
        v *= b2
        g2 = (1 - b2) * grad
        g2 *= grad
        v += g2
        # p -= lr m_hat / (sqrt(v_hat) + eps)
        m_hat = m / (1 - b1 ** t)
        m_hat *= self.lr
        denom = v / (1 - b2 ** t)
        np.sqrt(denom, out=denom)
        denom += 1e-8
        m_hat /= denom
        params -= m_hat
