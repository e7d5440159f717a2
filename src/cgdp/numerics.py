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
    into it, laid out weights then bias per layer as :meth:`params` lists
    them.  Write parameters in place (``net.weights[0][...] = w``) so the
    flat buffer sees them.  ``forward``/``backward`` accept a single
    vector or a batch of rows; ``backward`` returns exact gradients of
    ``sum(output * cotangent)`` w.r.t. every parameter, as views into one
    fresh flat array of the same layout, and w.r.t. the input.
    """

    def __init__(self, widths, rng=None):
        if len(widths) < 2:
            raise ValueError("need at least an input and an output width")
        self.__setstate__({
            "widths": list(widths),
            "flat": np.zeros(sum(fan_out * (fan_in + 1) for fan_in, fan_out
                                 in zip(widths[:-1], widths[1:])))})
        if rng is None:
            return
        for w in self.weights:
            fan_out, fan_in = w.shape
            w[...] = rng.standard_normal((fan_out, fan_in)) * \
                np.sqrt(1.0 / fan_in)

    def __getstate__(self):
        return {"widths": self.widths, "flat": self.flat}

    def __setstate__(self, state):
        # views of an unpickled array share its non-array base, which
        # Adam's whole-buffer update cannot use: views need an owner
        self.widths = list(state["widths"])
        flat = state["flat"]
        self.flat = flat if flat.base is None else flat.copy()
        views = self.views(self.flat)
        self.weights, self.biases = views[0::2], views[1::2]

    def views(self, flat):
        """Arrays laid out like :meth:`params`, as views into ``flat``."""
        out = []
        start = 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            stop = start + fan_out * fan_in
            out.append(flat[start:stop].reshape(fan_out, fan_in))
            out.append(flat[stop:stop + fan_out])
            start = stop + fan_out
        return out

    @property
    def n_layers(self):
        return len(self.weights)

    def params(self):
        """Parameter arrays (weights then bias per layer), views into
        ``self.flat``."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self):
        clone = Mlp(self.widths)
        clone.flat[...] = self.flat
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

        ``param_grads`` matches the layout of :meth:`params`, sums over
        the batch and views one fresh flat array (each view's ``.base``);
        ``input_grad`` has the shape of the original input.
        """
        acts, squeeze = cache
        g = np.asarray(cotangent, dtype=float)
        # a single input with a batch-of-one cotangent keeps the batch axis
        squeeze = squeeze and g.ndim == 1
        if squeeze:
            g = g[None, :]
        param_grads = self.views(np.empty(self.flat.size))
        for i in range(self.n_layers - 1, -1, -1):
            h_in = acts[i]
            if i < self.n_layers - 1:
                # activation output of this hidden layer
                g = g * (1.0 - acts[i + 1] ** 2)
            np.matmul(g.T, h_in, out=param_grads[2 * i])
            np.add.reduce(g, axis=0, out=param_grads[2 * i + 1])
            g = g @ self.weights[i]
        input_grad = g[0] if squeeze else g
        return param_grads, input_grad


def _flat_buffers(arrays):
    """The 1-D arrays that consecutive runs of ``arrays`` tile whole, one
    per run, as the views of :meth:`Mlp.params` and of ``Mlp.backward``'s
    gradients do; None if some array is not such a view."""
    out = []
    i, count = 0, len(arrays)
    while i < count:
        base = arrays[i].base
        if base is None or base.ndim != 1:
            return None
        size = 0
        while i < count and arrays[i].base is base:
            size += arrays[i].size
            i += 1
        if size != base.size:
            return None
        out.append(base)
    return out


class AdamState:
    """Adam optimizer state for a fixed list of parameter arrays.

    The moments are kept flat, in the order of the parameter elements.
    Parameters and gradients that are views tiling flat buffers (an
    ``Mlp``'s) are updated one buffer at a time; other arrays one array
    at a time.  The arithmetic per element is the same either way.
    """

    def __init__(self, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr < 0:
            raise ValueError("learning rate must be >= 0")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        size = sum(np.size(p) for p in params)
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, params, grads):
        """Apply one Adam update in place.  lr == 0 leaves params untouched."""
        if self.lr == 0.0:
            self.step_count += 1
            return
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        c1 = 1 - b1 ** t
        c2 = 1 - b2 ** t
        p_bufs, g_bufs = _flat_buffers(params), _flat_buffers(grads)
        if p_bufs is None or g_bufs is None or \
                [p.size for p in p_bufs] != [g.size for g in g_bufs]:
            p_bufs, g_bufs = params, grads
        start = 0
        for p, g in zip(p_bufs, g_bufs):
            stop = start + p.size
            m = self.m[start:stop].reshape(p.shape)
            v = self.v[start:stop].reshape(p.shape)
            start = stop
            # m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g g
            m *= b1
            m += (1 - b1) * g
            v *= b2
            g2 = (1 - b2) * g
            g2 *= g
            v += g2
            # p -= lr m_hat / (sqrt(v_hat) + eps)
            m_hat = m / c1
            m_hat *= self.lr
            denom = v / c2
            np.sqrt(denom, out=denom)
            denom += self.eps
            m_hat /= denom
            p -= m_hat
