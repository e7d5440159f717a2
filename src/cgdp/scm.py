"""Ground-truth structural causal models and synthetic dataset generation.

Linear operators are stored edge-oriented: entry [i, j] is the weight of
input coordinate i on output coordinate j, so the next state is
``s @ F_s + a @ F_a`` and the reward ``s_next @ B_s + a @ B_a``.  This
matches the mask convention where C[i, j] gates input i into output j.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CausalMasks",
    "GroundTruthScm",
    "Transitions",
    "random_scm",
    "scm_step",
    "generate_dataset",
    "save_dataset",
    "load_dataset",
]


@dataclass
class CausalMasks:
    """The four [0,1]-valued gates over structural dependencies."""

    c_ss: np.ndarray  # (n, n) state -> next state
    c_as: np.ndarray  # (d, n) action -> next state
    u_sr: np.ndarray  # (n,)  next state -> reward
    u_ar: np.ndarray  # (d,)  action -> reward

    def __post_init__(self):
        for name in ("c_ss", "c_as", "u_sr", "u_ar"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError(f"mask {name} has entries outside [0,1]")
            setattr(self, name, arr)

    def copy(self):
        return CausalMasks(self.c_ss.copy(), self.c_as.copy(),
                           self.u_sr.copy(), self.u_ar.copy())


@dataclass(eq=False)
class Transitions:
    """Rows of (s, a, r, s_next, done) stored as columns."""

    s: np.ndarray       # (N, n)
    a: np.ndarray       # (N, d)
    r: np.ndarray       # (N,)
    s_next: np.ndarray  # (N, n)
    done: np.ndarray    # (N,) 1.0 on an episode's last row, else 0.0

    @classmethod
    def zeros(cls, count, n, d):
        return cls(np.zeros((count, n)), np.zeros((count, d)),
                   np.zeros(count), np.zeros((count, n)), np.zeros(count))

    def __len__(self):
        return self.r.shape[0]

    def take(self, idx):
        """The rows at ``idx``, as new columns."""
        return Transitions(self.s[idx], self.a[idx], self.r[idx],
                           self.s_next[idx], self.done[idx])


@dataclass
class GroundTruthScm:
    """Linear-Gaussian SCM over (s_t, a_t, s_{t+1}, r_t)."""

    f_s: np.ndarray       # (n, n)
    f_a: np.ndarray       # (d, n)
    b_s: np.ndarray       # (n,)
    b_a: np.ndarray       # (d,)
    sigma_s: np.ndarray   # (n, n) transition noise covariance (PSD)
    sigma_r: float        # reward noise variance (>= 0)
    _chol_s: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.f_s = np.asarray(self.f_s, dtype=float)
        self.f_a = np.asarray(self.f_a, dtype=float)
        self.b_s = np.asarray(self.b_s, dtype=float)
        self.b_a = np.asarray(self.b_a, dtype=float)
        self.sigma_s = np.asarray(self.sigma_s, dtype=float)
        n = self.f_s.shape[0]
        if self.f_s.shape != (n, n) or self.f_a.shape[1] != n:
            raise ValueError("inconsistent operator shapes")
        if not np.allclose(self.sigma_s, self.sigma_s.T):
            raise ValueError("sigma_s must be symmetric")
        if self.sigma_r < 0:
            raise ValueError("sigma_r must be >= 0")
        # zero covariance is allowed for noiseless systems
        if np.any(np.linalg.eigvalsh(self.sigma_s) < -1e-12):
            raise ValueError("sigma_s must be positive semi-definite")
        if np.all(self.sigma_s == 0):
            self._chol_s = np.zeros_like(self.sigma_s)
        else:
            self._chol_s = np.linalg.cholesky(
                self.sigma_s + 1e-15 * np.eye(n))

    @property
    def n(self):
        return self.f_s.shape[0]

    @property
    def d(self):
        return self.f_a.shape[0]


def random_scm(n, d, n_causal_actions=2, rng=None, noise_scale=1.0,
               reward_noise=0.5):
    """Sparse random SCM where only a subset of action coordinates is causal.

    The transition operator is scaled to spectral radius < 1 so rollouts
    stay bounded.  Nonzero coefficients are kept well away from the
    discovery threshold, and the next-state coordinates the actions drive
    are disjoint from the ones the reward reads, so the ground-truth
    pattern is identifiable from exploratory data.
    """
    rng = np.random.default_rng(rng)
    signs = rng.choice([-1.0, 1.0], size=(n, n))
    f_s = rng.uniform(0.7, 1.0, size=(n, n)) * signs
    # sparsify state-to-state coupling
    f_s *= rng.random((n, n)) < 0.2
    np.fill_diagonal(f_s, rng.uniform(0.5, 0.65, size=n))
    radius = np.max(np.abs(np.linalg.eigvals(f_s)))
    if radius > 0.85:
        f_s *= 0.85 / radius
    # scaling can push weak couplings near the discovery threshold; drop
    # them so the ground-truth pattern stays identifiable
    f_s[np.abs(f_s) < 0.45] = 0.0
    radius = np.max(np.abs(np.linalg.eigvals(f_s)))
    if radius > 0.9:
        f_s *= 0.9 / radius
    f_a = np.zeros((d, n))
    b_a = np.zeros(d)
    causal = rng.choice(d, size=min(n_causal_actions, d), replace=False)
    perm = rng.permutation(n)
    k_targets = max(1, n // 3)
    used = set()
    for idx, j in enumerate(causal):
        targets = perm[idx * k_targets:(idx + 1) * k_targets]
        if targets.size == 0:
            targets = perm[-1:]
        f_a[j, targets] = rng.uniform(0.8, 1.2, size=targets.size) * \
            rng.choice([-1, 1], size=targets.size)
        b_a[j] = rng.uniform(0.8, 1.2)
        used.update(int(t) for t in targets)
    rest = [i for i in range(n) if i not in used]
    b_s = np.zeros(n)
    for i in rest:
        if rng.random() < 0.7:
            b_s[i] = rng.uniform(0.7, 1.0)
    if not np.any(b_s):
        b_s[rest[0] if rest else 0] = 0.8
    sigma_s = noise_scale ** 2 * np.eye(n)
    return GroundTruthScm(f_s, f_a, b_s, b_a, sigma_s, reward_noise ** 2)


def scm_step(scm, s, a, rng):
    """One transition draw for a state ``s`` (n,) or rows (B, n) and
    actions of the same layout: (s_next, r), r a float or a (B,) array.

    Single source of truth for the generative recursion: the LinSCM
    environment, the dataset generator and verify's rollouts call this.
    """
    noise_s = rng.standard_normal(np.shape(s)) @ scm._chol_s.T
    s_next = s @ scm.f_s + a @ scm.f_a + noise_s
    noise_r = np.sqrt(scm.sigma_r) * rng.standard_normal(np.shape(s)[:-1])
    r = s_next @ scm.b_s + a @ scm.b_a + noise_r
    return s_next, (float(r) if np.ndim(r) == 0 else r)


def generate_dataset(scm, episodes, horizon, behavior_noise, rng):
    """Roll out a random linear-Gaussian behavior policy through the SCM.

    The behavior policy is a_t = clip(s_t K + behavior_noise * z, [-1, 1])
    for a fixed random gain K drawn once per call, matching the action
    clamp of the interactive environment.
    """
    if episodes < 0 or horizon < 1:
        raise ValueError("episodes must be >= 0 and horizon >= 1")
    if not 0 <= behavior_noise < np.inf:
        raise ValueError("behavior_noise must be finite and >= 0")
    rng = np.random.default_rng(rng)
    gain = rng.normal(0.0, 0.3, size=(scm.n, scm.d))
    out = Transitions.zeros(episodes * horizon, scm.n, scm.d)
    out.done[horizon - 1::horizon] = 1.0
    for i in range(len(out)):
        if i % horizon == 0:
            s = rng.standard_normal(scm.n)
        a = s @ gain + behavior_noise * rng.standard_normal(scm.d)
        a = np.clip(a, -1.0, 1.0)
        s_next, r = scm_step(scm, s, a, rng)
        out.s[i], out.a[i], out.r[i], out.s_next[i] = s, a, r, s_next
        s = s_next
    return out


def save_dataset(transitions, path):
    """Write the text dataset format: header `n d count`, one line per
    transition with repr-exact decimals (bit-exact round-trip)."""
    t = transitions
    rows = np.column_stack([t.s, t.a, t.r, t.s_next, t.done])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{t.s.shape[1]} {t.a.shape[1]} {len(t)}\n")
        for row in rows.tolist():
            fh.write(" ".join(map(repr, row)) + "\n")


def _dataset_header(path, line):
    try:
        n, d, count = map(int, line.split())
    except ValueError:   # not three integers
        n = d = count = -1
    if n < 1 or d < 1 or count < 0:
        raise ValueError(f"{path}:1: expected a header 'n d count' with "
                         f"n, d >= 1 and count >= 0, got {line.strip()!r}")
    return n, d, count


def _bad_dataset_row(path, count, width):
    """The ValueError for the first missing, short or unparsable row."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    for i in range(count):
        where = f"{path}:{i + 2}"
        if i >= len(lines):
            return ValueError(f"{where}: file ends after {i} of {count} "
                              f"transitions")
        fields = lines[i].split()
        if len(fields) != width:
            return ValueError(f"{where}: expected {width} values, got "
                              f"{len(fields)}")
        for value in fields:
            try:
                float(value)
            except ValueError:
                return ValueError(f"{where}: not a number: {value!r}")
    return ValueError(f"{path}: unreadable transition rows")


def load_dataset(path):
    """Read the format :func:`save_dataset` writes, as
    :class:`Transitions`.

    A bad header, a missing, short or unparsable row, rows beyond the
    header's count, non-finite values and a ``done`` flag other than 0
    or 1 raise ValueError naming ``file:line``.  Values parse
    bit-exactly, as ``float`` does.
    """
    with open(path, encoding="utf-8") as fh:
        n, d, count = _dataset_header(path, fh.readline())
        width = 2 * n + d + 2
        vals = np.empty((0, width))
        if count:
            try:
                with warnings.catch_warnings():
                    # an empty body warns; it is reported below
                    warnings.simplefilter("ignore", UserWarning)
                    vals = np.loadtxt(fh, ndmin=2, max_rows=count,
                                      comments=None)
            except ValueError:
                vals = None
        if vals is None or vals.shape != (count, width):
            raise _bad_dataset_row(path, count, width)
        if fh.read().strip():
            raise ValueError(f"{path}:{count + 2}: more rows than the "
                             f"header's count {count}")
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{bad[0] + 2}: non-finite value")
    bad = np.flatnonzero((vals[:, -1] != 0.0) & (vals[:, -1] != 1.0))
    if bad.size:
        raise ValueError(f"{path}:{bad[0] + 2}: done flag must be 0 or 1, "
                         f"got {float(vals[bad[0], -1])!r}")
    return Transitions(vals[:, :n].copy(), vals[:, n:n + d].copy(),
                       vals[:, n + d].copy(),
                       vals[:, n + d + 1:2 * n + d + 1].copy(),
                       (vals[:, -1] != 0.0).astype(float))
