"""Independent references the tests compare the package against: an
exhaustive DAG search that validates NOTEARS, the one-row log-densities of
the masked dynamics with their exact action gradients, and the true masks
of a ground-truth SCM.  No ``cgdp`` command runs any of them.
"""

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from cgdp.dynamics import do_intervention_joint_grad
from cgdp.numerics import acyclicity
from cgdp.scm import CausalMasks


@dataclass
class Dag:
    """Weighted adjacency with [i, j] = weight of edge i -> j."""

    adjacency: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.adjacency, dtype=float)
        if np.any(np.diag(w) != 0):
            raise ValueError("Dag adjacency must have a zero diagonal")
        h = acyclicity(w)
        if abs(h) > 1e-8:
            raise ValueError(f"adjacency is cyclic: h(W) = {h:.3e}")
        self.adjacency = w


def _all_dags(dim):
    """All DAGs on dim nodes as parent-set tuples (dim <= 4).

    Each unordered pair independently carries no edge or one directed
    edge; cyclic combinations are filtered out.
    """
    pairs = list(combinations(range(dim), 2))
    for choice in product((0, 1, 2), repeat=len(pairs)):
        adj = np.zeros((dim, dim), dtype=bool)
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                adj[i, j] = True
            elif c == 2:
                adj[j, i] = True
        h = acyclicity(adj.astype(float))
        if h < 1e-8:
            yield adj


def exhaustive_dag_oracle(data):
    """BIC-scored enumeration of every DAG on <= 4 variables.

    Independent of the NOTEARS optimizer; used only to validate it.
    """
    x = np.asarray(data, dtype=float)
    n_samples, dim = x.shape
    if dim > 4:
        raise ValueError("exhaustive oracle supports at most 4 variables")
    x = x - x.mean(axis=0)
    best_score, best_w = np.inf, None
    for adj in _all_dags(dim):
        total_rss = 0.0
        n_edges = 0
        w = np.zeros((dim, dim))
        for j in range(dim):
            parents = np.flatnonzero(adj[:, j])
            if parents.size:
                xp = x[:, parents]
                coef, _, _, _ = np.linalg.lstsq(xp, x[:, j], rcond=None)
                resid = x[:, j] - xp @ coef
                w[parents, j] = coef
                n_edges += parents.size
            else:
                resid = x[:, j]
            total_rss += float(resid @ resid)
        # equal-variance Gaussian BIC: orientation is identifiable, unlike
        # the per-node-variance profile score which ties reversed edges
        rss = max(total_rss, 1e-12)
        score = n_samples * dim * np.log(rss / (n_samples * dim)) + \
            np.log(n_samples) * n_edges
        if score < best_score - 1e-9:
            best_score, best_w = score, w
    return Dag(best_w)


def transition_logpdf_grad(dyn, s, a, s_next):
    """log N(s_next; f(s, a), Sigma) and its exact gradient w.r.t. a, at
    one state s, action a and next state s_next."""
    resid = s_next - dyn.transition_mean_batch(s[None], a[None])[0]
    _, logdet = np.linalg.slogdet(dyn.sigma_s)
    logp = -0.5 * (float(resid @ dyn._prec_s @ resid) + float(logdet)
                   + dyn.n * np.log(2 * np.pi))
    grad = do_intervention_joint_grad(dyn, s[None], a[None], s_next[None],
                                      0.0, 1.0, 0.0)
    return logp, grad[0]


def reward_logpdf_grad(dyn, s_next, a, r):
    """log N(r; g(s_next, a), sigma_r) and its exact gradient w.r.t. a, at
    one next state s_next and action a.

    Pass r = r_star for optimal-reward conditioning.
    """
    resid = r - dyn.reward_mean_batch(s_next[None], a[None])[0]
    logp = -0.5 * (resid * resid / dyn.sigma_r
                   + np.log(2 * np.pi * dyn.sigma_r))
    grad = do_intervention_joint_grad(dyn, None, a[None], s_next[None], r,
                                      0.0, 1.0)
    return float(logp), grad[0]


def exact_masks(scm):
    """Ground-truth {0,1} masks read off the operators' sparsity pattern."""
    return CausalMasks(
        (scm.f_s != 0).astype(float),
        (scm.f_a != 0).astype(float),
        (scm.b_s != 0).astype(float),
        (scm.b_a != 0).astype(float),
    )
