"""Reference computations and output parsers, made apart from cgdp.

Nothing here imports cgdp: the workload checks compare the program's
output files against these, so a fault in the program cannot hide in a
shared helper.  Each function works on plain NumPy arrays or text.
"""

import numpy as np


def gaussian_condition(mu, sigma, m, sigma_y, y):
    """Posterior of a ~ N(mu, sigma) given y = m a + N(0, sigma_y).

    Information form: precision sigma^-1 + m' sigma_y^-1 m and mean
    cov (sigma^-1 mu + m' sigma_y^-1 y).  The program uses the gain
    (innovation) form, so agreement checks two different formulas.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    m = np.atleast_2d(np.asarray(m, dtype=float))
    sigma_y = np.atleast_2d(np.asarray(sigma_y, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    prec_prior = np.linalg.inv(sigma)
    prec_obs = np.linalg.inv(sigma_y)
    cov = np.linalg.inv(prec_prior + m.T @ prec_obs @ m)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (prec_prior @ mu + m.T @ prec_obs @ y)
    return mean, cov


def true_mask_pattern(f_s, f_a, b_s, b_a):
    """{0,1} mask blocks (c_ss, c_as, u_sr, u_ar) read off the nonzero
    pattern of the SCM operators [input, output]."""
    return tuple((np.asarray(op) != 0).astype(int)
                 for op in (f_s, f_a, b_s, b_a))


def optimal_reward(f_a, b_s, b_a):
    """r* = sum_i |(F_a B_s + B_a)_i|: the reward is linear in the action
    with that coefficient, so its maximum over the box [-1, 1]^d sits at
    a corner."""
    coef = np.asarray(f_a, dtype=float) @ np.asarray(b_s, dtype=float) \
        + np.asarray(b_a, dtype=float)
    return float(np.abs(coef).sum())


def hamming(a, b):
    return int(np.sum(np.asarray(a) != np.asarray(b)))


# ---------------------------------------------------------------- parsers


def parse_dataset_rewards(text):
    """Reward column of a dataset file: header `n d count`, then rows
    s (n) | a (d) | r | s_next (n) | done."""
    lines = text.splitlines()
    n, d, count = (int(v) for v in lines[0].split())
    rows = [line.split() for line in lines[1:1 + count]]
    if len(rows) != count:
        raise ValueError(f"dataset has {len(rows)} rows, header says {count}")
    return np.array([float(row[n + d]) for row in rows])


def parse_discovery_masks(text, n, d):
    """The four thresholded mask blocks written after the adjacency."""
    lines = text.splitlines()
    blocks = {}
    for name, rows in (("c_ss", n), ("c_as", d), ("u_sr", 1), ("u_ar", 1)):
        i = lines.index(name)
        blocks[name] = np.array([[float(v) for v in line.split()]
                                 for line in lines[i + 1:i + 1 + rows]])
    return (blocks["c_ss"], blocks["c_as"], blocks["u_sr"][0],
            blocks["u_ar"][0])


def parse_table(text, sep=None):
    """Header line plus rows, as a list of dicts of strings."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = lines[0].split(sep)
    return [dict(zip(header, line.split(sep))) for line in lines[1:]]


def parse_keyvalues(text):
    """`key value` lines (eval.txt) as a dict of floats."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            out[parts[0]] = float(parts[1])
    return out
