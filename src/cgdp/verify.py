"""Executable checks of the four theoretical claims behind the guided
policy: terminal-posterior equivalence of exact guidance, the
interventional policy-gradient estimator, the path-KL performance bound,
and the explicit-Euler step-size stability condition.

Every check owns its RNG stream and returns a plain report dict; CSV
emission lives in the cli module.
"""

from dataclasses import dataclass

import numpy as np

from .diffusion import ddim_sample, ddpm_sample, make_schedule
from .dynamics import (CausalDynamics, do_intervention_joint_grad,
                       fit_dynamics)
from .guidance import (GuidanceConfig, GuidanceHook, KlAccumulator,
                       estimate_lipschitz, euler_maruyama_guided,
                       stability_max_step)
from .scm import CausalMasks, generate_dataset, random_scm, scm_step
from .discovery import NotearsConfig, discover_masks

__all__ = [
    "PosteriorSpec",
    "gaussian_posterior",
    "GaussianPriorNet",
    "check_lemma1",
    "check_prop2",
    "check_theorem1",
    "check_prop1",
    "stiff_linear_instance",
    "default_linear_instance",
]

# the fewest diffusion steps and samples check_lemma1 accepts
LEMMA1_MIN_K_STEPS = 500
LEMMA1_MIN_SAMPLES = 10 ** 4


@dataclass
class PosteriorSpec:
    """Linear-Gaussian conditioning problem y = M a + noise.

    Prior a ~ N(mu_bar, sigma_bar); observation noise covariance sigma_y;
    observed vector y (next state stacked with reward).
    """

    mu_bar: np.ndarray
    sigma_bar: np.ndarray
    m: np.ndarray
    sigma_y: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.mu_bar = np.atleast_1d(np.asarray(self.mu_bar, dtype=float))
        self.sigma_bar = np.atleast_2d(np.asarray(self.sigma_bar, dtype=float))
        self.m = np.atleast_2d(np.asarray(self.m, dtype=float))
        self.sigma_y = np.atleast_2d(np.asarray(self.sigma_y, dtype=float))
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))
        d = self.mu_bar.shape[0]
        p = self.y.shape[0]
        if self.sigma_bar.shape != (d, d) or self.m.shape != (p, d) \
                or self.sigma_y.shape != (p, p):
            raise ValueError("inconsistent posterior problem shapes")
        for name, mat in (("sigma_bar", self.sigma_bar),
                          ("sigma_y", self.sigma_y)):
            if not np.allclose(mat, mat.T):
                raise ValueError(f"{name} must be symmetric")
            if np.any(np.linalg.eigvalsh(mat) <= 0):
                raise ValueError(f"{name} must be positive definite")


def gaussian_posterior(spec):
    """Conditioning of N(mu_bar, sigma_bar) on y = M a + N(0, sigma_y).

    Returns (mean, covariance) via the innovation form
    mean = mu + S M' inv(sigma_y + M S M') (y - M mu).
    """
    innov = spec.sigma_y + spec.m @ spec.sigma_bar @ spec.m.T
    if np.linalg.cond(innov) > 1e12:
        raise np.linalg.LinAlgError("singular innovation matrix")
    gain = spec.sigma_bar @ spec.m.T @ np.linalg.inv(innov)
    mean = spec.mu_bar + gain @ (spec.y - spec.m @ spec.mu_bar)
    cov = spec.sigma_bar - gain @ spec.m @ spec.sigma_bar
    return mean, cov


def _affine_rows(a, lin, const):
    """``a @ lin + const`` for action rows ``a`` (or one 1-D action),
    bit for bit, with ``const`` added one column at a time: NumPy adds a
    short vector to many rows a few elements per inner loop, several
    times slower than one strided pass per column."""
    out = np.asarray(a, dtype=float) @ lin
    for j, c in enumerate(const):
        out[..., j] += c
    return out


class GaussianPriorNet:
    """Analytic noise predictor for a Gaussian action prior.

    Under forward corruption the marginal at step k is
    N(sqrt(abar) mu, abar Sigma + (1-abar) I); the exact noise is
    -sqrt(1-abar) times its score, the affine map
    a @ lin_k - off_k with lin_k = sqrt(1-abar) prec_k and
    off_k = sqrt(abar) mu @ lin_k.  The marginal precisions ``prec`` and
    the maps of every k are computed once, when the net is built.  Usable
    anywhere a NoiseNet is.
    """

    def __init__(self, mu, sigma, schedule):
        self.mu = np.atleast_1d(np.asarray(mu, dtype=float))
        self.sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
        self.schedule = schedule
        self.d_action = self.mu.shape[0]
        abar = schedule.abar[:, None, None]
        self.prec = np.linalg.inv(abar * self.sigma
                                  + (1.0 - abar) * np.eye(self.d_action))
        self.lin = np.sqrt(np.maximum(1.0 - abar, 1e-12)) * self.prec
        scaled_mu = np.sqrt(schedule.abar)[:, None] * self.mu
        self.off = (scaled_mu[:, None, :] @ self.lin)[:, 0]

    def chain_inputs(self, s):
        return None   # the prior reads neither the state nor a buffer

    def forward(self, a, s, k, x=None):
        # + (-off) is the IEEE operation - off
        return _affine_rows(a, self.lin[k - 1], -self.off[k - 1])


def _exact_guidance_hook(spec, prior, lam):
    """Epsilon-space hook with the marginalized observation likelihood.

    At step k the clean action given a^k is Gaussian with mean
    m(a^k) = mu + (a^k - sqrt(abar) mu) J' and covariance C, so
    log p(y | a^k) is available exactly; its action gradient is
    X' (y - M m(a^k)) with X = inv(sigma_y + M C M') M J.  The
    correction -lam sqrt(1-abar) times that gradient is affine in a^k:
    a^k @ L_k + c_k with L_k = lam sqrt(1-abar) J' M' X and
    c_k = -lam sqrt(1-abar) (y - M m(0)) X.  ``prior`` is the
    :class:`GaussianPriorNet` of the same prior, whose precision at k
    gives J.  With this form the guided chain terminates at the
    conditioned posterior.
    """
    schedule = prior.schedule

    def hook(a, k):
        abar = schedule.abar_at(k)
        p_k = prior.prec[k - 1]
        jac = np.sqrt(abar) * spec.sigma_bar @ p_k
        cov0 = spec.sigma_bar - abar * spec.sigma_bar @ p_k @ spec.sigma_bar
        innov = spec.sigma_y + spec.m @ cov0 @ spec.m.T
        x = np.linalg.solve(innov, spec.m @ jac)
        scale = lam * np.sqrt(1.0 - abar)
        lin = scale * jac.T @ spec.m.T @ x
        m0 = spec.mu_bar - np.sqrt(abar) * spec.mu_bar @ jac.T
        const = -scale * (spec.y - spec.m @ m0) @ x
        return _affine_rows(a, lin, const)

    return hook


def check_lemma1(spec, schedule, samples, rng, lam=1.0):
    """Guided terminal moments against exact Gaussian conditioning.

    Runs the stochastic reverse sampler with the analytic prior noise and
    exact observation guidance; passes iff every mean coordinate is
    within 3 standard errors of the conditioned mean and the covariance
    relative Frobenius error is below 10%.  lam=0 checks the unguided
    limit against the prior instead.
    """
    if schedule.k_steps < LEMMA1_MIN_K_STEPS:
        raise ValueError(f"need at least {LEMMA1_MIN_K_STEPS} diffusion "
                         f"steps")
    if samples < LEMMA1_MIN_SAMPLES:
        raise ValueError(f"need at least {LEMMA1_MIN_SAMPLES} samples")
    net = GaussianPriorNet(spec.mu_bar, spec.sigma_bar, schedule)
    hook = _exact_guidance_hook(spec, net, lam) if lam != 0.0 else None
    d = spec.mu_bar.shape[0]
    dummy_s = np.zeros((samples, 1))
    out = ddpm_sample(net, schedule, dummy_s, rng, hook=hook)
    sample_mean = out.mean(axis=0)
    sample_cov = np.cov(out, rowvar=False).reshape(d, d)
    if lam != 0.0:
        target_mean, target_cov = gaussian_posterior(spec)
    else:
        target_mean, target_cov = spec.mu_bar, spec.sigma_bar
    se = np.sqrt(np.diag(target_cov) / samples)
    mean_err = np.abs(sample_mean - target_mean)
    cov_rel = np.linalg.norm(sample_cov - target_cov) / \
        np.linalg.norm(target_cov)
    passed = bool(np.all(mean_err < 3.0 * se) and cov_rel < 0.10)
    return {
        "sample_mean": sample_mean,
        "sample_cov": sample_cov,
        "target_mean": target_mean,
        "target_cov": target_cov,
        "mean_err": mean_err,
        "se": se,
        "cov_rel_err": float(cov_rel),
        "passed": passed,
    }


def check_prop2(dyn, s, a, samples, rng):
    """Score-function policy-gradient estimator against the analytic mean
    reward gradient.

    Draws interventional rollouts (s', r) from the fitted model at
    (s, do(a)) and forms (1/N) sum r_i grad_a log p(s'_i, r_i | s, do(a));
    passes iff the cosine with grad_a E[r | s, do(a)] is >= 0.95.
    """
    s, a = s[None], a[None]
    chol = np.linalg.cholesky(dyn.sigma_s)
    s_next = dyn.transition_mean_batch(s, a) + \
        rng.standard_normal((samples, dyn.n)) @ chol.T
    r = dyn.reward_mean_batch(s_next, a) + \
        np.sqrt(dyn.sigma_r) * rng.standard_normal(samples)
    score = do_intervention_joint_grad(dyn, s, a, s_next, r, 1.0, 1.0)
    estimate = (score * r[:, None]).mean(axis=0)
    analytic = dyn.a_a @ dyn.b_s + dyn.b_a
    a_norm = np.linalg.norm(analytic)
    e_norm = np.linalg.norm(estimate)
    if a_norm == 0.0:
        cosine = 1.0 if e_norm < 3.0 / np.sqrt(samples) else 0.0
    else:
        cosine = float(estimate @ analytic / (e_norm * a_norm))
    return {
        "estimate": estimate,
        "analytic": analytic,
        "cosine": cosine,
        "passed": bool(cosine >= 0.95),
    }


def _rollout_returns(scm, policy, s0, horizon, gamma_disc, rng,
                     collect_states=False):
    """Batched discounted returns of ``policy(states, rng)`` on a LinSCM
    from the initial state rows ``s0``."""
    s = s0.copy()
    returns = np.zeros(s.shape[0])
    states = []
    disc = 1.0
    for _ in range(horizon):
        if collect_states:
            states.append(s.copy())
        a = np.clip(policy(s, rng), -1.0, 1.0)
        s, r = scm_step(scm, s, a, rng)
        returns += disc * r
        disc *= gamma_disc
    return returns, states


def _q_grid_advantage(scm, policy, state, grid, m_rollouts, horizon,
                      gamma_disc, rng):
    """sup over the action grid of A(s,a)^2, by first-action Monte Carlo."""
    n_grid, d = grid.shape
    batch = n_grid * m_rollouts
    s = np.broadcast_to(state, (batch, state.shape[0]))
    a0 = np.repeat(grid, m_rollouts, axis=0)
    first = [True]

    def q_policy(states, q_rng):
        if first[0]:
            first[0] = False
            return a0
        return policy(states, q_rng)

    returns, _ = _rollout_returns(scm, q_policy, s, horizon, gamma_disc, rng)
    q_vals = returns.reshape(n_grid, m_rollouts).mean(axis=1)
    v_val = q_vals.mean()  # grid-uniform baseline stands in for V
    return float(np.max((q_vals - v_val) ** 2))


def check_theorem1(scm, dyn, schedule, seeds, lam=1.0, gamma_disc=0.99,
                   horizon=50, n_rollouts=1000, n_adv_states=6,
                   m_rollouts=12, grid_res=0.05, gamma_t=1.0,
                   beta_guid_t=1.0):
    """Performance-difference bound per seed.

    Measures |J(guided) - J(base)| by Monte Carlo over LinSCM episodes and
    compares against (1/(1-gamma)) sqrt(E sup_a A^2) sqrt(KL/2), with the
    path KL accumulated along guided rollouts and sup_a A^2 from a grid
    search over the action box at states visited by the base policy.
    The guided rollouts replay the base rollouts' random numbers, so at
    lam = 0 they are the base rollouts and the gap is exactly 0.
    """
    d = dyn.d
    net = GaussianPriorNet(np.zeros(d), np.eye(d), schedule)
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        guided_rng = np.random.default_rng(seed)
        cfg = GuidanceConfig(lam=lam, gamma_t=gamma_t,
                             beta_guid_t=beta_guid_t, r_star=dyn.r_star)

        def base_policy(states, p_rng):
            return ddim_sample(net, schedule, states, p_rng)

        kl_acc = KlAccumulator()

        def guided_policy(states, p_rng, acc=None):
            hook = GuidanceHook(dyn, cfg, schedule, states, kl_acc=acc)
            return ddim_sample(net, schedule, states, p_rng, hook=hook)

        j_base, states = _rollout_returns(
            scm, base_policy, rng.standard_normal((n_rollouts, scm.n)),
            horizon, gamma_disc, rng, collect_states=True)
        per_step = max(len(states) // n_adv_states, 1)
        probe_states = [states[i * per_step][0]
                        for i in range(min(n_adv_states, len(states)))]
        j_guided, _ = _rollout_returns(
            scm, lambda st, r: guided_policy(st, r, acc=kl_acc),
            guided_rng.standard_normal((n_rollouts, scm.n)), horizon,
            gamma_disc, guided_rng)
        kl = kl_acc.total  # batch-averaged per-trajectory path KL

        axes = [np.arange(-1.0, 1.0 + grid_res / 2, grid_res)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"),
                        axis=-1).reshape(-1, d)
        sup_sq = [
            _q_grid_advantage(scm, base_policy, st, grid, m_rollouts,
                              horizon, gamma_disc, rng)
            for st in probe_states
        ]
        e_sup_sq = float(np.mean(sup_sq))
        bound = (1.0 / (1.0 - gamma_disc)) * np.sqrt(e_sup_sq) \
            * np.sqrt(max(kl, 0.0) / 2.0)
        gap = abs(float(j_guided.mean()) - float(j_base.mean()))
        rows.append({
            "seed": seed,
            "j_base": float(j_base.mean()),
            "j_guided": float(j_guided.mean()),
            "gap": gap,
            "kl": kl,
            "bound": float(bound),
            "holds": bool(gap <= bound),
        })
    frac = np.mean([row["holds"] for row in rows]) if rows else 1.0
    return {"rows": rows, "fraction_holds": float(frac),
            "passed": bool(frac >= 0.95)}


def _euler_seeds(dyn, schedule, cfg, seeds, dt, steps):
    """One lockstep Euler call with a row per seed; each seed's generator
    draws its row's initial state, then the row's noise."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    states = np.array([g.standard_normal(dyn.n) for g in rngs])
    return euler_maruyama_guided(dyn, schedule, cfg, states, dt, steps, rngs)


def check_prop1(dyn, schedule, seeds, steps=10 ** 4, gamma_t=1.0,
                beta_guid_t=1.0, stiff_dyn=None):
    """Step-size sweep around the sufficient stability bound.

    Integrates the guided reverse SDE, whose score is the standard
    normal's (L_s = 1 exactly), at dt in {0.1, 0.5, 1.0} and {10, 50}
    times the bound; asserts no divergence at or below it and reports
    behavior above.  A stiff companion instance at 50x must diverge in at
    least one seed.  Each step size is one lockstep Euler call with a row
    per seed.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    dt_max = stability_max_step(estimate_lipschitz(dyn, schedule), gamma_t,
                                beta_guid_t)
    cfg = GuidanceConfig(lam=1.0, gamma_t=gamma_t, beta_guid_t=beta_guid_t,
                         r_star=dyn.r_star)
    rows = []
    for factor in (0.1, 0.5, 1.0, 10.0, 50.0):
        dt = factor * dt_max
        n_steps = steps if factor <= 1.0 else min(steps, 2000)
        traj, diverged = _euler_seeds(dyn, schedule, cfg, seeds, dt, n_steps)
        worst = 0.0
        for last in traj[-1]:
            worst = max(worst, float(np.linalg.norm(last)))
        rows.append({"factor": factor, "dt": dt,
                     "diverged": int(diverged.sum()),
                     "terminal_norm": worst})
    safe_ok = all(row["diverged"] == 0 for row in rows
                  if row["factor"] <= 1.0)

    stiff_row = None
    if stiff_dyn is not None:
        s_dt = 50.0 * stability_max_step(
            estimate_lipschitz(stiff_dyn, schedule), gamma_t, beta_guid_t)
        s_cfg = GuidanceConfig(lam=1.0, gamma_t=gamma_t,
                               beta_guid_t=beta_guid_t,
                               r_star=stiff_dyn.r_star)
        _, diverged = _euler_seeds(stiff_dyn, schedule, s_cfg, seeds, s_dt,
                                   min(steps, 2000))
        stiff_row = {"factor": 50.0, "dt": s_dt,
                     "diverged": int(diverged.sum())}
    stiff_ok = stiff_row is None or stiff_row["diverged"] >= 1
    return {
        "dt_max": dt_max,
        "rows": rows,
        "stiff": stiff_row,
        "passed": bool(safe_ok and stiff_ok),
    }


def stiff_linear_instance(l_total=100.0, n=2, d=1):
    """Hand-built linear model whose guidance term is stiff.

    The reward coefficient is scaled so the reward-guidance Lipschitz
    constant alone reaches l_total, which makes explicit Euler far above
    the sufficient step bound visibly unstable.
    """
    masks = CausalMasks(np.ones((n, n)), np.ones((d, n)),
                        np.ones(n), np.ones(d))
    b_a = np.zeros(d)
    b_a[0] = np.sqrt(l_total)  # l_omega = |b_a|^2 / sigma_r
    return CausalDynamics(masks=masks, sigma_s=np.eye(n), sigma_r=1.0,
                          a_s=0.1 * np.eye(n), a_a=np.zeros((d, n)),
                          b_s=np.zeros(n), b_a=b_a, r_star=1.0)


def default_linear_instance(n=2, d=1, seed=0, episodes=60, horizon=10):
    """Small fitted linear model plus its generating SCM, for the checks
    that need trained artifacts but not a full pipeline run."""
    rng = np.random.default_rng(seed)
    scm = random_scm(n, d, d, rng=rng)
    data = generate_dataset(scm, episodes, horizon, 0.5, rng)
    masks = discover_masks(data, NotearsConfig()).masks
    dyn = fit_dynamics(data, masks)
    return scm, dyn
