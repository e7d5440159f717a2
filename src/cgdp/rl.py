"""Two-stage training driver: replay buffer, double-Q critics with target
networks, the combined denoising + Q policy loss with gradients unrolled
through the guided DDIM chain, the offline / online stages, and the
ablation's per-seed runs.
"""

import copy
import os
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .diffusion import (NoiseNet, ddim_sample, ddim_vjp, forward_corrupt,
                        make_schedule, train_noise_net)
from .discovery import NotearsConfig, corrupt_masks, discover_masks
from .dynamics import fit_dynamics, min_fit_rows
from .envs import Environment
from .guidance import GuidanceConfig, GuidanceHook, KlAccumulator
from .numerics import AdamState, Mlp
from .pool import fork_pool
from .scm import Transitions

__all__ = [
    "ReplayBuffer",
    "CriticPair",
    "TrainerConfig",
    "critic_update",
    "policy_update",
    "offline_stage",
    "online_stage",
    "with_masks",
    "ablation_seed",
    "ablation_runs",
    "OfflineArtifacts",
]


class ReplayBuffer:
    """Append-only store of transition columns with uniform sampling;
    the i-th add goes to row i, and the store holds ``capacity`` adds."""

    def __init__(self, capacity, n, d):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._rows = Transitions.zeros(capacity, n, d)
        self._adds = 0

    def __len__(self):
        return self._adds

    def add(self, s, a, r, s_next, done):
        i, rows = self._adds, self._rows
        rows.s[i], rows.a[i], rows.r[i] = s, a, r
        rows.s_next[i], rows.done[i] = s_next, done
        self._adds += 1

    def sample(self, batch_size, rng):
        return self._rows.take(rng.integers(len(self), size=batch_size))

    def window(self, size):
        """The most recent ``size`` transitions (all if fewer), oldest
        first."""
        return self._rows.take(np.arange(max(0, self._adds - size),
                                         self._adds))


class CriticPair:
    """Double Q-networks with polyak-averaged target copies, each Q-net
    with its own Adam state.  ``TrainerConfig`` checks ``rho_target``
    and ``gamma_disc``."""

    def __init__(self, n_state, d_action, hidden, rng=None, rho_target=0.005,
                 gamma_disc=0.99, lr=3e-4):
        widths = [n_state + d_action, *hidden, 1]
        self.q1 = Mlp(widths, rng=rng)
        self.q2 = Mlp(widths, rng=rng)
        self.q1_target = self.q1.copy()
        self.q2_target = self.q2.copy()
        self.rho_target = rho_target
        self.gamma_disc = gamma_disc
        self.opt1 = AdamState(self.q1.flat, lr=lr)
        self.opt2 = AdamState(self.q2.flat, lr=lr)

    def soft_update(self):
        rho = self.rho_target
        for online, target in ((self.q1, self.q1_target),
                               (self.q2, self.q2_target)):
            target.flat *= 1.0 - rho
            target.flat += rho * online.flat


@dataclass
class TrainerConfig:
    lr: float = 3e-4
    eta: float = 3.0                 # Q-term weight in the policy loss
    batch_size: int = 64
    offline_steps: int = 2000        # noise-net training steps, offline stage
    online_episodes: int = 200
    mask_refresh: int = 1000         # env steps between refreshes, 0: none
    refresh_window: int = 2000
    refresh_min_action_std: float = 0.4  # skip refresh below this exploration
    k_steps: int = 10                # diffusion steps (schedule K)
    beta_start: float = 1e-4
    beta_end: float = 2e-2
    hidden: tuple = (64, 64)
    gamma_disc: float = 0.99
    rho_target: float = 0.005
    notears: NotearsConfig = field(default_factory=NotearsConfig)
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)

    def __post_init__(self):
        for key in ("lr", "eta", "refresh_min_action_std", "beta_start",
                    "beta_end"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"train.{key} must be finite, got "
                                 f"{getattr(self, key)!r}")
        for key in ("lr", "eta", "offline_steps", "online_episodes",
                    "mask_refresh"):
            if getattr(self, key) < 0:
                raise ValueError(f"train.{key} must be >= 0")
        for key in ("batch_size", "refresh_window", "k_steps"):
            if getattr(self, key) < 1:
                raise ValueError(f"train.{key} must be >= 1")
        if not 0 < self.beta_start <= self.beta_end < 1:
            raise ValueError("train.beta_start and train.beta_end must "
                             "satisfy 0 < beta_start <= beta_end < 1")
        if not 0 <= self.gamma_disc < 1:
            raise ValueError(f"train.gamma_disc must lie in [0,1), got "
                             f"{self.gamma_disc!r}")
        if not 0 < self.rho_target <= 1:
            raise ValueError(f"train.rho_target must lie in (0,1], got "
                             f"{self.rho_target!r}")


def critic_update(critics, batch, policy_sampler, rng):
    """One Adam step on the summed double-Q regression loss toward the TD
    target y = r + gamma (1-done) min(Q1'(s', a'), Q2'(s', a')).

    ``policy_sampler(s_next_batch, rng)`` supplies fresh next actions from
    the current (guided) policy.  Targets are soft-updated afterwards.
    """
    if not batch:
        raise ValueError("empty batch")
    a_next = policy_sampler(batch.s_next, rng)
    x_next = np.concatenate([batch.s_next, a_next], axis=1)
    q1n = critics.q1_target.forward(x_next)[:, 0]
    q2n = critics.q2_target.forward(x_next)[:, 0]
    y = batch.r + critics.gamma_disc * (1.0 - batch.done) * \
        np.minimum(q1n, q2n)

    x = np.concatenate([batch.s, batch.a], axis=1)
    batch_n = len(batch)
    pred1, cache1 = critics.q1.forward_cache(x)
    pred2, cache2 = critics.q2.forward_cache(x)
    err1 = pred1[:, 0] - y
    err2 = pred2[:, 0] - y
    loss = float((err1 ** 2 + err2 ** 2).mean())
    g1, _ = critics.q1.backward(cache1, (2.0 / batch_n) * err1[:, None])
    g2, _ = critics.q2.backward(cache2, (2.0 / batch_n) * err2[:, None])
    critics.opt1.step(critics.q1.flat, g1)
    critics.opt2.step(critics.q2.flat, g2)
    critics.soft_update()
    return loss


def policy_update(net, critics, dyn, batch, cfg, schedule, opt, rng,
                  hook_factory=None):
    """One gradient step on the combined policy loss.

    (a) denoising regression toward the guided noise target computed from
    the replayed transition (observed next state and reward), plus
    (b) -eta * Q1(s, G(s; z)) with the actor gradient propagated through
    every step of the guided DDIM chain.
    Returns (denoise_loss, mean Q objective).
    """
    if not batch:
        raise ValueError("empty batch")
    s, a0 = batch.s, batch.a
    batch_n = len(batch)
    guid = cfg.guidance

    k = int(rng.integers(1, schedule.k_steps + 1))
    ak, eps = forward_corrupt(schedule, a0, k, rng)
    replay_hook = GuidanceHook(dyn, guid, schedule, s, s_next=batch.s_next,
                               r_value=batch.r)
    target = eps + replay_hook(ak, k)
    pred, cache = net.forward_cache(ak, s, k)
    err = pred - target
    denoise_loss = float((err ** 2).sum(axis=1).mean())
    grad, _ = net.backward(cache, (2.0 / batch_n) * err)

    q_obj = 0.0
    if cfg.eta != 0.0:
        actor_hook = hook_factory(s) if hook_factory is not None else \
            GuidanceHook(dyn, guid, schedule, s)
        tape = []
        a_gen = ddim_sample(net, schedule, s, rng, hook=actor_hook, tape=tape)
        x = np.concatenate([s, a_gen], axis=1)
        qv, qcache = critics.q1.forward_cache(x)
        q_obj = float(qv[:, 0].mean())
        _, gx = critics.q1.backward(qcache, np.full((batch_n, 1),
                                                    1.0 / batch_n))
        cot_a0 = -cfg.eta * gx[:, dyn.n:]
        grad += ddim_vjp(net, schedule, tape, cot_a0, hook=actor_hook)

    opt.step(net.mlp.flat, grad)
    return denoise_loss, q_obj


@dataclass
class OfflineArtifacts:
    net: NoiseNet
    dyn: object
    schedule: object
    discovery_w: np.ndarray


def offline_stage(dataset, cfg, rng, masks=None, w0=None):
    """Stage one: causal masks, causal dynamical model, base noise net.

    Pre-computed ``masks`` (with an optional warm-start adjacency ``w0``
    for later refreshes) skip the discovery pass; the ablation arms use
    this to share one discovery run across variants.
    """
    if not dataset:
        raise ValueError("offline stage needs a non-empty dataset")
    n, d = dataset.s.shape[1], dataset.a.shape[1]
    if masks is None:
        result = discover_masks(dataset, cfg.notears)
        masks = result.masks
        w0 = result.w
    dyn = fit_dynamics(dataset, masks)
    schedule = make_schedule(cfg.k_steps, cfg.beta_start, cfg.beta_end)
    net = NoiseNet(n, d, cfg.k_steps, hidden=cfg.hidden, rng=rng)
    opt = AdamState(net.mlp.flat, lr=cfg.lr)
    train_noise_net(net, dataset, schedule, opt, cfg.offline_steps, rng,
                    batch_size=cfg.batch_size)
    return OfflineArtifacts(net=net, dyn=dyn, schedule=schedule,
                            discovery_w=w0)


def with_masks(base, dataset, masks):
    """``base``'s offline artifacts for other ``masks``: a copy of its
    noise net, and dynamics refit on the masks (base's own for None).

    ``offline_stage`` trains the noise net without reading masks or
    guidance, and ``fit_dynamics`` draws no random numbers.  So with a
    copy of the generator ``base``'s ``offline_stage`` call left for the
    online stage, a run is exactly the one after its own
    ``offline_stage(dataset, cfg, rng, masks=masks, w0=base.discovery_w)``.
    """
    dyn = base.dyn if masks is None else fit_dynamics(dataset, masks)
    return replace(base, net=base.net.copy(), dyn=dyn)


def ablation_seed(index, dataset, masks, w0, arms, spec, scm, seed=0):
    """The online records of each of ``arms`` for ablation seed ``index``.

    An arm is ``(flip_prob, cfg)``: it guides with ``masks`` with each
    entry flipped with probability ``flip_prob`` (drawn from generator
    ``10**6 + index``; 0 keeps ``masks`` themselves) and trains with
    ``cfg``.  The seed's base policy is trained once, from generator
    ``seed + index`` with the first arm's config, and each arm runs
    from a copy of it and of the generator it left (``with_masks``).
    """
    rng = np.random.default_rng(seed + index)
    base = offline_stage(dataset, arms[0][1], rng, masks=masks, w0=w0)
    out = []
    for flip_prob, cfg in arms:
        arm_masks = None if flip_prob == 0 else corrupt_masks(
            masks, flip_prob, np.random.default_rng(10 ** 6 + index))
        records, _ = online_stage(Environment(spec, scm=scm),
                                  with_masks(base, dataset, arm_masks), cfg,
                                  copy.deepcopy(rng))
        out.append(records)
    return out


def ablation_runs(seeds, dataset, masks, w0, arms, spec, scm, seed=0):
    """``ablation_seed`` for each index in ``range(seeds)``, in order.

    The seeds run in forked worker processes, one per seed up to the
    CPUs this process may run on, or in this process when that is one.
    Only the inputs and the records cross between processes, so the
    records are those of a run in this process.
    """
    work = partial(ablation_seed, dataset=dataset, masks=masks, w0=w0,
                   arms=arms, spec=spec, scm=scm, seed=seed)
    workers = min(seeds, len(os.sched_getaffinity(0)))
    if workers <= 1:
        return list(map(work, range(seeds)))
    with fork_pool(workers) as pool:
        return list(pool.map(work, range(seeds)))


def online_stage(env, artifacts, cfg, rng):
    """Stage two: interact, guide, and update until the episode budget.

    Per environment step: sample an action through the guided DDIM chain,
    store the transition, run one critic and one policy update; every
    ``mask_refresh`` steps re-estimate masks and refit the dynamics on the
    recent buffer window (warm-started).  A refresh replaces the warm
    start and the dynamics (with their masks) together, or neither; the
    refit's r* is the best reward in its window.  Emits one metrics
    record per episode; its ``refreshes`` lists the outcome of each
    refresh due in the episode: "applied", "skipped (uninformative
    actions)", "skipped (window too small)" or "failed (<reason>)".  An
    episode whose return, mean losses or KL integral are not finite
    raises ValueError naming it.
    """
    net, dyn, schedule = artifacts.net, artifacts.dyn, artifacts.schedule
    w_warm = artifacts.discovery_w
    guid = cfg.guidance
    critics = CriticPair(dyn.n, dyn.d, hidden=cfg.hidden, rng=rng,
                         rho_target=cfg.rho_target,
                         gamma_disc=cfg.gamma_disc, lr=cfg.lr)
    opt = AdamState(net.mlp.flat, lr=cfg.lr)
    # lin-scm episodes run the full horizon: the rows the run writes
    buffer = ReplayBuffer(max(1, cfg.online_episodes * env.spec.horizon),
                          dyn.n, dyn.d)
    r_star = guid.r_star   # raised to the best reward seen
    records = []
    step_count = 0

    def actor_hook_factory(states, kl_acc=None):
        return GuidanceHook(dyn, guid, schedule, states, r_value=r_star,
                            kl_acc=kl_acc)

    def policy_sampler(states, sampler_rng, kl_acc=None):
        hook = actor_hook_factory(states, kl_acc)
        a = ddim_sample(net, schedule, states, sampler_rng, hook=hook)
        return np.clip(a, -1.0, 1.0)

    for episode in range(cfg.online_episodes):
        state = env.reset(rng)
        ep_return = 0.0
        kl_acc = KlAccumulator()
        denoise_loss = q_loss = 0.0
        n_updates = 0
        refreshes = []
        while not state.done:
            a = policy_sampler(state.obs[None], rng, kl_acc)[0]
            s_prev = state.obs
            state, r, done = env.step(a, rng)
            buffer.add(s_prev, a, r, state.obs, done)
            r_star = max(r_star, r)
            step_count += 1

            if len(buffer) >= cfg.batch_size:
                batch = buffer.sample(cfg.batch_size, rng)
                q_loss += critic_update(critics, batch, policy_sampler, rng)
                dl, _ = policy_update(net, critics, dyn, batch, cfg,
                                      schedule, opt, rng,
                                      hook_factory=actor_hook_factory)
                denoise_loss += dl
                n_updates += 1

            if cfg.mask_refresh > 0 and step_count % cfg.mask_refresh == 0:
                window = buffer.window(cfg.refresh_window)
                # a near-constant action coordinate (a converged policy
                # pinned to the box corners) makes its causal edges
                # unidentifiable from the window; keep the current model
                if not window.a.std(axis=0).min() >= \
                        cfg.refresh_min_action_std:
                    refreshes.append("skipped (uninformative actions)")
                elif len(window) < min_fit_rows(dyn.n, dyn.d):
                    refreshes.append("skipped (window too small)")
                else:
                    try:
                        result = discover_masks(window, cfg.notears, w0=w_warm)
                        new_dyn = fit_dynamics(window, result.masks)
                    except ValueError as exc:
                        # the current model stays
                        refreshes.append(f"failed ({exc})")
                    else:
                        w_warm, dyn = result.w, new_dyn
                        refreshes.append("applied")
            ep_return += r
        record = {
            "episode": episode,
            "return": ep_return,
            "denoise_loss": denoise_loss / max(n_updates, 1),
            "q_loss": q_loss / max(n_updates, 1),
            "kl_integral": kl_acc.total,
            "mask_refresh_flag": int("applied" in refreshes),
            "refreshes": refreshes,
        }
        bad = [f"{key} {record[key]}" for key in
               ("return", "denoise_loss", "q_loss", "kl_integral")
               if not np.isfinite(record[key])]
        if bad:
            raise ValueError(f"online episode {episode}: not finite: "
                             f"{', '.join(bad)}")
        records.append(record)
    return records, OfflineArtifacts(net=net, dyn=dyn, schedule=schedule,
                                     discovery_w=w_warm)
