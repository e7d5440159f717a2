"""Acceptance suite: ten end-to-end properties of the package, each
reported as a single pass/fail line.  Budgets are sized for a single
desktop core; every run is deterministic in its stated seeds.
"""

import numpy as np
import pytest

from cgdp.cli import _metric_rows, _write_rows, main
from cgdp.config import RunConfig, dump_config, parse_config
from cgdp.diffusion import (NoiseNet, ddim_sample, ddpm_sample, load_noise_net,
                            make_schedule, save_noise_net)
from cgdp.discovery import NotearsConfig, discover_masks, notears_fit
from cgdp.dynamics import (do_intervention_joint_grad, fit_dynamics,
                           load_dynamics, save_dynamics)
from cgdp.envs import Environment, EnvSpec
from cgdp.guidance import GuidanceConfig, GuidanceHook
from cgdp.numerics import AdamState, Mlp
from cgdp.rl import (TrainerConfig, ablation_runs, offline_stage,
                     online_stage, policy_update)
from cgdp.scm import generate_dataset, load_dataset, random_scm, save_dataset
from cgdp.verify import (PosteriorSpec, check_lemma1, check_prop1,
                         check_prop2, check_theorem1,
                         default_linear_instance, stiff_linear_instance)

from conftest import central_fd, rel_err
from references import (exact_masks, exhaustive_dag_oracle,
                        reward_logpdf_grad, transition_logpdf_grad)


def report(index, ok, detail):
    line = f"[{index}/10] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- helpers


def random_linear_sem(dim, rng, edge_prob=0.4):
    """Random-order linear SEM with unit noise; returns (weights, order)."""
    order = rng.permutation(dim)
    w = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.random() < edge_prob:
                w[order[i], order[j]] = rng.uniform(0.7, 1.5) * \
                    rng.choice([-1.0, 1.0])
    return w, order


def sample_sem(w, order, count, rng):
    dim = w.shape[0]
    x = np.zeros((count, dim))
    for pos in range(dim):
        i = order[pos]
        x[:, i] = x @ w[:, i] + rng.standard_normal(count)
    return x


def structural_hamming_distance(est, truth):
    a = est != 0
    b = truth != 0
    diff = int(np.sum(a != b))
    reversals = int(np.sum(a & ~b & b.T & ~a.T))
    return diff - reversals


def bench_spec():
    return EnvSpec(n=6, d=4, horizon=20,
                   n_causal_actions=2, seed=0)


def bench_cfg(lam):
    return TrainerConfig(offline_steps=1000, k_steps=10, hidden=(64, 64),
                         batch_size=64, online_episodes=200,
                         mask_refresh=1000, guidance=GuidanceConfig(lam=lam))


@pytest.fixture(scope="module")
def bench_setup():
    spec = bench_spec()
    env = Environment(spec)
    rng = np.random.default_rng(0)
    data = generate_dataset(env.scm, 400, 5, 1.5, rng)
    result = discover_masks(data, NotearsConfig())
    return spec, env, data, result


@pytest.fixture(scope="module")
def arm_runs(bench_setup):
    """Per-episode returns of each (lambda, seed, mask flip) training run
    of tests 8 and 9.  Each seed's three runs share one base policy, as
    ``cgdp ablate`` runs them (``rl.ablation_runs``), and the seeds run
    in worker processes."""
    spec, env, data, result = bench_setup
    keys = ((1.0, 0.0), (1.0, 0.25), (0.0, 0.0))
    arms = [(flip, bench_cfg(lam)) for lam, flip in keys]
    per_seed = ablation_runs(5, data, result.masks, result.w, arms, spec,
                             env.scm)
    runs = {(lam, seed, flip): [rec["return"] for rec in records]
            for seed, seed_runs in enumerate(per_seed)
            for (lam, flip), records in zip(keys, seed_runs)}

    def run(lam, seed, flip_prob=0.0):
        return runs[(lam, seed, flip_prob)]

    return run


# --------------------------------------------------------------- criteria


def test_01_exact_guidance_matches_gaussian_conditioning():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 2))
    spec = PosteriorSpec(mu_bar=[0.2, -0.3],
                         sigma_bar=[[1.0, 0.3], [0.3, 0.7]], m=m,
                         sigma_y=0.5 * np.eye(4), y=rng.standard_normal(4))
    rep = check_lemma1(spec, make_schedule(1000), 2 * 10 ** 4, rng)
    ok = rep["passed"] and bool(np.all(rep["mean_err"] < 3.0 * rep["se"])) \
        and rep["cov_rel_err"] < 0.10
    report(1, ok, f"terminal posterior: max mean err "
                  f"{rep['mean_err'].max():.4f} vs 3se "
                  f"{(3 * rep['se']).min():.4f}, cov rel err "
                  f"{rep['cov_rel_err']:.4f}")


def test_02_gradient_oracle_suite(small_instance):
    _, dyn, _ = small_instance
    rng = np.random.default_rng(1)
    worst_lin = 0.0
    for _ in range(100):
        s = rng.standard_normal(dyn.n)
        a = rng.uniform(-1, 1, dyn.d)
        s_next = rng.standard_normal(dyn.n)
        r = rng.standard_normal()
        _, g = transition_logpdf_grad(dyn, s, a, s_next)
        fd = central_fd(lambda v: transition_logpdf_grad(dyn, s, v,
                                                         s_next)[0], a)
        worst_lin = max(worst_lin, rel_err(g, fd))
        _, g = reward_logpdf_grad(dyn, s_next, a, r)
        fd = central_fd(lambda v: reward_logpdf_grad(dyn, s_next, v, r)[0], a)
        worst_lin = max(worst_lin, rel_err(g, fd))
        g = do_intervention_joint_grad(dyn, s[None], a[None], s_next[None],
                                       r, 0.7, 1.3)[0]
        fd = central_fd(
            lambda v: 0.7 * transition_logpdf_grad(dyn, s, v, s_next)[0]
            + 1.3 * reward_logpdf_grad(dyn, s_next, v, r)[0], a)
        worst_lin = max(worst_lin, rel_err(g, fd))

    worst_net = 0.0
    net = Mlp([3, 16, 16, 2], rng=np.random.default_rng(2))
    for _ in range(100):
        x = rng.standard_normal((1, 3))
        _, cache = net.forward_cache(x)
        _, gx = net.backward(cache, np.ones((1, 2)))
        fd = central_fd(lambda v: net.forward(v[None]).sum(), x[0])
        worst_net = max(worst_net, rel_err(gx[0], fd))

    ok = worst_lin < 1e-5 and worst_net < 1e-4
    report(2, ok, f"gradients vs finite differences: worst linear rel err "
                  f"{worst_lin:.2e}, worst network rel err {worst_net:.2e}")


def test_03_structure_recovery():
    hits5 = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        w, order = random_linear_sem(5, rng)
        data = sample_sem(w, order, 1000, rng)
        cfg = NotearsConfig()
        res = notears_fit(data, cfg)
        est = (np.abs(res.w) >= cfg.tau).astype(float)
        hits5 += int(structural_hamming_distance(est, w) <= 1)

    agree3 = 0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        w, order = random_linear_sem(3, rng, edge_prob=0.5)
        data = sample_sem(w, order, 1000, rng)
        cfg = NotearsConfig()
        res = notears_fit(data, cfg)
        est = np.abs(res.w) >= cfg.tau
        oracle = exhaustive_dag_oracle(data).adjacency != 0
        agree3 += int(np.array_equal(est, oracle))

    ok = hits5 >= 18 and agree3 >= 19
    report(3, ok, f"5-node Hamming distance <= 1 in {hits5}/20 seeds, "
                  f"3-node oracle agreement in {agree3}/20 seeds")


def test_04_step_size_stability():
    _, dyn = default_linear_instance(seed=0)
    rep = check_prop1(dyn, make_schedule(10), range(20), steps=10 ** 4,
                      stiff_dyn=stiff_linear_instance())
    safe_div = sum(row["diverged"] for row in rep["rows"]
                   if row["factor"] <= 1.0)
    ok = rep["passed"] and safe_div == 0 and rep["stiff"]["diverged"] >= 1
    report(4, ok, f"0 divergences at or below the bound "
                  f"(dt_max {rep['dt_max']:.3g}); stiff instance at 50x "
                  f"diverged in {rep['stiff']['diverged']}/20 seeds")


def test_05_interventional_gradient_estimator():
    _, dyn = default_linear_instance(n=3, d=2, seed=0)
    cosines = []
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        s = rng.standard_normal(dyn.n)
        a = rng.uniform(-1, 1, dyn.d)
        rep = check_prop2(dyn, s, a, 10 ** 4, rng)
        cosines.append(rep["cosine"])
    ok = all(c >= 0.95 for c in cosines)
    report(5, ok, f"estimator cosine with the analytic reward gradient "
                  f">= 0.95 in {sum(c >= 0.95 for c in cosines)}/10 seeds "
                  f"(min {min(cosines):.4f})")


def test_06_path_kl_performance_bound():
    scm, dyn = default_linear_instance(seed=0)
    schedule = make_schedule(30)
    fractions = {}
    for lam in (0.1, 1.0):
        rep = check_theorem1(scm, dyn, schedule, range(20),
                             GuidanceConfig(lam=lam))
        fractions[lam] = rep["fraction_holds"]
    ok = all(frac >= 0.95 for frac in fractions.values())
    report(6, ok, "performance gap within the KL bound in "
                  + ", ".join(f"{frac:.0%} of seeds at scale {lam}"
                              for lam, frac in fractions.items()))


def test_07_zero_guidance_equivalence(tmp_path, small_instance):
    _, dyn, _ = small_instance
    schedule = make_schedule(10)
    net = NoiseNet(dyn.n, dyn.d, 10, hidden=(16,),
                   rng=np.random.default_rng(0))
    cfg0 = GuidanceConfig(lam=0.0)
    s = np.random.default_rng(1).standard_normal((4, dyn.n))
    samplers_ok = True
    for sampler in (ddpm_sample, ddim_sample):
        hook = GuidanceHook(dyn, cfg0, schedule, s)
        base = sampler(net, schedule, s, np.random.default_rng(2))
        guided = sampler(net, schedule, s, np.random.default_rng(2),
                         hook=hook)
        samplers_ok = samplers_ok and np.array_equal(base, guided)

    from cgdp.rl import CriticPair
    from cgdp.scm import Transitions
    rng = np.random.default_rng(3)
    rows = [(rng.standard_normal(dyn.n), rng.uniform(-1, 1, dyn.d),
             float(rng.standard_normal()), rng.standard_normal(dyn.n), 0.0)
            for _ in range(8)]
    batch = Transitions(*(np.array(col) for col in zip(*rows)))
    tcfg = TrainerConfig(eta=3.0, guidance=cfg0, k_steps=10)
    nets = []
    for factory in (None, lambda states: None):
        n2 = net.copy()
        opt = AdamState(n2.mlp.flat, lr=1e-3)
        critics = CriticPair(dyn.n, dyn.d, hidden=(8,),
                             rng=np.random.default_rng(4))
        policy_update(n2, critics, dyn, batch, tcfg, schedule, opt,
                      np.random.default_rng(5), hook_factory=factory)
        nets.append(n2)
    trainer_ok = np.array_equal(nets[0].mlp.flat, nets[1].mlp.flat)

    spec = EnvSpec(n=3, d=2, horizon=5, seed=0)
    env = Environment(spec)
    data = generate_dataset(env.scm, 50, 5, 1.5, np.random.default_rng(6))
    run_cfg = TrainerConfig(offline_steps=50, k_steps=10, hidden=(16,),
                            online_episodes=3, batch_size=8, mask_refresh=0,
                            guidance=cfg0)
    streams = []
    for rep in range(2):
        art = offline_stage(data, run_cfg, np.random.default_rng(7),
                            masks=exact_masks(env.scm))
        records, _ = online_stage(Environment(spec, scm=env.scm), art,
                                  run_cfg, np.random.default_rng(8))
        path = tmp_path / f"metrics_{rep}.txt"
        _write_rows(str(path), _metric_rows(records))
        streams.append((records, path.read_bytes()))
    metrics_ok = streams[0][1] == streams[1][1] and \
        all(rec["kl_integral"] == 0.0 for rec in streams[0][0])

    ok = samplers_ok and trainer_ok and metrics_ok
    report(7, ok, f"disabled guidance is bit-identical to none: samplers "
                  f"{samplers_ok}, trainer updates {trainer_ok}, metric "
                  f"streams {metrics_ok}")


def test_08_guided_training_reaches_reward_faster(arm_runs):
    seeds = range(5)
    guided = [arm_runs(1.0, seed) for seed in seeds]
    unguided = [arm_runs(0.0, seed) for seed in seeds]

    block_ok = True
    for start in range(0, 200, 50):
        med_g = np.median([np.median(g[start:start + 50]) for g in guided])
        med_u = np.median([np.median(u[start:start + 50]) for u in unguided])
        block_ok = block_ok and med_g >= med_u

    fast = 0
    for g, u in zip(guided, unguided):
        final = float(np.median(u[-20:]))
        threshold = 0.9 * final if final >= 0 else 1.1 * final
        reached = [e for e in range(9, len(g))
                   if np.median(g[e - 9:e + 1]) >= threshold]
        fast += int(bool(reached) and reached[0] <= 100)

    ok = block_ok and fast >= 3
    report(8, ok, f"guided run dominates every 50-episode checkpoint "
                  f"({block_ok}) and hits 90% of the unguided final return "
                  f"within half the budget in {fast}/5 seeds")


def test_09_mask_quality_ablation(arm_runs):
    seeds = range(5)

    def final_median(lam, flip):
        finals = [float(np.median(arm_runs(lam, seed, flip_prob=flip)[-20:]))
                  for seed in seeds]
        return float(np.median(finals))

    learned = final_median(1.0, 0.0)
    corrupted = final_median(1.0, 0.25)
    unguided = final_median(0.0, 0.0)
    ok = learned >= corrupted >= unguided and corrupted >= 0.7 * learned
    report(9, ok, f"final-return ordering learned masks {learned:.2f} >= "
                  f"corrupted {corrupted:.2f} >= unguided {unguided:.2f}, "
                  f"corruption penalty "
                  f"{100 * (1 - corrupted / learned):.0f}% (limit 30%)")


def test_10_determinism_and_round_trips(tmp_path):
    rng = np.random.default_rng(0)
    scm = random_scm(3, 2, 2, rng=rng)
    data = generate_dataset(scm, 20, 5, 1.5, rng)
    p1, p2 = tmp_path / "d1.txt", tmp_path / "d2.txt"
    save_dataset(data, str(p1))
    loaded = load_dataset(str(p1))
    save_dataset(loaded, str(p2))
    dataset_ok = p1.read_bytes() == p2.read_bytes()

    net = NoiseNet(3, 2, 10, hidden=(8, 8), rng=rng)
    n1, n2 = tmp_path / "n1.txt", tmp_path / "n2.txt"
    save_noise_net(net, str(n1))
    save_noise_net(load_noise_net(str(n1)), str(n2))
    dyn = fit_dynamics(data, exact_masks(scm))
    y1, y2 = tmp_path / "y1.txt", tmp_path / "y2.txt"
    save_dynamics(dyn, str(y1))
    save_dynamics(load_dynamics(str(y1)), str(y2))
    ckpt_ok = n1.read_bytes() == n2.read_bytes() and \
        y1.read_bytes() == y2.read_bytes()

    cfg = RunConfig({"seed": 3, "guidance.lambda": 0.5})
    config_ok = parse_config(dump_config(cfg)).values == cfg.values

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("env.n = 3\nenv.d = 2\nenv.horizon = 5\n"
                        "data.episodes = 40\ntrain.offline_steps = 50\n"
                        "train.online_episodes = 2\ntrain.mask_refresh = 0\n"
                        "train.k_steps = 10\ntrain.hidden = 16\n"
                        "train.batch_size = 8\n")
    out = tmp_path / "out"
    metrics = []
    for _ in range(2):
        assert main(["gen-data", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        metrics.append((out / "metrics.txt").read_bytes())
    train_ok = metrics[0] == metrics[1]

    ok = dataset_ok and ckpt_ok and config_ok and train_ok
    report(10, ok, f"byte-exact round trips: dataset {dataset_ok}, "
                   f"checkpoints {ckpt_ok}, config {config_ok}, "
                   f"repeated training metrics {train_ok}")
