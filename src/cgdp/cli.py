"""Command-line surface: dataset generation, causal discovery, the
two-stage trainer, evaluation, the masked/corrupted/unguided ablation,
and the theory checks.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  All commands
are deterministic given (config, seed): re-running overwrites outputs
with byte-identical files.
"""

import argparse
import os
import sys
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np

from .config import dump_config, load_config, RunConfig
from .diffusion import load_noise_net, make_schedule, save_noise_net, \
    ddim_sample
from .discovery import discover_masks
from .dynamics import load_dynamics, save_dynamics
from .envs import Environment, make_env_scm, optimal_reward
from .guidance import GuidanceHook
from .pool import fork_pool
from .rl import ablation_runs, offline_stage, online_stage
from .scm import generate_dataset, load_dataset, save_dataset
from . import verify as verify_mod

__all__ = ["main", "cmd_gen_data", "cmd_discover", "cmd_train",
           "cmd_eval", "cmd_ablate", "cmd_verify"]

# the checks of ``cgdp verify``, in the order of its summary
_VERIFY_CHECKS = ("lemma1", "prop1", "prop2", "theorem1")

_METRIC_FIELDS = ("episode", "return", "denoise_loss", "q_loss",
                  "kl_integral", "mask_refresh_flag")


def _fmt(x):
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def _resolve(out_dir, path):
    return path if os.path.isabs(path) else os.path.join(out_dir, path)


def _load_data(cfg, out_dir):
    path = _resolve(out_dir, cfg["data.path"])
    if not os.path.exists(path):
        raise FileNotFoundError(f"dataset not found: {path}")
    return load_dataset(path)


def _write_metrics(records, path):
    lines = [" ".join(_METRIC_FIELDS)]
    for rec in records:
        lines.append(" ".join(_fmt(rec[f]) for f in _METRIC_FIELDS))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_gen_data(cfg, out_dir):
    noise = cfg["data.behavior_noise"]
    if not 0 <= noise < np.inf:
        raise ValueError(f"data.behavior_noise must be finite and >= 0, "
                         f"got {noise!r}")
    scm = make_env_scm(cfg.env_spec())
    rng = np.random.default_rng(cfg["seed"])
    data = generate_dataset(scm, cfg["data.episodes"], cfg["data.horizon"],
                            noise, rng)
    path = _resolve(out_dir, cfg["data.path"])
    save_dataset(data, path)
    print(f"wrote {len(data)} transitions to {path}")
    return 0


def cmd_discover(cfg, out_dir):
    data = _load_data(cfg, out_dir)
    result = discover_masks(data, cfg.notears_config())
    path = os.path.join(out_dir, "discovery.txt")
    lines = []
    for row in result.w:
        lines.append(" ".join(repr(float(v)) for v in row))
    lines.append(f"threshold {repr(float(cfg['notears.tau']))}")
    m = result.masks
    for name, arr in (("c_ss", m.c_ss), ("c_as", m.c_as),
                      ("u_sr", m.u_sr[None, :]), ("u_ar", m.u_ar[None, :])):
        lines.append(name)
        for row in np.atleast_2d(arr):
            lines.append(" ".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote discovery result to {path}")
    return 0


def _guidance_config(cfg, scm, guidance_on=True):
    """The guidance settings train, eval and ablate all run with.

    The target r* is ``guidance.r_star`` raised to the environment's
    optimal one-step reward, read off the ground-truth SCM (``scm``).
    ``guidance_on = False`` sets lambda to 0.
    """
    r_star = max(cfg["guidance.r_star"], optimal_reward(scm))
    guid = replace(cfg.guidance_config(), r_star=r_star)
    return guid if guidance_on else replace(guid, lam=0.0)


def _train_schedule(cfg):
    """The diffusion schedule of the ``train.*`` keys, which
    ``TrainerConfig`` checks first."""
    tcfg = cfg.trainer_config()
    return make_schedule(tcfg.k_steps, tcfg.beta_start, tcfg.beta_end)


def cmd_train(cfg, out_dir, guidance_on):
    data = _load_data(cfg, out_dir)
    env = Environment(cfg.env_spec())
    tcfg = replace(cfg.trainer_config(),
                   guidance=_guidance_config(cfg, env.scm, guidance_on))
    rng = np.random.default_rng(cfg["seed"])
    artifacts = offline_stage(data, tcfg, rng)
    records, artifacts = online_stage(env, artifacts, tcfg, rng)
    _write_metrics(records, os.path.join(out_dir, "metrics.txt"))
    save_noise_net(artifacts.net, os.path.join(out_dir, "noise_net.txt"))
    save_dynamics(artifacts.dyn, os.path.join(out_dir, "dynamics.txt"))
    with open(os.path.join(out_dir, "effective.cfg"), "w") as fh:
        fh.write(dump_config(cfg))
    refreshes = Counter(o for rec in records for o in rec["refreshes"])
    summary = ", ".join(f"{n} {o}" for o, n in refreshes.items()) or "none"
    print(f"trained {len(records)} episodes; refreshes: {summary}; "
          f"outputs under {out_dir}")
    return 0


def cmd_eval(cfg, out_dir, guidance_on):
    net = load_noise_net(os.path.join(out_dir, "noise_net.txt"))
    dyn_path = os.path.join(out_dir, "dynamics.txt")
    if not os.path.exists(dyn_path):
        raise FileNotFoundError(
            f"dynamics checkpoint not found: {dyn_path} (cgdp train "
            f"writes it)")
    dyn = load_dynamics(dyn_path)
    env = Environment(cfg.env_spec())
    schedule = _train_schedule(cfg)
    guid = _guidance_config(cfg, env.scm, guidance_on)
    rng = np.random.default_rng(cfg["seed"])
    returns = []
    for _ in range(cfg["eval.episodes"]):
        state = env.reset(rng)
        total = 0.0
        while not state.done:
            s = state.obs[None]
            hook = GuidanceHook(dyn, guid, schedule, s)
            a = np.clip(ddim_sample(net, schedule, s, rng, hook=hook)[0],
                        -1.0, 1.0)
            state, r, _ = env.step(a, rng)
            total += r
        returns.append(total)
    mean = float(np.mean(returns))
    std = float(np.std(returns))
    with open(os.path.join(out_dir, "eval.txt"), "w") as fh:
        fh.write(f"episodes {len(returns)}\n"
                 f"mean_return {_fmt(mean)}\nstd_return {_fmt(std)}\n")
    print(f"eval mean return {_fmt(mean)} over {len(returns)} episodes")
    return 0


def _final_return(records, tail_frac=0.1):
    tail = max(1, int(len(records) * tail_frac))
    return float(np.median([r["return"] for r in records[-tail:]]))


def cmd_ablate(cfg, out_dir):
    flip_prob = cfg["ablate.flip_prob"]
    if not 0 <= flip_prob <= 1:
        raise ValueError(f"ablate.flip_prob must lie in [0,1], got "
                         f"{flip_prob!r}")
    data = _load_data(cfg, out_dir)
    spec = cfg.env_spec()
    scm = make_env_scm(spec)
    result = discover_masks(data, cfg.notears_config())
    guid = _guidance_config(cfg, scm)
    tcfg = replace(cfg.trainer_config(), guidance=guid)
    unguided_cfg = replace(tcfg, guidance=replace(guid, lam=0.0))

    arms = {"notears": (0.0, tcfg), "corrupted": (flip_prob, tcfg),
            "unguided": (0.0, unguided_cfg)}
    runs = ablation_runs(cfg["ablate.seeds"], data, result.masks, result.w,
                         list(arms.values()), spec, scm, seed=cfg["seed"])
    path = os.path.join(out_dir, "ablation.csv")
    with open(path, "w") as fh:
        fh.write("arm,mean,std\n")
        for i, arm in enumerate(arms):
            vals = [_final_return(seed_runs[i]) for seed_runs in runs]
            fh.write(f"{arm},{_fmt(np.mean(vals))},{_fmt(np.std(vals))}\n")
    print(f"wrote ablation table to {path}")
    return 0


def _verify_lemma1(cfg, out_dir):
    rng = np.random.default_rng(cfg["seed"])
    d, p = 2, 4  # 2-D action; 3-D next state stacked with the reward
    m = rng.standard_normal((p, d))
    spec = verify_mod.PosteriorSpec(
        mu_bar=np.zeros(d), sigma_bar=np.eye(d), m=m,
        sigma_y=0.5 * np.eye(p), y=rng.standard_normal(p))
    schedule = make_schedule(cfg["verify.k_steps"])
    report = verify_mod.check_lemma1(spec, schedule, cfg["verify.samples"],
                                     rng, lam=1.0)
    with open(os.path.join(out_dir, "lemma1.csv"), "w") as fh:
        fh.write("coord,sample_mean,target_mean,mean_err,se\n")
        for i in range(d):
            fh.write(f"{i},{_fmt(report['sample_mean'][i])},"
                     f"{_fmt(report['target_mean'][i])},"
                     f"{_fmt(report['mean_err'][i])},"
                     f"{_fmt(report['se'][i])}\n")
        fh.write(f"cov_rel_err,{_fmt(report['cov_rel_err'])},,,\n")
    return report["passed"], f"cov_rel_err {_fmt(report['cov_rel_err'])}"


def _verify_prop2(cfg, out_dir):
    _, dyn = verify_mod.default_linear_instance(n=3, d=2,
                                                seed=cfg["seed"])
    rows = []
    for seed in range(min(cfg["verify.seeds"], 10)):
        rng = np.random.default_rng(cfg["seed"] + seed)
        s = rng.standard_normal(dyn.n)
        a = rng.uniform(-1, 1, size=dyn.d)
        report = verify_mod.check_prop2(dyn, s, a, 10 ** 4, rng)
        rows.append((seed, report["cosine"], report["passed"]))
    with open(os.path.join(out_dir, "prop2.csv"), "w") as fh:
        fh.write("seed,cosine,passed\n")
        for seed, cosine, ok in rows:
            fh.write(f"{seed},{_fmt(cosine)},{int(ok)}\n")
    passed = all(ok for _, _, ok in rows)
    worst = min(c for _, c, _ in rows)
    return passed, f"min cosine {_fmt(worst)}"


def _verify_theorem1(cfg, out_dir, schedule):
    ckpt = cfg["verify.dynamics"]
    if ckpt:
        dyn = load_dynamics(ckpt)
        scm = make_env_scm(cfg.env_spec())
    else:
        scm, dyn = verify_mod.default_linear_instance(seed=cfg["seed"])
    report = verify_mod.check_theorem1(
        scm, dyn, schedule, seeds=range(cfg["verify.seeds"]),
        lam=cfg["verify.lambda"], gamma_disc=cfg["train.gamma_disc"])
    with open(os.path.join(out_dir, "theorem1.csv"), "w") as fh:
        fh.write("seed,kl,bound,gap,holds\n")
        for row in report["rows"]:
            fh.write(f"{row['seed']},{_fmt(row['kl'])},"
                     f"{_fmt(row['bound'])},{_fmt(row['gap'])},"
                     f"{int(row['holds'])}\n")
    return report["passed"], \
        f"holds in {_fmt(report['fraction_holds'])} of seeds"


def _verify_prop1(cfg, out_dir, schedule):
    _, dyn = verify_mod.default_linear_instance(seed=cfg["seed"])
    report = verify_mod.check_prop1(
        dyn, schedule, seeds=range(cfg["verify.seeds"]),
        stiff_dyn=verify_mod.stiff_linear_instance())
    with open(os.path.join(out_dir, "prop1.csv"), "w") as fh:
        fh.write("dt,diverged,terminal_norm\n")
        for row in report["rows"]:
            fh.write(f"{_fmt(row['dt'])},{row['diverged']},"
                     f"{_fmt(row['terminal_norm'])}\n")
    return report["passed"], f"dt_max {_fmt(report['dt_max'])}"


def _verify_check(name, cfg, out_dir, schedule):
    """Run the check ``name`` and write its CSV; returns (passed, note).

    A module-level function, so that a process pool can pickle it.
    ``schedule`` is the ``train.*`` schedule prop1 and theorem1 use.
    """
    if name == "lemma1":
        return _verify_lemma1(cfg, out_dir)
    if name == "prop1":
        return _verify_prop1(cfg, out_dir, schedule)
    if name == "prop2":
        return _verify_prop2(cfg, out_dir)
    if name == "theorem1":
        return _verify_theorem1(cfg, out_dir, schedule)
    raise ValueError(f"unknown check {name!r}")


def cmd_verify(cfg, out_dir, which):
    lam = cfg["verify.lambda"]
    if not 0 <= lam < np.inf:
        raise ValueError(f"verify.lambda must be finite and >= 0, got "
                         f"{lam!r}")
    # lemma1's floors, checked here so that no other check writes first
    for key, floor in (("verify.k_steps", verify_mod.LEMMA1_MIN_K_STEPS),
                       ("verify.samples", verify_mod.LEMMA1_MIN_SAMPLES)):
        if cfg[key] < floor:
            raise ValueError(f"{key} must be >= {floor}, got {cfg[key]}")
    schedule = _train_schedule(cfg)   # rejects bad train.* before any output
    names = list(_VERIFY_CHECKS) if which == "all" else [which]
    check = partial(_verify_check, cfg=cfg, out_dir=out_dir,
                    schedule=schedule)
    # the first check, lemma1, the longest, runs in this process, where a
    # tracer of this process sees it; the others run meanwhile in forked
    # workers, on the CPUs this process leaves free
    workers = min(len(names) - 1, len(os.sched_getaffinity(0)) - 1)
    if workers < 1:
        results = [check(name) for name in names]
    else:
        with fork_pool(workers) as pool:
            futures = [pool.submit(check, name) for name in names[1:]]
            results = [check(names[0])] + [f.result() for f in futures]
    summary = [f"{name} {'PASS' if ok else 'FAIL'} ({note})"
               for name, (ok, note) in zip(names, results)]
    with open(os.path.join(out_dir, "verify_summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
    for line in summary:
        print(line)
    return 0 if all(ok for ok, _ in results) else 1


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="config file path")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--guidance", choices=("on", "off"), default="on")
    parser = argparse.ArgumentParser(
        prog="cgdp",
        description="causality-guided diffusion policy laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "discover", "train", "eval", "ablate"):
        sub.add_parser(name, parents=[common])
    verify_p = sub.add_parser("verify", parents=[common])
    verify_p.add_argument("which", nargs="?", default="all",
                          choices=(*_VERIFY_CHECKS, "all"))
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.set("seed", args.seed)
        os.makedirs(args.out, exist_ok=True)
        guidance_on = args.guidance == "on"
        if args.command == "gen-data":
            return cmd_gen_data(cfg, args.out)
        if args.command == "discover":
            return cmd_discover(cfg, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.out, guidance_on)
        if args.command == "eval":
            return cmd_eval(cfg, args.out, guidance_on)
        if args.command == "ablate":
            return cmd_ablate(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.out, args.which)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
