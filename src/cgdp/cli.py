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

import numpy as np

from .config import dump_config, load_config, RunConfig
from .diffusion import load_noise_net, make_schedule, save_noise_net
from .discovery import discover_masks
from .dynamics import load_dynamics, save_dynamics
from .envs import Environment, make_env_scm
from .guidance import GuidanceHook
from .pool import fork_pool
from .rl import ablation_runs, act, offline_stage, online_stage
from .scm import generate_dataset, load_dataset, save_dataset
from . import verify as verify_mod

__all__ = ["main", "cmd_gen_data", "cmd_discover", "cmd_train",
           "cmd_eval", "cmd_ablate", "cmd_verify"]

_METRIC_FIELDS = ("episode", "return", "denoise_loss", "q_loss",
                  "kl_integral", "mask_refresh_flag")


def _fmt(x):
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def _resolve(out_dir, path):
    return path if os.path.isabs(path) else os.path.join(out_dir, path)


def _check_sizes(path, n, d, spec):
    """Fail unless the sizes n and d read from ``path`` are ``spec``'s."""
    if (n, d) != (spec.n, spec.d):
        raise ValueError(f"{path}: n = {n}, d = {d} do not match env.n = "
                         f"{spec.n}, env.d = {spec.d}")


def _load_data(cfg, out_dir):
    path = _resolve(out_dir, cfg["data.path"])
    if not os.path.exists(path):
        raise FileNotFoundError(f"dataset not found: {path}")
    data = load_dataset(path)
    _check_sizes(path, data.s.shape[1], data.a.shape[1], cfg.env_spec())
    return data


def _metric_rows(records):
    """The rows of ``metrics.txt``: a header, then one per episode."""
    return [_METRIC_FIELDS] + [[rec[f] for f in _METRIC_FIELDS]
                               for rec in records]


def _write_rows(path, rows, sep=" "):
    """Write one line per row, its fields joined by ``sep``: strings as
    they are, numbers through :func:`_fmt`."""
    with open(path, "w") as fh:
        fh.writelines(sep.join(v if isinstance(v, str) else _fmt(v)
                               for v in row) + "\n" for row in rows)


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
    rows = [list(map(repr, row)) for row in result.w.tolist()]
    rows.append(["threshold", repr(float(cfg["notears.tau"]))])
    for name in ("c_ss", "c_as", "u_sr", "u_ar"):
        rows.append([name])
        rows.extend(np.atleast_2d(getattr(result.masks, name)))
    _write_rows(path, rows)
    print(f"wrote discovery result to {path}")
    return 0


def _train_schedule(cfg):
    """The diffusion schedule of the ``train.*`` keys, which
    ``TrainerConfig`` checks first."""
    tcfg = cfg.trainer_config()
    return make_schedule(tcfg.k_steps, tcfg.beta_start, tcfg.beta_end)


def cmd_train(cfg, out_dir):
    data = _load_data(cfg, out_dir)
    env = Environment(cfg.env_spec())
    tcfg = cfg.trainer_config()
    rng = np.random.default_rng(cfg["seed"])
    artifacts = offline_stage(data, tcfg, rng)
    records, artifacts = online_stage(env, artifacts, tcfg, rng)
    _write_rows(os.path.join(out_dir, "metrics.txt"), _metric_rows(records))
    save_noise_net(artifacts.net, os.path.join(out_dir, "noise_net.txt"))
    save_dynamics(artifacts.dyn, os.path.join(out_dir, "dynamics.txt"))
    _write_rows(os.path.join(out_dir, "effective.cfg"),
                [[line] for line in dump_config(cfg).splitlines()])
    refreshes = Counter(o for rec in records for o in rec["refreshes"])
    summary = ", ".join(f"{n} {o}" for o, n in refreshes.items()) or "none"
    print(f"trained {len(records)} episodes; refreshes: {summary}; "
          f"outputs under {out_dir}")
    return 0


def cmd_eval(cfg, out_dir):
    net_path = os.path.join(out_dir, "noise_net.txt")
    net = load_noise_net(net_path)
    spec = cfg.env_spec()
    _check_sizes(net_path, net.n_state, net.d_action, spec)
    dyn_path = os.path.join(out_dir, "dynamics.txt")
    if not os.path.exists(dyn_path):
        raise FileNotFoundError(
            f"dynamics checkpoint not found: {dyn_path} (cgdp train "
            f"writes it)")
    dyn = load_dynamics(dyn_path)
    _check_sizes(dyn_path, dyn.n, dyn.d, spec)
    env = Environment(spec)
    schedule = _train_schedule(cfg)
    # the checkpoint holds K but not the betas, which cannot be checked
    if net.k_steps != schedule.k_steps:
        raise ValueError(f"{net_path}: the noise net has K = {net.k_steps} "
                         f"diffusion steps, but train.k_steps = "
                         f"{schedule.k_steps}")
    guid = cfg.guidance_config()
    rng = np.random.default_rng(cfg["seed"])
    returns = []
    for episode in range(cfg["eval.episodes"]):
        state = env.reset(rng)
        total = 0.0
        while not state.done:
            hook = GuidanceHook(dyn, guid, schedule, state.obs[None])
            a = act(net, schedule, state, rng, hook, f"eval episode {episode}")
            state, r, _ = env.step(a, rng)
            total += r
        returns.append(total)
    mean = float(np.mean(returns))
    std = float(np.std(returns))
    _write_rows(os.path.join(out_dir, "eval.txt"),
                [("episodes", len(returns)), ("mean_return", mean),
                 ("std_return", std)])
    print(f"eval mean return {_fmt(mean)} over {len(returns)} episodes")
    return 0


def _final_return(records):
    tail = max(1, int(len(records) * 0.1))
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
    tcfg = cfg.trainer_config()
    unguided_cfg = replace(tcfg, guidance=replace(tcfg.guidance, lam=0.0))

    arms = {"notears": (0.0, tcfg), "corrupted": (flip_prob, tcfg),
            "unguided": (0.0, unguided_cfg)}
    runs = ablation_runs(cfg["ablate.seeds"], data, result.masks, result.w,
                         list(arms.values()), spec, scm, seed=cfg["seed"])
    path = os.path.join(out_dir, "ablation.csv")
    rows = [("arm", "mean", "std")]
    for i, arm in enumerate(arms):
        vals = [_final_return(seed_runs[i]) for seed_runs in runs]
        rows.append((arm, np.mean(vals), np.std(vals)))
    _write_rows(path, rows, ",")
    print(f"wrote ablation table to {path}")
    return 0


def _verify_lemma1(cfg, out_dir, schedule):
    rng = np.random.default_rng(cfg["seed"])
    d, p = 2, 4  # 2-D action; 3-D next state stacked with the reward
    m = rng.standard_normal((p, d))
    spec = verify_mod.PosteriorSpec(
        mu_bar=np.zeros(d), sigma_bar=np.eye(d), m=m,
        sigma_y=0.5 * np.eye(p), y=rng.standard_normal(p))
    report = verify_mod.check_lemma1(
        spec, make_schedule(cfg["verify.k_steps"]), cfg["verify.samples"],
        rng, lam=1.0)
    columns = ("sample_mean", "target_mean", "mean_err", "se")
    _write_rows(os.path.join(out_dir, "lemma1.csv"),
                [("coord", *columns)]
                + [(i, *(report[c][i] for c in columns)) for i in range(d)]
                + [("cov_rel_err", report["cov_rel_err"], "", "", "")],
                ",")
    return report["passed"], f"cov_rel_err {_fmt(report['cov_rel_err'])}"


def _verify_prop2(cfg, out_dir, schedule):
    _, dyn = verify_mod.default_linear_instance(n=3, d=2,
                                                seed=cfg["seed"])
    rows = []
    for seed in range(min(cfg["verify.seeds"], 10)):
        rng = np.random.default_rng(cfg["seed"] + seed)
        s = rng.standard_normal(dyn.n)
        a = rng.uniform(-1, 1, size=dyn.d)
        report = verify_mod.check_prop2(dyn, s, a, 10 ** 4, rng)
        rows.append((seed, report["cosine"], report["passed"]))
    _write_rows(os.path.join(out_dir, "prop2.csv"),
                [("seed", "cosine", "passed")] + rows, ",")
    passed = all(ok for _, _, ok in rows)
    worst = min(c for _, c, _ in rows)
    return passed, f"min cosine {_fmt(worst)}"


def _verify_theorem1(cfg, out_dir, schedule):
    if cfg["verify.dynamics"]:
        ckpt = _resolve(out_dir, cfg["verify.dynamics"])
        dyn = load_dynamics(ckpt)
        spec = cfg.env_spec()
        _check_sizes(ckpt, dyn.n, dyn.d, spec)
        scm = make_env_scm(spec)
    else:
        scm, dyn = verify_mod.default_linear_instance(seed=cfg["seed"])
    report = verify_mod.check_theorem1(
        scm, dyn, schedule, range(cfg["verify.seeds"]),
        cfg.guidance_config(), gamma_disc=cfg["train.gamma_disc"])
    columns = ("seed", "kl", "bound", "gap", "holds")
    _write_rows(os.path.join(out_dir, "theorem1.csv"),
                [columns] + [[row[c] for c in columns]
                             for row in report["rows"]], ",")
    # a zero KL bounds only a zero gap: the bound would check nothing
    if all(row["kl"] == 0.0 for row in report["rows"]):
        return False, "guidance is zero on every seed; the bound checks " \
            "nothing"
    return report["passed"], \
        f"holds in {_fmt(report['fraction_holds'])} of seeds"


def _verify_prop1(cfg, out_dir, schedule):
    _, dyn = verify_mod.default_linear_instance(seed=cfg["seed"])
    report = verify_mod.check_prop1(
        dyn, schedule, seeds=range(cfg["verify.seeds"]),
        stiff_dyn=verify_mod.stiff_linear_instance())
    columns = ("dt", "diverged", "terminal_norm")
    _write_rows(os.path.join(out_dir, "prop1.csv"),
                [columns] + [[row[c] for c in columns]
                             for row in report["rows"]], ",")
    return report["passed"], f"dt_max {_fmt(report['dt_max'])}"


# the checks of ``cgdp verify``, in the order of its summary.  Each takes
# (cfg, out_dir, schedule), writes its CSV and returns (passed, note);
# ``schedule`` is the ``train.*`` schedule prop1 and theorem1 use.  They
# are module-level functions, so that a process pool can pickle them.
_VERIFY_CHECKS = {"lemma1": _verify_lemma1, "prop1": _verify_prop1,
                  "prop2": _verify_prop2, "theorem1": _verify_theorem1}


def cmd_verify(cfg, out_dir, which):
    # lemma1's floors, checked here so that no other check writes first
    for key, floor in (("verify.k_steps", verify_mod.LEMMA1_MIN_K_STEPS),
                       ("verify.samples", verify_mod.LEMMA1_MIN_SAMPLES)):
        if cfg[key] < floor:
            raise ValueError(f"{key} must be >= {floor}, got {cfg[key]}")
    schedule = _train_schedule(cfg)   # checks train.*, guidance.* first
    names = list(_VERIFY_CHECKS) if which == "all" else [which]
    checks = [_VERIFY_CHECKS[name] for name in names]
    args = (cfg, out_dir, schedule)
    # the first check, lemma1, the longest, runs in this process, where a
    # tracer of this process sees it; the others run meanwhile in forked
    # workers, on the CPUs this process leaves free
    workers = min(len(names) - 1, len(os.sched_getaffinity(0)) - 1)
    if workers < 1:
        results = [check(*args) for check in checks]
    else:
        with fork_pool(workers) as pool:
            futures = [pool.submit(check, *args) for check in checks[1:]]
            results = [checks[0](*args)] + [f.result() for f in futures]
    summary = [f"{name} {'PASS' if ok else 'FAIL'} ({note})"
               for name, (ok, note) in zip(names, results)]
    _write_rows(os.path.join(out_dir, "verify_summary.txt"),
                [[line] for line in summary])
    for line in summary:
        print(line)
    return 0 if all(ok for ok, _ in results) else 1


# the commands but verify, which also takes the name of its check
_COMMANDS = {"gen-data": cmd_gen_data, "discover": cmd_discover,
             "train": cmd_train, "eval": cmd_eval, "ablate": cmd_ablate}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="config file path")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--guidance", choices=("on", "off"), default="on",
                        help="off sets guidance.lambda = 0")
    parser = argparse.ArgumentParser(
        prog="cgdp",
        description="causality-guided diffusion policy laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
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
        if args.guidance == "off":
            cfg.set("guidance.lambda", 0.0)
        os.makedirs(args.out, exist_ok=True)
        # a run that overflows prints its one error line and no warnings
        with np.errstate(all="ignore"):
            if args.command == "verify":
                return cmd_verify(cfg, args.out, args.which)
            return _COMMANDS[args.command](cfg, args.out)
    except (ValueError, OSError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
