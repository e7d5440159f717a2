"""The three workloads: their generated config, the cgdp commands of one
round, and the checks on each command's output files.

A check returns ``(ok, message)``.  Checks in ``KNOWN_FAULTS`` fail
because of a fault in the program that is written up in CHANGES.md;
their failure counts the operation as failed but keeps the run correct.
"""

import math
import os
import statistics

import numpy as np

import reference as ref

# sizes keep a round within about ten seconds, so that a run holds
# several rounds and its median shrugs off a slow one
ABLATE_CFG = """\
seed = {seed}
env.seed = {seed}
train.offline_steps = 300
train.online_episodes = 5
ablate.seeds = 2
"""

# refresh interval = 10 (n + d), the fewest rows the linear refit takes,
# and 32 episodes x horizon 20 reach it once; refresh_min_action_std = 0
# keeps the refresh from being skipped as uninformative
HIGHDIM_CFG = """\
seed = {seed}
env.seed = {seed}
env.n = 48
env.d = 16
env.n_causal_actions = 8
data.episodes = 400
train.offline_steps = 500
train.online_episodes = 32
train.mask_refresh = 640
train.refresh_min_action_std = 0.0
eval.episodes = 10
"""

VERIFY_CFG = """\
seed = {seed}
verify.seeds = 2
"""

# largest Hamming distance, as a share of all mask entries, between the
# discovered masks and the environment's true pattern
HAMMING_SHARE = 0.01

KNOWN_FAULTS = {"eval_tracks_training"}


def _read(out, name):
    with open(os.path.join(out, name)) as fh:
        return fh.read()


def _finite(values):
    return all(math.isfinite(v) for v in values)


# ------------------------------------------------------------------ ablate


def check_ablate(ctx):
    text = _read(ctx.out, "ablation.csv")
    rows = {row["arm"]: (float(row["mean"]), float(row["std"]))
            for row in ref.parse_table(text, sep=",")}
    arms_ok = set(rows) == {"notears", "corrupted", "unguided"} and \
        _finite([v for pair in rows.values() for v in pair])
    yield "three_finite_arms", arms_ok, f"arms (mean, std) {rows}"
    first = ctx.memo.setdefault("ablation.csv", text)
    yield ("byte_identical_rerun", text == first,
           "ablation.csv differs from the first round's")


# ----------------------------------------------------------------- highdim


def _env_scm(ctx):
    from cgdp.envs import make_env_scm
    return make_env_scm(ctx.cfg.env_spec())


def check_discover(ctx):
    scm = _env_scm(ctx)
    spec = ctx.cfg.env_spec()
    found = ref.parse_discovery_masks(_read(ctx.out, "discovery.txt"),
                                      spec.n, spec.d)
    truth = ref.true_mask_pattern(scm.f_s, scm.f_a, scm.b_s, scm.b_a)
    dist = sum(ref.hamming(f, t) for f, t in zip(found, truth))
    entries = sum(t.size for t in truth)
    yield ("masks_near_truth", dist <= HAMMING_SHARE * entries,
           f"Hamming distance {dist} of {entries} entries")


def _metrics_rows(ctx):
    return ref.parse_table(_read(ctx.out, "metrics.txt"))


def check_train(ctx):
    rows = _metrics_rows(ctx)
    episodes = ctx.cfg["train.online_episodes"]
    values = [float(v) for row in rows for v in row.values()]
    yield ("metrics_complete", len(rows) == episodes and _finite(values),
           f"{len(rows)} rows for {episodes} episodes")
    steps = episodes * ctx.cfg["env.horizon"]
    due = steps // ctx.cfg["train.mask_refresh"]
    applied = sum(int(row["mask_refresh_flag"]) for row in rows)
    yield ("every_refresh_applied", due >= 1 and applied == due,
           f"{applied} refreshes applied of {due} due")


def check_eval(ctx):
    mean_return = ref.parse_keyvalues(_read(ctx.out, "eval.txt"))[
        "mean_return"]
    rewards = ref.parse_dataset_rewards(_read(ctx.out, "dataset.txt"))
    behaviour = float(rewards.mean()) * ctx.cfg["env.horizon"]
    returns = [float(row["return"]) for row in _metrics_rows(ctx)]
    trained = statistics.median(returns[-10:])
    # eval guides toward guidance.r_star (0) where training guides toward
    # the oracle r*; until that is mended eval falls far short of the
    # trained returns, and may not even beat the behaviour data, so only
    # the first is checked (and counted as a known fault)
    yield ("eval_tracks_training", mean_return >= 0.5 * trained,
           f"eval {mean_return} against median training return "
           f"{trained}; behaviour mean reward x horizon {behaviour}")


# ------------------------------------------------------------------ verify


def check_verify(ctx):
    summary = _read(ctx.out, "verify_summary.txt").splitlines()
    passed = {line.split()[0]: line.split()[1] == "PASS" for line in summary}
    yield ("all_checks_pass",
           sorted(passed) == ["lemma1", "prop1", "prop2", "theorem1"]
           and all(passed.values()), f"{summary}")

    spec, report = ctx.lemma1
    mean, cov = ref.gaussian_condition(spec.mu_bar, spec.sigma_bar, spec.m,
                                       spec.sigma_y, spec.y)
    rows = [row for row in ref.parse_table(_read(ctx.out, "lemma1.csv"),
                                           sep=",") if row["coord"].isdigit()]
    csv_mean = np.array([float(row["target_mean"]) for row in rows])
    csv_se = np.array([float(row["se"]) for row in rows])
    samples = ctx.cfg["verify.samples"]
    ok = np.allclose(csv_mean, mean, rtol=1e-7, atol=1e-9) and \
        np.allclose(csv_se, np.sqrt(np.diag(cov) / samples), rtol=1e-7) \
        and np.allclose(report["target_cov"], cov, rtol=1e-9, atol=1e-12)
    yield ("lemma1_target_matches_reference", ok,
           f"target mean {csv_mean} reference {mean}")

    rows = ref.parse_table(_read(ctx.out, "theorem1.csv"), sep=",")
    ok = bool(rows) and all(
        int(row["holds"]) == int(float(row["gap"]) <= float(row["bound"]))
        and float(row["kl"]) >= 0.0 for row in rows)
    yield "theorem1_rows_consistent", ok, f"{len(rows)} rows"

    note = next(line for line in summary if line.startswith("prop1"))
    dt_max = float(note.split("dt_max")[1].strip(" )"))
    rows = ref.parse_table(_read(ctx.out, "prop1.csv"), sep=",")
    safe = [row for row in rows if float(row["dt"]) <= dt_max * (1 + 1e-8)]
    ok = len(safe) == 3 and all(int(row["diverged"]) == 0 for row in safe)
    yield "prop1_stable_below_dt_max", ok, f"{len(safe)} rows at or below"


class Workload:
    def __init__(self, config, setup, commands):
        self.config = config
        self.setup = setup          # cgdp arguments run during set-up
        self.commands = commands    # [(cgdp arguments, check)]


WORKLOADS = {
    "ablate": Workload(ABLATE_CFG, ["gen-data"],
                       [(["ablate"], check_ablate)]),
    "highdim": Workload(HIGHDIM_CFG, ["gen-data"],
                        [(["discover"], check_discover),
                         (["train"], check_train),
                         (["eval"], check_eval)]),
    "verify": Workload(VERIFY_CFG, None, [(["verify"], check_verify)]),
}
