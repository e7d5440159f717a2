import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cgdp.cli import _final_return, _fmt, main
from cgdp.config import load_config, parse_config
from cgdp.discovery import corrupt_masks, discover_masks
from cgdp.dynamics import load_dynamics, save_dynamics
from cgdp.envs import Environment, make_env_scm
from cgdp.guidance import GuidanceHook
from cgdp.rl import offline_stage, online_stage
from cgdp.scm import load_dataset
from cgdp.verify import default_linear_instance

SMALL_CFG = """
seed = 0
env.n = 3
env.d = 2
env.horizon = 5
data.episodes = 40
data.horizon = 5
train.offline_steps = 50
train.online_episodes = 2
train.mask_refresh = 0
train.k_steps = 10
train.hidden = 16
train.batch_size = 8
eval.episodes = 2
ablate.seeds = 1
ablate.flip_prob = 0.0
"""


@pytest.fixture()
def workdir(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG)
    return tmp_path, str(cfg_path)


def run(cfg_path, out_dir, *args):
    return main([*args, "--config", cfg_path, "--out", str(out_dir)])


class TestPipeline:
    def test_end_to_end_and_byte_identical_rerun(self, workdir):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        data = load_dataset(str(out / "dataset.txt"))
        assert (data.s.shape[1], data.a.shape[1], len(data)) == (3, 2, 200)

        assert run(cfg_path, out, "discover") == 0
        assert (out / "discovery.txt").exists()

        assert run(cfg_path, out, "train") == 0
        metrics = (out / "metrics.txt").read_text().splitlines()
        assert metrics[0].split() == ["episode", "return", "denoise_loss",
                                      "q_loss", "kl_integral",
                                      "mask_refresh_flag"]
        assert len(metrics) == 3
        assert (out / "noise_net.txt").exists()
        assert (out / "dynamics.txt").exists()
        parse_config((out / "effective.cfg").read_text())

        assert run(cfg_path, out, "eval") == 0
        eval_lines = (out / "eval.txt").read_text().splitlines()
        assert eval_lines[0] == "episodes 2"
        assert eval_lines[1].startswith("mean_return ")

        snapshots = {name: (out / name).read_bytes()
                     for name in ("dataset.txt", "discovery.txt",
                                  "metrics.txt", "noise_net.txt",
                                  "dynamics.txt", "eval.txt")}
        for command in ("gen-data", "discover", "train", "eval"):
            assert run(cfg_path, out, command) == 0
        for name, blob in snapshots.items():
            assert (out / name).read_bytes() == blob

    def test_guidance_off_zeroes_kl_column(self, workdir):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        assert run(cfg_path, out, "train", "--guidance", "off") == 0
        rows = (out / "metrics.txt").read_text().splitlines()[1:]
        assert all(row.split()[4] == "0" for row in rows)

        assert run(cfg_path, out, "train", "--guidance", "on") == 0
        rows = (out / "metrics.txt").read_text().splitlines()[1:]
        assert any(float(row.split()[4]) > 0 for row in rows)

    def test_guidance_off_reruns_from_its_effective_config(self, workdir):
        out, cfg_path = workdir
        names = ("metrics.txt", "noise_net.txt", "dynamics.txt",
                 "effective.cfg")
        assert run(cfg_path, out, "gen-data") == 0
        assert run(cfg_path, out, "train", "--guidance", "off",
                   "--seed", "5") == 0
        first = {name: (out / name).read_bytes() for name in names}
        effective = out / "effective.cfg"
        assert "guidance.lambda = 0.0\n" in effective.read_text()
        assert run(str(effective), out, "train") == 0
        assert {name: (out / name).read_bytes() for name in names} == first

    def test_seed_flag_changes_dataset(self, workdir):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        base = (out / "dataset.txt").read_bytes()
        assert run(cfg_path, out, "gen-data", "--seed", "123") == 0
        assert (out / "dataset.txt").read_bytes() != base

    def test_empty_dataset_header_only(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_CFG + "data.episodes = 0\n")
        assert run(str(cfg_path), tmp_path, "gen-data") == 0
        data = load_dataset(str(tmp_path / "dataset.txt"))
        assert len(data) == 0
        assert (data.s.shape[1], data.a.shape[1]) == (3, 2)


class TestAblate:
    def test_zero_flip_prob_makes_arms_coincide(self, workdir):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        assert run(cfg_path, out, "ablate") == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "arm,mean,std"
        assert len(lines) == 4
        table = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
        assert set(table) == {"notears", "corrupted", "unguided"}
        assert table["notears"] == table["corrupted"]


class TestAblatePool:
    def test_one_cpu_gives_the_pool_table_byte_for_byte(self, workdir,
                                                        monkeypatch):
        out, cfg_path = workdir
        with open(cfg_path, "a") as fh:
            fh.write("ablate.seeds = 3\nablate.flip_prob = 0.3\n")
        assert run(cfg_path, out, "gen-data") == 0
        assert run(cfg_path, out, "ablate") == 0
        pooled = (out / "ablation.csv").read_bytes()
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run(cfg_path, out, "ablate") == 0
        assert (out / "ablation.csv").read_bytes() == pooled

    def test_worker_error_exits_1_with_one_line(self, workdir, monkeypatch,
                                                capsys):
        import cgdp.rl as rl

        def failing_online_stage(*args):
            raise ValueError("online stage failed in a worker")

        out, cfg_path = workdir
        with open(cfg_path, "a") as fh:
            fh.write("ablate.seeds = 2\n")
        assert run(cfg_path, out, "gen-data") == 0
        # forked workers inherit the patch
        monkeypatch.setattr(rl, "online_stage", failing_online_stage)
        capsys.readouterr()
        assert run(cfg_path, out, "ablate") == 1
        assert capsys.readouterr().err == \
            "error: online stage failed in a worker\n"
        assert not (out / "ablation.csv").exists()
        assert multiprocessing.active_children() == []


VERIFY_CFG = """
verify.seeds = 1
verify.samples = 10000
verify.k_steps = 500
"""


class TestVerifyPool:
    @pytest.fixture()
    def pools(self, workdir, monkeypatch):
        """Two CPUs, and the worker count of every pool cgdp verify
        starts."""
        import cgdp.cli as cli
        with open(workdir[1], "a") as fh:
            fh.write(VERIFY_CFG)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        started = []
        fork_pool = cli.fork_pool

        def recording_fork_pool(workers):
            started.append(workers)
            return fork_pool(workers)

        monkeypatch.setattr(cli, "fork_pool", recording_fork_pool)
        return started

    def test_one_cpu_gives_the_pool_outputs_byte_for_byte(
            self, workdir, pools, monkeypatch, capsys):
        out, cfg_path = workdir
        names = ("lemma1.csv", "prop1.csv", "prop2.csv", "theorem1.csv",
                 "verify_summary.txt")
        capsys.readouterr()
        assert run(cfg_path, out, "verify") == 0
        pooled = {name: (out / name).read_bytes() for name in names}
        pooled_stdout = capsys.readouterr().out
        assert pools == [1]
        assert multiprocessing.active_children() == []
        for name in names:
            (out / name).unlink()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run(cfg_path, out, "verify") == 0
        assert pools == [1]
        assert {name: (out / name).read_bytes() for name in names} == pooled
        assert capsys.readouterr().out == pooled_stdout
        assert pooled_stdout.count("PASS") == 4

    def test_worker_error_exits_1_with_one_line(self, workdir, pools,
                                                monkeypatch, capsys):
        import cgdp.verify as verify_mod

        def failing_check_prop2(*args):
            raise ValueError("prop2 failed in a worker")

        out, cfg_path = workdir
        # forked workers inherit the patch
        monkeypatch.setattr(verify_mod, "check_prop2", failing_check_prop2)
        capsys.readouterr()
        assert run(cfg_path, out, "verify") == 1
        assert pools == [1]
        assert capsys.readouterr().err == "error: prop2 failed in a worker\n"
        assert not (out / "verify_summary.txt").exists()
        assert multiprocessing.active_children() == []

    def test_one_check_starts_no_pool(self, workdir, pools):
        out, cfg_path = workdir
        assert run(cfg_path, out, "verify", "prop2") == 0
        assert pools == []
        assert sorted(p.name for p in out.iterdir()) == \
            ["prop2.csv", "run.cfg", "verify_summary.txt"]


class TestGuidanceTarget:
    def test_eval_guides_toward_the_target_training_ended_on(self, workdir,
                                                             monkeypatch):
        import cgdp.cli as cli
        import cgdp.rl as rl
        out, cfg_path = workdir
        targets = {"train": [], "eval": []}

        class RecordingHook(GuidanceHook):
            def __init__(self, dyn, cfg, schedule, s_t, s_next=None,
                         r_value=None, kl_acc=None):
                if s_next is None:   # an acting hook, not a replay one
                    targets[command].append(
                        dyn.r_star if r_value is None else r_value)
                super().__init__(dyn, cfg, schedule, s_t, s_next, r_value,
                                 kl_acc)

        monkeypatch.setattr(rl, "GuidanceHook", RecordingHook)
        monkeypatch.setattr(cli, "GuidanceHook", RecordingHook)
        assert run(cfg_path, out, "gen-data") == 0
        for command in ("train", "eval"):
            assert run(cfg_path, out, command) == 0
        saved = load_dynamics(str(out / "dynamics.txt")).r_star
        data = load_dataset(str(out / "dataset.txt"))
        # training starts at the best reward of the dataset and ends on
        # the target dynamics.txt holds, which every eval hook pulls to
        assert targets["train"][0] == float(data.r.max())
        assert targets["train"][-1] == max(targets["train"]) == saved
        assert set(targets["eval"]) == {saved}


class TestVerifyCommand:
    def test_prop2_check_writes_outputs(self, workdir):
        out, cfg_path = workdir
        assert run(cfg_path, out, "verify", "prop2") == 0
        csv = (out / "prop2.csv").read_text().splitlines()
        assert csv[0] == "seed,cosine,passed"
        assert len(csv) > 1
        summary = (out / "verify_summary.txt").read_text()
        assert summary.startswith("prop2 PASS")

    def test_theorem1_fails_when_the_guidance_is_zero(self, workdir,
                                                      capsys):
        out, cfg_path = workdir
        with open(cfg_path, "a") as fh:
            fh.write("verify.seeds = 2\nguidance.lambda = 0\n")
        capsys.readouterr()
        assert run(cfg_path, out, "verify", "theorem1") == 1
        note = "guidance is zero on every seed; the bound checks nothing"
        assert capsys.readouterr().out == f"theorem1 FAIL ({note})\n"
        rows = (out / "theorem1.csv").read_text().splitlines()
        assert rows[0] == "seed,kl,bound,gap,holds" and len(rows) == 3
        assert all(row.split(",")[1:4] == ["0", "0", "0"]
                   for row in rows[1:])

    def test_theorem1_refuses_an_oversized_grid_writing_nothing(
            self, workdir, capsys, monkeypatch):
        import cgdp.verify
        out, cfg_path = workdir
        with open(cfg_path, "a") as fh:
            fh.write(f"env.d = 4\nverify.dynamics = {out / 'dyn.txt'}\n")
        _, dyn = default_linear_instance(n=3, d=4)
        save_dynamics(dyn, str(out / "dyn.txt"))

        def no_rollout(*args, **kwargs):
            raise AssertionError("a rollout ran")

        monkeypatch.setattr(cgdp.verify, "_rollout_returns", no_rollout)
        before = sorted(os.listdir(out))
        assert run(cfg_path, out, "verify", "theorem1") == 1
        assert capsys.readouterr().err == (
            "error: theorem1's advantage grid at d = 4 has 2825761 points, "
            "33909132 rollout rows, over the limit of 1000000\n")
        assert sorted(os.listdir(out)) == before

    def test_a_relative_dynamics_path_resolves_under_out(
            self, workdir, capsys, monkeypatch, tmp_path_factory):
        out, cfg_path = workdir
        monkeypatch.chdir(tmp_path_factory.mktemp("elsewhere"))
        with open(cfg_path, "a") as fh:
            fh.write("env.n = 4\nverify.dynamics = dynamics.txt\n")
        _, dyn = default_linear_instance(n=3, d=2)
        save_dynamics(dyn, str(out / "dynamics.txt"))
        capsys.readouterr()
        assert run(cfg_path, out, "verify", "theorem1") == 1
        assert capsys.readouterr().err == (
            f"error: {out / 'dynamics.txt'}: n = 3, d = 2 do not match "
            f"env.n = 4, env.d = 2\n")


class TestErrors:
    def test_train_without_dataset_is_runtime_error(self, workdir):
        out, cfg_path = workdir
        assert run(cfg_path, out, "train") == 1

    def test_bad_config_file_is_runtime_error(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("no.such.key = 1\n")
        assert run(str(cfg_path), tmp_path, "gen-data") == 1

    @pytest.mark.parametrize("key,command", [("verify.seeds", "verify"),
                                             ("ablate.seeds", "ablate"),
                                             ("eval.episodes", "eval")])
    def test_seed_count_below_one_exits_1(self, workdir, capsys, key,
                                          command):
        out, cfg_path = workdir
        with open(cfg_path, "a") as fh:
            fh.write(f"{key} = 0\n")
        assert run(cfg_path, out, command) == 1
        assert key in capsys.readouterr().err
        assert not any(out.glob("*.csv"))

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_verify_name_is_usage_error(self, workdir):
        out, cfg_path = workdir
        with pytest.raises(SystemExit) as exc:
            run(cfg_path, out, "verify", "lemma9")
        assert exc.value.code == 2

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestAblationReuse:
    def test_table_matches_a_fresh_offline_stage_per_arm(self, workdir):
        out, cfg_path = workdir
        with open(cfg_path, "a") as fh:
            # refreshes at steps 30 and 60, both applied
            fh.write("ablate.seeds = 2\nablate.flip_prob = 0.3\n"
                     "train.online_episodes = 12\n"
                     "train.mask_refresh = 30\n"
                     "train.refresh_min_action_std = 0.0\n")
        assert run(cfg_path, out, "gen-data") == 0
        assert run(cfg_path, out, "ablate") == 0

        cfg = load_config(cfg_path)
        data = load_dataset(str(out / "dataset.txt"))
        spec = cfg.env_spec()
        scm = make_env_scm(spec)
        result = discover_masks(data, cfg.notears_config())
        lines = ["arm,mean,std"]
        for arm in ("notears", "corrupted", "unguided"):
            finals = []
            for seed in range(2):
                tcfg = cfg.trainer_config()
                masks = result.masks
                if arm == "corrupted":
                    masks = corrupt_masks(result.masks, 0.3,
                                          np.random.default_rng(10 ** 6 + seed))
                if arm == "unguided":
                    tcfg = replace(tcfg, guidance=replace(tcfg.guidance,
                                                          lam=0.0))
                rng = np.random.default_rng(cfg["seed"] + seed)
                art = offline_stage(data, tcfg, rng, masks=masks,
                                    w0=result.w)
                records, _ = online_stage(Environment(spec, scm=scm), art,
                                          tcfg, rng)
                finals.append(_final_return(records))
            lines.append(f"{arm},{_fmt(np.mean(finals))},"
                         f"{_fmt(np.std(finals))}")
        assert (out / "ablation.csv").read_text() == "\n".join(lines) + "\n"


class TestLoudInputs:
    def test_train_reports_refresh_outcomes(self, workdir, capsys):
        out, cfg_path = workdir
        with open(cfg_path, "a") as fh:
            fh.write("train.mask_refresh = 5\n"
                     "train.refresh_min_action_std = 0.0\n")
        assert run(cfg_path, out, "gen-data") == 0
        capsys.readouterr()
        assert run(cfg_path, out, "train") == 0
        assert "trained 2 episodes; refreshes: 2 applied;" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [
        ("train.k_steps", 0), ("train.online_episodes", -1),
        ("train.offline_steps", -1), ("train.mask_refresh", -5)])
    def test_train_rejects_a_count_below_its_minimum(self, workdir, capsys,
                                                     key, value):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        with open(cfg_path, "a") as fh:
            fh.write(f"{key} = {value}\n")
        before = sorted(os.listdir(out))
        capsys.readouterr()
        assert run(cfg_path, out, "train") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert sorted(os.listdir(out)) == before

    # train.lr = 1e300 overflows the first update: offline, or with no
    # offline steps online, where the next action drawn is not finite
    OVERFLOW = [
        ("", "offline step 1: "),
        ("train.offline_steps = 0\n",
         "online episode 1, step 3: the sampler drew the non-finite "
         "action ")]

    @pytest.mark.parametrize("extra, where", OVERFLOW,
                             ids=["offline", "online"])
    def test_train_stops_on_a_non_finite_value(self, workdir, capsys, extra,
                                               where):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        with open(cfg_path, "a") as fh:
            fh.write("train.lr = 1e300\n" + extra)
        before = sorted(os.listdir(out))
        capsys.readouterr()
        assert run(cfg_path, out, "train") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}") and err.count("\n") == 1
        assert sorted(os.listdir(out)) == before

    @pytest.mark.parametrize("extra, where", OVERFLOW,
                             ids=["offline", "online"])
    def test_an_overflow_prints_only_its_error_line(self, workdir, extra,
                                                    where):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        with open(cfg_path, "a") as fh:
            fh.write("train.lr = 1e300\n" + extra)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "cgdp.cli", "train", "--config", cfg_path,
             "--out", str(out)], capture_output=True, text=True, env=env,
            timeout=300)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {where}")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command, where", [
        ("train", "online episode 0, step 0: "),
        ("eval", "eval episode 0, step 0: ")], ids=["train", "eval"])
    def test_a_non_finite_action_stops_the_run(self, workdir, capsys,
                                               monkeypatch, command, where):
        import cgdp.cli as cli
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        assert run(cfg_path, out, "train") == 0
        (out / "metrics.txt").unlink()
        # a target r* of 1e308 overflows the guidance: eval reads it from
        # the header of dynamics.txt, train from its offline model
        path = out / "dynamics.txt"
        header, rest = path.read_text().split("\n", 1)
        path.write_text(header.rsplit(" ", 1)[0] + " 1e308\n" + rest)

        def far_target(*args, **kwargs):
            artifacts = offline_stage(*args, **kwargs)
            return replace(artifacts, dyn=replace(artifacts.dyn,
                                                  r_star=1e308))

        monkeypatch.setattr(cli, "offline_stage", far_target)
        capsys.readouterr()
        assert run(cfg_path, out, command) == 1
        err = capsys.readouterr().err
        assert err == f"error: {where}the sampler drew the non-finite " \
            f"action [nan nan]\n"
        assert not (out / "eval.txt").exists()
        assert not (out / "metrics.txt").exists()

    @pytest.mark.parametrize("raw", ["0,64", "64,x", "-3"])
    def test_train_rejects_bad_hidden_widths(self, workdir, capsys, raw):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        with open(cfg_path, "a") as fh:
            fh.write(f"train.hidden = {raw}\n")
        capsys.readouterr()
        assert run(cfg_path, out, "train") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'train.hidden'" in err
        assert not (out / "metrics.txt").exists()

    @pytest.mark.parametrize("line", ["train.lr = nan",
                                      "train.eta = inf",
                                      "train.beta_start = nan",
                                      "train.beta_end = nan"])
    def test_train_rejects_a_non_finite_float(self, workdir, capsys, line):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        with open(cfg_path, "a") as fh:
            fh.write(line + "\n")
        capsys.readouterr()
        assert run(cfg_path, out, "train") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert line.split(" =")[0] in err and "finite" in err
        assert not (out / "metrics.txt").exists()

    @pytest.mark.parametrize("command,line,output", [
        ("ablate", "ablate.flip_prob = nan", "ablation.csv"),
        ("ablate", "ablate.flip_prob = 1.5", "ablation.csv"),
        ("gen-data", "data.behavior_noise = nan", "dataset.txt"),
        ("gen-data", "data.behavior_noise = inf", "dataset.txt"),
        ("gen-data", "env.noise_scale = nan", "dataset.txt"),
        ("gen-data", "env.noise_scale = -1", "dataset.txt"),
        ("gen-data", "env.reward_noise = nan", "dataset.txt"),
        ("gen-data", "env.reward_noise = inf", "dataset.txt"),
        ("gen-data", "env.n_causal_actions = -1", "dataset.txt"),
        ("train", "train.gamma_disc = 1.0", "metrics.txt"),
        ("train", "train.gamma_disc = nan", "metrics.txt"),
        ("train", "train.rho_target = 0", "metrics.txt"),
        ("train", "train.rho_target = 1.5", "metrics.txt"),
        ("train", "train.lr = -1", "metrics.txt"),
        ("train", "train.eta = -1", "metrics.txt"),
        ("train", "train.batch_size = 0", "metrics.txt"),
        ("train", "train.beta_start = 0.5", "metrics.txt"),
        ("train", "notears.tau = 1.5", "metrics.txt"),
        ("train", "notears.l1 = -1", "metrics.txt"),
        ("train", "notears.l1 = nan", "metrics.txt"),
        ("train", "env.n = 0", "metrics.txt"),
        ("train", "guidance.lambda = -1", "metrics.txt"),
        ("train", "guidance.gamma_t = nan", "metrics.txt"),
        ("verify", "guidance.lambda = nan", "lemma1.csv"),
        ("verify", "guidance.lambda = -1", "lemma1.csv"),
        ("verify", "train.gamma_disc = 1.0", "lemma1.csv"),
        ("verify", "train.k_steps = 0", "lemma1.csv")])
    def test_a_bad_config_float_exits_1_before_any_output(
            self, workdir, capsys, command, line, output):
        out, cfg_path = workdir
        if command != "gen-data":
            assert run(cfg_path, out, "gen-data") == 0
        with open(cfg_path, "a") as fh:
            fh.write(line + "\n")
        before = sorted(os.listdir(out))
        capsys.readouterr()
        assert run(cfg_path, out, command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert line.split(" =")[0] in err
        assert not (out / output).exists()
        assert sorted(os.listdir(out)) == before

    @pytest.mark.parametrize("line", ["verify.k_steps = 100",
                                      "verify.samples = 100"])
    def test_verify_checks_lemma1_sizes_before_any_check(
            self, workdir, capsys, monkeypatch, line):
        out, cfg_path = workdir
        with open(cfg_path, "a") as fh:
            fh.write(line + "\n")
        # with two CPUs the other checks would run beside lemma1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        capsys.readouterr()
        assert run(cfg_path, out, "verify") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert line.split(" =")[0] in err
        assert sorted(p.name for p in out.iterdir()) == ["run.cfg"]

    def test_discover_rejects_no_inner_iterations(self, workdir, capsys):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        with open(cfg_path, "a") as fh:
            fh.write("notears.max_inner = 0\n")
        capsys.readouterr()
        assert run(cfg_path, out, "discover") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "notears.max_inner" in err
        assert not (out / "discovery.txt").exists()

    def test_eval_without_dynamics_names_the_path(self, workdir, capsys):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        assert run(cfg_path, out, "train") == 0
        (out / "dynamics.txt").unlink()
        capsys.readouterr()
        assert run(cfg_path, out, "eval") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out / "dynamics.txt") in err
        assert not (out / "eval.txt").exists()

    def test_eval_rejects_a_net_of_another_step_count(self, workdir, capsys):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        assert run(cfg_path, out, "train") == 0
        with open(cfg_path, "a") as fh:
            fh.write("train.k_steps = 40\n")
        capsys.readouterr()
        assert run(cfg_path, out, "eval") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'noise_net.txt'}: ")
        assert "K = 10 " in err and "train.k_steps = 40" in err
        assert err.count("\n") == 1
        assert not (out / "eval.txt").exists()

    # the run's files are made with env.n = 3, env.d = 2
    SIZES = "n = 3, d = 2 do not match env.n = {}, env.d = {}"

    @pytest.mark.parametrize("command, line, name, sizes", [
        ("discover", "env.n = 4", "dataset.txt", (4, 2)),
        ("train", "env.n = 4", "dataset.txt", (4, 2)),
        ("ablate", "env.n = 4", "dataset.txt", (4, 2)),
        ("eval", "env.n = 4", "noise_net.txt", (4, 2)),
        ("eval", "env.d = 3", "noise_net.txt", (3, 3)),
        ("verify theorem1", "env.n = 4", "dynamics.txt", (4, 2))],
        ids=["discover", "train", "ablate", "eval-n", "eval-d", "verify-theorem1"])
    def test_a_file_of_other_sizes_exits_1_naming_both(
            self, workdir, capsys, command, line, name, sizes):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        assert run(cfg_path, out, "train") == 0
        with open(cfg_path, "a") as fh:
            fh.write(f"{line}\nverify.dynamics = {out / 'dynamics.txt'}\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run(cfg_path, out, *command.split()) == 1
        assert capsys.readouterr().err == \
            f"error: {out / name}: {self.SIZES.format(*sizes)}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_eval_rejects_dynamics_of_other_sizes(self, workdir, capsys):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        assert run(cfg_path, out, "train") == 0
        _, dyn = default_linear_instance(n=3, d=3)
        save_dynamics(dyn, str(out / "dynamics.txt"))
        capsys.readouterr()
        assert run(cfg_path, out, "eval") == 1
        assert capsys.readouterr().err == \
            "error: {}: n = 3, d = 3 do not match env.n = 3, env.d = 2\n" \
            .format(out / "dynamics.txt")
        assert not (out / "eval.txt").exists()

    def test_truncated_checkpoint_and_dataset_exit_1(self, workdir, capsys):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        assert run(cfg_path, out, "train") == 0
        ckpt = out / "noise_net.txt"
        ckpt.write_text(ckpt.read_text()[:300])
        capsys.readouterr()
        assert run(cfg_path, out, "eval") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}:") and "Traceback" not in err
        data = out / "dataset.txt"
        data.write_text("\n".join(data.read_text().splitlines()[:10]))
        assert run(cfg_path, out, "discover") == 1
        assert capsys.readouterr().err.startswith(f"error: {data}:11:")

    @pytest.mark.parametrize("name, header, line", [
        ("dynamics.txt", lambda tokens: "", 1),
        ("dynamics.txt",
         lambda tokens: " ".join(tokens[:4] + ["nan"] + tokens[5:]), 1),
        ("noise_net.txt",
         lambda tokens: " ".join(tokens[:4] + ["1000000", "1000000"]), 2),
        ("noise_net.txt",
         lambda tokens: " ".join(["cgdp-noise-net-v1"] + tokens[1:4]), 1)],
        ids=["blank-dynamics", "nan-sigma_r-dynamics", "huge-widths-net",
             "v1-net"])
    def test_bad_checkpoint_header_exits_1(self, workdir, capsys, name,
                                           header, line):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        assert run(cfg_path, out, "train") == 0
        ckpt = out / name
        lines = ckpt.read_text().splitlines()
        ckpt.write_text("\n".join([header(lines[0].split())] + lines[1:]))
        capsys.readouterr()
        assert run(cfg_path, out, "eval") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}:{line}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "eval.txt").exists()
