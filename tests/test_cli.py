import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from cgdp.cli import _final_return, _fmt, _guidance_config, main
from cgdp.config import load_config, parse_config
from cgdp.discovery import corrupt_masks, discover_masks
from cgdp.envs import Environment, make_env_scm, optimal_reward
from cgdp.rl import offline_stage, online_stage
from cgdp.scm import load_dataset

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
    def test_train_eval_and_ablate_resolve_the_same_r_star(self, workdir,
                                                            monkeypatch):
        import cgdp.cli as cli
        import cgdp.rl as rl
        out, cfg_path = workdir
        targets = {}

        def recording_online_stage(env, artifacts, cfg, rng):
            targets.setdefault(command, set()).add(cfg.guidance.r_star)
            return online_stage(env, artifacts, cfg, rng)

        class RecordingHook(cli.GuidanceHook):
            def __init__(self, dyn, cfg, *args, **kwargs):
                targets.setdefault(command, set()).add(cfg.r_star)
                super().__init__(dyn, cfg, *args, **kwargs)

        online_stage = cli.online_stage
        # train calls it from cli, ablate from rl.ablation_seed
        monkeypatch.setattr(cli, "online_stage", recording_online_stage)
        monkeypatch.setattr(rl, "online_stage", recording_online_stage)
        monkeypatch.setattr(cli, "GuidanceHook", RecordingHook)
        assert run(cfg_path, out, "gen-data") == 0
        for command in ("train", "eval", "ablate"):
            assert run(cfg_path, out, command) == 0
        spec = parse_config(SMALL_CFG).env_spec()
        assert targets == {c: {optimal_reward(make_env_scm(spec))}
                           for c in ("train", "eval", "ablate")}


class TestVerifyCommand:
    def test_prop2_check_writes_outputs(self, workdir):
        out, cfg_path = workdir
        assert run(cfg_path, out, "verify", "prop2") == 0
        csv = (out / "prop2.csv").read_text().splitlines()
        assert csv[0] == "seed,cosine,passed"
        assert len(csv) > 1
        summary = (out / "verify_summary.txt").read_text()
        assert summary.startswith("prop2 PASS")


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
            # refreshes at steps 30 (window too small) and 60 (applied)
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
        guid = _guidance_config(cfg, scm)
        lines = ["arm,mean,std"]
        for arm in ("notears", "corrupted", "unguided"):
            finals = []
            for seed in range(2):
                tcfg = replace(cfg.trainer_config(), guidance=guid)
                masks = result.masks
                if arm == "corrupted":
                    masks = corrupt_masks(result.masks, 0.3,
                                          np.random.default_rng(10 ** 6 + seed))
                if arm == "unguided":
                    tcfg = replace(tcfg, guidance=replace(guid, lam=0.0))
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
        assert "trained 2 episodes; refreshes: 2 skipped (window too " \
            "small);" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["train.refresh_window",
                                     "train.buffer_capacity",
                                     "train.k_steps"])
    def test_train_rejects_a_count_below_one(self, workdir, capsys, key):
        out, cfg_path = workdir
        assert run(cfg_path, out, "gen-data") == 0
        with open(cfg_path, "a") as fh:
            fh.write(f"{key} = 0\n")
        capsys.readouterr()
        assert run(cfg_path, out, "train") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
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
        ("verify", "verify.lambda = nan", "lemma1.csv"),
        ("verify", "verify.lambda = -1", "lemma1.csv"),
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
