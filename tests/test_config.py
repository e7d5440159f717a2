import pytest

from cgdp.config import (CONFIG_SCHEMA, RunConfig, dump_config, load_config,
                         parse_config)
from cgdp.discovery import NotearsConfig
from cgdp.envs import EnvSpec
from cgdp.guidance import GuidanceConfig
from cgdp.rl import TrainerConfig


class TestParse:
    def test_defaults_when_empty(self):
        cfg = parse_config("")
        assert cfg["seed"] == 0
        assert cfg["guidance.lambda"] == 1.0
        assert cfg["env.kind"] == "lin-scm"

    def test_overrides_and_comments(self):
        text = """
        # run settings
        seed = 7
        guidance.lambda = 0.5   # scale
        train.hidden = 32,32
        env.kind = point-maze
        """
        cfg = parse_config(text)
        assert cfg["seed"] == 7
        assert cfg["guidance.lambda"] == 0.5
        assert cfg["train.hidden"] == "32,32"
        assert cfg["env.kind"] == "point-maze"

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("seed = 1\nnot.a.key = 3\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("just some words\n")

    def test_bad_typed_value(self):
        with pytest.raises(ValueError, match="seed"):
            parse_config("seed = banana\n")

    def test_bool_coercion(self):
        for raw, expect in (("true", True), ("1", True), ("yes", True),
                            ("false", False), ("0", False), ("no", False)):
            cfg = parse_config(f"guidance.use_r_star = {raw}\n")
            assert cfg["guidance.use_r_star"] is expect
        with pytest.raises(ValueError):
            parse_config("guidance.use_r_star = maybe\n")


class TestMinimumCounts:
    @pytest.mark.parametrize("key", ["verify.seeds", "ablate.seeds"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_seed_counts_below_one_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key}.*>= 1"):
            parse_config(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=key):
            RunConfig({key: value})
        with pytest.raises(ValueError, match=key):
            RunConfig().set(key, value)

    def test_one_seed_accepted(self):
        cfg = parse_config("verify.seeds = 1\nablate.seeds = 1\n")
        assert cfg["verify.seeds"] == 1 and cfg["ablate.seeds"] == 1

    def test_default_dump_unchanged(self):
        text = dump_config(RunConfig())
        assert "ablate.seeds = 5\n" in text and "verify.seeds = 20\n" in text
        assert dump_config(parse_config(text)) == text


class TestRoundTrip:
    def test_dump_then_parse_reproduces_values(self):
        cfg = parse_config("seed = 3\ntrain.lr = 0.001\n"
                           "guidance.use_r_star = false\n")
        again = parse_config(dump_config(cfg))
        assert again.values == cfg.values
        assert dump_config(again) == dump_config(cfg)

    def test_dump_covers_full_schema_in_order(self):
        lines = dump_config(RunConfig()).splitlines()
        keys = [ln.split("=", 1)[0].strip() for ln in lines]
        assert keys == list(CONFIG_SCHEMA)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 11\n")
        assert load_config(str(path))["seed"] == 11


class TestBuilders:
    def test_typed_subconfigs(self):
        cfg = parse_config("train.hidden = 8,16\nguidance.lambda = 0.25\n"
                           "notears.tau = 0.4\nenv.horizon = 9\n")
        spec = cfg.env_spec()
        assert isinstance(spec, EnvSpec) and spec.horizon == 9
        nt = cfg.notears_config()
        assert isinstance(nt, NotearsConfig) and nt.tau == 0.4
        guid = cfg.guidance_config()
        assert isinstance(guid, GuidanceConfig) and guid.lam == 0.25
        tr = cfg.trainer_config()
        assert isinstance(tr, TrainerConfig)
        assert tr.hidden == (8, 16)
        assert tr.guidance.lam == 0.25

    def test_set_and_reject_unknown(self):
        cfg = RunConfig()
        cfg.set("seed", 5)
        assert cfg["seed"] == 5
        with pytest.raises(ValueError):
            cfg.set("nope", 1)
        with pytest.raises(ValueError):
            RunConfig({"nope": 1})
