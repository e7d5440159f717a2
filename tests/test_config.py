from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from cgdp.config import (_MINIMUM, CONFIG_SCHEMA, RunConfig, dump_config,
                         load_config, parse_config)
from cgdp.discovery import NotearsConfig
from cgdp.envs import EnvSpec
from cgdp.guidance import GuidanceConfig
from cgdp.rl import TrainerConfig


class TestParse:
    def test_defaults_when_empty(self):
        cfg = parse_config("")
        assert cfg["seed"] == 0
        assert cfg["guidance.lambda"] == 1.0
        assert cfg["env.n"] == 6

    def test_overrides_and_comments(self):
        text = """
        # run settings
        seed = 7
        guidance.lambda = 0.5   # scale
        train.hidden = 32,32
        data.path = my data.txt
        """
        cfg = parse_config(text)
        assert cfg["seed"] == 7
        assert cfg["guidance.lambda"] == 0.5
        assert cfg["train.hidden"] == "32,32"
        assert cfg["data.path"] == "my data.txt"

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("seed = 1\nnot.a.key = 3\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("just some words\n")

    def test_bad_typed_value(self):
        with pytest.raises(ValueError, match="seed"):
            parse_config("seed = banana\n")


class TestMinimumCounts:
    @pytest.mark.parametrize("key", ["verify.seeds", "ablate.seeds",
                                     "eval.episodes", "data.episodes",
                                     "data.horizon"])
    @pytest.mark.parametrize("below", [1, 4])
    def test_counts_below_their_minimum_rejected(self, key, below):
        value = _MINIMUM[key] - below
        with pytest.raises(ValueError, match=f"{key}.*>= {_MINIMUM[key]}"):
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


class TestHiddenWidths:
    @pytest.mark.parametrize("raw", ["0,64", "64,x", "-3", "64,", "6 4"])
    def test_bad_widths_rejected_naming_the_key(self, raw):
        with pytest.raises(ValueError, match="'train.hidden'.*>= 1"):
            parse_config(f"train.hidden = {raw}\n")
        with pytest.raises(ValueError, match="train.hidden"):
            RunConfig({"train.hidden": raw})
        with pytest.raises(ValueError, match="train.hidden"):
            RunConfig().set("train.hidden", raw)

    @pytest.mark.parametrize("raw, widths", [("", ()), ("8", (8,)),
                                             ("32, 16,4", (32, 16, 4))])
    def test_good_widths_build(self, raw, widths):
        cfg = parse_config(f"train.hidden = {raw}\n")
        assert cfg.trainer_config().hidden == widths


@pytest.mark.parametrize("key", ["notears.rho", "notears.rho_growth",
                                 "notears.tol", "notears.max_outer",
                                 "env.kind", "env.goal_x", "env.goal_y",
                                 "train.dyn_kind", "train.dyn_mlp_steps",
                                 "guidance.use_r_star",
                                 "train.buffer_capacity", "verify.lambda"])
def test_removed_keys_are_unknown(key):
    with pytest.raises(ValueError, match=f"line 2: unknown config key "
                                         f"'{key}'"):
        parse_config(f"seed = 1\n{key} = 2\n")


# the default dump: any change to a dataclass field's name, order or
# default shows here
DEFAULT_DUMP = """\
seed = 0
env.n = 6
env.d = 4
env.horizon = 20
env.n_causal_actions = 2
env.noise_scale = 1.0
env.reward_noise = 0.5
env.seed = 0
data.path = dataset.txt
data.episodes = 400
data.horizon = 5
data.behavior_noise = 1.5
train.lr = 0.0003
train.eta = 3.0
train.batch_size = 64
train.offline_steps = 2000
train.online_episodes = 200
train.mask_refresh = 1000
train.refresh_window = 2000
train.refresh_min_action_std = 0.4
train.k_steps = 10
train.beta_start = 0.0001
train.beta_end = 0.02
train.hidden = 64,64
train.gamma_disc = 0.99
train.rho_target = 0.005
notears.l1 = 0.1
notears.max_inner = 300
notears.tau = 0.3
guidance.lambda = 1.0
guidance.gamma_t = 1.0
guidance.beta_guid_t = 1.0
guidance.r_star = 0.0
eval.episodes = 20
ablate.flip_prob = 0.25
ablate.seeds = 5
verify.samples = 20000
verify.k_steps = 1000
verify.seeds = 20
verify.dynamics = \n"""

# the keys whose field differs in name or form
IRREGULAR = {("guidance", "lam"): ["guidance.lambda"],
             ("train", "hidden"): ["train.hidden"]}
SECTIONS = {"env": EnvSpec, "train": TrainerConfig,
            "notears": NotearsConfig, "guidance": GuidanceConfig}


class TestDerivedSchema:
    def test_default_dump(self):
        assert dump_config(RunConfig()) == DEFAULT_DUMP

    def test_every_field_has_its_own_keys(self):
        claimed = []
        for namespace, cls in SECTIONS.items():
            defaults = cls()
            for f in fields(cls):
                value = getattr(defaults, f.name)
                if is_dataclass(value):
                    continue
                keys = IRREGULAR.get((namespace, f.name))
                if keys is None:
                    keys = [f"{namespace}.{f.name}"]
                    tag = {int: "int", float: "float", str: "str"}[type(value)]
                    assert CONFIG_SCHEMA[keys[0]] == (tag, value)
                claimed += keys
        in_sections = [k for k in CONFIG_SCHEMA
                       if k.split(".")[0] in SECTIONS]
        assert sorted(claimed) == sorted(in_sections)
        assert len(set(claimed)) == len(claimed)

    def test_each_key_reaches_its_field(self):
        cfg = parse_config("train.hidden = 3,5\nguidance.lambda = 0.5\n")
        assert cfg.trainer_config().hidden == (3, 5)
        assert cfg.guidance_config().lam == 0.5
        builders = {"env": "env_spec", "train": "trainer_config",
                    "notears": "notears_config",
                    "guidance": "guidance_config"}
        irregular = {key for keys in IRREGULAR.values() for key in keys}
        for key, (tag, default) in CONFIG_SCHEMA.items():
            namespace, _, name = key.partition(".")
            if namespace not in SECTIONS or key in irregular:
                continue
            # a valid value other than the default (halving keeps
            # train.beta_start <= train.beta_end)
            other = {"int": lambda v: v + 1,
                     "float": lambda v: v / 2 or 0.25}[tag](default)
            built = getattr(RunConfig({key: other}), builders[namespace])()
            assert getattr(built, name) == other, key


def _value(key, tag):
    if tag == "int":
        return st.integers(min_value=_MINIMUM.get(key), max_value=10 ** 12)
    if tag == "float":
        return st.floats(allow_nan=False)
    if tag == "widths":
        return st.lists(st.integers(1, 4096), max_size=4).map(
            lambda ws: ",".join(map(str, ws)))
    # what a value can carry: no '#', no line break, no surrounding
    # whitespace
    return st.text(st.characters(
        blacklist_categories=("Cs", "Zl", "Zp"),
        blacklist_characters="#\n\r\x0b\x0c\x1c\x1d\x1e\x85")).filter(
        lambda text: text == text.strip())


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({key: _value(key, tag)
                              for key, (tag, _) in CONFIG_SCHEMA.items()}))
def test_dump_parse_round_trip(values):
    cfg = RunConfig(values)
    text = dump_config(cfg)
    again = parse_config(text)
    assert again.values == cfg.values
    assert dump_config(again) == text


class TestRoundTrip:
    def test_dump_then_parse_reproduces_values(self):
        cfg = parse_config("seed = 3\ntrain.lr = 0.001\n"
                           "guidance.r_star = 2.5\n")
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
