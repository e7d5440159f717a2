"""Flat ``key = value`` run configuration with namespaced keys.

Every tunable of the pipeline appears under a dotted namespace
(``guidance.lambda``, ``train.lr``, ...).  Unknown keys are rejected at
parse time; dumping always emits every effective value, defaults
included, so load(dump(cfg)) reproduces cfg exactly.
"""

from .discovery import NotearsConfig
from .envs import EnvSpec
from .guidance import GuidanceConfig
from .rl import TrainerConfig

__all__ = ["RunConfig", "parse_config", "load_config", "dump_config",
           "CONFIG_SCHEMA"]

# the env.*, train.*, notears.* and guidance.* defaults are the
# dataclasses' own
_E = EnvSpec()
_T = TrainerConfig()

# key -> (type tag, default); order fixes the dump layout
CONFIG_SCHEMA = {
    "seed": ("int", 0),
    "env.kind": ("str", _E.kind),
    "env.n": ("int", _E.n),
    "env.d": ("int", _E.d),
    "env.horizon": ("int", _E.horizon),
    "env.n_causal_actions": ("int", _E.n_causal_actions),
    "env.noise_scale": ("float", _E.noise_scale),
    "env.reward_noise": ("float", _E.reward_noise),
    "env.goal_x": ("float", _E.goal[0]),
    "env.goal_y": ("float", _E.goal[1]),
    "env.seed": ("int", _E.seed),
    "data.path": ("str", "dataset.txt"),
    "data.episodes": ("int", 400),
    "data.horizon": ("int", 5),
    "data.behavior_noise": ("float", 1.5),
    "train.lr": ("float", _T.lr),
    "train.eta": ("float", _T.eta),
    "train.batch_size": ("int", _T.batch_size),
    "train.offline_steps": ("int", _T.offline_steps),
    "train.online_episodes": ("int", _T.online_episodes),
    "train.mask_refresh": ("int", _T.mask_refresh),
    "train.refresh_window": ("int", _T.refresh_window),
    "train.refresh_min_action_std": ("float", _T.refresh_min_action_std),
    "train.buffer_capacity": ("int", _T.buffer_capacity),
    "train.k_steps": ("int", _T.k_steps),
    "train.beta_start": ("float", _T.beta_start),
    "train.beta_end": ("float", _T.beta_end),
    "train.hidden": ("str", ",".join(str(w) for w in _T.hidden)),
    "train.gamma_disc": ("float", _T.gamma_disc),
    "train.rho_target": ("float", _T.rho_target),
    "train.dyn_kind": ("str", _T.dyn_kind),
    "train.dyn_mlp_steps": ("int", _T.dyn_mlp_steps),
    "notears.l1": ("float", _T.notears.l1),
    "notears.rho": ("float", _T.notears.rho),
    "notears.rho_growth": ("float", _T.notears.rho_growth),
    "notears.tol": ("float", _T.notears.tol),
    "notears.max_outer": ("int", _T.notears.max_outer),
    "notears.max_inner": ("int", _T.notears.max_inner),
    "notears.tau": ("float", _T.notears.tau),
    "guidance.lambda": ("float", _T.guidance.lam),
    "guidance.gamma_t": ("float", _T.guidance.gamma_t),
    "guidance.beta_guid_t": ("float", _T.guidance.beta_guid_t),
    "guidance.r_star": ("float", _T.guidance.r_star),
    "guidance.use_r_star": ("bool", _T.guidance.use_r_star),
    "eval.episodes": ("int", 20),
    "ablate.flip_prob": ("float", 0.25),
    "ablate.seeds": ("int", 5),
    "verify.samples": ("int", 20000),
    "verify.k_steps": ("int", 1000),
    "verify.seeds": ("int", 20),
    "verify.lambda": ("float", 1.0),
    "verify.dynamics": ("str", ""),
}

# counts that must be at least this: fewer seeds would make a table or a
# check of nothing
_MINIMUM = {"ablate.seeds": 1, "verify.seeds": 1}


def _check(key, value):
    if key not in CONFIG_SCHEMA:
        raise ValueError(f"unknown config key {key!r}")
    if key in _MINIMUM and value < _MINIMUM[key]:
        raise ValueError(f"config key {key!r} must be >= {_MINIMUM[key]}, "
                         f"got {value}")


def _coerce(key, kind, raw):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ValueError(f"bad value {raw!r} for config key {key!r}")


def _render(kind, value):
    if kind == "float":
        return repr(float(value))
    if kind == "bool":
        return "true" if value else "false"
    return str(value)


class RunConfig:
    """Validated bag of effective values plus typed sub-config builders."""

    def __init__(self, values=None):
        self.values = {k: default for k, (_, default) in
                       CONFIG_SCHEMA.items()}
        if values:
            for k, v in values.items():
                _check(k, v)
                self.values[k] = v

    def __getitem__(self, key):
        return self.values[key]

    def set(self, key, value):
        _check(key, value)
        self.values[key] = value

    def env_spec(self):
        v = self.values
        return EnvSpec(kind=v["env.kind"], n=v["env.n"], d=v["env.d"],
                       horizon=v["env.horizon"],
                       n_causal_actions=v["env.n_causal_actions"],
                       noise_scale=v["env.noise_scale"],
                       reward_noise=v["env.reward_noise"],
                       goal=(v["env.goal_x"], v["env.goal_y"]),
                       seed=v["env.seed"])

    def notears_config(self):
        v = self.values
        return NotearsConfig(l1=v["notears.l1"], rho=v["notears.rho"],
                             rho_growth=v["notears.rho_growth"],
                             tol=v["notears.tol"],
                             max_outer=v["notears.max_outer"],
                             max_inner=v["notears.max_inner"],
                             tau=v["notears.tau"])

    def guidance_config(self):
        v = self.values
        return GuidanceConfig(lam=v["guidance.lambda"],
                              gamma_t=v["guidance.gamma_t"],
                              beta_guid_t=v["guidance.beta_guid_t"],
                              r_star=v["guidance.r_star"],
                              use_r_star=v["guidance.use_r_star"])

    def trainer_config(self):
        v = self.values
        hidden = tuple(int(w) for w in v["train.hidden"].split(",") if w)
        return TrainerConfig(
            lr=v["train.lr"], eta=v["train.eta"],
            batch_size=v["train.batch_size"],
            offline_steps=v["train.offline_steps"],
            online_episodes=v["train.online_episodes"],
            mask_refresh=v["train.mask_refresh"],
            refresh_window=v["train.refresh_window"],
            refresh_min_action_std=v["train.refresh_min_action_std"],
            buffer_capacity=v["train.buffer_capacity"],
            k_steps=v["train.k_steps"],
            beta_start=v["train.beta_start"],
            beta_end=v["train.beta_end"], hidden=hidden,
            gamma_disc=v["train.gamma_disc"],
            rho_target=v["train.rho_target"],
            dyn_kind=v["train.dyn_kind"],
            dyn_mlp_steps=v["train.dyn_mlp_steps"],
            notears=self.notears_config(),
            guidance=self.guidance_config())


def parse_config(text):
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, CONFIG_SCHEMA[key][0], raw)
    return RunConfig(values)


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def dump_config(cfg):
    """All effective values, schema order, one key per line."""
    lines = []
    for key, (kind, _) in CONFIG_SCHEMA.items():
        lines.append(f"{key} = {_render(kind, cfg.values[key])}")
    return "\n".join(lines) + "\n"
