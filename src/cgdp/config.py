"""Flat ``key = value`` run configuration with namespaced keys.

Every tunable of the pipeline appears under a dotted namespace
(``guidance.lambda``, ``train.lr``, ...).  The ``env.*``, ``train.*``,
``notears.*`` and ``guidance.*`` keys are the fields of ``EnvSpec``,
``TrainerConfig``, ``NotearsConfig`` and ``GuidanceConfig``, in field
order, with the fields' defaults; the rest are listed below.  Unknown
keys are rejected at parse time; dumping always emits every effective
value, defaults included, so load(dump(cfg)) reproduces cfg exactly.
"""

from dataclasses import fields, is_dataclass

from .discovery import NotearsConfig
from .envs import EnvSpec
from .guidance import GuidanceConfig
from .rl import TrainerConfig

__all__ = ["RunConfig", "parse_config", "load_config", "dump_config",
           "CONFIG_SCHEMA"]

_TAGS = {int: "int", float: "float", str: "str"}


def _widths(text, key):
    """Layer widths from a comma-separated list of integers >= 1; the
    empty string is no layer."""
    try:
        widths = tuple(int(w) for w in text.split(",")) if text else ()
    except ValueError:
        widths = None
    if widths is None or min(widths, default=1) < 1:
        raise ValueError(f"config key {key!r} must be comma-separated "
                         f"integers >= 1, got {text!r}")
    return widths


# the fields whose key is not ``<namespace>.<field>`` with the field's
# type: field -> (key suffix, type tag); a "widths" key holds the comma
# string of its field's tuple
_IRREGULAR = {"lam": ("lambda", "float"), "hidden": ("hidden", "widths")}
_FIELDS = {}   # config class -> [(field, its key)]


def _derive(namespace, cls):
    """The schema entries of ``cls``'s plain fields, in field order (a
    nested config is built apart); records in ``_FIELDS`` which key
    each field is read back from."""
    defaults, schema = cls(), {}
    _FIELDS[cls] = []
    for f in fields(cls):
        value = getattr(defaults, f.name)
        if is_dataclass(value):
            continue
        suffix, tag = _IRREGULAR.get(f.name) or (f.name,
                                                 _TAGS[type(value)])
        if tag == "widths":
            value = ",".join(map(str, value))
        key = f"{namespace}.{suffix}"
        schema[key] = (tag, value)
        _FIELDS[cls].append((f.name, key))
    return schema


# key -> (type tag, default); order fixes the dump layout
CONFIG_SCHEMA = {
    "seed": ("int", 0),
    **_derive("env", EnvSpec),
    "data.path": ("str", "dataset.txt"),
    "data.episodes": ("int", 400),
    "data.horizon": ("int", 5),
    "data.behavior_noise": ("float", 1.5),
    **_derive("train", TrainerConfig),
    **_derive("notears", NotearsConfig),
    **_derive("guidance", GuidanceConfig),
    "eval.episodes": ("int", 20),
    "ablate.flip_prob": ("float", 0.25),
    "ablate.seeds": ("int", 5),
    "verify.samples": ("int", 20000),
    "verify.k_steps": ("int", 1000),
    "verify.seeds": ("int", 20),
    "verify.dynamics": ("str", ""),
}

# counts that must be at least this: fewer is no count, or makes a
# table, a check or an evaluation of nothing
_MINIMUM = {"data.episodes": 0, "data.horizon": 1, "ablate.seeds": 1,
            "verify.seeds": 1, "eval.episodes": 1}


def _check(key, value):
    if key not in CONFIG_SCHEMA:
        raise ValueError(f"unknown config key {key!r}")
    if key in _MINIMUM and value < _MINIMUM[key]:
        raise ValueError(f"config key {key!r} must be >= {_MINIMUM[key]}, "
                         f"got {value}")
    if CONFIG_SCHEMA[key][0] == "widths":
        _widths(value, key)


def _coerce(key, kind, raw):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ValueError(f"bad value {raw!r} for config key {key!r}")


def _render(kind, value):
    if kind == "float":
        return repr(float(value))
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

    def _typed(self, key):
        value = self.values[key]
        return _widths(value, key) if CONFIG_SCHEMA[key][0] == "widths" \
            else value

    def _build(self, cls, **nested):
        return cls(**nested, **{name: self._typed(key)
                                for name, key in _FIELDS[cls]})

    def env_spec(self):
        return self._build(EnvSpec)

    def notears_config(self):
        return self._build(NotearsConfig)

    def guidance_config(self):
        return self._build(GuidanceConfig)

    def trainer_config(self):
        return self._build(TrainerConfig, notears=self.notears_config(),
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
