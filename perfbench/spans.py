"""Spans recorded around calls into cgdp's public functions.

A wrapper replaces a function at every place a caller looks it up: the
attribute of each loaded ``cgdp`` module that holds the original (so
``cgdp.rl.ddim_sample`` and ``cgdp.cli.ddim_sample`` are both wrapped),
or the attribute of the class for a method.  Nothing inside the package
changes, and ``Tracer.uninstall`` puts every original back.

A span is ``(id, parent, thread, name, start, end, ok, note)``.  Spans
are kept in memory and summarised per round; a layer's self time is its
duration minus the durations of its child spans.
"""

import csv
import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _rows(x):
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _note_rows_arg(index):
    def note(args, kwargs, result):
        return _rows(args[index])
    return note


def _note_zero_lambda(args, kwargs, result):
    hook, k = args[0], args[2]
    return hook.cfg.lam_at(k) == 0.0


def _note_euler_steps(args, kwargs, result):
    return len(result[0]) - 1


def _note_nonzero_h(args, kwargs, result):
    h = result[0] if isinstance(result, tuple) else result
    return h != 0.0


def _note_online(args, kwargs, result):
    """(env steps, refreshes due) of one online_stage call.  lin-scm
    episodes always run the full horizon."""
    env, cfg = args[0], args[2]
    steps = len(result[0]) * env.spec.horizon
    due = steps // cfg.mask_refresh if cfg.mask_refresh > 0 else 0
    return steps, due


def _note_lemma1(args, kwargs, result):
    return args[0], result


# (span name, module, function or "Class.method", note)
STAGE_POINTS = [
    ("offline_stage", "cgdp.rl", "offline_stage", None),
    ("online_stage", "cgdp.rl", "online_stage", _note_online),
    ("check_lemma1", "cgdp.verify", "check_lemma1", _note_lemma1),
]

LAYER_POINTS = [
    ("mat_expm", "cgdp.numerics", "mat_expm", None),
    ("mlp_forward", "cgdp.numerics", "Mlp.forward_cache", _note_rows_arg(1)),
    ("mlp_backward", "cgdp.numerics", "Mlp.backward", None),
    ("adam_step", "cgdp.numerics", "AdamState.step", None),
    ("ddim_sample", "cgdp.diffusion", "ddim_sample", _note_rows_arg(2)),
    ("ddpm_sample", "cgdp.diffusion", "ddpm_sample", None),
    ("train_noise_net", "cgdp.diffusion", "train_noise_net", None),
    ("hook", "cgdp.guidance", "GuidanceHook.__call__", _note_zero_lambda),
    ("joint_grad", "cgdp.guidance", "GuidanceHook.joint_grad", None),
    ("euler_maruyama", "cgdp.guidance", "euler_maruyama_guided",
     _note_euler_steps),
    ("estimate_lipschitz", "cgdp.guidance", "estimate_lipschitz", None),
    ("fit_dynamics", "cgdp.dynamics", "fit_dynamics", None),
    ("discover_masks", "cgdp.discovery", "discover_masks", None),
    ("notears_fit", "cgdp.discovery", "notears_fit", None),
    ("acyclicity", "cgdp.discovery", "acyclicity", _note_nonzero_h),
    ("critic_update", "cgdp.rl", "critic_update", None),
    ("policy_update", "cgdp.rl", "policy_update", None),
    ("buffer_sample", "cgdp.rl", "ReplayBuffer.sample", None),
    ("generate_dataset", "cgdp.scm", "generate_dataset", None),
    ("save_dataset", "cgdp.scm", "save_dataset", None),
    ("load_dataset", "cgdp.scm", "load_dataset", None),
    ("step", "cgdp.envs", "Environment.step", None),
    ("check_prop1", "cgdp.verify", "check_prop1", None),
    ("check_prop2", "cgdp.verify", "check_prop2", None),
    ("check_theorem1", "cgdp.verify", "check_theorem1", None),
]


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self):
        self._spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, note):
        record = self._spans.append
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                extra = note(args, kwargs, result) if ok and note else None
                record((sid, parent, get_ident(), name, start, end, ok,
                        extra))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        sid = next(self._ids)
        stack.append(sid)
        ok = False
        start = time.perf_counter()
        try:
            yield
            ok = True
        finally:
            end = time.perf_counter()
            stack.pop()
            self._spans.append((sid, parent, threading.get_ident(), name,
                                start, end, ok, None))

    def install(self, points):
        """Wrap every point; returns what ``uninstall`` restores."""
        installed = []
        for name, module_name, target, note in points:
            module = importlib.import_module(module_name)
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                installed.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, note))
                continue
            original = getattr(module, target)
            wrapper = self._wrap(original, name, note)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "cgdp"
                                       or mod_name.startswith("cgdp.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        installed.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return installed

    @staticmethod
    def uninstall(installed):
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)

    def take(self):
        """Spans recorded since the last call, oldest first by end."""
        spans = self._spans[:]
        del self._spans[:]
        return spans


def self_times(spans):
    """Map span id -> duration minus the durations of its children."""
    child = defaultdict(float)
    for sid, parent, _, _, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return {sid: (end - start) - child[sid]
            for sid, _, _, _, start, end, _, _ in spans}


def layer_metrics(spans):
    """Per-layer counts and times of one round of spans.

    ``*_s`` is self time, except the stage totals offline_stage_s,
    online_stage_s (mean per training run), act_s, ablate_arm_s and
    check_*_s, which are inclusive.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    for sid, _, _, name, start, end, _, _ in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        incl_s[name] += end - start

    m = {}
    for name in ("mlp_forward", "mlp_backward", "adam_step", "mat_expm",
                 "ddim_sample", "hook", "joint_grad", "fit_dynamics",
                 "discover_masks", "acyclicity", "critic_update",
                 "policy_update", "step"):
        m[f"{name}_calls"] = calls[name]
    for name in ("mlp_forward", "mlp_backward", "adam_step", "mat_expm",
                 "ddim_sample", "ddpm_sample", "train_noise_net", "hook",
                 "joint_grad", "euler_maruyama", "estimate_lipschitz",
                 "fit_dynamics", "discover_masks", "notears_fit",
                 "acyclicity", "critic_update", "policy_update",
                 "buffer_sample", "generate_dataset", "save_dataset",
                 "load_dataset", "step"):
        m[f"{name}_s"] = self_s[name]
    for name in ("check_lemma1", "check_prop1", "check_prop2",
                 "check_theorem1"):
        m[f"{name}_s"] = incl_s[name]

    m["mlp_forward_rows"] = 0
    m["ddim_sample_rows"] = 0
    m["act_calls"] = 0
    m["act_s"] = 0.0
    m["hook_zero_lambda_calls"] = 0
    m["acyclicity_nonzero_calls"] = 0
    m["euler_steps"] = 0
    online = []
    offline = []
    arms = defaultdict(list)   # thread -> stage spans in order
    for span in spans:
        sid, parent, tid, name, start, end, ok, note = span
        if name == "mlp_forward" and ok:
            m["mlp_forward_rows"] += note
        elif name == "ddim_sample" and ok:
            m["ddim_sample_rows"] += note
            if note == 1:
                m["act_calls"] += 1
                m["act_s"] += end - start
        elif name == "hook" and ok:
            m["hook_zero_lambda_calls"] += int(note)
        elif name == "acyclicity" and ok:
            m["acyclicity_nonzero_calls"] += int(note)
        elif name == "euler_maruyama" and ok:
            m["euler_steps"] += note
        elif name == "online_stage":
            online.append(span)
            arms[tid].append(span)
        elif name == "offline_stage":
            offline.append(span)
            arms[tid].append(span)

    m["offline_stage_s"] = statistics.fmean(
        [s[5] - s[4] for s in offline]) if offline else 0.0
    m["online_stage_s"] = statistics.fmean(
        [s[5] - s[4] for s in online]) if online else 0.0
    # an arm: one thread's offline_stage then online_stage inside cgdp ablate
    ablate = [(s[4], s[5]) for s in spans if s[3] == "cmd:ablate"]
    arm_times = []
    for seq in arms.values():
        for first, second in zip(seq, seq[1:]):
            if first[3] == "offline_stage" and second[3] == "online_stage" \
                    and any(a <= first[4] and second[5] <= b
                            for a, b in ablate):
                arm_times.append(second[5] - first[4])
    m["ablate_arm_s"] = statistics.median(arm_times) if arm_times else 0.0

    # refreshes: due every mask_refresh env steps; a discover_masks call
    # made directly by online_stage is an attempt, and a fit_dynamics call
    # there that returns is an applied refresh
    attempted = applied = tried = 0
    online_ids = {s[0] for s in online}
    for span in online:
        if span[6]:
            attempted += span[7][1]
    for sid, parent, _, name, _, _, ok, _ in spans:
        if parent in online_ids:
            if name == "discover_masks":
                tried += 1
            elif name == "fit_dynamics" and ok:
                applied += 1
    m["refresh_attempted"] = attempted
    m["refresh_applied"] = applied
    m["refresh_skipped"] = attempted - tried
    m["refresh_failed"] = tried - applied
    return m


def write_spans(path, rounds):
    """All traced rounds' spans as CSV, one span a line."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["round", "id", "parent", "thread", "name", "start",
                      "end", "ok"])
        for index, spans in rounds:
            for sid, parent, tid, name, start, end, ok, _ in spans:
                out.writerow([index, sid, parent, tid, name,
                              f"{start:.9f}", f"{end:.9f}", int(ok)])
