"""The benchmark's traced run (perfbench/spans.py) wraps cgdp functions by
name and reads notes off their arguments; a refactor that renames one of
them, or moves an argument a note reads, must fail here."""

import importlib
import importlib.util
import os

from cgdp.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRAIN_CFG = """
env.n = 3
env.d = 2
env.horizon = 5
data.episodes = 40
train.offline_steps = 20
train.online_episodes = 2
train.mask_refresh = 5
train.refresh_min_action_std = 0.0
train.hidden = 8
train.batch_size = 8
"""


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def test_every_wrapped_point_resolves():
    missing = []
    for name, module_name, target, _ in spans.STAGE_POINTS + \
            spans.LAYER_POINTS:
        module = importlib.import_module(module_name)
        owner, attr = module, target
        if "." in target:
            cls_name, attr = target.split(".")
            owner = vars(getattr(module, cls_name, object))
            found = owner.get(attr)
        else:
            found = getattr(owner, attr, None)
        if not callable(found):
            missing.append(f"{name}: {module_name}.{target}")
    assert missing == []


def test_traced_train_reads_every_note(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TRAIN_CFG)
    args = ["--config", str(cfg_path), "--out", str(tmp_path)]
    assert main(["gen-data", *args]) == 0
    tracer = spans.Tracer()
    installed = tracer.install(spans.STAGE_POINTS + spans.LAYER_POINTS)
    try:
        assert main(["train", *args]) == 0
    finally:
        spans.Tracer.uninstall(installed)
    recorded = tracer.take()
    assert all(ok for *_, ok, _ in recorded)
    metrics = spans.layer_metrics(recorded)
    assert metrics["act_calls"] == 2 * 5
    assert metrics["hook_calls"] > 0 and metrics["joint_grad_calls"] > 0
    assert metrics["hook_zero_lambda_calls"] == 0
    assert metrics["mlp_forward_rows"] > metrics["mlp_forward_calls"]
    assert metrics["refresh_attempted"] == 2
    assert metrics["refresh_applied"] + metrics["refresh_failed"] + \
        metrics["refresh_skipped"] == 2


VERIFY_CFG = """
verify.seeds = 1
verify.samples = 10000
verify.k_steps = 500
"""


def traced_verify(tmp_path):
    """The spans and notes this process records in one ``cgdp verify``."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(VERIFY_CFG)
    tracer = spans.Tracer()
    installed = tracer.install(spans.STAGE_POINTS + spans.LAYER_POINTS)
    try:
        assert main(["verify", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
    finally:
        spans.Tracer.uninstall(installed)
    recorded = tracer.take()
    assert all(ok for *_, ok, _ in recorded)
    notes = {}
    for _, _, _, name, _, _, _, note in recorded:
        notes.setdefault(name, []).append(note)
    return recorded, notes


def test_traced_verify_reads_every_note(tmp_path, monkeypatch):
    # one CPU: every check runs in this process, where the tracer is;
    # forked checks keep their spans in the worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    recorded, notes = traced_verify(tmp_path)
    # one lockstep call per step size, one for the stiff companion
    assert len(notes["euler_maruyama"]) == 6
    assert all(steps > 0 for steps in notes["euler_maruyama"])
    ((spec, report),) = notes["check_lemma1"]
    assert report["passed"] and spec.mu_bar.shape == (2,)
    metrics = spans.layer_metrics(recorded)
    assert metrics["euler_steps"] == sum(notes["euler_maruyama"]) > 0
    assert metrics["joint_grad_calls"] >= metrics["euler_steps"]
    for name in ("check_lemma1", "check_prop1", "check_prop2",
                 "check_theorem1"):
        assert metrics[f"{name}_s"] > 0.0


def test_pooled_verify_traces_lemma1_here(tmp_path, monkeypatch):
    # the benchmark reads lemma1's (spec, report) off this process's spans
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _, notes = traced_verify(tmp_path)
    ((spec, report),) = notes["check_lemma1"]
    assert report["passed"] and spec.mu_bar.shape == (2,)
    assert "check_prop1" not in notes and "check_theorem1" not in notes
