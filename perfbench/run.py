"""Benchmark of the cgdp command line: one workload per run.

    python3 perfbench/run.py --workload ablate|highdim|verify|all \
        --seed N --seconds S --trace 0|1

The load is a closed loop: this one process runs the workload's cgdp
commands one after another, in rounds, until S seconds have passed (at
least two rounds), and checks every command's outputs.  Set-up (a fresh
interpreter importing cgdp and writing the dataset) is timed apart, five
times.  With --trace 0 the last line is a JSON object with the
end-to-end metrics; with --trace 1 rounds alternate untraced and traced
and the JSON holds the per-layer metrics and the tracing overhead.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

# one BLAS thread per Python thread: the ablation's thread pool then uses
# no more threads than cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
NPROC = len(os.sched_getaffinity(0))
os.environ["CGDP_THREADS"] = str(NPROC)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 5
MIN_ROUNDS = 2
ROUND_CAP_S = 150.0   # start no round that could end past this

_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from cgdp.cli import main; "
               "sys.exit(main(sys.argv[2:]) if len(sys.argv) > 2 else 0)")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
PHASES = (("env_steps_per_s", "steps/s"), ("offline_s", "s"),
          ("discover_s", "s"), ("act_ms", "ms"))


class Context:
    """What a check sees: the run's config and output directory, values
    carried between rounds, and the arguments and report of the round's
    lemma1 check."""

    def __init__(self, cfg, out):
        self.cfg = cfg
        self.out = out
        self.memo = {}
        self.lemma1 = None


def _time_setup(workload, cfg_path, out):
    args = [] if workload.setup is None else \
        workload.setup + ["--config", cfg_path, "--out", out]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, SRC, *args],
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return statistics.median(times)


def _run_round(workload, ctx, main, tracer, log):
    """Run every command once, then check its outputs.

    Returns (wall s, cpu s, per-command wall s, spans, operations), an
    operation being (command, [(check, ok, message)]).
    """
    cmd_times = {}
    checks = []
    cpu_start = time.process_time()
    start = time.perf_counter()
    for args, check in workload.commands:
        argv = args + ["--config", os.path.join(ctx.out, "run.cfg"),
                       "--out", ctx.out]
        t0 = time.perf_counter()
        with tracer.span("cmd:" + args[0]), redirect_stdout(log), \
                redirect_stderr(log):
            rc = main(argv)
        cmd_times[args[0]] = time.perf_counter() - t0
        checks.append((args[0], rc, check))
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    spans = tracer.take()

    lemma1 = [s[7] for s in spans if s[3] == "check_lemma1" and s[6]]
    ctx.lemma1 = lemma1[-1] if lemma1 else None
    ops = []
    for name, rc, check in checks:
        results = [("exit_code", rc == 0, f"exit {rc}")]
        if rc == 0:
            try:
                results += list(check(ctx))
            except (OSError, ValueError, KeyError, IndexError,
                    StopIteration, TypeError) as exc:
                results.append(("outputs_readable", False, repr(exc)))
        ops.append((name, results))
    return wall, cpu, cmd_times, spans, ops


def _phase_metrics(cfg, spans, cmd_times):
    online = [s for s in spans if s[3] == "online_stage" and s[6]]
    offline = [s for s in spans if s[3] == "offline_stage" and s[6]]
    steps = sum(s[7][0] for s in online)
    busy = sum(s[5] - s[4] for s in online)
    actions = cfg["eval.episodes"] * cfg["env.horizon"]
    return {
        "env_steps_per_s": steps / busy if busy else 0.0,
        "offline_s": statistics.fmean(s[5] - s[4] for s in offline)
        if offline else 0.0,
        "discover_s": cmd_times.get("discover", 0.0),
        "act_ms": 1e3 * cmd_times["eval"] / actions
        if "eval" in cmd_times else 0.0,
    }


def _median_dict(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def run_workload(name, seed, seconds, trace):
    import workloads
    from spans import LAYER_POINTS, STAGE_POINTS, Tracer, layer_metrics, \
        write_spans

    workload = workloads.WORKLOADS[name]
    out = os.path.join(OUT, name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cfg_path = os.path.join(out, "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(workload.config.format(seed=seed))

    began = time.perf_counter()
    setup_s = _time_setup(workload, cfg_path, out)

    sys.path.insert(0, SRC)
    import cgdp
    from cgdp.cli import main
    from cgdp.config import load_config
    if not os.path.abspath(cgdp.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported cgdp from {cgdp.__file__}, not {SRC}")
    cfg = load_config(cfg_path)
    ctx = Context(cfg, out)
    tracer = Tracer()
    tracer.install(STAGE_POINTS)

    setup_layers = {}
    if trace and workload.setup is not None:
        handle = tracer.install(LAYER_POINTS)
        with open(os.path.join(out, "setup.log"), "w") as log, \
                redirect_stdout(log):
            main(workload.setup + ["--config", cfg_path, "--out", out])
        Tracer.uninstall(handle)
        setup_layers = layer_metrics(tracer.take())

    rounds = []
    traced_spans = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    with open(os.path.join(out, "commands.log"), "w") as log, \
            open(os.path.join(out, "checks.log"), "w") as check_log:
        while True:
            traced = bool(trace) and len(rounds) % 2 == 1
            handle = tracer.install(LAYER_POINTS) if traced else None
            try:
                wall, cpu, cmd_times, spans, ops = _run_round(
                    workload, ctx, main, tracer, log)
            finally:
                if handle is not None:
                    Tracer.uninstall(handle)
            for op, results in ops:
                attempted += 1
                for check, ok, msg in results:
                    check_log.write(f"round {len(rounds)} {op} {check} "
                                    f"{'ok' if ok else 'FAILED'}: {msg}\n")
                bad = [(c, msg) for c, ok, msg in results if not ok]
                if bad:
                    failed += 1
                for check, msg in bad:
                    if check not in workloads.KNOWN_FAULTS:
                        correct = False
                    print(f"round {len(rounds)} {op}: {check} failed: {msg}",
                          file=sys.stderr)
            rounds.append({"traced": traced, "wall": wall, "cpu": cpu,
                           "phases": _phase_metrics(cfg, spans, cmd_times)})
            if traced:
                rounds[-1]["layers"] = layer_metrics(spans)
                traced_spans.append((len(rounds) - 1, spans))
            elapsed = time.perf_counter() - start
            pairs_done = not trace or len(rounds) % 2 == 0
            if len(rounds) >= MIN_ROUNDS and elapsed >= seconds and pairs_done:
                break
            if time.perf_counter() - began + wall > ROUND_CAP_S and pairs_done:
                break

    plain = [r for r in rounds if not r["traced"]]
    wall_s = statistics.median(r["wall"] for r in plain)
    phases = _median_dict([r["phases"] for r in plain])
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = _median_dict([r["layers"] for r in traced_rounds])
        for key in ("generate_dataset_s", "save_dataset_s"):
            metrics[key] = setup_layers.get(key, 0.0)
        metrics.update(phases)
        traced_wall = statistics.median(r["wall"] for r in traced_rounds)
        metrics["untraced_wall_s"] = wall_s
        metrics["traced_wall_s"] = traced_wall
        metrics["trace_overhead_pct"] = 100.0 * (traced_wall / wall_s - 1.0)
        write_spans(os.path.join(out, "spans.csv"), traced_spans)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    units = dict(END_TO_END + PHASES)
    print(f"workload {name}: seed {seed}, {len(rounds)} rounds "
          f"({'alternately traced' if trace else 'untraced'}), "
          f"CGDP_THREADS={NPROC}, BLAS threads 1")
    print("  round wall/cpu times (s): " + " ".join(
        f"{r['wall']:.3f}/{r['cpu']:.3f}{'*' if r['traced'] else ''}"
        for r in rounds))
    shown = dict(metrics) if trace else {**metrics, **phases}
    for key, value in shown.items():
        print(f"  {key:26s} {value:14.6f} {units.get(key, _unit(key))}")
    print(f"  operations attempted {attempted}, failed {failed}, "
          f"correct {correct}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, _unit(k))}
                    for k, v in metrics.items()},
    }
    return result


def _unit(key):
    if key.endswith("_pct"):
        return "%"
    if key.endswith("_s"):
        return "s"
    return "count"


def run_all(seed, seconds, trace):
    """Every workload in a fresh process of its own, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("ablate", "highdim", "verify"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ablate", "highdim", "verify", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cgdp", "__init__.py")):
        print(f"error: no cgdp sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
