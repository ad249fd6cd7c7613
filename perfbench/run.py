"""spoonarm benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One client in one process and one thread
starts each op only after the previous one returned; its output is then
checked and calibration passes run (neither is timed as part of the op).
The run ends at the first window of WINDOW ops that completes after S
seconds. Times in the end-to-end metrics are scaled by the host's speed
in the run, as calibration.py measures it.

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload
untraced for S/2 seconds and traced for S/2 seconds, then runs the layer
probes, and prints the per-layer metrics; the spans go to
perfbench/out/spans-<workload>-seed<N>.json. Either way the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics, and the full results with their provenance go to
perfbench/out/<workload>-seed<N>-trace<T>.json.

Seed HELD_OUT_SEED is kept for confirming claims: do not use it while
developing a change.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# single-threaded BLAS/OpenMP for this process and every child it starts;
# numpy is first imported below, after this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import calibration  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("example_rollout", "damper_sweep", "design_studies")
HELD_OUT_SEED = 20201013
WINDOW = 5          # the run stops on a multiple of this: a design round
TAIL_BEYOND = 10    # the tail percentile keeps this many samples above it
SETUP_RUNS = 7      # fresh interpreters timed per run (after one warm-up)
CALIBRATION_SHARE = 0.1  # calibration time per second of op time
TRIM = 0.1          # share cut from each end for a trimmed mean

SETUP_CODE = """\
import json, time
t0 = time.monotonic()
import spoonarm.cli
t1 = time.monotonic()
from spoonarm.config import default_config_path, load_config
load_config(default_config_path())
t2 = time.monotonic()
print(json.dumps([t0, t1, t2]))
"""


class SetupTimer:
    """Fresh interpreter to spoonarm imported and default config loaded.

    The samples are spread over the run, so that a few busy seconds of
    the host do not decide their median. Parent and child clocks are
    both CLOCK_MONOTONIC.
    """

    def __init__(self, seconds: float):
        self.every = seconds / SETUP_RUNS
        self.setup_s, self.import_s = [], []
        self._sample()      # compiles bytecode, fills the page cache
        self.setup_s.clear()
        self.import_s.clear()

    def _sample(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        t0, t1, t2 = json.loads(proc.stdout)
        self.setup_s.append(t2 - start)
        self.import_s.append(t1 - t0)

    def tick(self, elapsed: float):
        """Called between windows; samples when one is due."""
        if len(self.setup_s) < SETUP_RUNS and \
                elapsed >= len(self.setup_s) * self.every:
            self._sample()

    def finish(self) -> dict:
        while len(self.setup_s) < SETUP_RUNS:
            self._sample()
        return {"setup_s": statistics.median(self.setup_s),
                "import_s": statistics.median(self.import_s),
                "setup_samples_s": self.setup_s,
                "import_samples_s": self.import_s}


def tail_index(n: int) -> int:
    """Index of p90 in n sorted samples, or of the highest percentile
    that still has TAIL_BEYOND samples above it."""
    return max(min(math.ceil(0.9 * n) - 1, n - 1 - TAIL_BEYOND), (n - 1) // 2)


def trimmed_mean(values, cut: float = TRIM) -> float:
    """Mean of `values` without the lowest and highest `cut` of them."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def scaled_rates(ops, passes) -> dict:
    """Throughput of a round of one op of each kind, on the host speed
    that calibration.REFERENCE_S names.

    Each kind of op contributes its trimmed mean latency to the round.
    The round time is divided by the host's slowdown in this run: the
    trimmed mean time of the calibration passes over
    calibration.REFERENCE_S. The unscaled figures are kept beside the
    scaled ones.
    """
    kinds = {}
    for name, latency, steps in ops:
        kinds.setdefault(name, []).append((latency, steps))
    round_s = sum(trimmed_mean([lat for lat, _ in v])
                  for v in kinds.values())
    round_steps = sum(statistics.median(n for _, n in v)
                      for v in kinds.values())
    pass_s = trimmed_mean(passes)
    scaled_round_s = round_s * calibration.REFERENCE_S / pass_s
    return {
        "ops_per_s": len(kinds) / scaled_round_s,
        "sim_steps_per_s": round_steps / scaled_round_s,
        "raw_ops_per_s": len(kinds) / round_s,
        "raw_sim_steps_per_s": round_steps / round_s,
        "calibration_pass_ms": pass_s * 1e3,
    }


def run_loop(workload, seconds: float, tracer=None, tick=None) -> dict:
    """Closed loop over the workload's ops for at least `seconds`.

    Each op is followed by its check and by as many calibration passes
    as keep their total at CALIBRATION_SHARE of the total op time;
    neither counts in the op's latency. `tick(elapsed seconds)` is
    called after each window, outside the timed ops."""
    ops, errors, passes = [], [], []
    op_s = calibration_s = 0.0
    cycle = itertools.cycle(workload.ops)
    start = time.perf_counter()
    while True:
        for _ in range(WINDOW):
            op = next(cycle)
            error = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output, steps = op.run()
                else:
                    with tracer.op(op.name):
                        output, steps = op.run()
            except Exception:   # a failed op is counted, the loop goes on
                error = traceback.format_exc(limit=3)
                steps = 0
            latency = time.perf_counter() - t0
            ops.append((op.name, latency, steps))
            op_s += latency
            if error is None:
                try:
                    op.check(output)
                except Exception:
                    error = traceback.format_exc(limit=3)
            if error is not None:
                errors.append(f"op {len(ops) - 1} ({op.name}): {error}")
            while calibration_s < CALIBRATION_SHARE * op_s:
                passes.append(calibration.timed_pass())
                calibration_s += passes[-1]
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
        if tick is not None:
            tick(elapsed)

    ordered = sorted(latency for _, latency, _ in ops)
    tail = tail_index(len(ordered))
    return {
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors[:10],
        **scaled_rates(ops, passes),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": ordered[tail] * 1e3,
        "op_tail_percentile": 100.0 * (tail + 1) / len(ordered),
        "wall_s": time.perf_counter() - start,
        "ops": [[name, latency * 1e3, steps]
                for name, latency, steps in ops],
        "calibration_passes_ms": [p * 1e3 for p in passes],
    }


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "spoonarm").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load": "closed loop, 1 client, 1 process, 1 thread",
    }


def end_to_end(stats: dict, setup: dict) -> dict:
    slowdown = stats["calibration_pass_ms"] / 1e3 / calibration.REFERENCE_S
    return {
        "setup_s": (setup["setup_s"] / slowdown, "s"),
        "ops_per_s": (stats["ops_per_s"], "1/s"),
        "sim_steps_per_s": (stats["sim_steps_per_s"], "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ops_ratio": (1.0 - stats["failed"] / stats["attempted"], "ratio"),
    }


LAYERS = ("kinematics", "statics", "dynamics", "analysis", "config",
          "serialize", "cli", "bench")


def per_layer(untraced: dict, traced: dict, tracer, probe: dict,
              setup: dict) -> dict:
    ops = tracer.ops
    metrics = dict(probe)
    metrics["cli.import_ms"] = (setup["import_s"] * 1e3, "ms")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (tracer.self_s[layer] / ops * 1e3,
                                       "ms/op")
    ik_calls, ik_failures, _ = tracer.totals("kinematics.inverse_kinematics")
    metrics["kinematics.ik_calls"] = (ik_calls / ops, "count/op")
    metrics["kinematics.ik_failures"] = (ik_failures / ops, "count/op")
    metrics["dynamics.steps"] = (
        tracer.counters["dynamics.steps"] / ops, "count/op")
    metrics["dynamics.limit_contacts"] = (
        tracer.counters["dynamics.limit_contacts"], "count")
    metrics["serialize.bytes_written"] = (
        tracer.counters["serialize.bytes_written"] / ops, "B/op")
    layer_s = sum(tracer.self_s[layer] for layer in LAYERS[:-1])
    metrics["trace.op_ms"] = (tracer.op_s / ops * 1e3, "ms/op")
    metrics["trace.layer_share"] = (layer_s / tracer.op_s, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.ops_per_s_untraced"] = (untraced["ops_per_s"], "1/s")
    metrics["trace.ops_per_s_traced"] = (traced["ops_per_s"], "1/s")
    metrics["trace.overhead_ops_per_s"] = (
        traced["ops_per_s"] - untraced["ops_per_s"], "1/s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "spoonarm" / "__init__.py").is_file():
        print(f"run.py: no spoonarm sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import probes
    import workloads
    from tracer import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, OUT_DIR)
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        setup_timer = SetupTimer(args.seconds / 2)
        untraced = run_loop(workload, args.seconds / 2,
                            tick=setup_timer.tick)
        setup = setup_timer.finish()
        tracer = Tracer()
        with tracer.installed():
            traced = run_loop(workload, args.seconds / 2, tracer)
        tracer.write(OUT_DIR / f"spans-{tag}.json")
        metrics = per_layer(untraced, traced, tracer,
                            probes.run(workload, args.seed, OUT_DIR), setup)
        loops = {"untraced": untraced, "traced": traced}
    else:
        setup_timer = SetupTimer(args.seconds)
        stats = run_loop(workload, args.seconds, tick=setup_timer.tick)
        setup = setup_timer.finish()
        metrics = end_to_end(stats, setup)
        loops = {"untraced": stats}

    attempted = sum(s["attempted"] for s in loops.values())
    failed = sum(s["failed"] for s in loops.values())
    for stats in loops.values():
        for error in stats["errors"]:
            print(error, file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    info = provenance(args)
    with open(OUT_DIR / f"{tag}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"provenance": info, "setup": setup, "loops": loops,
                   **result}, fh, indent=1)
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
