"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, at minimal length: the last line
   of output has exactly the keys correct, attempted, failed and metrics;
   every metric that BENCHMARK.json names is printed with its unit and
   nothing else is; and no op fails.
2. A corrupted output is counted as a failed op, for every workload. The
   corruptions are small (1e-6 to 1e-5 relative), so this also shows that
   the reference tolerance rejects them.
3. Without the spoonarm sources the benchmark exits non-zero and prints no
   result.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def require(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[section]}
        for workload in run.WORKLOAD_NAMES:
            proc = run_bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            require(proc.returncode == 0, f"{where} exited {proc.returncode}:"
                    f" {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            require(set(result) == RESULT_KEYS, f"{where} keys {set(result)}")
            require(result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1, f"{where} {result}")
            printed = result["metrics"]
            require(set(printed) == set(units),
                    f"{where} metrics differ from {section}: "
                    f"{sorted(set(printed) ^ set(units))}")
            for name, metric in printed.items():
                require(metric["unit"] == units[name]
                        and math.isfinite(metric["value"]),
                        f"{where} {name} = {metric}")
            print(f"ok  {where}: {len(printed)} metrics")


def corrupt_example_csv(output):
    path = run.OUT_DIR / f"example-seed{SEED}.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[-1].rstrip("\n").split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)     # final theta2
    lines[-1] = ",".join(fields) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return output


def corrupt_sweep_report(report):
    return replace(report, rms_deviation=report.rms_deviation * (1 + 1e-5))


def corrupt_design_output(output):
    if isinstance(output, dict):    # spring synthesis
        return {kind: replace(result, spring_j2=replace(
                    result.spring_j2,
                    stiffness=result.spring_j2.stiffness * (1 + 1e-5)))
                for kind, result in output.items()}
    rows = list(output)             # compare-handles table
    rows[1] = (*rows[1][:4], rows[1][4] * (1 + 1e-5))
    return tuple(rows)


CORRUPTIONS = {
    "example_rollout": corrupt_example_csv,
    "damper_sweep": corrupt_sweep_report,
    "design_studies": corrupt_design_output,
}
CORRUPTED = (1, 3)  # positions in the first window; design: synthesize, compare


def check_corruption_counted():
    run.OUT_DIR.mkdir(exist_ok=True)
    for name, corrupt in CORRUPTIONS.items():
        workload = workloads.build(name, SEED, run.OUT_DIR)
        plan = [workload.ops[i % len(workload.ops)]
                for i in range(run.WINDOW)]
        workload.ops = [op if i not in CORRUPTED else workloads.Op(
            op.name, lambda op=op: (corrupt(op.run()[0]), 0), op.check)
            for i, op in enumerate(plan)]
        stats = run.run_loop(workload, 0.0)
        require(stats["attempted"] == run.WINDOW
                and stats["failed"] == len(CORRUPTED),
                f"{name}: {stats['failed']} of {stats['attempted']} ops "
                f"failed, expected {len(CORRUPTED)}: {stats['errors']}")
        print(f"ok  {name}: corrupted outputs counted as failed ops")


def check_fails_without_sources():
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, "example_rollout", 0)
    require(proc.returncode != 0 and not proc.stdout.strip(),
            f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  without sources: exit", proc.returncode, "and no result")


if __name__ == "__main__":
    check_fails_without_sources()
    check_corruption_counted()
    check_metrics_printed()
    print("selftest passed")
