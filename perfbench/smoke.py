"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks that every workload, untraced and traced, exits 0 and ends its output
with the result object carrying every metric BENCHMARK.json names, with its
unit; that the report prints every end-to-end metric by the name used in
the workload descriptions; and that a deliberately corrupted output trips
the workload's check. Exits 0 when all of that holds.
"""

import json
import subprocess
import sys
from pathlib import Path

import run

# report names each workload must print as "metric <name> <value> <unit>"
REPORTED = {
    "train_prune": ("train_samples_per_s", "p_acc_pruned"),
    "sweep": ("eval_samples_per_s", "somp_p_acc"),
    "ftl_inproc": ("round_p50_s", "round_tail_s"),
    "ftl_socket_fullsize": ("round_p50_s", "round_tail_s"),
}
COMMON = ("setup_s", "peak_rss_mb", "fail_ratio")


def run_workload(name: str, trace: int, spec: dict) -> list[str]:
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", name, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=False)
    lines = done.stdout.strip().splitlines()
    problems = [] if done.returncode == 0 else [f"exit code {done.returncode}: {done.stderr[-2000:]}"]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return problems + ["last line is not a JSON object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("run reported a failure")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{m['name']}: {entry}")
    if not trace:
        for metric in (*COMMON, *REPORTED[name]):
            if not any(line.startswith(f"metric {metric} ") for line in lines):
                problems.append(f"report lacks {metric}")
    return problems


def corruption_trips(name: str) -> bool:
    import workloads

    workdir = workloads.reset_dir(run.OUT / f"smoke-{name}")
    wl = workloads.WORKLOADS[name](7, True, workdir)
    try:
        wl.call()
        clean = all(ok for _, ok in wl.checks())
        wl.corrupt()
        return clean and not all(ok for _, ok in wl.checks())
    finally:
        wl.close()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if run.import_program() is None:
        return 2
    failures = 0
    for name in run.NAMES:
        for trace in (0, 1):
            problems = run_workload(name, trace, spec)
            failures += bool(problems)
            print(f"{name} trace={trace}: {'ok' if not problems else '; '.join(problems)}", flush=True)
        tripped = corruption_trips(name)
        failures += not tripped
        print(f"{name} corrupted output: {'caught' if tripped else 'NOT caught'}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
