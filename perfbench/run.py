"""Benchmark of the ftlwss pipeline: one workload per process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads: train_prune, sweep, ftl_inproc, ftl_socket_fullsize (see
workloads.py for what each runs and why). ``all`` runs each of them in its
own process, one after the other.

A run imports ftlwss from ``src/`` next to this directory, sets the workload
up several times, then drives it as a closed loop from one client for
``--seconds`` seconds, checks the outputs and prints a report. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced. With ``--trace 1`` the same
untraced loop runs first; then a fresh set-up and a fixed number of calls
run with every public function of the eight ftlwss modules wrapped in
spans, and the metrics are the per-layer ones derived from those spans.

Files go to ``.bench_out/<workload>-seed<n>/`` under the checkout. The
exit code is 0 when every operation and check passed, 1 when one failed and
2 when the sources are missing.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402  (imports are part of the timed set-up)

# One BLAS thread per calling thread: on the two-core reference machine,
# shared with other tenants, a two-thread BLAS team made round times swing
# by a fifth between identical runs. Set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("train_prune", "sweep", "ftl_inproc", "ftl_socket_fullsize")

SETUP_REPEATS = 5   # setup_s reports the median set-up
TRACED_CALLS = 3    # fixed, so per-layer totals do not depend on machine speed

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_s": "s",
    "samples_per_s": "samples/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the smoke test of the benchmark itself")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
    return worst


def import_program():
    """Import ftlwss from this checkout's sources, never from elsewhere."""
    if not (SRC / "ftlwss" / "__init__.py").is_file():
        print(f"ftlwss sources not found under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import ftlwss

    if Path(ftlwss.__file__).resolve().parent != (SRC / "ftlwss").resolve():
        print(f"imported ftlwss from {ftlwss.__file__}, not from {SRC}", file=sys.stderr)
        return None
    return ftlwss


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile that has at least ten
    samples beyond it, or None when that percentile lies below the median
    (fewer than 20 samples).
    """
    if len(values) < 20:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    import ctypes
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_context(config, seed: int) -> dict:
    import numpy as np
    from ftlwss import harness

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "config_hash": harness.config_hash(config),
    }


def measure(args) -> int:
    if import_program() is None:
        return 2
    import workloads
    import spans

    import_s = time.perf_counter() - _T0
    workload_cls = workloads.WORKLOADS[args.workload]
    workdir = workloads.reset_dir(OUT / f"{args.workload}-seed{args.seed}")

    setup_times = []
    wl = None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
            wl = None
        t0 = time.perf_counter()
        wl = workload_cls(args.seed, args.tiny, workdir)
        setup_times.append(time.perf_counter() - t0)

    attempted = failed = 0
    digests = set()

    def timed_call():
        nonlocal attempted, failed
        t0 = time.perf_counter()
        outcome = wl.call()
        elapsed = time.perf_counter() - t0
        attempted += outcome.attempted
        failed += outcome.failed
        if outcome.failed == 0:
            digests.add(wl.digest())
        return elapsed, outcome.samples

    calls = []
    deadline = time.perf_counter() + args.seconds
    while not calls or time.perf_counter() < deadline:
        calls.append(timed_call())

    lines = [f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
             f"{len(calls)} calls in {sum(t for t, _ in calls):.3f} s"]
    if args.trace:
        untraced_p50 = statistics.median(t for t, _ in calls)
        wl.close()
        tracer = spans.Tracer()
        tracer.install(methods=[(workloads.TimedTransport, "run_round", "bench")])
        try:
            with tracer.span("bench.setup"):
                wl = workload_cls(args.seed, args.tiny, workdir)
            traced = []
            for _ in range(TRACED_CALLS):
                with tracer.span("bench.call"):
                    traced.append(timed_call())
        finally:
            tracer.uninstall()
        # SU threads blocked in a traced call may still append a span later
        recorded = list(tracer.spans)
        spans.write_spans(recorded, workdir / "spans.jsonl")
        overhead = statistics.median(t for t, _ in traced) / untraced_p50 - 1.0
        values = spans.layer_metrics(recorded, wl.spec, wl.n_sus,
                                     threading.main_thread().ident, overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER}
        lines.append(f"trace: {len(recorded)} spans over one set-up and {TRACED_CALLS} calls, "
                     f"written to {workdir / 'spans.jsonl'}")
    else:
        setup_s = import_s + statistics.median(setup_times)
        op_times = wl.round_s if hasattr(wl, "round_s") else [t for t, _ in calls]
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_p50_s": statistics.median(op_times),
            "samples_per_s": sum(n for _, n in calls) / sum(t for t, _ in calls),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        lines.append(f"setup breakdown: imports {import_s:.4f} s + median of {SETUP_REPEATS} "
                     f"set-ups {[round(t, 4) for t in setup_times]}")
        if wl.samples_alias:
            lines.append(f"metric {wl.samples_alias} {values['samples_per_s']:.6g} samples/s")
        if hasattr(wl, "round_s"):
            lines.append(f"metric round_p50_s {values['op_p50_s']:.6g} s "
                         f"(median of {len(op_times)} rounds)")
            t = tail(op_times)
            lines.append(f"metric round_tail_s {t[1]:.6g} s (p{t[0]:.0f} of {len(op_times)} rounds)"
                         if t else f"metric round_tail_s n/a ({len(op_times)} rounds, need 20)")

    for name, value, unit in wl.report():
        lines.append(f"metric {name} {value:.6g} {unit}")
    checks = wl.checks() + [("same_output_every_call", len(digests) == 1)]
    wl.close()
    attempted += len(checks)
    failed += sum(1 for _, ok in checks if not ok)
    lines.append(f"metric fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} "
                 f"stages, grid points, rounds and checks)")
    for name, ok in checks:
        lines.append(f"check {name} {'ok' if ok else 'FAILED'}")
    lines.append(f"output sha256 {' '.join(sorted(digests)) or 'none'}")
    lines.append("context " + json.dumps(run_context(wl.config, args.seed), sort_keys=True))
    for name, entry in metrics.items():
        lines.append(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
