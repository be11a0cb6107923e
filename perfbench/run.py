"""The repository benchmark: one command, four closed-loop workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid-batch --seed 1 \\
        --seconds 20 --trace 0

With ``--trace 0`` the run measures the workload's op mix for
``--seconds`` and reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it measures half the time untraced and half with
spans around each layer's public functions, and reports the per-layer
metrics plus the tracing overhead.  Every op's output is checked
against a reference digest; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the exit code
is non-zero when any op failed.  See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("grid-batch", "grid-stream", "store-query", "cli-cold")

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Children timed for the import part of ``setup_s`` and for
#: ``cli.import_ms``.
IMPORT_REPEATS = 3
#: A p90 is reported only from this many samples of one op kind on.
P90_MIN_SAMPLES = 100
#: The calibration kernel: a pure-Python loop of ``CAL_LOOPS``
#: iterations plus a broadcast comparison of two ``CAL_ARRAY``-long
#: arrays (the shape of the Pareto kernels), and its nominal time in
#: seconds.  Other tenants of a shared host slow every process on it by
#: up to a third for seconds at a time; timings are therefore scaled by
#: ``CAL_NOMINAL_S`` over the kernel time measured around them, i.e.
#: reported as if the host ran at its nominal speed.
CAL_LOOPS = 50_000
CAL_ARRAY = 1500
CAL_NOMINAL_S = 10.0e-3

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def source_digest(root: Path) -> str:
    """SHA-256 over the checkout's ``src/**/*.py`` (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            check=False,
            text=True,
        )
    except OSError:
        return "unknown"
    return completed.stdout.strip() or "unknown"


def environment(root: Path, args) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def calibrate() -> float:
    """The calibration kernel's current time: the best of three runs."""
    left = np.linspace(0.0, 1.0, CAL_ARRAY)
    right = left[::-1] + 0.25
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(CAL_LOOPS):
            total += value * value
        int(((left[:, None] >= right[None, :])
             & (left[:, None] <= right[None, :] + 0.5)).sum())
        best = min(best, time.perf_counter() - start)
    return best


class Phase:
    """Samples and failures of one measured window."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.speeds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0


def measure(workload, seconds: float, tracer=None, cache_stats=None) -> Phase:
    """Run whole passes of the op mix until ``seconds`` have elapsed.

    Each op is timed alone and scaled to the nominal host speed by the
    calibration loops run just before and after it; its output check,
    clean-up and the cache bookkeeping happen after the clock stops.
    """
    phase = Phase()
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while phase.passes == 0 or time.perf_counter() < deadline:
        for kind, op in workload.ops():
            phase.attempted += 1
            if tracer is not None:
                tracer.op_id += 1
            start = time.perf_counter()
            try:
                output = op()
            except Exception:  # noqa: BLE001 - a failed op is counted
                traceback.print_exc(file=sys.stderr)
                phase.failed += 1
                continue
            elapsed = time.perf_counter() - start
            try:
                correct = workload.check(kind, output)
            except Exception:  # noqa: BLE001 - a failed check is counted
                traceback.print_exc(file=sys.stderr)
                correct = False
            if not correct:
                print(f"op {kind} output differs from the reference",
                      file=sys.stderr)
                phase.failed += 1
            if cache_stats is not None:
                for cache in workload.caches:
                    for table, tally in cache.stats()["tables"].items():
                        hits, misses = cache_stats[table]
                        cache_stats[table] = (
                            hits + tally["hits"], misses + tally["misses"]
                        )
            workload.caches.clear()
            after = calibrate()
            speed = CAL_NOMINAL_S / ((before + after) / 2)
            phase.samples[kind].append(elapsed * speed)
            phase.speeds.append(speed)
            before = after
        phase.passes += 1
    return phase


def median_ms(values) -> float:
    return 1e3 * statistics.median(values)


def op_metrics(workload, phase: Phase) -> list[tuple[str, float, str, str]]:
    """Per-op figures (name, value, unit, note) for the report lines."""
    lines = []
    for kind, values in phase.samples.items():
        note = f"n={len(values)}"
        lines.append((f"{kind}_p50_ms", median_ms(values), "ms", note))
        if len(values) >= P90_MIN_SAMPLES:
            p90 = 1e3 * statistics.quantiles(values, n=10)[8]
            lines.append((f"{kind}_p90_ms", p90, "ms", note))
    if workload.name == "cli-cold":
        pooled = [v for values in phase.samples.values() for v in values]
        lines.append(
            ("cli_p50_ms", median_ms(pooled), "ms", f"n={len(pooled)}")
        )
    if workload.name.startswith("grid-"):
        cells = sum(
            workload.cells[kind] * len(values)
            for kind, values in phase.samples.items()
        )
        busy = sum(sum(values) for values in phase.samples.values())
        lines.append(("cells_per_s", cells / busy, "1/s", f"cells={cells}"))
    lines.append(
        ("host_speed", statistics.median(phase.speeds), "ratio",
         "median nominal/measured calibration time")
    )
    lines.append(
        (
            "error_rate",
            phase.failed / phase.attempted,
            "ratio",
            f"failed={phase.failed} attempted={phase.attempted}",
        )
    )
    return lines


def pass_ms(workload, phase: Phase) -> float:
    """Time of one pass of the op mix, from each kind's median."""
    return sum(
        median_ms(phase.samples[kind])
        for kind in workload.MIX
        if phase.samples[kind]
    )


def op_geomean_ms(phase: Phase) -> float:
    """Geometric mean of the per-kind medians: each kind counts once."""
    medians = [median_ms(values) for values in phase.samples.values()]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def import_s(module: str, env: dict) -> float:
    """Median time of a fresh child that only imports ``module``,
    from its start to its exit, scaled to nominal host speed."""
    times = []
    for _ in range(IMPORT_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            cwd=ROOT,
            env=env,
            check=True,
        )
        elapsed = time.perf_counter() - start
        times.append(elapsed * CAL_NOMINAL_S / ((before + calibrate()) / 2))
    return statistics.median(times)


def report(lines) -> None:
    for name, value, unit, note in lines:
        print(f"metric {name} {value:.6g} {unit} {note}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as wl_module
    import layertrace

    for name in wl_module.SWEEP_ENV:
        os.environ.pop(name, None)
    env = wl_module.child_env(ROOT)

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = wl_module.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        env["PYTHONPATH"] += os.pathsep + str(Path(__file__).parent)
        setup_import_s = import_s("workloads", env)
        before = calibrate()
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.prepare()
            elapsed = time.perf_counter() - start
            after = calibrate()
            prepare_s.append(elapsed * CAL_NOMINAL_S / ((before + after) / 2))
            before = after
        setup_s = setup_import_s + statistics.median(prepare_s)

        print(f"perfbench {args.workload}: {workload.why}")
        print(f"input {workload.input_size}; mix {' '.join(workload.MIX)}")
        print("env " + json.dumps(environment(ROOT, args), sort_keys=True))

        if not args.trace:
            phase = measure(workload, args.seconds)
            lines = op_metrics(workload, phase)
            metrics = {
                "setup_s": (setup_s, "s"),
                "pass_ms": (pass_ms(workload, phase), "ms"),
                "op_geomean_ms": (op_geomean_ms(phase), "ms"),
                "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
            }
            report(
                [(name, value, unit, "") for name, (value, unit)
                 in metrics.items()] + lines
            )
        else:
            import_ms = 1e3 * import_s("repro.cli", env)
            untraced = measure(workload, args.seconds / 2)
            tracer = layertrace.Tracer()
            cache_stats = defaultdict(lambda: (0, 0))
            rerank_before = workload.rerank_stats()
            tracer.install()
            try:
                phase = measure(
                    workload, args.seconds / 2, tracer, cache_stats
                )
            finally:
                tracer.uninstall()
            rerank_after = workload.rerank_stats()
            tracer.write(
                out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            )
            untraced_ms = pass_ms(workload, untraced)
            traced_ms = pass_ms(workload, phase)
            run_ms = 0.0
            if args.workload == "cli-cold":
                pooled = [v for vs in untraced.samples.values() for v in vs]
                run_ms = median_ms(pooled) - import_ms
            values = layertrace.layer_metrics(
                tracer,
                phase.passes,
                dict(cache_stats),
                (
                    rerank_after[0] - rerank_before[0],
                    rerank_after[1] - rerank_before[1],
                ),
                import_ms,
                run_ms,
                100.0 * (traced_ms / untraced_ms - 1.0),
            )
            units = {row[0]: row[1] for row in layertrace.LAYER_METRICS}
            metrics = {name: (value, units[name])
                       for name, value in values.items()}
            phase.attempted += untraced.attempted
            phase.failed += untraced.failed
            report(
                [
                    ("untraced.pass_ms", untraced_ms, "ms",
                     f"passes={untraced.passes}"),
                    ("traced.pass_ms", traced_ms, "ms",
                     f"passes={phase.passes}"),
                    ("untraced.op_geomean_ms", op_geomean_ms(untraced),
                     "ms", ""),
                    ("traced.op_geomean_ms", op_geomean_ms(phase), "ms", ""),
                ]
                + [(name, value, unit, "") for name, (value, unit)
                   in metrics.items()]
                + op_metrics(workload, phase)
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        json.dumps(
            {
                "correct": phase.failed == 0,
                "attempted": phase.attempted,
                "failed": phase.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 1 if phase.failed else 0


if __name__ == "__main__":
    sys.exit(main())
