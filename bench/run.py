"""Training benchmark for admmlsmr.

    python3 bench/run.py --workload synth-fixed32 --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run times repeated ``train`` calls
on one set of inputs and reports end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced calls and reports per-layer metrics.  Every
call's output is checked.  The last line of standard output is one JSON
object; the lines before it give the metrics in words and the provenance.

BLAS is pinned to one thread, so the process runs at most ``workers`` solver
threads.  One untimed call warms the process up before timing starts.
Wall and CPU times per sweep are medians over the timed calls, as measured.
Set-up time is the median over several fresh processes, each timed from its
launch to the point where it would call ``train``; they run one at a time
between the timed calls, spread over the whole measuring window, so that
both figures sample the machine over the same stretch of time.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 20
TRACED_SETUPS = 5
MIN_CALLS = 3


def pin_threads() -> None:
    """One BLAS thread per calling thread; must run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Import admmlsmr from this checkout's ``src``, and from nowhere else."""
    if not (SRC / "admmlsmr" / "__init__.py").is_file():
        sys.exit(f"error: no admmlsmr package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import admmlsmr

    if Path(admmlsmr.__file__).resolve().parent != SRC / "admmlsmr":
        sys.exit(f"error: admmlsmr imported from {admmlsmr.__file__}, not {SRC}")


def probe_setup(workload: str, seed: int, launched: float) -> None:
    """Body of a set-up probe process: set up, then print seconds since launch."""
    import workloads

    workloads.setup(workloads.WORKLOADS[workload], seed)
    print(time.monotonic() - launched)


def setup_seconds(workload: str, seed: int) -> float:
    """Launch-to-train time of one fresh process."""
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe-setup", repr(launched)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def source_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def provenance(w, seed: int) -> dict:
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    for path in sorted((SRC / "admmlsmr").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": source_commit(),
        "source_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workload": w.name,
        "workers": w.workers,
        "sweeps_per_call": w.sweeps,
        "seed": seed,
    }


END_TO_END = {
    "sweep_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "train_accuracy": "fraction",
    "test_accuracy": "fraction",
}


@dataclass
class Call:
    """One completed ``train`` call."""

    wall: float
    cpu: float
    report: object


class Runner:
    """Runs and checks ``train`` calls on one set of inputs."""

    def __init__(self, w, seed: int) -> None:
        import workloads

        self.w = w
        self.workloads = workloads
        self.cfg, self.train_set, self.test_set = workloads.setup(w, seed)
        self.reference = workloads.load_reference().get(w.name, {}).get(str(seed))
        self.first: dict | None = None
        self.attempted = 0
        self.problems: list[tuple[int, str]] = []  # (call number, problem)

    def call(self, tracer=None) -> Call | None:
        """One checked ``train`` call; None if it raised.  A wrong output is
        flagged but its timing is kept."""
        from admmlsmr import admm

        self.attempted += 1
        try:
            start, c0 = time.perf_counter(), time.process_time()
            if tracer is None:
                state, report = admm.train(self.cfg, self.train_set, self.test_set)
            else:
                with tracer.installed():
                    state, report = admm.train(self.cfg, self.train_set, self.test_set)
            wall, cpu = time.perf_counter() - start, time.process_time() - c0
        except Exception as exc:  # a failed call is counted, and the run goes on
            self.flag(f"{type(exc).__name__}: {exc}")
            return None
        found = self.workloads.check(self.w, state, report, self.first, self.reference)
        if self.first is None:
            self.first = self.workloads.summary(self.w, state, report)
        for problem in found:
            self.flag(problem)
        return Call(wall, cpu, report)

    def flag(self, problem: str) -> None:
        """Count the latest call as failed."""
        self.problems.append((self.attempted, problem))

    @property
    def failed(self) -> int:
        return len({n for n, _ in self.problems})

    def require(self, successes: list) -> None:
        if not successes:
            raise RuntimeError("every call failed: " + "; ".join(p for _, p in self.problems))

    def warm_up(self, seed: int) -> None:
        """One untimed, checked call before timing starts.  It runs on this
        seed's inputs if their output is recorded, and otherwise on the
        inputs of a recorded seed, so that every run meets a reference."""
        if self.reference is not None:
            self.call()
            return
        recorded = sorted(self.workloads.load_reference()[self.w.name], key=int)
        stand_in = Runner(self.w, int(recorded[seed % len(recorded)]))
        stand_in.call()
        self.attempted += 1
        for _, problem in stand_in.problems:
            self.flag(f"seed {stand_in.cfg.seed}: {problem}")


def timed_calls(deadline: float, run_one, min_calls: int) -> None:
    """Call ``run_one`` at least ``min_calls`` times, then until the next
    call would end past ``deadline`` (a ``time.perf_counter()`` value)."""
    done = 0
    while True:
        t0 = time.perf_counter()
        run_one()
        done += 1
        now = time.perf_counter()
        if done >= min_calls and now + (now - t0) > deadline:
            return


def end_to_end(w, seed: int, seconds: float) -> tuple[Runner, dict, dict]:
    runner = Runner(w, seed)
    runner.warm_up(seed)
    start = time.perf_counter()
    results: list[Call | None] = []
    setups: list[float] = []

    def run_one() -> None:
        results.append(runner.call())
        # set-up probes keep pace with the share of the window used so far
        due = SETUP_PROBES * min(1.0, (time.perf_counter() - start) / seconds)
        while len(setups) < due:
            setups.append(setup_seconds(w.name, seed))

    timed_calls(start + seconds, run_one, MIN_CALLS)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(w.name, seed))
    calls = [c for c in results if c is not None]
    runner.require(calls)
    report = calls[-1].report
    sweeps = [c.wall / w.sweeps for c in calls]
    metrics = {
        "sweep_s": statistics.median(sweeps),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(c.cpu for c in calls) / w.sweeps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "train_accuracy": report.train_accuracy,
        "test_accuracy": report.test_accuracy,
    }
    extra = {
        "sweep_s_min": min(sweeps),
        "sweep_s_max": max(sweeps),
        "setup_s_min": min(setups),
        "setup_s_max": max(setups),
        "saturation_events_per_sweep": report.saturation_total / w.sweeps,
        "timed_calls": len(calls),
    }
    return runner, metrics, extra


def per_layer(w, seed: int, seconds: float) -> tuple[Runner, dict, dict]:
    import tracing
    import workloads

    data_samples = []
    for _ in range(TRACED_SETUPS):
        tracer = tracing.Tracer()
        with tracer.installed():
            workloads.setup(w, seed)
        data_samples.append(tracing.setup_metrics(tracer.spans))
    runner = Runner(w, seed)
    runner.warm_up(seed)
    deadline = time.perf_counter() + seconds
    pairs: list[tuple[Call, Call, dict]] = []

    def pair() -> None:
        plain = runner.call()
        tracer = tracing.Tracer()
        traced = runner.call(tracer)
        if traced is None:
            return
        errors = tracing.nesting_errors(tracer.spans)
        metrics = tracing.train_metrics(tracer.spans, w.sweeps)
        errors += tracing.partition_errors(tracer.spans, metrics, w.sweeps)
        for e in errors:
            runner.flag(f"trace: {e}")
        if plain is not None and not errors:
            pairs.append((plain, traced, metrics))

    timed_calls(deadline, pair, 1)
    runner.require(pairs)
    layer_samples, plain_sweeps, traced_sweeps = [], [], []
    for plain, traced, metrics in pairs:
        report = plain.report
        metrics["admm.reported_over_wall"] = (
            sum(report.totals().values()) / plain.wall)
        metrics["admm.saturation_events"] = report.saturation_total / w.sweeps
        layer_samples.append(metrics)
        plain_sweeps.append(plain.wall / w.sweeps)
        traced_sweeps.append(traced.wall / w.sweeps)
    metrics = {**tracing.medians(data_samples), **tracing.medians(layer_samples)}
    plain_sweep = statistics.median(plain_sweeps)
    metrics["trace.sweep_s"] = statistics.median(traced_sweeps)
    metrics["trace.overhead_s"] = metrics["trace.sweep_s"] - plain_sweep
    extra = {
        "trace.overhead_share": metrics["trace.overhead_s"] / plain_sweep,
        "trace.pairs": len(pairs),
    }
    return runner, metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_threads()
    use_checkout_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.probe_setup is not None:
        probe_setup(args.workload, args.seed, args.probe_setup)
        return 0
    w = workloads.WORKLOADS[args.workload]
    if args.trace:
        import tracing

        runner, values, extra = per_layer(w, args.seed, args.seconds)
        units = tracing.UNITS
    else:
        runner, values, extra = end_to_end(w, args.seed, args.seconds)
        units = END_TO_END
    for name, value in values.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name:34s} {value:.6g}")
    print(f"{'error_rate':34s} {runner.failed / runner.attempted:.6g} fraction")
    for call, problem in runner.problems:
        print(f"problem in call {call}: {problem}")
    print("provenance " + json.dumps(provenance(w, args.seed), sort_keys=True))
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
