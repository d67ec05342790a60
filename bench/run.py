"""Benchmark of bergband: the prescribe, sweep and h-scan workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process, no extra threads, closed loop: each operation starts when the
previous one has returned and been checked.  Operations cycle through one
pass of seeded inputs until ``--seconds`` are up and every input has run.
Every metric adds up, or takes the median of, each input's own figure, so
the mix of inputs does not depend on how many runs fit in the time.
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` every operation runs once untraced and
once traced, and the object holds the per-layer metrics of the traced runs.
The line before it records the machine, the operation count and fail_frac
(failed over attempted operations; an operation fails if it raises or fails
its check).  ``--workload all`` runs each workload in its own process and
prints a table.

End-to-end metrics, measured with tracing off:
  wall_ref     one pass over the inputs, in reference units (below): the sum
               of each input's median time
  op_ref.p50   median over the inputs of each input's median time, in
               reference units
  setup_s      median time from a fresh interpreter to inputs built
               (the import of bergband plus building the inputs)
  peak_rss_mb  peak resident memory of the process
  oracle_err   mean over the inputs of each operation's largest distance to
               the closed-form values it approximates (see workloads.py)
The speed of a core of a shared host drifts by a third over minutes, so
times in seconds from two runs of the same code differ by more than a useful
bound.  While an untraced run times its operations, a fixed reference kernel
(numpy only, none of the library: ``Reference``) therefore interrupts them
every SAMPLE_INTERVAL seconds, taking about a tenth of the time.  Each
operation's time, less the kernel's runs inside it, is divided by the median
time of those runs.  A change to the library moves these ratios as it moves
the time; a slower or faster host moves both sides of them.  The seconds
themselves (``wall_s`` and ``op_s.p50``, less the kernel's runs, and the
kernel's ``ref_s.p50``) are printed in the line before the result.
Per-layer metrics are listed in tracing.py; each is given per pass, in seconds.
The library's band sweeps run on threads when BERGMAN_BAND_THREADS is set;
the benchmark unsets it, and records its value, so that it measures the
single-threaded default.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import tracing

UNSET_ENV = {k: os.environ.pop(k) for k in ("BERGMAN_BAND_THREADS",) if k in os.environ}

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import bergband, workloads; "
    "workloads.make_inputs(sys.argv[3], int(sys.argv[4]))"
)
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
    "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {
    "wall_ref": "ref",
    "op_ref.p50": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_err": "1",
}


SAMPLE_INTERVAL = 0.09
REF_NODES = 4096
REF_COLUMNS = 17


class Reference:
    """A fixed numpy kernel whose time measures the current speed of the core.

    Twice-iterated modified Gram-Schmidt of REF_COLUMNS weighted complex
    vectors of length REF_NODES (about 10 ms on a 2-core machine): the same
    kind of work as the library's basis build, but the benchmark's own code on
    fixed data, so no change to the library moves it.  Its columns are
    allocated once and its temporaries are small, so it adds a constant to
    the peak memory.  Inside ``sampling()`` the kernel runs from a SIGALRM
    handler SAMPLE_INTERVAL seconds after the end of its previous run, so its
    samples cover every operation evenly (about a tenth of the time);
    ``samples`` holds the (start, end) of each run.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.z = rng.standard_normal(REF_NODES) + 1j * rng.standard_normal(REF_NODES)
        self.w = rng.uniform(0.5, 1.0, REF_NODES)
        self.step = np.exp(0.02j * np.pi * self.z)
        self.cols = np.zeros((REF_COLUMNS, REF_NODES), dtype=complex)
        self.samples: list[tuple[float, float]] = []

    def run(self) -> None:
        t0 = time.perf_counter()
        v = np.exp(1j * self.z)
        for k in range(REF_COLUMNS):
            c = self.step * v
            for _ in range(2):
                for q in self.cols[:k]:
                    c = c - np.sum(self.w * np.conj(q) * c) * q
            v = self.cols[k] = c / np.sqrt(np.sum(self.w * np.abs(c) ** 2))
        self.samples.append((t0, time.perf_counter()))

    def _tick(self, signum, frame) -> None:
        self.run()
        # One-shot timer, re-armed after the run, so that runs never nest.
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL)

    @contextmanager
    def sampling(self):
        """Run the kernel once, then every SAMPLE_INTERVAL seconds until exit."""
        self.run()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def split(self, t0: float, t1: float) -> tuple[float, float]:
        """The time in [t0, t1] not spent in the kernel, and the median kernel
        time there (or of the last run before t0, if none ran inside)."""
        inside = [e - s for s, e in self.samples if t0 <= s and e <= t1]
        before = [e - s for s, e in self.samples if e <= t0][-1:]
        return (t1 - t0) - sum(inside), statistics.median(inside or before)


def import_library() -> None:
    """Put the checkout's own src/ first on the path, or exit non-zero."""
    init = SRC / "bergband" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import bergband

    if Path(bergband.__file__).resolve() != init.resolve():
        sys.exit(f"error: bergband was imported from {bergband.__file__}, not {SRC}")


def measure_setup(workload: str, seed: int) -> float:
    """Median time from a fresh interpreter to inputs built."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed: {proc.stderr.strip()}")
    return statistics.median(times)


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "unset_env": UNSET_ENV,
        "git_commit": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(status) if status is not None else None,
    }


def attempt(wl, i: int, tracer=None):
    """Run and check input i once: (start, end, oracle error) of the timed
    operation, or None if it failed."""
    try:
        if tracer is None:
            t0 = time.perf_counter()
            result = wl.run(i)
            t1 = time.perf_counter()
        else:
            with tracer.installed():
                root = len(tracer.spans)
                with tracer.span(tracing.ROOT_SPAN):
                    result = wl.run(i)
            t0, t1 = tracer.spans[root].start, tracer.spans[root].end
        return t0, t1, wl.check(i, result)
    except Exception as exc:  # a failed operation is counted, and the run goes on
        print(f"{wl.name} input {i} failed: {exc!r}", file=sys.stderr)
        return None


def closed_loop(seconds: float, min_steps: int, step) -> int:
    """Call step(0), step(1), ... and return how many steps ran.

    Stops before a step that would end past ``seconds``, judged by the mean
    step so far, once ``min_steps`` steps have run.
    """
    start = time.perf_counter()
    n = 0
    while True:
        step(n)
        n += 1
        elapsed = time.perf_counter() - start
        if n >= min_steps and elapsed + elapsed / n > seconds:
            return n


def warm_up() -> None:
    """Let numpy, LAPACK and the allocator finish lazy set-up before timing.

    A few fibers on the sweep's quadrature, the largest any workload builds.
    """
    Reference().run()
    import workloads

    from bergband import CellGeometry, compute_bands, synthesize_profile

    compute_bands(CellGeometry(R0=0.35, h=workloads.SWEEP_H), synthesize_profile([0.3]),
                  workloads.SWEEP_ETAS[:3], K_modes=workloads.SWEEP_K, **workloads.SWEEP_QUAD)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import workloads

    setup_s = None if trace else measure_setup(name, seed)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        wl = workloads.Workload(name, seed, Path(tmp))
        n_inputs = len(wl.inputs)
        warm_up()
        times: list[list[float]] = [[] for _ in range(n_inputs)]
        ratios: list[list[float]] = [[] for _ in range(n_inputs)]
        errs: dict[int, float] = {}
        failed = 0
        tracers = [tracing.Tracer() for _ in range(n_inputs)]
        reference = Reference()

        def step(n: int) -> None:
            nonlocal failed
            i = n % n_inputs
            # In a traced run the two runs of an input alternate in order, so
            # that warm caches favour neither.
            traced_first = trace and n % 2 == 1
            if traced_first:
                failed += attempt(wl, i, tracers[i]) is None
            outcome = attempt(wl, i)
            if trace and not traced_first:
                failed += attempt(wl, i, tracers[i]) is None
            if outcome is None:
                failed += 1
                return
            t0, t1, errs[i] = outcome
            if trace:
                times[i].append(t1 - t0)
            else:
                op_s, ref_s = reference.split(t0, t1)
                times[i].append(op_s)
                ratios[i].append(op_s / ref_s)

        # Traced runs keep the library's spans free of kernel runs.
        with nullcontext() if trace else reference.sampling():
            steps = closed_loop(seconds, n_inputs, step)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = steps * (2 if trace else 1)
    medians = [statistics.median(ts) for ts in times if ts]
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs_per_pass": n_inputs,
        "operations": attempted,
        "wall_s": sum(medians),
        "op_s.p50": statistics.median(medians) if medians else None,
        "op_s_quartiles": statistics.quantiles(medians, n=4) if len(medians) > 1 else medians,
        "fail_frac": failed / attempted,
        "machine": machine_facts(),
    }
    if trace:
        values = tracing.layer_metrics(tracers, [statistics.fmean(ts) for ts in times if ts])
        metrics = {m: {"value": v, "unit": tracing.UNITS[m][0]} for m, v in values.items()}
    else:
        rel = [statistics.median(rs) for rs in ratios if rs]
        details["ref_s.p50"] = statistics.median(e - s for s, e in reference.samples)
        values = {
            "wall_ref": sum(rel),
            "op_ref.p50": statistics.median(rel) if rel else float("nan"),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "oracle_err": statistics.fmean(errs.values()) if errs else float("nan"),
        }
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return details, result


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process (so peak RSS is its own); print a table."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode}): {proc.stderr.strip()}")
            status = 1
            continue
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        status |= not result["correct"]
        if name == workloads.WORKLOADS[0]:
            print(f"machine: {json.dumps(details['machine'])}")
        print(f"{name}: {details['operations']} operations, {details['inputs_per_pass']} inputs per pass")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
        for metric in ("wall_s", "op_s.p50", "ref_s.p50"):
            if details.get(metric) is not None:
                print(f"  {metric:32s} {details[metric]:14.6g} s")
        print(f"  {'fail_frac':32s} {details['fail_frac']:14.6g} ratio")
    return status


def main(argv=None) -> int:
    import_library()
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    details, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
