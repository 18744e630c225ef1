"""Benchmark worker: a fresh process that imports staosc and runs one workload.

``run.py`` starts it in two modes and reads the JSON object it prints as
its last line of standard output:

* ``--probe``: time ``import staosc`` plus ``staosc.cli_runner`` (what every
  CLI invocation pays before doing work) and exit.
* ``--workload NAME``: run the warm-up operations, then whole passes over
  the workload's operations for ``--seconds`` seconds.  With ``--trace 1``
  untraced and traced passes alternate; the traced ones yield the per-layer
  metrics.

Each operation runs in a closed loop: it starts when the previous one has
returned.  An operation that raises is recorded and the pass goes on.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import gzip
import json
import math
import signal
import statistics
import sys
import time
from pathlib import Path

from gate import expected_failure, load_reference, reference_problems
from layers import instrument, layer_metrics
from tracer import Tracer


def _import_staosc(root: Path) -> tuple[float, float]:
    """Import the package from ``root/src``; returns start and end times."""
    start = time.perf_counter()
    import staosc
    import staosc.cli_runner  # noqa: F401

    end = time.perf_counter()
    expected = (root / "src" / "staosc" / "__init__.py").resolve()
    if Path(staosc.__file__).resolve() != expected:
        raise SystemExit(f"staosc imported from {staosc.__file__}, expected {expected}")
    return start, end


def blas_info() -> dict:
    """OpenBLAS versions and thread counts of the numpy and scipy builds."""
    import ctypes

    import numpy
    import scipy

    info = {}
    for package, suffix in ((numpy, "64_"), (scipy, "")):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*")):
            lib = ctypes.CDLL(str(path))
            config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            config.restype = ctypes.c_char_p
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            info[package.__name__] = {
                "config": config().decode(),
                "threads": int(threads()),
            }
    return info


def scalar_kernel():
    """Interpreted scalar arithmetic, like ODE right-hand sides and imports."""

    def run() -> None:
        total = 0.0
        for i in range(3000):
            x = math.cos(i * 1e-3)
            total += math.sqrt(1.0 + x * x)

    return run


def banded_kernel():
    """Banded complex products on a 512 x 32 block, like the Fock propagator."""
    import numpy as np

    d, u, psi = np.arange(512.0), np.arange(510.0) + 0j, np.ones((512, 32), complex)

    def run() -> None:
        for _ in range(4):
            y = d[:, None] * psi
            y[:-2] += u[:, None] * psi[2:]
            y[2:] += u.conj()[:, None] * psi[:-2]

    return run


#: Calibration kernels: name -> (factory, the kernel's time on a shared
#: 2-vCPU Xeon virtual machine at 2.1 GHz in its fast state).  That machine
#: switches every few seconds between speed states 1.5-1.8x apart, which no
#: median over one run can absorb, so every timing is also reported
#: rescaled to the fast state: seconds * nominal / kernel time, the kernel
#: timed while the work ran.
KERNELS = {"scalar": (scalar_kernel, 3.5e-4), "banded": (banded_kernel, 4.8e-4)}


class SpeedSampler:
    """Times a calibration kernel every ``INTERVAL_S`` from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so each sample
    is taken on the CPU the workload runs on, and samples follow the
    machine's speed state through long operations.  They cost about 1% of
    the run, the same on every commit.
    """

    INTERVAL_S = 0.05

    def __init__(self, kernel: str = "scalar"):
        factory, self.nominal = KERNELS[kernel]
        self._kernel = factory()
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.times.append(end)
        self.kernel_s.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def nominal_s(self, start: float, end: float) -> float:
        """``end - start`` rescaled by the median kernel time over that interval.

        The interval is widened to the nearest sample on each side, so a
        short interval still has samples; take one with :meth:`sample`
        after ``end`` before calling this.
        """
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        kernel_s = statistics.median(self.kernel_s[lo:hi])
        return (end - start) * self.nominal / kernel_s


def _clean(directory: Path) -> None:
    if directory.exists():
        for path in directory.iterdir():
            path.unlink()
    directory.mkdir(parents=True, exist_ok=True)


class Runner:
    """Runs operations, gates their outputs and keeps the tallies."""

    def __init__(self, ops, seed: int, reference: dict, out_dir: Path, sampler: SpeedSampler):
        self.ops = ops
        self.seed = seed
        self.reference = reference
        self.out_dir = out_dir
        self.sampler = sampler
        self.tracer = None
        self.problems: list[str] = []

    def run_op(self, index: int, op) -> dict:
        directory = self.out_dir / f"op{index:02d}"
        _clean(directory)
        # free the previous op's reference cycles (a traceback holds its
        # frames' arrays) now, so that peak RSS does not hinge on when the
        # cyclic collector happens to run
        gc.collect()
        if self.tracer is not None:
            self.tracer.op = index
        start = time.perf_counter()
        try:
            values, problems = op.run(self.seed, directory)
        except Exception as error:  # the boundary that must keep running
            end = time.perf_counter()
            record = {"op": op.name, "start": start, "end": end, "ok": False,
                      "error": f"{type(error).__name__}: {error}"}
            if not expected_failure(op.name, error, self.reference):
                self.problems.append(f"{op.name}: unexpected {record['error']}")
            return record
        end = time.perf_counter()
        problems = problems + reference_problems(op.name, values, self.reference)
        self.problems += [f"{op.name}: {p}" for p in problems]
        written = sum(p.stat().st_size for p in directory.iterdir())
        return {"op": op.name, "start": start, "end": end, "ok": not problems,
                "problems": problems, "bytes_written": written}

    def finish(self, records: list) -> None:
        """Replace each record's start and end by raw and rescaled seconds."""
        self.sampler.sample()
        for r in records:
            r["seconds"] = r["end"] - r["start"]
            r["nominal_s"] = self.sampler.nominal_s(r.pop("start"), r.pop("end"))

    def run_pass(self) -> dict:
        """Run every op once; op times are raw and rescaled by the sampler."""
        cpu = time.process_time()
        records = [self.run_op(i, op) for i, op in enumerate(self.ops)]
        cpu = time.process_time() - cpu
        self.finish(records)
        return {
            "wall_s": sum(r["seconds"] for r in records),
            "nominal_s": sum(r["nominal_s"] for r in records),
            "cpu_s": cpu,
            "ops": records,
        }


def run_workload(args) -> dict:
    import resource

    import numpy
    import scipy

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = args.root / ".perfbench_out" / f"ops-{args.workload}"
    with SpeedSampler(workload.kernel) as sampler:
        runner = Runner(workload.ops, args.seed, load_reference(), out_dir, sampler)
        by_name = {op.name: (i, op) for i, op in enumerate(workload.ops)}
        warm = [runner.run_op(*by_name[name]) for name in workload.warmup]
        runner.finish(warm)
        measured = _measure(runner, args.seconds, args.trace)

    first_spans = measured.pop("first_spans")
    if first_spans is not None:
        spans_path = args.root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        with gzip.open(spans_path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\traised\n")
            fh.writelines(first_spans)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "warmup": warm,
        **measured,
        "sampler_kernel_s": statistics.quantiles(sampler.kernel_s, n=4),
        "problems": runner.problems,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "blas": blas_info(),
    }


#: Passes (rounds, when tracing) every run makes, whatever ``--seconds``.
MIN_ROUNDS = 2


def _measure(runner, seconds: float, trace: bool) -> dict:
    """Whole passes for about ``seconds``; with ``trace``, each untraced pass
    is followed by a traced one.  Another round starts while it would end
    less than half a round past ``seconds``."""
    tracer = Tracer() if trace else None
    untraced, traced, traces, first_spans = [], [], [], None
    start = time.perf_counter()
    while True:
        untraced.append(runner.run_pass())
        if tracer is not None:
            instrument(tracer)
            runner.tracer = tracer
            try:
                traced.append(runner.run_pass())
            finally:
                tracer.unpatch()
                runner.tracer = None
            traces.append(_trace_summary(tracer, traced[-1]))
            if first_spans is None:
                first_spans = _span_rows(tracer)
            tracer.clear()
        elapsed = time.perf_counter() - start
        if len(untraced) >= MIN_ROUNDS and elapsed + 0.5 * elapsed / len(untraced) > seconds:
            break
    return {"passes": untraced, "traced_passes": traced, "traces": traces,
            "first_spans": first_spans}


def _span_rows(tracer) -> list[str]:
    columns = (tracer.names, tracer.starts, tracer.ends, tracer.parents, tracer.ops, tracer.raised)
    return [
        f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\t{int(raised)}\n"
        for i, (name, start, end, parent, op, raised) in enumerate(zip(*columns))
    ]


def _trace_summary(tracer, traced_pass: dict) -> dict:
    metrics = layer_metrics(tracer)
    metrics["cli_runner.bytes_written"] = sum(
        r.get("bytes_written", 0) for r in traced_pass["ops"]
    )
    return {"metrics": metrics, "spans": len(tracer.names)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.root = args.root.resolve()
    if args.probe:
        with SpeedSampler() as sampler:
            start, end = _import_staosc(args.root)
            sampler.sample()
        print(json.dumps({"setup_s": end - start, "nominal_s": sampler.nominal_s(start, end)}))
        return 0
    _import_staosc(args.root)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
