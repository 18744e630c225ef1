"""staosc benchmark: one workload, one seed, one run; see BENCHMARK.json.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

The run first times ``SETUP_PROBES`` fresh imports of staosc, then starts
one fresh worker process (``worker.py``) for the workload and waits for it.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the per-layer metrics of a traced run.  Human-readable lines
come first; the last line of standard output is the JSON result.  A full
record, with the run's hygiene (versions, BLAS threads, load), is written
to ``.perfbench_out/``.  Exits 1 after the result when the correctness
gate fails, and non-zero without a result when the checkout holds no
staosc sources, a self-check fails, or the worker fails.

This file uses only the standard library: the worker alone imports the
package under test.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selfcheck
from layers import METRICS

HERE = Path(__file__).resolve().parent

WORKLOADS = ("ensemble", "quantum", "sweep")
#: Fresh-process imports per run; the first is reported apart as the
#: coldest, the median of the rest is ``setup_s``.
SETUP_PROBES = 6
#: Whole run, set-up and worker included, must end within this.
DEADLINE_S = 170.0
#: BLAS threads of every worker.  On a shared 2-vCPU Xeon virtual machine
#: one thread is slower than two for ``quantum`` but spreads far less from
#: pass to pass, since idle BLAS threads spin and compete with the
#: interpreter thread.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env(root: Path) -> dict:
    """Environment of every worker: staosc from ``root/src``, BLAS_THREADS threads."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update({name: BLAS_THREADS for name in THREAD_VARS})
    return env


def call_worker(root: Path, args: list, deadline: float) -> dict:
    """Run worker.py to completion and return the JSON of its last line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the worker")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--root", str(root), *args],
        cwd=root,
        env=worker_env(root),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f} min={min(values):.4f} max={max(values):.4f}"


def end_to_end(record: dict, probes: list) -> tuple[dict, list]:
    nominal = [p["nominal_s"] for p in record["passes"]]
    raw = [p["wall_s"] for p in record["passes"]]
    warm = [p["nominal_s"] for p in probes[1:]]
    attempted, failed = record["attempted"], record["failed"]
    metrics = {
        "wall_s": (statistics.median(nominal), "s"),
        "setup_s": (statistics.median(warm), "s"),
        "peak_rss_mb": (record["peak_rss_kb"] / 1024.0, "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    notes = [
        f"wall_s: median of {len(nominal)} passes after warm-up, at nominal machine speed "
        f"({quartiles(nominal)})",
        f"raw wall_s: {statistics.median(raw):.4f} s ({quartiles(raw)})",
        f"setup_s: median of {len(warm)} warm fresh imports, at nominal machine speed "
        f"({quartiles(warm)}); raw {statistics.median(p['setup_s'] for p in probes[1:]):.4f} s; "
        f"first import {probes[0]['nominal_s']:.4f} s (raw {probes[0]['setup_s']:.4f} s)",
        f"error_rate: {failed / attempted:.4f} ratio ({failed} of {attempted} ops failed)",
    ]
    return metrics, notes


def per_layer(record: dict, probes: list) -> tuple[dict, list]:
    units = {name: unit for name, unit, _ in METRICS}
    traces = [t["metrics"] for t in record["traces"]]
    # times: median over traced passes; counts repeat, so the first pass's
    values = {
        name: statistics.median(t[name] for t in traces) if unit in ("s", "us") else traces[0][name]
        for name, unit in units.items()
    }
    untraced = statistics.median(p["nominal_s"] for p in record["passes"])
    traced = statistics.median(p["nominal_s"] for p in record["traced_passes"])
    values["trace.overhead_s"] = traced - untraced
    values["error_rate"] = record["failed"] / record["attempted"]
    values["process.cpu_s"] = statistics.median(p["cpu_s"] for p in record["passes"])
    values["process.blas_threads"] = record["blas"].get("numpy", {}).get("threads", 0)
    values["setup.first_probe_s"] = probes[0]["nominal_s"]
    counts = [
        {k: v for k, v in t.items() if units[k] not in ("s", "us")} for t in traces
    ]
    notes = [
        f"traced passes {len(traces)}, untraced wall_s {untraced:.4f}, traced wall_s {traced:.4f}",
        "per-layer counts repeat in every traced pass"
        if all(c == counts[0] for c in counts)
        else "WARNING: per-layer counts differ between traced passes",
    ]
    return {name: (values[name], units[name]) for name in units}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="staosc benchmark (see BENCHMARK.json)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd().resolve()
    if not (root / "src" / "staosc" / "__init__.py").is_file():
        print(f"no staosc sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    failures = selfcheck.run(out)
    if failures:
        print("benchmark self-check failed:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 3
    with open(out / "lock", "w") as lock:
        # one benchmark run at a time per checkout
        fcntl.flock(lock, fcntl.LOCK_EX)
        load = os.getloadavg()
        try:
            probes = [call_worker(root, ["--probe"], deadline)
                      for _ in range(SETUP_PROBES)]
            record = call_worker(
                root,
                ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                deadline,
            )
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
            print(f"benchmark run failed: {error}", file=sys.stderr)
            return 1

    ops = [op for p in record["passes"] + record["traced_passes"] for op in p["ops"]]
    record["attempted"] = len(ops)
    record["failed"] = sum(not op["ok"] for op in ops)
    metrics, notes = (per_layer if args.trace else end_to_end)(record, probes)
    record.update(
        setup_probes_s=probes,
        loadavg_at_start=load,
        nproc=len(os.sched_getaffinity(0)),
        thread_env={name: worker_env(root)[name] for name in THREAD_VARS},
        metrics=metrics,
    )
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"closed loop, 1 caller, {len(record['passes'][0]['ops'])} ops per pass")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:52s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    versions = record["versions"]
    blas = record["blas"]
    print(f"  python {versions['python']}, numpy {versions['numpy']}, scipy {versions['scipy']}; "
          + "; ".join(f"{k}: {v['config']} threads={v['threads']}" for k, v in blas.items()))
    print(f"  nproc {record['nproc']}, load average at start {load[0]:.2f}")
    for problem in dict.fromkeys(record["problems"]):
        print(f"  GATE: {problem}")
    errors = [f"{op['op']}: {op['error']}" for op in ops if "error" in op]
    for error, count in dict.fromkeys((e, errors.count(e)) for e in errors):
        print(f"  RAISED x{count}: {error}")
    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
