"""The benchmark's workloads: fixed lists of operations on the staosc API.

Every operation is one call a user makes (an experiment through
``cli_runner.run_experiment`` or one Otto cycle through
``otto_engine.evaluate_cycle``).  It returns two things for the correctness
gate: ``values``, its seed-independent outputs, which ``gate`` compares with
the stored reference, and ``problems``, the closed-form and physics checks
that failed on its seed-dependent outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from staosc import cli_runner, otto_engine
from staosc.protocols import cosine_ramp

#: Monte Carlo sample means must lie this many standard errors from theory.
MEAN_SIGMAS = 5.0

#: quantum-work-atoms ramp speeds of the ``quantum`` workload.
ATOMS_TAU_OMEGA = (1e-3, 0.05, 0.2, 0.5, 1.0)
ATOMS_NUMERIC = {"basis_size": 512, "n_max": 32}

#: Otto cycles of the ``sweep`` workload: bare cosine strokes 10 -> 20 -> 10.
OTTO_OMEGA = (10.0, 20.0)
OTTO_BETA = (1.0, 0.25)
OTTO_TAU_OMEGA = {
    otto_engine.CLASSICAL: tuple(np.geomspace(1e-3, 300.0, 10)),
    otto_engine.QUANTUM: tuple(np.geomspace(1e-3, 18.0, 8)),
}
#: The slowest classical bare cycle must reach the adiabatic efficiency.
SLOW_ETA, SLOW_ETA_TOL = 1.0 - OTTO_OMEGA[0] / OTTO_OMEGA[1], 1e-3


@dataclass(frozen=True)
class Op:
    """One benchmark operation: ``run(seed, out_dir) -> (values, problems)``."""

    name: str
    run: Callable[[int, Path], tuple[dict, list]]


def _failed_checks(summary: dict) -> list:
    return [
        f"check {c['name']} failed: {c['detail']}"
        for c in summary["checks"]
        if not c["passed"]
    ]


def _experiment(name: str, seed: int, out_dir: Path, **sections) -> dict:
    config = {"schema_version": cli_runner.SCHEMA_VERSION, "experiment": name, "seed": seed}
    config.update(sections)
    return cli_runner.run_experiment(config, out_dir)


def _mean_problem(label: str, mean: float, std: float, count: int, expected: float):
    stderr = std / math.sqrt(count)
    if abs(mean - expected) > MEAN_SIGMAS * stderr:
        return [
            f"{label} sample mean {mean:.6g} is {abs(mean - expected) / stderr:.1f} "
            f"standard errors from the closed form {expected:.6g}"
        ]
    return []


def classical_work_dist(seed: int, out_dir: Path):
    summary = _experiment("classical-work-dist", seed, out_dir)
    derived = summary["derived"]
    analytic = derived["analytic"]
    count = summary["parameters"]["numeric"]["samples"]
    problems = _failed_checks(summary)
    for label, key in (("sta", "adiabatic_mean"), ("bare", "nonadiabatic_mean")):
        d = derived[label]
        problems += _mean_problem(label, d["mean"], d["std"], count, analytic[key])
    return {f"analytic.{k}": v for k, v in analytic.items()}, problems


def jarzynski_trace(seed: int, out_dir: Path):
    summary = _experiment("jarzynski-trace", seed, out_dir)
    derived = summary["derived"]
    values = {"target": derived["target"], "delta_f": derived["delta_f"]}
    return values, _failed_checks(summary)


def quantum_work_atoms(tau_omega_i: float) -> Callable:
    def run(seed: int, out_dir: Path):
        summary = _experiment(
            "quantum-work-atoms",
            seed,
            out_dir,
            physical={"tau_omega_i": tau_omega_i},
            numeric=dict(ATOMS_NUMERIC),
        )
        derived = summary["derived"]
        values = {k: derived[k] for k in ("delta_f", "jarzynski_target")}
        for label in ("sta", "bare"):
            values.update({f"{label}.{k}": v for k, v in derived[label].items()})
        return values, _failed_checks(summary)

    return run


def _read_csv(path: Path) -> dict:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    names = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def engine_curves(seed: int, out_dir: Path):
    summary = _experiment("engine-curves", seed, out_dir)
    table = _read_csv(out_dir / "engine_curves.csv")
    values, problems = {}, _failed_checks(summary)
    for i, ratio in enumerate(table["beta_ratio"]):
        carnot = 1.0 - 1.0 / ratio
        for column in ("eta_sta", "eta_sudden"):
            eta = table[column][i]
            values[f"{column}[{i}]"] = eta
            if eta > carnot:
                problems.append(f"{column} = {eta!r} exceeds Carnot {carnot!r} at ratio {ratio!r}")
    return values, problems


def verify(seed: int, out_dir: Path):
    return {}, _failed_checks(_experiment("verify", seed, out_dir))


def otto_cycle(regime: str, tau_omega_i: float) -> Callable:
    wi, wf = OTTO_OMEGA
    tau = tau_omega_i / wi
    slowest = regime == otto_engine.CLASSICAL and tau_omega_i == max(OTTO_TAU_OMEGA[regime])

    def run(seed: int, out_dir: Path):
        spec = otto_engine.OttoCycleSpec(
            beta_1=OTTO_BETA[0],
            beta_2=OTTO_BETA[1],
            omega_i=wi,
            omega_f=wf,
            regime=regime,
            stroke_1=otto_engine.StrokeKind.bare(cosine_ramp(wi, wf, tau)),
            stroke_3=otto_engine.StrokeKind.bare(cosine_ramp(wf, wi, tau)),
        )
        cycle = otto_engine.evaluate_cycle(spec)
        values = {
            "efficiency": cycle.efficiency,
            "w_net": cycle.w_net,
            "heat_in_2": cycle.heat_in_2,
        }
        problems = []
        carnot = 1.0 - OTTO_BETA[1] / OTTO_BETA[0]
        if cycle.feasible and not cycle.efficiency <= carnot:
            problems.append(f"efficiency {cycle.efficiency!r} exceeds Carnot {carnot!r}")
        if slowest and not abs(cycle.efficiency - SLOW_ETA) <= SLOW_ETA_TOL:
            problems.append(
                f"slowest bare cycle efficiency {cycle.efficiency!r} is not "
                f"{SLOW_ETA} +- {SLOW_ETA_TOL}"
            )
        return values, problems

    return run


def _otto_ops():
    return [
        Op(f"otto/{regime}/tau_omega_i={t:.6g}", otto_cycle(regime, t))
        for regime, taus in OTTO_TAU_OMEGA.items()
        for t in taus
    ]


@dataclass(frozen=True)
class Workload:
    """Operations of one pass, warm-up operations and calibration kernel.

    The warm-up runs the cheapest operation of each kind once, so that lazy
    imports and the first LAPACK call are paid before timing starts.  The
    kernel (see ``worker.KERNELS``) is the one whose speed tracks the
    workload's own work best.
    """

    ops: list
    warmup: list
    kernel: str


WORKLOADS = {
    "ensemble": Workload(
        [
            Op("classical-work-dist", classical_work_dist),
            Op("jarzynski-trace", jarzynski_trace),
        ],
        ["classical-work-dist"],
        "banded",
    ),
    "quantum": Workload(
        [
            Op(f"quantum-work-atoms/tau_omega_i={t:g}", quantum_work_atoms(t))
            for t in ATOMS_TAU_OMEGA
        ]
        + [Op("engine-curves", engine_curves)],
        ["quantum-work-atoms/tau_omega_i=0.001", "engine-curves"],
        "banded",
    ),
    "sweep": Workload(
        [Op("verify", verify)] + _otto_ops(),
        ["otto/classical/tau_omega_i=0.001", "otto/quantum/tau_omega_i=0.001"],
        "scalar",
    ),
}
