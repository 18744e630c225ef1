"""The benchmark names functions and fields of the package by hand.

``perfbench/layers.py`` hooks ``classical_work_ensemble`` and
``propagate_ensemble``, counts distinct calls of ``sample_gibbs`` and
``basic_solutions``, counts the points of the densities it names in
``layers.PDFS`` (``pdf_adiabatic``, ``pdf_nonadiabatic``, ``pdf_sudden``:
the first and last are kept as one-call wrappers of the one law for this
hook alone), and replaces ``solve_ivp`` in each solver layer.  A deleted or
renamed target breaks ``perfbench/run.py --trace``, so one test instruments
the imported package as that run does and undoes it again.

``perfbench/workloads.py`` builds Otto cycles from ``StrokeKind.bare``,
``OttoCycleSpec`` fields and the ``CLASSICAL``/``QUANTUM`` regimes, reads
``CycleResult`` fields, and runs experiments through ``cli_runner``.  The
other test runs one operation of each kind, so that an API change it
depends on fails here and not only in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

import staosc  # noqa: F401  (instrument reads the imported staosc modules)
import staosc.cli_runner  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings():
    """Every function binding of every imported staosc module, by (module, name)."""
    return {
        (name, attr): obj
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "staosc" or name.startswith("staosc."))
        for attr, obj in vars(module).items()
        if callable(obj)
    }


def test_benchmark_instruments_the_package_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    before = _bindings()
    layers.instrument(tracer)
    try:
        during = _bindings()
        replaced = {key for key, obj in during.items() if obj is not before[key]}
        for layer in layers.SOLVER_LAYERS:
            assert (f"staosc.{layer}", "solve_ivp") in replaced
        for name in ("classical_dynamics.sample_gibbs", "work_statistics.classical_work_ensemble",
                     "classical_dynamics.propagate_ensemble", "classical_analytics.basic_solutions"):
            layer, function = name.split(".")
            assert (f"staosc.{layer}", function) in replaced
            assert ("staosc", function) in replaced  # the package re-export
    finally:
        tracer.unpatch()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize(
    "op", ["otto/classical/tau_omega_i=0.001", "otto/quantum/tau_omega_i=0.001", "engine-curves"]
)
def test_benchmark_operations_run_without_problems(op, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = {o.name: o for w in workloads.WORKLOADS.values() for o in w.ops}
    values, problems = ops[op].run(7, tmp_path)
    assert values
    assert problems == []
