"""The benchmark's traced run names functions of the package by hand.

``perfbench/layers.py`` hooks ``classical_work_ensemble`` and
``propagate_ensemble``, counts distinct calls of ``sample_gibbs`` and
``basic_solutions``, and replaces ``solve_ivp`` in each solver layer.  A
deleted or renamed target breaks ``perfbench/run.py --trace``, so this test
instruments the imported package as that run does and undoes it again.
"""

import importlib
import sys
from pathlib import Path

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
