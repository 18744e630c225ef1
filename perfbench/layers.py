"""staosc's layers as the traced run sees them, and the per-layer metrics.

The seven layers are the seven modules of the package.  Every public
function of each is traced (see ``tracer``); a few carry counters that
measure work done or wasted: redundancy counters (distinct argument keys
against calls) on ``fundamental_matrix``, ``sample_gibbs``, ``eigenbasis``
and ``basic_solutions``, and the calls, right-hand-side evaluations, steps
and failures of ``solve_ivp`` as each solver layer binds it.
"""

from __future__ import annotations

import inspect
import sys

LAYERS = (
    "protocols",
    "classical_dynamics",
    "classical_analytics",
    "quantum_dynamics",
    "work_statistics",
    "otto_engine",
    "cli_runner",
)
SOLVER_LAYERS = ("classical_dynamics", "classical_analytics", "quantum_dynamics")
#: Functions whose distinct argument keys are counted against their calls.
DISTINCT = (
    "classical_dynamics.fundamental_matrix",
    "classical_dynamics.sample_gibbs",
    "quantum_dynamics.eigenbasis",
    "classical_analytics.basic_solutions",
)
PDFS = ("pdf_adiabatic", "pdf_nonadiabatic", "pdf_sudden")

#: (metric name, unit, better) of every per-layer metric, in report order.
#: A ``useful_ratio`` is distinct / calls, its base being the ``calls``
#: metric beside it; with no calls there is nothing redundant and it reads 1.
METRICS = (
    ("protocols.calls", "count", "lower"),
    ("protocols.scalar_calls", "count", "lower"),
    ("protocols.self_s", "s", "lower"),
    ("protocols.us_per_call", "us", "lower"),
    ("classical_dynamics.self_s", "s", "lower"),
    ("classical_dynamics.sample_gibbs.calls", "count", "lower"),
    ("classical_dynamics.sample_gibbs.distinct", "count", "lower"),
    ("classical_dynamics.sample_gibbs.useful_ratio", "ratio", "higher"),
    ("classical_dynamics.fundamental_matrix.calls", "count", "lower"),
    ("classical_dynamics.fundamental_matrix.distinct", "count", "lower"),
    ("classical_dynamics.fundamental_matrix.useful_ratio", "ratio", "higher"),
    ("classical_dynamics.propagate_ensemble.states", "count", "lower"),
    ("classical_dynamics.integrate.calls", "count", "lower"),
    ("classical_dynamics.integrate.self_s", "s", "lower"),
    ("classical_analytics.self_s", "s", "lower"),
    ("classical_analytics.basic_solutions.calls", "count", "lower"),
    ("classical_analytics.basic_solutions.distinct", "count", "lower"),
    ("classical_analytics.basic_solutions.useful_ratio", "ratio", "higher"),
    ("classical_analytics.pdf.calls", "count", "lower"),
    ("classical_analytics.pdf.points", "count", "lower"),
    ("quantum_dynamics.self_s", "s", "lower"),
    ("quantum_dynamics.transition_matrix.calls", "count", "lower"),
    ("quantum_dynamics.transition_matrix.columns", "count", "lower"),
    ("quantum_dynamics.eigenbasis.calls", "count", "lower"),
    ("quantum_dynamics.eigenbasis.distinct", "count", "lower"),
    ("quantum_dynamics.eigenbasis.useful_ratio", "ratio", "higher"),
    ("quantum_dynamics.atoms_in", "count", "lower"),
    ("quantum_dynamics.atoms_out", "count", "lower"),
    ("quantum_dynamics.failures", "count", "lower"),
    ("work_statistics.self_s", "s", "lower"),
    ("work_statistics.ks_distance.calls", "count", "lower"),
    ("work_statistics.ks_distance.self_s", "s", "lower"),
    ("work_statistics.integrate_density.calls", "count", "lower"),
    ("work_statistics.classical_work_ensemble.samples", "count", "lower"),
    ("otto_engine.self_s", "s", "lower"),
    ("otto_engine.evaluate_cycle.calls", "count", "lower"),
    ("otto_engine.stroke_energy_factor.calls", "count", "lower"),
    ("otto_engine.optimize_frequency.calls", "count", "lower"),
    ("cli_runner.self_s", "s", "lower"),
    ("cli_runner.run_experiment.calls", "count", "lower"),
    ("cli_runner.bytes_written", "B", "lower"),
    *(
        (f"solver.{layer}.{what}", "count", "lower")
        for layer in SOLVER_LAYERS
        for what in ("calls", "nfev", "steps", "failed")
    ),
    ("error_rate", "ratio", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("process.blas_threads", "count", "lower"),
    ("setup.first_probe_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _distinct_hook(name: str, fn):
    signature = inspect.signature(fn)

    def after(tracer, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.keys.setdefault(name, set()).add(tuple(bound.arguments.items()))

    return after


def _argument(position: int, keyword: str):
    def get(args, kwargs):
        return args[position] if len(args) > position else kwargs[keyword]

    return get


def _hooks(modules: dict) -> dict:
    def scalar_t(tracer, args, kwargs, result):
        t = args[1] if len(args) > 1 else kwargs["t"]
        if getattr(t, "ndim", 0) == 0:
            tracer.counts["protocols.scalar_calls"] += 1

    def pdf_points(tracer, args, kwargs, result):
        tracer.counts["classical_analytics.pdf.calls"] += 1
        tracer.counts["classical_analytics.pdf.points"] += getattr(result, "size", 1)

    states = _argument(0, "states")

    def ensemble_states(tracer, args, kwargs, result):
        tracer.counts["classical_dynamics.propagate_ensemble.states"] += len(states(args, kwargs))

    tm_signature = inspect.signature(modules["quantum_dynamics"].transition_matrix)

    def columns(tracer, args, kwargs, result):
        bound = tm_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.counts["quantum_dynamics.transition_matrix.columns"] += bound.arguments["n_max"]

    tm = _argument(0, "tm")

    def atoms(tracer, args, kwargs, result):
        tracer.counts["quantum_dynamics.atoms_in"] += tm(args, kwargs).probs.size
        tracer.counts["quantum_dynamics.atoms_out"] += result.works.size

    spec = _argument(1, "spec")

    def samples(tracer, args, kwargs, result):
        tracer.counts["work_statistics.classical_work_ensemble.samples"] += spec(args, kwargs).count

    hooks = {
        "protocols.omega_at": scalar_t,
        "protocols.omega_dot_at": scalar_t,
        "classical_dynamics.propagate_ensemble": ensemble_states,
        "quantum_dynamics.transition_matrix": columns,
        "quantum_dynamics.quantum_work_atoms": atoms,
        "work_statistics.classical_work_ensemble": samples,
    }
    hooks.update({f"classical_analytics.{pdf}": pdf_points for pdf in PDFS})
    for name in DISTINCT:
        layer, function = name.split(".")
        hooks[name] = _distinct_hook(name, getattr(modules[layer], function))
    return hooks


def _counted_solver(tracer, layer: str, solve_ivp):
    prefix = f"solver.{layer}."
    counts = tracer.counts

    def solve(*args, **kwargs):
        counts[prefix + "calls"] += 1
        try:
            sol = solve_ivp(*args, **kwargs)
        except BaseException:
            counts[prefix + "failed"] += 1
            raise
        counts[prefix + "nfev"] += sol.nfev
        counts[prefix + "steps"] += len(sol.t) - 1
        counts[prefix + "failed"] += not sol.success
        return sol

    return solve


def instrument(tracer) -> None:
    """Trace every layer of the imported staosc package (undo: ``unpatch``)."""
    modules = {layer: sys.modules[f"staosc.{layer}"] for layer in LAYERS}
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "staosc" or name.startswith("staosc."))]
    tracer.patch(modules, namespaces, _hooks(modules))
    for layer in SOLVER_LAYERS:
        module = modules[layer]
        tracer.replace(module, "solve_ivp", _counted_solver(tracer, layer, module.solve_ivp))


def layer_metrics(tracer) -> dict:
    """Per-layer counts and self times of the spans of one traced pass."""
    out = {name: 0 for name, _, _ in METRICS}
    by_name = tracer.by_name()
    for name, (calls, self_s) in by_name.items():
        layer = name.split(".")[0]
        out[f"{layer}.self_s"] += self_s
        if layer == "protocols":
            out["protocols.calls"] += calls
        for key, value in ((f"{name}.calls", calls), (f"{name}.self_s", self_s)):
            if key in out:
                out[key] = value
    for key, value in tracer.counts.items():
        out[key] = value
    for name in DISTINCT:
        distinct = len(tracer.keys.get(name, ()))
        calls = by_name.get(name, (0, 0.0))[0]
        out[f"{name}.distinct"] = distinct
        out[f"{name}.useful_ratio"] = distinct / calls if calls else 1.0
    out["protocols.us_per_call"] = (
        1e6 * out["protocols.self_s"] / out["protocols.calls"] if out["protocols.calls"] else 0.0
    )
    out["quantum_dynamics.failures"] = tracer.escaped("quantum_dynamics")
    return out
