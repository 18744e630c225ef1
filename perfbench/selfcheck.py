"""Self-checks of the benchmark's own machinery, run at the start of every run.

* The tracer's self-time arithmetic is exact on a synthetic nested call,
  and patching reaches a second binding of the same function.
* The correctness gate passes the stored reference, passes it perturbed by
  1e-10 relative, and flags every Otto efficiency perturbed by 1e-6.
* An operation that raises is counted as failed while the pass goes on.

``python3 perfbench/selfcheck.py`` runs them alone.  None imports staosc.
"""

from __future__ import annotations

import sys
import tempfile
import types
from pathlib import Path

from gate import load_reference, reference_problems
from tracer import Tracer


def check_tracer() -> list[str]:
    now = [0.0]
    layer = types.ModuleType("synthetic_layer")
    caller = types.ModuleType("synthetic_caller")

    def leaf():
        now[0] += 4.0

    def inner():
        now[0] += 2.0
        layer.leaf()
        now[0] += 1.0

    def outer():
        now[0] += 1.0
        caller.inner()
        caller.inner()
        now[0] += 8.0

    for fn in (leaf, inner, outer):
        fn.__module__ = layer.__name__
        setattr(layer, fn.__name__, fn)
    caller.inner = inner  # a second binding, as ``from .layer import inner`` makes

    tracer = Tracer(clock=lambda: now[0])
    tracer.patch({"layer": layer}, [layer, caller])
    layer.outer()
    tracer.unpatch()
    got = tracer.by_name()
    want = {"layer.outer": (1, 9.0), "layer.inner": (2, 6.0), "layer.leaf": (2, 8.0)}
    problems = []
    if got != want:
        problems.append(f"tracer self times {got} != {want}")
    if caller.inner is not inner or layer.leaf is not leaf:
        problems.append("tracer.unpatch left a wrapper in place")
    return problems


def check_gate() -> list[str]:
    reference = load_reference()
    problems = []
    for op, values in reference["values"].items():
        nudged = {k: v if v is None else v * (1.0 + 1e-10) for k, v in values.items()}
        for label, candidate in (("exact", values), ("1e-10 relative", nudged)):
            if reference_problems(op, candidate, reference):
                problems.append(f"gate rejects the {label} reference of {op}")
    perturbed = 0
    for op, values in reference["values"].items():
        eta = values.get("efficiency")
        if op.startswith("otto/") and eta is not None and abs(eta) >= 1e-2:
            perturbed += 1
            if not reference_problems(op, dict(values, efficiency=eta * (1.0 + 1e-6)), reference):
                problems.append(f"gate misses a 1e-6 relative change of {op} efficiency")
    if perturbed < 5:
        problems.append(f"only {perturbed} Otto efficiencies to perturb")
    return problems


class KnownError(RuntimeError):
    pass


def check_failed_op(scratch: Path) -> list[str]:
    from worker import Runner, SpeedSampler

    def ok(seed, out_dir):
        return {"x": 1.0}, []

    def bad(seed, out_dir):
        raise ValueError("an unexpected failure")

    def known(seed, out_dir):
        raise KnownError("a documented failure")

    ops = [types.SimpleNamespace(name=fn.__name__, run=fn) for fn in (ok, bad, known, ok)]
    reference = {"rtol": 1e-7, "atol": 1e-9, "values": {"ok": {"x": 1.0}},
                 "known_failures": {"known": {"exception": KnownError.__name__}}}
    with tempfile.TemporaryDirectory(dir=scratch) as tmp, SpeedSampler() as sampler:
        runner = Runner(ops, 0, reference, Path(tmp), sampler)
        records = runner.run_pass()["ops"]
    problems = []
    if [r["ok"] for r in records] != [True, False, False, True]:
        problems.append(f"op outcomes {[(r['op'], r['ok']) for r in records]}")
    if len(runner.problems) != 1 or "unexpected ValueError" not in runner.problems[0]:
        problems.append(f"gate problems {runner.problems}")
    return problems


def run(scratch: Path) -> list[str]:
    """All self-check failures; ``scratch`` is a directory for temporary files."""
    return check_tracer() + check_gate() + check_failed_op(scratch)


if __name__ == "__main__":
    failures = run(Path.cwd())
    print("\n".join(failures) or "self-checks pass")
    sys.exit(1 if failures else 0)
