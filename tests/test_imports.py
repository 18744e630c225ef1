"""What a fresh process imports, and which binding each reference solve calls.

``import staosc`` loads numpy only.  Each scipy submodule is imported where
a route first needs it: ``scipy.interpolate`` by table ramps and the KS
distance, ``scipy.special`` by the cosine-ramp phase of the controlled Phi
and the bare work density, ``scipy.integrate`` by the DOP853 references.
The default ``engine-curves``, ``quantum-work-atoms`` and ``jarzynski-trace``
runs need none of them: the controlled work is a closed form and needs no
phase.  The import tests run in fresh interpreters, so that they see a clean
``sys.modules``; a module-level scipy import anywhere in the package fails
them.

The reference solvers call the ``solve_ivp`` of their own module, which
imports ``scipy.integrate`` on its first call.  ``perfbench/layers.py``
replaces that binding to count each layer's solves, so a function-local
``from scipy.integrate import solve_ivp`` would leave those counters at 0
without any error.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import staosc
from staosc import classical_dynamics, quantum_dynamics
from staosc.classical_dynamics import integrate
from staosc.protocols import cosine_ramp, omega_at, protocol_from_table
from staosc.quantum_dynamics import fock_transition_matrix

SRC = Path(staosc.__file__).resolve().parents[1]
LAZY = ("scipy.special", "scipy.interpolate", "scipy.integrate")

_PROBE = """
import json, sys
import staosc, staosc.cli_runner
code = {run}
print(json.dumps([code, [m for m in {lazy!r} if m in sys.modules]]))
"""


def _fresh_process(run: str, cwd: Path) -> tuple[int, list[str]]:
    """Exit code of ``run`` in a fresh interpreter, and the LAZY modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(run=run, lazy=LAZY)],
        capture_output=True, text=True, env=env, cwd=cwd, check=True,
    )
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, loaded


def test_import_loads_no_scipy_submodule(tmp_path):
    assert _fresh_process("0", tmp_path) == (0, [])


@pytest.mark.parametrize("experiment", ["engine-curves", "quantum-work-atoms", "jarzynski-trace"])
def test_default_run_loads_no_scipy_submodule(tmp_path, experiment):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema_version": 1, "experiment": experiment, "seed": 7}))
    run = f"staosc.cli_runner.main(['run', {str(config)!r}, '--out-dir', 'out'])"
    code, loaded = _fresh_process(run, tmp_path)
    assert code == 0
    assert (tmp_path / "out" / "summary.json").is_file()
    assert loaded == []


def _count_solves(monkeypatch, module) -> list:
    calls = []
    original = module.solve_ivp

    def counted(*args, **kwargs):
        calls.append(module.__name__)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "solve_ivp", counted)
    return calls


def test_reference_solves_call_their_own_module_binding(monkeypatch):
    states = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, -0.2]])
    ramp = cosine_ramp(10.0, 20.0, 0.05)
    t = np.linspace(0.0, 0.05, 6)
    table = protocol_from_table(list(zip(t, omega_at(ramp, t))))
    expected = (
        integrate(states, ramp),
        integrate(states, table, with_control=True),
        fock_transition_matrix(ramp, False, n_max=4, dimension=128).probs,
    )
    # perfbench's tracer names a span after the module that defines the function
    for module in (classical_dynamics, quantum_dynamics):
        assert module.solve_ivp.__module__ == module.__name__
    classical = _count_solves(monkeypatch, classical_dynamics)
    quantum = _count_solves(monkeypatch, quantum_dynamics)

    assert np.array_equal(integrate(states, ramp), expected[0])
    assert classical == ["staosc.classical_dynamics"] and quantum == []
    # a table is solved from knot to knot, one call per interval
    assert np.array_equal(integrate(states, table, with_control=True), expected[1])
    assert len(classical) == 1 + 5 and quantum == []
    assert np.array_equal(
        fock_transition_matrix(ramp, False, n_max=4, dimension=128).probs, expected[2]
    )
    assert quantum == ["staosc.quantum_dynamics"] and len(classical) == 6
