"""What a fresh process imports, and which binding each reference solve calls.

``import staosc`` loads numpy only, and ``staosc.cli_runner`` adds no
third-party module: it checks configs by walking its experiment table, so
no run loads ``jsonschema`` or its dependencies (``referencing``, ``rpds``,
``attrs``); ``jsonschema`` is a test dependency, the oracle of
``tests/test_config_validation.py``.  Each scipy submodule is imported where
a route first needs it: ``scipy.interpolate`` by table ramps only,
``scipy.special`` by the cosine-ramp phase of the controlled Phi.  No
route loads ``scipy.integrate``: the DOP853 references run
``staosc._dop853``, scipy's algorithm ported to numpy, which loads no scipy
module at all.  No default run needs a scipy submodule.  The default
``engine-curves``, ``quantum-work-atoms`` and ``jarzynski-trace`` runs
need no phase: the controlled work is a closed form.  The default
``classical-work-dist`` takes the Bessel factor of its work-density law
from numpy's ``i0`` and an asymptotic series, and the KS distance builds
its CDF with numpy alone.  ``verify`` runs its DOP853 references through
the port and its normalization checks without ``scipy.interpolate``.  The
import tests run in fresh interpreters, so that they see a clean
``sys.modules``; a module-level scipy or ``jsonschema`` import anywhere in
the package fails them.

The reference solvers call the ``solve_ivp`` of their own module.
``perfbench/layers.py`` replaces that binding to count each layer's
solves, so a solve that bypassed it would leave those counters at 0
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
#: The schema library and the packages it pulls in, which no run loads.
SCHEMA_LIBRARY = ("jsonschema", "referencing", "rpds", "attrs")

_PROBE = """
import json, sys
import staosc, staosc.cli_runner
code = {run}
top = {{m.split('.')[0] for m in sys.modules}}
print(json.dumps([code, [m for m in {lazy!r} if m in sys.modules],
                  [m for m in {schema!r} if m in top]]))
"""


def _python(code: str, cwd: Path) -> str:
    """The last line ``code`` prints in a fresh interpreter that finds this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd, check=True,
    )
    return proc.stdout.splitlines()[-1]


def _fresh_process(run: str, cwd: Path) -> tuple[int, list[str], list[str]]:
    """Exit code of ``run`` in a fresh interpreter, and the LAZY and SCHEMA_LIBRARY
    modules it loaded."""
    probe = _PROBE.format(run=run, lazy=LAZY, schema=SCHEMA_LIBRARY)
    return tuple(json.loads(_python(probe, cwd)))


def test_import_loads_no_scipy_submodule(tmp_path):
    assert _fresh_process("0", tmp_path)[:2] == (0, [])


def test_import_loads_no_schema_library(tmp_path):
    assert _fresh_process("0", tmp_path) == (0, [], [])


def test_dop853_port_loads_no_scipy_module(tmp_path):
    probe = ("import json, sys, staosc._dop853; "
             "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    assert json.loads(_python(probe, tmp_path)) == []


@pytest.mark.parametrize(
    "experiment, expected",
    [
        pytest.param(experiment, expected, id=experiment)
        for experiment, expected in (
            ("engine-curves", []),
            ("quantum-work-atoms", []),
            ("jarzynski-trace", []),
            ("classical-work-dist", []),
            ("verify", []),
        )
    ],
)
def test_default_run_loads_no_scipy_submodule(tmp_path, experiment, expected):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema_version": 1, "experiment": experiment, "seed": 7}))
    run = f"staosc.cli_runner.main(['run', {str(config)!r}, '--out-dir', 'out'])"
    code, loaded, schema = _fresh_process(run, tmp_path)
    assert code == 0
    assert (tmp_path / "out" / "summary.json").is_file()
    assert loaded == expected
    assert schema == []  # validating the config loads no schema library either


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
