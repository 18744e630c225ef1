"""Correctness gate behind ``correct``, ``failed`` and the error rate.

Seed-independent outputs of every operation are compared with
``reference.json``: a value passes when |value - reference| <= rtol * |reference|
+ atol.  rtol = 1e-7 flags a 1e-6 relative change of any output of order
one, yet admits exact reformulations whose differences stay near 1e-10 (a
closed-form controlled flow, Husimi instead of Fock transition
probabilities); atol = 1e-9 covers outputs that are zero up to round-off.
NaN (an infeasible Otto cycle) is stored as null and must stay NaN.

Operations listed under ``known_failures`` raise at the reference commit;
they count as failed ops but do not make the run incorrect.  Any other
raised exception, and any output outside tolerance, does.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def close(value, expected, rtol: float, atol: float) -> bool:
    if expected is None:
        return value is None or (isinstance(value, float) and math.isnan(value))
    if value is None or not math.isfinite(value):
        return False
    return abs(value - expected) <= rtol * abs(expected) + atol


def reference_problems(op: str, values: dict, reference: dict) -> list[str]:
    """Differences between an operation's values and the stored reference."""
    expected = reference["values"].get(op)
    if expected is None:
        if op in reference["known_failures"]:
            return []
        return [f"no reference values stored for {op}"]
    rtol, atol = reference["rtol"], reference["atol"]
    problems = []
    for key, want in expected.items():
        if key not in values:
            problems.append(f"{key}: missing from the output")
        elif not close(values[key], want, rtol, atol):
            problems.append(f"{key} = {values[key]!r}, reference {want!r}")
    return problems


def expected_failure(op: str, error: BaseException, reference: dict) -> bool:
    """True when ``op`` is documented to raise exactly this exception type."""
    known = reference["known_failures"].get(op)
    return known is not None and known["exception"] == type(error).__name__


def jsonable(values: dict) -> dict:
    """Values with NaN replaced by null, as stored in the reference."""
    return {k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in values.items()}
