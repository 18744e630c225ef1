"""Four-stroke Otto engine built from frequency ramps of one oscillator.

Cycle corners (cold bath beta_1, hot bath beta_2 < beta_1):

    A: thermal at (beta_1, omega_i)
    A -> B: isolated expansion stroke, omega_i -> omega_f   (work in: W1)
    B -> C: contact with the hot bath at omega_f            (heat in: Q2)
    C -> D: isolated compression stroke, omega_f -> omega_i (work in: W3)
    D -> A: contact with the cold bath at omega_i           (heat out: Q4)

Every isolated stroke multiplies the mean energy by Q* omega_to/omega_from
where Q* is the adiabaticity factor of the stroke (1 for shortcut-controlled
strokes, whose energetics are those of a quasistatic stroke,
(omega_from^2+omega_to^2)/(2 omega_from omega_to) for sudden jumps, and
whatever the ramp actually does for bare finite-time strokes).  Net output
is W_net = -(W1 + W3) and efficiency eta = W_net / Q2 whenever the cycle
actually operates as an engine (W_net > 0 and Q2 > 0); otherwise the
result is flagged infeasible.

Shortcut strokes buy adiabatic energetics in arbitrarily short stroke
times, which is the whole point: at maximum power the shortcut engine
reaches the efficiency of the quasistatic cycle while cycling as fast as
the bath contacts allow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .classical_analytics import adiabaticity_parameter
from .errors import require_positive
from .protocols import FrequencyProtocol
from .quantum_dynamics import transition_matrix

CLASSICAL = "classical"
QUANTUM = "quantum"

STA = "sta"
SUDDEN = "sudden"
BARE = "bare"

_STROKE_KINDS = (STA, SUDDEN, BARE)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class StrokeKind:
    """How an isolated stroke is driven; bare strokes carry their protocol."""

    kind: str
    protocol: FrequencyProtocol | None = None

    def __post_init__(self):
        if self.kind not in _STROKE_KINDS:
            raise ValueError(f"unknown stroke kind {self.kind!r}")
        if self.kind == BARE and self.protocol is None:
            raise ValueError("bare strokes need an explicit protocol")
        if self.kind == BARE and not isinstance(self.protocol, FrequencyProtocol):
            raise TypeError(f"protocol must be a FrequencyProtocol, got {self.protocol!r}")
        if self.kind != BARE and self.protocol is not None:
            raise ValueError(f"{self.kind} strokes must not carry a protocol")

    @classmethod
    def sta(cls) -> "StrokeKind":
        return cls(STA)

    @classmethod
    def sudden(cls) -> "StrokeKind":
        return cls(SUDDEN)

    @classmethod
    def bare(cls, protocol: FrequencyProtocol) -> "StrokeKind":
        return cls(BARE, protocol=protocol)


def _require_unread_hbar(hbar: float) -> None:
    """Raise ValueError unless hbar is the default 1.0, which classical formulas do not read."""
    if hbar != 1.0:
        raise ValueError(f"a classical cycle does not read hbar; leave it at 1.0, got {hbar!r}")


@dataclass(frozen=True)
class OttoCycleSpec:
    """Full engine description; omega_f = None leaves it to the optimizer.

    Only a quantum cycle reads hbar; a classical one keeps the default 1.0.
    """

    beta_1: float
    beta_2: float
    omega_i: float
    omega_f: float | None
    regime: str = CLASSICAL
    stroke_1: StrokeKind = field(default_factory=StrokeKind.sta)
    stroke_3: StrokeKind = field(default_factory=StrokeKind.sta)
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("stroke_1", "stroke_3"):
            stroke = getattr(self, name)
            if not isinstance(stroke, StrokeKind):
                raise TypeError(f"{name} must be a StrokeKind, got {stroke!r}")
        if self.regime not in (CLASSICAL, QUANTUM):
            raise ValueError(f"regime must be 'classical' or 'quantum', got {self.regime!r}")
        require_positive(
            beta_1=self.beta_1, beta_2=self.beta_2, omega_i=self.omega_i, hbar=self.hbar
        )
        if self.regime == CLASSICAL:
            _require_unread_hbar(self.hbar)
        if self.beta_2 >= self.beta_1:
            raise ValueError(
                "the engine needs a hotter second bath: beta_2 < beta_1 "
                f"(got beta_1={self.beta_1!r}, beta_2={self.beta_2!r})"
            )
        if self.omega_f is not None and not math.isfinite(self.omega_f):
            raise ValueError(f"omega_f must be finite, got {self.omega_f!r}")
        if self.omega_f is not None and self.omega_f <= self.omega_i:
            raise ValueError("omega_f must exceed omega_i")


@dataclass(frozen=True)
class CycleResult:
    """Energy bookkeeping of one evaluated cycle."""

    energy_a: float
    energy_b: float
    energy_c: float
    energy_d: float
    work_in_1: float
    work_in_3: float
    heat_in_2: float
    heat_in_4: float
    w_net: float
    efficiency: float
    feasible: bool


def _thermal_energy(beta: float, omega: float, regime: str, hbar: float) -> float:
    """The formula of :func:`thermal_energy`, for inputs already checked."""
    if regime == CLASSICAL:
        return 1.0 / beta
    return 0.5 * hbar * omega / math.tanh(0.5 * beta * hbar * omega)


def thermal_energy(beta: float, omega: float, regime: str, hbar: float = 1.0) -> float:
    """Mean energy of a thermal oscillator: 1/beta, or the coth law.

    The quantum value (hbar omega / 2) coth(beta hbar omega / 2) is
    evaluated through tanh, which neither overflows deep in the quantum
    regime nor loses the classical limit.  Only the quantum value reads
    hbar; a classical one keeps the default 1.0.
    """
    require_positive(beta=beta, omega=omega, hbar=hbar)
    if regime == CLASSICAL:
        _require_unread_hbar(hbar)
    elif regime != QUANTUM:
        raise ValueError(f"unknown regime {regime!r}")
    return _thermal_energy(beta, omega, regime, hbar)


def _bare_q_star_quantum(protocol: FrequencyProtocol) -> float:
    """Q* of a bare stroke from its quantum transition matrix.

    Mean final level obeys <m + 1/2> = Q* (n + 1/2) for every initial
    level n, so the slope read off any row gives Q*; the first rows are
    averaged and checked for consistency.  The rows are cut where they sum
    to 1 within 1e-6, so the slope runs up to ~1e-6 relative below the
    classical Q*.
    """
    rows = 4
    tm = transition_matrix(protocol, with_control=False, n_max=rows, dimension=256)
    m = np.arange(tm.m_max) + 0.5
    slopes = (tm.probs @ m) / (np.arange(rows) + 0.5)
    if np.max(slopes) - np.min(slopes) > 1e-4 * np.mean(slopes):
        raise RuntimeError(
            f"inconsistent Q* estimates across levels: {slopes!r}; "
            "increase the basis dimension"
        )
    return float(np.mean(slopes))


def _stroke_energy_factor(
    stroke: StrokeKind, omega_from: float, omega_to: float, regime: str
) -> float:
    """The formula of :func:`stroke_energy_factor`, for positive frequencies and a known regime.

    A bare stroke's endpoints are checked here: they must match the
    frequencies the stroke is asked to run between.
    """
    if stroke.kind == STA:
        q_star = 1.0
    elif stroke.kind == SUDDEN:
        q_star = (omega_from**2 + omega_to**2) / (2.0 * omega_from * omega_to)
    else:
        proto = stroke.protocol
        if (
            abs(proto.omega_i - omega_from) > 1e-9 * omega_from
            or abs(proto.omega_f - omega_to) > 1e-9 * omega_to
        ):
            raise ValueError(
                f"bare stroke protocol runs {proto.omega_i} -> {proto.omega_f}, "
                f"but the cycle needs {omega_from} -> {omega_to}"
            )
        if regime == CLASSICAL:
            q_star = adiabaticity_parameter(proto)
        else:
            q_star = _bare_q_star_quantum(proto)
    return q_star * (omega_to / omega_from)


def stroke_energy_factor(
    stroke: StrokeKind,
    omega_from: float,
    omega_to: float,
    regime: str,
) -> float:
    """Mean-energy multiplier of an isolated stroke, Q* omega_to/omega_from.

    No stroke reads hbar: the transition probabilities a quantum bare
    stroke's Q* comes from do not depend on it.
    """
    require_positive(omega_from=omega_from, omega_to=omega_to)
    if regime not in (CLASSICAL, QUANTUM):
        raise ValueError(f"unknown regime {regime!r}")
    return _stroke_energy_factor(stroke, omega_from, omega_to, regime)


def _energy_a(spec: OttoCycleSpec) -> float:
    """Mean energy at corner A, which no choice of omega_f moves."""
    return _thermal_energy(spec.beta_1, spec.omega_i, spec.regime, spec.hbar)


def _corners_bcd(spec: OttoCycleSpec, e_a: float, omega_f: float) -> tuple[float, float, float]:
    """Mean energies at corners B, C, D of the cycle run from E_A = e_a up to omega_f.

    The spec was checked when it was built and omega_f is finite and above
    omega_i, so the formulas run without their input checks.
    """
    wi, regime = spec.omega_i, spec.regime
    e_b = _stroke_energy_factor(spec.stroke_1, wi, omega_f, regime) * e_a
    e_c = _thermal_energy(spec.beta_2, omega_f, regime, spec.hbar)
    e_d = _stroke_energy_factor(spec.stroke_3, omega_f, wi, regime) * e_c
    return e_b, e_c, e_d


def evaluate_cycle(spec: OttoCycleSpec) -> CycleResult:
    """Run the energy bookkeeping of one full cycle.

    Sign conventions: work_in_* is energy pushed *into* the oscillator by
    the drive, heat_in_* is energy absorbed *from* the bath.  Their sums
    close the first law exactly; W_net = -(work_in_1 + work_in_3).
    """
    if spec.omega_f is None:
        raise ValueError("omega_f is unset; call optimize_frequency instead")
    e_a = _energy_a(spec)
    e_b, e_c, e_d = _corners_bcd(spec, e_a, spec.omega_f)
    work_in_1 = e_b - e_a
    heat_in_2 = e_c - e_b
    work_in_3 = e_d - e_c
    heat_in_4 = e_a - e_d
    w_net = -(work_in_1 + work_in_3)
    feasible = w_net > 0.0 and heat_in_2 > 0.0
    efficiency = w_net / heat_in_2 if feasible else math.nan
    return CycleResult(
        energy_a=e_a,
        energy_b=e_b,
        energy_c=e_c,
        energy_d=e_d,
        work_in_1=work_in_1,
        work_in_3=work_in_3,
        heat_in_2=heat_in_2,
        heat_in_4=heat_in_4,
        w_net=w_net,
        efficiency=efficiency,
        feasible=feasible,
    )


@dataclass(frozen=True)
class OptimizationResult:
    """Frequency chosen for maximum net work, plus the cycle it produces."""

    omega_f: float
    cycle: CycleResult
    at_boundary: bool


def optimize_frequency(
    spec: OttoCycleSpec,
    bracket: tuple[float, float] | None = None,
    tol: float = 1e-8,
) -> OptimizationResult:
    """Golden-section maximization of W_net over omega_f.

    The default bracket spans (1 + 1e-6) omega_i up to a multiple of the
    classical maximum-power optimum sqrt(beta_1/beta_2) omega_i, which
    contains the interior maximum for every stroke combination used here.
    A result within a few tolerances of either edge is flagged
    at_boundary — the caller asked for a maximum the bracket does not
    contain.
    """
    if bracket is None:
        ratio = spec.beta_1 / spec.beta_2
        hi = spec.omega_i * max(10.0, 3.0 * math.sqrt(ratio))
        bracket = (spec.omega_i * (1.0 + 1e-6), hi)
    require_positive(tol=tol)
    lo, hi = bracket
    if not (spec.omega_i < lo < hi < math.inf):
        raise ValueError(f"bracket {bracket!r} must be finite with omega_i < lo < hi")

    # the operations of evaluate_cycle's w_net, without building a cycle per
    # probe; every probe lies inside the checked bracket, so it is a valid
    # omega_f, and E_A does not depend on it
    e_a = _energy_a(spec)

    def w_net(omega_f: float) -> float:
        e_b, e_c, e_d = _corners_bcd(spec, e_a, omega_f)
        return -((e_b - e_a) + (e_d - e_c))

    # golden-section: iteration count fixed by the bracket and tolerance
    span = hi - lo
    steps = max(1, math.ceil(math.log(tol * spec.omega_i / span) / math.log(_GOLDEN)))
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = w_net(c), w_net(d)
    for _ in range(steps):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = w_net(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = w_net(d)
    omega_star = 0.5 * (a + b)
    cycle = evaluate_cycle(replace(spec, omega_f=omega_star))
    edge = 10.0 * max(tol * spec.omega_i, 1e-12 * span)
    at_boundary = (omega_star - lo) < edge or (hi - omega_star) < edge
    return OptimizationResult(omega_f=omega_star, cycle=cycle, at_boundary=at_boundary)


def eta_adiabatic_max_power(beta_ratio: float) -> float:
    """Classical maximum-power efficiency with adiabatic-energetics strokes.

    1 - sqrt(beta_2/beta_1), with beta_ratio = beta_1/beta_2 > 1 (the
    Curzon-Ahlborn value for this cycle).
    """
    if not (1.0 < beta_ratio < math.inf):
        raise ValueError(f"beta_ratio = beta_1/beta_2 must be finite and > 1, got {beta_ratio!r}")
    return 1.0 - math.sqrt(1.0 / beta_ratio)


def eta_sudden_max_power(beta_ratio: float) -> float:
    """Classical maximum-power efficiency with sudden jumps: (1-s)/(2+s)."""
    if not (1.0 < beta_ratio < math.inf):
        raise ValueError(f"beta_ratio = beta_1/beta_2 must be finite and > 1, got {beta_ratio!r}")
    s = math.sqrt(1.0 / beta_ratio)
    return (1.0 - s) / (2.0 + s)
