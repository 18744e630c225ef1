import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staosc.otto_engine import (
    BARE,
    CLASSICAL,
    QUANTUM,
    STA,
    SUDDEN,
    CycleResult,
    OptimizationResult,
    OttoCycleSpec,
    StrokeKind,
    eta_adiabatic_max_power,
    eta_sudden_max_power,
    evaluate_cycle,
    optimize_frequency,
    stroke_energy_factor,
    thermal_energy,
)
from staosc.invariants import carnot_margin
from staosc.protocols import cosine_ramp
from staosc.quantum_dynamics import fock_transition_matrix

WI = 10.0
WF = 10.0 * math.sqrt(3.0)
HBAR_SCALED = 1.0 / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# thermal energy
# ---------------------------------------------------------------------------

def test_thermal_energy_classical():
    assert thermal_energy(0.2, WI, CLASSICAL) == pytest.approx(5.0, rel=1e-14)
    assert thermal_energy(0.2, 999.0, CLASSICAL) == pytest.approx(5.0, rel=1e-14)


def test_thermal_energy_quantum_limits():
    # deep quantum: ground-state energy hbar omega / 2
    assert thermal_energy(100.0, WI, QUANTUM) == pytest.approx(5.0, rel=1e-12)
    # high temperature: classical equipartition
    assert thermal_energy(1e-5, WI, QUANTUM) == pytest.approx(1e5, rel=1e-6)
    # hbar scaling
    assert thermal_energy(100.0, WI, QUANTUM, hbar=0.5) == pytest.approx(2.5, rel=1e-10)


def test_thermal_energy_exceeds_classical_value():
    # coth law always sits above equipartition
    for beta in (0.01, 0.2, 1.0, 10.0):
        assert thermal_energy(beta, WI, QUANTUM) > thermal_energy(beta, WI, CLASSICAL)


def test_thermal_energy_input_guards():
    with pytest.raises(ValueError):
        thermal_energy(-1.0, WI, CLASSICAL)
    with pytest.raises(ValueError):
        thermal_energy(0.2, 0.0, QUANTUM)
    with pytest.raises(ValueError):
        thermal_energy(0.2, WI, "semiclassical")


# ---------------------------------------------------------------------------
# stroke factors
# ---------------------------------------------------------------------------

def test_sta_stroke_factor_is_frequency_ratio():
    assert stroke_energy_factor(StrokeKind.sta(), WI, WF, CLASSICAL) == pytest.approx(
        WF / WI, rel=1e-14
    )
    assert stroke_energy_factor(StrokeKind.sta(), WF, WI, QUANTUM) == pytest.approx(
        WI / WF, rel=1e-14
    )


def test_sudden_stroke_factor():
    q_star = (WI**2 + WF**2) / (2.0 * WI * WF)
    expected = q_star * WF / WI
    assert stroke_energy_factor(StrokeKind.sudden(), WI, WF, CLASSICAL) == pytest.approx(
        expected, rel=1e-14
    )
    # compression uses the same Q*
    assert stroke_energy_factor(StrokeKind.sudden(), WF, WI, CLASSICAL) == pytest.approx(
        q_star * WI / WF, rel=1e-14
    )


def test_bare_slow_stroke_approaches_quasistatic():
    proto = cosine_ramp(WI, WF, 40.0)
    bare = stroke_energy_factor(StrokeKind.bare(proto), WI, WF, CLASSICAL)
    assert bare == pytest.approx(WF / WI, rel=1e-2)


def test_bare_fast_stroke_approaches_sudden():
    proto = cosine_ramp(WI, WF, 1e-4)
    bare = stroke_energy_factor(StrokeKind.bare(proto), WI, WF, CLASSICAL)
    sudden = stroke_energy_factor(StrokeKind.sudden(), WI, WF, CLASSICAL)
    assert bare == pytest.approx(sudden, rel=1e-4)


def _q_star_from_fock_propagation(proto):
    """Q* read off a propagated transition matrix.

    The mean final level obeys <m + 1/2> = Q* (n + 1/2) for every initial
    level n, so each row's slope gives Q*; the first rows must agree.
    """
    rows = 4
    tm = fock_transition_matrix(proto, with_control=False, n_max=rows, dimension=256)
    slopes = (tm.probs @ (np.arange(tm.m_max) + 0.5)) / (np.arange(rows) + 0.5)
    assert np.max(slopes) - np.min(slopes) <= 1e-4 * np.mean(slopes)
    return float(np.mean(slopes))


def test_bare_quantum_matches_classical_q_star():
    proto = cosine_ramp(WI, WF, 0.02)
    classical = stroke_energy_factor(StrokeKind.bare(proto), WI, WF, CLASSICAL)
    quantum = stroke_energy_factor(StrokeKind.bare(proto), WI, WF, QUANTUM)
    # Q* of a quadratic Hamiltonian is the same object in both regimes
    assert quantum == pytest.approx(classical, rel=1e-4)
    propagated = _q_star_from_fock_propagation(proto) * WF / WI
    assert quantum == pytest.approx(propagated, rel=1e-4)
    assert classical == pytest.approx(propagated, rel=1e-4)


def test_bare_stroke_endpoint_mismatch_rejected():
    proto = cosine_ramp(WI, WF, 0.1)
    with pytest.raises(ValueError):
        stroke_energy_factor(StrokeKind.bare(proto), WI, 2.0 * WF, CLASSICAL)
    with pytest.raises(ValueError):
        stroke_energy_factor(StrokeKind.bare(proto), WF, WI, CLASSICAL)


def test_stroke_kind_validation():
    with pytest.raises(ValueError):
        StrokeKind("warp")
    with pytest.raises(ValueError):
        StrokeKind(BARE)  # bare needs a protocol
    with pytest.raises(ValueError):
        StrokeKind(STA, protocol=cosine_ramp(WI, WF, 0.1))  # only bare takes one


# ---------------------------------------------------------------------------
# cycle evaluation
# ---------------------------------------------------------------------------

def _spec(**kw):
    base = dict(
        beta_1=1.0, beta_2=0.25, omega_i=WI, omega_f=2.0 * WI, regime=CLASSICAL,
    )
    base.update(kw)
    return OttoCycleSpec(**base)


def test_cycle_first_law_closure():
    cycle = evaluate_cycle(_spec())
    total = cycle.work_in_1 + cycle.heat_in_2 + cycle.work_in_3 + cycle.heat_in_4
    assert total == pytest.approx(0.0, abs=1e-12)
    assert cycle.w_net == pytest.approx(-(cycle.work_in_1 + cycle.work_in_3), rel=1e-14)


def test_sta_cycle_efficiency_is_otto_value():
    # with unit-Q* strokes the efficiency is 1 - omega_i/omega_f regardless
    # of bath temperatures (as long as the cycle runs forward)
    for w_ratio in (1.5, 2.0, 3.0):
        cycle = evaluate_cycle(_spec(omega_f=WI * w_ratio))
        if cycle.feasible:
            assert cycle.efficiency == pytest.approx(1.0 - 1.0 / w_ratio, rel=1e-12)


def test_sta_cycle_energy_chain():
    spec = _spec()
    cycle = evaluate_cycle(spec)
    assert cycle.energy_a == pytest.approx(1.0 / spec.beta_1, rel=1e-14)
    assert cycle.energy_b == pytest.approx(cycle.energy_a * 2.0, rel=1e-14)
    assert cycle.energy_c == pytest.approx(1.0 / spec.beta_2, rel=1e-14)
    assert cycle.energy_d == pytest.approx(cycle.energy_c / 2.0, rel=1e-14)


def test_sudden_cycle_is_less_efficient():
    # omega_f = 2 omega_i is the sudden break-even point at this bath ratio,
    # so compare at 1.5 omega_i where both cycles run forward
    sta = evaluate_cycle(_spec(omega_f=1.5 * WI))
    sud = evaluate_cycle(
        _spec(omega_f=1.5 * WI,
              stroke_1=StrokeKind.sudden(), stroke_3=StrokeKind.sudden())
    )
    assert sta.feasible and sud.feasible
    assert sud.efficiency < sta.efficiency
    assert sud.w_net < sta.w_net


def test_infeasible_cycle_flagged():
    # nearly degenerate baths with sudden strokes: friction eats the output
    spec = _spec(
        beta_1=1.0, beta_2=0.99, omega_f=3.0 * WI,
        stroke_1=StrokeKind.sudden(), stroke_3=StrokeKind.sudden(),
    )
    cycle = evaluate_cycle(spec)
    assert not cycle.feasible
    assert math.isnan(cycle.efficiency)
    assert cycle.w_net <= 0.0


def test_only_quantum_cycles_read_hbar():
    # a classical cycle at hbar=0.37 used to give the CycleResult of hbar=1.0
    with pytest.raises(ValueError, match="^a classical cycle does not read hbar; .* got 0.37$"):
        _spec(hbar=0.37)
    classical = evaluate_cycle(_spec())
    quantum = [evaluate_cycle(_spec(regime=QUANTUM, hbar=hbar)) for hbar in (1.0, 0.37)]
    assert quantum[0] != quantum[1] and classical not in quantum


def test_classical_thermal_energy_rejects_an_unread_hbar():
    # it used to return its hbar=1.0 value at hbar=0.37
    with pytest.raises(ValueError, match="^a classical cycle does not read hbar; .* got 0.37$"):
        thermal_energy(0.2, 10.0, CLASSICAL, hbar=0.37)
    assert thermal_energy(0.2, 10.0, CLASSICAL, hbar=1.0) == 5.0


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(beta_2=2.0)  # colder second bath
    with pytest.raises(ValueError):
        _spec(omega_f=5.0)  # compression cycle not supported
    for omega_f in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="omega_f must be finite"):
            _spec(omega_f=omega_f)
    with pytest.raises(ValueError):
        _spec(regime="hybrid")
    with pytest.raises(ValueError):
        evaluate_cycle(_spec(omega_f=None))


# ---------------------------------------------------------------------------
# optimization and closed forms
# ---------------------------------------------------------------------------

def test_eta_closed_form_values():
    assert eta_adiabatic_max_power(4.0) == pytest.approx(0.5, rel=1e-14)
    assert eta_sudden_max_power(4.0) == pytest.approx(0.2, rel=1e-14)
    assert eta_adiabatic_max_power(25.0) == pytest.approx(0.8, rel=1e-14)
    s = 0.2
    assert eta_sudden_max_power(25.0) == pytest.approx((1 - s) / (2 + s), rel=1e-14)
    with pytest.raises(ValueError):
        eta_adiabatic_max_power(0.9)
    with pytest.raises(ValueError):
        eta_sudden_max_power(1.0)


def test_optimizer_reproduces_adiabatic_closed_form():
    for ratio in (4.0, 10.0, 25.0):
        spec = OttoCycleSpec(
            beta_1=1.0, beta_2=1.0 / ratio, omega_i=WI, omega_f=None,
            regime=CLASSICAL,
        )
        result = optimize_frequency(spec)
        assert not result.at_boundary
        # optimal frequency ratio is (beta_1/beta_2)^(1/2)
        assert result.omega_f / WI == pytest.approx(math.sqrt(ratio), rel=1e-5)
        assert result.cycle.efficiency == pytest.approx(
            eta_adiabatic_max_power(ratio), rel=1e-6
        )


def test_optimizer_reproduces_sudden_closed_form():
    for ratio in (4.0, 10.0, 25.0):
        spec = OttoCycleSpec(
            beta_1=1.0, beta_2=1.0 / ratio, omega_i=WI, omega_f=None,
            regime=CLASSICAL,
            stroke_1=StrokeKind.sudden(), stroke_3=StrokeKind.sudden(),
        )
        result = optimize_frequency(spec)
        assert not result.at_boundary
        # optimal frequency ratio is (beta_1/beta_2)^(1/4)
        assert result.omega_f / WI == pytest.approx(ratio**0.25, rel=1e-5)
        assert result.cycle.efficiency == pytest.approx(
            eta_sudden_max_power(ratio), rel=1e-6
        )


def test_optimizer_boundary_flag():
    spec = OttoCycleSpec(
        beta_1=1.0, beta_2=0.01, omega_i=WI, omega_f=None, regime=CLASSICAL,
    )
    # maximum sits at 10 omega_i; a bracket stopping at 2 omega_i misses it
    result = optimize_frequency(spec, bracket=(WI * 1.001, WI * 2.0))
    assert result.at_boundary
    with pytest.raises(ValueError):
        optimize_frequency(spec, bracket=(WI * 2.0, WI * 1.5))


def _golden_section(spec, cycle, bracket=None, tol=1e-8):
    """The optimizer's golden-section loop, probing cycle(omega_f).w_net."""

    def w_net(omega_f):
        return cycle(omega_f).w_net

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    if bracket is None:
        ratio = spec.beta_1 / spec.beta_2
        hi = spec.omega_i * max(10.0, 3.0 * math.sqrt(ratio))
        bracket = (spec.omega_i * (1.0 + 1e-6), hi)
    lo, hi = bracket
    span = hi - lo
    steps = max(1, math.ceil(math.log(tol * spec.omega_i / span) / math.log(golden)))
    a, b = lo, hi
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc, fd = w_net(c), w_net(d)
    for _ in range(steps):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = w_net(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = w_net(d)
    omega_star = 0.5 * (a + b)
    edge = 10.0 * max(tol * spec.omega_i, 1e-12 * span)
    at_boundary = (omega_star - lo) < edge or (hi - omega_star) < edge
    return OptimizationResult(omega_f=omega_star, cycle=cycle(omega_star), at_boundary=at_boundary)


def _optimize_frequency_by_cycles(spec, bracket=None, tol=1e-8):
    """The optimizer as it was, evaluating a full cycle at every probe."""

    def cycle(omega_f):
        return evaluate_cycle(dataclasses.replace(spec, omega_f=omega_f))

    return _golden_section(spec, cycle, bracket, tol)


def _checked_cycle(spec, omega_f):
    """The cycle at omega_f, every corner energy through the checked public formulas."""
    wi = spec.omega_i
    e_a = thermal_energy(spec.beta_1, wi, spec.regime, spec.hbar)
    e_b = stroke_energy_factor(spec.stroke_1, wi, omega_f, spec.regime) * e_a
    e_c = thermal_energy(spec.beta_2, omega_f, spec.regime, spec.hbar)
    e_d = stroke_energy_factor(spec.stroke_3, omega_f, wi, spec.regime) * e_c
    work_in_1, heat_in_2, work_in_3, heat_in_4 = e_b - e_a, e_c - e_b, e_d - e_c, e_a - e_d
    w_net = -(work_in_1 + work_in_3)
    feasible = w_net > 0.0 and heat_in_2 > 0.0
    return CycleResult(
        e_a, e_b, e_c, e_d, work_in_1, work_in_3, heat_in_2, heat_in_4, w_net,
        w_net / heat_in_2 if feasible else math.nan, feasible,
    )


def _optimize_frequency_checked(spec, bracket=None, tol=1e-8):
    """The optimizer as it was, running every input check and E_A again at each probe."""

    return _golden_section(spec, lambda omega_f: _checked_cycle(spec, omega_f), bracket, tol)


def _assert_same_optimum(new, old):
    assert new.omega_f == old.omega_f
    assert new.at_boundary == old.at_boundary
    np.testing.assert_equal(dataclasses.astuple(new.cycle), dataclasses.astuple(old.cycle))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    regime=st.sampled_from([CLASSICAL, QUANTUM]),
    kind_1=st.sampled_from([STA, SUDDEN]),
    kind_3=st.sampled_from([STA, SUDDEN]),
    beta_1=st.floats(1e-3, 20.0),
    ratio=st.floats(1.01, 200.0),
    omega_i=st.floats(0.1, 100.0),
    hbar=st.floats(1e-3, 2.0),
    tol=st.sampled_from([1e-8, 1e-5]),
)
def test_optimizer_matches_the_full_cycle_objective(
    regime, kind_1, kind_3, beta_1, ratio, omega_i, hbar, tol
):
    # every probe, comparison and omega* is bit-identical to the optimizer
    # that built and evaluated a whole cycle per probe, and to the one that
    # ran every input check at every probe
    spec = OttoCycleSpec(
        beta_1=beta_1, beta_2=beta_1 / ratio, omega_i=omega_i, omega_f=None,
        regime=regime, stroke_1=StrokeKind(kind_1), stroke_3=StrokeKind(kind_3),
        hbar=hbar if regime == QUANTUM else 1.0,
    )
    new = optimize_frequency(spec, tol=tol)
    _assert_same_optimum(new, _optimize_frequency_by_cycles(spec, tol=tol))
    _assert_same_optimum(new, _optimize_frequency_checked(spec, tol=tol))


@pytest.mark.parametrize("kind", [STA, SUDDEN])
def test_optimizer_matches_the_checked_probes_on_the_engine_curves_grid(kind):
    # the 25 beta ratios x stroke kinds of the default engine-curves run
    for ratio in np.geomspace(1.5, 100.0, 25).tolist():
        spec = OttoCycleSpec(10.0, 10.0 / ratio, WI, None, QUANTUM,
                             StrokeKind(kind), StrokeKind(kind), HBAR_SCALED)
        _assert_same_optimum(optimize_frequency(spec), _optimize_frequency_checked(spec))


@pytest.mark.parametrize("regime", [CLASSICAL, QUANTUM])
@pytest.mark.parametrize("stroke", ["stroke_1", "stroke_3"])
def test_optimizer_rejects_a_bare_stroke_at_its_first_probe(regime, stroke):
    # a bare stroke is built for one omega_f; every probe asks for another
    bare = StrokeKind.bare(cosine_ramp(WI, WF, 0.1) if stroke == "stroke_1"
                           else cosine_ramp(WF, WI, 0.1))
    spec = _spec(omega_f=None, regime=regime, **{stroke: bare})
    with pytest.raises(ValueError, match="^bare stroke protocol runs "):
        optimize_frequency(spec)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_optimizer_rejects_bad_tolerance(tol):
    # 0 and -1 used to fail with "math domain error", nan with a conversion error
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        optimize_frequency(_spec(omega_f=None), tol=tol)


@pytest.mark.parametrize(
    "bracket",
    [(10.5, math.inf), (10.5, math.nan), (math.nan, 20.0), (-math.inf, 20.0), (math.inf, math.inf)],
)
def test_optimizer_rejects_non_finite_bracket(bracket):
    with pytest.raises(ValueError, match="must be finite with omega_i < lo < hi"):
        optimize_frequency(_spec(omega_f=None), bracket=bracket)


@pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf, 0.5])
def test_bath_ratios_must_be_finite(ratio):
    # eta_sudden_max_power(inf) used to return 0.5, and a table with a nan
    # ratio held nan
    for eta in (eta_adiabatic_max_power, eta_sudden_max_power):
        with pytest.raises(ValueError, match="must be finite and > 1"):
            eta(ratio)
    # the quantum cycle of one engine-curves point rejects the ratio's beta_2
    with pytest.raises(ValueError, match="beta_2"):
        OttoCycleSpec(1.0, 1.0 / ratio, WI, None, QUANTUM, hbar=HBAR_SCALED)


def test_efficiency_below_carnot_over_random_specs():
    rng = np.random.default_rng(67)
    specs = []
    for _ in range(60):
        beta_1 = float(rng.uniform(0.1, 5.0))
        ratio = float(rng.uniform(1.2, 30.0))
        w_ratio = float(rng.uniform(1.05, 6.0))
        strokes = [StrokeKind.sta(), StrokeKind.sudden()][int(rng.integers(2))]
        regime = [CLASSICAL, QUANTUM][int(rng.integers(2))]
        specs.append(OttoCycleSpec(beta_1, beta_1 / ratio, WI, WI * w_ratio, regime,
                                   strokes, strokes, HBAR_SCALED if regime == QUANTUM else 1.0))
    check = carnot_margin(specs)
    assert check.threshold == 1e-12
    assert check.passed, check.value


@pytest.mark.parametrize("kind,eta", [(STA, 0.5), (SUDDEN, 0.2)])
def test_quantum_optimizer_high_temperature_matches_classical(kind, eta):
    # eta_adiabatic_max_power(4) and eta_sudden_max_power(4)
    ratio = 4.0
    spec = OttoCycleSpec(
        beta_1=0.01, beta_2=0.01 / ratio, omega_i=WI, omega_f=None,
        regime=QUANTUM, stroke_1=StrokeKind(kind), stroke_3=StrokeKind(kind), hbar=HBAR_SCALED,
    )
    result = optimize_frequency(spec)
    assert result.cycle.efficiency == pytest.approx(eta, rel=1e-4)


def test_quantum_sta_beats_sudden_deep_in_quantum_regime():
    ratio = 2.0
    common = dict(
        beta_1=10.0, beta_2=10.0 / ratio, omega_i=WI, omega_f=None,
        regime=QUANTUM, hbar=HBAR_SCALED,
    )
    sta = optimize_frequency(OttoCycleSpec(**common))
    sud = optimize_frequency(
        OttoCycleSpec(
            **common, stroke_1=StrokeKind.sudden(), stroke_3=StrokeKind.sudden()
        )
    )
    assert sta.cycle.feasible and sud.cycle.feasible
    assert sta.cycle.efficiency / sud.cycle.efficiency > 2.0
    assert sta.cycle.w_net > sud.cycle.w_net
