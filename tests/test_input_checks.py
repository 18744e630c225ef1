"""Every physical input is checked where it enters the package.

A scalar that must be positive, tolerances included, goes through
``errors.require_positive``, which raises
``ValueError("<name> must be positive and finite, got ...")`` for NaN,
+-inf, zero and negatives alike.  Counts, seeds and basis sizes must be
ints, and arrays of frequencies or probabilities, estimator inputs and
histogram edges must be finite.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from staosc import classical_analytics as ca
from staosc import classical_dynamics as cd
from staosc import otto_engine as oe
from staosc import quantum_dynamics as qd
from staosc import work_statistics as ws
from staosc.errors import require_int, require_positive
from staosc.protocols import FrequencyProtocol, omega_at, protocol_from_table

STATES = np.array([[1.0, 0.5], [-0.2, 0.3]])
RAMP = FrequencyProtocol(10.0, 20.0, 0.1)
SPEC = cd.EnsembleSpec(beta=0.2, count=4, seed=1)
ATOMS = qd.QuantumWorkAtoms(works=np.array([0.0, 1.0]), probs=np.array([0.5, 0.5]))
SAMPLES = ws.WorkSampleSet(
    samples=np.linspace(0.1, 2.0, 40),
    protocol=RAMP,
    spec=cd.EnsembleSpec(beta=0.2, count=40, seed=1),
    with_control=False,
)
SPEC_ARGS = {"beta_1": 1.0, "beta_2": 0.5, "omega_i": 10.0, "hbar": 1.0}


def _density(w):
    return np.exp(-w)


#: Per public entry point: a call taking the positive arguments by name,
#: and a valid value of each.  Every other argument is fixed and valid.
ENTRY_POINTS = {
    "FrequencyProtocol": (
        lambda **kw: FrequencyProtocol(**kw), {"omega_i": 10.0, "omega_f": 20.0, "tau": 0.1}
    ),
    "EnsembleSpec": (lambda **kw: cd.EnsembleSpec(count=4, seed=1, **kw), {"beta": 0.2}),
    "to_action_angle": (lambda **kw: cd.to_action_angle(STATES, **kw), {"omega": 10.0}),
    "from_action_angle": (
        lambda **kw: cd.from_action_angle([1.0], [0.5], **kw), {"omega": 10.0}
    ),
    "gibbs_action_angle": (lambda **kw: cd.gibbs_action_angle(SPEC, **kw), {"omega": 10.0}),
    "sample_gibbs": (lambda **kw: cd.sample_gibbs(SPEC, **kw), {"omega": 10.0}),
    # tol=-1 used to die in scipy ("`atol` must be positive"), tol=nan in the
    # right-hand side ("time values must be finite")
    "integrate": (lambda **kw: cd.integrate(STATES, RAMP, **kw), {"tol": 1e-10}),
    "quadratic_form": (
        lambda **kw: ca.quadratic_form(RAMP, **kw), {"beta": 0.2}
    ),
    "pdf_adiabatic": (
        lambda **kw: ca.pdf_adiabatic(1.0, **kw), {"beta": 0.2, "omega_i": 10.0, "omega_f": 20.0}
    ),
    "pdf_sudden": (
        lambda **kw: ca.pdf_sudden(1.0, **kw), {"beta": 0.2, "omega_i": 10.0, "omega_f": 20.0}
    ),
    "pdf_nonadiabatic": (
        lambda mu_plus: ca.pdf_nonadiabatic(1.0, ca.QuadraticWorkForm(
            a=1.0, b=0.5, c=0.0, mu_plus=mu_plus, mu_minus=0.1,
        )),
        {"mu_plus": 1.0},
    ),
    "h0_matrix": (
        lambda **kw: qd.h0_matrix(dimension=8, **kw), {"omega": 10.0, "omega_ref": 10.0}
    ),
    "hc_matrix": (lambda **kw: qd.hc_matrix(RAMP, 0.05, dimension=8, **kw), {}),
    "fock_transition_matrix": (
        lambda **kw: qd.fock_transition_matrix(RAMP, True, n_max=2, dimension=64, **kw),
        {"tol": 1e-10},
    ),
    "quantum_work_atoms": (
        lambda **kw: qd.quantum_work_atoms(qd.TransitionMatrix(np.eye(2, 4), 10.0, 20.0), **kw),
        {"beta": 1.0, "hbar": 1.0},
    ),
    "pdf_quantum_adiabatic": (
        lambda **kw: qd.pdf_quantum_adiabatic(**kw),
        {"beta": 1.0, "omega_i": 10.0, "omega_f": 20.0, "hbar": 1.0},
    ),
    "delta_f_quantum": (
        lambda **kw: qd.delta_f_quantum(**kw),
        {"beta": 1.0, "omega_i": 10.0, "omega_f": 20.0, "hbar": 1.0},
    ),
    "jarzynski": (lambda **kw: ws.jarzynski(ATOMS, delta_f=0.0, **kw), {"beta": 1.0}),
    "delta_f_classical": (
        lambda **kw: ws.delta_f_classical(**kw), {"beta": 0.2, "omega_i": 10.0, "omega_f": 20.0}
    ),
    "estimator_dispersion": (
        lambda **kw: ws.estimator_dispersion(SAMPLES, batch_count=4, **kw), {"beta": 0.2}
    ),
    "integrate_density": (lambda **kw: ws.integrate_density(_density, **kw), {"w_max": 30.0}),
    "ks_distance": (lambda **kw: ws.ks_distance(SAMPLES, _density, **kw), {"w_max": 30.0}),
    "OttoCycleSpec": (
        lambda **kw: oe.OttoCycleSpec(omega_f=None, regime=oe.QUANTUM, **kw), SPEC_ARGS
    ),
    "thermal_energy": (
        lambda **kw: oe.thermal_energy(regime=oe.QUANTUM, **kw),
        {"beta": 0.2, "omega": 10.0, "hbar": 1.0},
    ),
    "stroke_energy_factor": (
        lambda **kw: oe.stroke_energy_factor(oe.StrokeKind.sudden(), regime=oe.CLASSICAL, **kw),
        {"omega_from": 10.0, "omega_to": 20.0},
    ),
    "optimize_frequency": (
        lambda **kw: oe.optimize_frequency(oe.OttoCycleSpec(omega_f=None, **SPEC_ARGS), **kw),
        {"tol": 1e-6},
    ),
}
BAD = [math.nan, math.inf, -math.inf, 0.0, -1.0]
CASES = [
    (entry, name, bad)
    for entry, (_, valid) in ENTRY_POINTS.items()
    for name in valid
    for bad in BAD
]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_accept_their_valid_inputs(entry):
    call, valid = ENTRY_POINTS[entry]
    call(**valid)


@pytest.mark.parametrize("entry,name,bad", CASES, ids=[f"{e}-{n}-{b}" for e, n, b in CASES])
def test_entry_points_reject_non_positive_or_non_finite_inputs(entry, name, bad):
    # nan and inf used to pass most of these, which checked only `<= 0.0`:
    # thermal_energy(nan, ...) returned nan and thermal_energy(inf, ...) 5.0
    call, valid = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be positive and finite, got {bad!r}$"):
        call(**{**valid, name: bad})


def test_require_positive_names_the_first_bad_value_and_passes_good_ones():
    require_positive(a=1e-300, b=np.float64(2.0), c=3)
    with pytest.raises(ValueError, match=r"^b must be positive and finite, got nan$"):
        require_positive(a=1.0, b=math.nan, c=-1.0)


@pytest.mark.parametrize("value", [1.5, 4.0, True, np.float64(4.0), "4", 3])
def test_require_int_rejects_non_integers_and_small_values(value):
    message = rf"^n must be an integer >= 4, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        require_int(4, n=value)


def test_require_int_accepts_python_and_numpy_integers():
    require_int(0, a=0, b=np.int64(7), c=2**70)


@pytest.mark.parametrize(
    "field,value",
    [("seed", 1.5), ("seed", 1.9), ("seed", -1), ("seed", True), ("seed", 1.0),
     ("count", 2.5), ("count", True), ("count", 0), ("count", 10.0)],
)
def test_ensemble_spec_integer_fields(field, value):
    # seed 1.5 drew exactly the stream of seed 1 while the recorded spec said 1.5
    kwargs = {"beta": 0.2, "count": 4, "seed": 1, field: value}
    with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
        cd.EnsembleSpec(**kwargs)


@pytest.mark.parametrize("dimension", [64.0, True, 2, 5, "64"])
@pytest.mark.parametrize(
    "call",
    [
        lambda dimension: qd.h0_matrix(10.0, 10.0, dimension),
        lambda dimension: qd.hc_matrix(RAMP, 0.05, dimension),
        lambda dimension: qd.transition_matrix(RAMP, n_max=1, dimension=dimension),
        lambda dimension: qd.fock_transition_matrix(RAMP, n_max=1, dimension=dimension),
    ],
    ids=["h0_matrix", "hc_matrix", "transition_matrix", "fock_transition_matrix"],
)
def test_fock_basis_dimension_is_an_even_int(call, dimension):
    with pytest.raises(ValueError, match=r"^dimension must be"):
        call(dimension)


@pytest.mark.parametrize(
    "stroke",
    [oe.StrokeKind.sta(), oe.StrokeKind.sudden(), oe.StrokeKind.bare(RAMP)],
    ids=["sta", "sudden", "bare"],
)
def test_stroke_energy_factor_rejects_an_unknown_regime(stroke):
    # sta and sudden strokes used to return 2.0 and 2.5 for any regime, and a
    # bare one took the quantum route (Q* 1.16) for any regime but "classical"
    with pytest.raises(ValueError, match=r"^unknown regime 'bogus'$"):
        oe.stroke_energy_factor(stroke, 10.0, 20.0, "bogus")
    for regime in (oe.CLASSICAL, oe.QUANTUM):
        factor = oe.stroke_energy_factor(stroke, 10.0, 20.0, regime)
        # Q* omega_to/omega_from: exactly 2 for sta, above 2 for the others
        assert factor == 2.0 if stroke.kind == oe.STA else factor > 2.0


@pytest.mark.parametrize("n_max", [0, 2.0, True])
def test_transition_matrix_n_max_is_an_int(n_max):
    with pytest.raises(ValueError, match=r"^n_max must be an integer >= 1"):
        qd.transition_matrix(FrequencyProtocol(10.0, 20.0, 0.1), n_max=n_max)


@pytest.mark.parametrize("batch_count", [1, 4.0, True])
def test_estimator_dispersion_batch_count_is_an_int(batch_count):
    with pytest.raises(ValueError, match=r"^batch_count must be an integer >= 2"):
        ws.estimator_dispersion(SAMPLES, 0.2, batch_count)


@pytest.mark.parametrize("bins", [10.5, 10.0, True, 0, "10"])
def test_histogram_bin_count_is_an_int(bins):
    # bins=10.5 used to make 10 bins without a word
    with pytest.raises(ValueError, match=r"^bins must be an integer >= 1"):
        ws.histogram(SAMPLES, bins)


#: Estimator inputs that may be negative or zero but must be finite: a call
#: per input, taking the bad value, and the message it must raise.
FINITE_INPUTS = {
    # delta_f = nan returned the target nan without a word, and -inf overflowed
    "jarzynski-delta_f": (
        lambda bad: ws.jarzynski(ATOMS, 1.0, bad), "delta_f must be finite, got {bad!r}"
    ),
    "jarzynski_at_counts-delta_f": (
        lambda bad: ws.jarzynski_at_counts(RAMP, SPEC, bad, [1]),
        "delta_f must be finite, got {bad!r}",
    ),
    # an explicit nan edge returned nan densities without a word
    "histogram-edges": (
        lambda bad: ws.histogram(SAMPLES, [0.0, bad, 5.0]),
        "histogram bin edges must be finite and strictly increasing",
    ),
    "histogram-first-edge": (
        lambda bad: ws.histogram(SAMPLES, [bad, 0.0, 1.0]),
        "histogram bin edges must be finite and strictly increasing",
    ),
    # a lone edge, finite or not, returned an empty histogram without a word
    "histogram-one-edge": (
        lambda bad: ws.histogram(SAMPLES, [bad]), "histogram bins need at least two edges, got 1"
    ),
}
FINITE_CASES = [(entry, bad) for entry in FINITE_INPUTS for bad in BAD[:3]]


@pytest.mark.parametrize("entry,bad", FINITE_CASES, ids=[f"{e}-{b}" for e, b in FINITE_CASES])
def test_estimator_inputs_must_be_finite(entry, bad):
    call, message = FINITE_INPUTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(bad=bad))}$"):
        call(bad)


def test_histogram_rejects_a_single_finite_edge():
    with pytest.raises(ValueError, match="^histogram bins need at least two edges, got 1$"):
        ws.histogram(SAMPLES, bins=[0.0])


def test_estimator_inputs_accept_finite_values():
    assert ws.jarzynski(ATOMS, 1.0, -0.5).target == math.exp(0.5)
    assert ws.histogram(SAMPLES, [-1.0, 0.0, 5.0]).density.size == 2


def _sample_set(works):
    return dataclasses.replace(SAMPLES, samples=np.array(works))


def _atoms(works, probs):
    return qd.QuantumWorkAtoms(works=np.array(works), probs=np.array(probs))


MEAN_OVERFLOWS = "the mean of exp(-beta W) overflows: -beta W reaches "


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "data, delta_f, message",
    [
        # math.exp raised OverflowError
        (ATOMS, -800.0, "exp(-beta delta_f) overflows at beta * delta_f = -800.0"),
        # each of these returned final = inf or nan with only a RuntimeWarning
        (_sample_set([-800.0, 1.0]), 0.0, MEAN_OVERFLOWS + "800.0"),
        (_atoms([-800.0, 1.0], [0.5, 0.5]), 0.0, MEAN_OVERFLOWS + "800.0"),
        # a zero-weight atom beside atoms whose mean overflows on any scale
        (_atoms([-800.0, -720.0, 1.0], [0.0, 0.5, 0.5]), 0.0, MEAN_OVERFLOWS + "800.0"),
        # three finite exponentials whose sum overflows
        (_sample_set([-709.0] * 3), 0.0, MEAN_OVERFLOWS + "709.0"),
        # an atom mean just above the largest float, e^709.9 * 0.9 > 1.798e308
        (_atoms([-709.9, 0.0], [0.9, 0.1]), 0.0, MEAN_OVERFLOWS + "709.9"),
    ],
    ids=["target", "sample", "atom", "zero-weight-atom", "sum", "atom-at-the-edge"],
)
def test_jarzynski_overflow_is_a_value_error(data, delta_f, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ws.jarzynski(data, 1.0, delta_f)


@pytest.mark.filterwarnings("error")
def test_jarzynski_near_overflow_stays_finite():
    exps = np.exp([700.0, -1.0])
    trace = ws.jarzynski(_sample_set([-700.0, 1.0]), 1.0, -700.0)
    assert trace.target == math.exp(700.0)
    assert trace.running.tolist() == (np.cumsum(exps) / [1, 2]).tolist()
    atoms = _atoms([-700.0, 1.0], [0.5, 0.5])
    assert ws.jarzynski(atoms, 1.0, 0.0).final == float(np.dot([0.5, 0.5], exps))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "works, probs, final",
    [
        # an atom of probability 0 is no outcome; 0 * exp(800) read nan and raised
        ([-800.0, 1.0], [0.0, 1.0], math.exp(-1.0)),
        # exp(800) overflows alone, but its weight brings the mean back in range
        ([-800.0, 0.0], [1e-300, 1.0], 1.0 + math.exp(800.0 + math.log(1e-300))),
        # just below the largest float: e^709.9 * 0.8 < 1.798e308
        ([-709.9, 0.0], [0.8, 0.2], 0.8 * math.exp(709.0) * math.exp(0.9)),
    ],
    ids=["zero-weight", "tiny-weight", "just-finite"],
)
def test_jarzynski_of_atoms_sums_an_overflowing_term_on_a_log_scale(works, probs, final):
    # exp of a log mean near 710 is good to about 710 ulp, 1.6e-13 relative
    assert ws.jarzynski(_atoms(works, probs), 1.0, 0.0).final == pytest.approx(final, rel=1e-12)


#: Values that are none of a sample set's origin fields.
_NOT_AN_ORIGIN = [None, {"seed": 1}, SAMPLES]


@pytest.mark.parametrize("protocol", _NOT_AN_ORIGIN + [SPEC])
def test_sample_set_protocol_must_be_a_frequency_protocol(protocol):
    with pytest.raises(TypeError, match="^protocol must be of type FrequencyProtocol, got "):
        dataclasses.replace(SAMPLES, protocol=protocol)


@pytest.mark.parametrize("spec", _NOT_AN_ORIGIN + [RAMP])
def test_sample_set_spec_must_be_an_ensemble_spec(spec):
    with pytest.raises(TypeError, match="^spec must be of type EnsembleSpec, got "):
        dataclasses.replace(SAMPLES, spec=spec)


@pytest.mark.parametrize("with_control", _NOT_AN_ORIGIN + [1])
def test_sample_set_with_control_must_be_a_bool(with_control):
    with pytest.raises(TypeError, match="^with_control must be of type bool, got "):
        dataclasses.replace(SAMPLES, with_control=with_control)


@pytest.mark.parametrize(
    "call,message",
    [
        # each of these built, and evaluate_cycle then raised AttributeError
        (lambda: oe.StrokeKind(oe.BARE, protocol="ramp"), "protocol must be a FrequencyProtocol"),
        (lambda: oe.OttoCycleSpec(omega_f=20.0, stroke_1="sta", **SPEC_ARGS),
         "stroke_1 must be a StrokeKind"),
        (lambda: oe.OttoCycleSpec(omega_f=20.0, stroke_3=oe.SUDDEN, **SPEC_ARGS),
         "stroke_3 must be a StrokeKind"),
    ],
    ids=["bare-protocol", "stroke_1", "stroke_3"],
)
def test_strokes_are_checked_where_they_enter(call, message):
    with pytest.raises(TypeError, match=f"^{message}, got "):
        call()


@pytest.mark.parametrize("n_max", [64.5, 64.0, True, 0])
def test_pdf_quantum_adiabatic_n_max_is_an_int(n_max):
    # n_max=64.5 used to return 65 atoms
    with pytest.raises(ValueError, match=r"^n_max must be an integer >= 1"):
        qd.pdf_quantum_adiabatic(1.0, 10.0, 20.0, n_max=n_max)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
def test_table_frequencies_must_be_positive_and_finite(bad):
    # a nan omega used to pass and then fail inside PCHIP
    samples = [(0.0, 10.0), (0.1, 12.0), (0.2, 15.0), (0.3, 18.0), (0.4, 20.0)]
    samples[2] = (0.2, bad)
    with pytest.raises(ValueError, match="table frequencies must be positive and finite"):
        protocol_from_table(samples)


@pytest.mark.parametrize("field,value", [("tau", 0.5), ("omega_i", 7.0), ("omega_f", 21.0)])
def test_table_end_values_must_match_the_samples(field, value):
    # tau past the last sample built and made omega(t) nan beyond it; an
    # omega_i off the first sample gave work coefficients with no error
    table = protocol_from_table([(0.0, 10.0), (0.1, 12.0), (0.2, 15.0), (0.3, 18.0), (0.4, 20.0)])
    with pytest.raises(ValueError, match=f"^{field} must equal the table's end value "):
        dataclasses.replace(table, **{field: value})


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: FrequencyProtocol(1e200, 2e200, 1.0), "omega_i must have a finite square, got 1e+200"),
        (lambda: FrequencyProtocol(1.0, 2e200, 1.0), "omega_f must have a finite square, got 2e+200"),
        (
            lambda: FrequencyProtocol(0.5, 1e154, 1.0),
            "omega_f / omega_i must have a finite square, got 2e+154",
        ),
        (
            lambda: protocol_from_table([(0.0, 1.0), (0.1, 1e200), (0.2, 3.0), (0.3, 4.0)]),
            "samples: every table frequency must have a finite square",
        ),
        (
            lambda: FrequencyProtocol(1e-200, 2e-200, 1.0),
            "omega_i must have a non-zero square, got 1e-200",
        ),
        (
            lambda: FrequencyProtocol(1.0, 2e-200, 1.0),
            "omega_f must have a non-zero square, got 2e-200",
        ),
        (
            lambda: FrequencyProtocol(1e100, 1e-100, 1.0),
            "omega_f / omega_i must have a non-zero square, got 1e-200",
        ),
        (
            lambda: protocol_from_table([(0.0, 1.0), (0.1, 1e-200), (0.2, 3.0), (0.3, 4.0)]),
            "samples: every table frequency must have a non-zero square",
        ),
    ],
    ids=["omega_i", "omega_f", "ratio", "table", "omega_i-underflow", "omega_f-underflow",
         "ratio-underflow", "table-underflow"],
)
def test_protocol_frequencies_must_have_finite_squares(build, message):
    # omega_at(cosine_ramp(1e200, 2e200, 1.0), 0.5) raised OverflowError
    # from omega_i**2 inside the first evaluation; at cosine_ramp(1e-200,
    # 2e-200, 1.0) omega_at read 0.0, omega_dot_at raised ZeroDivisionError
    # and the work coefficients came back with no error
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_protocol_frequencies_near_the_square_limit_evaluate():
    ramp = FrequencyProtocol(1e154, 1.3e154, 1.0)
    assert 1e154 < omega_at(ramp, 0.5) < 1.3e154


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_table_times_must_be_finite(bad):
    samples = [(0.0, 10.0), (bad, 12.0), (0.2, 15.0), (0.3, 18.0), (0.4, 20.0)]
    with pytest.raises(ValueError, match="table times must be strictly increasing"):
        protocol_from_table(samples)


@pytest.mark.parametrize(
    "works,probs,message",
    [
        ([0.0], [math.nan], "probs must be finite and non-negative"),
        ([0.0, 1.0], [math.inf, 0.0], "probs must be finite and non-negative"),
        ([0.0, 1.0], [0.5, -0.5], "probs must be finite and non-negative"),
        ([0.0, math.inf], [0.5, 0.5], "works must be finite"),
        ([math.nan], [1.0], "works must be finite"),
    ],
)
def test_atom_sets_must_be_finite(works, probs, message):
    # probs [nan] used to pass, since its sum check is false for nan
    with pytest.raises(ValueError, match=message):
        qd.QuantumWorkAtoms(works=np.array(works), probs=np.array(probs))
