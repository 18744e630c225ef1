import dataclasses
import json
import math
import threading
import tracemalloc
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad_vec

import staosc.work_statistics as work_statistics
from staosc.classical_analytics import (
    _work_form,
    pdf_adiabatic,
    pdf_nonadiabatic,
    pdf_sudden,
    quadratic_form,
)
from staosc.classical_dynamics import (
    EnsembleSpec,
    ensemble_work,
    gibbs_action_angle,
    propagate_ensemble,
    sample_gibbs,
    work_coefficients,
)
from staosc.invariants import density_mass
from staosc.protocols import cosine_ramp, omega_at, protocol_from_table
from staosc.quantum_dynamics import quantum_work_atoms, transition_matrix
from staosc.work_statistics import (
    BinnedDensity,
    WorkSampleSet,
    _cdf_at,
    classical_work_ensemble,
    classical_work_ensembles,
    default_bin_count,
    delta_f_classical,
    estimator_dispersion,
    histogram,
    integrate_density,
    jarzynski,
    jarzynski_at_counts,
    ks_distance,
    replicate_dispersions,
    summary,
)

WI = 10.0
WF = 10.0 * math.sqrt(3.0)
BETA = 0.2
FAST = cosine_ramp(WI, WF, 1e-4)


def _samples(count=20_000, seed=7, with_control=False, protocol=FAST):
    return classical_work_ensemble(
        protocol, EnsembleSpec(beta=BETA, count=count, seed=seed),
        with_control=with_control,
    )


# ---------------------------------------------------------------------------
# sample sets and summaries
# ---------------------------------------------------------------------------

def _hand_built(samples, seed):
    """A sample set of ``samples`` that no draw made, on the default ramp."""
    spec = EnsembleSpec(beta=BETA, count=len(samples), seed=seed)
    return WorkSampleSet(samples, FAST, spec, with_control=False)


def test_classical_work_ensemble_shapes_and_provenance():
    ws = _samples(512, seed=3)
    assert ws.samples.shape == (512,)
    assert np.all(np.isfinite(ws.samples))
    assert ws.spec == EnsembleSpec(beta=BETA, count=512, seed=3)
    assert ws.protocol is FAST
    assert ws.with_control is False
    for origin in (ws.spec, ws.protocol):
        json.dumps(dataclasses.asdict(origin))  # serializable


def test_classical_work_ensembles_one_draw_matches_two(monkeypatch):
    draws = []
    streams = work_statistics._gibbs_streams

    def counted(seed):
        draws.append(seed)
        return streams(seed)

    monkeypatch.setattr(work_statistics, "_gibbs_streams", counted)
    spec = EnsembleSpec(beta=BETA, count=4096, seed=19)
    both = classical_work_ensembles(FAST, spec)
    assert draws == [19]
    assert set(both) == {True, False}
    for with_control, ws in both.items():
        alone = classical_work_ensemble(FAST, spec, with_control=with_control)
        assert np.array_equal(ws.samples, alone.samples)
        origin = (ws.protocol, ws.spec, ws.with_control)
        assert origin == (alone.protocol, alone.spec, alone.with_control)
        assert origin == (FAST, spec, with_control)
    assert draws == [19] * 3
    assert not np.array_equal(both[True].samples, both[False].samples)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    omega_i=st.floats(0.5, 50.0),
    ratio=st.floats(0.25, 5.0),
    log_tau_omega_i=st.floats(-4.0, math.log10(20.0)),
    beta=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**32 - 1),
    with_control=st.booleans(),
)
def test_action_angle_work_matches_propagated_phase_space(
    omega_i, ratio, log_tau_omega_i, beta, seed, with_control
):
    # ratio < 1 covers decreasing ramps; both routes start from the same draw
    proto = cosine_ramp(omega_i, ratio * omega_i, 10.0**log_tau_omega_i / omega_i)
    spec = EnsembleSpec(beta=beta, count=256, seed=seed)
    works = classical_work_ensemble(proto, spec, with_control).samples
    states = sample_gibbs(spec, omega_i)
    oracle = ensemble_work(states, propagate_ensemble(states, proto, with_control), proto)
    action, _ = gibbs_action_angle(spec, omega_i)
    assert np.all(np.abs(works - oracle) <= 1e-13 * omega_i * action)


def _unblocked_works(protocol, spec, controls):
    """The work formula over the whole draw at once: the blocked kernel's oracle."""
    action, theta = gibbs_action_angle(spec, protocol.omega_i)
    t = np.tan(theta)
    share = action / (1.0 + t * t)
    works = {}
    for with_control in controls:
        a, b, c = work_coefficients(protocol, with_control)
        if b == 0.0 and c == 0.0:
            works[with_control] = a * action
        else:
            works[with_control] = (((a - b) * t + 2.0 * c) * t + (a + b)) * share
    return works


_B = work_statistics._BLOCK
_TABLE_T = np.linspace(0.0, 0.3, 40)
_BARE_TABLE = protocol_from_table(
    list(zip(_TABLE_T, omega_at(cosine_ramp(WI, 2.0 * WI, 0.3), _TABLE_T)))
)


def test_a_table_ramp_set_redraws_bit_for_bit():
    first = classical_work_ensemble(_BARE_TABLE, EnsembleSpec(beta=BETA, count=4096, seed=71))
    again = classical_work_ensembles(first.protocol, first.spec, (first.with_control,))
    assert first.protocol is _BARE_TABLE
    assert np.array_equal(again[first.with_control].samples, first.samples)


@pytest.mark.parametrize("count", [1, _B - 1, _B, _B + 1, 3 * _B + 7])
@pytest.mark.parametrize(
    "protocol, controls", [(FAST, (True, False)), (_BARE_TABLE, (False,))],
    ids=["default-ramp", "bare-table"],
)
def test_blocked_works_are_bit_identical_to_unblocked(count, protocol, controls):
    spec = EnsembleSpec(beta=BETA, count=count, seed=67)
    sets = classical_work_ensembles(protocol, spec, controls=controls)
    oracle = _unblocked_works(protocol, spec, controls)
    assert list(sets) == list(controls)
    for with_control in controls:
        assert np.array_equal(sets[with_control].samples, oracle[with_control])


def test_work_kernel_keeps_near_zero_work_to_1e_14():
    # on the default bare ramp g = a + b cos 2 theta + c sin 2 theta has a ~ -b,
    # so a + b cos 2 theta cancels near g's minimum (off by 2.8e-9 relative on
    # these angles, where the rational form is off by 8.5e-16 at most); the
    # kernel's g, at I = 1, against 50-digit mpmath at the same (a, b, c) and t
    a, b, c = work_coefficients(FAST)
    lowest = 0.5 * (math.atan2(c, b) + math.pi)
    theta = np.concatenate((
        lowest + np.linspace(-1e-3, 1e-3, 401),
        np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, 400),
    ))
    t = np.tan(theta)
    g = np.empty(theta.size)
    work_statistics._work_block(
        np.ones(theta.size), theta.copy(), [(a, b, c)], [g], np.empty((1, theta.size))
    )
    with mpmath.workdps(50):
        for t_k, g_k in zip(t.tolist(), g.tolist()):
            tt = mpmath.mpf(t_k)
            exact = (a * (1 + tt * tt) + b * (1 - tt * tt) + 2 * c * tt) / (1 + tt * tt)
            assert abs(g_k - exact) <= 1e-14 * abs(exact)


def test_work_sample_set_validation():
    spec = EnsembleSpec(beta=BETA, count=1, seed=1)
    with pytest.raises(ValueError, match="^samples must be a non-empty 1-d array$"):
        WorkSampleSet(np.array([]), FAST, spec, with_control=False)
    with pytest.raises(ValueError, match="^work samples must be finite$"):
        _hand_built(np.array([1.0, math.nan]), seed=1)


def test_work_sample_sets_compare_by_identity_and_hash():
    a, b = _samples(64, seed=3), _samples(64, seed=3)
    assert np.array_equal(a.samples, b.samples)
    assert (a == b) is False
    assert (a == a) is True
    assert len({a, b, a}) == 2


def test_summary_matches_moments():
    ws = _samples(100_000, seed=11)
    s = summary(ws)
    assert s.count == 100_000
    # sudden-limit moments: mean 5, sigma 5 sqrt(2)
    assert s.mean == pytest.approx(5.0, abs=5.0 * s.stderr_mean)
    assert s.std == pytest.approx(7.0710678, abs=5.0 * s.stderr_std)
    assert s.stderr_mean == pytest.approx(s.std / math.sqrt(s.count), rel=1e-12)
    assert s.stderr_std > 0.0


@pytest.mark.parametrize("with_control", [False, True])
def test_summary_stderr_std_is_the_delta_method(with_control):
    # the delta method se(s) = sqrt((m4 - s^4) / (4 s^2 n)), from correctly
    # rounded sums over Python floats and a fourth power by pow
    ws = _samples(100_000, seed=37, with_control=with_control)
    w = ws.samples.tolist()
    n = len(w)
    mean = math.fsum(w) / n
    var = math.fsum((x - mean) ** 2 for x in w) / (n - 1)
    m4 = math.fsum((x - mean) ** 4 for x in w) / n
    expected = math.sqrt((m4 - var**2) / (4.0 * var * n))
    assert summary(ws).stderr_std == pytest.approx(expected, rel=1e-12)


def test_summary_on_synthetic_normal():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.0, size=400_000)
    s = summary(_hand_built(x, seed=0))
    assert s.mean == pytest.approx(3.0, abs=0.02)
    assert s.std == pytest.approx(2.0, abs=0.02)
    # for a normal, se(sigma) = sigma / sqrt(2 n)
    assert s.stderr_std == pytest.approx(2.0 / math.sqrt(2 * x.size), rel=0.05)


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------

def test_default_bin_count_rule():
    assert default_bin_count(1000) == math.ceil(2.0 * 1000 ** (1.0 / 3.0))
    assert default_bin_count(8) == 4
    assert default_bin_count(100_000) == math.ceil(2.0 * 100_000 ** (1.0 / 3.0))


def test_histogram_is_normalized_density():
    ws = _samples(30_000, seed=5)
    h = histogram(ws)
    widths = np.diff(h.edges)
    assert float(np.sum(h.density * widths)) == pytest.approx(1.0, rel=1e-12)
    assert len(h.edges) == len(h.density) + 1
    assert len(h.density) == default_bin_count(30_000)


def test_histogram_explicit_edges_and_errors():
    ws = _samples(1000, seed=9)
    edges = np.linspace(-1.0, 40.0, 24)
    h = histogram(ws, bins=edges)
    assert np.array_equal(h.edges, edges)
    with pytest.raises(ValueError):
        histogram(ws, bins=np.array([0.0, 1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        histogram(ws, bins=0)


def test_histogram_tracks_density():
    ws = _samples(200_000, seed=13)
    h = histogram(ws, bins=60)
    centers = 0.5 * (h.edges[:-1] + h.edges[1:])
    form = quadratic_form(FAST, BETA)
    ref = pdf_nonadiabatic(np.maximum(centers, 1e-12), form)
    keep = (centers > 1.0) & (centers < 15.0)
    assert np.allclose(h.density[keep], ref[keep], rtol=0.12)


# ---------------------------------------------------------------------------
# jarzynski estimator
# ---------------------------------------------------------------------------

def test_jarzynski_running_mean_prefix_property():
    ws = _samples(5000, seed=17)
    df = delta_f_classical(BETA, WI, WF)
    trace = jarzynski(ws, BETA, df)
    assert trace.target == pytest.approx(math.exp(-BETA * df), rel=1e-14)
    assert trace.target == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
    # running estimate at count k equals the mean over the first k samples
    k = ws.samples.size // 2
    manual = float(np.mean(np.exp(-BETA * ws.samples[:k])))
    assert trace.running[k - 1] == pytest.approx(manual, rel=1e-12)
    assert trace.final == pytest.approx(
        float(np.mean(np.exp(-BETA * ws.samples))), rel=1e-12
    )
    assert trace.final_error == pytest.approx(trace.final - trace.target, rel=1e-12)
    # the one-buffer trace keeps the bits and dtypes of the expression it replaced
    counts = np.arange(1, ws.samples.size + 1)
    running = np.cumsum(np.exp(-BETA * ws.samples)) / counts
    assert trace.running.dtype == running.dtype and np.array_equal(trace.running, running)


def test_jarzynski_converges_for_both_drives():
    df = delta_f_classical(BETA, WI, WF)
    for with_control in (False, True):
        ws = _samples(200_000, seed=23, with_control=with_control)
        trace = jarzynski(ws, BETA, df)
        assert trace.final_error < 0.01


def test_jarzynski_accepts_quantum_atoms():
    tm = transition_matrix(FAST, n_max=24, dimension=256)
    atoms = quantum_work_atoms(tm, BETA)
    from staosc.quantum_dynamics import delta_f_quantum

    df = delta_f_quantum(BETA, WI, WF)
    trace = jarzynski(atoms, BETA, df)
    assert trace.running.tolist() == [trace.final]
    assert trace.final == pytest.approx(trace.target, abs=1e-6)


def _default_counts(count):
    """The sample counts a jarzynski-trace run keeps, at its default 400 trace points."""
    return np.unique(np.geomspace(1, count, 400).astype(int))


@pytest.mark.parametrize("count", [1, _B - 1, _B, 2 * _B + 1, 1_000_000])
def test_jarzynski_at_counts_keeps_the_bits_of_the_full_trace(count):
    spec = EnsembleSpec(beta=BETA, count=count, seed=71)
    df = delta_f_classical(BETA, WI, WF)
    counts = _default_counts(count)
    traces = jarzynski_at_counts(FAST, spec, df, counts)
    sets = classical_work_ensembles(FAST, spec)
    assert list(traces) == [True, False]
    for with_control, trace in traces.items():
        full = jarzynski(sets[with_control], BETA, df)
        assert np.array_equal(trace.running, full.running[counts - 1])
        assert trace.final == full.final
        assert trace.target == full.target


def test_jarzynski_at_counts_takes_counts_in_any_order():
    spec = EnsembleSpec(beta=BETA, count=2 * _B + 1, seed=73)
    df = delta_f_classical(BETA, WI, WF)
    counts = [2 * _B + 1, 5, _B, 5, 1, _B + 1]
    full = jarzynski(classical_work_ensemble(FAST, spec), BETA, df)
    trace = jarzynski_at_counts(FAST, spec, df, counts)[False]
    assert np.array_equal(trace.running, full.running[np.array(counts) - 1])


@pytest.mark.parametrize(
    "counts", [[0, 5], [1, 101], [1.0, 5.0], [[1, 5]], [], [True]],
    ids=["zero", "past-count", "float", "2-d", "empty", "bool"],
)
def test_jarzynski_at_counts_rejects_bad_counts(counts):
    spec = EnsembleSpec(beta=BETA, count=100, seed=1)
    message = r"^counts must be a non-empty 1-d integer array in \[1, 100\], got "
    with pytest.raises(ValueError, match=message):
        jarzynski_at_counts(FAST, spec, 0.0, counts)


def test_jarzynski_at_counts_keeps_the_finite_work_check(monkeypatch):
    monkeypatch.setattr(
        work_statistics, "work_coefficients", lambda protocol, c: (math.inf, 0.0, 0.0)
    )
    with pytest.raises(ValueError, match="^work samples must be finite$"):
        jarzynski_at_counts(FAST, EnsembleSpec(BETA, 100, 1), 0.0, [1, 100])


@pytest.mark.parametrize(
    "falling", [(True,), (False,), (True, False)], ids=["sta", "bare", "both"]
)
def test_jarzynski_at_counts_raises_the_full_trace_overflow(monkeypatch, falling):
    # -beta W <= beta omega_i I <= 36.7 for any real ramp of a Gibbs draw, so
    # a mean that overflows needs a work form lowered far below -E_i
    real = work_statistics.work_coefficients

    def lowered(protocol, with_control):
        a, b, c = real(protocol, with_control)
        return (a - 300.0 * protocol.omega_i, b, c) if with_control in falling else (a, b, c)

    monkeypatch.setattr(work_statistics, "work_coefficients", lowered)
    spec = EnsembleSpec(BETA, 2 * _B + 1, 5)
    df = delta_f_classical(BETA, WI, WF)
    sets = classical_work_ensembles(FAST, spec)
    with pytest.raises(ValueError, match="^the mean of exp\\(-beta W\\) overflows") as full:
        jarzynski(sets[falling[0]], BETA, df)
    with pytest.raises(ValueError) as streamed:
        jarzynski_at_counts(FAST, spec, df, _default_counts(spec.count))
    assert str(streamed.value) == str(full.value)


def test_jarzynski_at_counts_holds_no_count_length_array():
    # the default 1e6-sample trace: one 1e6-sample array alone is 8 MB
    df = delta_f_classical(BETA, WI, WF)
    jarzynski_at_counts(FAST, EnsembleSpec(BETA, 100, 0), df, [1])  # imports and Phi untraced
    spec = EnsembleSpec(BETA, 1_000_000, 12345)
    counts = _default_counts(spec.count)
    tracemalloc.start()
    try:
        jarzynski_at_counts(FAST, spec, df, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_delta_f_classical_value():
    df = delta_f_classical(BETA, WI, WF)
    assert df == pytest.approx(math.log(math.sqrt(3.0)) / BETA, rel=1e-14)
    assert math.exp(-BETA * df) == pytest.approx(0.5773502691896258, rel=1e-14)


def test_dissipated_work_nonnegative_and_smaller_with_control():
    df = delta_f_classical(BETA, WI, WF)
    bare = float(np.mean(_samples(50_000, seed=29).samples)) - df
    sta = float(np.mean(_samples(50_000, seed=29, with_control=True).samples)) - df
    assert bare > 0.0
    # controlled drive still dissipates (mean work exceeds delta F) ...
    assert sta >= 0.0
    # ... but strictly less than the uncontrolled drive
    assert sta < bare
    # analytic check: bare mean 5.0, sta mean 3.66025, delta F = ln(sqrt 3)/beta
    assert bare == pytest.approx(5.0 - df, rel=5e-2)
    assert sta == pytest.approx(3.6602540 - df, rel=5e-2)


# ---------------------------------------------------------------------------
# KS distance
# ---------------------------------------------------------------------------

def test_integrate_density_normalizations():
    form = quadratic_form(FAST, BETA)
    assert integrate_density(lambda w: pdf_nonadiabatic(w, form), 200.0) == pytest.approx(
        1.0, abs=1e-6
    )
    assert integrate_density(lambda w: pdf_adiabatic(w, BETA, WI, WF), 300.0) == pytest.approx(
        1.0, abs=1e-6
    )
    assert integrate_density(lambda w: pdf_sudden(w, BETA, WI, WF), 1500.0) == pytest.approx(
        1.0, abs=1e-6
    )


def _quad_pieces(density, u):
    """Adaptive Gauss-Kronrod mass of the density between consecutive u = sqrt(W).

    Every interval maps onto [0, 1], and quad_vec subdivides the vector of
    all of them at once until its error, in the max norm over the pieces,
    meets the bound; the density is called on arrays, as the program calls it.
    """
    start, width = u[:-1], np.diff(u)

    def integrand(t):
        x = start + t * width
        return 2.0 * x * density(x * x) * width

    pieces, _, info = quad_vec(
        integrand, 0.0, 1.0, epsabs=1e-16, epsrel=1e-13, norm="max", full_output=True
    )
    assert info.success, info.message
    return pieces


def _quad_cdf(density, w_max, nodes=513):
    """Adaptive-quadrature oracle on the same u = sqrt(W) grid."""
    u_grid = np.linspace(0.0, math.sqrt(w_max), nodes)
    return np.minimum(np.cumsum(np.append(0.0, _quad_pieces(density, u_grid))), 1.0)


@pytest.mark.parametrize("w_max", [66.0, 220.0])
def test_cdf_matches_adaptive_quadrature(w_max):
    densities = [
        lambda w: pdf_adiabatic(w, BETA, WI, WF),
        lambda w: pdf_sudden(w, BETA, WI, WF),
    ]
    for tau_omega in (1e-4, 3e-4, 1e-3, 1e-2, 0.05, 0.3, 1.0, 5.0):
        ramp = cosine_ramp(WI, WF, tau_omega / WI)
        form = quadratic_form(ramp, BETA)
        densities.append(lambda w, form=form: pdf_nonadiabatic(w, form))
    grid = np.minimum(np.linspace(0.0, math.sqrt(w_max), 513) ** 2, w_max)
    for density in densities:
        cdf = _cdf_at(density, w_max, grid)
        assert np.max(np.abs(cdf - _quad_cdf(density, w_max))) <= 1e-12


def _ks_forms():
    for ratio in (math.sqrt(3.0), 4.0):
        wf = ratio * WI
        yield f"{ratio:.3g}-sta", quadratic_form(cosine_ramp(WI, wf, 1e-3 / WI), BETA, True)
        yield f"{ratio:.3g}-sudden", _work_form(BETA, WI, wf)
        for tau_omega in (1e-4, 1e-3, 1e-2, 0.5, 3.0):
            ramp = cosine_ramp(WI, wf, tau_omega / WI)
            yield f"{ratio:.3g}-bare-{tau_omega:g}", quadratic_form(ramp, BETA)


KS_FORMS = dict(_ks_forms())


@pytest.mark.parametrize("form", KS_FORMS.values(), ids=KS_FORMS.keys())
def test_ks_cdf_matches_adaptive_quadrature_between_nodes(form):
    # off the quadrature nodes, spread uniformly and log-spaced down to
    # 1e-10 w_max; a PCHIP through the grid-node CDF is off by 2.7e-7 to
    # 7.4e-4 here, and a cubic Hermite between 32 knots per panel by 1.7e-11
    density = partial(pdf_nonadiabatic, form=form)
    w_max = 40.0 * form.mu_plus
    w = np.unique(np.concatenate((
        np.linspace(0.0, w_max, 101)[1:], w_max * np.geomspace(1e-10, 1.0, 61)
    )))
    pieces = _quad_pieces(density, np.sqrt(np.append(0.0, w)))
    assert np.max(np.abs(_cdf_at(density, w_max, w) - np.cumsum(pieces))) <= 1e-13


def test_ks_interpolant_maps_are_exact_for_polynomials():
    # the interpolant of x**d through the 16 nodes is x**d itself, for d <= 15
    nodes = work_statistics._GL_X
    z = np.linspace(-1.0, 1.0, 2001)
    z = z[np.min(np.abs(z[:, None] - nodes), axis=1) > 1e-4]
    for degree in range(16):
        series = work_statistics._INTEGRAL_MAP @ nodes**degree
        integral = (z ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
        assert np.max(np.abs(np.polynomial.chebyshev.chebval(z, series) - integral)) <= 1e-14


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    ratio=st.floats(1.01, 100.0),
    beta=st.floats(0.01, 10.0),
    reach=st.floats(2.0, 300.0),
    sudden=st.booleans(),
)
def test_cdf_matches_the_closed_forms_of_the_degenerate_laws(ratio, beta, reach, sudden):
    # the shortcut's CDF is 1 - exp(-W/mu_+), the jump's erf(sqrt(W/mu_+))
    if sudden:
        form = _work_form(beta, 1.0, ratio)
        exact = lambda w: special.erf(np.sqrt(w / form.mu_plus))  # noqa: E731
    else:
        form = _work_form(beta, 1.0, ratio, (ratio - 1.0, 0.0, 0.0))
        exact = lambda w: -np.expm1(-w / form.mu_plus)  # noqa: E731
    w_max = reach * form.mu_plus
    w = w_max * np.geomspace(1e-12, 1.0, 49)
    cdf = _cdf_at(partial(pdf_nonadiabatic, form=form), w_max, w)
    assert np.max(np.abs(cdf - exact(w))) <= 1e-13


def test_integrate_density_reports_excess_mass():
    # a density of mass 2 read 1.0 while the CDF was clipped at 1
    density = lambda w: 0.5 * np.exp(-w / 4.0)  # noqa: E731
    assert abs(integrate_density(density, 200.0) - 2.0) <= 1e-12
    check = density_mass("norm_excess", density, 200.0)
    assert not check.passed


def test_ks_distance_on_the_sudden_law_is_exact():
    # dF/du of the jump law is 0 * inf at W = 0; its CDF is erf(sqrt(W/mu_+))
    form = _work_form(BETA, WI, WF)
    z = np.random.default_rng(3).standard_normal(20_000)
    works = np.append(0.0, form.mu_plus * z * z / 2.0)  # mu_+ x^2, x ~ N(0, 1/2)
    ws = _hand_built(works, seed=3)
    ks = ks_distance(ws, partial(pdf_nonadiabatic, form=form))
    w = np.sort(works)
    f = special.erf(np.sqrt(w / form.mu_plus))
    n = w.size
    exact = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
    assert math.isfinite(ks) and abs(ks - exact) <= 1e-9


@pytest.mark.parametrize(
    "density",
    [lambda w: 0.25 * math.exp(-w / 4.0), lambda w: 0.25],
    ids=["math-exp", "constant"],
)
def test_density_must_accept_arrays(density):
    ws = _samples(256, seed=67)
    with pytest.raises(ValueError, match="must accept a numpy array"):
        ks_distance(ws, density)
    with pytest.raises(ValueError, match="must accept a numpy array"):
        integrate_density(density, 40.0)


def test_ks_distance_small_for_matching_density():
    ws = _samples(100_000, seed=31)
    form = quadratic_form(FAST, BETA)
    ks = ks_distance(ws, lambda w: pdf_nonadiabatic(w, form))
    assert ks < 0.02


def test_ks_distance_large_for_wrong_density():
    # STA samples against the sudden density must be clearly distinguishable
    ws = _samples(100_000, seed=37, with_control=True)
    ks = ks_distance(ws, lambda w: pdf_sudden(w, BETA, WI, WF))
    assert ks > 0.1


def test_ks_distance_respects_w_max():
    ws = _samples(20_000, seed=41)
    form = quadratic_form(FAST, BETA)
    ks_default = ks_distance(ws, lambda w: pdf_nonadiabatic(w, form))
    ks_wide = ks_distance(ws, lambda w: pdf_nonadiabatic(w, form),
                          w_max=float(ws.samples.max()) * 2.0)
    assert ks_wide == pytest.approx(ks_default, abs=5e-3)


def test_ks_distance_exact_on_synthetic_exponential():
    rng = np.random.default_rng(43)
    x = rng.exponential(scale=4.0, size=50_000)
    ws = _hand_built(x, seed=43)
    ks_match = ks_distance(ws, lambda w: np.exp(-np.asarray(w) / 4.0) / 4.0)
    ks_off = ks_distance(ws, lambda w: np.exp(-np.asarray(w) / 2.0) / 2.0)
    assert ks_match < 0.01
    # analytic sup-distance between Exp(4) and Exp(2) CDFs is 0.25
    assert ks_off == pytest.approx(0.25, abs=0.02)


# ---------------------------------------------------------------------------
# estimator dispersion
# ---------------------------------------------------------------------------

def test_estimator_dispersion_control_reduces_variance():
    bare = _samples(40_000, seed=47)
    sta = _samples(40_000, seed=47, with_control=True)
    disp_bare = estimator_dispersion(bare, BETA, batch_count=40)
    disp_sta = estimator_dispersion(sta, BETA, batch_count=40)
    assert disp_sta < disp_bare


def test_estimator_dispersion_scales_inversely_with_batch_size():
    ws = _samples(80_000, seed=53, with_control=True)
    d_small = estimator_dispersion(ws, BETA, batch_count=80)
    d_large = estimator_dispersion(ws, BETA, batch_count=20)
    # variance of the batch mean scales like 1/batch size: 4x batch -> 4x less
    assert d_large == pytest.approx(d_small / 4.0, rel=0.6)


def test_estimator_dispersion_input_guards():
    ws = _samples(1000, seed=59)
    with pytest.raises(ValueError):
        estimator_dispersion(ws, BETA, batch_count=1)
    with pytest.raises(ValueError):
        estimator_dispersion(ws, BETA, batch_count=2000)  # batches would be empty
    with pytest.raises(ValueError):
        estimator_dispersion(ws, -1.0, batch_count=10)
    # non-divisible counts are allowed: the remainder is dropped
    assert estimator_dispersion(ws, BETA, batch_count=7) > 0.0


def _replicate_loop(protocol, specs, batch_count):
    """The per-replicate loop :func:`replicate_dispersions` replaces."""
    return [
        {
            control: estimator_dispersion(s, spec.beta, batch_count)
            for control, s in classical_work_ensembles(protocol, spec).items()
        }
        for spec in specs
    ]


@pytest.mark.parametrize(
    "count,batch_count,replicates",
    [
        (30_000, 100, 4),  # even replicate count
        (30_001, 7, 5),  # odd, and count not a multiple of batch_count
        (20_000, 1000, 1),  # one replicate: the worker lane gets none
        (3 * _B + 7, 2, 3),  # batches larger than _BLOCK
        (2 * _B + 1, 2 * _B, 2),  # one sample per batch, a remainder of one
        (2 * (3 * _B + 5) - 1, 3 * _B + 5, 1),  # a remainder spanning whole steps
    ],
)
def test_replicate_dispersions_equal_the_replicate_loop(count, batch_count, replicates):
    specs = [EnsembleSpec(beta=BETA * (1 + r), count=count, seed=300 + r) for r in range(replicates)]
    before = threading.active_count()
    result = replicate_dispersions(FAST, specs, batch_count)
    assert threading.active_count() == before
    assert result == _replicate_loop(FAST, specs, batch_count)


def test_replicate_dispersions_with_mixed_counts():
    slow = cosine_ramp(WI, 2.0 * WI, 0.3)
    specs = [EnsembleSpec(BETA, count, seed) for count, seed in ((5000, 1), (20_001, 2), (999, 3))]
    assert replicate_dispersions(slow, specs, 9) == _replicate_loop(slow, specs, 9)
    assert replicate_dispersions(FAST, [], 9) == []


def test_replicate_dispersions_check_before_drawing(monkeypatch):
    draws = []
    monkeypatch.setattr(work_statistics, "_gibbs_streams", draws.append)
    specs = [EnsembleSpec(BETA, 1000, 1), EnsembleSpec(BETA, 10, 2)]
    with pytest.raises(ValueError, match="^cannot split 10 samples into 11 non-empty batches$"):
        replicate_dispersions(FAST, specs, 11)
    with pytest.raises(ValueError, match="^batch_count must be an integer >= 2, got 4.0$"):
        replicate_dispersions(FAST, specs, 4.0)
    assert draws == []


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_replicate_dispersions_raise_from_either_lane_and_leave_no_thread(monkeypatch, failing):
    streams = work_statistics._gibbs_streams

    def draw_or_fail(seed):
        if seed == failing:
            raise RuntimeError(f"draw {seed} failed")
        return streams(seed)

    monkeypatch.setattr(work_statistics, "_gibbs_streams", draw_or_fail)
    specs = [EnsembleSpec(BETA, 2000, seed) for seed in range(4)]
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^draw {failing} failed$"):
        replicate_dispersions(FAST, specs, 10)
    assert threading.active_count() == before


def test_replicate_dispersions_hold_no_count_length_array():
    # the lanes draw and reduce in step-sized rows (2000 samples per batch,
    # 32 000-sample steps): the traced peak does not grow from 2e5 to 1e6
    # samples per replicate and stays below one 1e6-sample array, where
    # drawing each replicate whole held two such arrays per lane
    replicate_dispersions(FAST, [EnsembleSpec(BETA, 100, 0)], 2)  # imports and Phi untraced
    peaks = []
    for count in (200_000, 1_000_000):
        specs = [EnsembleSpec(BETA, count, seed) for seed in range(4)]
        tracemalloc.start()
        try:
            replicate_dispersions(FAST, specs, count // 2000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 8 * 1_000_000
    assert peaks[1] < 1.25 * peaks[0]


def test_replicate_dispersions_keep_the_finite_work_check(monkeypatch):
    monkeypatch.setattr(
        work_statistics, "work_coefficients", lambda protocol, c: (math.inf, 0.0, 0.0)
    )
    with pytest.raises(ValueError, match="^work samples must be finite$"):
        replicate_dispersions(FAST, [EnsembleSpec(BETA, 100, 1)], 10)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_ensembles_are_deterministic_and_seed_sensitive():
    a = _samples(256, seed=61).samples
    b = _samples(256, seed=61).samples
    c = _samples(256, seed=62).samples
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
