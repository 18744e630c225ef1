import json
import math
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import staosc.work_statistics as work_statistics
from staosc.classical_analytics import (
    pdf_adiabatic,
    pdf_nonadiabatic,
    pdf_sudden,
    quadratic_form,
)
from staosc.classical_dynamics import (
    GIBBS_GENERATOR,
    EnsembleSpec,
    ensemble_work,
    gibbs_action_angle,
    propagate_ensemble,
    sample_gibbs,
    work_coefficients,
)
from staosc.protocols import cosine_ramp, omega_at, protocol_from_table
from staosc.quantum_dynamics import quantum_work_atoms, transition_matrix
from staosc.work_statistics import (
    BinnedDensity,
    WorkSampleSet,
    SampleProvenance,
    _cdf_on_grid,
    classical_work_ensemble,
    classical_work_ensembles,
    default_bin_count,
    delta_f_classical,
    estimator_dispersion,
    histogram,
    integrate_density,
    jarzynski,
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

def test_classical_work_ensemble_shapes_and_provenance():
    ws = _samples(512, seed=3)
    assert ws.samples.shape == (512,)
    assert np.all(np.isfinite(ws.samples))
    prov = ws.provenance
    assert prov.count == 512
    assert prov.seed == 3
    assert prov.beta == BETA
    assert not prov.with_control
    d = prov.as_dict()
    json.dumps(d)  # serializable
    assert d["omega_i"] == WI
    assert d["omega_f"] == pytest.approx(WF)
    assert d["generator"] == GIBBS_GENERATOR


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
        assert ws.provenance == alone.provenance
        assert ws.provenance.with_control is with_control
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
    prov = SampleProvenance(
        kind="cosine-ramp", omega_i=WI, omega_f=WF, tau=1e-4,
        with_control=False, beta=BETA, count=2, seed=1,
    )
    with pytest.raises(ValueError):
        WorkSampleSet(samples=np.array([]), provenance=prov)
    with pytest.raises(ValueError):
        WorkSampleSet(samples=np.array([1.0, math.nan]), provenance=prov)


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
    prov = SampleProvenance(
        kind="cosine-ramp", omega_i=WI, omega_f=WF, tau=1.0,
        with_control=False, beta=BETA, count=x.size, seed=0,
    )
    s = summary(WorkSampleSet(samples=x, provenance=prov))
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


def _quad_cdf(density, w_max, nodes=513):
    """Adaptive-quadrature oracle on the same u = sqrt(W) grid."""
    u_grid = np.linspace(0.0, math.sqrt(w_max), nodes)
    pieces = [0.0]
    for a, b in zip(u_grid[:-1], u_grid[1:]):
        val, _ = quad(lambda u: 2.0 * u * density(u * u), a, b,
                      epsabs=1e-15, epsrel=1e-13, limit=200)
        pieces.append(val)
    return np.minimum(np.cumsum(pieces), 1.0)


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
    for density in densities:
        grid, cdf = _cdf_on_grid(density, w_max)
        assert grid[-1] == pytest.approx(w_max, rel=1e-14)
        assert np.max(np.abs(cdf - _quad_cdf(density, w_max))) <= 1e-12


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
    prov = SampleProvenance(
        kind="cosine-ramp", omega_i=WI, omega_f=WF, tau=1.0,
        with_control=False, beta=BETA, count=x.size, seed=43,
    )
    ws = WorkSampleSet(samples=x, provenance=prov)
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
