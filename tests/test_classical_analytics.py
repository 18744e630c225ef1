import math

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from staosc import classical_dynamics
from staosc.classical_analytics import (
    DEGENERACY_SWITCH,
    _I0E_SWITCH,
    _i0e,
    _work_form,
    basic_solutions,
    moments_from_form,
    pdf_adiabatic,
    pdf_nonadiabatic,
    pdf_sudden,
    quadratic_form,
)
from staosc.classical_dynamics import EnsembleSpec
from staosc.invariants import decay_rate_ordering, form_work_mismatch, wronskian
from staosc.protocols import cosine_ramp

WI = 10.0
WF = 10.0 * math.sqrt(3.0)
BETA = 0.2
FAST = cosine_ramp(WI, WF, 1e-4)


# ---------------------------------------------------------------------------
# basic solutions
# ---------------------------------------------------------------------------

def test_basic_solutions_constant_frequency():
    omega, t = 4.0, 0.9
    basic = basic_solutions(cosine_ramp(omega, omega, t))
    assert basic.C_tau == pytest.approx(math.cos(omega * t), abs=1e-10)
    assert basic.Cdot_tau == pytest.approx(-omega * math.sin(omega * t), abs=1e-9)
    assert basic.S_tau == pytest.approx(math.sin(omega * t) / omega, abs=1e-11)
    assert basic.Sdot_tau == pytest.approx(math.cos(omega * t), abs=1e-10)
    assert basic.wronskian == pytest.approx(1.0, abs=1e-12)


def test_basic_solutions_sudden_expansion():
    # for omega_f tau = 1.7e-3 the ramp barely moves the solutions:
    # C = 1 + O((omega tau)^2), S = tau + O(...), Sdot = 1 + O(...)
    basic = basic_solutions(FAST)
    assert basic.C_tau == pytest.approx(1.0, abs=5e-6)
    assert basic.S_tau == pytest.approx(FAST.tau, rel=5e-6)
    assert basic.Sdot_tau == pytest.approx(1.0, abs=5e-6)
    assert abs(basic.Cdot_tau) < WF**2 * FAST.tau
    assert basic.wronskian == pytest.approx(1.0, abs=1e-12)


def test_basic_solutions_wronskian_many_speeds():
    check = wronskian([cosine_ramp(WI, WF, tau) for tau in (1e-4, 1e-2, 0.3, 5.0)])
    assert check.threshold == 1e-9
    assert check.passed, check.value


def test_wronskian_check_fails_by_value(monkeypatch):
    # the check reads the DOP853 reference, not the gated Phi: a reference
    # whose C S' - C' S is off by 5e-9 reads FAIL with that value, not an error
    drifted = np.array([[1.0 + 5e-9, 0.0], [0.0, 1.0]])
    monkeypatch.setattr(classical_dynamics, "integrate", lambda *args, **kwargs: drifted)
    check = wronskian([FAST])
    assert not check.passed
    assert check.value == pytest.approx(5e-9, rel=1e-6)


# ---------------------------------------------------------------------------
# quadratic form
# ---------------------------------------------------------------------------

@pytest.fixture
def sudden_phi(monkeypatch):
    """The ideal jump: Phi = 1 for every ramp."""
    monkeypatch.setattr(classical_dynamics, "fundamental_matrix", lambda *args: np.eye(2))


def test_quadratic_form_sudden_substitution_exact(sudden_phi):
    # Phi = 1 gives W = I a (1 - cos 2 theta), a = (omega_f^2 - omega_i^2)/(2 omega_i)
    form = quadratic_form(FAST, BETA)
    assert form.a == pytest.approx((WF**2 - WI**2) / (2.0 * WI), rel=1e-14)
    assert form.b == pytest.approx(-form.a, rel=1e-14)
    assert form.c == 0.0
    assert form.mu_plus == pytest.approx(10.0, rel=1e-14)
    assert form.mu_minus == 0.0


def test_quadratic_form_adiabatic_limit():
    form = quadratic_form(cosine_ramp(WI, WF, 60.0), BETA)
    target = (WF - WI) / (WI * BETA)  # = 3.6603 at these parameters
    assert target == pytest.approx(3.6602540378443855, rel=1e-12)
    assert form.mu_plus == pytest.approx(target, rel=1e-3)
    assert form.mu_minus == pytest.approx(target, rel=1e-3)


def test_mu_values_converge_with_ramp_time():
    target = (WF - WI) / (WI * BETA)
    spread = []
    for tau in (2.0, 8.0, 32.0):
        form = quadratic_form(cosine_ramp(WI, WF, tau), BETA)
        spread.append(abs(form.mu_plus - form.mu_minus))
        assert form.mu_minus >= 0.0
        assert form.mu_plus >= form.mu_minus
    assert spread[2] < spread[1] < spread[0]
    final = quadratic_form(cosine_ramp(WI, WF, 32.0), BETA)
    assert 0.5 * (final.mu_plus + final.mu_minus) == pytest.approx(target, rel=1e-3)


def test_quadratic_form_matches_trajectory_work():
    # action-angle coordinates: W = I (a + b cos 2 theta + c sin 2 theta)
    form = quadratic_form(FAST, BETA)
    states = np.random.default_rng(21).normal((0.0, 0.0), (2.0, 0.3), size=(100, 2))
    check = form_work_mismatch(FAST, form, states)
    assert check.threshold == 1e-6
    assert check.passed, check.value


def test_moments_from_form_sudden_values(sudden_phi):
    mean, std = moments_from_form(quadratic_form(FAST, BETA))
    assert mean == pytest.approx(5.0, rel=1e-13)
    assert std == pytest.approx(10.0 / math.sqrt(2.0), rel=1e-13)


def test_mean_work_equals_half_trace():
    # <W> = <I> a = a/(beta omega_i) for any ramp, a = tr K/2 - omega_i
    for tau in (1e-4, 0.01, 1.0):
        form = quadratic_form(cosine_ramp(WI, WF, tau), BETA)
        mean, _ = moments_from_form(form)
        assert mean == pytest.approx(form.a / (BETA * WI), rel=1e-12)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_pdf_adiabatic_values():
    # rate = beta omega_i / (omega_f - omega_i) = 2/(10(sqrt(3)-1)) = 0.27321
    rate = BETA * WI / (WF - WI)
    assert rate == pytest.approx(0.27320508075688774, rel=1e-14)
    assert pdf_adiabatic(0.0, BETA, WI, WF) == pytest.approx(rate, rel=1e-14)
    assert pdf_adiabatic(1.0, BETA, WI, WF) == pytest.approx(rate * math.exp(-rate), rel=1e-13)
    assert pdf_adiabatic(-0.5, BETA, WI, WF) == 0.0


def test_pdf_adiabatic_normalization_and_moments():
    mass, _ = quad(lambda w: pdf_adiabatic(w, BETA, WI, WF), 0, 300)
    assert mass == pytest.approx(1.0, abs=1e-9)
    mean, _ = quad(lambda w: w * pdf_adiabatic(w, BETA, WI, WF), 0, 400)
    assert mean == pytest.approx(3.6602540378443855, rel=1e-7)


def test_pdf_sudden_values_and_divergence():
    # decay rate beta omega_i^2/(omega_f^2 - omega_i^2) = 0.2*100/200 = 0.1
    rate = BETA * WI**2 / (WF**2 - WI**2)
    assert rate == pytest.approx(0.1, rel=1e-14)
    assert pdf_sudden(0.0, BETA, WI, WF) == math.inf
    w = 2.5
    expected = math.sqrt(rate / (math.pi * w)) * math.exp(-rate * w)
    assert pdf_sudden(w, BETA, WI, WF) == pytest.approx(expected, rel=1e-14)
    assert pdf_sudden(-1.0, BETA, WI, WF) == 0.0


def test_pdf_sudden_normalization_and_moments():
    # substitute u = sqrt(W) to handle the endpoint divergence
    rate = 0.1
    mass, _ = quad(lambda u: 2 * u * pdf_sudden(u * u, BETA, WI, WF), 0, 40)
    assert mass == pytest.approx(1.0, abs=1e-9)
    mean, _ = quad(lambda u: 2 * u**3 * pdf_sudden(u * u, BETA, WI, WF), 0, 40)
    assert mean == pytest.approx(0.5 / rate, rel=1e-8)  # chi^2_1 mean = 1/(2 rate)


def test_pdf_nonadiabatic_reduces_to_exponential_when_degenerate():
    form = quadratic_form(cosine_ramp(WI, WF, 60.0), BETA)
    w = np.linspace(0.0, 20.0, 50)
    ad = pdf_adiabatic(w, BETA, WI, WF)
    na = pdf_nonadiabatic(w, form)
    assert np.allclose(na, ad, rtol=2e-3)


def test_pdf_nonadiabatic_normalization_fast_ramp():
    form = quadratic_form(FAST, BETA)
    mass, _ = quad(
        lambda u: 2 * u * pdf_nonadiabatic(u * u, form), 0, 40, limit=300
    )
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_pdf_nonadiabatic_moments_match_form():
    form = quadratic_form(cosine_ramp(WI, WF, 0.05), BETA)
    mean_exp, std_exp = moments_from_form(form)
    mean, _ = quad(lambda u: 2 * u**3 * pdf_nonadiabatic(u * u, form), 0, 50, limit=300)
    second, _ = quad(lambda u: 2 * u**5 * pdf_nonadiabatic(u * u, form), 0, 50, limit=300)
    assert mean == pytest.approx(mean_exp, rel=1e-7)
    assert math.sqrt(second - mean**2) == pytest.approx(std_exp, rel=1e-6)


FALLING = r"^mu_minus must be finite and >= 0, got -.*: the density needs an increasing ramp$"


def test_pdf_nonadiabatic_rejects_negative_mu():
    bad = quadratic_form(cosine_ramp(WF, WI, 1e-4), BETA)
    assert bad.mu_minus < 0.0  # decreasing ramp: form is indefinite
    with pytest.raises(ValueError, match=FALLING):
        pdf_nonadiabatic(1.0, bad)


def test_densities_reject_decreasing_frequencies():
    # mu_minus is checked first: the falling shortcut has mu_+ = mu_- < 0 and
    # the falling jump mu_+ = 0 > mu_-, and both used to fail on mu_plus
    with pytest.raises(ValueError, match=FALLING):
        pdf_adiabatic(1.0, BETA, WF, WI)
    with pytest.raises(ValueError, match=FALLING):
        pdf_sudden(1.0, BETA, WF, WI)
    with pytest.raises(ValueError, match=FALLING):
        pdf_nonadiabatic(1.0, quadratic_form(cosine_ramp(WF, WI, 0.1), BETA, with_control=True))
    # no ramp at all: every work is 0 and there is no density
    for pdf in (pdf_adiabatic, pdf_sudden):
        with pytest.raises(ValueError, match=r"^mu_plus must be positive and finite, got 0.0$"):
            pdf(1.0, BETA, WI, WI)


# ---------------------------------------------------------------------------
# one law, three forms
# ---------------------------------------------------------------------------

LAW_GRID = [
    (WI * ratio, beta)
    for ratio in (1.01, 1.1, math.sqrt(3.0), 3.0, 10.0, 100.0)
    for beta in (0.01, 0.2, 1.0, 5.0)
]


def _exponential(w, rate):
    """The adiabatic law written out: rate exp(-rate W) on W >= 0."""
    return rate * np.exp(-rate * w)


def _jump(w, rate):
    """The sudden-jump law written out: sqrt(rate/(pi W)) exp(-rate W), inf at W = 0."""
    with np.errstate(divide="ignore"):
        return np.sqrt(rate / (np.pi * w)) * np.exp(-rate * w)


@pytest.mark.parametrize("wf,beta", LAW_GRID)
def test_degenerate_forms_are_exact(wf, beta):
    # the determinant route left the controlled mu_minus an ulp off mu_plus,
    # at some points above it, against the documented mu_plus >= mu_minus
    sta = quadratic_form(cosine_ramp(WI, wf, 0.1), beta, with_control=True)
    assert (sta.a, sta.b, sta.c) == (wf - WI, 0.0, 0.0)
    assert sta.mu_minus == sta.mu_plus == (wf - WI) / (beta * WI)
    jump = _work_form(beta, WI, wf)
    assert jump.a == -jump.b == (wf**2 - WI**2) / (2.0 * WI)
    assert jump.c == 0.0
    assert jump.mu_minus == 0.0
    assert jump.mu_plus == pytest.approx((wf**2 - WI**2) / (beta * WI**2), rel=1e-15)


@pytest.mark.parametrize("wf,beta", LAW_GRID)
def test_adiabatic_and_sudden_laws_are_the_one_law_on_their_forms(wf, beta):
    sta = quadratic_form(cosine_ramp(WI, wf, 0.1), beta, with_control=True)
    w = np.linspace(0.0, 60.0 * sta.mu_plus, 4001)
    np.testing.assert_allclose(
        pdf_adiabatic(w, beta, WI, wf), _exponential(w, beta * WI / (wf - WI)), rtol=1e-13, atol=0
    )
    w = np.linspace(0.0, 60.0 * _work_form(beta, WI, wf).mu_plus, 4001)
    got = pdf_sudden(w, beta, WI, wf)
    assert got[0] == math.inf
    np.testing.assert_allclose(
        got, _jump(w, beta * WI**2 / (wf**2 - WI**2)), rtol=1e-13, atol=0
    )


@pytest.mark.parametrize("wf,beta", LAW_GRID)
def test_shortcut_law_keeps_the_bits_of_the_bessel_form(wf, beta):
    # mu_minus == mu_plus takes exp(-W/mu_+)/mu_+ with no Bessel function; it
    # must give the i0e expression's bits (i0e(0) == 1, sqrt(mu mu) == mu)
    sta = quadratic_form(cosine_ramp(WI, wf, 0.1), beta, with_control=True)
    mu_p, mu_m = sta.mu_plus, sta.mu_minus
    w = np.linspace(0.0, 60.0 * mu_p, 4001)
    arg = (mu_p - mu_m) * w / (2.0 * mu_p * mu_m)
    bessel = np.exp(-w / mu_p) * special.i0e(arg) / math.sqrt(mu_p * mu_m)
    assert np.array_equal(pdf_nonadiabatic(w, sta), bessel)
    assert pdf_nonadiabatic(0.0, sta) == 1.0 / math.sqrt(mu_p * mu_m)


# ---------------------------------------------------------------------------
# the Bessel factor exp(-x) I0(x)
# ---------------------------------------------------------------------------

#: stated before the numpy i0e replaced scipy's: 2e-15 relative, everywhere
I0E_RTOL = 2e-15


def _i0e_points():
    """0, tiny x, numpy's own switch at 8, the series switch and its neighbours, up to 1e8."""
    return np.unique(np.concatenate((
        [0.0, 5e-324, 1e-300, 1e-20, 1e-8, np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0)],
        [np.nextafter(_I0E_SWITCH, 0.0), _I0E_SWITCH, np.nextafter(_I0E_SWITCH, np.inf)],
        np.geomspace(1e-6, 1e8, 400),
    )))


def test_i0e_matches_mpmath():
    x = _i0e_points()
    got = _i0e(x)
    with mpmath.workdps(40):
        worst = max(
            abs(mpmath.mpf(float(g)) / (mpmath.besseli(0, float(v)) * mpmath.exp(-float(v))) - 1)
            for v, g in zip(x, got)
        )
    assert worst <= I0E_RTOL


def test_i0e_matches_scipy():
    x = np.concatenate((
        _i0e_points(), np.linspace(0.0, 1000.0, 20001), np.geomspace(1e-6, 1e8, 20001)
    ))
    assert np.max(np.abs(_i0e(x) / special.i0e(x) - 1.0)) <= I0E_RTOL
    assert _i0e(np.array([0.0]))[0] == 1.0
    assert _i0e(np.array([])).shape == (0,)


def _switch_form():
    """A bare form whose Bessel argument passes the series switch at W = w_switch."""
    form = quadratic_form(cosine_ramp(WI, WF, 1e-3 / WI), BETA)
    mu_p, mu_m = form.mu_plus, form.mu_minus
    assert DEGENERACY_SWITCH * mu_p < mu_m < mu_p  # the Bessel branch
    return form, _I0E_SWITCH * 2.0 * mu_p * mu_m / (mu_p - mu_m)


def _bessel_arg(w, form):
    return (form.mu_plus - form.mu_minus) * w / (2.0 * form.mu_plus * form.mu_minus)


def test_bare_density_on_a_scalar_keeps_the_bits_of_the_array_call():
    form, w_switch = _switch_form()
    w = np.concatenate((
        [-1.0, 0.0, 5e-324, 1e-12],
        w_switch * np.array([0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0]),
        np.linspace(0.0, 40.0 * form.mu_plus, 41)[1:],
    ))
    arg = _bessel_arg(w, form)
    assert np.any((0.0 < arg) & (arg <= _I0E_SWITCH)) and np.any(arg > _I0E_SWITCH)
    whole = pdf_nonadiabatic(w, form)
    assert np.array_equal(np.array([pdf_nonadiabatic(float(v), form) for v in w]), whole)
    assert whole[0] == 0.0
    assert whole[1] == pdf_nonadiabatic(0.0, form) == 1.0 / math.sqrt(form.mu_plus * form.mu_minus)


def test_bare_density_on_one_side_of_the_switch_or_none():
    form, w_switch = _switch_form()
    low = w_switch * np.linspace(0.0, 1.0, 9)[1:]
    high = w_switch * np.linspace(1.0, 50.0, 9)[1:]
    assert np.all(_bessel_arg(low, form) <= _I0E_SWITCH)
    assert np.all(_bessel_arg(high, form) > _I0E_SWITCH)
    both = pdf_nonadiabatic(np.concatenate((low, high)), form)
    halves = (pdf_nonadiabatic(low, form), pdf_nonadiabatic(high, form))
    assert np.array_equal(np.concatenate(halves), both)
    assert np.all(np.diff(both) < 0.0)  # the bare density falls with W > 0, across the switch too
    # no positive work at all: the Bessel factor sees an empty selection
    assert pdf_nonadiabatic(np.array([]), form).shape == (0,)
    none = pdf_nonadiabatic(np.array([-2.0, -1e-300, 0.0]), form)
    assert np.array_equal(none, [0.0, 0.0, 1.0 / math.sqrt(form.mu_plus * form.mu_minus)])


def test_decay_rate_inequality():
    # the sudden tail is always fatter: rate_sudden < rate_adiabatic / 2
    for wf_over_wi in (1.1, 1.7321, 3.0, 10.0):
        assert decay_rate_ordering(BETA, WI, WI * wf_over_wi).passed


def test_sudden_quadratic_form_from_real_fast_ramp():
    # the actual fast ramp reproduces the ideal-jump quadratic form closely
    form = quadratic_form(FAST, BETA)
    assert form.mu_plus == pytest.approx(10.0, rel=1e-4)
    assert form.mu_minus < 1e-5 * form.mu_plus
    mean, std = moments_from_form(form)
    assert mean == pytest.approx(5.0, rel=1e-4)
    assert std == pytest.approx(7.0710678, rel=1e-4)


def test_mc_histogram_matches_nonadiabatic_density():
    from staosc.work_statistics import classical_work_ensemble, ks_distance

    form = quadratic_form(FAST, BETA)
    samples = classical_work_ensemble(
        FAST, EnsembleSpec(beta=BETA, count=100_000, seed=31), with_control=False
    )
    ks = ks_distance(samples, lambda w: pdf_nonadiabatic(w, form))
    assert ks < 0.02


def test_intermediate_speed_dual_route():
    # a ramp that is neither sudden nor adiabatic; MC vs closed form
    from staosc.work_statistics import classical_work_ensemble, ks_distance

    proto = cosine_ramp(WI, WF, 0.05)
    form = quadratic_form(proto, BETA)
    assert form.mu_minus > 0.01 * form.mu_plus  # genuinely non-degenerate
    samples = classical_work_ensemble(
        proto, EnsembleSpec(beta=BETA, count=60_000, seed=37), with_control=False
    )
    ks = ks_distance(samples, lambda w: pdf_nonadiabatic(w, form))
    assert ks < 0.02
