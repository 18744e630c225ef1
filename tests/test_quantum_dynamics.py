import math
import re

import mpmath
import numpy as np
import pytest

from staosc import classical_dynamics, quantum_dynamics
from staosc.classical_analytics import adiabaticity_parameter, moments_from_form, quadratic_form
from staosc.errors import IntegrationError, TruncationLeakageError
from staosc.invariants import transitionless_deviation
from staosc.protocols import cosine_ramp, omega_at, omega_dot_at
from staosc.quantum_dynamics import (
    QuantumWorkAtoms,
    delta_f_quantum,
    _log_sinh,
    _merge_atoms,
    _propagate_columns,
    eigenbasis,
    fock_transition_matrix,
    h0_matrix,
    hc_matrix,
    pdf_quantum_adiabatic,
    quantum_work_atoms,
    transition_matrix,
)
from staosc.work_statistics import delta_f_classical, jarzynski

WI = 10.0
WF = 10.0 * math.sqrt(3.0)
BETA = 0.2
FAST = cosine_ramp(WI, WF, 1e-4)


def _ladder(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    for k in range(1, n):
        a[k - 1, k] = math.sqrt(k)
    return a


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------

def test_h0_matrix_against_ladder_construction():
    n, omega, wref = 24, 13.0, WI
    a = _ladder(n)
    # q = sqrt(1/(2 wref)) (a + a+), p = i sqrt(wref / 2) (a+ - a), hbar = m = 1
    q = math.sqrt(1.0 / (2.0 * wref)) * (a + a.T)
    p = 1j * math.sqrt(wref / 2.0) * (a.T - a)
    h_ref = (p @ p).real / 2.0 + 0.5 * omega**2 * (q @ q)
    h_ours = h0_matrix(omega, wref, n)
    # truncation corrupts only the final ladder entries of the product
    inner = slice(0, n - 2)
    assert np.allclose(h_ours[inner, inner], h_ref[inner, inner], atol=1e-10)


def test_h0_diagonal_and_codiagonal_values():
    omega = 17.0
    h = h0_matrix(omega, WI, 16)
    for n in range(16):
        assert h[n, n] == pytest.approx(
            0.25 * (WI + omega**2 / WI) * (2 * n + 1), rel=1e-14
        )
    for n in range(14):
        assert h[n, n + 2] == pytest.approx(
            0.25 * (omega**2 / WI - WI) * math.sqrt((n + 1) * (n + 2)), rel=1e-14
        )
    assert np.allclose(h, h.conj().T)


def test_hc_matrix_against_ladder_construction():
    n = 24
    proto = cosine_ramp(WI, WF, 0.5)
    t = 0.2
    a = _ladder(n)
    q = math.sqrt(1.0 / (2.0 * WI)) * (a + a.T)
    p = 1j * math.sqrt(WI / 2.0) * (a.T - a)
    rate = omega_dot_at(proto, t) / omega_at(proto, t)
    h_ref = -(rate / 4.0) * (q @ p + p @ q)
    h_ours = hc_matrix(proto, t, n)
    inner = slice(0, n - 2)
    assert np.allclose(h_ours[inner, inner], h_ref[inner, inner], atol=1e-12)
    assert np.allclose(h_ours, h_ours.conj().T)


def test_hc_vanishes_at_endpoints():
    proto = cosine_ramp(WI, WF, 0.5)
    # omega_dot vanishes at both ends; floating sin(pi) leaves ~1e-16 dust
    scale = abs(omega_dot_at(proto, proto.tau / 2.0))
    assert np.max(np.abs(hc_matrix(proto, 0.0, 16))) <= 1e-12 * scale
    assert np.max(np.abs(hc_matrix(proto, proto.tau, 16))) <= 1e-12 * scale


def test_hc_offdiagonal_magnitude():
    # |<n+2|Hc|n>| = (|omega_dot| / 4 omega) sqrt((n+1)(n+2))
    proto = cosine_ramp(WI, WF, 0.5)
    t = proto.tau / 2.0
    h = hc_matrix(proto, t, 16)
    scale = abs(omega_dot_at(proto, t)) / (4.0 * omega_at(proto, t))
    for n in range(14):
        assert abs(h[n, n + 2]) == pytest.approx(
            scale * math.sqrt((n + 1) * (n + 2)), rel=1e-12
        )
    assert np.all(np.abs(np.diag(h)) == 0.0)


def test_eigenbasis_recovers_harmonic_spectrum():
    omega = 14.0
    energies, _ = eigenbasis(omega, WI, 200)
    expected = omega * (np.arange(40) + 0.5)
    assert np.allclose(energies[:40], expected, rtol=1e-8)


def test_eigenbasis_at_reference_frequency_is_fock():
    energies, vecs = eigenbasis(WI, WI, 64)
    assert np.allclose(energies, WI * (np.arange(64) + 0.5), rtol=1e-12)
    overlap = np.abs(vecs) ** 2
    assert np.allclose(overlap, np.eye(64), atol=1e-12)


def test_bare_hamiltonian_rejects_nonpositive_or_nonfinite_omega():
    for omega in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        for call in (h0_matrix, eigenbasis):
            with pytest.raises(ValueError, match="^omega must be positive and finite"):
                call(omega, WI, 8)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_stationary_state_under_constant_frequency():
    psi0 = np.zeros(64, dtype=complex)
    psi0[3] = 1.0
    proto = cosine_ramp(WI, WI, 0.37)
    final = _propagate_columns(psi0[:, None], proto, False, tol=1e-12)[:, 0]
    probs = np.abs(final) ** 2
    assert probs[3] == pytest.approx(1.0, abs=1e-10)
    # the acquired phase is exp(-i E_3 tau)
    expected_phase = np.exp(-1j * WI * 3.5 * 0.37)
    assert final[3] == pytest.approx(expected_phase, abs=1e-8)


def test_controlled_drive_keeps_ground_state():
    energies, vecs = eigenbasis(WI, WI, 256)
    proto = cosine_ramp(WI, WF, 1e-3 * 2.0 * math.pi / WI)
    final = _propagate_columns(vecs[:, :1], proto, True)[:, 0]
    _, vecs_f = eigenbasis(WF, WI, 256)
    overlap = abs(np.vdot(vecs_f[:, 0], final)) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-6)


def test_bare_fast_ramp_ground_state_survival():
    # |<0_f|U|0_i>|^2 = 2 sqrt(wi wf) / (wi + wf) for an ideal jump
    _, vecs = eigenbasis(WI, WI, 256)
    final = _propagate_columns(vecs[:, :1], FAST, False)[:, 0]
    _, vecs_f = eigenbasis(WF, WI, 256)
    p00 = abs(np.vdot(vecs_f[:, 0], final)) ** 2
    expected = 2.0 * math.sqrt(WI * WF) / (WI + WF)
    assert expected == pytest.approx(0.9634330440022851, rel=1e-12)
    assert p00 == pytest.approx(expected, abs=1e-6)


def test_propagation_preserves_norm():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    amp = np.zeros(128, dtype=complex)
    amp[:64] = psi / np.linalg.norm(psi)
    final = _propagate_columns(amp[:, None], cosine_ramp(WI, WF, 0.02), False)
    assert np.linalg.norm(final) == pytest.approx(1.0, abs=1e-9)



def test_norm_drift_gate_reports_checked_quantity():
    # a loose solver tolerance drifts the norm well past the 1e-9 gate
    with pytest.raises(IntegrationError) as info:
        fock_transition_matrix(cosine_ramp(WI, 2.0 * WI, 1e-2), n_max=4, dimension=32, tol=1e-3)
    message = str(info.value)
    assert "max|norm(psi_tau) - norm(psi_0)| = " in message
    assert "beyond 1e-9" in message
    drift = float(message.split("= ")[1].split()[0])
    assert 1e-9 < drift < 1e-3


def test_propagated_leak_gate_rejects_population_at_the_top_of_the_basis():
    # the controlled ramp ends in eigenstates of H0(40), squeezed so far in the
    # omega_ref = 10 number basis that 16 levels cannot hold the first four
    with pytest.raises(TruncationLeakageError, match=r"population 5\.934e-03 reached the top 10%"):
        fock_transition_matrix(cosine_ramp(10, 40, 0.1), True, n_max=4, dimension=16)


# ---------------------------------------------------------------------------
# transition matrix
# ---------------------------------------------------------------------------

def test_transition_matrix_rows_sum_to_one():
    tm = transition_matrix(FAST, n_max=16, dimension=256)
    sums = tm.row_sums()
    assert sums.shape == (16,)
    assert np.all(sums >= 1.0 - 1e-6)
    assert np.all(sums <= 1.0 + 1e-9)


def test_transition_matrix_control_is_identity():
    check = transitionless_deviation(FAST, 12, 256)
    assert check.threshold == 1e-6
    assert check.passed, check.value


@pytest.mark.parametrize(
    "ratio, dimension", [(math.sqrt(3.0), 128), (0.5, 128), (4.0, 512)]
)
def test_closed_form_matches_fock_propagation(ratio, dimension):
    # at omega_f = 4 omega_i a 256-level reference basis misplaces its final
    # eigenvalues by 4.3e-3 and raises (see the eigenvalue-gate test)
    worst = 0.0
    for tau_omega_i in (1e-4, 1e-2, 0.1, 0.5):
        proto = cosine_ramp(WI, ratio * WI, tau_omega_i / WI)
        closed = transition_matrix(proto, n_max=8, dimension=dimension)
        fock = fock_transition_matrix(proto, n_max=8, dimension=dimension)
        assert closed.probs.shape == fock.probs.shape
        worst = max(worst, float(np.max(np.abs(closed.probs - fock.probs))))
    assert worst <= 1e-9


def test_fock_eigenvalue_gate():
    # the truncated H0(omega_f) must reproduce omega_f (m + 1/2) for
    # every final level m < m_max it projects onto: at omega_f = 4 omega_i
    # the worst relative error is 1.9e-14 with 512 levels, 4.3e-3 with 256
    proto = cosine_ramp(WI, 4.0 * WI, 1e-2 / WI)
    assert fock_transition_matrix(proto, n_max=8, dimension=512).m_max == 64
    with pytest.raises(TruncationLeakageError, match=r"error 4\.33\de-03 over m < m_max = 64"):
        fock_transition_matrix(proto, n_max=8, dimension=256)


def test_closed_form_control_is_exact_identity():
    tm = transition_matrix(FAST, with_control=True, n_max=24, dimension=128)
    assert np.array_equal(tm.probs, np.eye(24, tm.m_max))


def test_closed_form_rejects_q_star_below_one(monkeypatch):
    # Q* >= 1 for every area-preserving flow; a contracting one must not pass
    monkeypatch.setattr(quantum_dynamics, "adiabaticity_parameter", lambda proto: 0.81)
    with pytest.raises(IntegrationError, match="below 1"):
        transition_matrix(cosine_ramp(WI, WI, 0.1), n_max=8, dimension=128)
    # round-off below 1 is clamped to the identity
    monkeypatch.setattr(quantum_dynamics, "adiabaticity_parameter", lambda proto: 1.0 - 5e-10)
    tm = transition_matrix(cosine_ramp(WI, WI, 0.1), n_max=8, dimension=128)
    assert np.array_equal(tm.probs, np.eye(8, tm.m_max))


def test_closed_form_rejects_row_sums_above_one():
    # the squeeze recurrence loses accuracy at large n_max; here its rows
    # sum to far above 1 (the value follows the last ulp of Q*), which no
    # set of probabilities can do
    with pytest.raises(IntegrationError, match=r"sums to \S+ > 1") as raised:
        transition_matrix(FAST, n_max=200, dimension=800)
    assert float(re.search(r"sums to (\S+) >", str(raised.value)).group(1)) > 1.0 + 1e-9


def test_transition_matrix_parity_selection():
    tm = transition_matrix(FAST, n_max=8, dimension=256)
    for n in range(tm.n_max):
        for m in range(tm.m_max):
            if (n + m) % 2 == 1:
                assert tm.probs[n, m] < 1e-12


def test_transition_matrix_ideal_jump_values():
    # analytic ideal-jump ground row: P(0 -> 2m) with lambda = (wf-wi)/(wf+wi)
    tm = transition_matrix(FAST, n_max=4, dimension=256)
    lam = (WF - WI) / (WF + WI)
    p00 = 2.0 * math.sqrt(WI * WF) / (WI + WF)
    # P(0->2m) = p00 * lam^(2m) * (2m-1)!! / (2m)!!
    expected = [p00, p00 * lam**2 / 2.0, p00 * lam**4 * 3.0 / 8.0]
    for m, val in enumerate(expected):
        assert tm.probs[0, 2 * m] == pytest.approx(val, abs=2e-6)


def test_transition_matrix_detailed_balance_symmetry():
    # microreversibility of the quadratic Hamiltonian: P(n->m) weights satisfy
    # the same ladder structure transposed; check P(0->2) vs P(2->0) ratio
    tm = transition_matrix(FAST, n_max=8, dimension=256)
    # for the ideal jump the matrix is symmetric in (n, m) up to the measure
    assert tm.probs[0, 2] == pytest.approx(tm.probs[2, 0], rel=5e-4)


def test_transition_matrix_convergence_in_basis_size():
    tm_a = transition_matrix(FAST, n_max=12, dimension=256)
    tm_b = transition_matrix(FAST, n_max=12, dimension=512)
    m = min(tm_a.m_max, tm_b.m_max, 21)
    assert np.allclose(tm_a.probs[:, :m], tm_b.probs[:, :m], atol=1e-8)


def test_transition_matrix_nmax_guard():
    with pytest.raises(ValueError):
        transition_matrix(FAST, n_max=80, dimension=128)


# ---------------------------------------------------------------------------
# work atoms
# ---------------------------------------------------------------------------

def test_work_atoms_controlled_drive_adiabatic_spectrum():
    tm = transition_matrix(
        FAST, with_control=True, n_max=24,
        dimension=512,
    )
    atoms = quantum_work_atoms(tm, BETA)
    # P = I: level n is the only outcome of level n, one atom each
    assert atoms.works.size == 24
    assert atoms.negative_probability() == 0.0
    expected = (WF - WI) * (np.arange(24) + 0.5)
    np.testing.assert_allclose(atoms.works, expected, rtol=1e-12, atol=0.0)
    # mean matches the adiabatic-invariant prediction <W> = (wf-wi)<n+1/2>
    occ = 0.5 / math.tanh(0.5 * BETA * WI)
    assert atoms.mean() == pytest.approx((WF - WI) * occ, rel=1e-6)


def test_work_atoms_weights_are_geometric():
    tm = transition_matrix(
        FAST, with_control=True, n_max=24,
        dimension=512,
    )
    atoms = quantum_work_atoms(tm, BETA)
    raw = math.exp(-BETA * WI) ** np.arange(24)
    assert np.array_equal(atoms.probs, raw / raw.sum())  # truncated-geometric renormalization


@pytest.mark.parametrize("ratio", [math.sqrt(3.0), 2.0, 0.5])
def test_work_atoms_are_the_positive_groups_of_the_full_grid(ratio):
    # the oracle merges every (n, m) pair, zero-probability ones included,
    # and drops the groups that carry no probability; at ratios 2 and 1/2
    # exact coincidences pool atoms, whose sums may round in another order
    wf = ratio * WI
    for with_control in (False, True):
        tm = transition_matrix(
            cosine_ramp(WI, wf, 0.05 / WI), with_control, n_max=24, dimension=128
        )
        n = np.arange(tm.n_max, dtype=float)[:, None]
        m = np.arange(tm.m_max, dtype=float)[None, :]
        raw = math.exp(-BETA * WI) ** np.arange(tm.n_max)
        probs = (raw / raw.sum())[:, None] * tm.probs
        works = wf * (m + 0.5) - WI * (n + 0.5)
        want_w, want_p = _merge_atoms(works.ravel(), probs.ravel(), wf)
        outcome = want_p > 0.0
        atoms = quantum_work_atoms(tm, BETA)
        assert np.all(atoms.probs > 0.0)
        assert atoms.works.shape == want_w[outcome].shape
        if ratio == math.sqrt(3.0):
            assert np.array_equal(atoms.works, want_w[outcome])
            assert np.array_equal(atoms.probs, want_p[outcome])
        else:
            np.testing.assert_allclose(atoms.works, want_w[outcome], rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(atoms.probs, want_p[outcome], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("omega_i, omega_f, beta", [(10.0, 5.0, 3.0), (30.0, 10.0, 1.0)])
@pytest.mark.parametrize("with_control", [False, True])
def test_jarzynski_of_falling_ramps_reads_no_impossible_atom(omega_i, omega_f, beta, with_control):
    # on these falling ramps some (n, m) pairs of probability 0 lie at
    # -beta W > 709, where exp overflows and 0 * inf would be nan; they are
    # no outcome, so they are no atom.  On the bare 30 -> 10 ramp an atom of
    # probability 1.68e-321 reaches -beta W = 730, whose exponential alone
    # overflows; the mean is finite, and jarzynski sums that set on a log
    # scale (it used to raise)
    tm = transition_matrix(
        cosine_ramp(omega_i, omega_f, 0.1 / omega_i), with_control, n_max=32, dimension=512
    )
    atoms = quantum_work_atoms(tm, beta)
    delta_f = delta_f_quantum(beta, omega_i, omega_f)
    trace = jarzynski(atoms, beta, delta_f)
    if omega_i == 30.0 and not with_control:
        assert float(np.max(-beta * atoms.works)) == 730.0
        logs = (np.log(atoms.probs) - beta * atoms.works).tolist()
        top = max(logs)
        oracle = math.exp(top) * math.fsum(math.exp(v - top) for v in logs)
        assert trace.final == pytest.approx(oracle, rel=1e-12)
        assert trace.final == pytest.approx(trace.target, rel=1e-8)
        return
    assert trace.final == pytest.approx(trace.target, rel=1e-10)


def test_work_atoms_jarzynski_exact():
    for with_control in (False, True):
        tm = transition_matrix(
            FAST, with_control=with_control, n_max=24,
            dimension=512,
        )
        atoms = quantum_work_atoms(tm, BETA)
        estimate = float(np.sum(atoms.probs * np.exp(-BETA * atoms.works)))
        estimate += atoms.gibbs_tail
        target = math.exp(-BETA * delta_f_quantum(BETA, WI, WF))
        assert target == pytest.approx(0.4292727403497249, rel=1e-10)
        assert estimate == pytest.approx(target, abs=1e-6)


def test_work_atoms_bare_statistics():
    tm = transition_matrix(
        FAST, n_max=64, dimension=512
    )
    atoms = quantum_work_atoms(tm, BETA)
    assert atoms.std() == pytest.approx(9.284555547754996, rel=1e-4)
    assert atoms.negative_probability() == pytest.approx(8.05e-4, rel=0.05)


@pytest.mark.parametrize("hbar", [1.0, 1.0 / (2.0 * math.pi)])
@pytest.mark.parametrize("with_control", [False, True])
def test_hbar_enters_the_atoms_only_through_beta_hbar_and_the_energies(with_control, hbar):
    # P(n -> m) carries no hbar: halving hbar at twice beta keeps beta hbar,
    # halves every work atom and keeps every probability, bit for bit
    tm = transition_matrix(FAST, with_control, n_max=24, dimension=256)
    atoms = quantum_work_atoms(tm, BETA, hbar)
    halved = quantum_work_atoms(tm, 2.0 * BETA, hbar / 2.0)
    assert np.array_equal(halved.works, atoms.works / 2.0)
    assert np.array_equal(halved.probs, atoms.probs)
    assert halved.gibbs_tail == atoms.gibbs_tail


def _merge_atoms_loop(works, probs, scale):
    """Sequential merge, the reference for _merge_atoms, plus group sizes."""
    order = np.argsort(works)
    works = works[order]
    probs = probs[order]
    merged_w = [works[0]]
    merged_p = [probs[0]]
    sizes = [1]
    for w, p in zip(works[1:], probs[1:]):
        ref = max(abs(w), abs(merged_w[-1]), scale * 1e-6)
        if w - merged_w[-1] <= 1e-9 * ref:
            total = merged_p[-1] + p
            if total > 0.0:
                merged_w[-1] = (merged_w[-1] * merged_p[-1] + w * p) / total
            merged_p[-1] = total
            sizes[-1] += 1
        else:
            merged_w.append(w)
            merged_p.append(p)
            sizes.append(1)
    return np.array(merged_w), np.array(merged_p), np.array(sizes)


@pytest.mark.parametrize("ratio", [math.sqrt(3.0), 2.0, 0.5])
def test_merge_atoms_matches_sequential_merge(ratio):
    # ratios 2 and 1/2 put many (n, m) pairs on exactly the same work value
    wf = ratio * WI
    for with_control in (False, True):
        tm = transition_matrix(
            cosine_ramp(WI, wf, 0.05 / WI), with_control, n_max=24, dimension=128
        )
        n = np.arange(tm.n_max, dtype=float)[:, None]
        m = np.arange(tm.m_max, dtype=float)[None, :]
        works = (wf * (m + 0.5) - WI * (n + 0.5)).ravel()
        weights = math.exp(-BETA * WI) ** n
        probs = (weights / weights.sum() * tm.probs).ravel()
        want_w, want_p, sizes = _merge_atoms_loop(works, probs, wf)
        got_w, got_p = _merge_atoms(works, probs, wf)
        assert got_w.shape == want_w.shape
        lone = sizes == 1
        assert np.array_equal(got_w[lone], want_w[lone])
        assert np.array_equal(got_p[lone], want_p[lone])
        assert np.allclose(got_w, want_w, rtol=1e-12, atol=0.0)
        assert np.allclose(got_p, want_p, rtol=1e-12, atol=0.0)
        assert np.any(sizes > 1) == (ratio != math.sqrt(3.0))


def test_work_atoms_validation():
    with pytest.raises(ValueError):
        QuantumWorkAtoms(works=np.array([1.0, 0.5]), probs=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        QuantumWorkAtoms(works=np.array([0.5, 1.0]), probs=np.array([0.6, 0.6]))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_delta_f_quantum_value_and_classical_limit():
    df = delta_f_quantum(BETA, WI, WF)
    # direct evaluation from partition functions
    z = lambda w: math.exp(-BETA * w / 2.0) / (1.0 - math.exp(-BETA * w))
    expected = -math.log(z(WF) / z(WI)) / BETA
    assert df == pytest.approx(expected, rel=1e-12)
    # small-beta limit approaches ln(wf/wi)/beta
    beta_small = 1e-4
    classical = math.log(WF / WI) / beta_small
    assert delta_f_quantum(beta_small, WI, WF) == pytest.approx(classical, rel=1e-3)


def test_log_sinh_matches_mpmath_from_tiny_to_large_arguments():
    xs = [float(x) for x in np.geomspace(1e-300, 700.0, 400)]
    xs += [1e-14, 1e-10, math.asinh(1.0), 0.1, 0.5, 1.0, math.sqrt(3.0), 5.0, 50.0]
    for x in xs:
        with mpmath.workdps(50):
            exact = float(mpmath.log(mpmath.sinh(mpmath.mpf(x))))
        # round-off of the summands x and log 2 bounds the error near log sinh = 0
        assert abs(_log_sinh(x) - exact) <= 1e-15 * max(1.0, abs(exact)), x


def test_delta_f_quantum_approaches_classical_as_beta_hbar_omega_vanishes():
    for beta in np.geomspace(1e-18, 1e-3, 31):
        classical = delta_f_classical(beta, WI, WF)
        a, b = 0.5 * beta * WF, 0.5 * beta * WI
        # log sinh(x) = log x + x^2/6 - ..., so the gap is below (a^2 - b^2) / (6 beta);
        # 1e-13 covers the round-off of subtracting two logs near log(1e-18)
        gap = (a * a - b * b) / (6.0 * beta)
        assert abs(delta_f_quantum(beta, WI, WF) - classical) <= gap + 1e-13 * classical
    assert delta_f_quantum(1e-18, 1.0, 2.0) == pytest.approx(
        delta_f_classical(1e-18, 1.0, 2.0), rel=1e-12
    )


def test_delta_f_quantum_deep_quantum_limit():
    # large beta: delta F -> hbar (wf - wi)/2 (ground-state energies)
    beta = 50.0
    assert delta_f_quantum(beta, WI, WF) == pytest.approx(0.5 * (WF - WI), rel=1e-6)


def test_pdf_quantum_adiabatic_matches_atoms():
    atoms = pdf_quantum_adiabatic(BETA, WI, WF, n_max=64)
    x = math.exp(-BETA * WI)
    assert atoms.works[0] == pytest.approx(0.5 * (WF - WI), rel=1e-14)
    assert atoms.probs[0] == pytest.approx(1.0 - x, abs=1e-10)
    assert atoms.works[1] - atoms.works[0] == pytest.approx(WF - WI, rel=1e-12)
    jarz = float(np.sum(atoms.probs * np.exp(-BETA * atoms.works))) + atoms.gibbs_tail
    assert jarz == pytest.approx(0.4292727403497249, abs=1e-9)


def test_pdf_quantum_adiabatic_keeps_only_outcomes():
    # at beta hbar omega_i = 500, x^n underflows to 0 for every n >= 2
    atoms = pdf_quantum_adiabatic(50.0, WI, 2.0 * WI)
    assert np.array_equal(atoms.works, [5.0, 15.0])
    assert atoms.probs[0] == 1.0 and 0.0 < atoms.probs[1] < 1e-200
    falling = pdf_quantum_adiabatic(50.0, WI, 0.5 * WI)
    assert np.array_equal(falling.works, [-7.5, -2.5])
    assert np.array_equal(falling.probs, atoms.probs[::-1])


def test_pdf_quantum_adiabatic_tail_guard():
    with pytest.raises(ValueError):
        pdf_quantum_adiabatic(0.01, WI, WF, n_max=8)  # truncation too small


def test_pdf_quantum_adiabatic_tail_guard_when_the_thermal_ratio_rounds_to_one():
    # exp(-beta hbar omega_i) == 1.0: no truncation reaches the 1e-10 tail
    with pytest.raises(ValueError, match="no n_max reaches it"):
        pdf_quantum_adiabatic(1e-20, 1.0, 2.0)


def test_adiabaticity_parameter_limits():
    slow = cosine_ramp(WI, WF, 60.0)
    assert adiabaticity_parameter(slow) == pytest.approx(1.0, abs=1e-3)
    sudden = (WI**2 + WF**2) / (2.0 * WI * WF)
    assert sudden == pytest.approx(1.1547005383792515, rel=1e-12)
    assert adiabaticity_parameter(FAST) == pytest.approx(sudden, rel=1e-5)
    # >= 1 up to integrator noise
    assert adiabaticity_parameter(slow) >= 1.0 - 1e-8


def test_adiabaticity_parameter_sudden_substitution_exact(monkeypatch):
    monkeypatch.setattr(classical_dynamics, "fundamental_matrix", lambda *args: np.eye(2))
    assert adiabaticity_parameter(FAST) == pytest.approx(
        (WI**2 + WF**2) / (2.0 * WI * WF), rel=1e-14
    )


def test_quantum_classical_mean_work_correspondence():
    # high-temperature quantum mean work approaches the classical formula
    hbar = 0.1
    tm = fock_transition_matrix(FAST, n_max=128, dimension=512, tol=1e-9)
    atoms = quantum_work_atoms(tm, BETA, hbar)
    form = quadratic_form(FAST, BETA)
    mean_cl, std_cl = moments_from_form(form)
    assert atoms.mean() == pytest.approx(mean_cl, rel=0.01)
    assert atoms.std() == pytest.approx(std_cl, rel=0.01)
