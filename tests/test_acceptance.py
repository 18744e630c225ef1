"""Acceptance suite: seven end-to-end criteria, one verdict line each.

Every criterion covers a headline result of the library at production
sample sizes.  Each test computes all of its sub-results first, registers
a single PASS/FAIL line with the terminal-summary hook, and only then
asserts — so the verdict block at the end of a run is always complete.
"""

import math

import numpy as np
import pytest

from conftest import record_acceptance

from staosc import invariants
from staosc.classical_analytics import (
    pdf_adiabatic,
    pdf_nonadiabatic,
    pdf_sudden,
    quadratic_form,
)
from staosc.classical_dynamics import EnsembleSpec, sample_gibbs
from staosc.otto_engine import (
    CLASSICAL,
    QUANTUM,
    OttoCycleSpec,
    StrokeKind,
    eta_adiabatic_max_power,
    eta_sudden_max_power,
    optimize_frequency,
)
from staosc.protocols import cosine_ramp
from staosc.quantum_dynamics import (
    delta_f_quantum,
    pdf_quantum_adiabatic,
    quantum_work_atoms,
    transition_matrix,
)
from staosc.work_statistics import (
    classical_work_ensembles,
    delta_f_classical,
    estimator_dispersion,
    jarzynski,
    ks_distance,
    summary,
)

BETA = 0.2
WI = 10.0
WF = 10.0 * math.sqrt(3.0)
TAU = 1e-3 / WI  # omega_i * tau = 0.001
RAMP = cosine_ramp(WI, WF, TAU)
HBAR = 1.0 / (2.0 * math.pi)


def _verdict(n: int, title: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    record_acceptance(f"criterion {n} ({title}): {state} — {detail}")


# ---------------------------------------------------------------------------
# 1. classical work distributions, controlled vs bare, 1e5 trajectories
# ---------------------------------------------------------------------------

def test_criterion_1_classical_work_distributions():
    spec = EnsembleSpec(beta=BETA, count=100_000, seed=101)
    sets = classical_work_ensembles(RAMP, spec)
    sta, bare = sets[True], sets[False]

    target_mean_sta = (WF - WI) / (WI * BETA)  # 3.6603: exponential mean = std
    ks_sta = ks_distance(sta, lambda w: pdf_adiabatic(w, BETA, WI, WF))
    s_sta = summary(sta)

    form = quadratic_form(RAMP, BETA)
    ks_bare = ks_distance(bare, lambda w: pdf_nonadiabatic(w, form))
    s_bare = summary(bare)

    checks = {
        "ks_sta": ks_sta < 0.02,
        "sta_mean": abs(s_sta.mean - target_mean_sta) < 0.01 * target_mean_sta,
        "sta_std": abs(s_sta.std - target_mean_sta) < 0.01 * target_mean_sta,
        "ks_bare": ks_bare < 0.02,
        "bare_mean": abs(s_bare.mean - 5.0) < 0.02 * 5.0,
        "bare_std": abs(s_bare.std - 7.071) < 0.02 * 7.071,
    }
    _verdict(
        1,
        "classical work distributions",
        all(checks.values()),
        f"KS sta {ks_sta:.4f} / bare {ks_bare:.4f}; "
        f"sta mean {s_sta.mean:.4f} std {s_sta.std:.4f}; "
        f"bare mean {s_bare.mean:.4f} std {s_bare.std:.4f}",
    )
    assert ks_sta < 0.02
    assert s_sta.mean == pytest.approx(target_mean_sta, rel=0.01)
    assert s_sta.std == pytest.approx(target_mean_sta, rel=0.01)
    assert ks_bare < 0.02
    assert s_bare.mean == pytest.approx(5.0, rel=0.02)
    assert s_bare.std == pytest.approx(7.071, rel=0.02)


# ---------------------------------------------------------------------------
# 2. free-energy estimator convergence and variance ordering, 1e6 samples
# ---------------------------------------------------------------------------

def test_criterion_2_jarzynski_convergence_and_dispersion():
    delta_f = delta_f_classical(BETA, WI, WF)
    target = math.exp(-BETA * delta_f)
    assert target == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)

    spec = EnsembleSpec(beta=BETA, count=1_000_000, seed=202)
    sets = classical_work_ensembles(RAMP, spec)
    finals = {
        label: jarzynski(sets[control], BETA, delta_f).final
        for label, control in (("sta", True), ("bare", False))
    }

    replicates, batch = 20, 10_000
    wins = 0
    for r in range(replicates):
        rep = EnsembleSpec(beta=BETA, count=1_000_000, seed=300 + r)
        sets = classical_work_ensembles(RAMP, rep)
        disp = {
            label: estimator_dispersion(
                sets[control], BETA, batch_count=sets[control].samples.size // batch
            )
            for label, control in (("sta", True), ("bare", False))
        }
        wins += disp["sta"] < disp["bare"]

    ok = (
        abs(finals["sta"] - target) < 0.01
        and abs(finals["bare"] - target) < 0.01
        and wins >= math.ceil(0.95 * replicates)
    )
    _verdict(
        2,
        "free-energy estimator",
        ok,
        f"sta {finals['sta']:.5f}, bare {finals['bare']:.5f} vs {target:.5f}; "
        f"controlled variance smaller in {wins}/{replicates} replicates",
    )
    assert abs(finals["sta"] - target) < 0.01
    assert abs(finals["bare"] - target) < 0.01
    assert wins >= math.ceil(0.95 * replicates)


# ---------------------------------------------------------------------------
# 3. quantum work atom sets at hbar = 1, basis >= 512
# ---------------------------------------------------------------------------

def test_criterion_3_quantum_work_atoms():
    tm_sta = transition_matrix(RAMP, with_control=True, n_max=64, dimension=512)
    tm_bare = transition_matrix(RAMP, with_control=False, n_max=64, dimension=512)
    atoms_sta = quantum_work_atoms(tm_sta, BETA, hbar=1.0)
    atoms_bare = quantum_work_atoms(tm_bare, BETA, hbar=1.0)

    neg_sta = atoms_sta.negative_probability()
    neg_bare = atoms_bare.negative_probability()
    std_sta = atoms_sta.std()
    std_bare = atoms_bare.std()

    # closed-form comparison: locate each analytic atom among the computed set
    ref = pdf_quantum_adiabatic(BETA, WI, WF, n_max=64)
    closed_form_dev = 0.0
    for w_exp, p_exp in zip(ref.works[:32], ref.probs[:32]):
        idx = int(np.argmin(np.abs(atoms_sta.works - w_exp)))
        closed_form_dev = max(
            closed_form_dev,
            abs(atoms_sta.works[idx] - w_exp) / abs(w_exp),
            abs(atoms_sta.probs[idx] - p_exp),
        )

    # the hbar convention note must be part of the experiment summary
    import tempfile

    from staosc.cli_runner import SCHEMA_VERSION, run_experiment

    with tempfile.TemporaryDirectory() as tmp:
        run_summary = run_experiment(
            {"schema_version": SCHEMA_VERSION, "experiment": "quantum-work-atoms"},
            out_dir=tmp,
        )
    has_convention_note = "hbar_convention" in run_summary["derived"]

    checks = {
        "sta_no_negative": neg_sta <= 1e-12,
        "sta_std": abs(std_sta - 3.1) < 0.05 * 3.1,
        "bare_negative_visible": neg_bare > 0.01,
        "bare_std": abs(std_bare - 8.7) < 0.10 * 8.7,
        "closed_form": closed_form_dev < 1e-6,
        "convention_note": has_convention_note,
    }
    _verdict(
        3,
        "quantum work atoms",
        all(checks.values()),
        f"sta P(W<0) {neg_sta:.2e}, std {std_sta:.4f}; "
        f"bare P(W<0) {neg_bare:.2e} (needs > 0.01), std {std_bare:.4f}; "
        f"closed-form dev {closed_form_dev:.2e}; convention noted: "
        f"{has_convention_note}",
    )
    assert neg_sta <= 1e-12
    assert std_sta == pytest.approx(3.1, rel=0.05)
    assert std_bare == pytest.approx(8.7, rel=0.10)
    assert closed_form_dev < 1e-6
    assert has_convention_note
    # at these parameters the negative-work weight concentrates in the
    # n=2 -> m=0 atom, whose Gibbs weight is e^(-2 beta hbar omega_i); the
    # measured total stays near 8e-4, so this bound is not reachable at
    # hbar = 1 — it is asserted exactly as stated and expected to fail
    assert neg_bare > 0.01


# ---------------------------------------------------------------------------
# 4. quantum fluctuation identity for both atom sets
# ---------------------------------------------------------------------------

def test_criterion_4_quantum_jarzynski():
    target = math.exp(-BETA * delta_f_quantum(BETA, WI, WF, hbar=1.0))
    errors = {}
    for label, control in (("sta", True), ("bare", False)):
        tm = transition_matrix(RAMP, with_control=control, n_max=48, dimension=512)
        atoms = quantum_work_atoms(tm, BETA, hbar=1.0)
        estimate = float(np.sum(atoms.probs * np.exp(-BETA * atoms.works)))
        estimate += atoms.gibbs_tail
        errors[label] = abs(estimate - target)

    ok = all(err < 1e-6 for err in errors.values())
    _verdict(
        4,
        "quantum fluctuation identity",
        ok,
        f"|estimate - {target:.8f}|: sta {errors['sta']:.2e}, "
        f"bare {errors['bare']:.2e}",
    )
    assert errors["sta"] < 1e-6
    assert errors["bare"] < 1e-6


# ---------------------------------------------------------------------------
# 5. classical engine optimizer vs closed forms
# ---------------------------------------------------------------------------

def test_criterion_5_engine_closed_forms():
    check = invariants.engine_closed_forms([
        OttoCycleSpec(
            beta_1=1.0, beta_2=beta_ratio_2_over_1, omega_i=WI, omega_f=None,
            regime=CLASSICAL, stroke_1=strokes, stroke_3=strokes,
        )
        for beta_ratio_2_over_1 in (0.04, 0.25, 0.5, 0.81)
        for strokes in (StrokeKind.sta(), StrokeKind.sudden())
    ])
    _verdict(
        5,
        "engine closed forms",
        check.passed,
        f"max |optimizer - closed form| = {check.value:.2e} over 4 bath ratios x 2 strokes",
    )
    assert check.threshold == 1e-3
    assert check.passed, check.detail


# ---------------------------------------------------------------------------
# 6. quantum engine regime map
# ---------------------------------------------------------------------------

def test_criterion_6_quantum_engine_regimes():
    # deep quantum: controlled strokes dominate sudden ones by > 2x
    min_gain = math.inf
    for ratio in (2.0, 5.0, 10.0, 30.0, 100.0):
        common = dict(
            beta_1=10.0, beta_2=10.0 / ratio, omega_i=WI, omega_f=None,
            regime=QUANTUM, hbar=HBAR,
        )
        sta = optimize_frequency(OttoCycleSpec(**common))
        sud = optimize_frequency(
            OttoCycleSpec(
                **common, stroke_1=StrokeKind.sudden(), stroke_3=StrokeKind.sudden()
            )
        )
        if sud.cycle.feasible and sta.cycle.feasible:
            min_gain = min(min_gain, sta.cycle.efficiency / sud.cycle.efficiency)
        else:
            min_gain = min(min_gain, math.inf if not sud.cycle.feasible else 0.0)

    # high temperature: quantum efficiencies collapse onto the classical curves
    worst_cl = 0.0
    for ratio in (2.0, 4.0, 10.0, 25.0):
        for strokes, closed in (
            (StrokeKind.sta(), eta_adiabatic_max_power(ratio)),
            (StrokeKind.sudden(), eta_sudden_max_power(ratio)),
        ):
            spec = OttoCycleSpec(
                beta_1=0.01, beta_2=0.01 / ratio, omega_i=WI, omega_f=None,
                regime=QUANTUM, hbar=HBAR,
                stroke_1=strokes, stroke_3=strokes,
            )
            result = optimize_frequency(spec)
            worst_cl = max(worst_cl, abs(result.cycle.efficiency - closed) / closed)

    ok = min_gain > 2.0 and worst_cl < 0.02
    _verdict(
        6,
        "quantum engine regimes",
        ok,
        f"min efficiency gain {min_gain:.2f} (needs > 2) at beta_1 = 10; "
        f"max classical deviation {worst_cl:.2%} (needs < 2%) at beta_1 = 0.01",
    )
    assert min_gain > 2.0
    assert worst_cl < 0.02


# ---------------------------------------------------------------------------
# 7. property battery
# ---------------------------------------------------------------------------

def test_criterion_7_property_battery():
    proto = cosine_ramp(WI, WF, 0.04)
    form = quadratic_form(proto, BETA)
    gibbs = sample_gibbs(EnsembleSpec(beta=BETA, count=1000, seed=707), WI)
    form_states = np.random.default_rng(808).normal((0.0, 0.0), (3.0, 0.4), size=(100, 2))
    taus = (1e-4, 1e-2, 1.0, 20.0)
    wronskian = invariants.wronskian([cosine_ramp(WI, WF, tau) for tau in taus])
    action = invariants.action_drift(proto, gibbs)
    identity = invariants.transitionless_deviation(RAMP, n_max=16, dimension=256)
    work_form = invariants.form_work_mismatch(proto, form, form_states)
    norms = [
        invariants.density_mass("adiabatic", lambda w: pdf_adiabatic(w, BETA, WI, WF), 300.0),
        invariants.density_mass("sudden", lambda w: pdf_sudden(w, BETA, WI, WF), 1500.0),
        invariants.density_mass("nonadiabatic", lambda w: pdf_nonadiabatic(w, form), 200.0),
        invariants.atom_mass(pdf_quantum_adiabatic(BETA, WI, WF, n_max=64)),
    ]
    rng = np.random.default_rng(909)
    specs = []
    for _ in range(50):
        beta_1 = float(rng.uniform(0.05, 5.0))
        ratio = float(rng.uniform(1.2, 40.0))
        w_ratio = float(rng.uniform(1.05, 8.0))
        strokes = [StrokeKind.sta(), StrokeKind.sudden()][int(rng.integers(2))]
        regime = [CLASSICAL, QUANTUM][int(rng.integers(2))]
        specs.append(OttoCycleSpec(beta_1, beta_1 / ratio, WI, WI * w_ratio, regime,
                                   strokes, strokes, HBAR if regime == QUANTUM else 1.0))
    carnot = invariants.carnot_margin(specs)
    checks = [wronskian, action, identity, work_form, *norms, carnot]

    _verdict(
        7,
        "property battery",
        all(c.passed for c in checks),
        f"wronskian {wronskian.value:.1e}; action drift {action.value:.1e} (1000 states); "
        f"identity dev {identity.value:.1e}; work-form dev {work_form.value:.1e} "
        f"(100 states); norm dev {max(c.value for c in norms):.1e}; "
        f"carnot {'held' if carnot.passed else 'VIOLATED'}",
    )
    assert [c.threshold for c in checks] == [1e-9, 1e-7, 1e-6, 1e-6] + [1e-6] * 4 + [1e-12]
    for check in checks:
        assert check.passed, f"{check.name}: {check.value:.2e}"
