"""Desk-scale simulator for fast frequency ramps of a parametric oscillator.

The package covers the classical and quantum sides of the same experiment:
an oscillator whose stiffness is swept from omega_i to omega_f in a time
tau, with or without the auxiliary control term that keeps the sweep
transitionless.  It provides

* driving schedules (:mod:`staosc.protocols`),
* classical trajectory/ensemble dynamics (:mod:`staosc.classical_dynamics`),
* closed-form work statistics for the classical sweep
  (:mod:`staosc.classical_analytics`),
* closed-form and Fock-space transition probabilities and two-point work
  measurements (:mod:`staosc.quantum_dynamics`),
* estimators over work samples (:mod:`staosc.work_statistics`),
* a four-stroke engine model built on the sweeps (:mod:`staosc.otto_engine`),
* the invariant battery shared by ``staosc verify`` and the tests
  (:mod:`staosc.invariants`),
* a batch experiment driver (:mod:`staosc.cli_runner`).
"""

from .errors import IntegrationError, TruncationLeakageError
from .protocols import (
    COSINE_RAMP,
    TABLE,
    FrequencyProtocol,
    ValidationReport,
    cosine_ramp,
    omega_at,
    omega_dot_at,
    protocol_from_table,
    total_phase,
    validate,
)
from .classical_dynamics import (
    EnsembleSpec,
    ensemble_work,
    from_action_angle,
    fundamental_matrix,
    gibbs_action_angle,
    integrate,
    oscillator_energy,
    propagate_ensemble,
    sample_gibbs,
    to_action_angle,
    work_coefficients,
)
from .classical_analytics import (
    BasicSolutions,
    QuadraticWorkForm,
    adiabaticity_parameter,
    basic_solutions,
    moments_from_form,
    pdf_adiabatic,
    pdf_nonadiabatic,
    pdf_sudden,
    quadratic_form,
)
from .quantum_dynamics import (
    QuantumWorkAtoms,
    TransitionMatrix,
    delta_f_quantum,
    eigenbasis,
    fock_transition_matrix,
    h0_matrix,
    hc_matrix,
    pdf_quantum_adiabatic,
    quantum_work_atoms,
    transition_matrix,
)
from .work_statistics import (
    BinnedDensity,
    JarzynskiTrace,
    SampleProvenance,
    SummaryStats,
    WorkSampleSet,
    classical_work_ensemble,
    classical_work_ensembles,
    delta_f_classical,
    estimator_dispersion,
    histogram,
    jarzynski,
    ks_distance,
    summary,
)
from .otto_engine import (
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
