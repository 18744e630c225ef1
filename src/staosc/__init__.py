"""Desk-scale simulator for fast frequency ramps of a parametric oscillator.

The package covers the classical and quantum sides of the same experiment:
an oscillator whose stiffness is swept from omega_i to omega_f in a time
tau, with or without the auxiliary control term that keeps the sweep
transitionless.  It provides

* driving schedules (:mod:`staosc.protocols`),
* classical trajectory/ensemble dynamics (:mod:`staosc.classical_dynamics`),
* closed-form work statistics for the classical sweep
  (:mod:`staosc.classical_analytics`),
* Fock-space propagation and two-point work measurements
  (:mod:`staosc.quantum_dynamics`),
* estimators over work samples (:mod:`staosc.work_statistics`),
* a four-stroke engine model built on the sweeps (:mod:`staosc.otto_engine`),
* a batch experiment driver (:mod:`staosc.cli_runner`).
"""

from .errors import IntegrationError, TruncationLeakageError
from .protocols import (
    COSINE_RAMP,
    CONSTANT,
    TABLE,
    FrequencyProtocol,
    ValidationReport,
    cosine_ramp,
    constant_protocol,
    omega_at,
    omega_dot_at,
    protocol_from_table,
    validate,
)
from .classical_dynamics import (
    ActionAngle,
    EnsembleSpec,
    OscillatorParams,
    PhaseState,
    control_value,
    derivative,
    ensemble_work,
    from_action_angle,
    fundamental_matrix,
    integrate,
    oscillator_energy,
    propagate_ensemble,
    sample_gibbs,
    to_action_angle,
    trajectory_work,
)
from .classical_analytics import (
    BasicSolutions,
    QuadraticWorkForm,
    basic_solutions,
    bessel_i0,
    bessel_i0_scaled,
    moments_from_form,
    pdf_adiabatic,
    pdf_nonadiabatic,
    pdf_sudden,
    quadratic_form,
)
from .quantum_dynamics import (
    FockBasisConfig,
    QuantumState,
    QuantumWorkAtoms,
    TransitionMatrix,
    adiabaticity_parameter,
    delta_f_quantum,
    eigenbasis,
    h0_matrix,
    hc_matrix,
    pdf_quantum_adiabatic,
    propagate,
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
    dissipated_work,
    estimator_dispersion,
    histogram,
    jarzynski,
    ks_distance,
    summary,
)
from .otto_engine import (
    CycleResult,
    EfficiencyTable,
    OptimizationResult,
    OttoCycleSpec,
    StrokeDurations,
    StrokeKind,
    efficiency_curves,
    eta_adiabatic_max_power,
    eta_sudden_max_power,
    evaluate_cycle,
    optimize_frequency,
    stroke_energy_factor,
    thermal_energy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
