"""Estimators over work samples: summaries, histograms, free energies.

Functions here accept either a :class:`WorkSampleSet` (Monte Carlo draws
from the classical simulator) or :class:`~staosc.quantum_dynamics.QuantumWorkAtoms`
(exact discrete distributions), wherever both make sense.  The
exponential-average estimator

    <exp(-beta W)>  ->  exp(-beta Delta F)

holds for both the bare and the shortcut-controlled ramp; what the control
changes is the estimator's dispersion, not its target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.interpolate import PchipInterpolator

from .classical_dynamics import (
    EnsembleSpec,
    OscillatorParams,
    ensemble_work,
    propagate_ensemble,
    sample_gibbs,
)
from .protocols import FrequencyProtocol
from .quantum_dynamics import QuantumWorkAtoms


@dataclass(frozen=True)
class SampleProvenance:
    """Everything needed to regenerate a sample set bit-for-bit."""

    kind: str
    omega_i: float
    omega_f: float
    tau: float
    with_control: bool
    beta: float
    mass: float
    count: int
    seed: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class WorkSampleSet:
    """Work draws plus the provenance that produced them."""

    samples: np.ndarray
    provenance: SampleProvenance

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-d array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("work samples must be finite")
        object.__setattr__(self, "samples", samples)


def classical_work_ensembles(
    protocol: FrequencyProtocol,
    spec: EnsembleSpec,
    params: OscillatorParams = OscillatorParams(),
    tol: float = 1e-12,
    controls: tuple[bool, ...] = (True, False),
) -> dict[bool, WorkSampleSet]:
    """Sample one Gibbs ensemble and run it through each ramp in ``controls``.

    Returns ``{with_control: WorkSampleSet}``, by default
    ``{True: controlled, False: bare}``.  Every ramp sees the same initial
    states, which is what a controlled-versus-bare comparison needs; each
    set is bit-identical to a separate :func:`classical_work_ensemble` call
    with the same spec.  Each ramp's final states are dropped before the
    next ramp is propagated.
    """
    initial = sample_gibbs(spec, protocol.omega_i, params)
    sets = {}
    for with_control in controls:
        works = ensemble_work(
            initial,
            propagate_ensemble(initial, protocol, with_control, params, tol),
            protocol,
            params,
        )
        prov = SampleProvenance(
            kind=protocol.kind,
            omega_i=protocol.omega_i,
            omega_f=protocol.omega_f,
            tau=protocol.tau,
            with_control=with_control,
            beta=spec.beta,
            mass=params.m,
            count=spec.count,
            seed=spec.seed,
        )
        sets[with_control] = WorkSampleSet(samples=works, provenance=prov)
    return sets


def classical_work_ensemble(
    protocol: FrequencyProtocol,
    spec: EnsembleSpec,
    params: OscillatorParams = OscillatorParams(),
    with_control: bool = False,
    tol: float = 1e-12,
) -> WorkSampleSet:
    """Sample a Gibbs ensemble, run one ramp, and collect endpoint work."""
    sets = classical_work_ensembles(protocol, spec, params, tol, (with_control,))
    return sets[with_control]


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    std: float
    stderr_mean: float
    stderr_std: float
    count: int


def summary(samples: WorkSampleSet) -> SummaryStats:
    """Mean and standard deviation with moment-based standard errors.

    The standard error of the standard deviation uses the delta method,
    se(s) = sqrt((m4 - s^4) / (4 s^2 n)), which stays honest for the
    heavy-tailed work laws the sudden ramp produces.
    """
    w = samples.samples
    n = w.size
    if n < 2:
        raise ValueError("need at least 2 samples to summarize")
    mean = float(np.mean(w))
    centered = w - mean
    var = float(np.dot(centered, centered) / (n - 1))
    std = math.sqrt(var)
    m4 = float(np.mean(centered**4))
    se_mean = std / math.sqrt(n)
    se_std = math.sqrt(max(m4 - var**2, 0.0) / (4.0 * var * n)) if var > 0 else 0.0
    return SummaryStats(mean=mean, std=std, stderr_mean=se_mean, stderr_std=se_std, count=n)


@dataclass(frozen=True)
class BinnedDensity:
    """Histogram normalized to unit area."""

    edges: np.ndarray
    density: np.ndarray


def default_bin_count(n: int) -> int:
    """Rice-style rule used when the caller does not pick a bin count."""
    return max(1, math.ceil(2.0 * n ** (1.0 / 3.0)))


def histogram(samples: WorkSampleSet, bins=None) -> BinnedDensity:
    """Area-one histogram of the samples; bins is a count or explicit edges."""
    w = samples.samples
    if bins is None:
        bins = default_bin_count(w.size)
    if np.ndim(bins) == 1:
        edges = np.asarray(bins, dtype=float)
        if np.any(np.diff(edges) <= 0.0):
            raise ValueError("histogram bin edges must be strictly increasing")
    elif int(bins) < 1:
        raise ValueError("bin count must be >= 1")
    else:
        edges = int(bins)
    density, edges = np.histogram(w, bins=edges, density=True)
    return BinnedDensity(edges=edges, density=density)


@dataclass(frozen=True)
class JarzynskiTrace:
    """Running exponential-average estimate against its exact target."""

    counts: np.ndarray
    running: np.ndarray
    final: float
    target: float

    @property
    def final_error(self) -> float:
        return self.final - self.target


def jarzynski(data, beta: float, delta_f: float) -> JarzynskiTrace:
    """Estimate <exp(-beta W)> and compare with exp(-beta Delta F).

    For a sample set the trace is the running mean after each draw (entry
    k uses exactly the first k samples).  For a discrete atom set the
    expectation is exact and the trace collapses to a single point.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    target = math.exp(-beta * delta_f)
    if isinstance(data, QuantumWorkAtoms):
        final = float(np.dot(data.probs, np.exp(-beta * data.works)))
        return JarzynskiTrace(
            counts=np.array([data.works.size]),
            running=np.array([final]),
            final=final,
            target=target,
        )
    w = data.samples
    running = np.cumsum(np.exp(-beta * w)) / np.arange(1, w.size + 1)
    return JarzynskiTrace(
        counts=np.arange(1, w.size + 1),
        running=running,
        final=float(running[-1]),
        target=target,
    )


def delta_f_classical(beta: float, omega_i: float, omega_f: float) -> float:
    """Classical-oscillator free-energy difference (1/beta) log(omega_f/omega_i)."""
    if beta <= 0.0 or omega_i <= 0.0 or omega_f <= 0.0:
        raise ValueError("all arguments must be positive")
    return math.log(omega_f / omega_i) / beta


def dissipated_work(data, beta: float, delta_f: float) -> float:
    """<W> - Delta F; non-negative on average by the second law."""
    if isinstance(data, QuantumWorkAtoms):
        mean = data.mean()
    else:
        mean = float(np.mean(data.samples))
    return mean - delta_f


#: 16-point Gauss-Legendre nodes and weights on [-1, 1]; one rule
#: integrates every panel of the CDF grid.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

#: The first grid panel [0, h] is split at h/2, h/4, ..., h/2**60.  A bare
#: ramp whose work form has mu_minus << mu_plus has a feature at
#: u ~ sqrt(mu_minus) (7e-4 for the default tau*omega_i = 1e-3 ramp, against
#: h ~ 1.6e-2); one rule across the whole first panel misses it by up to
#: ~1e-5 in the CDF, the graded panel resolves it to rounding.
_FIRST_PANEL_HALVINGS = 60

_ARRAY_DENSITY = (
    "density must accept a numpy array of works and return an array of the "
    "same shape"
)


def _density_values(density, w: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized density once on the whole node array."""
    try:
        values = np.asarray(density(w), dtype=float)
    except TypeError as err:  # e.g. math.exp applied to an array
        raise ValueError(f"{_ARRAY_DENSITY}: {err}") from err
    if values.shape != w.shape:
        raise ValueError(
            f"{_ARRAY_DENSITY}: got shape {values.shape} for input shape {w.shape}"
        )
    return values


def _cdf_on_grid(density, w_max: float, nodes: int = 513):
    """Cumulative distribution of a density on [0, w_max].

    Integration runs in u = sqrt(W), which turns the inverse-square-root
    endpoint divergence of the sudden law into a bounded integrand;
    smooth densities are unaffected.  Each panel of the uniform u grid gets
    a 16-point Gauss-Legendre rule, the first panel is graded geometrically
    toward u = 0, and the density is called once on all quadrature nodes.
    Against adaptive quadrature the CDF agrees to 1e-12 at every grid node
    (to rounding for the package's work densities).  Returns
    (w_grid, cdf_values).
    """
    u_grid = np.linspace(0.0, math.sqrt(w_max), nodes)
    first = u_grid[1] * np.exp2(-np.arange(_FIRST_PANEL_HALVINGS, -1, -1.0))
    lo = np.concatenate(([0.0], first[:-1], u_grid[1:-1]))
    hi = np.concatenate((first, u_grid[2:]))
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    u = center[:, None] + half[:, None] * _GL_X
    panels = half * ((2.0 * u * _density_values(density, u * u)) @ _GL_W)

    pieces = np.zeros(nodes)
    pieces[1] = panels[: first.size].sum()
    pieces[2:] = panels[first.size:]
    cdf = np.cumsum(pieces)
    return u_grid**2, np.minimum(cdf, 1.0)


def integrate_density(density, w_max: float) -> float:
    """Total mass of a work density on [0, w_max] (normalization check).

    The density must be vectorized: it is called once on a numpy array of
    works and must return an array of the same shape.
    """
    _, cdf = _cdf_on_grid(density, w_max)
    return float(cdf[-1])


def ks_distance(samples: WorkSampleSet, density, w_max: float | None = None) -> float:
    """Kolmogorov-Smirnov distance between samples and an analytic density.

    The analytic CDF is built on a 513-node grid in sqrt-work coordinates
    (so densities divergent at W = 0 integrate cleanly) by fixed-node
    Gauss-Legendre panels, the first graded toward W = 0, and interpolated
    monotonically.  The density is assumed to be supported on W >= 0, and
    must be vectorized: it is called once on a numpy array of works and
    must return an array of the same shape.
    """
    w = np.sort(samples.samples)
    if w_max is None:
        w_max = max(float(w[-1]) * 1.05, 1e-12)
    grid, cdf = _cdf_on_grid(density, w_max)
    interp = PchipInterpolator(np.sqrt(grid + 0.0), cdf, extrapolate=False)

    u = np.sqrt(np.clip(w, 0.0, w_max))
    f = interp(u)
    f = np.where(w <= 0.0, 0.0, f)
    f = np.where(w >= w_max, 1.0, np.nan_to_num(f, nan=1.0))
    n = w.size
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def estimator_dispersion(samples: WorkSampleSet, beta: float, batch_count: int) -> float:
    """Variance across batch means of exp(-beta W).

    The samples are split in order into batch_count equal batches (the
    remainder is dropped); returned is the ddof=1 variance of the batch
    means — the quantity that controls how trustworthy a finite-sample
    free-energy estimate is.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if batch_count < 2:
        raise ValueError("need at least 2 batches")
    w = samples.samples
    per = w.size // batch_count
    if per < 1:
        raise ValueError(
            f"cannot split {w.size} samples into {batch_count} non-empty batches"
        )
    trimmed = w[: per * batch_count].reshape(batch_count, per)
    means = np.mean(np.exp(-beta * trimmed), axis=1)
    return float(np.var(means, ddof=1))
