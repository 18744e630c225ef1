"""Estimators over work samples: summaries, histograms, free energies.

Functions here accept either a :class:`WorkSampleSet` (Monte Carlo draws
from the classical simulator) or :class:`~staosc.quantum_dynamics.QuantumWorkAtoms`
(exact discrete distributions), wherever both make sense.  The
exponential-average estimator

    <exp(-beta W)>  ->  exp(-beta Delta F)

holds for both the bare and the shortcut-controlled ramp; what the control
changes is the estimator's dispersion, not its target.

Classical sample sets are drawn in action-angle form and turned into work
by each ramp's closed-form quadratic form, with no phase-space arrays.  The
oscillator has unit mass, as in :mod:`staosc.classical_dynamics`: the work
does not depend on the mass, which only rescales phase space.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from .classical_dynamics import (
    GIBBS_GENERATOR,
    EnsembleSpec,
    _draw_action_angle,
    _gibbs_streams,
    work_coefficients,
)
from .errors import require_int, require_positive
from .protocols import FrequencyProtocol
from .quantum_dynamics import QuantumWorkAtoms

#: Samples per step of the draw, work and dispersion loops: the per-sample
#: draws and temporaries of one step stay in cache.  The draw streams are read
#: in order and each sample goes through the same floating-point operations in
#: the same order whatever the block, so the results do not depend on it bit
#: for bit.  Much shorter steps make the two replicate lanes contend for the GIL.
_BLOCK = 32768


@dataclass(frozen=True)
class SampleProvenance:
    """Where a sample set came from: its ramp's endpoints, ensemble and generator.

    This regenerates a cosine-ramp set bit-for-bit.  A table ramp's samples
    are not recorded, so for kind ``table`` it names the ramp only.
    """

    kind: str
    omega_i: float
    omega_f: float
    tau: float
    with_control: bool
    beta: float
    count: int
    seed: int
    generator: str = GIBBS_GENERATOR

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class WorkSampleSet:
    """Work draws plus the provenance that produced them."""

    samples: np.ndarray
    provenance: SampleProvenance

    def __post_init__(self):
        if not isinstance(self.provenance, SampleProvenance):
            raise TypeError(f"provenance must be a SampleProvenance, got {self.provenance!r}")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-d array")
        _require_finite(samples)
        object.__setattr__(self, "samples", samples)


def _require_finite(works: np.ndarray) -> None:
    if not np.isfinite(works).all():
        raise ValueError("work samples must be finite")


def classical_work_ensembles(
    protocol: FrequencyProtocol,
    spec: EnsembleSpec,
    controls: tuple[bool, ...] = (True, False),
) -> dict[bool, WorkSampleSet]:
    """Sample one Gibbs ensemble and run it through each ramp in ``controls``.

    Returns ``{with_control: WorkSampleSet}``, by default
    ``{True: controlled, False: bare}``.  Every ramp sees the same initial
    states, which is what a controlled-versus-bare comparison needs; each
    set is bit-identical to a separate :func:`classical_work_ensemble` call
    with the same spec.  The draw stays in action-angle form and each
    ramp's work is W = I (a + b cos 2 theta + c sin 2 theta), with (a, b, c)
    from :func:`~staosc.classical_dynamics.work_coefficients`: no
    phase-space array is built and no energy is computed.  Per sample the
    work agrees within 1e-13 omega_i I with the phase-space route of
    :mod:`staosc.classical_dynamics` (``sample_gibbs``, then
    ``propagate_ensemble`` and ``ensemble_work``).

    The draw and the formula run in blocks of ``_BLOCK`` samples, into
    reused buffers, with each sample's operations in the order of the
    one-shot array expression: the blocks change no bit of the result, and
    no full-length array is built beyond the outputs.
    """
    streams = _gibbs_streams(spec.seed)
    scale = 1.0 / (spec.beta * protocol.omega_i)
    coefficients = [work_coefficients(protocol, c) for c in controls]
    works = [np.empty(spec.count) for _ in controls]
    # actions, angles, the kernel's scratch and a spare row: with three rows the
    # default classical-work-dist and jarzynski-trace, run in one process, peak
    # 0.9 MB higher in RSS (heap layout; the traced numpy peak is the same)
    buffers = np.empty((4, min(spec.count, _BLOCK)))
    for start in range(0, spec.count, _BLOCK):
        stop = min(start + _BLOCK, spec.count)
        action, theta = buffers[:2, : stop - start]
        _draw_action_angle(streams, scale, action, theta)
        _work_block(action, theta, coefficients, [w[start:stop] for w in works], buffers[2:])
    sets = {}
    for with_control, samples in zip(controls, works):
        prov = SampleProvenance(
            kind=protocol.kind,
            omega_i=protocol.omega_i,
            omega_f=protocol.omega_f,
            tau=protocol.tau,
            with_control=with_control,
            beta=spec.beta,
            count=spec.count,
            seed=spec.seed,
        )
        sets[with_control] = WorkSampleSet(samples=samples, provenance=prov)
    return sets


def _work_block(action, theta, coefficients, works, scratch) -> None:
    """Write each ramp's W = I (a + b cos 2 theta + c sin 2 theta) of one block into ``works``.

    With t = tan theta the angle factor is one rational function,
    g = ((a - b) t^2 + 2 c t + (a + b)) / (1 + t^2), evaluated by Horner as
    ((a - b) t + 2 c) t + (a + b), then times I / (1 + t^2), which all ramps
    share.  Near the minimum of g, where the work is almost zero,
    a + b cos 2 theta cancels (3e-9 relative error on the default bare
    ramp); this form keeps g to 1e-15 there.  A ramp with b = c = 0 (the
    controlled one) is W = a I, with no angle math, and tan is taken only
    if some ramp needs it.

    ``coefficients`` and ``works`` pair each ramp's (a, b, c) with its
    output array of the block's length; ``scratch`` has a row at least that
    long.  ``theta`` is overwritten.
    """
    t = None
    for (a, b, c), w in zip(coefficients, works):
        if b == 0.0 and c == 0.0:
            np.multiply(a, action, out=w)
            continue
        if t is None:
            t = np.tan(theta, out=theta)
            share = np.multiply(t, t, out=scratch[0, : action.size])
            np.divide(action, np.add(1.0, share, out=share), out=share)
        np.multiply(a - b, t, out=w)
        w += 2.0 * c
        w *= t
        w += a + b
        w *= share


def classical_work_ensemble(
    protocol: FrequencyProtocol, spec: EnsembleSpec, with_control: bool = False
) -> WorkSampleSet:
    """Sample a Gibbs ensemble, run one ramp, and collect endpoint work."""
    sets = classical_work_ensembles(protocol, spec, (with_control,))
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
    squared = centered * centered  # two products per sample, where centered**4 calls pow
    m4 = float(np.mean(squared * squared))
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
        if not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0.0)):
            raise ValueError("histogram bin edges must be finite and strictly increasing")
    else:
        require_int(1, bins=bins)
        edges = bins
    density, edges = np.histogram(w, bins=edges, density=True)
    return BinnedDensity(edges=edges, density=density)


@dataclass(frozen=True)
class JarzynskiTrace:
    """Running exponential-average estimate against its exact target."""

    running: np.ndarray
    final: float
    target: float

    @property
    def final_error(self) -> float:
        return self.final - self.target


def jarzynski(data, beta: float, delta_f: float) -> JarzynskiTrace:
    """Estimate <exp(-beta W)> and compare with exp(-beta Delta F).

    For a sample set the trace is the running mean after each draw
    (``running[k - 1]`` uses exactly the first k samples).  For a discrete
    atom set the expectation is exact and the trace collapses to a single
    point.  An exponential or a mean that overflows a float raises
    ValueError.
    """
    require_positive(beta=beta)
    if not math.isfinite(delta_f):
        raise ValueError(f"delta_f must be finite, got {delta_f!r}")
    try:
        target = math.exp(-beta * delta_f)
    except OverflowError:
        raise ValueError(
            f"exp(-beta delta_f) overflows at beta * delta_f = {beta * delta_f!r}"
        ) from None
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(data, QuantumWorkAtoms):
            works = data.works
            final = float(np.dot(data.probs, np.exp(-beta * works)))
            running = np.array([final])
        else:
            works = data.samples
            running = np.multiply(works, -beta)
            np.exp(running, out=running)
            np.cumsum(running, out=running)
            np.divide(running, np.arange(1, works.size + 1), out=running)
            final = float(running[-1])
    if not math.isfinite(final):
        raise ValueError(
            f"the mean of exp(-beta W) overflows: -beta W reaches {-beta * float(works.min())!r}"
        )
    return JarzynskiTrace(running=running, final=final, target=target)


def delta_f_classical(beta: float, omega_i: float, omega_f: float) -> float:
    """Classical-oscillator free-energy difference (1/beta) log(omega_f/omega_i)."""
    require_positive(beta=beta, omega_i=omega_i, omega_f=omega_f)
    return math.log(omega_f / omega_i) / beta


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
    require_positive(w_max=w_max)
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
    from scipy.interpolate import PchipInterpolator

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
    free-energy estimate is.  It is the one-shot array expression, the
    oracle that :func:`replicate_dispersions` is tested against.
    """
    require_positive(beta=beta)
    require_int(2, batch_count=batch_count)
    w = samples.samples
    per = w.size // batch_count
    if per < 1:
        raise ValueError(
            f"cannot split {w.size} samples into {batch_count} non-empty batches"
        )
    trimmed = w[: per * batch_count].reshape(batch_count, per)
    return float(np.var(np.mean(np.exp(-beta * trimmed), axis=1), ddof=1))


def replicate_dispersions(
    protocol: FrequencyProtocol,
    specs: Sequence[EnsembleSpec],
    batch_count: int,
) -> list[dict[bool, float]]:
    """:func:`estimator_dispersion` of the controlled and the bare ramp for a run of replicates.

    Entry r is ``{c: estimator_dispersion(sets[c], specs[r].beta,
    batch_count)}`` with ``sets = classical_work_ensembles(protocol,
    specs[r])``, bit for bit, and every check of those calls is
    made before the first draw.  Each ramp's (a, b, c) is computed once for
    all replicates.

    Replicates 0, 2, 4, ... run on the calling thread and 1, 3, 5, ... on
    one worker thread; numpy releases the GIL in the draw and the ufuncs,
    so the two lanes overlap.  Each lane walks its replicates in steps of
    whole batches, about ``_BLOCK`` samples: the draw, the work formula,
    exp(-beta W) and each batch's sum, into step-sized buffers of its own
    that are allocated here once, so no full-length array is built.  The
    worker calls only private helpers.
    """
    require_int(2, batch_count=batch_count)
    for spec in specs:
        require_positive(beta=spec.beta)
        if spec.count < batch_count:
            raise ValueError(
                f"cannot split {spec.count} samples into {batch_count} non-empty batches"
            )
    if not specs:
        return []
    coefficients = [work_coefficients(protocol, c) for c in (True, False)]
    step = max(_batch_step(spec.count // batch_count) for spec in specs)
    lanes = [np.empty((5, step)) for _ in specs[:2]]
    args = (protocol.omega_i, batch_count, coefficients)
    results = [None] * len(specs)
    with ThreadPoolExecutor(max_workers=1) as worker:
        # with a single spec the worker gets no replicate and leaves lanes[-1] alone
        odd = worker.submit(_dispersion_lane, specs[1::2], *args, lanes[-1])
        results[0::2] = _dispersion_lane(specs[0::2], *args, lanes[0])
        results[1::2] = odd.result()
    return [{True: sta, False: bare} for sta, bare in results]


def _batch_step(per: int) -> int:
    """Samples per step of the dispersion loops: whole batches, about ``_BLOCK``."""
    return max(1, _BLOCK // per) * per


def _dispersion_lane(
    specs, omega_i, batch_count, coefficients, buffers
) -> list[tuple[float, float]]:
    """Each spec's (controlled, bare) dispersion, drawn and reduced in 5 rows of ``buffers``."""
    results = []
    for spec in specs:
        n, per = spec.count, spec.count // batch_count
        step = _batch_step(per)
        streams = _gibbs_streams(spec.seed)
        scale = 1.0 / (spec.beta * omega_i)
        sums = np.empty((2, batch_count))
        for first in range(0, n, step):
            stop = min(first + step, n)
            action, theta = buffers[:2, : stop - first]
            block_works = buffers[2:4, : stop - first]
            _draw_action_angle(streams, scale, action, theta)
            _work_block(action, theta, coefficients, block_works, buffers[4:])
            _require_finite(block_works)
            # whole batches only: the remainder past batch_count * per is
            # checked above but enters no batch, and may span whole steps
            rows = slice(min(first // per, batch_count), min(stop // per, batch_count))
            for w, row_sums in zip(block_works, sums):
                block = w[: (rows.stop - rows.start) * per].reshape(-1, per)
                # exp(-beta W) in place, and each batch summed as np.mean sums it
                np.exp(np.multiply(-spec.beta, block, out=block), out=block)
                np.add.reduce(block, axis=1, out=row_sums[rows])
        # np.mean's division, then the ddof=1 variance of the batch means
        results.append(tuple(float(np.var(row_sums / per, ddof=1)) for row_sums in sums))
    return results
