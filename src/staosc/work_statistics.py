"""Estimators over work samples: summaries, histograms, free energies.

Functions here accept either a :class:`WorkSampleSet` (Monte Carlo draws
from the classical simulator, held with the ramp, ensemble spec and control
flag that redraw them) or :class:`~staosc.quantum_dynamics.QuantumWorkAtoms`
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
from dataclasses import dataclass

import numpy as np

from .classical_dynamics import (
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


@dataclass(frozen=True, eq=False)
class WorkSampleSet:
    """Work draws plus the ramp and the ensemble that drew them.

    ``classical_work_ensembles(protocol, spec, (with_control,))`` redraws
    the samples bit for bit, for every ramp kind.  A set is one draw: ``==``
    is identity, and samples compare by ``np.array_equal``.
    """

    samples: np.ndarray
    protocol: FrequencyProtocol
    spec: EnsembleSpec
    with_control: bool

    def __post_init__(self):
        for name, kind in (("protocol", FrequencyProtocol), ("spec", EnsembleSpec),
                           ("with_control", bool)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise TypeError(f"{name} must be of type {kind.__name__}, got {value!r}")
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

    The draw and the formula run in blocks of ``_BLOCK`` samples
    (:func:`_work_blocks`), with each sample's operations in the order of
    the one-shot array expression: the blocks change no bit of the result,
    and no full-length array is built beyond the outputs.
    """
    coefficients = [work_coefficients(protocol, c) for c in controls]
    works = [np.empty(spec.count) for _ in controls]
    buffers = np.empty((3 + len(controls), min(spec.count, _BLOCK)))
    for start, block in _work_blocks(spec, protocol.omega_i, coefficients, buffers, _BLOCK):
        for w, block_w in zip(works, block):
            w[start : start + block_w.size] = block_w
    return {c: WorkSampleSet(w, protocol, spec, c) for c, w in zip(controls, works)}


def _work_blocks(spec: EnsembleSpec, omega_i: float, coefficients, buffers, step: int):
    """Draw ``spec``'s ensemble ``step`` samples at a time and yield each ramp's work.

    Yields (start, works) per block, ``works`` holding one row per entry of
    ``coefficients`` with the works of samples start, start + 1, ...; it is
    a view into ``buffers`` (rows: action, angle, one per ramp, scratch;
    at least ``step`` long), valid until the next block, and may be
    overwritten.  Each block is checked finite before it is yielded.
    """
    streams = _gibbs_streams(spec.seed)
    scale = 1.0 / (spec.beta * omega_i)
    ramps = len(coefficients)
    for start in range(0, spec.count, step):
        size = min(step, spec.count - start)
        action, theta = buffers[:2, :size]
        works = buffers[2 : 2 + ramps, :size]
        _draw_action_angle(streams, scale, action, theta)
        _work_block(action, theta, coefficients, works, buffers[2 + ramps :])
        _require_finite(works)
        yield start, works


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
    """Area-one histogram of the samples; bins is a count or at least two explicit edges."""
    w = samples.samples
    if bins is None:
        bins = default_bin_count(w.size)
    if np.ndim(bins) == 1:
        edges = np.asarray(bins, dtype=float)
        if edges.size < 2:
            raise ValueError(f"histogram bins need at least two edges, got {edges.size}")
        if not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0.0)):
            raise ValueError("histogram bin edges must be finite and strictly increasing")
    else:
        require_int(1, bins=bins)
        edges = bins
    density, edges = np.histogram(w, bins=edges, density=True)
    return BinnedDensity(edges=edges, density=density)


@dataclass(frozen=True)
class JarzynskiTrace:
    """Running exponential-average estimate against its exact target.

    ``running`` holds the estimate after each draw (:func:`jarzynski`) or
    after each of chosen counts of draws (:func:`jarzynski_at_counts`).
    """

    running: np.ndarray
    final: float
    target: float

    @property
    def final_error(self) -> float:
        return self.final - self.target


def _mean_exp_on_log_scale(probs: np.ndarray, exponents: np.ndarray) -> float:
    """sum(probs * exp(exponents)) by log-sum-exp; inf where the sum itself overflows."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logs = np.log(probs) + exponents
        top = np.max(logs)
        return float(np.exp(top + np.log(np.sum(np.exp(logs - top)))))


def _jarzynski_target(beta: float, delta_f: float) -> float:
    """exp(-beta Delta F), with beta and Delta F checked."""
    require_positive(beta=beta)
    if not math.isfinite(delta_f):
        raise ValueError(f"delta_f must be finite, got {delta_f!r}")
    try:
        return math.exp(-beta * delta_f)
    except OverflowError:
        raise ValueError(
            f"exp(-beta delta_f) overflows at beta * delta_f = {beta * delta_f!r}"
        ) from None


def _overflow_error(beta: float, lowest_work: float) -> ValueError:
    return ValueError(
        f"the mean of exp(-beta W) overflows: -beta W reaches {-beta * lowest_work!r}"
    )


def jarzynski(data, beta: float, delta_f: float) -> JarzynskiTrace:
    """Estimate <exp(-beta W)> and compare with exp(-beta Delta F).

    For a sample set the trace is the running mean after each draw
    (``running[k - 1]`` uses exactly the first k samples).  For a discrete
    atom set the expectation is exact and the trace collapses to a single
    point; where a single term overflows, the atoms are summed on a log
    scale, so an atom of tiny probability far out in the tail still counts.
    A mean that overflows a float raises ValueError, and so does a sample
    whose exponential overflows.
    """
    target = _jarzynski_target(beta, delta_f)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(data, QuantumWorkAtoms):
            works = data.works
            final = float(np.dot(data.probs, np.exp(-beta * works)))
            if not math.isfinite(final):
                final = _mean_exp_on_log_scale(data.probs, -beta * works)
            running = np.array([final])
        else:
            works = data.samples
            running = np.multiply(works, -beta)
            np.exp(running, out=running)
            np.cumsum(running, out=running)
            np.divide(running, np.arange(1, works.size + 1), out=running)
            final = float(running[-1])
    if not math.isfinite(final):
        raise _overflow_error(beta, float(works.min()))
    return JarzynskiTrace(running=running, final=final, target=target)


def jarzynski_at_counts(
    protocol: FrequencyProtocol, spec: EnsembleSpec, delta_f: float, counts
) -> dict[bool, JarzynskiTrace]:
    """The controlled and the bare :func:`jarzynski` trace of one Gibbs draw, kept at ``counts``.

    ``counts`` are sample counts in [1, spec.count].  Entry c is
    ``jarzynski(sets[c], spec.beta, delta_f)`` with ``sets =
    classical_work_ensembles(protocol, spec)``, bit for bit, except that
    ``running[i]`` is only that trace's ``running[counts[i] - 1]``.  The
    same inputs raise the same errors: a non-finite work, then an
    overflowing mean, the controlled ramp's first.

    The draw, the work formula, exp(-beta W) and the running sum go
    block by block (:func:`_work_blocks`), the sum carried from one block
    into the next in the order of the one-shot ``cumsum``; no array as
    long as the sample count is built.
    """
    target = _jarzynski_target(spec.beta, delta_f)
    counts = np.asarray(counts)
    if not (
        counts.ndim == 1 and counts.size and np.issubdtype(counts.dtype, np.integer)
        and counts.min() >= 1 and counts.max() <= spec.count
    ):
        raise ValueError(
            f"counts must be a non-empty 1-d integer array in [1, {spec.count}], got {counts!r}"
        )
    controls = (True, False)
    coefficients = [work_coefficients(protocol, c) for c in controls]
    running = np.empty((2, counts.size))
    sums = np.zeros(2)
    lowest = np.full(2, math.inf)
    buffers = np.empty((3 + len(controls), min(spec.count, _BLOCK)))
    blocks = _work_blocks(spec, protocol.omega_i, coefficients, buffers, _BLOCK)
    with np.errstate(over="ignore"):
        for start, works in blocks:
            np.minimum(lowest, works.min(axis=1), out=lowest)
            np.exp(np.multiply(works, -spec.beta, out=works), out=works)
            works[:, 0] += sums
            np.cumsum(works, axis=1, out=works)
            sums = works[:, -1].copy()
            here = (counts > start) & (counts <= start + works.shape[1])
            running[:, here] = works[:, counts[here] - 1 - start] / counts[here]
    traces = {}
    for c, row, total, low in zip(controls, running, sums.tolist(), lowest.tolist()):
        final = total / spec.count
        if not math.isfinite(final):
            raise _overflow_error(spec.beta, low)
        traces[c] = JarzynskiTrace(running=row, final=final, target=target)
    return traces


def delta_f_classical(beta: float, omega_i: float, omega_f: float) -> float:
    """Classical-oscillator free-energy difference (1/beta) log(omega_f/omega_i)."""
    require_positive(beta=beta, omega_i=omega_i, omega_f=omega_f)
    return math.log(omega_f / omega_i) / beta


#: 16-point Gauss-Legendre nodes and weights on [-1, 1]; one rule
#: integrates every panel of the CDF.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

#: The (17, 16) map from a panel's 16 node values of dF/du to the Chebyshev
#: series in z of the integral from -1 to z of their degree-15 interpolant.
#: It is exact to rounding; in monomials its entries would reach 1.4e3 and
#: its integral of x**d would be off by up to 2e-13.
_INTEGRAL_MAP = np.polynomial.chebyshev.chebint(
    np.linalg.inv(np.polynomial.chebyshev.chebvander(_GL_X, 15)), lbnd=-1.0
)

#: Samples per step of :func:`_cdf_at`, whose (17, step) gathered series
#: take about 0.5 MB; no bit depends on the step.
_CDF_STEP = 4096

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


def _panel_rule(density, w_max: float):
    """The Gauss-Legendre panels of the CDF on [0, w_max], in u = sqrt(W).

    Integration runs in u, which turns the inverse-square-root endpoint
    divergence of the sudden law into a bounded integrand dF/du =
    2 u p(u^2); smooth densities are unaffected.  The 512 panels of a
    uniform u grid of 513 nodes, the first graded geometrically toward
    u = 0, each get a 16-point rule; the density is called once on all
    quadrature nodes.  Returns (lo, center, half, slopes): each panel's
    lower end, center and half-width, and the (panels, 16) array of dF/du
    at the nodes.
    """
    require_positive(w_max=w_max)
    u_grid = np.linspace(0.0, math.sqrt(w_max), 513)
    first = u_grid[1] * np.exp2(-np.arange(_FIRST_PANEL_HALVINGS, -1, -1.0))
    lo = np.concatenate(([0.0], first[:-1], u_grid[1:-1]))
    hi = np.concatenate((first, u_grid[2:]))
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    u = center[:, None] + half[:, None] * _GL_X
    return lo, center, half, 2.0 * u * _density_values(density, u * u)


def _cdf_at(density, w_max: float, w: np.ndarray) -> np.ndarray:
    """Cumulative distribution of a density at sorted works ``w`` in [0, w_max].

    In the panel of :func:`_panel_rule` that holds u = sqrt(W), at
    z = (u - center)/half, the CDF is the panels before plus the integral
    from -1 to z of the panel's interpolant of dF/du: a Chebyshev series
    (``_INTEGRAL_MAP``) whose constant term carries the panels before, read
    by Clenshaw's recurrence.  The interpolant stays finite at u = 0, where
    the sudden law's 2 u p(u^2) is 0 * inf.
    """
    lo, center, half, slopes = _panel_rule(density, w_max)
    series = half[:, None] * (slopes @ _INTEGRAL_MAP.T)
    series[1:, 0] += np.cumsum(half[:-1] * (slopes[:-1] @ _GL_W))
    series = np.ascontiguousarray(series.T)
    # the samples are sorted: panel k holds u[starts[k]:starts[k + 1]]
    u = np.sqrt(w)
    starts = np.append(np.searchsorted(u, lo), u.size)
    for first in range(0, u.size, _CDF_STEP):
        f = u[first : first + _CDF_STEP]  # each sample's u, then its CDF
        counts = np.diff(np.clip(starts, first, first + f.size))
        z = (f - np.repeat(center, counts)) / np.repeat(half, counts)
        b = np.repeat(series, counts, axis=1)
        # b[j] = c_j + 2 z b[j + 1] - b[j + 2], from j = 15 down to 1
        z2, term = np.multiply(2.0, z, out=f), np.empty_like(z)
        for j in range(15, 0, -1):
            np.multiply(z2, b[j + 1], out=term)
            if j < 15:
                term -= b[j + 2]
            b[j] += term
        np.multiply(z, b[1], out=f)
        f -= b[2]
        f += b[0]
    return u


def integrate_density(density, w_max: float) -> float:
    """Total mass of a work density on [0, w_max] (normalization check).

    The exactly rounded, unclipped sum of the panel integrals: a density of
    mass 2 reads 2.  The density must be vectorized: it is called once on
    a numpy array of works and must return an array of the same shape.
    """
    _, _, half, slopes = _panel_rule(density, w_max)
    return math.fsum(half * (slopes @ _GL_W))


def ks_distance(samples: WorkSampleSet, density, w_max: float | None = None) -> float:
    """Kolmogorov-Smirnov distance between samples and an analytic density.

    The analytic CDF at each sample is :func:`_cdf_at`'s: fixed-node
    16-point Gauss-Legendre panels in sqrt-work coordinates (so densities
    divergent at W = 0 integrate cleanly), the first graded toward W = 0,
    each read through its own interpolant, within 1e-13 of adaptive
    quadrature.  Samples are clipped to [0, w_max], outside which no panel
    is read.  The density is assumed to be supported on W >= 0, and must
    be vectorized: it is called once on a numpy array of works and must
    return an array of the same shape.
    """
    w = np.sort(samples.samples)
    if w_max is None:
        w_max = max(float(w[-1]) * 1.05, 1e-12)
    f = _cdf_at(density, w_max, np.clip(w, 0.0, w_max))
    f = np.where(w <= 0.0, 0.0, f)
    f = np.where(w >= w_max, 1.0, f)
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
        per = spec.count // batch_count
        step = _batch_step(per)
        sums = np.empty((2, batch_count))
        for first, block_works in _work_blocks(spec, omega_i, coefficients, buffers, step):
            # whole batches only: the remainder past batch_count * per is
            # checked but enters no batch, and may span whole steps
            stop = first + block_works.shape[1]
            rows = slice(min(first // per, batch_count), min(stop // per, batch_count))
            for w, row_sums in zip(block_works, sums):
                block = w[: (rows.stop - rows.start) * per].reshape(-1, per)
                # exp(-beta W) in place, and each batch summed as np.mean sums it
                np.exp(np.multiply(-spec.beta, block, out=block), out=block)
                np.add.reduce(block, axis=1, out=row_sums[rows])
        # np.mean's division, then the ddof=1 variance of the batch means
        results.append(tuple(float(np.var(row_sums / per, ddof=1)) for row_sums in sums))
    return results
