"""Batch experiment driver: JSON config in, CSV tables + JSON summary out.

Four canned experiments cover the headline results:

* ``classical-work-dist``  — controlled vs bare work histograms against
  their closed-form densities for a fast classical ramp.
* ``jarzynski-trace``      — running exponential-average estimates
  converging to exp(-beta DeltaF) with and without the shortcut control.
* ``quantum-work-atoms``   — discrete two-point-measurement work
  distributions of the quantum ramp.
* ``engine-curves``        — efficiency at maximum power versus bath
  temperature ratio for shortcut and sudden engines.

``verify`` (an experiment kind and a subcommand) replays the package's
invariant battery at reduced size and reports pass/fail per check.

Every CSV carries a header comment with the experiment seed and a hash of
the resolved configuration, and all numbers are written with 17
significant digits, so a rerun of the same config is byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import classical_analytics as ca
from . import classical_dynamics as cd
from . import otto_engine as oe
from . import quantum_dynamics as qd
from . import work_statistics as ws
from .protocols import cosine_ramp, validate

SCHEMA_VERSION = 1

EXPERIMENTS = (
    "classical-work-dist",
    "jarzynski-trace",
    "quantum-work-atoms",
    "engine-curves",
    "verify",
)

_OUT_DIR_ENV = "STAOSC_OUT_DIR"

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "staosc experiment configuration",
    "type": "object",
    "required": ["schema_version", "experiment"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "experiment": {"enum": list(EXPERIMENTS)},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "physical": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "omega_i": {"type": "number", "exclusiveMinimum": 0},
                "omega_f": {"type": "number", "exclusiveMinimum": 0},
                "tau": {"type": "number", "exclusiveMinimum": 0},
                "tau_omega_i": {"type": "number", "exclusiveMinimum": 0},
                "mass": {"type": "number", "exclusiveMinimum": 0},
                "hbar": {"type": "number", "exclusiveMinimum": 0},
                "beta_1": {"type": "number", "exclusiveMinimum": 0},
                "beta_2": {"type": "number", "exclusiveMinimum": 0},
                "regime": {"enum": ["classical", "quantum"]},
            },
        },
        "numeric": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "samples": {"type": "integer", "minimum": 2},
                "bins": {"type": "integer", "minimum": 1},
                "grid_points": {"type": "integer", "minimum": 2},
                "w_max": {"type": "number", "exclusiveMinimum": 0},
                "basis_size": {"type": "integer", "minimum": 4},
                "n_max": {"type": "integer", "minimum": 1},
                "batch_size": {"type": "integer", "minimum": 2},
                "replicates": {"type": "integer", "minimum": 1},
                "trace_points": {"type": "integer", "minimum": 2},
                "probability_floor": {"type": "number", "exclusiveMinimum": 0},
                "ratios": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 1},
                    "minItems": 1,
                },
            },
        },
    },
}

_DEFAULTS = {
    "classical-work-dist": {
        "physical": {
            "beta": 0.2,
            "omega_i": 10.0,
            "omega_f": 10.0 * math.sqrt(3.0),
            "tau_omega_i": 1e-3,
            "mass": 1.0,
        },
        "numeric": {"samples": 100_000, "grid_points": 512},
    },
    "jarzynski-trace": {
        "physical": {
            "beta": 0.2,
            "omega_i": 10.0,
            "omega_f": 10.0 * math.sqrt(3.0),
            "tau_omega_i": 1e-3,
            "mass": 1.0,
        },
        "numeric": {
            "samples": 1_000_000,
            "batch_size": 10_000,
            "replicates": 20,
            "trace_points": 400,
        },
    },
    "quantum-work-atoms": {
        "physical": {
            "beta": 0.2,
            "omega_i": 10.0,
            "omega_f": 10.0 * math.sqrt(3.0),
            "tau_omega_i": 1e-3,
            "hbar": 1.0,
        },
        "numeric": {
            "basis_size": 512,
            "n_max": 24,
            "probability_floor": 2e-4,
        },
    },
    "engine-curves": {
        "physical": {
            "beta_1": 10.0,
            "omega_i": 10.0,
            "hbar": 1.0 / (2.0 * math.pi),
            "regime": "quantum",
        },
        "numeric": {},
    },
    "verify": {"physical": {}, "numeric": {}},
}


class ConfigError(ValueError):
    """Configuration rejected, with one line per offending field."""


def config_schema() -> dict:
    return json.loads(json.dumps(CONFIG_SCHEMA))


def validate_config(config: dict) -> None:
    errors = sorted(
        Draft202012Validator(CONFIG_SCHEMA).iter_errors(config),
        key=lambda e: e.json_path,
    )
    if errors:
        lines = [f"{e.json_path}: {e.message}" for e in errors]
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(lines))


def resolve_config(config: dict) -> dict:
    """Validate and fill per-experiment defaults (user values win)."""
    validate_config(config)
    experiment = config["experiment"]
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "seed": int(config.get("seed", 12345)),
        "physical": dict(_DEFAULTS[experiment]["physical"]),
        "numeric": dict(_DEFAULTS[experiment]["numeric"]),
    }
    resolved["physical"].update(config.get("physical", {}))
    resolved["numeric"].update(config.get("numeric", {}))
    if "output_dir" in config:
        resolved["output_dir"] = config["output_dir"]
    phys = resolved["physical"]
    if "tau" not in phys and "tau_omega_i" in phys:
        phys["tau"] = phys["tau_omega_i"] / phys["omega_i"]
    return resolved


def config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_csv(path: Path, meta: dict, names, columns) -> None:
    columns = [np.asarray(c) for c in columns]
    with open(path, "w") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(names) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def emit_grid(target, path: Path, meta: dict, grid=None, probability_floor=None) -> None:
    """Write a density (callable on a grid) or an atom set to CSV.

    Callables need an explicit grid and produce (work, density) rows.
    Atom sets produce (work, probability) rows, optionally filtered and
    log10-transformed for semi-log plotting when probability_floor is set.
    """
    if isinstance(target, qd.QuantumWorkAtoms):
        works, probs = target.works, target.probs
        if probability_floor is not None:
            keep = probs >= probability_floor
            _write_csv(
                path,
                meta,
                ["work", "log10_probability"],
                [works[keep], np.log10(probs[keep])],
            )
        else:
            _write_csv(path, meta, ["work", "probability"], [works, probs])
    else:
        if grid is None:
            raise ValueError("densities need an explicit grid")
        grid = np.asarray(grid, dtype=float)
        _write_csv(path, meta, ["work", "density"], [grid, target(grid)])


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _protocol_from(phys: dict):
    return cosine_ramp(phys["omega_i"], phys["omega_f"], phys["tau"])


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _run_classical_work_dist(resolved: dict, out_dir: Path, meta: dict):
    phys, num = resolved["physical"], resolved["numeric"]
    protocol = _protocol_from(phys)
    params = cd.OscillatorParams(m=phys["mass"])
    beta, wi, wf = phys["beta"], phys["omega_i"], phys["omega_f"]
    seed = resolved["seed"]

    spec = cd.EnsembleSpec(beta=beta, count=num["samples"], seed=seed)
    by_control = ws.classical_work_ensembles(protocol, spec, params)
    sets = {"sta": by_control[True], "bare": by_control[False]}

    form = ca.quadratic_form(ca.basic_solutions(protocol), beta, wi, wf)
    densities = {
        "sta": lambda w: ca.pdf_adiabatic(w, beta, wi, wf),
        "bare": lambda w: ca.pdf_nonadiabatic(w, form),
    }
    w_max = num.get("w_max") or 1.02 * max(
        float(np.max(s.samples)) for s in sets.values()
    )
    grid = np.linspace(0.0, w_max, num["grid_points"])[1:]  # densities may diverge at 0

    outputs, checks, derived = [], [], {}
    mean_ad = (wf - wi) / (wi * beta)
    mean_na, std_na = ca.moments_from_form(form)
    derived["analytic"] = {
        "adiabatic_mean": mean_ad,
        "adiabatic_std": mean_ad,
        "nonadiabatic_mean": mean_na,
        "nonadiabatic_std": std_na,
        "mu_plus": form.mu_plus,
        "mu_minus": form.mu_minus,
    }
    for label in ("sta", "bare"):
        hist = ws.histogram(sets[label], num.get("bins"))
        centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
        hist_path = out_dir / f"classical_work_{label}_hist.csv"
        _write_csv(hist_path, meta, ["work", "density"], [centers, hist.density])
        dens_path = out_dir / f"classical_work_{label}_density.csv"
        emit_grid(densities[label], dens_path, meta, grid=grid)
        outputs += [hist_path.name, dens_path.name]

        stats = ws.summary(sets[label])
        ks = ws.ks_distance(sets[label], densities[label], w_max=w_max * 1.2)
        derived[label] = {"mean": stats.mean, "std": stats.std, "ks_distance": ks}
        checks.append(
            _check(
                f"ks_{label}",
                ks < 0.02,
                f"KS distance {ks:.5f} vs closed form at {stats.count} samples",
            )
        )
    return outputs, checks, derived


def _trace_grid(n: int, points: int) -> np.ndarray:
    counts = np.unique(np.geomspace(1, n, points).astype(int))
    return counts


def _run_jarzynski_trace(resolved: dict, out_dir: Path, meta: dict):
    phys, num = resolved["physical"], resolved["numeric"]
    protocol = _protocol_from(phys)
    params = cd.OscillatorParams(m=phys["mass"])
    beta, wi, wf = phys["beta"], phys["omega_i"], phys["omega_f"]
    seed = resolved["seed"]
    delta_f = ws.delta_f_classical(beta, wi, wf)
    target = math.exp(-beta * delta_f)

    outputs, checks, derived = [], [], {"target": target, "delta_f": delta_f}
    finals = {}
    spec = cd.EnsembleSpec(beta=beta, count=num["samples"], seed=seed)
    sets = ws.classical_work_ensembles(protocol, spec, params)
    for label, control in (("sta", True), ("bare", False)):
        samples = sets.pop(control)  # keep no 1e6-sample set alive into the replicates
        trace = ws.jarzynski(samples, beta, delta_f)
        counts = _trace_grid(num["samples"], num["trace_points"])
        path = out_dir / f"jarzynski_{label}.csv"
        _write_csv(
            path, meta, ["count", "estimate"], [counts, trace.running[counts - 1]]
        )
        outputs.append(path.name)
        finals[label] = trace.final
        derived[label] = {"final": trace.final, "error": trace.final - target}
        checks.append(
            _check(
                f"jarzynski_{label}",
                abs(trace.final - target) < 0.01,
                f"final estimate {trace.final:.5f} vs target {target:.5f}",
            )
        )

    # batched dispersion across seed replicates
    batch = num["batch_size"]
    reps = num["replicates"]
    per_rep = max(batch * 100, batch * 2)
    wins = 0
    var_sta, var_bare = [], []
    for r in range(reps):
        rep_seed = seed + 1 + r
        spec = cd.EnsembleSpec(beta=beta, count=per_rep, seed=rep_seed)
        # unbound, so this replicate's samples are freed before the next draw
        v = {
            control: ws.estimator_dispersion(s, beta, per_rep // batch)
            for control, s in ws.classical_work_ensembles(protocol, spec, params).items()
        }
        var_sta.append(v[True])
        var_bare.append(v[False])
        wins += v[True] < v[False]
    derived["dispersion"] = {
        "replicates": reps,
        "batch_size": batch,
        "sta_wins": wins,
        "mean_batch_variance_sta": float(np.mean(var_sta)),
        "mean_batch_variance_bare": float(np.mean(var_bare)),
    }
    checks.append(
        _check(
            "dispersion_ordering",
            wins >= math.ceil(0.95 * reps),
            f"controlled estimator beat bare in {wins}/{reps} replicates",
        )
    )
    return outputs, checks, derived


def _run_quantum_work_atoms(resolved: dict, out_dir: Path, meta: dict):
    phys, num = resolved["physical"], resolved["numeric"]
    protocol = _protocol_from(phys)
    beta, wi, wf, hbar = phys["beta"], phys["omega_i"], phys["omega_f"], phys["hbar"]
    cfg = qd.FockBasisConfig(
        dimension=num["basis_size"], omega_ref=wi, hbar=hbar
    )

    outputs, checks, derived = [], [], {}
    delta_f = qd.delta_f_quantum(beta, wi, wf, hbar)
    derived["delta_f"] = delta_f
    derived["jarzynski_target"] = math.exp(-beta * delta_f)
    atom_sets = {}
    for label, control in (("sta", True), ("bare", False)):
        tm = qd.transition_matrix(protocol, control, cfg, num["n_max"])
        atoms = qd.quantum_work_atoms(tm, beta)
        atom_sets[label] = atoms
        path = out_dir / f"quantum_atoms_{label}.csv"
        emit_grid(atoms, path, meta)
        semilog = out_dir / f"quantum_atoms_{label}_semilog.csv"
        emit_grid(atoms, semilog, meta, probability_floor=num["probability_floor"])
        outputs += [path.name, semilog.name]

        jz = ws.jarzynski(atoms, beta, delta_f)
        derived[label] = {
            "mean": atoms.mean(),
            "std": atoms.std(),
            "negative_work_probability": atoms.negative_probability(),
            "jarzynski": jz.final,
        }
        checks.append(
            _check(
                f"jarzynski_{label}",
                abs(jz.final - jz.target) < 1e-6,
                f"atom estimate {jz.final:.9f} vs target {jz.target:.9f}",
            )
        )
    checks.append(
        _check(
            "sta_no_negative_work",
            atom_sets["sta"].negative_probability() <= 1e-12,
            f"controlled negative-work mass "
            f"{atom_sets['sta'].negative_probability():.3e}",
        )
    )

    # The plotted reference values depend on the Planck-constant convention;
    # record the controlled-ramp std under both common readings so the
    # ambiguity is visible next to the measured numbers.
    sigma_note = {}
    for conv, hb in (("hbar=1", 1.0), ("hbar=1/(2*pi)", 1.0 / (2.0 * math.pi))):
        x = math.exp(-beta * hb * wi)
        sigma_note[conv] = hb * (wf - wi) * math.sqrt(x) / (1.0 - x)
    derived["hbar_convention"] = {
        "used": hbar,
        "analytic_sta_std_by_convention": sigma_note,
        "note": (
            "discreteness-sensitive quantities (std, negative-work mass) "
            "change with the hbar convention; the run used the value above"
        ),
    }
    return outputs, checks, derived


def _run_engine_curves(resolved: dict, out_dir: Path, meta: dict):
    phys, num = resolved["physical"], resolved["numeric"]
    regime = phys.get("regime", "quantum")
    beta_1 = phys["beta_1"]
    hbar = phys.get("hbar", 1.0)
    omega_i = phys["omega_i"]
    ratios = np.asarray(
        num.get("ratios") or np.geomspace(1.5, 100.0, 25).tolist(), dtype=float
    )

    closed_ad = np.array([oe.eta_adiabatic_max_power(r) for r in ratios])
    closed_sud = np.array([oe.eta_sudden_max_power(r) for r in ratios])
    names = ["beta_ratio", "eta_closed_adiabatic", "eta_closed_sudden"]
    cols = [ratios, closed_ad, closed_sud]

    derived = {"regime": regime, "beta_1": beta_1, "hbar": hbar}
    checks = []
    if regime == "quantum":
        table = oe.efficiency_curves(
            "quantum", beta_1, ratios, (oe.STA, oe.SUDDEN), omega_i=omega_i, hbar=hbar
        )
        names += ["eta_sta", "eta_sudden"]
        cols += [table.efficiencies[oe.STA], table.efficiencies[oe.SUDDEN]]
        with np.errstate(invalid="ignore", divide="ignore"):
            gain = table.efficiencies[oe.STA] / table.efficiencies[oe.SUDDEN]
        derived["sta_over_sudden"] = [None if not np.isfinite(g) else g for g in gain]
        finite = gain[np.isfinite(gain)]
        checks.append(
            _check(
                "sta_gain",
                finite.size > 0 and bool(np.all(finite > 1.0)),
                f"min finite eta_sta/eta_sudden = "
                f"{float(np.min(finite)) if finite.size else math.nan:.3f}",
            )
        )
    else:
        carnot = 1.0 - 1.0 / ratios
        checks.append(
            _check(
                "carnot_bound",
                bool(np.all(closed_ad <= carnot + 1e-12)),
                "closed-form efficiencies stay below Carnot",
            )
        )

    path = out_dir / "engine_curves.csv"
    _write_csv(path, meta, names, cols)
    return [path.name], checks, derived


# ---------------------------------------------------------------------------
# Verify battery
# ---------------------------------------------------------------------------

def _verify_checks(seed: int) -> list:
    checks = []
    beta, wi, wf = 0.2, 10.0, 10.0 * math.sqrt(3.0)
    fast = cosine_ramp(wi, wf, 1e-4)
    slow = cosine_ramp(wi, wf, 50.0)
    params = cd.OscillatorParams()

    report = validate(fast)
    checks.append(
        _check("protocol_validation", report.passed, "; ".join(report.errors) or "ok")
    )

    basic = ca.basic_solutions(fast)
    checks.append(
        _check(
            "wronskian",
            abs(basic.wronskian - 1.0) < 1e-9,
            f"|W-1| = {abs(basic.wronskian - 1.0):.2e}",
        )
    )

    rng = np.random.Generator(np.random.Philox(key=seed))
    states = cd.sample_gibbs(cd.EnsembleSpec(beta, 200, seed), wi, params)
    worst = 0.0
    for p, q in states:
        s0 = cd.PhaseState(float(p), float(q))
        s1 = cd.integrate(s0, fast, with_control=True, params=params, tol=1e-12)
        i0 = cd.to_action_angle(s0, wi, params).I
        i1 = cd.to_action_angle(s1, wf, params).I
        if i0 > 0:
            worst = max(worst, abs(i1 - i0) / i0)
    checks.append(
        _check("action_invariance", worst < 1e-7, f"max relative drift {worst:.2e}")
    )

    worst_rt = 0.0
    for _ in range(100):
        s = cd.PhaseState(float(rng.normal()), float(rng.normal()))
        aa = cd.to_action_angle(s, wi, params)
        back = cd.from_action_angle(aa, wi, params)
        worst_rt = max(worst_rt, abs(back.p - s.p), abs(back.q - s.q))
    checks.append(
        _check("action_angle_roundtrip", worst_rt < 1e-12, f"max error {worst_rt:.2e}")
    )

    form = ca.quadratic_form(basic, beta, wi, wf)
    worst_w = 0.0
    for p, q in states[:20]:
        s0 = cd.PhaseState(float(p), float(q))
        s1 = cd.integrate(s0, fast, with_control=False, params=params, tol=1e-12)
        w_traj = cd.trajectory_work(s0, s1, fast, params)
        xp = math.sqrt(beta / 2.0) * s0.p
        xq = math.sqrt(beta * wi**2 / 2.0) * s0.q
        w_form = form.K * xp**2 + form.L * xq**2 + 2.0 * form.M * xp * xq
        scale = max(abs(w_traj), 1e-12)
        worst_w = max(worst_w, abs(w_traj - w_form) / scale)
    checks.append(
        _check(
            "quadratic_form_route",
            worst_w < 1e-6,
            f"max relative mismatch {worst_w:.2e}",
        )
    )

    for name, dens in (
        ("norm_adiabatic", lambda w: ca.pdf_adiabatic(w, beta, wi, wf)),
        ("norm_nonadiabatic", lambda w: ca.pdf_nonadiabatic(w, form)),
        ("norm_sudden", lambda w: ca.pdf_sudden(w, beta, wi, wf)),
    ):
        mass = ws.integrate_density(dens, 60.0 * (wf - wi) / (wi * beta))
        checks.append(_check(name, abs(mass - 1.0) < 1e-6, f"mass = {mass:.9f}"))

    rate_sudden = beta * wi**2 / (wf**2 - wi**2)
    rate_ad = beta * wi / (wf - wi)
    checks.append(
        _check(
            "decay_rate_ordering",
            rate_sudden < 0.5 * rate_ad,
            f"{rate_sudden:.5f} < {0.5 * rate_ad:.5f}",
        )
    )

    delta_f = ws.delta_f_classical(beta, wi, wf)
    spec = cd.EnsembleSpec(beta, 20_000, seed + 7)
    ok_jz, detail = True, []
    for s in ws.classical_work_ensembles(fast, spec, params).values():
        tr = ws.jarzynski(s, beta, delta_f)
        ew = np.exp(-beta * s.samples)
        se = float(np.std(ew, ddof=1) / math.sqrt(ew.size))
        ok_jz &= abs(tr.final - tr.target) < 5.0 * se
        detail.append(f"{tr.final:.4f}±{se:.4f}")
    checks.append(
        _check("jarzynski_classical", ok_jz, f"targets {detail} vs {math.exp(-beta*delta_f):.4f}")
    )

    cfg = qd.FockBasisConfig(dimension=128, omega_ref=wi, hbar=1.0)
    tm = qd.transition_matrix(fast, with_control=True, cfg=cfg, n_max=8)
    ident = float(np.max(np.abs(tm.probs[:, :8] - np.eye(8))))
    checks.append(
        _check("quantum_transitionless", ident < 1e-6, f"max |P - I| = {ident:.2e}")
    )

    dfq = qd.delta_f_quantum(beta, wi, wf, 1.0)
    ok_q, detail_q = True, []
    for control in (True, False):
        tmq = qd.transition_matrix(fast, control, cfg, 16)
        atoms = qd.quantum_work_atoms(tmq, beta)
        jz = ws.jarzynski(atoms, beta, dfq)
        ok_q &= abs(jz.final - jz.target) < 1e-6
        detail_q.append(f"{jz.final:.8f}")
    checks.append(
        _check("jarzynski_quantum", ok_q, f"{detail_q} vs {math.exp(-beta*dfq):.8f}")
    )

    ok_engine = True
    details_e = []
    for ratio in (4.0, 16.0):
        spec_c = oe.OttoCycleSpec(
            beta_1=1.0, beta_2=1.0 / ratio, omega_i=wi, omega_f=None,
            regime="classical",
            stroke_1=oe.StrokeKind.sta(), stroke_3=oe.StrokeKind.sta(),
        )
        eta = oe.optimize_frequency(spec_c).cycle.efficiency
        ok_engine &= abs(eta - oe.eta_adiabatic_max_power(ratio)) < 1e-3
        carnot = 1.0 - 1.0 / ratio
        ok_engine &= eta <= carnot + 1e-12
        details_e.append(f"ratio {ratio}: eta {eta:.5f}")
    checks.append(_check("engine_closed_forms", ok_engine, "; ".join(details_e)))

    checks.append(
        _check(
            "adiabaticity_limits",
            abs(
                qd.adiabaticity_parameter(ca.basic_solutions(slow), wi, wf) - 1.0
            )
            < 1e-3,
            "slow ramp reaches Q* = 1",
        )
    )
    return checks


def _run_verify(resolved: dict, out_dir: Path, meta: dict):
    checks = _verify_checks(resolved["seed"])
    path = out_dir / "verify_report.json"
    with open(path, "w") as fh:
        json.dump(
            {
                "checks": checks,
                "all_checks_passed": all(c["passed"] for c in checks),
            },
            fh,
            indent=2,
        )
    return [path.name], checks, {}


_RUNNERS = {
    "classical-work-dist": _run_classical_work_dist,
    "jarzynski-trace": _run_jarzynski_trace,
    "quantum-work-atoms": _run_quantum_work_atoms,
    "engine-curves": _run_engine_curves,
    "verify": _run_verify,
}


def run_experiment(config: dict, out_dir=None) -> dict:
    """Resolve a config, run its experiment, and write outputs + summary."""
    resolved = resolve_config(config)
    if out_dir is None:
        out_dir = resolved.get("output_dir") or os.environ.get(_OUT_DIR_ENV) or "."
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_hash(resolved)
    meta = {"config_sha256": digest, "seed": resolved["seed"]}

    outputs, checks, derived = _RUNNERS[resolved["experiment"]](resolved, out_dir, meta)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "experiment": resolved["experiment"],
        "config_sha256": digest,
        "seed": resolved["seed"],
        "parameters": {
            "physical": resolved["physical"],
            "numeric": resolved["numeric"],
        },
        "outputs": outputs,
        "derived": derived,
        "checks": checks,
        "all_checks_passed": all(c["passed"] for c in checks),
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, default=float)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="staosc",
        description="shortcut-to-adiabaticity oscillator experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON configuration")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--out-dir", help="override the output directory")

    p_verify = sub.add_parser("verify", help="run the invariant battery")
    p_verify.add_argument("--seed", type=int, default=12345)
    p_verify.add_argument("--out-dir", help="where to write verify_report.json")

    sub.add_parser("schema", help="print the configuration JSON schema")

    args = parser.parse_args(argv)

    if args.command == "schema":
        json.dump(config_schema(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    if args.command == "verify":
        config = {"schema_version": SCHEMA_VERSION, "experiment": "verify",
                  "seed": args.seed}
        summary = run_experiment(config, args.out_dir)
        for check in summary["checks"]:
            state = "PASS" if check["passed"] else "FAIL"
            print(f"{state} {check['name']}: {check['detail']}")
        return 0 if summary["all_checks_passed"] else 1

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        config["seed"] = args.seed
    try:
        summary = run_experiment(config, args.out_dir)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    failed = [c for c in summary["checks"] if not c["passed"]]
    for check in summary["checks"]:
        state = "PASS" if check["passed"] else "FAIL"
        print(f"{state} {check['name']}: {check['detail']}")
    if summary["experiment"] == "verify":
        return 0 if not failed else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
