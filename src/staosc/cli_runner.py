"""Batch experiment driver: JSON config in, CSV tables + JSON summary out.

Four canned experiments cover the headline results:

* ``classical-work-dist``  — controlled vs bare work histograms against
  their closed-form densities for a fast classical ramp.
* ``jarzynski-trace``      — running exponential-average estimates
  converging to exp(-beta DeltaF) with and without the shortcut control.
* ``quantum-work-atoms``   — discrete two-point-measurement work
  distributions of the quantum ramp.
* ``engine-curves``        — efficiency at maximum power versus bath
  temperature ratio for shortcut and sudden engines: the classical closed
  forms beside the quantum optimizer's values.

``verify`` (an experiment kind and a subcommand) runs the invariant battery
of :mod:`staosc.invariants` at reduced size; its summary holds the checks.
Every check is one record (name, value, threshold, passed, detail), and
the command line prints each with its margin to the threshold.

One table, ``_EXPERIMENTS``, declares each experiment: its runner and the
config keys it reads, with their defaults.  The JSON schema is built from
it, and a key an experiment does not read is rejected.  Each run input has
one way in: a ramp's duration is ``tau_omega_i`` (the resolved ``tau`` is
derived from it), and the output directory is ``--out-dir`` or the
``out_dir`` argument of :func:`run_experiment`, never a config key.

Every CSV carries a header comment with the experiment seed and a hash of
the resolved configuration, and all numbers are written with 17
significant digits, so a rerun of the same config is byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator, validators

from . import classical_analytics as ca
from . import classical_dynamics as cd
from . import otto_engine as oe
from . import quantum_dynamics as qd
from . import work_statistics as ws
from .invariants import Check, verify_battery
from .protocols import cosine_ramp

SCHEMA_VERSION = 1


def _write_csv(path: Path, meta: dict, names, columns) -> None:
    # Python floats and ints format through "%.17g" exactly as numpy scalars
    # do through f"{v:.17g}", so one row template keeps every byte; the
    # template repeated once per row formats the whole table in one call.
    columns = [np.asarray(c).tolist() for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns must have equal lengths, got {lengths}")
    if len(names) != len(columns):
        raise ValueError(f"CSV has {len(names)} names for {len(columns)} columns")
    rows = lengths[0] if columns else 0
    cells = [None] * (rows * len(columns))
    for j, column in enumerate(columns):
        cells[j :: len(columns)] = column
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(names) + "\n")
        fh.write(template * rows % tuple(cells))


def _protocol_from(phys: dict):
    return cosine_ramp(phys["omega_i"], phys["omega_f"], phys["tau"])


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _run_classical_work_dist(resolved: dict, out_dir: Path, meta: dict):
    phys, num = resolved["physical"], resolved["numeric"]
    protocol = _protocol_from(phys)
    beta, seed = phys["beta"], resolved["seed"]

    spec = cd.EnsembleSpec(beta=beta, count=num["samples"], seed=seed)
    by_control = ws.classical_work_ensembles(protocol, spec)
    sets = {"sta": by_control[True], "bare": by_control[False]}
    forms = {label: ca.quadratic_form(protocol, beta, label == "sta") for label in sets}

    outputs, checks, derived = [], [], {"generator": cd.GIBBS_GENERATOR}
    mean_ad, std_ad = ca.moments_from_form(forms["sta"])
    mean_na, std_na = ca.moments_from_form(forms["bare"])
    derived["analytic"] = {
        "adiabatic_mean": mean_ad,
        "adiabatic_std": std_ad,
        "nonadiabatic_mean": mean_na,
        "nonadiabatic_std": std_na,
        "mu_plus": forms["bare"].mu_plus,
        "mu_minus": forms["bare"].mu_minus,
    }
    for label in ("sta", "bare"):
        # each set's grid ends past its own samples, so no output of one
        # ramp depends on the other's draws
        w_max = num.get("w_max") or 1.02 * float(np.max(sets[label].samples))
        grid = np.linspace(0.0, w_max, num["grid_points"])[1:]  # densities may diverge at 0
        hist = ws.histogram(sets[label], num.get("bins"))
        centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
        hist_path = out_dir / f"classical_work_{label}_hist.csv"
        _write_csv(hist_path, meta, ["work", "density"], [centers, hist.density])
        dens_path = out_dir / f"classical_work_{label}_density.csv"
        density = partial(ca.pdf_nonadiabatic, form=forms[label])
        _write_csv(dens_path, meta, ["work", "density"], [grid, density(grid)])
        outputs += [hist_path.name, dens_path.name]

        stats = ws.summary(sets[label])
        ks = ws.ks_distance(sets[label], density, w_max=w_max * 1.2)
        derived[label] = {"mean": stats.mean, "std": stats.std, "ks_distance": ks}
        checks.append(
            Check.below(
                f"ks_{label}", ks, 0.02,
                f"KS distance {ks:.5f} vs closed form at {stats.count} samples",
            )
        )
    return outputs, checks, derived


def _run_jarzynski_trace(resolved: dict, out_dir: Path, meta: dict):
    phys, num = resolved["physical"], resolved["numeric"]
    protocol = _protocol_from(phys)
    beta, wi, wf = phys["beta"], phys["omega_i"], phys["omega_f"]
    seed = resolved["seed"]
    delta_f = ws.delta_f_classical(beta, wi, wf)
    target = math.exp(-beta * delta_f)

    outputs, checks = [], []
    derived = {"target": target, "delta_f": delta_f, "generator": cd.GIBBS_GENERATOR}
    spec = cd.EnsembleSpec(beta=beta, count=num["samples"], seed=seed)
    sets = ws.classical_work_ensembles(protocol, spec)
    counts = np.unique(np.geomspace(1, num["samples"], num["trace_points"]).astype(int))
    for label, control in (("sta", True), ("bare", False)):
        samples = sets.pop(control)  # keep no 1e6-sample set alive into the replicates
        trace = ws.jarzynski(samples, beta, delta_f)
        path = out_dir / f"jarzynski_{label}.csv"
        _write_csv(
            path, meta, ["count", "estimate"], [counts, trace.running[counts - 1]]
        )
        outputs.append(path.name)
        derived[label] = {"final": trace.final, "error": trace.final - target}
        checks.append(
            Check.below(
                f"jarzynski_{label}", abs(trace.final - target), 0.01,
                f"final estimate {trace.final:.5f} vs target {target:.5f}",
            )
        )
        del samples, trace  # free 3 x 8n bytes before the next trace or draw

    # batched dispersion across seed replicates
    batch = num["batch_size"]
    reps = num["replicates"]
    per_rep = 100 * batch
    specs = [cd.EnsembleSpec(beta=beta, count=per_rep, seed=seed + 1 + r) for r in range(reps)]
    dispersions = ws.replicate_dispersions(protocol, specs, per_rep // batch)
    var_sta = [v[True] for v in dispersions]
    var_bare = [v[False] for v in dispersions]
    wins = sum(v[True] < v[False] for v in dispersions)
    derived["dispersion"] = {
        "replicates": reps,
        "batch_size": batch,
        "sta_wins": wins,
        "mean_batch_variance_sta": float(np.mean(var_sta)),
        "mean_batch_variance_bare": float(np.mean(var_bare)),
    }
    needed = math.ceil(0.95 * reps)
    checks.append(
        Check(
            "dispersion_ordering", wins, needed, wins >= needed,
            f"controlled estimator beat bare in {wins}/{reps} replicates",
        )
    )
    return outputs, checks, derived


def _run_quantum_work_atoms(resolved: dict, out_dir: Path, meta: dict):
    phys, num = resolved["physical"], resolved["numeric"]
    protocol = _protocol_from(phys)
    beta, wi, wf, hbar = phys["beta"], phys["omega_i"], phys["omega_f"], phys["hbar"]

    outputs, checks, derived = [], [], {}
    delta_f = qd.delta_f_quantum(beta, wi, wf, hbar)
    derived["delta_f"] = delta_f
    derived["jarzynski_target"] = math.exp(-beta * delta_f)
    atom_sets = {}
    for label, control in (("sta", True), ("bare", False)):
        tm = qd.transition_matrix(protocol, control, num["n_max"], num["basis_size"])
        atoms = qd.quantum_work_atoms(tm, beta, hbar)
        atom_sets[label] = atoms
        path = out_dir / f"quantum_atoms_{label}.csv"
        _write_csv(path, meta, ["work", "probability"], [atoms.works, atoms.probs])
        semilog = out_dir / f"quantum_atoms_{label}_semilog.csv"
        keep = atoms.probs >= num["probability_floor"]
        _write_csv(
            semilog, meta, ["work", "log10_probability"],
            [atoms.works[keep], np.log10(atoms.probs[keep])],
        )
        outputs += [path.name, semilog.name]

        jz = ws.jarzynski(atoms, beta, delta_f)
        derived[label] = {
            "mean": atoms.mean(),
            "std": atoms.std(),
            "negative_work_probability": atoms.negative_probability(),
            "jarzynski": jz.final,
        }
        checks.append(
            Check.below(
                f"jarzynski_{label}", abs(jz.final - jz.target), 1e-6,
                f"atom estimate {jz.final:.9f} vs target {jz.target:.9f}",
            )
        )
    negative = atom_sets["sta"].negative_probability()
    checks.append(
        Check(
            "sta_no_negative_work", negative, 1e-12, negative <= 1e-12,
            f"controlled negative-work mass {negative:.3e}",
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
    beta_1, omega_i, hbar = phys["beta_1"], phys["omega_i"], phys["hbar"]
    ratios = np.asarray(
        num.get("ratios") or np.geomspace(1.5, 100.0, 25).tolist(), dtype=float
    )

    def eta(kind: str, r: float) -> float:  # quantum, at maximum power
        spec = oe.OttoCycleSpec(beta_1, beta_1 / r, omega_i, None, oe.QUANTUM,
                                oe.StrokeKind(kind), oe.StrokeKind(kind), hbar)
        return oe.optimize_frequency(spec).cycle.efficiency

    eta_sta, eta_sudden = (np.array([eta(k, r) for r in ratios]) for k in (oe.STA, oe.SUDDEN))
    with np.errstate(invalid="ignore", divide="ignore"):
        gain = eta_sta / eta_sudden
    finite = gain[np.isfinite(gain)]
    min_gain = float(np.min(finite)) if finite.size else math.nan
    check = Check(
        "sta_gain", min_gain, 1.0, finite.size > 0 and min_gain > 1.0,
        f"min finite eta_sta/eta_sudden = {min_gain:.3f}",
    )
    derived = {
        "beta_1": beta_1,
        "hbar": hbar,
        "sta_over_sudden": [None if not np.isfinite(g) else g for g in gain],
    }

    path = out_dir / "engine_curves.csv"
    _write_csv(
        path, meta,
        ["beta_ratio", "eta_closed_adiabatic", "eta_closed_sudden", "eta_sta", "eta_sudden"],
        [
            ratios,
            [oe.eta_adiabatic_max_power(r) for r in ratios],
            [oe.eta_sudden_max_power(r) for r in ratios],
            eta_sta,
            eta_sudden,
        ],
    )
    return [path.name], [check], derived


def _run_verify(resolved: dict, out_dir: Path, meta: dict):
    return [], verify_battery(resolved["seed"]), {}


# ---------------------------------------------------------------------------
# The experiment table and the configuration it accepts
# ---------------------------------------------------------------------------

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

#: JSON type of every config key, whichever experiments read it.
_KEY_TYPES = {
    "physical": {
        "beta": _POSITIVE,
        "omega_i": _POSITIVE,
        "omega_f": _POSITIVE,
        "tau_omega_i": _POSITIVE,
        "hbar": _POSITIVE,
        "beta_1": _POSITIVE,
    },
    "numeric": {
        "samples": {"type": "integer", "minimum": 2},
        "bins": {"type": "integer", "minimum": 1},
        "grid_points": {"type": "integer", "minimum": 2},
        "w_max": _POSITIVE,
        "basis_size": {"type": "integer", "minimum": 4},
        "n_max": {"type": "integer", "minimum": 1},
        "batch_size": {"type": "integer", "minimum": 2},
        "replicates": {"type": "integer", "minimum": 1},
        "trace_points": {"type": "integer", "minimum": 2},
        "probability_floor": _POSITIVE,
        "ratios": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 1},
            "minItems": 1,
        },
    },
}

#: The cosine ramp of the three work experiments, with its defaults.
_RAMP = {
    "beta": 0.2,
    "omega_i": 10.0,
    "omega_f": 10.0 * math.sqrt(3.0),
    "tau_omega_i": 1e-3,
}

#: Per experiment: its runner and, per config section, the keys it reads
#: with their defaults (None: accepted but left unset).  Any other key is
#: rejected, so every accepted key changes the run it is hashed into.
_EXPERIMENTS = {
    "classical-work-dist": {
        "run": _run_classical_work_dist,
        "physical": _RAMP,
        "numeric": {"samples": 100_000, "grid_points": 512, "w_max": None, "bins": None},
    },
    "jarzynski-trace": {
        "run": _run_jarzynski_trace,
        "physical": _RAMP,
        "numeric": {
            "samples": 1_000_000,
            "batch_size": 10_000,
            "replicates": 20,
            "trace_points": 400,
        },
    },
    "quantum-work-atoms": {
        "run": _run_quantum_work_atoms,
        "physical": {**_RAMP, "hbar": 1.0},
        "numeric": {"basis_size": 512, "n_max": 24, "probability_floor": 2e-4},
    },
    "engine-curves": {
        "run": _run_engine_curves,
        "physical": {
            "beta_1": 10.0,
            "omega_i": 10.0,
            "hbar": 1.0 / (2.0 * math.pi),
        },
        "numeric": {"ratios": None},
    },
    "verify": {"run": _run_verify, "physical": {}, "numeric": {}},
}

EXPERIMENTS = tuple(_EXPERIMENTS)
_SECTIONS = ("physical", "numeric")


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
        **{section: {"type": "object"} for section in _SECTIONS},
    },
    "allOf": [
        {
            "if": {"required": ["experiment"], "properties": {"experiment": {"const": name}}},
            "then": {
                "properties": {
                    section: {
                        "additionalProperties": False,
                        "properties": {key: _KEY_TYPES[section][key] for key in entry[section]},
                    }
                    for section in _SECTIONS
                },
            },
        }
        for name, entry in _EXPERIMENTS.items()
    ],
}
# json.load parses NaN and Infinity, so a config "number" must also be finite.
_TYPES = Draft202012Validator.TYPE_CHECKER
_FINITE = _TYPES.redefine(
    "number", lambda _, v: _TYPES.is_type(v, "number") and -math.inf < v < math.inf
)
_VALIDATOR = validators.extend(Draft202012Validator, type_checker=_FINITE)(CONFIG_SCHEMA)


class ConfigError(ValueError):
    """Configuration rejected, with one line per offending field."""


def config_schema() -> dict:
    return json.loads(json.dumps(CONFIG_SCHEMA))


def validate_config(config: dict) -> None:
    errors = sorted(_VALIDATOR.iter_errors(config), key=lambda e: e.json_path)
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
    }
    for section in _SECTIONS:
        defaults = _EXPERIMENTS[experiment][section]
        values = {k: v for k, v in defaults.items() if v is not None}
        values.update(config.get(section, {}))
        # the schema's "integer" admits 1000.0; the runs and the hash get 1000
        resolved[section] = {
            k: int(v) if _KEY_TYPES[section][k].get("type") == "integer" else v
            for k, v in values.items()
        }
    phys = resolved["physical"]
    if "tau_omega_i" in phys:
        phys["tau"] = phys["tau_omega_i"] / phys["omega_i"]
    return resolved


def config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_experiment(config: dict, out_dir=None) -> dict:
    """Resolve a config, run its experiment, and write outputs + summary.

    Files go to ``out_dir``, the current directory when it is None.
    """
    resolved = resolve_config(config)
    out_dir = Path(out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_hash(resolved)
    meta = {"config_sha256": digest, "seed": resolved["seed"]}

    outputs, checks, derived = _EXPERIMENTS[resolved["experiment"]]["run"](resolved, out_dir, meta)

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
        "checks": [asdict(c) for c in checks],
        "all_checks_passed": all(c.passed for c in checks),
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(_finite_or_null(summary), fh, indent=2, default=float, allow_nan=False)
    return summary


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="staosc",
        description="shortcut-to-adiabaticity oscillator experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON configuration")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--out-dir", help="output directory (default: the current one)")

    p_verify = sub.add_parser("verify", help="run the invariant battery")
    p_verify.add_argument("--seed", type=int, default=12345)
    p_verify.add_argument("--out-dir", help="where to write summary.json")

    sub.add_parser("schema", help="print the configuration JSON schema")

    args = parser.parse_args(argv)

    if args.command == "schema":
        json.dump(config_schema(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    if args.command == "verify":
        config = {"schema_version": SCHEMA_VERSION, "experiment": "verify",
                  "seed": args.seed}
    else:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 1
        if args.seed is not None and isinstance(config, dict):
            config["seed"] = args.seed  # a non-object config is rejected by the schema
    try:
        summary = run_experiment(config, args.out_dir)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    for check in summary["checks"]:
        state = "PASS" if check["passed"] else "FAIL"
        margin = abs(check["threshold"] - check["value"])
        print(
            f"{state} {check['name']}: {check['value']:.3e} vs threshold "
            f"{check['threshold']:.3e}, margin {margin:.2e} ({check['detail']})"
        )
    if summary["experiment"] == "verify":
        return 0 if summary["all_checks_passed"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
