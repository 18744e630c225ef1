import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import staosc.classical_dynamics as classical_dynamics
import staosc.cli_runner as cli_runner
import staosc.invariants as invariants
import staosc.otto_engine as otto_engine
import staosc.work_statistics as work_statistics
from staosc.cli_runner import (
    EXPERIMENTS,
    SCHEMA_VERSION,
    ConfigError,
    config_hash,
    config_schema,
    main,
    resolve_config,
    run_experiment,
    validate_config,
)
from staosc.errors import IntegrationError
from staosc.invariants import Check
from staosc.protocols import cosine_ramp


def _config(experiment, **overrides):
    cfg = {"schema_version": SCHEMA_VERSION, "experiment": experiment}
    cfg.update(overrides)
    return cfg


def _count_gibbs_draws(monkeypatch) -> list:
    """Record the seed of every Gibbs draw the sample-set estimators make.

    Every draw opens the streams of its seed once through the private
    ``_gibbs_streams``: in ``gibbs_action_angle`` in ``classical_dynamics``,
    and in ``classical_work_ensembles`` and the replicate lanes of
    ``replicate_dispersions`` in ``work_statistics``.
    """
    seeds = []
    streams = classical_dynamics._gibbs_streams

    def counted(seed):
        seeds.append(seed)
        return streams(seed)

    for module in (classical_dynamics, work_statistics):
        monkeypatch.setattr(module, "_gibbs_streams", counted)
    return seeds


# ---------------------------------------------------------------------------
# config validation and resolution
# ---------------------------------------------------------------------------

def test_validate_config_accepts_minimal():
    validate_config(_config("classical-work-dist"))


def test_validate_config_rejects_unknown_fields():
    with pytest.raises(ConfigError) as err:
        validate_config(_config("classical-work-dist", typo_field=1))
    assert "typo_field" in str(err.value)
    # keys that were accepted but never read are rejected by name
    with pytest.raises(ConfigError) as err:
        validate_config(_config("classical-work-dist", threads=2))
    assert "'threads' was unexpected" in str(err.value)
    with pytest.raises(ConfigError) as err:
        validate_config(_config("engine-curves", physical={"beta_2": 1.0}))
    assert "$.physical" in str(err.value)
    assert "'beta_2' was unexpected" in str(err.value)
    with pytest.raises(ConfigError) as err:
        validate_config(_config("classical-work-dist", numeric={"tolerance": 1e-6}))
    assert "$.numeric" in str(err.value)
    assert "'tolerance' was unexpected" in str(err.value)
    # the output directory is --out-dir or out_dir=, so it is not hashed
    with pytest.raises(ConfigError) as err:
        validate_config(_config("verify", output_dir="runs"))
    assert "$: Additional properties are not allowed ('output_dir' was unexpected)" in str(
        err.value
    )


def test_validate_config_reports_json_paths():
    bad = _config("classical-work-dist", physical={"beta": -2.0}, seed="abc")
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    msg = str(err.value)
    assert "$.physical.beta" in msg
    assert "$.seed" in msg


def test_validate_config_rejects_wrong_schema_version():
    with pytest.raises(ConfigError):
        validate_config({"schema_version": 99, "experiment": "verify"})
    with pytest.raises(ConfigError):
        validate_config({"experiment": "verify"})  # missing version


def test_validate_config_rejects_unknown_experiment():
    with pytest.raises(ConfigError):
        validate_config(_config("time-travel"))


def test_resolve_config_fills_defaults():
    resolved = resolve_config(_config("classical-work-dist"))
    phys, num = resolved["physical"], resolved["numeric"]
    assert phys["beta"] == 0.2
    assert phys["omega_i"] == 10.0
    assert phys["omega_f"] == pytest.approx(10.0 * math.sqrt(3.0))
    assert num["samples"] == 100_000
    assert resolved["seed"] == 12345
    # ramp duration derived from the dimensionless product
    assert phys["tau"] == pytest.approx(phys["tau_omega_i"] / phys["omega_i"])


def test_resolve_config_user_values_win():
    resolved = resolve_config(
        _config(
            "classical-work-dist",
            seed=777,
            physical={"beta": 0.5, "tau_omega_i": 2.5},
            numeric={"samples": 64},
        )
    )
    assert resolved["seed"] == 777
    assert resolved["physical"]["beta"] == 0.5
    assert resolved["physical"]["tau"] == 0.25  # derived from the user's tau_omega_i
    assert resolved["numeric"]["samples"] == 64


def test_config_hash_is_stable_and_sensitive():
    a = resolve_config(_config("classical-work-dist"))
    b = resolve_config(_config("classical-work-dist"))
    c = resolve_config(_config("classical-work-dist", seed=1))
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16


def test_config_schema_roundtrip():
    schema = config_schema()
    assert schema["properties"]["experiment"]["enum"] == list(EXPERIMENTS)
    json.dumps(schema)


#: The keys each experiment's runner reads, per config section.
RAMP_KEYS = {"beta", "omega_i", "omega_f", "tau_omega_i"}
READS = {
    "classical-work-dist": {
        "physical": RAMP_KEYS,
        "numeric": {"samples", "grid_points", "w_max", "bins"},
    },
    "jarzynski-trace": {
        "physical": RAMP_KEYS,
        "numeric": {"samples", "batch_size", "replicates", "trace_points"},
    },
    "quantum-work-atoms": {
        "physical": RAMP_KEYS | {"hbar"},
        "numeric": {"basis_size", "n_max", "probability_floor"},
    },
    "engine-curves": {"physical": {"beta_1", "omega_i", "hbar"}, "numeric": {"ratios"}},
    "verify": {"physical": set(), "numeric": set()},
}
#: A valid value of every config key, and of "mass", "tau" and "regime",
#: which no experiment accepts.
VALID = {
    "physical": {
        "beta": 0.5, "omega_i": 2.0, "omega_f": 3.0, "tau": 0.1, "tau_omega_i": 0.2,
        "mass": 1.5, "hbar": 0.5, "beta_1": 4.0, "regime": "classical",
    },
    "numeric": {
        "samples": 64, "bins": 8, "grid_points": 16, "w_max": 30.0, "basis_size": 64,
        "n_max": 4, "batch_size": 8, "replicates": 2, "trace_points": 4,
        "probability_floor": 1e-3, "ratios": [2.0, 4.0],
    },
}
PAIRS = [
    (experiment, section, key)
    for experiment in READS
    for section, values in VALID.items()
    for key in values
]
#: Every (experiment, section, key) that an experiment reads as a positive number.
POSITIVE_PAIRS = [
    (experiment, section, key)
    for experiment, section, key in PAIRS
    if key in READS[experiment][section] and isinstance(VALID[section][key], float)
]


def test_pairs_cover_every_experiment_and_key():
    assert len(PAIRS) == 100
    assert set(READS) == set(EXPERIMENTS)
    assert sum(key in READS[e][s] for e, s, key in PAIRS) == 28
    assert len(POSITIVE_PAIRS) == 18
    # every key the schema can type is read by some experiment
    for section, types in cli_runner._KEY_TYPES.items():
        assert set(types) == set().union(*(READS[e][section] for e in READS))


@pytest.mark.parametrize("experiment,section,key", PAIRS)
def test_config_accepts_exactly_the_keys_an_experiment_reads(experiment, section, key):
    config = _config(experiment, **{section: {key: VALID[section][key]}})
    if key in READS[experiment][section]:
        validate_config(config)
        return
    with pytest.raises(ConfigError) as err:
        validate_config(config)
    assert f"$.{section}" in str(err.value)
    assert f"'{key}' was unexpected" in str(err.value)


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("experiment,section,key", POSITIVE_PAIRS)
def test_config_rejects_non_finite_numbers(experiment, section, key, text):
    # json.load parses these; numeric.w_max = Infinity used to pass validation
    # and then fail inside scipy
    with pytest.raises(ConfigError, match=re.escape(f"$.{section}.{key}: ")):
        validate_config(_config(experiment, **{section: {key: json.loads(text)}}))


@pytest.mark.parametrize("value", [0.0, -1.0])
@pytest.mark.parametrize("experiment,section,key", POSITIVE_PAIRS)
def test_config_rejects_non_positive_numbers(experiment, section, key, value):
    # a zero or negative value fails at the config, before any experiment runs
    with pytest.raises(ConfigError, match=re.escape(
        f"$.{section}.{key}: {value} is less than or equal to the minimum of 0"
    )):
        validate_config(_config(experiment, **{section: {key: value}}))


def test_config_rejects_an_odd_basis_size(tmp_path):
    # 511 used to pass the schema and die in the Fock basis with a traceback
    config = _config("quantum-work-atoms", numeric={"basis_size": 511})
    with pytest.raises(ConfigError, match=re.escape(
        "$.numeric.basis_size: 511 is not a multiple of 2"
    )):
        run_experiment(config, out_dir=tmp_path)
    assert not any(tmp_path.iterdir())
    validate_config(_config("quantum-work-atoms", numeric={"basis_size": 512.0}))


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN"])
def test_config_rejects_non_finite_ratios(text):
    ratios = [2.0, json.loads(text)]
    with pytest.raises(ConfigError, match=re.escape("$.numeric.ratios[1]: ")):
        validate_config(_config("engine-curves", numeric={"ratios": ratios}))


def test_main_rejects_a_config_file_with_infinity(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text('{"schema_version": 1, "experiment": "classical-work-dist", '
                    '"numeric": {"w_max": Infinity}}')
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 1
    assert "$.numeric.w_max" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_n_max_is_held_to_a_quarter_of_the_basis():
    def numeric(n_max):
        return _config("quantum-work-atoms", numeric={"basis_size": 64, "n_max": n_max})

    with pytest.raises(ConfigError) as err:
        resolve_config(numeric(20))
    assert "$.numeric.n_max: 20 exceeds numeric.basis_size/4 = 16" in str(err.value)
    assert resolve_config(numeric(16))["numeric"]["n_max"] == 16
    assert config_hash(resolve_config(_config("quantum-work-atoms"))) == "e331e7cd34ab945a"


def test_accepted_configs_hash_as_before():
    pinned = {
        "classical-work-dist": "855b75b9d52a4766",
        "jarzynski-trace": "fa51b96b0372e879",
        "quantum-work-atoms": "e331e7cd34ab945a",
        "engine-curves": "76b90acd70913b82",
        "verify": "8a13cb6995eb6b57",
    }
    assert {e: config_hash(resolve_config(_config(e))) for e in EXPERIMENTS} == pinned
    # the benchmark's quantum-work-atoms config at tau omega_i = 0.5
    perf = _config(
        "quantum-work-atoms",
        physical={"tau_omega_i": 0.5},
        numeric={"basis_size": 512, "n_max": 32},
    )
    assert config_hash(resolve_config(perf)) == "e61f6798ef2d8977"


def test_readme_key_table_matches_printed_schema(capsys):
    # a key added to or removed from an experiment must reach the README table
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = readme.split("| Experiment | `physical` | `numeric` |")[1].split("\n\n")[0]
    documented = {}
    for row in rows.splitlines()[2:]:
        experiment, *cells = (re.findall(r"`([^`]+)`", cell) for cell in row.strip("|").split("|"))
        documented[experiment[0]] = dict(zip(("physical", "numeric"), map(set, cells)))
    assert main(["schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    accepted = {
        clause["if"]["properties"]["experiment"]["const"]: {
            section: set(clause["then"]["properties"][section]["properties"])
            for section in ("physical", "numeric")
        }
        for clause in schema["allOf"]
    }
    assert documented == accepted
    assert set(accepted) == set(EXPERIMENTS)


def test_readme_minimal_config_validates_against_printed_schema(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A minimal config:")[1].split("```json")[1].split("```")[0]
    assert main(["schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    Draft202012Validator(schema).validate(json.loads(block))
    validate_config(json.loads(block))


# ---------------------------------------------------------------------------
# experiments end to end (small sizes)
# ---------------------------------------------------------------------------

def test_classical_work_dist_experiment(tmp_path, monkeypatch):
    draws = _count_gibbs_draws(monkeypatch)
    summary = run_experiment(
        _config("classical-work-dist", numeric={"samples": 20_000}),
        out_dir=tmp_path,
    )
    assert summary["experiment"] == "classical-work-dist"
    assert len(draws) == 1  # controlled and bare share one ensemble
    assert summary["derived"]["generator"] == classical_dynamics.GIBBS_GENERATOR
    for name in (
        "classical_work_sta_hist.csv",
        "classical_work_sta_density.csv",
        "classical_work_bare_hist.csv",
        "classical_work_bare_density.csv",
    ):
        assert name in summary["outputs"]
        assert (tmp_path / name).exists()
    assert summary["all_checks_passed"]
    names = {c["name"] for c in summary["checks"]}
    assert names == {"ks_sta", "ks_bare"}
    assert (tmp_path / "summary.json").exists()
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk["config_sha256"] == summary["config_sha256"]
    for label in ("sta", "bare"):
        lines = (tmp_path / f"classical_work_{label}_density.csv").read_text().splitlines()
        assert lines[:3] == [
            f"# config_sha256={summary['config_sha256']}", "# seed=12345", "work,density"
        ]
        assert len(lines) == 3 + 511  # grid_points = 512 minus the W = 0 point
    # analytic block carries the distribution scales
    assert on_disk["derived"]["analytic"]["nonadiabatic_mean"] == pytest.approx(
        5.0, rel=1e-4
    )


def test_jarzynski_trace_experiment(tmp_path, monkeypatch):
    draws = _count_gibbs_draws(monkeypatch)
    summary = run_experiment(
        _config(
            "jarzynski-trace",
            numeric={
                "samples": 30_000,
                "batch_size": 100,
                "replicates": 5,
                "trace_points": 50,
            },
        ),
        out_dir=tmp_path,
    )
    assert summary["all_checks_passed"]
    # one draw per seed: the main trace plus five replicates
    assert len(draws) == len(set(draws)) == 6
    assert summary["derived"]["generator"] == classical_dynamics.GIBBS_GENERATOR
    assert (tmp_path / "jarzynski_sta.csv").exists()
    assert (tmp_path / "jarzynski_bare.csv").exists()
    disp = summary["derived"]["dispersion"]
    assert disp["sta_wins"] == disp["replicates"]
    assert disp["mean_batch_variance_sta"] < disp["mean_batch_variance_bare"]
    target = summary["derived"]["target"]
    assert target == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)


def test_quantum_work_atoms_experiment(tmp_path):
    summary = run_experiment(
        _config(
            "quantum-work-atoms",
            numeric={"basis_size": 256, "n_max": 16},
        ),
        out_dir=tmp_path,
    )
    assert summary["all_checks_passed"]
    outputs = set(summary["outputs"])
    assert {
        "quantum_atoms_sta.csv",
        "quantum_atoms_bare.csv",
        "quantum_atoms_sta_semilog.csv",
        "quantum_atoms_bare_semilog.csv",
    } <= outputs
    floor = np.log10(summary["parameters"]["numeric"]["probability_floor"])
    for label in ("sta", "bare"):
        rows = (tmp_path / f"quantum_atoms_{label}.csv").read_text().splitlines()
        assert rows[2] == "work,probability"
        # atoms are outcomes: no row of probability 0, one per level under P = I
        assert all(float(r.split(",")[1]) > 0.0 for r in rows[3:])
        if label == "sta":
            assert len(rows[3:]) == 16
        rows = (tmp_path / f"quantum_atoms_{label}_semilog.csv").read_text().splitlines()
        assert rows[2] == "work,log10_probability"
        values = [float(r.split(",")[1]) for r in rows[3:]]
        assert values and all(v >= floor for v in values)
    checks = {c["name"]: c for c in summary["checks"]}
    assert "sta_no_negative_work" in checks
    assert "jarzynski_sta" in checks and "jarzynski_bare" in checks
    assert checks["norm_atoms_sta"]["passed"] and checks["norm_atoms_bare"]["passed"]
    assert "hbar_convention" in summary["derived"]


@pytest.mark.parametrize(
    "hbar, passed, tail", [(1.0, True, "1.43e-21"), (1.0 / (2.0 * math.pi), False, "0.000481")],
    ids=["hbar-1", "hbar-1-over-2pi"],
)
def test_quantum_work_atoms_checks_its_gibbs_truncation(tmp_path, hbar, passed, tail):
    # at hbar = 1/(2 pi) the default 24 initial levels drop 4.81e-4 of the
    # thermal weight: the mass checks name it beside the Jarzynski misses
    summary = run_experiment(
        _config("quantum-work-atoms", physical={"hbar": hbar}), out_dir=tmp_path
    )
    checks = {c["name"]: c for c in summary["checks"]}
    assert summary["all_checks_passed"] is passed
    for label in ("sta", "bare"):
        check = checks[f"norm_atoms_{label}"]
        assert check["passed"] is passed
        assert check["detail"] == f"mass = 1.000000000000, Gibbs tail = {tail}"
        assert checks[f"jarzynski_{label}"]["passed"] is passed


def test_quantum_work_atoms_completes_a_doubling_ramp_at_n_max_128(tmp_path):
    # 128 initial levels of a Q* = 1.25 ramp: every row must stay complete
    # and below 1, or the row gates raise
    summary = run_experiment(
        _config(
            "quantum-work-atoms",
            physical={"omega_f": 20.0},
            numeric={"basis_size": 512, "n_max": 128},
        ),
        out_dir=tmp_path,
    )
    assert summary["all_checks_passed"]
    rows = (tmp_path / "quantum_atoms_bare.csv").read_text().splitlines()[3:]
    mass = math.fsum(float(row.split(",")[1]) for row in rows)
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_engine_curves_experiment(tmp_path):
    summary = run_experiment(
        _config("engine-curves", numeric={"ratios": [2.0, 10.0]}),
        out_dir=tmp_path,
    )
    assert summary["all_checks_passed"]
    assert "engine_curves.csv" in summary["outputs"]
    rows = (tmp_path / "engine_curves.csv").read_text().splitlines()
    header = rows[2].split(",")
    assert header[0] == "beta_ratio"
    assert {"eta_closed_adiabatic", "eta_closed_sudden", "eta_sta", "eta_sudden"} <= set(
        header
    )
    data = np.array([[float(v) for v in r.split(",")] for r in rows[3:]])
    assert data.shape[0] == 2
    cols = {name: i for i, name in enumerate(header)}
    # controlled strokes beat sudden ones, and Carnot caps everything
    assert np.all(data[:, cols["eta_sta"]] > data[:, cols["eta_sudden"]])
    carnot = 1.0 - 1.0 / data[:, cols["beta_ratio"]]
    assert np.all(data[:, cols["eta_sta"]] <= carnot + 1e-12)


def test_engine_curves_are_the_optimizer_efficiencies_bit_for_bit(tmp_path):
    config = _config("engine-curves", numeric={"ratios": [1.5, 4.0, 30.0]})
    run_experiment(config, out_dir=tmp_path)
    rows = (tmp_path / "engine_curves.csv").read_text().splitlines()
    header = rows[2].split(",")
    data = {name: [float(r.split(",")[i]) for r in rows[3:]] for i, name in enumerate(header)}
    phys = resolve_config(config)["physical"]
    for kind in (otto_engine.STA, otto_engine.SUDDEN):
        expected = [
            otto_engine.optimize_frequency(otto_engine.OttoCycleSpec(
                phys["beta_1"], phys["beta_1"] / r, phys["omega_i"], None, otto_engine.QUANTUM,
                otto_engine.StrokeKind(kind), otto_engine.StrokeKind(kind), phys["hbar"],
            )).cycle.efficiency
            for r in (1.5, 4.0, 30.0)
        ]
        assert data[f"eta_{kind}"] == expected


def test_runs_are_deterministic(tmp_path):
    cfg = _config("classical-work-dist", numeric={"samples": 5000})
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=dir_a)
    run_experiment(cfg, out_dir=dir_b)
    for name in ("classical_work_sta_hist.csv", "classical_work_bare_density.csv",
                 "summary.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


@pytest.mark.parametrize(
    "experiment,numeric",
    [
        ("jarzynski-trace",
         {"samples": 1000, "batch_size": 10, "replicates": 3, "trace_points": 20}),
        ("classical-work-dist", {"samples": 1000, "bins": 12, "grid_points": 16}),
        ("quantum-work-atoms", {"basis_size": 64, "n_max": 4}),
    ],
)
def test_integral_floats_in_integer_keys_run_as_ints(tmp_path, experiment, numeric):
    # "samples": 1000.0 passed the schema and then raised a traceback
    as_floats = {key: float(value) for key, value in numeric.items()}
    runs = {}
    for label, values in (("int", numeric), ("float", as_floats)):
        config = _config(experiment, seed=7, numeric=values)
        runs[label] = run_experiment(config, out_dir=tmp_path / label)
        resolved = resolve_config(config)["numeric"]
        assert [type(resolved[key]) for key in numeric] == [int] * len(numeric)
    assert runs["int"]["config_sha256"] == runs["float"]["config_sha256"]
    names = sorted(p.name for p in (tmp_path / "int").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "float").iterdir())
    for name in names:
        assert (tmp_path / "int" / name).read_bytes() == (tmp_path / "float" / name).read_bytes()


def _write_csv_per_value(path, meta, names, columns):
    """The per-value f-string writer that the row template replaced."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(names) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, 0.1, 1.0 / 3.0, -123456.789, 1e16, 1e17, 2.0**53 + 2.0]


def _big_table(rows=5003):
    """Three columns of mixed magnitudes 1e-320..1e300, int64 values, nan and +-inf."""
    rng = np.random.default_rng(11)
    wide = rng.normal(size=rows) * 10.0 ** rng.uniform(-320.0, 300.0, rows)
    wide[::97] = math.nan
    wide[1::89] = math.inf
    wide[2::83] = -math.inf
    ints = rng.integers(-(2**63), 2**63 - 1, size=rows, dtype=np.int64)
    ints[::7] = rng.integers(-1000, 1000, size=ints[::7].size)
    mixed = np.where(rng.random(rows) < 0.5, rng.standard_cauchy(rows), 10.0 ** -np.arange(rows))
    return [wide, ints, mixed]


@pytest.mark.parametrize(
    "columns",
    [
        [np.array(_SPECIAL), np.linspace(-1.0, 1.0, len(_SPECIAL))],
        [np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-45, 3.4028235e38, 0.1, 1 / 3],
                  dtype=np.float32), -np.arange(9.0)],
        [np.array([0, 1, -1, 2**53, 2**53 + 1, -(2**53) - 1, 2**62, -(2**63)], dtype=np.int64),
         np.random.default_rng(3).normal(size=8) * 10.0 ** np.arange(-300, 300, 75)],
        [np.random.default_rng(5).standard_cauchy(1000)],
        [[1.5, 2.5], (3, 4), np.array([5.0, 6.0])],
        _big_table(),
        [np.array([]), np.array([], dtype=np.int64)],
        [],
    ],
    ids=[
        "special", "float32", "int64", "one-column", "sequences", "big-mixed", "zero-rows",
        "no-columns",
    ],
)
def test_write_csv_matches_the_per_value_writer(tmp_path, columns):
    meta = {"seed": 7, "config_sha256": "ab" * 32}
    names = [f"c{i}" for i in range(len(columns))]
    cli_runner._write_csv(tmp_path / "new.csv", meta, names, columns)
    _write_csv_per_value(tmp_path / "old.csv", meta, names, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    # the per-value writer silently cut every column to the shortest one
    with pytest.raises(ValueError, match=r"equal lengths, got \[3, 2, 3\]"):
        cli_runner._write_csv(
            tmp_path / "t.csv", {}, ["a", "b", "c"], [np.ones(3), np.ones(2), np.ones(3)]
        )
    # one name above two columns wrote the header "a" over the rows "1,3" and "2,4"
    for names in (["a"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match=rf"{len(names)} names for 2 columns"):
            cli_runner._write_csv(tmp_path / "t.csv", {}, names, [[1, 2], [3, 4]])
    assert not (tmp_path / "t.csv").exists()


def test_seed_changes_outputs(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_experiment(
        _config("classical-work-dist", numeric={"samples": 5000}), out_dir=dir_a
    )
    run_experiment(
        _config("classical-work-dist", seed=99, numeric={"samples": 5000}),
        out_dir=dir_b,
    )
    assert (
        (dir_a / "classical_work_sta_hist.csv").read_bytes()
        != (dir_b / "classical_work_sta_hist.csv").read_bytes()
    )


def test_run_experiment_writes_to_the_current_directory_by_default(tmp_path, monkeypatch):
    # STAOSC_OUT_DIR used to redirect a run that named no directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("STAOSC_OUT_DIR", str(tmp_path / "env"))
    run_experiment(_config("engine-curves", numeric={"ratios": [2.0]}))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["engine_curves.csv", "summary.json"]


def test_run_experiment_rejects_bad_config(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(_config("classical-work-dist", numeric={"samples": -4}),
                       out_dir=tmp_path)


# ---------------------------------------------------------------------------
# command line entry points
# ---------------------------------------------------------------------------

def test_main_run_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        _config("classical-work-dist", numeric={"samples": 5000})
    ))
    out = tmp_path / "out"
    code = main(["run", str(cfg_path), "--out-dir", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "PASS ks_sta" in printed
    assert (out / "summary.json").exists()


def test_main_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        _config("classical-work-dist", numeric={"samples": 5000})
    ))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg_path), "--out-dir", str(out_a)]) == 0
    assert main(["run", str(cfg_path), "--out-dir", str(out_b), "--seed", "99"]) == 0
    sum_a = json.loads((out_a / "summary.json").read_text())
    sum_b = json.loads((out_b / "summary.json").read_text())
    assert sum_a["seed"] == 12345
    assert sum_b["seed"] == 99
    assert sum_a["config_sha256"] != sum_b["config_sha256"]


def test_main_bad_config_returns_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config("classical-work-dist", seed=-5)))
    assert main(["run", str(cfg_path)]) == 1
    assert "$.seed" in capsys.readouterr().err


@pytest.mark.parametrize("override", [[], ["--seed", "3"]], ids=["no-seed", "seed"])
def test_main_non_object_config_returns_error(tmp_path, capsys, override):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1]")
    assert main(["run", str(cfg_path), *override]) == 1
    assert "$: [1] is not of type 'object'" in capsys.readouterr().err


def test_main_missing_config_returns_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


#: The checks of ``staosc verify``, in order.
VERIFY_CHECKS = [
    "protocol_validation", "wronskian", "action_invariance", "action_angle_roundtrip",
    "quadratic_form_route", "norm_adiabatic", "norm_nonadiabatic", "norm_sudden",
    "decay_rate_ordering", "jarzynski_classical", "quantum_transitionless",
    "quantum_closed_form_vs_fock", "jarzynski_quantum", "engine_closed_forms",
    "adiabaticity_limits",
]


def test_main_verify_subcommand(tmp_path, capsys):
    code = main(["verify", "--out-dir", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed and "FAIL" not in printed
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["all_checks_passed"]
    assert [c["name"] for c in summary["checks"]] == VERIFY_CHECKS
    assert all(list(c) == ["name", "value", "threshold", "passed", "detail"]
               for c in summary["checks"])
    assert [line.split(" vs ")[0] for line in printed.splitlines()] == [
        f"PASS {c['name']}: {c['value']:.3e}" for c in summary["checks"]
    ]
    # `staosc run` on a verify config prints through the same loop
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps(_config("verify")))
    assert main(["run", str(cfg_path), "--out-dir", str(tmp_path / "run")]) == code
    assert capsys.readouterr().out == printed


def test_failed_verify_exits_nonzero_from_both_entry_points(tmp_path, monkeypatch, capsys):
    failing = Check("forced", 1.0, 0.5, False, "forced failure")
    monkeypatch.setattr("staosc.cli_runner.verify_battery", lambda seed: [failing])
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps(_config("verify")))
    assert main(["run", str(cfg_path), "--out-dir", str(tmp_path)]) == 1
    assert main(["verify", "--out-dir", str(tmp_path)]) == 1
    line = "FAIL forced: 1.000e+00 vs threshold 5.000e-01, margin 5.00e-01 (forced failure)"
    assert capsys.readouterr().out == f"{line}\n{line}\n"


def _reject_constant(name):
    raise ValueError(f"summary.json holds the non-JSON constant {name}")


def test_verify_reports_a_tripped_accuracy_gate_as_failed(tmp_path, monkeypatch, capsys):
    # the 256-level basis cannot resolve omega_f = 4 omega_i: the Fock
    # eigenvalue gate raises TruncationLeakageError inside this check
    real = invariants.closed_form_vs_fock
    monkeypatch.setattr(
        invariants, "closed_form_vs_fock",
        lambda protocol, n_max, dimension: real(cosine_ramp(10.0, 40.0, 1e-3), 8, 256),
    )
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps(_config("verify")))
    for argv in (["verify", "--out-dir", str(tmp_path / "a")],
                 ["run", str(cfg_path), "--out-dir", str(tmp_path / "b")]):
        assert main(argv) == 1
        summary = json.loads(
            (Path(argv[-1]) / "summary.json").read_text(), parse_constant=_reject_constant
        )
        assert [c["name"] for c in summary["checks"]] == VERIFY_CHECKS
        failed = [c for c in summary["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["quantum_closed_form_vs_fock"]
        assert failed[0]["value"] is None and failed[0]["threshold"] is None
        assert failed[0]["detail"].startswith("TruncationLeakageError: ")
        assert "eigenvalue error" in failed[0]["detail"]
    assert "FAIL quantum_closed_form_vs_fock: nan" in capsys.readouterr().out


def test_verify_battery_names_every_check_whose_gate_trips(monkeypatch):
    def trip(*args):
        raise IntegrationError("tripped")

    for measure in (
        "protocol_validation", "wronskian", "action_drift", "action_angle_roundtrip",
        "form_work_mismatch", "density_mass", "decay_rate_ordering", "jarzynski_classical",
        "transitionless_deviation", "closed_form_vs_fock", "jarzynski_quantum",
        "engine_closed_forms", "adiabaticity_limit",
    ):
        monkeypatch.setattr(invariants, measure, trip)
    checks = invariants.verify_battery(12345)
    assert [c.name for c in checks] == VERIFY_CHECKS
    assert all(not c.passed and c.detail == "IntegrationError: tripped" for c in checks)


def test_verify_propagates_errors_other_than_accuracy_gates(tmp_path, monkeypatch):
    def broken(protocol):
        raise ValueError("not an accuracy gate")

    monkeypatch.setattr(invariants, "protocol_validation", broken)
    with pytest.raises(ValueError, match="not an accuracy gate"):
        main(["verify", "--out-dir", str(tmp_path)])


def test_main_schema_subcommand(capsys):
    assert main(["schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert schema["properties"]["schema_version"]["const"] == SCHEMA_VERSION


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "staosc.cli_runner", "schema"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)
