import json
import math
import subprocess
import sys

import numpy as np
import pytest

import staosc.work_statistics as work_statistics
from staosc.cli_runner import (
    EXPERIMENTS,
    SCHEMA_VERSION,
    ConfigError,
    config_hash,
    config_schema,
    emit_grid,
    main,
    resolve_config,
    run_experiment,
    validate_config,
)
from staosc.quantum_dynamics import pdf_quantum_adiabatic


def _config(experiment, **overrides):
    cfg = {"schema_version": SCHEMA_VERSION, "experiment": experiment}
    cfg.update(overrides)
    return cfg


def _count_gibbs_draws(monkeypatch) -> list:
    """Record the seed of every Gibbs draw the sample-set estimators make."""
    seeds = []
    sample_gibbs = work_statistics.sample_gibbs

    def counted(spec, *args, **kwargs):
        seeds.append(spec.seed)
        return sample_gibbs(spec, *args, **kwargs)

    monkeypatch.setattr(work_statistics, "sample_gibbs", counted)
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
        validate_config(_config("classical-work-dist", numeric={"tolerance": 1e-6}))
    assert "$.numeric" in str(err.value)
    assert "'tolerance' was unexpected" in str(err.value)


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
            physical={"beta": 0.5, "tau": 0.25},
            numeric={"samples": 64},
        )
    )
    assert resolved["seed"] == 777
    assert resolved["physical"]["beta"] == 0.5
    assert resolved["physical"]["tau"] == 0.25  # explicit tau is not overwritten
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


# ---------------------------------------------------------------------------
# emit_grid
# ---------------------------------------------------------------------------

def test_emit_grid_density_and_atoms(tmp_path):
    meta = {"config_sha256": "deadbeef", "seed": 1}
    dens_path = tmp_path / "density.csv"
    emit_grid(lambda w: np.exp(-np.asarray(w)), dens_path, meta,
              grid=np.linspace(0.1, 5.0, 7))
    lines = dens_path.read_text().splitlines()
    assert lines[0] == "# config_sha256=deadbeef"
    assert lines[1] == "# seed=1"
    assert lines[2] == "work,density"
    assert len(lines) == 3 + 7

    atoms = pdf_quantum_adiabatic(0.2, 10.0, 10.0 * math.sqrt(3.0), n_max=40)
    atom_path = tmp_path / "atoms.csv"
    emit_grid(atoms, atom_path, meta)
    header = atom_path.read_text().splitlines()[2]
    assert header == "work,probability"

    log_path = tmp_path / "atoms_log.csv"
    emit_grid(atoms, log_path, meta, probability_floor=1e-4)
    rows = log_path.read_text().splitlines()
    assert rows[2] == "work,log10_probability"
    values = [float(r.split(",")[1]) for r in rows[3:]]
    assert all(v >= -4.0 - 1e-12 for v in values)

    with pytest.raises(ValueError):
        emit_grid(lambda w: w, tmp_path / "no_grid.csv", meta)


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
    checks = {c["name"]: c for c in summary["checks"]}
    assert "sta_no_negative_work" in checks
    assert "jarzynski_sta" in checks and "jarzynski_bare" in checks
    assert "hbar_convention" in summary["derived"]


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


def test_verify_experiment_all_checks_pass(tmp_path):
    summary = run_experiment(_config("verify"), out_dir=tmp_path)
    assert summary["all_checks_passed"]
    assert len(summary["checks"]) >= 10
    assert (tmp_path / "verify_report.json").exists()


def test_runs_are_deterministic(tmp_path):
    cfg = _config("classical-work-dist", numeric={"samples": 5000})
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=dir_a)
    run_experiment(cfg, out_dir=dir_b)
    for name in ("classical_work_sta_hist.csv", "classical_work_bare_density.csv",
                 "summary.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


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


def test_main_missing_config_returns_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_main_verify_subcommand(tmp_path, capsys):
    code = main(["verify", "--out-dir", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed and "FAIL" not in printed
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["all_checks_passed"]


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
