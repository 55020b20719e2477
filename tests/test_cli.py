"""Command-line surface: config files, CSV shapes, byte-stable reruns."""
import json
import math
import subprocess
import sys
from dataclasses import fields

import pytest

import beamchan
from beamchan.cli import main, run_experiment, write_output
from beamchan.config import (
    SimulationConfig,
    config_hash,
    load_config,
    loads_config,
    save_config,
)
from beamchan.clusters import EvolutionConfig
from beamchan.geometry import ArrayConfig, EllipseConfig
from beamchan.statistics import member_channel_state

# small enough that every estimator call stays well under a second
SMALL = {
    "array": {"num_tx": 4, "num_rx": 4},
    "num_beams": 16,
    "ensemble": 50,
    "seed": 77,
}


def small_path(tmp_path):
    p = tmp_path / "small.json"
    p.write_text(json.dumps(SMALL), encoding="utf-8")
    return p


# ----------------------------------------------------------------- config

def test_empty_config_file_gives_defaults(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("", encoding="utf-8")
    assert load_config(p) == SimulationConfig()


def test_config_roundtrip_preserves_everything(tmp_path):
    cfg = SimulationConfig(num_beams=48, kappa=2.5, time_samples=(0.5, 1.5),
                           estimator_mode="sampled")
    p = tmp_path / "cfg.json"
    save_config(cfg, p)
    again = load_config(p)
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_config_errors_name_the_offending_key():
    with pytest.raises(ValueError, match="ellipse"):
        loads_config('{"ellipse": {"semi_major": -5}}')
    with pytest.raises(ValueError, match="no_such"):
        loads_config('{"no_such": 1}')
    with pytest.raises(ValueError, match="JSON"):
        loads_config("{nope")
    with pytest.raises(ValueError, match="array.bogus"):
        loads_config('{"array": {"bogus": 3}}')


# integer fields given a value that is not an integer: floats, bools and
# strings, at the top level and in the array section
NOT_INTEGERS = [
    ("rays_per_cluster", 5.0), ("num_beams", 16.0), ("ensemble", 10.5),
    ("seed", 1.5), ("seed", True), ("ensemble", "10"),
    ("num_tx", 4.5), ("num_rx", False),
]


def not_integer_config(name, value):
    if name in ("num_tx", "num_rx"):
        return dict(SMALL, array=dict(SMALL["array"], **{name: value}))
    return dict(SMALL, **{name: value})


@pytest.mark.parametrize("name,value", NOT_INTEGERS)
def test_integer_fields_reject_other_values(name, value):
    owner = ArrayConfig if name in ("num_tx", "num_rx") else SimulationConfig
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        owner(**{name: value})
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        loads_config(json.dumps(not_integer_config(name, value)))


@pytest.mark.parametrize("name,value", NOT_INTEGERS)
def test_simulate_rejects_a_non_integer_field(tmp_path, capsys, name, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(not_integer_config(name, value)), encoding="utf-8")
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and f"{name} must be an integer" in err
    assert not (tmp_path / "o").exists()


# the config and its sections, by section name; then every float field
OWNERS = {None: SimulationConfig, "array": ArrayConfig, "ellipse": EllipseConfig,
          "evolution": EvolutionConfig}
FLOAT_FIELDS = [(section, f.name) for section, owner in OWNERS.items()
                for f in fields(owner) if str(f.type).startswith("float")]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("section,name", FLOAT_FIELDS)
def test_float_fields_reject_non_finite_values(tmp_path, capsys, section, name, value):
    # these used to pass: nan Doppler, kappa or angles gave nan CSV rows,
    # others failed later inside numpy or the estimators, not by name
    with pytest.raises(ValueError, match=f"{name} must be .*finite"):
        OWNERS[section](**{name: value})
    path = tmp_path / "bad.json"
    data = {section: {name: value}} if section else {name: value}
    path.write_text(json.dumps(data), encoding="utf-8")  # NaN and Infinity literals
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and f"{name} must be" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


SECTIONS = {ArrayConfig: "array", EvolutionConfig: "evolution"}


@pytest.mark.parametrize("owner,name,value,message", [
    (SimulationConfig, "seed", -1, "seed must be a non-negative integer, got -1"),
    (SimulationConfig, "ensemble", 0, "ensemble must be a positive integer, got 0"),
    (SimulationConfig, "num_beams", 0, "num_beams must be a positive integer"),
    (SimulationConfig, "rays_per_cluster", -3, "rays_per_cluster must be a positive integer"),
    (ArrayConfig, "num_tx", 0, "num_tx must be a positive integer, got 0"),
    (ArrayConfig, "num_rx", -1, "num_rx must be a positive integer, got -1"),
    (SimulationConfig, "max_doppler", -1.0, "max_doppler must be at least 0"),
    (SimulationConfig, "rician_k", -0.5, "rician_k must be at least 0"),
    (SimulationConfig, "kappa", -2.0, "kappa must be at least 0"),
    (EvolutionConfig, "birth_rate", -1.0, "birth_rate must be at least 0"),
    (EvolutionConfig, "death_rate", -1.0, "death_rate must be at least 0"),
    (EvolutionConfig, "ms_speed", -0.1, "ms_speed must be at least 0"),
])
def test_fields_below_their_floor_fail_by_name(owner, name, value, message):
    # a negative seed used to load and fail later inside numpy; the other
    # floors named no field ("antenna counts must be at least 1")
    with pytest.raises(ValueError, match=message):
        owner(**{name: value})
    section = SECTIONS.get(owner)
    data = {section: {name: value}} if section else {name: value}
    with pytest.raises(ValueError, match=message):
        loads_config(json.dumps(data))


@pytest.mark.parametrize("samples", [("a",), (math.nan,), (math.inf,), (-1.0,), (True,), (),
                                     1.0])
def test_time_samples_must_be_finite_non_negative_times(samples):
    with pytest.raises(ValueError, match="time_samples must be"):
        SimulationConfig(time_samples=samples)
    with pytest.raises(ValueError, match="time_samples must be"):
        loads_config(json.dumps({"time_samples": samples}))


@pytest.mark.parametrize("value", [True, "3", 0.0, -2.0])
def test_mean_clusters_must_be_a_positive_number(value):
    # a bool used to load as a mean of one cluster, a string to fail
    # inside a comparison without naming the field
    with pytest.raises(ValueError, match="mean_clusters must be"):
        SimulationConfig(mean_clusters=value)
    with pytest.raises(ValueError, match="mean_clusters must be"):
        loads_config(json.dumps({"mean_clusters": value}))


def test_zero_mean_cluster_count_is_rejected():
    # birth_rate 0 without mean_clusters used to load with a mean count of
    # 0, and the initial count, which rejects empty draws, then drew forever
    want = "evolution.birth_rate without mean_clusters must be a finite positive number"
    with pytest.raises(ValueError, match=want):
        SimulationConfig(evolution=EvolutionConfig(birth_rate=0.0))
    with pytest.raises(ValueError, match=want):
        loads_config(json.dumps({"evolution": {"birth_rate": 0}}))
    cfg = SimulationConfig(evolution=EvolutionConfig(birth_rate=0.0), mean_clusters=3.0)
    assert cfg.mean_cluster_count == 3.0


@pytest.mark.parametrize("name,value", [("ensemble", 10.7), ("ensemble", True),
                                        ("seed", 3.9), ("seed", "3")])
@pytest.mark.parametrize("experiment", ["fig3_ccf"])
def test_run_experiment_rejects_a_non_integer_argument(experiment, name, value):
    # these used to be truncated by int(): 10.7 ran 10 members, True ran 1
    cfg = loads_config(json.dumps(SMALL))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        run_experiment(cfg, experiment, **{name: value})


@pytest.mark.parametrize("name,value", [
    ("ensemble", 10.7), ("ensemble", True), ("seed", 3.9), ("seed", "3"),
    ("model", "gbsm"), ("model", "both"), ("seed", 7), ("seed", -1), ("ensemble", 0)])
def test_fig6_rejects_each_simulation_argument_by_name(name, value):
    # the cost table is closed-form: these used to be checked, then dropped
    cfg = loads_config(json.dumps(SMALL))
    with pytest.raises(ValueError, match=f"^{name} does not apply to the fig6 cost table"):
        run_experiment(cfg, "fig6_complexity", **{name: value})


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--ensemble", "0"),
                                        ("--model", "gbsm"), ("--seed", "3")])
def test_reproduce_fig6_rejects_simulation_flags(tmp_path, capsys, flag, value):
    # "reproduce fig6 --seed -1 --ensemble 0 --model gbsm" used to exit 0
    out = tmp_path / "f6"
    rc = main(["reproduce", "fig6", flag, value, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {flag[2:]} does not apply") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("samples", [(1.0, 1.0), (1.0, 1.0000001)])
def test_fig4_rejects_time_samples_with_one_curve_label(monkeypatch, samples):
    # both times are curve t1; each used to run and the second overwrote the first
    import beamchan.cli as cli
    monkeypatch.setattr(cli, "time_acf", lambda *a, **k: pytest.fail("an estimate ran"))
    cfg = loads_config(json.dumps(SMALL)).with_values(time_samples=samples)
    with pytest.raises(ValueError, match=r"time_samples must give distinct curve labels"):
        run_experiment(cfg, "fig4_acf", ensemble=4)


@pytest.mark.parametrize("module", ["beamchan", "beamchan.cli"])
def test_module_entry_points_run_without_warnings(module):
    # the package used to import beamchan.cli itself, so running it as
    # __main__ warned that it was already in sys.modules
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                          module, "--version"], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == f"beamchan {beamchan.__version__}"
    assert res.stderr == ""


# -------------------------------------------------------------- arg parsing

def test_version_and_help_exit_zero():
    for flag in ("--version", "--help"):
        with pytest.raises(SystemExit) as e:
            main([flag])
        assert e.value.code == 0


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_bad_config_path_exits_one(tmp_path, capsys):
    rc = main(["stats", "--config", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------- subcommands

def test_stats_writes_one_row_per_lag(tmp_path):
    out = tmp_path / "o"
    rc = main(["stats", "--kind", "time_acf", "--config",
               str(small_path(tmp_path)), "--model", "gbsm",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "stats_time_acf_gbsm.csv").read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if l and not l.startswith("#")]
    assert data[0] == "lag,magnitude,std_error"
    assert len(data) == 1 + 25   # default time-lag grid
    lag0 = data[1].split(",")
    assert float(lag0[0]) == 0.0 and float(lag0[1]) == 1.0
    assert "# ensemble: 50" in header
    assert "# seed: 77" in header
    assert any(l.startswith("# config: ") for l in header)


def test_simulate_writes_both_models(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", str(small_path(tmp_path)),
               "--out", str(out), "--time", "0"])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    pairs = {(str(k), str(l)) for k in range(1, 5) for l in range(1, 5)}
    for m in ("gbsm", "bdcm"):
        lines = (out / f"simulate_{m}.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "rx,tx,cluster,delay,real,imag"
        rows = [l.split(",") for l in data[1:]]
        assert {(r[0], r[1]) for r in rows} == pairs
        for r in rows:
            float(r[3]), float(r[4]), float(r[5])


def test_simulate_writes_one_realization_per_seed(tmp_path, capsys):
    # each model's file is the same bytes whichever models --model asks for;
    # bdcm alone used to draw its phases where gbsm's come from
    files = {}
    for model in ("both", "gbsm", "bdcm"):
        out = tmp_path / model
        assert main(["simulate", "--config", str(small_path(tmp_path)), "--seed", "3",
                     "--model", model, "--out", str(out)]) == 0
        files.update({(model, p.name): p.read_bytes() for p in out.iterdir()})
    assert len(files) == 4
    for m in ("gbsm", "bdcm"):
        assert files[(m, f"simulate_{m}.csv")] == files[("both", f"simulate_{m}.csv")]


@pytest.mark.parametrize("time", ["nan", "inf", "-1"])
def test_simulate_rejects_a_bad_time(tmp_path, capsys, time):
    # nan and inf used to write CSVs of nan coefficients, -1 built at t = -1
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", str(small_path(tmp_path)),
               "--out", str(out), "--time", time])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: t must be a finite non-negative time")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["stats", "simulate"])
def test_negative_seed_fails_by_name(tmp_path, capsys, command):
    # used to fail inside numpy with "expected non-negative integer"
    out = tmp_path / "neg"
    rc = main([command, "--config", str(small_path(tmp_path)), "--out", str(out),
               "--seed", "-1"] + (["--ensemble", "2"] if command == "stats" else []))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: seed must be a non-negative integer")
    assert "Traceback" not in err


def test_rejected_stats_leaves_no_out_dir(tmp_path, capsys):
    # stats used to create --out before the estimator rejected the seed
    out = tmp_path / "neg"
    rc = main(["stats", "--config", str(small_path(tmp_path)), "--out", str(out),
               "--seed", "-1", "--ensemble", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: seed must be a non-negative integer")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["reproduce", "fig6"],
    ["simulate"],
    ["stats", "--ensemble", "2"],
], ids=["reproduce", "simulate", "stats"])
def test_an_out_path_that_is_a_file_fails_by_name(tmp_path, capsys, command):
    # mkdir on an existing file used to escape main as a FileExistsError
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    config = [] if command[0] == "reproduce" else ["--config", str(small_path(tmp_path))]
    rc = main(command + config + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and str(out) in err
    assert "Traceback" not in err
    assert out.read_text(encoding="utf-8") == ""


def test_simulate_covers_the_array_within_visibility(tmp_path):
    # a short array decorrelation distance leaves clusters visible to
    # only part of each array, and births at later antennas
    cfg = dict(SMALL, evolution={"array_decorrelation": 1.0})
    path = tmp_path / "vis.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(path), "--out", str(out),
                 "--time", "1"]) == 0
    cfg = load_config(path)
    clusters, _ = member_channel_state(cfg, cfg.seed, 0, 1.0)
    assert any(len(c.visible_rx) < 4 or len(c.visible_tx) < 4
               for c in clusters)
    for m in ("gbsm", "bdcm"):
        lines = (out / f"simulate_{m}.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        rows = [l.split(",") for l in data[1:]]
        assert len(rows) == 4 * 4 * len(clusters)
        nonzero = set()
        for r in rows:
            k, l, n = int(r[0]), int(r[1]), int(r[2])
            c = clusters[n - 1]
            h = complex(float(r[4]), float(r[5]))
            if k in c.visible_rx and l in c.visible_tx:
                assert h != 0
                nonzero.add((k, l))
            else:
                assert h == 0
        assert len(nonzero) > 1


def test_reproduce_fig6_contains_known_row(tmp_path):
    out = tmp_path / "f6"
    rc = main(["reproduce", "fig6", "--out", str(out)])
    assert rc == 0
    lines = (out / "fig6_complexity.csv").read_text().splitlines()
    assert "antenna_pairs,beams,gbsm_ro,bdcm_ro" in lines
    assert "1,20,86518,14926" in lines
    # 10 antenna counts x 3 beam grids
    assert sum(not l.startswith("#") for l in lines) == 1 + 30


def test_complexity_is_reproduce_fig6_only():
    # the cost table has one command; a second one printed the same rows
    with pytest.raises(SystemExit) as e:
        main(["complexity", "--out", "unused"])
    assert e.value.code == 2


def test_reproduce_overrides_reach_the_header(tmp_path):
    out = tmp_path / "r"
    rc = main(["reproduce", "fig3", "--config", str(small_path(tmp_path)),
               "--model", "gbsm", "--seed", "9", "--ensemble", "30",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "fig3_ccf_gbsm.csv").read_text().splitlines()
    assert "# seed: 9" in lines
    assert "# ensemble: 30" in lines


# ------------------------------------------------------------ reproducibility

def test_rerun_is_byte_identical_and_seed_matters(tmp_path):
    cfg = loads_config(json.dumps(SMALL))
    one = write_output(run_experiment(cfg, "fig3_ccf", model="gbsm",
                                      ensemble=40, seed=5), tmp_path / "a")
    two = write_output(run_experiment(cfg, "fig3_ccf", model="gbsm",
                                      ensemble=40, seed=5), tmp_path / "b")
    assert [p.read_bytes() for p in one] == [p.read_bytes() for p in two]
    other = write_output(run_experiment(cfg, "fig3_ccf", model="gbsm",
                                        ensemble=40, seed=6), tmp_path / "c")
    assert other[0].read_bytes() != one[0].read_bytes()


def test_write_output_hashes_the_config_once(tmp_path, monkeypatch):
    # every curve of a run shares the run's config, so its header hash is
    # computed once per write, not once per CSV
    import beamchan.cli as cli
    cfg = loads_config(json.dumps(SMALL)).with_values(time_samples=(1.0, 2.0))
    out = run_experiment(cfg, "fig4_acf", model="both", ensemble=4, seed=5)
    want = [p.read_bytes() for p in write_output(out, tmp_path / "a")]
    hashed = []
    monkeypatch.setattr(cli, "config_hash",
                        lambda config: hashed.append(config) or config_hash(config))
    got = [p.read_bytes() for p in write_output(out, tmp_path / "b")]
    assert len(got) == 4 and hashed == [cfg]
    assert got == want
    assert all(f"# config: {config_hash(cfg)}" in g.decode() for g in got)


def test_unknown_experiment_rejected():
    cfg = loads_config(json.dumps(SMALL))
    with pytest.raises(ValueError, match="experiment"):
        run_experiment(cfg, "fig7_nope")
