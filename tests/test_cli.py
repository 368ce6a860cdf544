import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twohead import cli, evaluation, experiment, init_model, losses
from twohead.cli import main
from twohead.nn import save_model_csv
from twohead.experiment import ExperimentSpec, SweepSpec, run_experiment
from twohead.errors import ConfigError

FAST = {"epochs": 8, "seed": 7}

ARTIFACTS = ["loss_trace.csv", "eval_report.csv", "density.csv",
             "boundary.csv", "boundary.svg", "manifest.json", "model.csv"]


def _write_cfg(tmp_path, extra=None):
    cfg = dict(FAST)
    cfg.update(extra or {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_emits_all_artifacts(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--config", _write_cfg(tmp_path), "--out", str(out)])
    assert rc == 0
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    assert not list(out.glob("*.tmp"))


def test_manifest_roundtrips(tmp_path, monkeypatch):
    out = tmp_path / "out"
    main(["run", "--config", _write_cfg(tmp_path, {"alpha": 0.3}), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    spec = ExperimentSpec.from_dict(manifest["config"])
    assert spec.train.alpha == 0.3
    assert spec.train.epochs == 8
    assert spec.to_dict() == manifest["config"]
    assert manifest["seed"] == 7
    assert manifest["build"].startswith("twohead-")
    assert manifest["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
    # numpy before 1.25 has no mode argument
    monkeypatch.setattr(np, "show_config", lambda: None)
    main(["run", "--config", _write_cfg(tmp_path, {"alpha": 0.3}), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["blas"] == {"name": "unknown", "version": "unknown"}


def test_every_config_key_roundtrips():
    raw = {"noise_kind": "pair", "noise_rate": 0.3, "samples_per_class": 40,
           "stddev": 0.5, "alpha": 0.1, "lambda": 0.2, "delta": 1.5, "margin": 0.5,
           "n_inner": 2, "learning_rate": 0.05, "momentum": 0.5, "weight_decay": 0.001,
           "minimax_weight": 0.3, "batch_size": 32, "epochs": 3, "seed": 4,
           "variant": "no_sep"}
    defaults = ExperimentSpec.default_dict()
    assert set(raw) == set(defaults) - {"preset"}
    assert all(raw[k] != defaults[k] for k in raw)
    spec = ExperimentSpec.from_dict(raw)
    assert spec.train.lam == 0.2 and spec.train.batch_size == 32
    assert spec.to_dict() == dict(raw, preset="toy")


def test_rerun_is_bit_identical(tmp_path):
    cfg = _write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ARTIFACTS:
        if name.endswith(".csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_seed_and_variant_overrides(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--config", _write_cfg(tmp_path), "--out", str(out),
               "--seed", "11", "--variant", "source_only"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 11
    assert manifest["config"]["variant"] == "source_only"


def test_invalid_alpha_rejected(tmp_path, capsys):
    rc = main(["run", "--config", _write_cfg(tmp_path, {"alpha": 1.0}),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "alpha" in err


@pytest.mark.parametrize("bad", [
    {"n_inner": 1.5}, {"epochs": 2.9}, {"seed": True}, {"lambda": math.nan},
    {"margin": math.nan}, {"stddev": math.nan}, {"minimax_weight": math.inf},
])
def test_non_integral_bool_and_nonfinite_values_rejected(tmp_path, capsys, bad):
    out = tmp_path / "out"
    rc = main(["run", "--config", _write_cfg(tmp_path, bad), "--out", str(out)])
    assert rc == 2
    assert next(iter(bad)) in capsys.readouterr().err
    assert not out.exists()


def test_dataset_smaller_than_a_batch_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--config", _write_cfg(tmp_path, {"samples_per_class": 10}),
               "--out", str(out)])
    assert rc == 2
    assert "batch_size" in capsys.readouterr().err
    assert not out.exists()


def test_nonfinite_loss_exits_3(tmp_path, capsys, monkeypatch):
    real = losses.source

    def nan_source(*args, **kwargs):
        return real(*args, **kwargs)._replace(value=math.nan)

    monkeypatch.setattr(losses, "source", nan_source)
    out = tmp_path / "out"
    rc = main(["run", "--config", _write_cfg(tmp_path), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "step A-1 at epoch 0" in err
    assert not out.exists()


@pytest.mark.parametrize("bad", [
    {"learning_rate": 0}, {"momentum": 1.0}, {"noise_rate": 1.5}, {"samples_per_class": 0},
    {"stddev": 0}, {"margin": 0}, {"delta": 1.0, "margin": 1.0}, {"margin": 1.2},
    {"alpha": 0.999999999999},
])
def test_a_run_that_fails_writes_nothing(tmp_path, bad):
    """Each exits 2 before anything is written: margin 1.2 >= ln(3) when
    the config is read, and an alpha within 1e-9/N of 1 when the first
    A-1 step would keep no row of its batch."""
    out = tmp_path / "out"
    rc = main(["run", "--config", _write_cfg(tmp_path, bad), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_unknown_key_rejected(tmp_path, capsys):
    rc = main(["run", "--config", _write_cfg(tmp_path, {"alhpa": 0.2}),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "alhpa" in capsys.readouterr().err


def test_bad_json_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_ablate_covers_all_variants(tmp_path):
    out = tmp_path / "ablate"
    rc = main(["ablate", "--config", _write_cfg(tmp_path, {"epochs": 4}),
               "--out", str(out)])
    assert rc == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "variant,avg_accuracy,common_acc,unknown_recall"
    assert len(lines) == 10
    variants = [l.split(",")[0] for l in lines[1:]]
    assert variants[0] == "full" and len(set(variants)) == 9
    # identical seeds mean identical corrupted source data everywhere
    ref = (out / "full" / "source_data.csv").read_bytes()
    assert (out / "source_only" / "source_data.csv").read_bytes() == ref


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ablate_child_writes_what_a_direct_run_writes(tmp_path, jobs):
    """A child writes what run_experiment writes for the spec ablate
    gave it, in the main process and in a worker."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 2}))
    out, direct = tmp_path / "ablate", tmp_path / "direct"
    assert main(["ablate", "--config", str(cfg), "--out", str(out),
                 "--jobs", jobs]) == 0
    run_experiment(ExperimentSpec.from_dict({"epochs": 2}), direct)
    for name in ("manifest.json", "model.csv"):
        assert (out / "full" / name).read_bytes() == (direct / name).read_bytes()


def test_sweep_single_value(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", _write_cfg(tmp_path, {"epochs": 4}),
               "--param", "alpha", "--values", "0.2", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "param,value,avg_accuracy"
    assert len(lines) == 2
    assert lines[1].startswith("alpha,0.2,")


def test_sweep_validations(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["sweep", "--config", cfg, "--param", "bogus",
                 "--values", "1", "--out", str(tmp_path / "s1")]) == 2
    assert main(["sweep", "--config", cfg, "--param", "alpha",
                 "--values", "1.5", "--out", str(tmp_path / "s2")]) == 2
    assert main(["sweep", "--config", cfg, "--param", "n_inner",
                 "--values", "1.5", "--out", str(tmp_path / "s3")]) == 2


@pytest.mark.parametrize("values, named", [("0,inf", "inf"), ("0,-inf", "-inf"),
                                           ("0,1e400", "1e400"), ("0,nan", "nan")])
def test_sweep_rejects_non_finite_values(tmp_path, capsys, values, named):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", _write_cfg(tmp_path, {"epochs": 1}), "--param",
                 "alpha", "--values", values, "--out", str(out)]) == 2
    assert f"{named!r} is not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("param, values, named", [("alpha", "0.1,0.10", "alpha=0.1"),
                                                  ("n_inner", "1,1.0", "n_inner=1")])
def test_sweep_rejects_a_repeated_value(tmp_path, capsys, param, values, named):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", _write_cfg(tmp_path, {"epochs": 1}), "--param",
                 param, "--values", values, "--out", str(out)]) == 2
    assert f"{named} is listed twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delta", [None, 1.0])
def test_margin_sweep_rejects_a_margin_at_or_above_delta(tmp_path, capsys, delta):
    """SweepSpec rejects margin 1.2 before any run, with delta set and
    with delta null (ln 3 = 1.0986: the toy source has 3 classes)."""
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", _write_cfg(tmp_path, {"epochs": 1, "delta": delta}),
                 "--param", "margin", "--values", "0.5,1.2", "--out", str(out)]) == 2
    assert "margin" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["ablate", "--jobs", "0"], ["ablate", "--jobs", "-1"],
    ["sweep", "--param", "alpha", "--values", "0.1,0.2", "--jobs", "0"],
])
def test_jobs_below_one_rejected(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main(argv + ["--config", _write_cfg(tmp_path, {"epochs": 1}), "--out", str(out)])
    assert rc == 2
    assert f"jobs must be >= 1, got {argv[argv.index('--jobs') + 1]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if data is generated or a model is loaded."""
    def fail(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(experiment, "build_toy_scenario", fail)
    monkeypatch.setattr(cli, "load_model_csv", fail)


@pytest.mark.parametrize("argv", [
    ["run"], ["ablate"], ["sweep", "--param", "alpha", "--values", "0.1,0.2"], ["grid"],
])
def test_out_naming_an_existing_file_is_refused_before_any_work(tmp_path, capsys, no_work,
                                                                argv):
    """Exit 2 naming the file, before data, training or a grid is made;
    the file keeps its bytes and nothing else is written."""
    if argv == ["grid"]:
        argv = argv + ["--model", str(_saved_model(tmp_path))]
    else:
        argv = argv + ["--config", _write_cfg(tmp_path, {"epochs": 2})]
    out = tmp_path / "notadir"
    out.write_bytes(b"keep\n")
    before = sorted(tmp_path.iterdir())
    assert main(argv + ["--out", str(out)]) == 2
    assert f"{out} exists and is not a directory" in capsys.readouterr().err
    assert out.read_bytes() == b"keep\n"
    assert sorted(tmp_path.iterdir()) == before


def test_run_experiment_refuses_a_directory_under_a_file(tmp_path, no_work):
    """A child of ablate or sweep checks its own directory before it
    trains."""
    (tmp_path / "notadir").write_text("")
    with pytest.raises(ConfigError, match="notadir exists and is not a directory"):
        run_experiment(ExperimentSpec.from_dict(FAST), tmp_path / "notadir" / "full")


@pytest.mark.parametrize("bad", [{"learning_rate": 0}, {"momentum": 1.0}])
def test_sweep_with_a_bad_sgd_setting_writes_nothing(tmp_path, capsys, bad):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", _write_cfg(tmp_path, bad), "--param", "alpha",
                 "--values", "0.1,0.2", "--out", str(out)]) == 2
    assert next(iter(bad)) in capsys.readouterr().err
    assert not out.exists()


def test_ablate_takes_no_variant(tmp_path, capsys):
    """ablate runs every variant, so a --variant would be ignored."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--variant", "no_div", "--out", str(out)])
    assert exc.value.code == 2
    assert "--variant" in capsys.readouterr().err
    assert not out.exists()


def test_grid_rerenders_saved_model(tmp_path):
    out = tmp_path / "out"
    main(["run", "--config", _write_cfg(tmp_path), "--out", str(out)])
    gout = tmp_path / "grid"
    rc = main(["grid", "--model", str(out / "model.csv"), "--out", str(gout),
               "--resolution", "30"])
    assert rc == 0
    assert (gout / "boundary.csv").exists()
    assert (gout / "boundary.svg").exists()
    lines = (gout / "boundary.csv").read_text().splitlines()
    assert len(lines) == 1 + 30 * 30


def _saved_model(tmp_path):
    path = tmp_path / "model.csv"
    save_model_csv(init_model([2, 8, 8, 8], 3, seed=1), path)
    return path


@pytest.mark.parametrize("delta", ["nan", "0", "-1"])
def test_grid_rejects_bad_delta(tmp_path, capsys, delta):
    gout = tmp_path / "grid"
    rc = main(["grid", "--model", str(_saved_model(tmp_path)), "--out", str(gout),
               f"--delta={delta}", "--resolution", "10"])
    assert rc == 2
    assert "delta" in capsys.readouterr().err
    assert not (gout / "boundary.csv").exists()


def test_grid_rejects_a_resolution_past_the_cap(tmp_path, capsys):
    gout = tmp_path / "grid"
    resolution = evaluation.MAX_GRID_RESOLUTION + 1
    rc = main(["grid", "--model", str(_saved_model(tmp_path)), "--out", str(gout),
               f"--resolution={resolution}"])
    assert rc == 2
    assert f"got {resolution}" in capsys.readouterr().err
    assert not gout.exists()


@pytest.mark.parametrize("resolution", ["0", "1", "-3"])
def test_grid_rejects_a_resolution_below_two(tmp_path, capsys, resolution):
    gout = tmp_path / "grid"
    rc = main(["grid", "--model", str(_saved_model(tmp_path)), "--out", str(gout),
               f"--resolution={resolution}"])
    assert rc == 2
    assert "resolution" in capsys.readouterr().err
    assert not gout.exists()


@pytest.mark.parametrize("drop", ["gen.1,3,4,", "head2.2,1,-1,"])
def test_grid_rejects_model_with_missing_cell(tmp_path, capsys, drop):
    """A dropped weight or bias row would otherwise load as 0.0."""
    path = _saved_model(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    kept = [ln for ln in lines if not ln.startswith(drop)]
    assert len(kept) == len(lines) - 1
    path.write_text("".join(kept))
    rc = main(["grid", "--model", str(path), "--out", str(tmp_path / "grid")])
    assert rc == 2
    assert drop.split(",")[0] in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "nan", "inf"])
@pytest.mark.parametrize("cell", ["gen.1,3,4,", "head2.2,1,-1,"])
def test_grid_rejects_model_with_bad_cell(tmp_path, capsys, cell, value):
    """A non-numeric weight or bias would raise a bare ValueError, and a
    NaN or Inf one would load and render a grid of NaN crs."""
    path = _saved_model(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    edited = [cell + value + "\n" if ln.startswith(cell) else ln for ln in lines]
    assert edited != lines
    path.write_text("".join(edited))
    gout = tmp_path / "grid"
    rc = main(["grid", "--model", str(path), "--out", str(gout), "--resolution", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert cell.split(",")[0] in err and value in err
    assert not (gout / "boundary.csv").exists()


def test_grid_rejects_model_with_a_gap_in_layer_indices(tmp_path, capsys):
    """gen.2 renamed gen.7 would load as a 3-layer generator and render."""
    path = _saved_model(tmp_path)
    path.write_text(path.read_text().replace("gen.2,", "gen.7,"))
    gout = tmp_path / "grid"
    rc = main(["grid", "--model", str(path), "--out", str(gout), "--resolution", "5"])
    assert rc == 2
    assert "'gen.2'" in capsys.readouterr().err
    assert not gout.exists()


# delta defaults to None, which means ln(num classes)
_FLOAT_KEYS = sorted([k for k, v in ExperimentSpec.default_dict().items()
                      if isinstance(v, float)] + ["delta"])


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(_FLOAT_KEYS),
                       st.sampled_from([math.nan, math.inf, -math.inf]), min_size=1))
def test_from_dict_rejects_non_finite_floats(bad):
    raw = ExperimentSpec.default_dict()
    raw.update(bad)
    with pytest.raises(ConfigError) as info:
        ExperimentSpec.from_dict(raw)
    assert any(key in str(info.value) for key in bad)


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_sweep_spec_validation():
    base = ExperimentSpec.from_dict(dict(FAST))
    with pytest.raises(ConfigError):
        SweepSpec(param="alpha", values=[], base=base)
    with pytest.raises(ConfigError):
        SweepSpec(param="delta", values=[0.0], base=base)
    SweepSpec(param="n_inner", values=[1, 2, 4, 8], base=base)


@pytest.mark.parametrize("param, values", [("alpha", [0.2, 0.1, 0.2]),
                                           ("n_inner", [1, 2, 1.0])])
def test_sweep_spec_rejects_values_that_compare_equal(param, values):
    base = ExperimentSpec.from_dict(dict(FAST))
    with pytest.raises(ConfigError, match=f"{param}={values[-1]} is listed twice"):
        SweepSpec(param=param, values=values, base=base)


def test_experiment_spec_rejects_non_toy():
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict({"preset": "moons"})


@pytest.mark.parametrize("kwargs, message", [
    (dict(noise_kind="pair"), "noise kind must be a NoiseKind, got 'pair'"),
    (dict(noise_rate=True), "noise rate must be a real number"),
    (dict(stddev=True), "stddevs must be real numbers"),
    (dict(samples_per_class="300"), "samples_per_class must be an integer")])
def test_experiment_spec_refuses_bad_scenario_types_at_construction(kwargs, message):
    """``noise_kind="pair"`` trained symmetric flipping while the manifest
    said "pair", and ``stddev=True`` trained at stddev 1; they are refused
    at construction, as a string variant is."""
    with pytest.raises(ConfigError, match=message):
        ExperimentSpec(**kwargs)


def test_parallel_sweep_matches_serial(tmp_path):
    cfg = _write_cfg(tmp_path, {"epochs": 4})
    serial, parallel = tmp_path / "ser", tmp_path / "par"
    assert main(["sweep", "--config", cfg, "--param", "n_inner",
                 "--values", "1,2", "--out", str(serial)]) == 0
    assert main(["sweep", "--config", cfg, "--param", "n_inner",
                 "--values", "1,2", "--out", str(parallel), "--jobs", "2"]) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
