"""End-to-end command line tests: generate, train, eval, report, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weakem
from weakem.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, SPLIT_FILES,
                        main)
from weakem.detector import DetectorParams, N_FEATURES
from weakem.em import EmConfig, ModelParams, NumericError, read_metrics_csv, save_checkpoint
from weakem.synthvol import LabeledScan, load_dataset, save_dataset
from weakem.weaklik import HalfGaussianParams, init_lobe_params

SMOKE = {
    "generator": {"count_min": 1, "count_max": 2},
    "em": {"init_epochs": 1, "epochs": 2, "weak_fraction": 0.5},
    "seeds": [0],
    "n_full": 3,
    "n_weak": 2,
    "n_valid": 2,
}

EASY = {
    "generator": {"count_min": 1, "count_max": 1, "noise": 0.01, "clutter": 0.02,
                  "contrast_min": 0.35, "contrast_max": 0.45,
                  "diameter_min": 6.0, "diameter_max": 8.0},
    "em": {"stride": 2},
    "seeds": [0],
    "n_full": 1,
    "n_weak": 1,
    "n_valid": 8,
}


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One generated-and-trained smoke experiment shared across tests."""
    root = tmp_path_factory.mktemp("smoke")
    cfg = write_config(root / "exp.json", SMOKE)
    out = str(root / "results")
    assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["train", "--config", cfg, "--mode", "baseline", "--out", out]) == EXIT_OK
    return cfg, out


class TestGenerate:
    def test_splits_load_and_counts_are_printed(self, smoke_run, capsys):
        cfg, out = smoke_run
        assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for name, n in (("train_full", 3), ("train_weak", 2), ("valid", 2)):
            line = next(ln for ln in lines if ln.startswith(name))
            assert f"{n} scans" in line and "nodules" in line
        from pathlib import Path
        full = load_dataset(Path(out) / SPLIT_FILES["train_full"])
        weak = load_dataset(Path(out) / SPLIT_FILES["train_weak"])
        valid = load_dataset(Path(out) / SPLIT_FILES["valid"])
        assert (len(full), len(weak), len(valid)) == (3, 2, 2)
        # slice-noise fitting needs observed pairs, so both training splits
        # carry weak labels; validation is truth only
        assert all(s.weak for s in full) and all(s.weak for s in weak)
        assert all(not s.weak for s in valid)

    def test_regeneration_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json", SMOKE)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["generate", "--config", cfg, "--out", a]) == EXIT_OK
        assert main(["generate", "--config", cfg, "--out", b]) == EXIT_OK
        from pathlib import Path
        for name in (*SPLIT_FILES.values(), "experiment.json"):
            assert (Path(a) / name).read_bytes() == (Path(b) / name).read_bytes()

    def test_empty_split_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", {**SMOKE, "n_weak": 0})
        code = main(["generate", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == EXIT_CONFIG
        assert "empty split: train_weak" in capsys.readouterr().err
        # every split count is checked before any split is written
        assert not list((tmp_path / "r").glob("*.wem"))

    def test_split_too_large_for_the_container_is_a_config_error(self, tmp_path, capsys):
        from pathlib import Path
        big = {**SMOKE, "generator": {**SMOKE["generator"], "dims": [64, 64, 64]},
               "n_weak": 2049}
        cfg = write_config(tmp_path / "exp.json", big)
        out = tmp_path / "r"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "int32" in capsys.readouterr().err
        assert not Path(out).exists()

    def test_resolved_config_is_written(self, smoke_run):
        from pathlib import Path
        _, out = smoke_run
        stored = json.loads((Path(out) / "experiment.json").read_text())
        assert stored["n_full"] == 3
        assert stored["em"]["epochs"] == 2


class TestTrain:
    def test_baseline_writes_checkpoint_and_metrics(self, smoke_run, capsys):
        from pathlib import Path
        _, out = smoke_run
        ckpt = Path(out) / "checkpoint_baseline_seed0.json"
        metrics = Path(out) / "metrics_baseline_seed0.csv"
        assert ckpt.exists() and metrics.exists()
        history = read_metrics_csv(metrics)
        assert len(history) == SMOKE["em"]["epochs"]
        assert [m.epoch for m in history] == [1, 2]
        payload = json.loads(ckpt.read_text())
        assert payload["config"]["inference"] == "map"

    def test_sampling_mode_sets_inference_and_uses_weak_labels(self, smoke_run, capsys):
        from pathlib import Path
        cfg, out = smoke_run
        code = main(["train", "--config", cfg, "--mode", "deepem-sampling",
                     "--out", out, "--seed", "5"])
        assert code == EXIT_OK
        assert "deepem-sampling seed 5" in capsys.readouterr().out
        ckpt = Path(out) / "checkpoint_deepem-sampling_seed5.json"
        assert json.loads(ckpt.read_text())["config"]["inference"] == "sampling"
        history = read_metrics_csv(Path(out) / "metrics_deepem-sampling_seed5.csv")
        assert any(m.weak_labels_used + m.weak_labels_skipped > 0 for m in history)

    def test_missing_dataset_is_a_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", SMOKE)
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "nowhere")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_truth_box_outside_the_lung_is_a_data_error(self, tmp_path, capsys):
        from dataclasses import replace
        from pathlib import Path
        cfg = write_config(tmp_path / "exp.json", SMOKE)
        out = tmp_path / "results"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        path = Path(out) / SPLIT_FILES["train_full"]
        scans = load_dataset(path)
        scans[0].truth[0] = replace(scans[0].truth[0], x=0.5)
        save_dataset(scans, path)
        capsys.readouterr()
        code = main(["train", "--config", cfg, "--mode", "baseline", "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "outside the lung region" in err

    def test_numeric_failure_exit_code(self, smoke_run, monkeypatch, capsys):
        cfg, out = smoke_run

        def boom(*args, **kwargs):
            raise NumericError("synthetic blowup")

        monkeypatch.setattr("weakem.cli.train_em", boom)
        code = main(["train", "--config", cfg, "--out", out])
        assert code == EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err

    def test_diverging_step_search_exits_numeric(self, tmp_path, capsys):
        # a warm start whose every halved step raises the loss
        cfg = write_config(tmp_path / "exp.json",
                           {**SMOKE, "em": {**SMOKE["em"], "lr_detector": 1e308}})
        out = str(tmp_path / "out")
        assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--mode", "baseline", "--out", out]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: 20 step halvings") and "Traceback" not in err
        assert not list(Path(out).glob("checkpoint_*"))

    def test_diverging_weak_m_step_exits_numeric(self, tmp_path, capsys):
        # no warm start, so the weak M-step takes the first, unguarded step
        cfg = write_config(tmp_path / "exp.json",
                           {**SMOKE, "em": {**SMOKE["em"], "init_epochs": 0, "epochs": 3,
                                            "lr_detector": 1e308}})
        out = str(tmp_path / "out")
        assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
        capsys.readouterr()
        code = main(["train", "--config", cfg, "--mode", "deepem-sampling", "--out", out])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert err.startswith("numeric failure") and "Traceback" not in err
        assert not list(Path(out).glob("checkpoint_*"))

    @pytest.mark.parametrize("mode, init_epochs, step", [
        ("deepem-sampling", 0, "weak M-step"),  # no warm start: the weak step goes first
        ("baseline", 1, "supervised pass"),
    ])
    def test_non_finite_gradient_exits_numeric(self, tmp_path, capsys, monkeypatch, mode,
                                               init_epochs, step):
        from weakem import em
        real = em.examples_loss

        def nan_gradient(examples, params):
            loss, grad = real(examples, params)
            return loss, np.full_like(grad, np.nan)

        cfg = write_config(tmp_path / "exp.json",
                           {**SMOKE, "em": {**SMOKE["em"], "init_epochs": init_epochs}})
        out = str(tmp_path / "out")
        assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(em, "examples_loss", nan_gradient)
        code = main(["train", "--config", cfg, "--mode", mode, "--out", out])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert err.startswith("numeric failure") and "Traceback" not in err
        assert f"non-finite gradient in the {step}" in err
        assert not list(Path(out).glob("checkpoint_*"))


    def test_validation_split_without_truth_is_a_data_error(self, tmp_path, capsys):
        # the generator accepts scans with no nodules; FROC cannot score them
        cfg = write_config(tmp_path / "exp.json",
                           {**SMOKE, "generator": {"count_min": 0, "count_max": 0}})
        out = tmp_path / "out"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--mode", "baseline",
                     "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error") and "Traceback" not in err
        assert SPLIT_FILES["valid"] in err and "no truth boxes" in err
        assert not list(out.glob("checkpoint_*"))


class TestEval:
    def test_report_and_curve_csv(self, smoke_run, capsys, tmp_path):
        from pathlib import Path
        _, out = smoke_run
        ckpt = str(Path(out) / "checkpoint_baseline_seed0.json")
        data = str(Path(out) / SPLIT_FILES["train_full"])
        assert main(["eval", ckpt, data, "--out", str(tmp_path)]) == EXIT_OK
        text = capsys.readouterr().out
        assert text.count("sensitivity at") == 7
        assert "average over 7 operating points" in text
        curve = tmp_path / "checkpoint_baseline_seed0_froc.csv"
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "threshold,fp_per_scan,sensitivity"
        assert lines[-1].startswith("summary,")

    def test_trained_baseline_beats_zero_on_its_training_split(self, smoke_run, capsys):
        from pathlib import Path
        _, out = smoke_run
        ckpt = str(Path(out) / "checkpoint_baseline_seed0.json")
        data = str(Path(out) / SPLIT_FILES["train_full"])
        assert main(["eval", ckpt, data]) == EXIT_OK
        avg = float(capsys.readouterr().out.split("operating points:")[1]
                    .strip().splitlines()[0])
        assert avg > 0.0

    def test_evaluation_is_deterministic(self, smoke_run, capsys):
        from pathlib import Path
        _, out = smoke_run
        ckpt = str(Path(out) / "checkpoint_baseline_seed0.json")
        data = str(Path(out) / SPLIT_FILES["valid"])
        assert main(["eval", ckpt, data]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["eval", ckpt, data]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_oracle_weights_clear_ninety_percent_on_easy_data(self, tmp_path, capsys):
        from pathlib import Path
        cfg = write_config(tmp_path / "exp.json", EASY)
        out = str(tmp_path / "results")
        assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
        capsys.readouterr()
        weights = np.zeros(N_FEATURES + 2)
        weights[3] = 30.0  # ring contrast separates rendered blobs from background
        weights[N_FEATURES:] = -3.0
        params = ModelParams(DetectorParams(weights, (5.0, 8.0)), init_lobe_params(),
                             HalfGaussianParams(1.5))
        ckpt = Path(out) / "oracle.json"
        save_checkpoint(ckpt, params, EmConfig(stride=2), epoch=0)
        data = str(Path(out) / SPLIT_FILES["valid"])
        assert main(["eval", str(ckpt), data]) == EXIT_OK
        avg = float(capsys.readouterr().out.split("operating points:")[1]
                    .strip().splitlines()[0])
        assert avg > 90.0

    def test_bad_checkpoint_is_a_data_error(self, smoke_run, tmp_path, capsys):
        from pathlib import Path
        _, out = smoke_run
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else"}')
        data = str(Path(out) / SPLIT_FILES["valid"])
        assert main(["eval", str(bad), data]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err
        # a well-formed checkpoint whose stored config fails validation
        good = json.loads((Path(out) / "checkpoint_baseline_seed0.json").read_text())
        for field, value in (("stride", 0), ("nms_iou", 5.0)):
            payload = {**good, "config": {**good["config"], field: value}}
            bad.write_text(json.dumps(payload))
            assert main(["eval", str(bad), data, "--out", str(tmp_path)]) == EXIT_DATA
            assert "data error" in capsys.readouterr().err

    def test_dataset_without_truth_is_a_data_error(self, smoke_run, tmp_path, capsys):
        _, out = smoke_run
        ckpt = str(Path(out) / "checkpoint_baseline_seed0.json")
        blank = tmp_path / "blank.wem"
        save_dataset([LabeledScan(s.volume, [], [])
                      for s in load_dataset(Path(out) / SPLIT_FILES["valid"])], blank)
        assert main(["eval", ckpt, str(blank), "--out", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error") and "blank.wem" in err and "no truth boxes" in err
        assert not list(tmp_path.glob("*_froc.csv"))

    def test_truncated_dataset_is_a_data_error(self, smoke_run, tmp_path, capsys):
        from pathlib import Path
        _, out = smoke_run
        ckpt = str(Path(out) / "checkpoint_baseline_seed0.json")
        clipped = tmp_path / "clipped.wem"
        raw = (Path(out) / SPLIT_FILES["valid"]).read_bytes()
        clipped.write_bytes(raw[: len(raw) // 2])
        assert main(["eval", ckpt, str(clipped)]) == EXIT_DATA


class TestReport:
    def test_aggregates_existing_runs(self, smoke_run, capsys):
        from pathlib import Path
        cfg, out = smoke_run
        assert main(["report", "--config", cfg, "--out", out]) == EXIT_OK
        text = capsys.readouterr().out
        assert "baseline" in text
        summary = Path(out) / "summary.csv"
        lines = summary.read_text().strip().splitlines()
        assert lines[0] == "mode,seeds,mean_froc,std_froc,delta_vs_baseline"
        assert any(ln.startswith("baseline,1,") for ln in lines)

    def test_mode_option_is_a_usage_error(self, smoke_run, capsys):
        # report summarises every mode on disk; it has no --mode to narrow it
        cfg, out = smoke_run
        with pytest.raises(SystemExit) as exc:
            main(["report", "--config", cfg, "--out", out, "--mode", "deepem-map"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

    def test_no_runs_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", SMOKE)
        code = main(["report", "--config", cfg, "--out", str(tmp_path / "empty")])
        assert code == EXIT_CONFIG


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["generate", "--config", str(tmp_path / "absent.json")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["generate", "--config", str(bad)]) == EXIT_CONFIG

    def test_unknown_mode_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", {**SMOKE, "mode": "alchemy"})
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == EXIT_CONFIG
        assert "mode" in capsys.readouterr().err

    def test_unknown_em_key_in_config(self, tmp_path, capsys):
        payload = {**SMOKE, "em": {"warp_factor": 9}}
        cfg = write_config(tmp_path / "exp.json", payload)
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize("payload", [
        {"em": {"epochs": 2.5}},
        {"em": {"stride": 2.5}},
        {"em": {"nms_iou": "0.1"}},
        {"em": {"logit_threshold": "-3"}},
        {"generator": {"noise": "x"}},
        {"n_ful": 3},
        {"out_dir": 5},
    ], ids=["float-epochs", "float-stride", "string-nms-iou", "string-threshold", "string-noise",
            "unknown-key", "int-out-dir"])
    def test_wrong_typed_or_unknown_value_is_a_config_error(self, tmp_path, capsys, command,
                                                            payload):
        cfg = write_config(tmp_path / "exp.json", {**SMOKE, **payload})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err
        assert not (tmp_path / "r").exists()


    @pytest.mark.parametrize("command, payload, extra", [
        ("train", {}, ["--seed", "-1"]),
        ("train", {}, ["--seed", "0", "--seed", "-3"]),
        ("train", {"seeds": [-1]}, []),
        ("train", {"data_seed": -1}, []),
        ("generate", {"seeds": [-1]}, []),
        ("generate", {"data_seed": -1}, []),
    ], ids=["train-seed-flag", "train-second-seed-flag", "train-config-seeds",
            "train-data-seed", "generate-config-seeds", "generate-data-seed"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command, payload, extra):
        cfg = write_config(tmp_path / "exp.json", {**SMOKE, **payload})
        out = tmp_path / "r"
        assert main([command, "--config", cfg, "--out", str(out), *extra]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "nonnegative" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestImports:
    def test_train_and_eval_never_load_scipy(self, tmp_path):
        # only generate needs scipy: train and eval run in a fresh process
        # after the splits are made in another
        cfg = write_config(tmp_path / "exp.json", SMOKE)
        out = str(tmp_path / "out")
        src = str(Path(weakem.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def run(script):
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, check=True)
            return done.stdout.strip().splitlines()[-1]

        run(f"from weakem.cli import main; print(main(['generate', '--config', {cfg!r}, "
            f"'--out', {out!r}]))")
        ckpt = str(Path(out) / "checkpoint_deepem-sampling_seed0.json")
        valid = str(Path(out) / SPLIT_FILES["valid"])
        last = run(
            "import json, sys\n"
            "from weakem.cli import main\n"
            f"codes = [main(['train', '--config', {cfg!r}, '--mode', 'deepem-sampling', "
            f"'--out', {out!r}]), main(['eval', {ckpt!r}, {valid!r}])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules\n"
            "                                if m == 'scipy' or m.startswith('scipy.'))]))\n")
        assert json.loads(last) == [[EXIT_OK, EXIT_OK], []]
