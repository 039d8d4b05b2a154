import ast
import json
import re

import pytest

from pinvnet.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def spiral_csv(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "spiral", "--arms", "3", "--per-arm", "20",
                 "--seed", "1", "--out", str(out)]) == 0
    return out / "spiral_train.csv"


def test_synth_spiral_writes_both_splits_and_manifest(tmp_path, capsys):
    out = tmp_path / "s"
    code, stdout, _ = _run(capsys, "synth", "spiral", "--arms", "3",
                           "--per-arm", "10", "--seed", "2", "--out", str(out))
    assert code == 0
    assert (out / "spiral_train.csv").exists()
    assert (out / "spiral_test.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth spiral"
    assert manifest["seed"] == 2
    assert sorted(manifest["artifact_paths"]) == manifest["artifact_paths"]
    assert "rows" in stdout


def test_synth_regression_writes_train_series(tmp_path):
    out = tmp_path / "r"
    assert main(["synth", "regression", "--noisy-sets", "2", "--noise", "0.1",
                 "--seed", "0", "--out", str(out)]) == 0
    names = sorted(p.name for p in out.glob("*.csv"))
    assert names == ["test.csv", "train_00.csv", "train_01.csv", "train_02.csv"]


def test_train_writes_report_without_wall_time(tmp_path, capsys, spiral_csv):
    out = tmp_path / "run"
    code, stdout, stderr = _run(
        capsys, "train", "--data", str(spiral_csv), "--structure", "10-3",
        "--seed", "7", "--out", str(out))
    assert code == 0
    report = json.loads((out / "train_report.json").read_text())
    assert "train_sse" in report
    assert "wall_time" not in report
    assert report["task"] == "classification"
    assert len(report["per_layer_solve_residuals"]) == 2
    assert "train_sse" in stdout and "train_accuracy" in stdout
    assert "elapsed" in stderr  # timing stays off the artifact files


def test_train_dump_weights_emits_one_csv_per_layer(tmp_path, spiral_csv):
    out = tmp_path / "run"
    assert main(["train", "--data", str(spiral_csv), "--structure", "5-4-3",
                 "--dump-weights", "--out", str(out)]) == 0
    names = sorted(p.name for p in out.glob("weights_*.csv"))
    assert names == ["weights_01.csv", "weights_02.csv", "weights_03.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(names) <= set(manifest["artifact_paths"])


def test_train_task_auto_detects_regression(tmp_path, capsys):
    p = tmp_path / "reg.csv"
    p.write_text("1.0,2.0\n2.0,2.5\n3.0,3.5\n4.0,5.0\n")
    out = tmp_path / "run"
    code, stdout, _ = _run(capsys, "train", "--data", str(p),
                           "--structure", "4-1", "--out", str(out))
    assert code == 0
    report = json.loads((out / "train_report.json").read_text())
    assert report["task"] == "regression"
    assert "train_accuracy" not in report


def test_train_named_label_column_matches_a_spaced_header(tmp_path, capsys):
    p = tmp_path / "iris.csv"
    rows = [f"{i / 10},{(i % 3) / 5},{'xy'[i % 2]}" for i in range(8)]
    p.write_text("a, b, species\n" + "\n".join(rows) + "\n")
    out = tmp_path / "run"
    code, _, stderr = _run(capsys, "train", "--data", str(p), "--header",
                           "--label-column", "species", "--structure", "4-2",
                           "--out", str(out))
    assert code == 0, stderr
    report = json.loads((out / "train_report.json").read_text())
    assert report["task"] == "classification"


@pytest.mark.parametrize("label_column", ["9", "-9"])
def test_out_of_range_label_column_exits_2(tmp_path, capsys, spiral_csv,
                                           label_column):
    code, _, stderr = _run(capsys, "train", "--data", str(spiral_csv),
                           "--label-column", label_column, "--structure", "4-3",
                           "--out", str(tmp_path / "run"))
    assert code == 2
    assert "out of range" in stderr

def test_missing_required_flag_exits_2_with_structured_error(tmp_path, capsys):
    code, _, stderr = _run(capsys, "train", "--structure", "4-1",
                           "--out", str(tmp_path))
    assert code == 2
    err = json.loads(stderr.strip().splitlines()[-1])
    assert err["error"]["type"] == "invalid-input"
    assert "--data" in err["error"]["message"]


def test_missing_data_file_exits_2(tmp_path, capsys):
    code, _, stderr = _run(capsys, "train", "--data",
                           str(tmp_path / "nope.csv"),
                           "--structure", "4-1", "--out", str(tmp_path))
    assert code == 2
    assert "nope.csv" in stderr


def test_unknown_config_key_exits_2(tmp_path, capsys, spiral_csv):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"strucure": "4-3"}))
    code, _, stderr = _run(capsys, "train", "--data", str(spiral_csv),
                           "--config", str(cfgfile), "--out", str(tmp_path))
    assert code == 2
    assert "strucure" in stderr


def test_config_file_supplies_values_but_flags_win(tmp_path, capsys, spiral_csv):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"structure": "6-3", "seed": 5, "c": 0.25}))
    out = tmp_path / "run"
    code, _, _ = _run(capsys, "train", "--data", str(spiral_csv),
                      "--config", str(cfgfile), "--seed", "9",
                      "--out", str(out))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    echo = manifest["config_echo"]
    assert echo["structure"] == "6-3"  # from the file
    assert echo["c"] == 0.25           # from the file
    assert echo["seed"] == 9           # flag overrides the file
    assert "out" not in echo


def test_same_seed_runs_are_byte_identical(tmp_path, spiral_csv):
    args = ["train", "--data", str(spiral_csv), "--structure", "8-3",
            "--seed", "3", "--dump-weights"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("train_report.json", "manifest.json", "weights_01.csv",
                 "weights_02.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cv_reports_selection_and_grid(tmp_path, capsys, spiral_csv):
    out = tmp_path / "cv"
    code, stdout, _ = _run(
        capsys, "cv", "--data", str(spiral_csv), "--template", "h-q",
        "--grid", "2,4", "--folds", "3", "--trials", "2", "--out", str(out))
    assert code == 0
    report = json.loads((out / "cv_report.json").read_text())
    assert report["selected_h"] in (2, 4)
    assert report["grid"] == [2, 4]
    assert len(report["per_trial_accuracies"]) == 2
    assert report["score_kind"] == "accuracy"
    assert "selected_h" in stdout


def test_cv_on_regression_warns_and_degrades(tmp_path, capsys):
    p = tmp_path / "reg.csv"
    rows = [f"{i / 10},{(i / 10) ** 2}" for i in range(12)]
    p.write_text("\n".join(rows) + "\n")
    out = tmp_path / "cv"
    code, _, stderr = _run(
        capsys, "cv", "--data", str(p), "--grid", "1,2", "--folds", "3",
        "--trials", "1", "--out", str(out))
    assert code == 0
    assert "unstratified" in stderr
    report = json.loads((out / "cv_report.json").read_text())
    assert report["score_kind"] == "neg_sse"


def test_variance_csv_has_one_row_per_depth(tmp_path, capsys):
    out = tmp_path / "v"
    code, stdout, _ = _run(capsys, "variance", "--m", "12", "--d", "3",
                           "--trials", "5", "--max-depth", "3",
                           "--out", str(out))
    assert code == 0
    lines = (out / "variance.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert stdout.count("depth") == 3


def test_selfcheck_passes_clean_and_catches_injected_fault(capsys):
    code, stdout, _ = _run(capsys, "selfcheck", "--shapes", "40x30",
                           "--count", "12", "--seed", "3")
    assert code == 0
    assert "selfcheck ok" in stdout
    code, stdout, _ = _run(capsys, "selfcheck", "--shapes", "40x30",
                           "--count", "12", "--seed", "3", "--inject-fault")
    assert code == 1
    assert "FAILED" in stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--structure", "4-3", "--solve-order", "a"], "--solve-order"),
        (["cv", "--grid", "1,x"], "--grid"),
        (["variance", "--range", "1,2,3"], "--range"),
        (["selfcheck", "--shapes", "0x5"], "200x100"),
        (["selfcheck", "--count", "-2"], "--count"),
        (["cv", "--folds", "x"], "--folds"),
        (["synth", "spiral", "--arms", "0"], "arms"),
        (["synth", "regression", "--noisy-sets", "-1"], "noisy_sets"),
        (["variance", "--noise-scale", "inf"], "noise_scale"),
        (["variance", "--range=-inf,1"], "input_range"),
        (["train", "--structure", "4-3", "--tolerance", "nan"], "tolerance"),
        (["train", "--structure", "4-3", "--ridge", "nan"], "ridge"),
        (["train", "--structure", "4-3", "--seed", "-1"], "--seed"),
        (["variance", "--seed", "-3"], "--seed"),
        (["selfcheck", "--seed", "-1"], "--seed"),
    ],
    ids=["solve-order", "grid", "range", "shapes", "count", "folds",
         "spiral-arms", "regression-noisy-sets", "noise-scale-inf",
         "range-minus-inf", "tolerance-nan", "ridge-nan", "train-seed",
         "variance-seed", "selfcheck-seed"],
)
def test_bad_option_values_exit_2(tmp_path, capsys, spiral_csv, argv, message):
    if argv[0] in ("train", "cv"):
        argv = argv + ["--data", str(spiral_csv)]
    if argv[0] != "selfcheck":
        argv = argv + ["--out", str(tmp_path / "run")]
    code, stdout, stderr = _run(capsys, *argv)
    assert code == 2
    err = json.loads(stderr.strip().splitlines()[-1])
    assert err["error"]["type"] == "invalid-input"
    assert message in err["error"]["message"]
    assert "selfcheck ok" not in stdout
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '"4-3"'],
                         ids=["invalid", "array", "string"])
def test_malformed_config_file_exits_2(tmp_path, capsys, spiral_csv, text):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(text)
    code, _, stderr = _run(capsys, "train", "--data", str(spiral_csv),
                           "--config", str(cfgfile), "--out", str(tmp_path))
    assert code == 2
    assert "cfg.json" in stderr


def test_bad_shapes_argument_exits_2(capsys):
    code, _, stderr = _run(capsys, "selfcheck", "--shapes", "banana")
    assert code == 2
    assert "200x100" in stderr


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["cv"], {"folds": "x"}, "--folds"),
        (["cv"], {"trials": [3]}, "--trials"),
        (["cv"], {"c": "big"}, "--c"),
        (["cv"], {"clamp_margin": "tiny"}, "--clamp-margin"),
        (["train", "--structure", "4-3"], {"seed": "x"}, "--seed"),
        (["train", "--structure", "4-3"], {"clamp_margin": "tiny"}, "--clamp-margin"),
        (["train", "--structure", "4-3"], {"ridge": "x"}, "--ridge"),
        (["train", "--structure", "4-3"], {"tolerance": "tiny"}, "--tolerance"),
        (["synth", "spiral"], {"arms": "x"}, "--arms"),
        (["synth", "regression"], {"noise": None}, "--noise"),
        (["variance"], {"max_depth": "deep"}, "--max-depth"),
        (["selfcheck"], {"count": "x"}, "--count"),
        (["selfcheck"], {"inject_fault": "false"}, "--inject-fault"),
        (["train", "--structure", "4-3"], {"header": "false"}, "--header"),
        (["train", "--structure", "4-3"], {"linear_output": "false"},
         "--linear-output"),
        (["cv"], {"template": 3}, "--template"),
        (["train", "--structure", "4-3"], {"activation": 1}, "--activation"),
        (["train"], {"structure": 5}, "--structure"),
    ],
    ids=["cv-folds", "cv-trials", "cv-c", "cv-clamp-margin", "train-seed",
         "train-clamp-margin", "train-ridge", "train-tolerance", "spiral-arms",
         "regression-noise", "variance-max-depth", "selfcheck-count",
         "selfcheck-inject-fault", "train-header", "train-linear-output",
         "cv-template", "train-activation", "train-structure"],
)
def test_bad_config_values_exit_2(tmp_path, capsys, spiral_csv, argv, config,
                                  message):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    argv = argv + ["--config", str(cfgfile)]
    if argv[0] in ("train", "cv"):
        argv += ["--data", str(spiral_csv)]
    if argv[0] != "selfcheck":
        argv += ["--out", str(tmp_path / "run")]
    code, stdout, stderr = _run(capsys, *argv)
    assert code == 2
    err = json.loads(stderr.strip().splitlines()[-1])
    assert err["error"]["type"] == "invalid-input"
    assert message in err["error"]["message"]
    assert "FAILED" not in stdout
    assert not (tmp_path / "run").exists()


def test_cv_runs_when_a_fold_misses_a_class(tmp_path, capsys):
    # 15 rows, 5 per class, in 2 unstratified folds: some training
    # portion lacks a class
    data = tmp_path / "data"
    assert main(["synth", "spiral", "--arms", "3", "--per-arm", "10",
                 "--out", str(data)]) == 0
    code, _, stderr = _run(capsys, "cv", "--data", str(data / "spiral_train.csv"),
                           "--no-stratified", "--folds", "2", "--trials", "1",
                           "--grid", "2", "--out", str(tmp_path / "cv"))
    assert code == 0, stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--structure", "6-3", "--dump-weights", "--tolerance", "0",
         "--c", "0.5", "--seed", "4"],
        ["cv", "--grid", "2,3", "--folds", "3", "--trials", "1"],
        ["variance", "--m", "12", "--d", "3", "--trials", "5",
         "--max-depth", "2", "--range=-2,2"],
        ["synth", "spiral", "--arms", "3", "--per-arm", "10", "--noise", "0.1"],
        ["synth", "regression", "--noisy-sets", "2", "--seed", "3"],
    ],
    ids=["train", "cv", "variance", "spiral", "regression"],
)
def test_manifest_echo_reruns_to_identical_artifacts(tmp_path, spiral_csv,
                                                     argv):
    if argv[0] in ("train", "cv"):
        argv = argv + ["--data", str(spiral_csv)]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(argv + ["--out", str(first)]) == 0
    echo = json.loads((first / "manifest.json").read_text())["config_echo"]
    cfgfile = tmp_path / "echo.json"
    cfgfile.write_text(json.dumps(echo))
    command = argv[:2] if argv[0] == "synth" else argv[:1]
    assert main(command + ["--config", str(cfgfile), "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert "manifest.json" in names
    assert sorted(p.name for p in second.iterdir()) == names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize(
    "command",
    [["train"], ["cv"], ["synth", "spiral"], ["synth", "regression"],
     ["variance"], ["selfcheck"]],
    ids=lambda c: "-".join(c),
)
def test_help_lists_a_flag_for_every_config_key(tmp_path, capsys, command):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"no_such_key": 1}))
    code, _, stderr = _run(capsys, *command, "--config", str(cfgfile))
    assert code == 2
    message = json.loads(stderr.strip().splitlines()[-1])["error"]["message"]
    keys = ast.literal_eval(message.split("valid: ")[1])
    assert len(keys) >= 4
    with pytest.raises(SystemExit) as stop:
        main(command + ["--help"])
    assert stop.value.code == 0
    flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert {"--" + key.replace("_", "-") for key in keys} <= flags
