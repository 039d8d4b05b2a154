import ast
import json
import math
import re

import numpy as np
import pytest

from pinvnet.cli import build_parser, main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def spiral_csv(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["synth", "spiral", "--arms", "3", "--per-arm", "20",
                 "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()  # the test reads only its own run's output
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


@pytest.mark.parametrize("flags, pinv", [
    ([], {"tolerance": None, "ridge": 0.0}),
    (["--tolerance", "0"], {"tolerance": 0.0, "ridge": 0.0}),
    (["--tolerance", "1e-4", "--ridge", "0.5"], {"tolerance": 1e-4, "ridge": 0.5}),
], ids=["automatic", "zero", "explicit-ridge"])
def test_train_report_echoes_the_pinv_options_as_they_are(tmp_path, spiral_csv,
                                                           flags, pinv):
    # null is the automatic cutoff; 0.0 keeps every nonzero singular value
    out = tmp_path / "run"
    assert main(["train", "--data", str(spiral_csv), "--structure", "10-3",
                 *flags, "--out", str(out)]) == 0
    assert json.loads((out / "train_report.json").read_text())["pinv"] == pinv


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


def test_consecutive_main_calls_in_one_process_stay_independent(tmp_path, capsys,
                                                                 spiral_csv):
    # main reuses one parser per process; no call may leak into the next
    base = ["train", "--data", str(spiral_csv), "--structure", "10-3"]

    def echo(name):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        return manifest["config_echo"]

    assert main([*base, "--linear-output", "--out", str(tmp_path / "a")]) == 0
    assert main([*base, "--out", str(tmp_path / "b")]) == 0
    assert echo("a")["linear_output"] is True
    assert echo("b")["linear_output"] is False
    with pytest.raises(SystemExit) as exited:
        main([*base, "--linear-output", "--no-such-flag"])
    assert exited.value.code == 2
    assert main([*base, "--linear-output", "--c", "x"]) == 2
    assert main([*base, "--out", str(tmp_path / "c")]) == 0
    assert echo("c") == echo("b")
    assert ((tmp_path / "c" / "train_report.json").read_bytes()
            == (tmp_path / "b" / "train_report.json").read_bytes())


def test_mean_impute_of_an_all_missing_column_exits_2_with_one_line(tmp_path, capsys):
    p = tmp_path / "d.csv"
    p.write_text("1,?,a\n2,,b\n3,NA,a\n")
    code, stdout, stderr = _run(capsys, "train", "--data", str(p), "--structure", "2",
                                "--missing", "mean-impute", "--out", str(tmp_path / "r"))
    assert code == 2 and stdout == ""
    assert json.loads(stderr) == {"error": {
        "type": "invalid-input", "message": "column 1 has no present cell to mean-impute"}}


def test_a_data_file_that_is_not_utf8_exits_2_with_one_line(tmp_path, capsys):
    p = tmp_path / "latin.csv"
    p.write_bytes(b"1.0,2.0,caf\xe9")
    code, stdout, stderr = _run(capsys, "train", "--data", str(p), "--structure", "4-2",
                                "--out", str(tmp_path / "r"))
    assert code == 2 and stdout == ""
    assert json.loads(stderr) == {"error": {
        "type": "invalid-input", "message": "line 1: byte 0xe9 at offset 11 is not UTF-8"}}


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


def test_selfcheck_passes_clean_and_catches_injected_fault(capsys, monkeypatch):
    from pinvnet import cli
    from pinvnet.linalg import pinv

    code, stdout, _ = _run(capsys, "selfcheck", "--shapes", "40x30",
                           "--count", "12", "--seed", "3")
    assert code == 0
    assert "selfcheck ok" in stdout
    # negative control: the first inverse comes back twice too large
    calls = []

    def faulty_pinv(a):
        calls.append(a)
        return pinv(a) * (2.0 if len(calls) == 1 else 1.0)

    monkeypatch.setattr(cli, "pinv", faulty_pinv)
    code, stdout, _ = _run(capsys, "selfcheck", "--shapes", "40x30",
                           "--count", "12", "--seed", "3")
    assert code == 1
    assert "FAILED" in stdout


_SOLVER_ECHO = {
    "activation": "softplus08", "c": 1.0, "clamp_margin": 1e-09,
    "data": "data/spiral_train.csv", "header": False, "label_column": "-1",
    "linear_output": False, "missing": "drop", "ridge": 0.0, "task": "auto",
    "tolerance": "auto",
}


# each run's stdout lines (floats to 1e-9) and manifest, pinned; selfcheck
# writes no manifest, and its residuals are roundoff, so only their keys
@pytest.mark.parametrize("argv, stdout, manifest", [
    (["synth", "spiral", "--arms", "3", "--per-arm", "20", "--seed", "1"],
     [("spiral_train.csv rows", 30), ("spiral_test.csv rows", 30)],
     {"artifact_paths": ["spiral_test.csv", "spiral_train.csv"],
      "command": "synth spiral",
      "config_echo": {"arms": 3, "noise": 0.3, "per_arm": 20, "seed": 1}, "seed": 1}),
    (["train", "--data", "data/spiral_train.csv", "--structure", "10-3", "--seed", "7"],
     [("train_sse", 6.905522374333016), ("train_accuracy", 0.6666666666666666)],
     {"artifact_paths": ["train_report.json"], "command": "train",
      "config_echo": {**_SOLVER_ECHO, "dump_weights": False, "init": "random",
                      "seed": 7, "solve_order": None, "structure": "10-3"},
      "seed": 7}),
    (["cv", "--data", "data/spiral_train.csv", "--grid", "2,5", "--folds", "3",
      "--trials", "1"],
     [("selected_h", 2), ("mean_accuracy", 0.3333333333333333)],
     {"artifact_paths": ["cv_report.json"], "command": "cv",
      "config_echo": {**_SOLVER_ECHO, "folds": 3, "grid": "2,5", "seed": 0,
                      "stratified": True, "template": "h-q", "trials": 1},
      "seed": 0}),
    (["variance", "--m", "12", "--d", "3", "--trials", "5", "--max-depth", "3",
      "--activation", "identity"],
     [("depth 1 mean", 0.08953202689007417), ("depth 2 mean", 6.070912055358763),
      ("depth 3 mean", 6.070912055358767)],
     {"artifact_paths": ["variance.csv"], "command": "variance",
      "config_echo": {"activation": "identity", "d": 3, "m": 12, "max_depth": 3,
                      "noise_scale": 1.0, "range": [-5.0, 5.0], "seed": 0,
                      "trials": 5},
      "seed": 0}),
    (["selfcheck", "--shapes", "20x10", "--count", "6"],
     [("checks", 6), ("worst_penrose_residual", None), ("worst_oracle_error", None),
      ("selfcheck", "ok")],
     None),
], ids=["synth", "train", "cv", "variance", "selfcheck"])
def test_every_subcommand_prints_its_lines_and_one_elapsed_line(
        tmp_path, capsys, monkeypatch, argv, stdout, manifest):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "spiral", "--arms", "3", "--per-arm", "20",
                 "--seed", "1", "--out", "data"]) == 0
    capsys.readouterr()
    out = [] if manifest is None else ["--out", "run"]
    code, printed, stderr = _run(capsys, *argv, *out)
    assert code == 0
    assert re.fullmatch(r"elapsed \d+\.\d{3}s\n", stderr)
    lines = printed.splitlines()
    assert len(lines) == len(stdout)
    for line, (key, value) in zip(lines, stdout):
        head, _, tail = line.rpartition(" ")
        assert head == key
        if isinstance(value, float):
            assert float(tail) == pytest.approx(value, rel=1e-9)
        elif value is not None:
            assert tail == str(value)
    if manifest is not None:
        assert json.loads((tmp_path / "run" / "manifest.json").read_text()) == manifest


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
        (["synth", "regression", "--noise", "inf"], "noise_frac"),
        (["synth", "regression", "--noise", "nan"], "noise_frac"),
        (["train", "--structure", "4-3", "--c", "inf"], "scale_c"),
        (["train", "--structure", "4-3", "--clamp-margin", "nan"],
         "clamp_margin"),
        (["train", "--structure", "4-3", "--activation", "exp:inf"], "alpha"),
        (["variance", "--activation", "exp:inf"], "alpha"),
        (["variance", "--range=-1e308,1e308"], "input_range"),
        (["synth", "regression", "--noise", "1.7e308"], "noise_frac"),
        (["train", "--structure", "5-4-3", "--clamp-margin", "1e308"],
         "clamp_margin"),
        (["train", "--structure", "4-3", "--activation", "foo"], "--activation"),
        (["variance", "--activation", "foo"], "--activation"),
        (["train", "--structure", "5-x-3"], "--structure"),
        (["train", "--structure", "4-3", "--init", "data_matrix",
          "--solve-order", "1"], "data_matrix"),
        (["train", "--structure", "4-3", "--init", "data_matrix", "--c", "2"],
         "scale_c"),
    ],
    ids=["solve-order", "grid", "range", "shapes", "count", "folds",
         "spiral-arms", "regression-noisy-sets", "noise-scale-inf",
         "range-minus-inf", "tolerance-nan", "ridge-nan", "train-seed",
         "variance-seed", "selfcheck-seed", "regression-noise-inf",
         "regression-noise-nan", "c-inf", "clamp-margin-nan",
         "train-exp-inf", "variance-exp-inf", "range-span-overflow",
         "regression-noise-span-overflow", "clamp-margin-overflow",
         "train-activation-unknown", "variance-activation-unknown",
         "train-structure-token", "data-matrix-solve-order", "data-matrix-c"],
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


def test_data_matrix_train_echoes_seed_but_draws_nothing(tmp_path, spiral_csv):
    runs = {}
    for tag, seed in (("seeded", ["--seed", "5"]), ("plain", [])):
        out = runs[tag] = tmp_path / tag
        assert main(["train", "--data", str(spiral_csv), "--structure", "30-3",
                     "--init", "data_matrix", "--dump-weights", *seed,
                     "--out", str(out)]) == 0
    assert json.loads((runs["seeded"] / "manifest.json").read_text())["seed"] == 5
    for name in ("weights_01.csv", "weights_02.csv"):
        assert ((runs["seeded"] / name).read_bytes()
                == (runs["plain"] / name).read_bytes()), name


@pytest.mark.parametrize(
    "argv, name",
    [
        (["train", "--structure", "3-1", "--linear-output"], "train_report.json"),
        (["cv", "--grid", "1,2", "--folds", "3", "--trials", "1",
          "--linear-output"], "cv_report.json"),
        (["variance", "--trials", "5", "--max-depth", "3",
          "--noise-scale", "1e300"], "variance.csv"),
    ],
    ids=["train", "cv", "variance"],
)
def test_non_finite_results_exit_1_and_write_nothing(tmp_path, capsys, argv,
                                                     name):
    # targets near 1e200 overflow the SSE; noise near 1e300 overflows the
    # variance; both used to reach the artifacts as Infinity, inf or nan
    if argv[0] != "variance":
        rng = np.random.default_rng(0)
        data = np.column_stack([rng.uniform(-1, 1, (30, 2)),
                                rng.uniform(-1, 1, 30) * 1e200])
        np.savetxt(tmp_path / "big.csv", data, fmt="%.17g", delimiter=",")
        argv = argv + ["--data", str(tmp_path / "big.csv")]
    code, _, stderr = _run(capsys, *argv, "--out", str(tmp_path / "run"))
    assert code == 1
    err = json.loads(stderr.strip().splitlines()[-1])["error"]
    assert err["type"] == "error"
    assert name in err["message"] and "non-finite" in err["message"]
    assert "Traceback" not in stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "structure, margin", [("5-4-3", "1e200"), ("5-3", "1e308")],
    ids=["overflow-sse", "overflow-residuals-only"])
def test_overflowing_train_fails_with_one_line_naming_the_field(
        tmp_path, capsys, spiral_csv, structure, margin):
    # 1e200 overflows train_sse and the residuals; 1e308 only the
    # residuals, while train_sse stays finite
    capsys.readouterr()
    code, stdout, stderr = _run(capsys, "train", "--data", str(spiral_csv),
                                "--structure", structure, "--clamp-margin",
                                margin, "--out", str(tmp_path / "run"))
    assert code == 1
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    err = json.loads(stderr)["error"]
    assert err["type"] == "error"
    assert "per_layer_solve_residuals" in err["message"]
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
        (["train", "--structure", "4-3"], {"header": "false"}, "--header"),
        (["train", "--structure", "4-3"], {"linear_output": "false"},
         "--linear-output"),
        (["cv"], {"template": 3}, "--template"),
        (["train", "--structure", "4-3"], {"activation": 1}, "--activation"),
        (["train"], {"structure": 5}, "--structure"),
        (["cv"], {"folds": 2.9}, "--folds"),
        (["train", "--structure", "4-3"], {"seed": True}, "--seed"),
        (["selfcheck"], {"count": 1e308}, "--count"),
        (["cv"], {"grid": [2.5]}, "--grid"),
        (["train", "--structure", "4-3"], {"solve_order": [True]},
         "--solve-order"),
        (["variance"], {"range": [True, 2]}, "--range"),
        (["train", "--structure", "4-3"], {"c": False}, "--c"),
        (["cv"], {"grid": 5}, "--grid"),
        (["train", "--structure", "4-3"], {"clamp_margin": None}, "--clamp-margin"),
        (["train", "--structure", "4-3"], {"c": 10 ** 400}, "--c"),
    ],
    ids=["cv-folds", "cv-trials", "cv-c", "cv-clamp-margin", "train-seed",
         "train-clamp-margin", "train-ridge", "train-tolerance", "spiral-arms",
         "regression-noise", "variance-max-depth", "selfcheck-count",
         "train-header", "train-linear-output",
         "cv-template", "train-activation", "train-structure",
         "cv-folds-float", "train-seed-bool", "selfcheck-count-huge-float",
         "cv-grid-float", "train-solve-order-bool", "variance-range-bool",
         "train-c-bool", "cv-grid-not-a-list", "train-clamp-margin-null",
         "train-c-huge-int"],
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


@pytest.mark.parametrize("config, message", [
    ({"task": "x"}, "--task must be one of auto, classification, regression, got 'x'"),
    ({"init": 5}, "--init must be one of random, data_matrix, got 5"),
    ({"missing": None}, "--missing must be one of drop, mean-impute, got None"),
    ({"activation": 5}, "--activation must be text, got 5"),
    ({"structure": ["4-3"]}, "--structure must be text, got ['4-3']"),
])
def test_text_and_choice_options_name_the_flag_and_the_choices(
        tmp_path, capsys, spiral_csv, config, message):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"structure": "4-3", **config}))
    code, _, stderr = _run(capsys, "train", "--data", str(spiral_csv),
                           "--config", str(cfgfile), "--out", str(tmp_path / "run"))
    assert code == 2
    assert json.loads(stderr)["error"] == {"type": "invalid-input", "message": message}
    assert not (tmp_path / "run").exists()


def test_help_shows_the_choices_of_a_choice_option(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    help_text = capsys.readouterr().out
    assert "--task {auto,classification,regression}" in help_text
    assert "--init {random,data_matrix}" in help_text


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
        ["train", "--structure", "5-3"],
        ["cv", "--grid", "2,3", "--folds", "3", "--trials", "1"],
        ["variance", "--m", "12", "--d", "3", "--trials", "5",
         "--max-depth", "2", "--range=-2,2"],
        ["synth", "spiral", "--arms", "3", "--per-arm", "10", "--noise", "0.1"],
        ["synth", "regression", "--noisy-sets", "2", "--seed", "3"],
    ],
    ids=["train", "train-no-weights", "cv", "variance", "spiral", "regression"],
)
def test_manifest_echo_reruns_to_identical_artifacts(tmp_path, spiral_csv,
                                                     argv):
    if argv[0] in ("train", "cv"):
        argv = argv + ["--data", str(spiral_csv)]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(argv + ["--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    echo = manifest["config_echo"]
    cfgfile = tmp_path / "echo.json"
    cfgfile.write_text(json.dumps(echo))
    command = argv[:2] if argv[0] == "synth" else argv[:1]
    assert main(command + ["--config", str(cfgfile), "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert "manifest.json" in names
    assert manifest["artifact_paths"] == [n for n in names if n != "manifest.json"]
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
    options = build_parser().parse_args(command).options
    assert keys == sorted(opt.name for opt in options)
    with pytest.raises(SystemExit) as stop:
        main(command + ["--help"])
    assert stop.value.code == 0
    flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert {"--" + key.replace("_", "-") for key in keys} <= flags



# every option of every subcommand, set through --config to each of these
HOSTILE = [math.nan, math.inf, -math.inf, -1, 0, 1e308, "", "x", [], None,
           True]
NON_FINITE = re.compile(r"(?i)\bnan\b|\binf(inity)?\b")
SWEEP_BASE = {
    ("train",): {"structure": "4-3"},
    ("cv",): {"grid": [1, 2], "folds": 2, "trials": 1},
    ("synth", "spiral"): {"arms": 2, "per_arm": 4},
    ("synth", "regression"): {"noisy_sets": 1},
    ("variance",): {"m": 6, "d": 2, "trials": 2, "max_depth": 3},
    ("selfcheck",): {"shapes": "4x3", "count": 3},
}
# the structured error types each failing exit code may carry
ERROR_TYPES = {2: ("invalid-input", "file-not-found"),
               1: ("error", "domain-violation")}


def _error_type(stderr):
    """The type of the structured error on stderr's last line, or None."""
    try:
        return json.loads(stderr.strip().splitlines()[-1])["error"]["type"]
    except (IndexError, ValueError, KeyError, TypeError):
        return None


def _tiny_csv(folder):
    """12 rows, 2 features, 3 classes."""
    data = folder / "tiny.csv"
    data.write_text("".join(f"{i / 9},{(i * 7 % 9) / 9},{'abc'[i % 3]}\n"
                            for i in range(12)))
    return data


def _reject_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


@pytest.mark.parametrize("command", list(SWEEP_BASE), ids="-".join)
def test_hostile_config_values_end_cleanly(tmp_path, capsys, monkeypatch,
                                           command):
    """Each run exits 0, exits 2 with a structured invalid-input or
    file-not-found error, or exits 1 with a structured error, and never
    raises, prints a traceback or writes a non-finite number into an
    artifact."""
    from pinvnet import cli, parallel

    monkeypatch.setattr(parallel, "_usable_cores", lambda: 1)
    data = _tiny_csv(tmp_path)
    base = dict(SWEEP_BASE[command])
    if command[0] in ("train", "cv"):
        base["data"] = str(data)
    options = cli.build_parser().parse_args(list(command)).options
    problems = []
    for opt in options:
        for i, value in enumerate(HOSTILE):
            run = tmp_path / f"{opt.name}_{i}"
            run.mkdir()
            monkeypatch.chdir(run)
            (run / "cfg.json").write_text(json.dumps({**base, opt.name: value}))
            case = f"{opt.name}={value!r}"
            try:
                code = main([*command, "--config", "cfg.json"])
            except BaseException as exc:  # noqa: BLE001 - reported below
                code = f"raised {exc!r}"
            err = capsys.readouterr().err
            if "Traceback" in err:
                problems.append(f"{case} printed a traceback")
            elif not (code == 0 or _error_type(err) in ERROR_TYPES.get(code, ())):
                problems.append(f"{case} ended with {code}: {err[-200:]}")
            for path in run.rglob("*"):
                if path.is_file() and path.name != "cfg.json":
                    text = path.read_text(encoding="utf-8")
                    if path.suffix == ".json":
                        json.loads(text, parse_constant=_reject_constant)
                    if NON_FINITE.search(text):
                        problems.append(f"{case} wrote a non-finite {path.name}")
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        # the floor overflows a solved weight, not a pulled-back target
        (["cv", "--config", "cfg.json"], 2, "clamp_margin"),
        (["variance", "--trials", "5", "--max-depth", "3",
          "--noise-scale", "1e300"], 1, "variance.csv"),
    ],
    ids=["cv-weight-overflow", "variance-noise-overflow"],
)
# pytest records in-process warnings instead of printing them; as errors
# they fail the run
@pytest.mark.filterwarnings("error")
def test_overflow_leaves_one_stderr_line_in_process_and_in_workers(
        tmp_path, capfd, monkeypatch, argv, code, message):
    # two usable cores send cv's outer folds to worker processes, whose
    # stderr only the file-descriptor capture sees; a pooled worker keeps
    # the stderr it started with, so the test starts and ends with none
    from pinvnet import parallel

    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"grid": [1, 2], "folds": 2, "trials": 1, "clamp_margin": 1e308,
         "data": _tiny_csv(tmp_path).name}))
    parallel._shutdown()
    try:
        assert main(argv + ["--out", "run"]) == code
    finally:
        parallel._shutdown()
    err = capfd.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert message in json.loads(err)["error"]["message"]
    assert not (tmp_path / "run").exists()
