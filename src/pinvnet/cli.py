"""Command line front end.

Subcommands: train, cv, synth, variance, selfcheck. Structured reports go
to --out as JSON/CSV; every run also writes a manifest echoing the fully
resolved configuration, so a run is reproducible from its manifest alone.
All file artifacts are byte-stable for a fixed seed; timing is printed to
stderr only.

A JSON config file (--config) may supply any option by its long name with
dashes replaced by underscores; explicit command line flags win.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .activations import format_kind, parse_kind
from .analysis import VarianceConfig, mc_output_variance, write_variance_csv
from .datasets import (
    CvPlan,
    cv_search,
    gen_regression,
    gen_spiral,
    load_csv,
    training_targets,
    write_dataset_csv,
    accuracy,
)
from .errors import (
    CsvParseError,
    DomainViolationError,
    InvalidArgumentError,
    InvalidConfigurationError,
    PinvnetError,
)
from .linalg import Matrix, PinvOptions, penrose_residual, pinv, write_matrix_csv
from .network import build_spec, forward
from .training import InitScheme, TrainConfig, train

DEFAULT_GRID = (1, 2, 3, 5, 10, 20, 30, 50, 80, 100, 200, 500)

_TRAIN_DEFAULTS = {
    "data": None,
    "structure": None,
    "activation": "softplus08",
    "linear_output": False,
    "init": "random",
    "c": 1.0,
    "seed": 0,
    "clamp_margin": 1e-9,
    "tolerance": "auto",
    "ridge": 0.0,
    "solve_order": None,
    "task": "auto",
    "label_column": "-1",
    "header": False,
    "missing": "drop",
    "dump_weights": False,
    "out": ".",
}

_CV_DEFAULTS = {
    "data": None,
    "template": "h-q",
    "grid": None,
    "folds": 10,
    "trials": 10,
    "seed": 0,
    "stratified": True,
    "activation": "softplus08",
    "linear_output": False,
    "c": 1.0,
    "clamp_margin": 1e-9,
    "tolerance": "auto",
    "ridge": 0.0,
    "task": "auto",
    "label_column": "-1",
    "header": False,
    "missing": "drop",
    "out": ".",
}

_SPIRAL_DEFAULTS = {
    "arms": 6, "per_arm": 500, "noise": 0.3, "seed": 0, "out": ".",
}
_REGRESSION_DEFAULTS = {
    "noisy_sets": 10, "noise": 0.2, "seed": 0, "out": ".",
}
_VARIANCE_DEFAULTS = {
    "m": 100, "d": 10, "range": (-5.0, 5.0), "noise_scale": 1.0,
    "trials": 1000, "max_depth": 8, "activation": "exp:0.0001",
    "seed": 0, "out": ".",
}
_SELFCHECK_DEFAULTS = {
    "shapes": "200x100", "count": 100, "seed": 0, "inject_fault": False,
}


def _resolve(args, defaults):
    """Merge CLI values over the config file over built-in defaults."""
    from_file = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            from_file = json.load(fh)
        unknown = set(from_file) - set(defaults)
        if unknown:
            raise InvalidConfigurationError(
                f"unknown config keys {sorted(unknown)}; valid: {sorted(defaults)}"
            )
    merged = {}
    for key, builtin in defaults.items():
        given = getattr(args, key, None)
        if given is not None:
            merged[key] = given
        elif key in from_file:
            merged[key] = from_file[key]
        else:
            merged[key] = builtin
    return merged


def _require(merged, *keys):
    for key in keys:
        if merged[key] is None:
            raise InvalidConfigurationError(
                f"--{key.replace('_', '-')} is required (flag or config file)"
            )


def _json_dump(obj, path: Path):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_manifest(out: Path, command: str, merged, artifacts):
    # the echo describes the computation, not its destination, so the
    # same run into two directories yields byte-identical manifests
    echo = {k: merged[k] for k in sorted(merged) if k != "out"}
    manifest = {
        "command": command,
        "config_echo": echo,
        "seed": merged.get("seed"),
        "artifact_paths": sorted(str(a) for a in artifacts),
    }
    _json_dump(manifest, out / "manifest.json")


def _pinv_opts(merged) -> PinvOptions:
    tol = str(merged["tolerance"])
    ridge = float(merged["ridge"])
    if tol == "auto":
        return PinvOptions.automatic(ridge)
    return PinvOptions.explicit(float(tol), ridge)


def _label_column(merged):
    text = str(merged["label_column"])
    try:
        return int(text)
    except ValueError:
        return text


def _load_dataset(merged):
    return load_csv(
        merged["data"],
        label_column=_label_column(merged),
        header=bool(merged["header"]),
        missing_policy=merged["missing"],
        kind=merged["task"],
    )


def cmd_train(args) -> int:
    merged = _resolve(args, _TRAIN_DEFAULTS)
    _require(merged, "data", "structure")
    t0 = time.perf_counter()
    ds = _load_dataset(merged)
    activation = parse_kind(merged["activation"])
    linear = bool(merged["linear_output"])
    spec = build_spec(merged["structure"], ds.x.cols, activation, linear)
    targets = training_targets(ds, linear)
    if merged["init"] == "data_matrix":
        scheme = InitScheme.data_matrix()
    elif merged["init"] == "random":
        order = merged["solve_order"]
        if isinstance(order, str):
            order = tuple(int(v) for v in order.split(","))
        scheme = InitScheme.random(int(merged["seed"]), float(merged["c"]), order)
    else:
        raise InvalidConfigurationError(f"unknown init {merged['init']!r}")
    cfg = TrainConfig(scheme, _pinv_opts(merged), merged["clamp_margin"])
    report = train(spec, ds.x, targets, cfg)

    out = Path(merged["out"])
    out.mkdir(parents=True, exist_ok=True)
    artifacts = ["train_report.json"]
    body = {
        "structure": merged["structure"],
        "activation": format_kind(activation),
        "linear_output": linear,
        "task": ds.kind,
        "init": {
            "kind": merged["init"],
            "seed": int(merged["seed"]),
            "c": float(merged["c"]),
            "solve_order": list(scheme.solve_order) if scheme.solve_order else None,
        },
        "pinv": {
            "tolerance_mode": cfg.pinv_opts.tolerance_mode,
            "tolerance": cfg.pinv_opts.tolerance,
            "ridge": cfg.pinv_opts.ridge,
        },
        "clamp_margin": cfg.clamp_margin,
        "per_layer_solve_residuals": report.per_layer_solve_residuals,
        "clamped_entry_counts": report.clamped_entry_counts,
        "train_sse": report.train_sse,
    }
    print(f"train_sse {report.train_sse!r}")
    if ds.kind == "classification":
        acc = accuracy(forward(spec, report.weights, ds.x), ds)
        body["train_accuracy"] = acc
        print(f"train_accuracy {acc!r}")
    _json_dump(body, out / "train_report.json")
    if merged["dump_weights"]:
        for k, w in enumerate(report.weights.weights, start=1):
            name = f"weights_{k:02d}.csv"
            write_matrix_csv(w, out / name)
            artifacts.append(name)
    _write_manifest(out, "train", merged, artifacts)
    print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


def cmd_cv(args) -> int:
    merged = _resolve(args, _CV_DEFAULTS)
    _require(merged, "data")
    t0 = time.perf_counter()
    ds = _load_dataset(merged)
    stratified = bool(merged["stratified"])
    if ds.kind == "regression" and stratified:
        print("warning: stratification needs class labels; "
              "falling back to unstratified folds", file=sys.stderr)
        stratified = False
        merged["stratified"] = False
    grid = merged["grid"]
    if grid is None:
        grid = list(DEFAULT_GRID)
    elif isinstance(grid, str):
        grid = [int(v) for v in grid.split(",")]
    grid = [int(v) for v in grid]
    activation = parse_kind(merged["activation"])
    linear = bool(merged["linear_output"])
    plan = CvPlan(int(merged["folds"]), int(merged["trials"]),
                  int(merged["seed"]), stratified)
    cfg = TrainConfig(
        InitScheme.random(int(merged["seed"]), float(merged["c"])),
        _pinv_opts(merged),
        merged["clamp_margin"],
    )
    result = cv_search(ds, [merged["template"]], grid, plan, cfg,
                       activation, linear)
    out = Path(merged["out"])
    out.mkdir(parents=True, exist_ok=True)
    body = {
        "template": result.template,
        "grid": grid,
        "selected_h": result.h,
        "mean_accuracy": result.mean_accuracy,
        "per_trial_accuracies": list(result.per_trial_accuracies),
        "accuracy_grid": [list(row) for row in result.accuracy_grid],
        "selections": [list(s) for s in result.selections],
        "score_kind": "accuracy" if ds.kind == "classification" else "neg_sse",
    }
    _json_dump(body, out / "cv_report.json")
    _write_manifest(out, "cv", merged, ["cv_report.json"])
    print(f"selected_h {result.h}")
    print(f"mean_accuracy {result.mean_accuracy!r}")
    print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    which = args.generator
    defaults = _SPIRAL_DEFAULTS if which == "spiral" else _REGRESSION_DEFAULTS
    merged = _resolve(args, defaults)
    out = Path(merged["out"])
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    if which == "spiral":
        train_ds, test_ds = gen_spiral(
            int(merged["arms"]), int(merged["per_arm"]),
            float(merged["noise"]), int(merged["seed"]),
        )
        write_dataset_csv(train_ds, out / "spiral_train.csv")
        write_dataset_csv(test_ds, out / "spiral_test.csv")
        artifacts += ["spiral_train.csv", "spiral_test.csv"]
        print(f"spiral_train.csv rows {train_ds.x.rows}")
        print(f"spiral_test.csv rows {test_ds.x.rows}")
    else:
        trains, test = gen_regression(
            int(merged["noisy_sets"]), float(merged["noise"]), int(merged["seed"]),
        )
        for k, ds in enumerate(trains):
            name = f"train_{k:02d}.csv"
            write_dataset_csv(ds, out / name)
            artifacts.append(name)
        write_dataset_csv(test, out / "test.csv")
        artifacts.append("test.csv")
        print(f"train files {len(trains)}")
        print(f"test.csv rows {test.x.rows}")
    _write_manifest(out, f"synth {which}", merged, artifacts)
    return 0


def cmd_variance(args) -> int:
    merged = _resolve(args, _VARIANCE_DEFAULTS)
    t0 = time.perf_counter()
    rng_range = merged["range"]
    if isinstance(rng_range, str):
        rng_range = [float(v) for v in rng_range.split(",")]
    lo, hi = (float(rng_range[0]), float(rng_range[1]))
    cfg = VarianceConfig(
        m=int(merged["m"]),
        d=int(merged["d"]),
        input_range=(lo, hi),
        noise_scale=float(merged["noise_scale"]),
        trials=int(merged["trials"]),
        max_depth=int(merged["max_depth"]),
        activation=parse_kind(merged["activation"]),
        seed=int(merged["seed"]),
    )
    report = mc_output_variance(cfg)
    out = Path(merged["out"])
    out.mkdir(parents=True, exist_ok=True)
    merged["range"] = [lo, hi]
    write_variance_csv(report, out / "variance.csv")
    _write_manifest(out, "variance", merged, ["variance.csv"])
    for k, mean in enumerate(report.per_depth_mean, start=1):
        print(f"depth {k} mean {mean!r}")
    print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


def cmd_selfcheck(args) -> int:
    merged = _resolve(args, _SELFCHECK_DEFAULTS)
    try:
        mtext, ntext = str(merged["shapes"]).lower().split("x")
        max_m, max_n = int(mtext), int(ntext)
    except ValueError:
        raise InvalidConfigurationError(
            f"--shapes must look like 200x100, got {merged['shapes']!r}"
        ) from None
    count = int(merged["count"])
    rng = np.random.default_rng(int(merged["seed"]))
    worst_penrose = 0.0
    worst_oracle = 0.0
    failures = 0
    for i in range(count):
        m = int(rng.integers(1, max_m + 1))
        n = int(rng.integers(1, max_n + 1))
        a = rng.standard_normal((m, n))
        if i % 3 == 2 and min(m, n) > 1:
            # planted rank deficiency
            r = int(rng.integers(1, min(m, n)))
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        p = pinv(a).array
        if merged["inject_fault"] and i == 0:
            p = p * 2.0  # test hook: break the inverse deliberately
        res = penrose_residual(a, p)
        worst_penrose = max(worst_penrose, res)
        if res > 1e-8:
            failures += 1
        if i % 3 != 2 and m != n:
            # full-rank oracle: tall (A^T A)^-1 A^T, wide A^T (A A^T)^-1
            if m > n:
                oracle = np.linalg.solve(a.T @ a, a.T)
            else:
                oracle = np.linalg.solve(a @ a.T, a).T
            rel = float(np.linalg.norm(p - oracle) / max(1e-300, np.linalg.norm(oracle)))
            worst_oracle = max(worst_oracle, rel)
            if rel > 1e-8:
                failures += 1
    print(f"checks {count}")
    print(f"worst_penrose_residual {worst_penrose!r}")
    print(f"worst_oracle_error {worst_oracle!r}")
    print("selfcheck " + ("ok" if failures == 0 else f"FAILED ({failures})"))
    return 0 if failures == 0 else 1


def _add_common_data_flags(p):
    p.add_argument("--data", help="dataset CSV path")
    p.add_argument("--task", choices=["auto", "classification", "regression"])
    p.add_argument("--label-column", dest="label_column",
                   help="label column index or (with --header) name")
    p.add_argument("--header", action="store_const", const=True,
                   help="first CSV row is a header")
    p.add_argument("--missing", choices=["drop", "mean-impute"],
                   help="missing-cell policy")


def _add_solver_flags(p):
    p.add_argument("--activation", help="identity|softplus|softplus08|exp:<alpha>")
    p.add_argument("--linear-output", dest="linear_output",
                   action="store_const", const=True,
                   help="skip the final activation on output")
    p.add_argument("--c", type=float, help="placeholder scale factor")
    p.add_argument("--seed", type=int)
    p.add_argument("--clamp-margin", dest="clamp_margin", type=float)
    p.add_argument("--tolerance",
                   help="'auto' or an absolute singular-value cutoff")
    p.add_argument("--ridge", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinvnet",
        description="Analytic pseudoinverse training of feedforward networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="solve one network against a dataset")
    _add_common_data_flags(p)
    _add_solver_flags(p)
    p.add_argument("--structure", help='widths like "30-50^r3-250-6"')
    p.add_argument("--init", choices=["random", "data_matrix"])
    p.add_argument("--solve-order", dest="solve_order",
                   help="custom inner-layer order, e.g. 2,1")
    p.add_argument("--dump-weights", dest="dump_weights",
                   action="store_const", const=True)
    p.add_argument("--out")
    p.add_argument("--config", help="JSON file of option values")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cv", help="cross-validated width search")
    _add_common_data_flags(p)
    _add_solver_flags(p)
    p.add_argument("--template", help='width template like "h-q" or "2h-h-q"')
    p.add_argument("--grid", help="comma-separated h values")
    p.add_argument("--folds", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--stratified", dest="stratified",
                   action="store_const", const=True)
    p.add_argument("--no-stratified", dest="stratified",
                   action="store_const", const=False)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("synth", help="write synthetic datasets")
    gen = p.add_subparsers(dest="generator", required=True)
    ps = gen.add_parser("spiral")
    ps.add_argument("--arms", type=int)
    ps.add_argument("--per-arm", dest="per_arm", type=int)
    ps.add_argument("--noise", type=float)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--out")
    ps.add_argument("--config")
    ps.set_defaults(func=cmd_synth)
    pr = gen.add_parser("regression")
    pr.add_argument("--noisy-sets", dest="noisy_sets", type=int)
    pr.add_argument("--noise", type=float)
    pr.add_argument("--seed", type=int)
    pr.add_argument("--out")
    pr.add_argument("--config")
    pr.set_defaults(func=cmd_synth)

    p = sub.add_parser("variance", help="output-variance Monte Carlo study")
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--range", help="lo,hi input range")
    p.add_argument("--noise-scale", dest="noise_scale", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--activation")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("selfcheck", help="randomized pseudoinverse checks")
    p.add_argument("--shapes", help="max shape like 200x100")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--inject-fault", dest="inject_fault",
                   action="store_const", const=True,
                   help="negative control: corrupt one inverse")
    p.add_argument("--config")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def _fail(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": {"type": kind, "message": str(exc)}}),
          file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        _fail("file-not-found", exc)
        return 2
    except (InvalidArgumentError, InvalidConfigurationError, CsvParseError) as exc:
        _fail("invalid-input", exc)
        return 2
    except DomainViolationError as exc:
        _fail("domain-violation", exc)
        return 1
    except PinvnetError as exc:
        _fail("error", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
