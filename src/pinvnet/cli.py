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
from .linalg import PinvOptions, penrose_residual, pinv, write_matrix_csv
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
            try:
                from_file = json.load(fh)
            except ValueError as exc:
                raise InvalidConfigurationError(
                    f"config file {args.config} is not valid JSON: {exc}"
                ) from None
        if not isinstance(from_file, dict):
            raise InvalidConfigurationError(
                f"config file {args.config} must hold a JSON object"
            )
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


def _numbers(value, kind, key):
    """A comma-separated flag value, or a list from the config file, as a
    list of `kind`."""
    items = value.split(",") if isinstance(value, str) else value
    try:
        return [kind(v) for v in items]
    except (TypeError, ValueError):
        raise InvalidConfigurationError(
            f"--{key.replace('_', '-')} must be comma-separated "
            f"{kind.__name__} values, got {value!r}"
        ) from None


def _scalar(value, kind, key):
    """A flag or config-file value as one `kind` (int or float)."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidConfigurationError(
            f"--{key.replace('_', '-')} must be a {kind.__name__} value, "
            f"got {value!r}"
        ) from None


def _clamp_margin(merged):
    margin = merged["clamp_margin"]
    return None if margin is None else _scalar(margin, float, "clamp_margin")


def _pinv_opts(merged) -> PinvOptions:
    tol = str(merged["tolerance"])
    ridge = _scalar(merged["ridge"], float, "ridge")
    if tol == "auto":
        return PinvOptions.automatic(ridge)
    return PinvOptions.explicit(_scalar(tol, float, "tolerance"), ridge)


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
    spec = build_spec(merged["structure"], ds.x.shape[1], activation, linear)
    targets = training_targets(ds, linear)
    seed = _scalar(merged["seed"], int, "seed")
    c = _scalar(merged["c"], float, "c")
    if merged["init"] == "data_matrix":
        scheme = InitScheme.data_matrix()
    elif merged["init"] == "random":
        order = merged["solve_order"]
        if order is not None:
            order = _numbers(order, int, "solve_order")
        scheme = InitScheme.random(seed, c, order)
    else:
        raise InvalidConfigurationError(f"unknown init {merged['init']!r}")
    cfg = TrainConfig(scheme, _pinv_opts(merged), _clamp_margin(merged))
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
            "seed": seed,
            "c": c,
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
    grid = _numbers(DEFAULT_GRID if grid is None else grid, int, "grid")
    activation = parse_kind(merged["activation"])
    linear = bool(merged["linear_output"])
    seed = _scalar(merged["seed"], int, "seed")
    plan = CvPlan(_scalar(merged["folds"], int, "folds"),
                  _scalar(merged["trials"], int, "trials"), seed, stratified)
    cfg = TrainConfig(
        InitScheme.random(seed, _scalar(merged["c"], float, "c")),
        _pinv_opts(merged),
        _clamp_margin(merged),
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
            _scalar(merged["arms"], int, "arms"),
            _scalar(merged["per_arm"], int, "per_arm"),
            _scalar(merged["noise"], float, "noise"),
            _scalar(merged["seed"], int, "seed"),
        )
        write_dataset_csv(train_ds, out / "spiral_train.csv")
        write_dataset_csv(test_ds, out / "spiral_test.csv")
        artifacts += ["spiral_train.csv", "spiral_test.csv"]
        print(f"spiral_train.csv rows {train_ds.x.shape[0]}")
        print(f"spiral_test.csv rows {test_ds.x.shape[0]}")
    else:
        trains, test = gen_regression(
            _scalar(merged["noisy_sets"], int, "noisy_sets"),
            _scalar(merged["noise"], float, "noise"),
            _scalar(merged["seed"], int, "seed"),
        )
        for k, ds in enumerate(trains):
            name = f"train_{k:02d}.csv"
            write_dataset_csv(ds, out / name)
            artifacts.append(name)
        write_dataset_csv(test, out / "test.csv")
        artifacts.append("test.csv")
        print(f"train files {len(trains)}")
        print(f"test.csv rows {test.x.shape[0]}")
    _write_manifest(out, f"synth {which}", merged, artifacts)
    return 0


def cmd_variance(args) -> int:
    merged = _resolve(args, _VARIANCE_DEFAULTS)
    t0 = time.perf_counter()
    rng_range = _numbers(merged["range"], float, "range")
    if len(rng_range) != 2:
        raise InvalidConfigurationError(
            f"--range must be lo,hi, got {merged['range']!r}"
        )
    lo, hi = rng_range
    cfg = VarianceConfig(
        m=_scalar(merged["m"], int, "m"),
        d=_scalar(merged["d"], int, "d"),
        input_range=(lo, hi),
        noise_scale=_scalar(merged["noise_scale"], float, "noise_scale"),
        trials=_scalar(merged["trials"], int, "trials"),
        max_depth=_scalar(merged["max_depth"], int, "max_depth"),
        activation=parse_kind(merged["activation"]),
        seed=_scalar(merged["seed"], int, "seed"),
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
        max_m = max_n = 0
    if max_m < 1 or max_n < 1:
        raise InvalidConfigurationError(
            f"--shapes must look like 200x100, got {merged['shapes']!r}"
        )
    count = _scalar(merged["count"], int, "count")
    if count < 1:
        raise InvalidConfigurationError(f"--count must be >= 1, got {count}")
    rng = np.random.default_rng(_scalar(merged["seed"], int, "seed"))
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
        p = pinv(a)
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
