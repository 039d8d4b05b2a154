"""Command line front end.

Subcommands: train, cv, synth, variance, selfcheck. Structured reports go
to --out as JSON/CSV; every run also writes a manifest echoing the fully
resolved configuration, so a run is reproducible from its manifest alone.
All file artifacts are byte-stable for a fixed seed; timing is printed to
stderr only.

A JSON config file (--config) may supply any option by its long name with
dashes replaced by underscores; explicit command line flags win. Each
subcommand declares its options once, in a table of `Option`s that makes
its flags and types every value, flag or config, before the command runs.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

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


class Option(NamedTuple):
    """One option of a subcommand. Its flag is --name with dashes; the
    config file gives it as name. convert(value, flag) checks and types
    a flag's text or a config value, raising InvalidConfigurationError."""

    name: str
    default: object
    convert: Callable
    help: Optional[str] = None


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _bad(flag, what, value):
    return InvalidConfigurationError(f"{flag} must be {what}, got {value!r}")


def _number(kind):
    def convert(value, flag):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            raise _bad(flag, f"a {kind.__name__} value", value) from None
    return convert


_int, _float = _number(int), _number(float)


def _switch(value, flag):
    if isinstance(value, bool):
        return value
    raise _bad(flag, "true or false", value)


def _text(value, flag):
    if isinstance(value, str):
        return value
    raise _bad(flag, "text", value)


def _choice(*names):
    def convert(value, flag):
        if isinstance(value, str) and value in names:
            return value
        raise _bad(flag, "one of " + ", ".join(names), value)
    convert.choices = names
    return convert


def _label(value, flag):
    """A column index, or (with --header) a column name; kept as given."""
    if isinstance(value, str) or type(value) is int:
        return value
    raise _bad(flag, "a column index or name", value)


def _tolerance(value, flag):
    """'auto' or an absolute singular-value cutoff, as text or a number;
    kept as given."""
    if value != "auto":
        _float(str(value), flag)
    return value


def _margin(value, flag):
    """A float, or null in the config file to turn clamping off."""
    return None if value is None else _float(value, flag)


def _numbers(value, kind, flag):
    """A comma-separated flag value, or a list from the config file, as a
    list of `kind`."""
    items = value.split(",") if isinstance(value, str) else value
    try:
        return [kind(v) for v in items]
    except (TypeError, ValueError):
        raise _bad(flag, f"comma-separated {kind.__name__} values",
                   value) from None


def _ints(value, flag):
    return _numbers(value, int, flag)


def _range(value, flag):
    lo_hi = _numbers(value, float, flag)
    if len(lo_hi) != 2:
        raise _bad(flag, "lo,hi", value)
    return lo_hi


def _seed(value, flag):
    seed = _int(value, flag)
    if seed < 0:
        raise _bad(flag, "a non-negative int", value)
    return seed


_SEED = Option("seed", 0, _seed)
_OUT = Option("out", ".", _text)
_DATA = (
    Option("data", None, _text, "dataset CSV path"),
    Option("task", "auto", _choice("auto", "classification", "regression")),
    Option("label_column", "-1", _label,
           "label column index or (with --header) name"),
    Option("header", False, _switch, "first CSV row is a header"),
    Option("missing", "drop", _choice("drop", "mean-impute"),
           "missing-cell policy"),
)
_SOLVER = (
    Option("activation", "softplus08", _text,
           "identity|softplus|softplus08|exp:<alpha>"),
    Option("linear_output", False, _switch,
           "skip the final activation on output"),
    Option("c", 1.0, _float, "placeholder scale factor"),
    _SEED,
    Option("clamp_margin", 1e-9, _margin),
    Option("tolerance", "auto", _tolerance,
           "'auto' or an absolute singular-value cutoff"),
    Option("ridge", 0.0, _float),
)
_TRAIN = _DATA + _SOLVER + (
    Option("structure", None, _text, 'widths like "30-50^r3-250-6"'),
    Option("init", "random", _choice("random", "data_matrix")),
    Option("solve_order", None, _ints, "custom inner-layer order, e.g. 2,1"),
    Option("dump_weights", False, _switch),
    _OUT,
)
_CV = _DATA + _SOLVER + (
    Option("template", "h-q", _text, 'width template like "h-q" or "2h-h-q"'),
    Option("grid", None, _ints, "comma-separated h values"),
    Option("folds", 10, _int),
    Option("trials", 10, _int),
    Option("stratified", True, _switch),
    _OUT,
)
_SPIRAL = (
    Option("arms", 6, _int),
    Option("per_arm", 500, _int),
    Option("noise", 0.3, _float),
    _SEED,
    _OUT,
)
_REGRESSION = (
    Option("noisy_sets", 10, _int),
    Option("noise", 0.2, _float),
    _SEED,
    _OUT,
)
_VARIANCE = (
    Option("m", 100, _int),
    Option("d", 10, _int),
    Option("range", (-5.0, 5.0), _range, "lo,hi input range"),
    Option("noise_scale", 1.0, _float),
    Option("trials", 1000, _int),
    Option("max_depth", 8, _int),
    Option("activation", "exp:0.0001", _text),
    _SEED,
    _OUT,
)
_SELFCHECK = (
    Option("shapes", "200x100", _text, "max shape like 200x100"),
    Option("count", 100, _int),
    _SEED,
    Option("inject_fault", False, _switch,
           "negative control: corrupt one inverse"),
)


def _resolve(args):
    """Merge each option's flag over the config file over its default and
    convert it, once. Returns the typed values and the manifest's echo of
    them (without --out)."""
    from_file = {}
    if args.config:
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
        names = {opt.name for opt in args.options}
        unknown = set(from_file) - names
        if unknown:
            raise InvalidConfigurationError(
                f"unknown config keys {sorted(unknown)}; valid: {sorted(names)}"
            )
    values, echo = {}, {}
    for opt in args.options:
        given = getattr(args, opt.name)
        if given is None:
            given = from_file.get(opt.name, opt.default)
        if given is None and opt.default is None:
            value = None  # an option with no default stays unset
        else:
            value = opt.convert(given, _flag(opt.name))
        values[opt.name] = value
        # the echo describes the computation, not its destination, so the
        # same run into two directories yields byte-identical manifests;
        # an int list is echoed as given ("3,1,2" or [3, 1, 2])
        if opt.name != "out":
            echo[opt.name] = given if opt.convert is _ints else value
    return SimpleNamespace(**values), echo


def _require(opts, *names):
    for name in names:
        if getattr(opts, name) is None:
            raise InvalidConfigurationError(
                f"{_flag(name)} is required (flag or config file)"
            )


def _json_dump(obj, path: Path):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_manifest(out: Path, command: str, echo, artifacts):
    manifest = {
        "command": command,
        "config_echo": echo,
        "seed": echo["seed"],
        "artifact_paths": sorted(str(a) for a in artifacts),
    }
    _json_dump(manifest, out / "manifest.json")


def _pinv_opts(opts) -> PinvOptions:
    if opts.tolerance == "auto":
        return PinvOptions.automatic(opts.ridge)
    return PinvOptions.explicit(float(opts.tolerance), opts.ridge)


def _load_dataset(opts):
    label = opts.label_column
    try:
        label = int(label)
    except ValueError:
        pass  # a column name
    return load_csv(
        opts.data,
        label_column=label,
        header=opts.header,
        missing_policy=opts.missing,
        kind=opts.task,
    )


def cmd_train(args) -> int:
    opts, echo = _resolve(args)
    _require(opts, "data", "structure")
    t0 = time.perf_counter()
    ds = _load_dataset(opts)
    activation = parse_kind(opts.activation)
    spec = build_spec(opts.structure, ds.x.shape[1], activation,
                      opts.linear_output)
    targets = training_targets(ds, opts.linear_output)
    if opts.init == "data_matrix":
        scheme = InitScheme.data_matrix()
    else:
        scheme = InitScheme.random(opts.seed, opts.c, opts.solve_order)
    cfg = TrainConfig(scheme, _pinv_opts(opts), opts.clamp_margin)
    report = train(spec, ds.x, targets, cfg)

    out = Path(opts.out)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = ["train_report.json"]
    body = {
        "structure": opts.structure,
        "activation": format_kind(activation),
        "linear_output": opts.linear_output,
        "task": ds.kind,
        "init": {
            "kind": opts.init,
            "seed": opts.seed,
            "c": opts.c,
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
    if opts.dump_weights:
        for k, w in enumerate(report.weights.weights, start=1):
            name = f"weights_{k:02d}.csv"
            write_matrix_csv(w, out / name)
            artifacts.append(name)
    _write_manifest(out, "train", echo, artifacts)
    print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


def cmd_cv(args) -> int:
    opts, echo = _resolve(args)
    _require(opts, "data")
    t0 = time.perf_counter()
    ds = _load_dataset(opts)
    if ds.kind == "regression" and opts.stratified:
        print("warning: stratification needs class labels; "
              "falling back to unstratified folds", file=sys.stderr)
        opts.stratified = echo["stratified"] = False
    grid = list(DEFAULT_GRID) if opts.grid is None else opts.grid
    plan = CvPlan(opts.folds, opts.trials, opts.seed, opts.stratified)
    cfg = TrainConfig(
        InitScheme.random(opts.seed, opts.c),
        _pinv_opts(opts),
        opts.clamp_margin,
    )
    result = cv_search(ds, [opts.template], grid, plan, cfg,
                       parse_kind(opts.activation), opts.linear_output)
    out = Path(opts.out)
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
    _write_manifest(out, "cv", echo, ["cv_report.json"])
    print(f"selected_h {result.h}")
    print(f"mean_accuracy {result.mean_accuracy!r}")
    print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    opts, echo = _resolve(args)
    # generate before anything is written, so bad values leave no --out
    if args.generator == "spiral":
        train_ds, test_ds = gen_spiral(opts.arms, opts.per_arm, opts.noise,
                                       opts.seed)
        files = {"spiral_train.csv": train_ds, "spiral_test.csv": test_ds}
        lines = [f"{name} rows {ds.x.shape[0]}" for name, ds in files.items()]
    else:
        trains, test = gen_regression(opts.noisy_sets, opts.noise, opts.seed)
        files = {f"train_{k:02d}.csv": ds for k, ds in enumerate(trains)}
        files["test.csv"] = test
        lines = [f"train files {len(trains)}", f"test.csv rows {test.x.shape[0]}"]
    out = Path(opts.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, ds in files.items():
        write_dataset_csv(ds, out / name)
    print("\n".join(lines))
    _write_manifest(out, f"synth {args.generator}", echo, list(files))
    return 0


def cmd_variance(args) -> int:
    opts, echo = _resolve(args)
    t0 = time.perf_counter()
    cfg = VarianceConfig(
        m=opts.m,
        d=opts.d,
        input_range=tuple(opts.range),
        noise_scale=opts.noise_scale,
        trials=opts.trials,
        max_depth=opts.max_depth,
        activation=parse_kind(opts.activation),
        seed=opts.seed,
    )
    report = mc_output_variance(cfg)
    out = Path(opts.out)
    out.mkdir(parents=True, exist_ok=True)
    write_variance_csv(report, out / "variance.csv")
    _write_manifest(out, "variance", echo, ["variance.csv"])
    for k, mean in enumerate(report.per_depth_mean, start=1):
        print(f"depth {k} mean {mean!r}")
    print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


def cmd_selfcheck(args) -> int:
    opts, _ = _resolve(args)
    try:
        mtext, ntext = opts.shapes.lower().split("x")
        max_m, max_n = int(mtext), int(ntext)
    except ValueError:
        max_m = max_n = 0
    if max_m < 1 or max_n < 1:
        raise InvalidConfigurationError(
            f"--shapes must look like 200x100, got {opts.shapes!r}"
        )
    if opts.count < 1:
        raise InvalidConfigurationError(f"--count must be >= 1, got {opts.count}")
    rng = np.random.default_rng(opts.seed)
    worst_penrose = 0.0
    worst_oracle = 0.0
    failures = 0
    for i in range(opts.count):
        m = int(rng.integers(1, max_m + 1))
        n = int(rng.integers(1, max_n + 1))
        a = rng.standard_normal((m, n))
        if i % 3 == 2 and min(m, n) > 1:
            # planted rank deficiency
            r = int(rng.integers(1, min(m, n)))
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        p = pinv(a)
        if opts.inject_fault and i == 0:
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
    print(f"checks {opts.count}")
    print(f"worst_penrose_residual {worst_penrose!r}")
    print(f"worst_oracle_error {worst_oracle!r}")
    print("selfcheck " + ("ok" if failures == 0 else f"FAILED ({failures})"))
    return 0 if failures == 0 else 1


def _add_options(parser, options, func):
    """One --flag per option (a switch is store_const, and one that is on
    by default also gets --no-<name>), plus --config."""
    for opt in options:
        flag = _flag(opt.name)
        if opt.convert is _switch:
            parser.add_argument(flag, dest=opt.name, action="store_const",
                                const=True, help=opt.help)
            if opt.default:
                parser.add_argument("--no-" + flag[2:], dest=opt.name,
                                    action="store_const", const=False)
        else:
            choices = getattr(opt.convert, "choices", None)
            parser.add_argument(
                flag, dest=opt.name, help=opt.help,
                metavar="{%s}" % ",".join(choices) if choices else None)
    parser.add_argument("--config", help="JSON file of option values")
    parser.set_defaults(func=func, options=options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinvnet",
        description="Analytic pseudoinverse training of feedforward networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_options(sub.add_parser("train", help="solve one network against a dataset"),
                 _TRAIN, cmd_train)
    _add_options(sub.add_parser("cv", help="cross-validated width search"),
                 _CV, cmd_cv)
    gen = sub.add_parser("synth", help="write synthetic datasets").add_subparsers(
        dest="generator", required=True)
    _add_options(gen.add_parser("spiral"), _SPIRAL, cmd_synth)
    _add_options(gen.add_parser("regression"), _REGRESSION, cmd_synth)
    _add_options(sub.add_parser("variance", help="output-variance Monte Carlo study"),
                 _VARIANCE, cmd_variance)
    _add_options(sub.add_parser("selfcheck", help="randomized pseudoinverse checks"),
                 _SELFCHECK, cmd_selfcheck)
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
