"""Print the sha256 of every artifact a fixed set of CLI runs writes.

Usage: python scripts/artifact_digest.py [src_root]

src_root is a checkout of this repository (default: the one holding this
script); its `src/` is the code that runs. The runs are: `synth` spiral
and regression, `train` with the random, banded and data_matrix inits
with `--dump-weights`, `train` without it, `train` on `12-20-3` with the
explicit cutoff `--tolerance 1e-4`, which drops singular values the
automatic cutoff keeps, a regression `train`, `train`
with the softplus, identity (linear output) and `exp:0.5` activations and
with a custom solve order, `train` on `20-20-20-3`, whose square
placeholders are pulled through by LU inverses, `train` with `--ridge`
(1e-10 on `30-30-30-3`, 1e-3 with the data_matrix init on `60-3`), `cv` on
`tests/data/iris_like.csv` (3 folds and 3 widths, and 10 folds over the
default 12-value grid, the benchmark's shape, where the order in which
inner folds are scored decides how many fits run), a linear-output
regression `cv` on the synthesized `regression/train_01.csv`, and
`variance`. A `train --header --missing mean-impute` run reads a small CSV
the script writes itself, whose label column comes first and is named by
`--label-column`, with a categorical feature and missing feature, category
and label cells. Three data_matrix runs on
the 60-row spiral have hidden layers, whose target is I: `60-60-3`,
`60-60-60-3 --linear-output --tolerance 0` and `60-60-3 --ridge 1e-3`,
all with `--dump-weights`. They run in a temporary
directory with relative paths, so the manifests do not depend on where
it is, and each with one BLAS thread, the scope in which the CLI
artifacts are byte-stable. Each output line is `sha256  path`; diff the
output of two checkouts to show that a change keeps every artifact
byte-identical. Standard library only.
"""
from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SPIRAL = "spiral/spiral_train.csv"
RUNS = (
    ("spiral", ["synth", "spiral", "--arms", "3", "--per-arm", "40", "--seed", "1"]),
    ("regression", ["synth", "regression", "--noisy-sets", "2", "--seed", "1"]),
    ("train_random", ["train", "--data", SPIRAL, "--structure", "12-20-3",
                      "--c", "0.5", "--seed", "2", "--dump-weights"]),
    ("train_banded", ["train", "--data", SPIRAL, "--structure", "12-20^r3-3",
                      "--dump-weights"]),
    ("train_data_matrix", ["train", "--data", SPIRAL, "--structure", "60-3",
                           "--init", "data_matrix", "--dump-weights"]),
    ("train_data_matrix_deep", ["train", "--data", SPIRAL, "--structure",
                                "60-60-3", "--init", "data_matrix",
                                "--dump-weights"]),
    ("train_data_matrix_linear", ["train", "--data", SPIRAL, "--structure",
                                  "60-60-60-3", "--init", "data_matrix",
                                  "--linear-output", "--tolerance", "0",
                                  "--dump-weights"]),
    ("train_plain", ["train", "--data", SPIRAL, "--structure", "10-3"]),
    ("train_tolerance", ["train", "--data", SPIRAL, "--structure", "12-20-3",
                         "--tolerance", "1e-4", "--dump-weights"]),
    ("train_regression", ["train", "--data", "regression/train_01.csv",
                          "--structure", "8-1", "--linear-output",
                          "--dump-weights"]),
    ("train_softplus", ["train", "--data", SPIRAL, "--structure", "12-20-3",
                        "--activation", "softplus", "--dump-weights"]),
    ("train_identity", ["train", "--data", SPIRAL, "--structure", "12-3",
                        "--activation", "identity", "--linear-output",
                        "--dump-weights"]),
    ("train_exp", ["train", "--data", SPIRAL, "--structure", "12-20-3",
                   "--activation", "exp:0.5", "--dump-weights"]),
    ("train_order", ["train", "--data", SPIRAL, "--structure", "12-10-8-3",
                     "--solve-order", "2,1,3", "--dump-weights"]),
    ("train_square", ["train", "--data", SPIRAL, "--structure", "20-20-20-3",
                      "--dump-weights"]),
    ("train_ridge", ["train", "--data", SPIRAL, "--structure", "30-30-30-3",
                     "--ridge", "1e-10", "--dump-weights"]),
    ("train_ridge_data_matrix", ["train", "--data", SPIRAL, "--structure", "60-3",
                                 "--init", "data_matrix", "--ridge", "1e-3",
                                 "--dump-weights"]),
    ("train_ridge_data_matrix_deep", ["train", "--data", SPIRAL, "--structure",
                                      "60-60-3", "--init", "data_matrix",
                                      "--ridge", "1e-3", "--dump-weights"]),
    ("cv", ["cv", "--data", "iris_like.csv", "--grid", "1,2,5", "--folds", "3",
            "--trials", "2"]),
    ("cv_default_grid", ["cv", "--data", "iris_like.csv", "--folds", "10",
                         "--trials", "1"]),
    ("cv_regression", ["cv", "--data", "regression/train_01.csv", "--task",
                       "regression", "--linear-output", "--grid", "1,2,3,5,8",
                       "--folds", "4", "--trials", "1"]),
    ("variance", ["variance", "--trials", "40", "--seed", "3"]),
    ("train_mixed_csv", ["train", "--data", "mixed.csv", "--header", "--label-column",
                         "species", "--missing", "mean-impute", "--structure", "8-3",
                         "--dump-weights"]),
)
INPUTS = ("iris_like.csv", "mixed.csv")


def mixed_csv() -> str:
    """24 rows under a header: the label, two numeric features with missing
    cells ("?" and empty) and a categorical one between them; one row
    misses its category and one its label, so both drop."""
    lines = ["species,length,colour,width"]
    for i in range(24):
        species = "?" if i == 17 else ("setosa", "versicolor", "virginica")[i % 3]
        length = "?" if i % 7 == 3 else f"{1 + (i * 37 % 11) / 4}"
        colour = "NA" if i == 10 else ("red", " green", "blue")[i * 5 // 3 % 3]
        width = "" if i % 5 == 2 else f"{(i * 13 % 9) / 3:.4f}"
        lines.append(f"{species},{length},{colour},{width}")
    return "\n".join(lines) + "\n"


def main(argv) -> int:
    here = Path(__file__).resolve().parents[1]
    root = Path(argv[1]).resolve() if len(argv) > 1 else here
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copy(root / "tests" / "data" / "iris_like.csv", work)
        (work / "mixed.csv").write_text(mixed_csv(), encoding="utf-8")
        for out, args in RUNS:
            done = subprocess.run(
                [sys.executable, "-m", "pinvnet.cli", *args, "--out", out],
                cwd=work, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(f"{out} exited {done.returncode}:\n{done.stderr}")
                return 1
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            rel = path.relative_to(work).as_posix()
            if rel not in INPUTS:
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
