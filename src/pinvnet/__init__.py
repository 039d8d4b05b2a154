"""Analytic training of feedforward networks by pseudoinverse projection.

Weights are solved layer by layer with Moore-Penrose pseudoinverses instead
of gradient descent. The package covers the training procedures themselves,
the supporting linear algebra, invertible activations, variance
diagnostics, dataset utilities, and a deterministic CLI.

Each public name is declared once, in its module's `__all__`; the package
re-exports those lists. `parallel` stays internal to `cv_search`.
"""
from . import activations, analysis, datasets, errors, linalg, network, training
from .activations import *
from .analysis import *
from .datasets import *
from .errors import *
from .linalg import *
from .network import *
from .training import *

__version__ = "0.1.0"

__all__ = [
    *activations.__all__,
    *analysis.__all__,
    *datasets.__all__,
    *errors.__all__,
    *linalg.__all__,
    *network.__all__,
    *training.__all__,
    "__version__",
]
