"""Mixed-frequency stock-volatility forecasting toolkit.

The package splits into layers that mirror the workflow:

``errors``
    The three exception classes, one per non-zero exit status of the
    command line.
``tables``
    The one CSV reader and writer that every file of the pipeline
    goes through.
``marketdata``
    Input-file loaders, mixed-frequency alignment, filling,
    normalization and the chronological train/test split.
``realized_vol``
    Five-minute realized variance and its scale adjustment to the
    close-to-close return level.
``features``
    PCA compression of the macro, technical and attention indicator
    groups into a handful of factors.
``garch_midas``
    Two-component daily conditional variance: a slow monthly part
    driven by covariate lags and a fast unit-mean GARCH part, with
    maximum-likelihood estimation, filtering and simulation.
``parallel``
    Independent items, such as the fit's restarts or the ablation
    groups, on every usable CPU through forked workers.
``transformer``
    The windowed attention regressor: one head-stacked plain-numpy
    forward pass and its hand-derived backward pass.
``evaluation``
    Forecast loss suite, persistence baseline and report files.
``simlab``
    End-to-end synthetic scenarios with exact ground truth.
``cli``
    The ``mfvol`` command built from all of the above.

``autodiff`` holds only an empty ``Tensor`` class that the
benchmark's tracer imports; nothing else uses it.
"""

__version__ = "0.1.0"

__all__ = [
    "cli",
    "errors",
    "evaluation",
    "features",
    "garch_midas",
    "marketdata",
    "parallel",
    "realized_vol",
    "simlab",
    "tables",
    "transformer",
]
