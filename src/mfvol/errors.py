"""Exception hierarchy shared across the package.

Two branches matter for the command line: ``InputError`` covers anything
wrong with user-supplied files or arguments (exit code 2), while
``NumericalError`` covers estimation or training failures on data that
was structurally fine (exit code 3).
"""


class MfvolError(Exception):
    """Base class for all package errors."""


class InputError(MfvolError):
    """Invalid input data, schema, or arguments."""


class NumericalError(MfvolError):
    """Numerical failure: non-convergence, divergence, non-finite values."""


# -- market data -------------------------------------------------------

class MissingFile(InputError):
    pass


class MalformedRow(InputError):
    def __init__(self, path, line, reason):
        self.path = path
        self.line = line
        self.reason = reason
        super().__init__(f"{path}:{line}: {reason}")


class NonPositivePrice(MalformedRow):
    def __init__(self, path, line, price):
        super().__init__(path, line, f"non-positive price {price!r}")


class DuplicateBar(MalformedRow):
    def __init__(self, path, line, date, time_min):
        self.date = date
        self.time_min = time_min
        super().__init__(path, line,
                         f"duplicate bar for {date} at minute {time_min}")


class AllMissingColumn(InputError):
    pass


class ZeroVariance(InputError):
    pass


class UncoveredMonth(InputError):
    pass


class EmptyPanel(InputError):
    pass


# -- realized volatility ------------------------------------------------

class InsufficientBars(InputError):
    pass


class ZeroRvSum(InputError):
    pass


class LengthMismatch(InputError):
    pass


class NonPositiveLambda(NumericalError):
    pass


class EmptyMonth(InputError):
    pass


# -- factor extraction --------------------------------------------------

class RankDeficient(NumericalError):
    pass


class BadShape(InputError):
    pass


class MissingColumn(InputError):
    pass


# -- GARCH-MIDAS --------------------------------------------------------

class BadParameter(InputError):
    pass


class NonPositiveTau(NumericalError):
    pass


class InsufficientLags(InputError):
    pass


class NonFiniteLikelihood(NumericalError):
    pass


class NoConvergence(NumericalError):
    pass


class DegenerateData(InputError):
    pass


# -- attention regressor ------------------------------------------------

class NonFiniteInput(InputError):
    pass


class NonFiniteGradient(NumericalError):
    pass


class DivergedLoss(NumericalError):
    pass


class EmptyDataset(InputError):
    pass


# -- evaluation ---------------------------------------------------------

class NonPositiveTruth(InputError):
    pass


class NonPositiveInput(InputError):
    pass


class DegenerateTruth(InputError):
    pass


class TooShort(InputError):
    pass


# -- simulation ---------------------------------------------------------

class BadSpec(InputError):
    pass
