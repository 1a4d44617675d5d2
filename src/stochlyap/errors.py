"""Exception types raised across the package."""


class StochLyapError(Exception):
    """Base class for all errors raised by stochlyap."""


class DimensionMismatch(StochLyapError):
    """Matrix or vector dimensions are inconsistent."""


class InvalidMode(StochLyapError):
    """Switching signal value is not a valid mode index."""


class NoInputChannel(StochLyapError):
    """Operation requires an input matrix but the model has m = 0."""


class UnsupportedMoment(StochLyapError):
    """Requested moment exceeds the implemented degree cap or is infinite."""


class UnsupportedForm(StochLyapError):
    """System form is outside the domain of the requested operation."""


class NonFiniteSample(StochLyapError):
    """A sampled coefficient matrix contained NaN or infinity."""


class NotPSD(StochLyapError):
    """Matrix expected to be positive semidefinite has a meaningfully
    negative eigenvalue."""


class ConvergenceFailure(StochLyapError):
    """Iterative eigenvalue computation failed to converge.

    Carries the best available estimate in ``best`` and, when known,
    lower/upper bounds in ``bounds``.
    """

    def __init__(self, message, best=None, bounds=None):
        super().__init__(message)
        self.best = best
        self.bounds = bounds


class InfeasibleLambda(StochLyapError):
    """No positive definite Lyapunov matrix exists at the requested rate."""


class AnalysisOnlyModel(StochLyapError):
    """Synthesis operation was invoked on a model without inputs."""


class NotStabilizable(StochLyapError):
    """Feasibility failed at every decay rate below one.

    ``diagnostic_lambda`` holds the smallest rate in (1, 2] at which the
    synthesis inequality was feasible, or None when even that failed.
    """

    def __init__(self, message, diagnostic_lambda=None):
        super().__init__(message)
        self.diagnostic_lambda = diagnostic_lambda


class VerificationMismatch(StochLyapError):
    """Closed-loop re-analysis disagreed with the rate claimed by a solver."""


class BackendFailure(StochLyapError):
    """A feasibility backend failed for reasons other than infeasibility."""


class DegenerateWindow(StochLyapError):
    """Decay-rate window endpoints are zero or non-finite."""
