"""Second-moment stability analysis and synthesis for discrete-time linear
systems whose dynamics are driven by an i.i.d. random parameter process."""

__version__ = "0.1.0"

from .dist import (
    Constant,
    Discrete,
    DistributionSpec,
    Exponential,
    Normal,
    Uniform,
    substream,
)
from .sysmodel import (
    AffineForm,
    PolyEntry,
    PolyForm,
    SampledDataForm,
    SwitchedForm,
    SystemModel,
    model_from_obj,
)
from .sampled import ContinuousPlant, discretize, intersample_trajectory
from .moments import (
    SecondMomentData,
    RearrangedFactors,
    expected_quadratic,
    factorize,
    second_moment_analytic,
    second_moment_mc,
)
from .analysis import (
    MomentOperatorMatrix,
    StabilityReport,
    build_operator,
    check_quadratic,
    lyapunov_certificate,
    stability_report,
)
from .synthesis import (
    LmiProblem,
    SynthesisResult,
    assemble,
    solve_feasibility,
    synthesize_min_lambda,
    verify_gain,
)
from .simulate import EnsembleResult, decay_rate, run_ensemble

__all__ = [
    "__version__",
    "Constant", "Discrete", "DistributionSpec", "Exponential", "Normal", "Uniform",
    "substream",
    "AffineForm", "PolyEntry", "PolyForm", "SampledDataForm", "SwitchedForm",
    "SystemModel", "model_from_obj",
    "ContinuousPlant", "discretize", "intersample_trajectory",
    "SecondMomentData", "RearrangedFactors", "expected_quadratic", "factorize",
    "second_moment_analytic", "second_moment_mc",
    "MomentOperatorMatrix", "StabilityReport", "build_operator", "check_quadratic",
    "lyapunov_certificate", "stability_report",
    "LmiProblem", "SynthesisResult", "assemble", "solve_feasibility",
    "synthesize_min_lambda", "verify_gain",
    "EnsembleResult", "decay_rate", "run_ensemble",
]
