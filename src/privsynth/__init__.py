"""Finite-horizon privacy mechanism synthesis for linear Gaussian systems.

Given a discrete-time stochastic linear system disclosing measurements and
inputs to an untrusted party, this package synthesizes Gaussian distorting
mechanisms (an output map with correlated additive noise and an additive
input randomizer) that minimize the information leaked about a private
output over a finite horizon, subject to distortion budgets, via a
determinant-maximization program solved by a built-in interior-point method.
"""

import os

# The program's matrices are at most a few hundred wide, where BLAS worker
# threads cost more in synchronization than they save, and ``sweep --jobs``
# already runs one solve per core. Default BLAS to one thread before numpy
# loads it; a value set in the environment still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

__version__ = "0.1.0"

from .model import (
    SystemModel,
    SynthesisRequest,
    ValidationReport,
    ModelFormatError,
    ValidationError,
    load_model,
    save_model,
    validate,
)
from .lift import LiftedSystem, LiftedMoments, build_lift, output_moments, joint_ZS_moments
from .gauss import (
    GaussianJoint,
    NotPositiveDefinite,
    SchurSingular,
    entropy,
    mutual_information,
    mmse_estimate,
)
from .sdp import SdpProblem, SdpSolution, SolverStatus, solve, check_solution
from .synth import (
    Mechanism,
    MechanismMetrics,
    SynthesisReport,
    ExtractionFailure,
    InfeasibleProgram,
    SolverFailure,
    assemble_program,
    synthesize,
    evaluate_mechanism,
    sample_mechanism,
)
from .sim import (
    Trajectory,
    AdversaryResult,
    ExperimentSummary,
    simulate,
    apply_mechanism,
    adversary_estimate,
    run_experiment,
)

__all__ = [
    "SystemModel",
    "SynthesisRequest",
    "ValidationReport",
    "ModelFormatError",
    "ValidationError",
    "load_model",
    "save_model",
    "validate",
    "LiftedSystem",
    "LiftedMoments",
    "build_lift",
    "output_moments",
    "joint_ZS_moments",
    "GaussianJoint",
    "NotPositiveDefinite",
    "SchurSingular",
    "entropy",
    "mutual_information",
    "mmse_estimate",
    "SdpProblem",
    "SdpSolution",
    "SolverStatus",
    "solve",
    "check_solution",
    "Mechanism",
    "MechanismMetrics",
    "SynthesisReport",
    "ExtractionFailure",
    "InfeasibleProgram",
    "SolverFailure",
    "assemble_program",
    "synthesize",
    "evaluate_mechanism",
    "sample_mechanism",
    "Trajectory",
    "AdversaryResult",
    "ExperimentSummary",
    "simulate",
    "apply_mechanism",
    "adversary_estimate",
    "run_experiment",
]
