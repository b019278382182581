"""Finite-horizon privacy mechanism synthesis for linear Gaussian systems.

Given a discrete-time stochastic linear system disclosing measurements and
inputs to an untrusted party, this package synthesizes Gaussian distorting
mechanisms (an output map with correlated additive noise and an additive
input randomizer) that minimize the information leaked about a private
output over a finite horizon, subject to distortion budgets, via a
determinant-maximization program solved by a built-in interior-point method.

Each command loads only the modules it runs. ``model`` loads with the
package; ``gauss``, ``lift``, ``mechanism``, ``sdp``, ``synth`` and ``sim``
are placed in ``sys.modules`` at once but run their code on first attribute
access (``importlib.util.LazyLoader``), and every name in ``__all__`` is
looked up in its module when it is asked for. The mechanism has its own
module, which ``synth`` and ``sim`` both load, so the Monte Carlo command
runs no design code. Before Python 3.12 the first load of a lazy module is
not thread-safe. No privsynth code starts a thread, and ``sweep --jobs``
loads the modules its rows run before it forks.
"""

import importlib.util
import os
import sys

# The program's matrices are at most a few hundred wide, where BLAS worker
# threads cost more in synchronization than they save, and ``sweep --jobs``
# already runs one solve per core. Default BLAS to one thread before numpy
# loads it; a value set in the environment still wins. Each manifest records
# these variables.
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in _THREAD_ENV:
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"

from . import model


def _lazy(name: str):
    """Register submodule ``name`` in ``sys.modules``; its code runs on first
    attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


gauss = _lazy("gauss")
lift = _lazy("lift")
mechanism = _lazy("mechanism")
sdp = _lazy("sdp")
synth = _lazy("synth")
sim = _lazy("sim")

# Public name -> the module that defines it.
_OWNERS = {
    "model": ("SystemModel", "SynthesisRequest", "ValidationReport", "ModelFormatError",
              "ValidationError", "load_model", "save_model", "validate"),
    "lift": ("LiftedSystem", "LiftedMoments", "build_lift", "output_moments",
             "joint_ZS_moments"),
    "gauss": ("GaussianJoint", "NotPositiveDefinite", "entropy", "mutual_information",
              "mmse_estimate"),
    "sdp": ("SdpProblem", "SdpSolution", "SolverStatus", "solve", "check_solution"),
    "mechanism": ("Mechanism", "ExtractionFailure"),
    "synth": ("MechanismMetrics", "SynthesisReport", "InfeasibleProgram", "SolverFailure",
              "assemble_program", "synthesize", "evaluate_mechanism"),
    "sim": ("AdversaryResult", "ExperimentSummary", "adversary_estimate", "run_experiment"),
}
_OWNER = {name: mod for mod, names in _OWNERS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *__all__])
