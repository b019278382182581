"""Span records, wrappers around privsynth's public functions, self times.

A span is one call across a layer boundary. It is stored as a flat record

    {"run": str, "id": int, "parent": int | None, "name": str,
     "start": float, "end": float, "attrs": {str: number}}

with times in seconds on the ``time.perf_counter`` clock of the traced
process, kept in memory and written as JSON lines when the command ends.
The format carries no benchmark-specific field, so a tracer inside the
program can emit the same records.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
from contextlib import contextmanager

# Public functions wrapped, per module: the boundaries between the layers.
LAYERS = {
    "privsynth.model": ("load_model",),
    "privsynth.lift": ("build_lift", "output_moments", "joint_ZS_moments"),
    "privsynth.gauss": ("entropy", "mutual_information", "mmse_estimate"),
    "privsynth.sdp": ("solve", "find_feasible", "check_solution"),
    "privsynth.synth": ("assemble_program", "analytic_start", "synthesize",
                        "evaluate_mechanism"),
    "privsynth.sim": ("run_experiment",),
}


def span_names(layers: dict = LAYERS) -> list[str]:
    """Span name of each wrapped function: short module name, dot, function."""
    return [f"{mod.rsplit('.', 1)[-1]}.{fn}" for mod, fns in layers.items() for fn in fns]


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"run": self.run_id, "id": len(self.records),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None, "attrs": {}}
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# counts taken at the boundaries


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _solver_counts(args, result, attrs):
    attrs["params"] = args["problem"].num_params
    attrs["newton_steps"] = result.newton_steps


def _program_counts(args, result, attrs):
    attrs["params"] = result.num_params
    attrs["lmi_term_bytes"] = sum(t.nbytes for con in result.lmis for t in con.terms.values())


def _experiment_start(attrs):
    attrs["maxrss_start_bytes"] = _maxrss_bytes()


def _experiment_counts(args, result, attrs):
    attrs["n_runs"] = args["n_runs"]
    attrs["maxrss_end_bytes"] = _maxrss_bytes()


# Counts taken after a call from its bound arguments and its result.
_COUNTS = {
    "sdp.solve": _solver_counts,
    "sdp.find_feasible": _solver_counts,
    "synth.assemble_program": _program_counts,
    "sim.run_experiment": _experiment_counts,
}
# Counts taken before a call.
_BEFORE = {"sim.run_experiment": _experiment_start}


def _wrap(recorder: Recorder, name: str, fn):
    sig = inspect.signature(fn)
    counts = _COUNTS.get(name)
    before = _BEFORE.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(name) as attrs:
            if before is not None:
                before(attrs)
            result = fn(*args, **kwargs)
            if counts is not None:
                # A renamed argument or field loses the count, not the run.
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts(bound.arguments, result, attrs)
                except (AttributeError, KeyError, TypeError) as exc:
                    attrs["count_error"] = repr(exc)
            return result

    return traced


def install(recorder: Recorder, layers: dict = LAYERS) -> list[str]:
    """Wrap each listed public function wherever privsynth modules bound it.

    Modules import each other's functions by name, so every privsynth module
    global that is the original function object is replaced. Returns the
    span names whose module or function does not exist.
    """
    absent = []
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "privsynth" or n.startswith("privsynth."))]
    for mod_name, fn_names in layers.items():
        mod = sys.modules.get(mod_name)
        for fn_name, span_name in zip(fn_names, span_names({mod_name: fn_names})):
            fn = getattr(mod, fn_name, None)
            if not callable(fn):
                absent.append(span_name)
                continue
            traced = _wrap(recorder, span_name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, traced)
    return absent


# ---------------------------------------------------------------------------
# self times and per-layer metrics


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    return {sp["id"]: (sp["end"] - sp["start"])
            - _covered(sp["start"], sp["end"], children.get(sp["id"], []))
            for sp in spans}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-span-name call counts and self times, plus the solver and MC counts.

    Names absent from the spans read as zero calls and zero seconds, so a
    bypassed layer shows as an exact 0.
    """
    own = self_times(spans)
    m: dict[str, float] = {}
    for name in span_names():
        m[f"{name}.calls"] = 0
        m[f"{name}.self_s"] = 0.0
    for sp in spans:
        name = sp["name"]
        m[f"{name}.calls"] = m.get(f"{name}.calls", 0) + 1
        m[f"{name}.self_s"] = m.get(f"{name}.self_s", 0.0) + own[sp["id"]]

    for layer in ("lift", "gauss"):
        m[f"{layer}.self_s"] = sum((own[sp["id"]] for sp in spans
                                    if sp["name"].startswith(layer + ".")), 0.0)

    solves = [sp for sp in spans if sp["name"] == "sdp.solve"]
    m["sdp.newton_steps"] = sum(sp["attrs"].get("newton_steps", 0) for sp in solves)
    m["sdp.s_per_newton_step"] = (m["sdp.solve.self_s"] / m["sdp.newton_steps"]
                                  if m["sdp.newton_steps"] else 0.0)
    programs = [sp["attrs"] for sp in spans if sp["name"] == "synth.assemble_program"]
    m["sdp.params"] = max((a.get("params", 0) for a in programs), default=0)
    m["sdp.lmi_term_mb"] = max((a.get("lmi_term_bytes", 0) for a in programs), default=0) / 1e6

    runs = [sp for sp in spans if sp["name"] == "sim.run_experiment"]
    n_runs = sum(sp["attrs"].get("n_runs", 0) for sp in runs)
    busy = sum(sp["end"] - sp["start"] for sp in runs)
    m["sim.runs_per_s"] = n_runs / busy if busy > 0 else 0.0
    grown = sum(max(0, sp["attrs"].get("maxrss_end_bytes", 0)
                    - sp["attrs"].get("maxrss_start_bytes", 0)) for sp in runs)
    m["sim.bytes_per_run"] = grown / n_runs if n_runs else 0.0

    m["cli.import_s"] = sum(sp["end"] - sp["start"] for sp in spans if sp["name"] == "cli.import")
    m["cli.self_s"] = sum(own[sp["id"]] for sp in spans if sp["name"] == "cli.main")
    return m


def top_level_library_s(spans: list[dict]) -> float:
    """Time in library spans called directly by the command (cell time in a sweep)."""
    mains = {sp["id"] for sp in spans if sp["name"] == "cli.main"}
    return sum(sp["end"] - sp["start"] for sp in spans if sp["parent"] in mains)
