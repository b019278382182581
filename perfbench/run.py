"""privsynth benchmark: the three things its users do, run through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Each command is a fresh ``python -m privsynth.cli`` process that
inherits the caller's environment unchanged apart from PYTHONPATH. No
``*_NUM_THREADS`` variable is set here: users run with their BLAS library's
default thread count, and that default is part of what is measured.

Workloads (see README.md for why each was chosen):

* ``synth-k20``  -- ``synthesize`` at K=20: one large maxdet solve.
* ``sweep-grid`` -- ``sweep`` over a 5x5 budget grid at K=10 with
  ``--jobs nproc``: 25 small solves, 5 of them proven infeasible.
* ``verify-mc``  -- ``simulate`` of the synth-k20 mechanism, 4e5 runs.

With ``--trace 0`` commands repeat until ``--seconds`` have passed (see
``more_samples``) and the end-to-end metrics are printed. With ``--trace 1`` the same
untraced commands run, then one command runs under ``traced_cli.py`` and
the per-layer metrics are printed. Outputs are checked by ``gates.py``
after the timed commands. The last stdout line is the JSON result; the
line before it records the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import gates
import inputs
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
MIN_SAMPLES = 3       # a median of three resists one disturbed command
SWEEP_GRID_Y = [1.0, 2.0, 3.0, 4.0, 5.0]
SWEEP_GRID_U = [0.0, 1.0, 2.0, 3.0, 4.0]
MC_RUNS = 400_000


def median_quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


@dataclass
class Sample:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_command(argv: list[str], env: dict, err_path: Path) -> Sample:
    """Run one process to completion; wall time, CPU and peak RSS from wait4.

    ru_maxrss of a reaped child covers the child and the descendants it
    reaped, so it is the peak RSS of the largest process in the tree.
    """
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss * 1024 / 1e6)


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "privsynth.cli", *args]


def _grid(values: list[float]) -> str:
    return ",".join(f"{v:g}" for v in values)


# ---------------------------------------------------------------------------
# workloads: set-up, the command, and its gate


class Workload:
    name = ""
    K = 20
    ops_per_command = 1

    def __init__(self, work: Path, seed: int, env: dict, nproc: int):
        self.work, self.seed, self.env, self.nproc = work, seed, env, nproc
        self.model = work / "model.json"

    def setup(self) -> None:
        """Write the seeded model and have the program validate it."""
        inputs.write_model(str(self.model), self.seed, K=20)
        sample = run_command(_cli("validate", str(self.model)), self.env, self.work / "setup.err")
        if sample.rc != 0:
            raise RuntimeError(f"validate failed on the generated model (exit {sample.rc})")

    def args(self, out: Path, traced: bool) -> list[str]:
        raise NotImplementedError

    def check(self, rc: int, out: Path) -> list[str]:
        raise NotImplementedError


class SynthK20(Workload):
    name = "synth-k20"

    def args(self, out, traced):
        return ["synthesize", str(self.model), str(out / "mech.json"),
                "--k", str(self.K), "--eps-y", "1", "--eps-u", "1"]

    def check(self, rc, out):
        ref = None
        if self.seed == inputs.DEFAULT_SEED:
            with open(BENCH / "reference.json", encoding="utf-8") as fh:
                ref = json.load(fh)["synth-k20"]["cost_bits"]
        return gates.synthesis(rc, str(self.model), str(out / "mech.json"), self.K, ref)


class SweepGrid(Workload):
    name = "sweep-grid"
    K = 10
    ops_per_command = len(SWEEP_GRID_Y) * len(SWEEP_GRID_U)

    def args(self, out, traced):
        # The traced run is serial so that every cell's spans land in one process.
        return ["sweep", str(self.model), str(out / "sweep.csv"), "--k", str(self.K),
                "--eps-y-grid", _grid(SWEEP_GRID_Y), "--eps-u-grid", _grid(SWEEP_GRID_U),
                "--jobs", "1" if traced else str(self.nproc)]

    def check(self, rc, out):
        return gates.sweep(rc, str(out / "sweep.csv"), SWEEP_GRID_Y, SWEEP_GRID_U)


class VerifyMC(Workload):
    name = "verify-mc"

    def __init__(self, *a):
        super().__init__(*a)
        self.mech = self.work / "mech.json"

    def setup(self):
        """The seeded model plus the synth-k20 mechanism it is checked on."""
        super().setup()
        sample = run_command(_cli("synthesize", str(self.model), str(self.mech),
                                  "--k", str(self.K), "--eps-y", "1", "--eps-u", "1"),
                             self.env, self.work / "setup.err")
        if sample.rc != 0:
            raise RuntimeError(f"synthesize of the simulated mechanism exited {sample.rc}")

    def args(self, out, traced):
        return ["simulate", str(self.model), str(self.mech), str(out / "sim.csv"),
                "--k", str(self.K), "--n-runs", str(MC_RUNS), "--seed", str(self.seed)]

    def check(self, rc, out):
        return gates.simulation(rc, str(self.model), str(self.mech), str(out / "sim.csv"), self.K)


WORKLOADS = {w.name: w for w in (SynthK20, SweepGrid, VerifyMC)}


# ---------------------------------------------------------------------------
# environment record


def _openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded by numpy and scipy."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(path)] = fn()
                break
    return found


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own BLAS
    return {
        "nproc": nproc,
        "blas_threads": _openblas_threads(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


# ---------------------------------------------------------------------------


def more_samples(elapsed: float, n: int, seconds: float) -> bool:
    """Run another command until ``seconds`` have passed; below MIN_SAMPLES,
    also when one more command of the mean length ends within 2 * seconds."""
    if elapsed < seconds:
        return True
    return n < MIN_SAMPLES and elapsed + elapsed / n <= 2 * seconds


def measure(wl: Workload, seconds: float, trace: bool) -> tuple[dict, int, int, dict]:
    """Metric values by name (end-to-end, or per-layer when tracing),
    operations attempted and failed, and the raw samples."""
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)

    samples: list[tuple[Sample, Path]] = []
    t0 = time.perf_counter()
    while not samples or more_samples(time.perf_counter() - t0, len(samples), seconds):
        out = wl.work / f"run{len(samples)}"
        out.mkdir()
        samples.append((run_command(_cli(*wl.args(out, traced=False)), wl.env,
                                    out / "stderr"), out))

    traced = None
    if trace:
        out = wl.work / "traced"
        out.mkdir()
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(out / "spans.jsonl"),
                f"{wl.name}-{wl.seed}-{os.getpid()}", *wl.args(out, traced=True)]
        traced = (run_command(argv, wl.env, out / "stderr"), out)

    checked = samples + ([traced] if traced else [])
    problems = [p for sample, out in checked for p in wl.check(sample.rc, out)]
    attempted = wl.ops_per_command * len(checked)

    walls = [s.wall_s for s, _ in samples]
    wall_s = median_quartiles(walls)[1]
    detail = {
        "workload": wl.name, "seed": wl.seed, "setup_s": setup_s, "wall_s": walls,
        "peak_rss_mb": [s.peak_rss_mb for s, _ in samples],
        "cpu_s": [s.cpu_s for s, _ in samples], "problems": problems[:10],
    }
    if not trace:
        metrics = {
            "wall_s": wall_s,
            "peak_rss_mb": median_quartiles([s.peak_rss_mb for s, _ in samples])[1],
            "setup_s": median_quartiles(setup_s)[1],
            "ok_frac": (attempted - len(problems)) / attempted,
        }
        return metrics, attempted, len(problems), detail

    sample, out = traced
    spans_path = out / "spans.jsonl"
    records = spans.read_spans(str(spans_path)) if spans_path.exists() else []
    absent_path = out / "spans.jsonl.absent"
    absent = json.loads(absent_path.read_text()) if absent_path.exists() else spans.span_names()
    detail.update(traced_wall_s=sample.wall_s, absent_layers=absent)
    layer = per_layer_metrics(records, absent, [s for s, _ in samples], sample, wl.nproc)
    return layer, attempted, len(problems), detail


def per_layer_metrics(records: list[dict], absent: list[str], untraced: list[Sample],
                      traced: Sample, nproc: int) -> dict[str, float]:
    """Span-derived layer metrics plus the process-level ones around them."""
    wall_s = median_quartiles([s.wall_s for s in untraced])[1]
    m = spans.layer_metrics(records)
    m.update({
        "cli.cpu_per_wall": median_quartiles([s.cpu_s / s.wall_s for s in untraced])[1],
        "cli.pool_efficiency": spans.top_level_library_s(records) / (nproc * wall_s),
        "trace.wall_ratio": traced.wall_s / wall_s,
        "trace.accounted_frac": sum(spans.self_times(records).values()) / traced.wall_s,
        "trace.absent_layers": len(absent),
    })
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "privsynth" / "cli.py").is_file():
        print(f"error: no privsynth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        wl = WORKLOADS[args.workload](work, args.seed, env, nproc)
        metrics, attempted, failed, detail = measure(wl, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail["environment"] = environment(nproc)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
