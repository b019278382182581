"""Seeded model files for the benchmark workloads.

Every workload runs on reactor4's dynamics (the four-state reactor example
shipped with privsynth) with an input sequence U drawn from the workload
seed: 39 steps of +/-0.5, the magnitude of the fixture's square wave, so
that horizons up to K=40 are reachable from the same file. The program
only ever sees the JSON file written here.
"""

from __future__ import annotations

import json
import random

# Default seed: the one the stored cost reference was measured on.
DEFAULT_SEED = 1
# Held-out seed: never used while tuning the benchmark.
HELD_OUT_SEED = 7919

U_ROWS = 39          # K - 1 rows reach K = 40
U_MAGNITUDE = 0.5

REACTOR4 = {
    "A": [[0.85, 0.0, 0.2, 0.0],
          [0.0, 0.6, 0.0, 0.05],
          [0.0, 0.0, 0.7, 0.15],
          [0.0, 0.0, 0.0, 0.8]],
    "B": [[0.0], [0.0], [1.0], [0.5]],
    "C": [[0.0, 1.0, 0.0, 0.0]],
    "D": [[1.0, 0.0, 0.0, 0.0]],
    "mu_x1": [1.0, 0.5, 0.0, 0.0],
    "Sigma_x1": 1.0,
    "Sigma_T": 0.25,
    "Sigma_W": 4.0,
    "W_Y": 1.0,
    "W_U": 1.0,
}


def input_sequence(seed: int) -> list[list[float]]:
    """U rows of +/-U_MAGNITUDE with signs drawn from the seed."""
    rng = random.Random(seed)
    return [[rng.choice((-U_MAGNITUDE, U_MAGNITUDE))] for _ in range(U_ROWS)]


def model_document(seed: int, K: int) -> dict:
    doc = dict(REACTOR4)
    doc.update(U=input_sequence(seed), K=K, eps_Y=1.0, eps_U=1.0)
    return doc


def write_model(path: str, seed: int, K: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_document(seed, K), fh, indent=1)
        fh.write("\n")
