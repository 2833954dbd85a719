"""Seeded inputs and the job lists of the three benchmark workloads.

Every job is one ``uotlab.cli.run(argv)`` call.  Its measure files are
generated here from the workload seed, so the program only ever sees the
JSON inputs.  Points are 2-d and uniform in a square box; weights are
drawn uniform(0.5, 1.5), then the first measure is normalised to unit mass
and the second to the stated mass ratio (1.0 for the jobs that need equal
masses).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Pair:
    """A generated (mu0, mu1) pair: ``n`` points per side in [0, box]^2."""
    n: int
    mass_ratio: float = 1.0
    box: float = 1.0


@dataclass(frozen=True)
class Job:
    name: str
    subcommand: str
    args: tuple[str, ...]
    pair: Optional[Pair] = None
    # extra flags placed before the subcommand (global options)
    global_args: tuple[str, ...] = ()

    def argv(self, workdir: str, seed: int) -> list[str]:
        """The full ``cli.run`` argv; inputs must already be written."""
        argv = list(self.global_args) + [self.subcommand]
        if self.pair is not None:
            argv += ["--mu0", input_path(workdir, self, 0),
                     "--mu1", input_path(workdir, self, 1)]
        if self.subcommand == "identities":
            argv += ["--seed", str(job_seed(seed, self))]
        argv += list(self.args)
        if self.subcommand == "sweep-eps":
            argv += ["--out", output_path(workdir, self, ".csv"),
                     "--report", output_path(workdir, self)]
        else:
            argv += ["--out", output_path(workdir, self)]
        return argv


KL_PAIR = Pair(400, mass_ratio=1.3)
X_EXTENDED = ("--cost", "sqeuclidean", "--which", "x-extended")
BALANCED_LIFT = ("--cost", "sqeuclidean", "--which", "balanced", "--radial-nodes", "24")

WORKLOADS: dict[str, tuple[Job, ...]] = {
    # Original-space scaling.  Iterations grow like 1/eps, so the eps ladder
    # separates per-iteration cost from iteration count; the balanced and
    # grid jobs run the same scaling idea with a different proximal step.
    "x-sinkhorn": (
        Job("kl-eps0.5-plan", "solve-x",
            ("--cost", "sqeuclidean", "--eps", "0.5", "--emit-plan"), KL_PAIR),
        Job("kl-eps0.05", "solve-x", ("--cost", "sqeuclidean", "--eps", "0.05"), KL_PAIR),
        Job("kl-eps0.02", "solve-x", ("--cost", "sqeuclidean", "--eps", "0.02"), KL_PAIR),
        Job("hk-eps0.05", "solve-x", ("--cost", "hk", "--eps", "0.05"),
            Pair(800, mass_ratio=1.3, box=2.0)),
        Job("balanced-eps0.05", "solve-x",
            ("--cost", "sqeuclidean", "--eps", "0.05", "--entropy", "balanced"), Pair(400)),
        Job("identities-grid24", "identities", ("--grid", "24", "--dim", "2", "--eps", "0.02")),
    ),
    # Extended-space iterative scaling: nearly all time is the per-point
    # tilt Newton loop; no LP and no original-space Sinkhorn runs here.
    "y-scaling": (
        Job("sq-eps0.1", "solve-y",
            ("--cost", "sqeuclidean", "--eps", "0.1", "--radial-nodes", "32"),
            Pair(10, mass_ratio=1.3)),
        Job("hk-eps0.2", "solve-y",
            ("--cost", "hk", "--eps", "0.2", "--radial-nodes", "32"),
            Pair(16, mass_ratio=1.3)),
        Job("sweep-threads2", "sweep-eps",
            ("--cost", "sqeuclidean", "--formulation", "y", "--eps-list", "0.5,0.3"),
            Pair(8, mass_ratio=1.3), global_args=("--threads", "2")),
    ),
    # Dense simplex behind the lifts: few rows over very many columns
    # (second-order: 20 rows x 1.38M columns), and the narrower, taller
    # lifted-balanced plus transport LPs.  The refined extended lift's pivot
    # count varies widely between instances (about 210 or 300-390 at 5
    # points), so it runs on four small pairs, whose total varies far less.
    "lp-lifts": (
        Job("x-extended-a", "lift-check", X_EXTENDED, Pair(3, mass_ratio=1.3)),
        Job("x-extended-b", "lift-check", X_EXTENDED, Pair(3, mass_ratio=1.3)),
        Job("x-extended-c", "lift-check", X_EXTENDED, Pair(3, mass_ratio=1.3)),
        Job("x-extended-d", "lift-check", X_EXTENDED, Pair(3, mass_ratio=1.3)),
        Job("second-order", "lift-check",
            ("--cost", "sqeuclidean", "--which", "second-order", "--radial-nodes", "48"),
            Pair(10, mass_ratio=1.3)),
        Job("balanced-a", "lift-check", BALANCED_LIFT, Pair(40)),
        Job("balanced-b", "lift-check", BALANCED_LIFT, Pair(40)),
    ),
}


def job_seed(seed: int, job: Job) -> int:
    """A per-job seed, so a job's inputs do not depend on the other jobs."""
    return int(np.random.SeedSequence([seed, zlib.crc32(job.name.encode())])
               .generate_state(1)[0])


def input_path(workdir: str, job: Job, side: int) -> str:
    return os.path.join(workdir, f"{job.name}.mu{side}.json")


def output_path(workdir: str, job: Job, suffix: str = ".json") -> str:
    return os.path.join(workdir, f"{job.name}.out{suffix}")


def _measure(rng: np.random.Generator, pair: Pair) -> tuple[np.ndarray, np.ndarray]:
    points = rng.uniform(0.0, pair.box, size=(pair.n, 2))
    weights = rng.uniform(0.5, 1.5, size=pair.n)
    return points, weights


def write_inputs(workload: str, seed: int, workdir: str) -> None:
    """Write every measure file the workload's jobs read."""
    os.makedirs(workdir, exist_ok=True)
    for job in WORKLOADS[workload]:
        if job.pair is None:
            continue
        rng = np.random.default_rng(job_seed(seed, job))
        p0, w0 = _measure(rng, job.pair)
        p1, w1 = _measure(rng, job.pair)
        w0 = w0 / w0.sum()
        w1 = w1 * (job.pair.mass_ratio / w1.sum())
        for side, (pts, w) in enumerate(((p0, w0), (p1, w1))):
            with open(input_path(workdir, job, side), "w", encoding="utf-8") as fh:
                json.dump({"points": pts.tolist(), "weights": w.tolist()}, fh)
