"""The four certification workloads of the benchmark.

Each workload is one CLI experiment with a fixed shape; the benchmark seed
only decides the config ``seed``, from which the program derives every
graph, perturbation and trial seed.  The shapes were chosen so that the
planned optimisations each have a workload that exercises them and one
that bypasses them:

* ``graph-perturb`` is the dense spectral path (eigendecompositions and
  filter matrices with their per-group projectors); no Monte-Carlo work.
* ``mc-large-n`` builds the dense N x N sampled kernel up to N = 2048; no
  eigendecomposition and no activation tail.
* ``mc-verify`` is the shipped ``configs/mc_verify.txt`` shape: many small
  trials with the activation tail, whose bases are rebuilt per trial.
* ``convnet-probe`` uses the graph and filter layers through per-probe
  ``apply_exact`` mat-vecs and never calls ``filter_matrix``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The seed whose outputs are recorded under reference/<workload>/.
REFERENCE_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    keys: tuple
    # Normalised wall time of one run (run.py, hostspeed.py) at the commit
    # that defined the benchmark.  It fixes how many runs fit in the
    # requested seconds, so the run count is the same on every commit.
    nominal_run_s: float

    def config_text(self, seed: int, **overrides) -> str:
        """Config file text for ``seed``; ``overrides`` replace keys."""
        keys = dict(self.keys, **overrides)
        lines = [f"experiment = {self.experiment}"]
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines.append(f"seed = {seed}")
        return "\n".join(lines) + "\n"

    def run_count(self, seconds: float, minimum: int) -> int:
        return max(minimum, round(seconds / self.nominal_run_s))


def run_seeds(seed: int, count: int) -> list:
    """Config seeds of the timed runs: a pure function of the bench seed."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


_MC_COMMON = (
    ("circle_band", "1.0"),
    ("kernel_band", "4.0"),
    ("delta", "0.25"),
    ("weights", "uniform, cosine"),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "graph-perturb", "perturb-stability",
            (
                ("graph", "random-geometric(256,0.1)"),
                ("laplacian", "unnormalized"),
                ("filters", "lowpass(1.0), highpass(1.0), heat(1.0)"),
                ("perturbations",
                 "remove_edges(0.05), add_edges(0.05), remove_vertices(0.05)"),
            ),
            nominal_run_s=2.4,
        ),
        Workload(
            "mc-large-n", "circle-sampling",
            # N = 4096 took 10 s a run, too few runs for a steady median.
            # The sizes span 16x, as 256..4096 did: with 256, 1024, 2048
            # the fitted slope is noisier and leaves the certification
            # window on some seeds.
            _MC_COMMON + (("sizes", "128, 512, 2048"), ("trials", "30")),
            nominal_run_s=1.82,
        ),
        Workload(
            "mc-verify", "mc-verify",
            _MC_COMMON + (("sizes", "256"), ("trials", "400")),
            nominal_run_s=1.27,
        ),
        Workload(
            "convnet-probe", "convnet-transfer",
            (
                ("graph", "grid(12,12)"),
                ("laplacian", "normalized"),
                # remove_edges can leave a vertex of degree 0, where the
                # normalized Laplacian is undefined and the run exits 2.
                ("net_perturbation", "add_edges(0.05)"),
                ("probes", "20"),
            ),
            nominal_run_s=1.11,
        ),
    )
}
