"""Benchmark workloads: the CLI configs they generate and their exact counts.

Each workload is one ``augrkhs`` subcommand over a fixed grid.  The workload
seed only chooses the config's ``master_seed``, folded onto
``MASTER_SEEDS`` values so that reference outputs exist for every seed.
"""

from __future__ import annotations

import math

SCHEMES = ["random_mask", "block_mask", "block_mask_flip", "random_mask_flip"]

# workload seed -> master_seed = seed % MASTER_SEEDS; reference outputs are
# stored for each of these master seeds
MASTER_SEEDS = 8

# name -> size -> (command, grid, seeds, options)
WORKLOADS = {
    # Figure 4 complexity sweep; half its cells repeat a process (2 seeds),
    # dominated by the tall SVD in spectral.decompose.
    "kappa-sweep": {
        "full": ("kappa", {"scheme": SCHEMES, "d_x": [8],
                           "alpha": [0.3, 0.7]}, [0, 1], {}),
        "smoke": ("kappa", {"scheme": SCHEMES, "d_x": [3],
                            "alpha": [0.3, 0.7]}, [0, 1], {}),
    },
    # write-side workload: ~37 MB of eigenfunction CSV, no repeated cells
    "spectrum-export": {
        "full": ("spectrum", {"scheme": SCHEMES, "d_x": [7],
                              "alpha": [0.2, 0.5, 0.8]}, [0], {}),
        "smoke": ("spectrum", {"scheme": SCHEMES, "d_x": [3],
                               "alpha": [0.5]}, [0], {}),
    },
    # gradient descent on the exact losses; every cell runs to max_iters,
    # so the step count is fixed and the dense |A|^2 pair matrix sets its cost
    "pretrain-gd": {
        "full": ("pretrain", {"scheme": ["random_mask"], "d_x": [6],
                              "alpha": [0.5],
                              "objective": ["scl", "sclip", "rbt", "vicreg"],
                              "d": [7]}, [0], {"max_iters": 1500}),
        "smoke": ("pretrain", {"scheme": ["random_mask"], "d_x": [3],
                               "alpha": [0.5],
                               "objective": ["scl", "sclip", "rbt", "vicreg"],
                               "d": [3]}, [0], {"max_iters": 50}),
    },
    # the only workload on the empirical route in encoders
    "tracegap-empirical": {
        "full": ("tracegap", {"scheme": ["random_mask"], "d_x": [6],
                              "alpha": [0.5], "d": [4],
                              "N": [128, 512, 1024, 2048]}, [0, 1, 2], {}),
        "smoke": ("tracegap", {"scheme": ["random_mask"], "d_x": [3],
                               "alpha": [0.5], "d": [2],
                               "N": [16, 64, 128, 256]}, [0, 1], {}),
    },
}


def master_seed(seed: int) -> int:
    return seed % MASTER_SEEDS


def command(workload: str, size: str = "full") -> str:
    return WORKLOADS[workload][size][0]


def make_config(workload: str, size: str, seed: int, out_dir: str) -> dict:
    """The JSON config the CLI receives for this workload and seed."""
    cmd, grid, seeds, options = WORKLOADS[workload][size]
    return {
        "command": cmd,
        "grid": grid,
        "seeds": seeds,
        "output_dir": out_dir,
        "master_seed": master_seed(seed),
        "jobs": 1,
        "options": options,
    }


def cell_count(config: dict) -> int:
    """Cells the harness runs: the grid product times the seed list."""
    return math.prod(len(v) for v in config["grid"].values()) * len(
        config["seeds"])


def repeat_cell_frac(config: dict) -> float:
    """Share of cells whose process (scheme, d_x, alpha) an earlier cell built."""
    grid = config["grid"]
    distinct = len(grid["scheme"]) * len(grid["d_x"]) * len(grid["alpha"])
    return 1.0 - distinct / cell_count(config)
