"""The benchmark's workloads: lcfed experiment configurations by name.

Every workload trains 8 rounds of 24 images per site in batches of 6.  The
learning rate is 1e-2 rather than the paper's 1e-4 so that so short a run
reaches a site-averaged IoU of about 0.85, which then guards quality steadily
across seeds.  Why each workload exists is in README.md.
"""

from __future__ import annotations

DEFAULT_SEED = 1

COMMON = {
    "rounds": 8,
    "local_epochs": 1,
    "batch_size": 6,
    "lr": 1e-2,
    "train_per_site": 24,
    "parallel_clients": False,
}

WORKLOADS = {
    "lcfed-desk": {**COMMON, "mode": "lcfed", "dtype": "float64", "sites": 4,
                   "image_size": 64, "channels": (8, 16, 32, 64, 128), "test_per_site": 30,
                   "eval_every": 2, "checkpoint_every": 0},
    "lcfed-k8-small": {**COMMON, "mode": "lcfed", "dtype": "float64", "sites": 8,
                       "image_size": 32, "channels": (8, 16, 32), "test_per_site": 12,
                       "eval_every": 1, "checkpoint_every": 1},
}

# Final site-averaged joint loss and IoU on DEFAULT_SEED, pinned from the
# seed code.  Reordered float64 arithmetic moves the loss far less than 1e-6
# relative.  One flipped pixel moves IoU by far less than 0.02.
REFERENCE = {
    "lcfed-desk": {"final_joint": 0.692624081662617, "final_iou": 0.8362766122148273},
    "lcfed-k8-small": {"final_joint": 0.47745681128424816, "final_iou": 0.8390740009305142},
}
JOINT_RTOL = 1e-6
IOU_ATOL = 0.02


def fields(workload: str, seed: int) -> dict:
    """ExperimentConfig fields for one workload; the seed sets both RNG roots."""
    return {**WORKLOADS[workload], "benchmark_seed": seed, "master_seed": seed}


def steps_planned(workload: str) -> int:
    """Training steps one whole experiment of the workload takes."""
    w = WORKLOADS[workload]
    batches = -(-w["train_per_site"] // w["batch_size"])
    return w["rounds"] * w["sites"] * w["local_epochs"] * batches


def reference_failures(workload: str, final_joint: float, final_iou: float) -> list:
    """Deviations from the pinned DEFAULT_SEED values, as messages."""
    ref = REFERENCE[workload]
    rtol = JOINT_RTOL
    out = []
    if abs(final_joint - ref["final_joint"]) > rtol * abs(ref["final_joint"]):
        out.append(f"final joint loss {final_joint!r} differs from pinned "
                   f"{ref['final_joint']!r} by more than {rtol} relative")
    if abs(final_iou - ref["final_iou"]) > IOU_ATOL:
        out.append(f"final IoU {final_iou!r} differs from pinned {ref['final_iou']!r} "
                   f"by more than {IOU_ATOL}")
    return out
