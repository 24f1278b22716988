"""Dice segmentation losses and the joint training objective."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .tensor import Tensor

DICE_SMOOTH = 1e-5


def dice_loss(s: Tensor, g) -> Tensor:
    """1 - 2|S*G| / (|S| + |G|), per sample and class, then averaged.

    DICE_SMOOTH in numerator and denominator keeps the empty-vs-empty
    case at loss 0 instead of 0/0.
    """
    if not isinstance(g, Tensor):
        g = Tensor(np.asarray(g, dtype=s.dtype))
    if s.shape != g.shape:
        raise ValueError(f"prediction {s.shape} and target {g.shape} differ")
    if s.size == 0:
        raise ValueError("empty maps")
    spatial = tuple(range(2, s.ndim))
    inter = (s * g).sum(axis=spatial)
    denom = s.sum(axis=spatial) + g.sum(axis=spatial)
    dice = (inter * 2.0 + DICE_SMOOTH) / (denom + DICE_SMOOTH)
    return (-dice + 1.0).mean()


@dataclass
class LossBreakdown:
    """Joint objective terms; `joint` is the scalar the optimizer descends."""

    joint: Tensor
    coarse: Tensor
    calib: Tensor
    con: Tensor

    def values(self) -> dict:
        return {name: getattr(self, name).item() for name in LOSS_TERMS}


# the terms' names in field order, which is the order of metrics.csv's loss columns
LOSS_TERMS = tuple(f.name for f in fields(LossBreakdown))


def _check_finite(name: str, t: Tensor):
    if not np.isfinite(t.data).all():
        raise FloatingPointError(f"non-finite {name} loss: {t.data!r}")


def joint_loss(coarse: Tensor, calib: Tensor, con: Tensor, lam: float) -> LossBreakdown:
    """joint = coarse + calib + lam * con; rejects non-finite terms and sum."""
    for name, t in (("coarse", coarse), ("calib", calib), ("con", con)):
        _check_finite(name, t)
    joint = coarse + calib + con * lam
    _check_finite("joint", joint)
    return LossBreakdown(joint=joint, coarse=coarse, calib=calib, con=con)
