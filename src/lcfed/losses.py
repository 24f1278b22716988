"""Dice segmentation losses and the joint training objective."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

DICE_SMOOTH = 1e-5


def dice_loss(s: Tensor, g, smooth: float = DICE_SMOOTH) -> Tensor:
    """1 - 2|S*G| / (|S| + |G|), per sample and class, then averaged.

    The smooth term in numerator and denominator keeps the empty-vs-empty
    case at loss 0 instead of 0/0.
    """
    if not isinstance(g, Tensor):
        g = Tensor(np.asarray(g, dtype=s.dtype))
    if s.shape != g.shape:
        raise ValueError(f"prediction {s.shape} and target {g.shape} differ")
    if s.size == 0:
        raise ValueError("empty maps")
    if s.ndim == 3:  # single sample (N, H, W)
        s = s.reshape(1, *s.shape)
        g = g.reshape(1, *g.shape)
    spatial = tuple(range(2, s.ndim))
    inter = (s * g).sum(axis=spatial)
    denom = s.sum(axis=spatial) + g.sum(axis=spatial)
    dice = (inter * 2.0 + smooth) / (denom + smooth)
    return (-dice + 1.0).mean()


@dataclass
class LossBreakdown:
    """Joint objective terms; `joint` is the scalar the optimizer descends."""

    coarse: Tensor
    calib: Tensor
    con: Tensor
    joint: Tensor

    def values(self) -> dict:
        return {
            "coarse": self.coarse.item(),
            "calib": self.calib.item(),
            "con": self.con.item(),
            "joint": self.joint.item(),
        }


def joint_loss(coarse: Tensor, calib: Tensor, con: Tensor, lam: float) -> LossBreakdown:
    """joint = coarse + calib + lam * con; rejects non-finite terms."""
    for name, t in (("coarse", coarse), ("calib", calib), ("con", con)):
        if not np.isfinite(t.data).all():
            raise FloatingPointError(f"non-finite {name} loss: {t.data!r}")
    joint = coarse + calib + con * lam
    return LossBreakdown(coarse=coarse, calib=calib, con=con, joint=joint)
