"""Evaluation metrics: region overlap (IoU) and boundary distance (ASSD)."""

from __future__ import annotations

import numpy as np
from scipy import ndimage

FOREGROUND_THRESHOLD = 0.5


def iou(pred: np.ndarray, gt: np.ndarray) -> float:
    """Intersection over union of two binary masks; empty union counts as 1."""
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    p = pred.astype(bool)
    g = gt.astype(bool)
    union = np.count_nonzero(p | g)
    if union == 0:
        return 1.0
    return np.count_nonzero(p & g) / union


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels 4-adjacent to background; outside the image counts
    as background, so shapes touching the border keep their boundary."""
    m = mask.astype(bool)
    # border pixels are never interior; the rest are interior when all four
    # neighbours are foreground
    interior = np.zeros_like(m)
    interior[1:-1, 1:-1] = m[2:, 1:-1] & m[:-2, 1:-1] & m[1:-1, 2:] & m[1:-1, :-2]
    return m & ~interior


def assd(pred: np.ndarray, gt: np.ndarray) -> float:
    """Average symmetric surface distance in pixels.

    Both masks empty -> 0; exactly one empty -> the image diagonal length.
    """
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    bp = boundary_pixels(pred)
    bg = boundary_pixels(gt)
    p_any, g_any = bool(bp.any()), bool(bg.any())
    if not p_any and not g_any:
        return 0.0
    if p_any != g_any:
        return float(np.hypot(*pred.shape))
    dist_to_gt = ndimage.distance_transform_edt(~bg)
    dist_to_pred = ndimage.distance_transform_edt(~bp)
    return 0.5 * (float(dist_to_gt[bp].mean()) + float(dist_to_pred[bg].mean()))


def evaluate_site(predict, images: np.ndarray, masks: np.ndarray,
                  threshold: float = FOREGROUND_THRESHOLD,
                  batch_size: int = 8) -> tuple[float, float]:
    """Run `predict` over the test arrays; returns (IoU, ASSD), each the mean
    over classes of that class's mean over samples.

    `predict` maps (b, 1, H, W) images to (b, N, H, W) probabilities;
    binarization is probability >= threshold.
    """
    n = images.shape[0]
    if n == 0:
        raise ValueError("empty test set")
    n_classes = masks.shape[1]
    iou_sum = np.zeros(n_classes)
    assd_sum = np.zeros(n_classes)
    for start in range(0, n, batch_size):
        batch = images[start:start + batch_size]
        probs = predict(batch)
        binary = probs >= threshold
        for i in range(batch.shape[0]):
            for c in range(n_classes):
                gt = masks[start + i, c] >= 0.5
                iou_sum[c] += iou(binary[i, c], gt)
                assd_sum[c] += assd(binary[i, c], gt)
    return float((iou_sum / n).mean()), float((assd_sum / n).mean())
