"""Evaluation metrics: region overlap (IoU) and boundary distance (ASSD).

ASSD's distances equal `scipy.ndimage.distance_transform_edt`'s bit for bit
(the tests hold them to scipy).  lcfed imports numpy only:
`scipy.ndimage` takes each process longer to import than numpy itself.
"""

from __future__ import annotations

import numpy as np

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


def distances_to(feature: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Euclidean distance from each True pixel of `query`, in row-major order,
    to the nearest True pixel of the nonempty `feature`.

    Equal bit for bit to `scipy.ndimage.distance_transform_edt(~feature)[query]`,
    which is the square root of the exact integer dy^2 + dx^2 to a nearest
    feature pixel; so is this.  Two passes, each bounded by the image size:
    every pixel's vertical distance vd to the nearest feature pixel in its
    column, then per query pixel the minimum over columns of vd^2 + dx^2.
    """
    h, w = feature.shape
    rows = np.arange(h, dtype=np.int32)[:, None]
    far = h + w  # a column without a feature pixel is farther than any pixel
    above = np.maximum.accumulate(np.where(feature, rows, -far), axis=0)
    below = np.minimum.accumulate(np.where(feature, rows, 2 * far)[::-1], axis=0)[::-1]
    vd2 = np.minimum(rows - above, below - rows)
    vd2 *= vd2
    cols = np.arange(w, dtype=np.int32)
    dx2 = cols[:, None] - cols
    dx2 *= dx2
    qy, qx = np.nonzero(query)
    d2 = vd2[qy]
    d2 += dx2[qx]
    return np.sqrt(d2.min(axis=1), dtype=np.float64)


def assd(pred: np.ndarray, gt: np.ndarray) -> float:
    """Average symmetric surface distance in pixels.

    Both masks empty -> 0; exactly one empty -> the image diagonal length.
    Otherwise the mean over each boundary's pixels of `distances_to` the
    other boundary, which equals scipy's `distance_transform_edt` at those
    pixels bit for bit without importing scipy (see the module docstring).
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
    return 0.5 * (float(distances_to(bg, bp).mean()) + float(distances_to(bp, bg).mean()))


def evaluate_site(predict, masks: np.ndarray, batch_size: int = 8) -> tuple[float, float]:
    """Score `predict` over a test split in batches; returns (IoU, ASSD),
    each the mean over classes of that class's mean over samples.

    `masks` is the split's (n, N, H, W) bool ground truth.  `predict` maps a
    slice of the split's samples to their (b, N, H, W) probabilities;
    binarization is probability >= FOREGROUND_THRESHOLD.
    """
    n = masks.shape[0]
    if n == 0:
        raise ValueError("empty test set")
    n_classes = masks.shape[1]
    iou_sum = np.zeros(n_classes)
    assd_sum = np.zeros(n_classes)
    for start in range(0, n, batch_size):
        binary = predict(slice(start, start + batch_size)) >= FOREGROUND_THRESHOLD
        for i, truth in enumerate(masks[start:start + batch_size]):
            for c in range(n_classes):
                iou_sum[c] += iou(binary[i, c], truth[c])
                assd_sum[c] += assd(binary[i, c], truth[c])
    return float((iou_sum / n).mean()), float((assd_sum / n).mean())
