import numpy as np
import pytest

from lcfed.metrics import assd, boundary_pixels, evaluate_site, iou


def boundary_loop(mask):
    """Foreground pixels with a 4-neighbour that is background or off the image."""
    h, w = mask.shape
    out = np.zeros_like(mask, dtype=bool)
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ii, jj = i + di, j + dj
                if not (0 <= ii < h and 0 <= jj < w) or not mask[ii, jj]:
                    out[i, j] = True
    return out


def boundary_padded(mask):
    """The boundary by definition: pad with background, then keep each
    foreground pixel whose four neighbours are not all foreground."""
    m = mask.astype(bool)
    p = np.pad(m, 1, constant_values=False)
    return m & ~(p[2:, 1:-1] & p[:-2, 1:-1] & p[1:-1, 2:] & p[1:-1, :-2])


def assd_brute_force(pred, gt):
    """Mean over both boundaries of each pixel's distance to the nearest pixel
    of the other boundary, from all pairwise distances."""
    bp = np.argwhere(boundary_loop(pred)).astype(float)
    bg = np.argwhere(boundary_loop(gt)).astype(float)
    d = np.sqrt(((bp[:, None, :] - bg[None, :, :]) ** 2).sum(axis=2))
    return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())


def disk(h, w, cy, cx, r):
    ys, xs = np.mgrid[0:h, 0:w]
    return (ys - cy) ** 2 + (xs - cx) ** 2 <= r * r


class TestIoU:
    def test_hand_case(self):
        pred = np.zeros((3, 3), bool)
        gt = np.zeros((3, 3), bool)
        pred[0, 0:2] = True
        gt[0, 1] = gt[1, 1] = gt[2, 1] = True
        assert iou(pred, gt) == pytest.approx(1 / 4)
        assert iou(gt, gt) == 1.0

    def test_disjoint_is_zero_and_empty_union_is_one(self):
        a = np.zeros((2, 2), bool)
        b = np.zeros((2, 2), bool)
        assert iou(a, b) == 1.0
        a[0, 0], b[1, 1] = True, True
        assert iou(a, b) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            iou(np.zeros((2, 2)), np.zeros((2, 3)))


def boundary_cases():
    rng = np.random.default_rng(7)
    cases = [pytest.param(rng.random((h, w)) < density, id=f"random_{h}x{w}_{density}")
             for h, w in ((1, 1), (1, 5), (4, 1), (2, 2), (7, 9), (32, 32), (64, 64))
             for density in (0.3, 0.7, 0.95)]
    band = np.zeros((8, 8), bool)
    band[0:3, :] = True
    corner = np.zeros((9, 6), bool)
    corner[5:, 3:] = True
    return cases + [pytest.param(band, id="band_on_the_top_edge"),
                    pytest.param(corner, id="block_in_the_bottom_right_corner"),
                    pytest.param(disk(10, 10, 5, 0, 3), id="disk_cut_by_the_left_edge"),
                    pytest.param(np.ones((6, 7), bool), id="all_on"),
                    pytest.param(np.zeros((6, 7), bool), id="all_off"),
                    pytest.param(disk(12, 12, 6, 6, 4).astype(np.float64), id="float_disk")]


class TestBoundaryPixels:
    @pytest.mark.parametrize("mask", boundary_cases())
    def test_matches_padded_definition_and_loop(self, mask):
        out = boundary_pixels(mask)
        assert out.dtype == bool and out.shape == mask.shape
        np.testing.assert_array_equal(out, boundary_padded(mask))
        np.testing.assert_array_equal(out, boundary_loop(mask.astype(bool)))

    def test_all_on_keeps_only_the_border_ring(self):
        out = boundary_pixels(np.ones((5, 6), bool))
        ring = np.ones((5, 6), bool)
        ring[1:-1, 1:-1] = False
        np.testing.assert_array_equal(out, ring)


class TestASSD:
    def test_single_pixels_are_their_own_boundary(self):
        pred = np.zeros((6, 6), bool)
        gt = np.zeros((6, 6), bool)
        pred[0, 0], gt[3, 4] = True, True
        assert assd(pred, gt) == pytest.approx(5.0)

    def test_one_pixel_larger_square(self):
        # a 3x3 square against the 5x5 square around it: every boundary pixel
        # of the small one (all but its centre) is 1 from the big one's
        # boundary; of the big one's 16, the 4 corners are sqrt(2) away
        pred = np.zeros((7, 7), bool)
        gt = np.zeros((7, 7), bool)
        pred[2:5, 2:5] = True
        gt[1:6, 1:6] = True
        assert assd(pred, gt) == pytest.approx(0.5 * (1.0 + (12 + 4 * np.sqrt(2)) / 16))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_pairwise_distances(self, seed):
        rng = np.random.default_rng(seed)
        h, w = 12, 15
        pred = disk(h, w, *rng.uniform(3, 9, 2), rng.uniform(2, 5))
        gt = disk(h, w, *rng.uniform(3, 9, 2), rng.uniform(2, 5)) | (rng.random((h, w)) > 0.9)
        assert assd(pred, gt) == pytest.approx(assd_brute_force(pred, gt), rel=1e-12)

    def test_shape_touching_the_border_keeps_its_edge_boundary(self):
        pred = np.zeros((8, 8), bool)
        pred[0:3, :] = True   # a band across the top edge
        gt = disk(8, 8, 2, 3, 2.5)
        np.testing.assert_array_equal(boundary_pixels(pred), boundary_loop(pred))
        assert boundary_pixels(pred)[0].all()
        assert assd(pred, gt) == pytest.approx(assd_brute_force(pred, gt), rel=1e-12)

    def test_one_side_empty_scores_the_image_diagonal(self):
        gt = disk(6, 8, 3, 3, 2)
        empty = np.zeros((6, 8), bool)
        assert assd(empty, gt) == 10.0
        assert assd(gt, empty) == 10.0

    def test_both_empty_is_zero(self):
        assert assd(np.zeros((4, 4), bool), np.zeros((4, 4), bool)) == 0.0


class TestEvaluateSite:
    def test_matches_a_per_sample_loop_over_a_partial_last_batch(self):
        n, classes, h = 5, 2, 8
        rng = np.random.default_rng(3)
        probs = rng.random((n, classes, h, h))
        masks = rng.random((n, classes, h, h)) < 0.4
        assert masks[0, 0].any() and masks[2, 0].any()
        probs[0, 0] = np.where(masks[0, 0], 0.5, 0.25)       # exactly 0.5 is foreground
        probs[1, 1], masks[1, 1] = 0.0, False                # both masks empty
        probs[2, 0] = 0.0                                    # an empty prediction
        batches = []

        def predict(batch):
            batches.append(batch)
            return probs[batch]

        got = evaluate_site(predict, masks, batch_size=2)
        assert batches == [slice(0, 2), slice(2, 4), slice(4, 6)]

        per_sample = [[(iou(probs[i, c] >= 0.5, masks[i, c]),
                        assd(probs[i, c] >= 0.5, masks[i, c])) for i in range(n)]
                      for c in range(classes)]
        assert per_sample[0][0] == (1.0, 0.0)
        assert per_sample[1][1] == (1.0, 0.0)
        assert per_sample[0][2] == (0.0, float(np.hypot(h, h)))
        # the mean over classes of each class's mean over samples
        expected = tuple(sum(sum(s[j] for s in samples) / n for samples in per_sample) / classes
                         for j in (0, 1))
        assert got == expected
