import dataclasses
import hashlib
import os
import re
import tracemalloc

import numpy as np
import pytest

from lcfed import data


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestPGM:
    def test_16_bit_image_round_trips_exactly_and_is_big_endian(self, tmp_path):
        image = np.random.default_rng(0).integers(0, 65536, size=(3, 5), dtype=np.uint16)
        image[0, 0] = 0x0102
        path = str(tmp_path / "img.pgm")
        data.write_pgm(path, image, maxval=65535)
        blob = read_bytes(path)
        header = b"P5\n5 3\n65535\n"
        assert blob[:len(header)] == header
        assert blob[len(header):len(header) + 2] == b"\x01\x02"
        assert len(blob) == len(header) + 2 * image.size
        codes, maxval = data.read_pgm(path)
        assert codes.dtype == np.uint16 and maxval == 65535
        np.testing.assert_array_equal(codes, image)

    def test_8_bit_mask_round_trips_exactly(self, tmp_path):
        mask = (np.random.default_rng(1).random((4, 6)) > 0.5) * np.uint8(255)
        path = str(tmp_path / "mask.pgm")
        data.write_pgm(path, mask, maxval=255)
        blob = read_bytes(path)
        assert blob.startswith(b"P5\n6 4\n255\n")
        assert len(blob) == len(b"P5\n6 4\n255\n") + mask.size
        codes, maxval = data.read_pgm(path)
        assert codes.dtype == np.uint16 and maxval == 255
        np.testing.assert_array_equal(codes, mask)

    def test_header_comment_is_skipped(self, tmp_path):
        path = str(tmp_path / "commented.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n# written by hand\n3 # width\n2\n255\n")
            fh.write(bytes([0, 51, 255, 102, 0, 204]))
        codes, maxval = data.read_pgm(path)
        np.testing.assert_array_equal(codes, [[0, 51, 255], [102, 0, 204]])
        assert maxval == 255

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_truncated_pixel_data_names_the_file(self, tmp_path, maxval):
        path = str(tmp_path / "cut.pgm")
        data.write_pgm(path, np.full((4, 4), maxval // 2, dtype=np.uint16), maxval=maxval)
        with open(path, "r+b") as fh:
            fh.truncate(len(read_bytes(path)) - 1)
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated pixel data")):
            data.read_pgm(path)

    @pytest.mark.parametrize("maxval", [0, 65536])
    def test_maxval_outside_the_format_names_the_file(self, tmp_path, maxval):
        path = str(tmp_path / "maxval.pgm")
        with open(path, "wb") as fh:
            fh.write(f"P5\n2 1\n{maxval}\n".encode() + bytes(4))
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: maxval {maxval} is outside 1..65535")):
            data.read_pgm(path)

    def test_pixel_above_maxval_names_the_file(self, tmp_path):
        path = str(tmp_path / "bright.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n3 1\n100\n" + bytes([0, 100, 101]))
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: pixel value 101 exceeds maxval 100")):
            data.read_pgm(path)

    @pytest.mark.parametrize("codes, maxval, message", [
        (np.array([[0, 100, 101]], dtype=np.uint8), 100, "pixel value 101 exceeds maxval 100"),
        (np.array([[0, 256]], dtype=np.uint16), 255, "pixel value 256 exceeds maxval 255"),
        (np.zeros((1, 2)), 255, "pixel codes must be unsigned integers, not float64"),
        (np.zeros((1, 2), dtype=bool), 255, "pixel codes must be unsigned integers, not bool"),
    ])
    def test_codes_above_maxval_or_not_unsigned_are_not_written(self, tmp_path, codes,
                                                                maxval, message):
        path = str(tmp_path / "bad.pgm")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            data.write_pgm(path, codes, maxval=maxval)
        assert not os.path.exists(path)

    def test_truncated_header_names_the_file(self, tmp_path):
        path = str(tmp_path / "header.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n4 4\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: truncated or malformed PGM header")):
            data.read_pgm(path)


class TestWriteDataset:
    def test_one_class_samples_load_back_unchanged(self, tmp_path):
        self.assert_round_trip(tmp_path, classes=1)

    def test_two_class_samples_load_back_unchanged(self, tmp_path):
        self.assert_round_trip(tmp_path, classes=2)
        with open(tmp_path / "manifest.txt") as fh:
            assert fh.read().splitlines()[1] == ("0 train site0_train_0000_img.pgm "
                                                 "site0_train_0000_mask.pgm "
                                                 "site0_train_0000_mask1.pgm")

    @staticmethod
    def assert_round_trip(tmp_path, classes):
        sites = data.generate_benchmark(3, 2, 2, 1, 16, classes=classes)
        loaded = data.load_directory(data.write_dataset(sites, str(tmp_path)))
        assert len(loaded) == len(sites)
        for got_site, want_site in zip(loaded, sites):
            for got, want, n in ((got_site.train, want_site.train, 2),
                                 (got_site.test, want_site.test, 1)):
                assert got.masks.shape == (n, classes, 16, 16)
                for field in ("codes", "maxval", "masks"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def test_one_class_files_are_pinned(self, tmp_path):
        # a 1-class dataset's files stay byte for byte what every earlier
        # version wrote, so manifests already on disk reproduce their runs
        data.write_dataset(data.generate_benchmark(3, 2, 2, 1, 16), str(tmp_path))
        h = hashlib.sha256()
        names = sorted(os.listdir(tmp_path))
        for name in names:
            h.update(name.encode())
            h.update(read_bytes(tmp_path / name))
        assert (len(names), h.hexdigest()[:16]) == (13, "131ba17edb39eab9")


class TestGenerator:
    def test_samples_are_a_function_of_the_benchmark_seed(self):
        def arrays(seed):
            return [(split.codes.shape, split.codes.tobytes(), split.masks.tobytes())
                    for site in data.generate_benchmark(seed, 2, 2, 1, 16)
                    for split in (site.train, site.test)]

        assert arrays(5) == arrays(5)
        assert [a[0] for a in arrays(5)] == [a[0] for a in arrays(6)]
        assert [a[1:] for a in arrays(5)] != [a[1:] for a in arrays(6)]

    @pytest.mark.parametrize("classes", [0, 3])
    def test_a_class_count_other_than_1_or_2_is_rejected_before_drawing(
            self, classes, monkeypatch):
        monkeypatch.setattr(data, "_FAMILY_RENDERERS", {})   # a drawn shape would fail here
        with pytest.raises(ValueError,
                           match=re.escape(f"generator supports 1 or 2 classes, got {classes}")):
            data.generate_site(VALID_STYLE, 2, 1, seed=0, image_size=16, classes=classes)


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_box_blur_is_the_edge_padded_window_mean(radius):
    img = np.random.default_rng(2).random((7, 9))
    padded = np.pad(img, radius, mode="edge")
    size = 2 * radius + 1
    expected = np.array([[padded[i:i + size, j:j + size].mean() for j in range(9)]
                         for i in range(7)])
    np.testing.assert_allclose(data._box_blur(img, radius), expected, rtol=1e-14)


VALID_STYLE = data.default_styles(1, 1)[0]


@pytest.mark.parametrize("field, value, message", [
    ("intensity_offset", -0.31, "intensity offset -0.31 out of range"),
    ("intensity_offset", 0.31, "intensity offset 0.31 out of range"),
    ("contrast_gain", 0.59, "contrast gain 0.59 out of range"),
    ("contrast_gain", 1.61, "contrast gain 1.61 out of range"),
    ("noise_std", -0.01, "noise std -0.01 out of range"),
    ("noise_std", 0.16, "noise std 0.16 out of range"),
    ("blur_radius", 3, "blur radius 3 not in 0..2"),
    ("shape_family", "star", "unknown shape family 'star'"),
    ("size_range", (0.0, 0.2), "bad size range (0.0, 0.2)"),
    ("size_range", (0.3, 0.2), "bad size range (0.3, 0.2)"),
    ("size_range", (0.3, 1.0), "bad size range (0.3, 1.0)"),
])
def test_site_style_rejects_each_out_of_range_field(field, value, message):
    VALID_STYLE.validate()
    style = dataclasses.replace(VALID_STYLE, **{field: value})
    with pytest.raises(ValueError, match=re.escape(message)):
        style.validate()
    with pytest.raises(ValueError, match=re.escape(message)):
        data.generate_site(style, 1, 0, seed=0, image_size=16)


def _mask_of_another_size(out_dir):
    data.write_pgm(os.path.join(out_dir, "small.pgm"), np.zeros((8, 8), dtype=np.uint8),
                   maxval=255)
    return "0 train site0_train_0000_img.pgm small.pgm"


# (manifest record replacing the first sample's, error type, message)
BAD_RECORDS = {
    "field_count": (lambda out_dir: "0 train site0_train_0000_img.pgm", ValueError,
                    "manifest.txt:2: expected 'site split image mask'"),
    "negative_site": (lambda out_dir: "-1 train site0_train_0000_img.pgm site0_train_0000_mask.pgm",
                      ValueError, "manifest.txt:2: bad site '-1'"),
    # a digit to str.isdigit that int() rejects
    "non_ascii_site": (lambda out_dir: "² train site0_train_0000_img.pgm "
                                       "site0_train_0000_mask.pgm",
                       ValueError, "manifest.txt:2: bad site '²'"),
    "split": (lambda out_dir: "0 valid site0_train_0000_img.pgm site0_train_0000_mask.pgm",
              ValueError, "manifest.txt:2: bad split 'valid'"),
    "missing_file": (lambda out_dir: "0 train gone.pgm site0_train_0000_mask.pgm",
                     FileNotFoundError, "manifest.txt:2: missing file .*gone.pgm"),
    "size_mismatch": (_mask_of_another_size, ValueError,
                      r"manifest.txt:2: size mismatch site0_train_0000_img.pgm \(16, 16\) "
                      r"vs small.pgm \(8, 8\)"),
}


@pytest.mark.parametrize("case", list(BAD_RECORDS))
def test_manifest_record_is_rejected_naming_its_line(case, tmp_path):
    record, error, message = BAD_RECORDS[case]
    out_dir = str(tmp_path)
    manifest = data.write_dataset(data.generate_benchmark(3, 1, 2, 1, 16), out_dir)
    with open(manifest) as fh:
        lines = fh.read().splitlines()
    lines[1] = record(out_dir)
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(error, match=message):
        data.load_directory(manifest)


def test_a_record_with_another_class_count_is_rejected_naming_its_line(tmp_path):
    manifest = data.write_dataset(data.generate_benchmark(3, 1, 2, 1, 16), str(tmp_path))
    with open(manifest) as fh:
        lines = fh.read().splitlines()
    lines[2] += " " + lines[2].split()[3]   # the second record lists its mask twice
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(ValueError,
                       match=re.escape("manifest.txt:3: 2 mask(s), but the first record has 1")):
        data.load_directory(manifest)


# ---------------------------------------------------------------------------
# sites at rest and their decoded batches
# ---------------------------------------------------------------------------

# (sites, train per site, test per site, image size) of the benchmark's workloads
BENCH_SHAPES = {"desk": (4, 24, 30, 64), "k8": (8, 24, 12, 32)}
BATCH = 6

# sha256 prefixes of every site's train and test images and masks in float64
# and float32, as the float arrays that sites held before they held codes:
# a decoded batch must be those arrays' rows byte for byte
DECODED_DIGESTS = {
    (1, "desk", 1): "54497c91a2460241",
    (1, "desk", 2): "a4a24c89a7723f26",
    (1, "k8", 1): "915d6f77c76a7092",
    (1, "k8", 2): "cc8de500fa34bfa4",
    (2, "desk", 1): "5749c5733df340e0",
    (2, "desk", 2): "124173a684ac8aa5",
    (2, "k8", 1): "d79f0c2b9c56df56",
    (2, "k8", 2): "6fb0513539ffa4fe",
    (3, "desk", 1): "fb169255ec258e26",
    (3, "desk", 2): "6375416e79dca49a",
    (3, "k8", 1): "374276116857f465",
    (3, "k8", 2): "952651b8792bccd5",
    (2024, "desk", 1): "ec3e6cda87955f88",
    (2024, "desk", 2): "5bfce0fff74c1fc0",
    (2024, "k8", 1): "3f85b29369b94a0d",
    (2024, "k8", 2): "0569008166513367",
}
MIXED_DIGEST = "b49b6a57f7e59ad3"
DTYPES = (np.float64, np.float32)


def decoded_digest(sites) -> str:
    """Digest of each split's images, decoded batch by batch in evaluation
    order, and its masks, per site and dtype; each training-order batch is
    checked against the same rows on the way."""
    h = hashlib.sha256()
    for k, site in enumerate(sites):
        for split in (site.train, site.test):
            n = len(split.codes)
            order = np.random.default_rng(k).permutation(n)
            for dtype in DTYPES:
                images = np.concatenate([split.images(slice(s, s + BATCH), dtype)
                                         for s in range(0, n, BATCH)])
                masks = split.masks.astype(dtype)
                for s in range(0, n, BATCH):
                    idx = order[s:s + BATCH]
                    assert split.images(idx, dtype).tobytes() == images[idx].tobytes()
                    assert split.masks[idx].astype(dtype).tobytes() == masks[idx].tobytes()
                h.update(images.tobytes())
                h.update(masks.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("seed, shape, classes", list(DECODED_DIGESTS))
def test_decoded_batches_equal_the_float_arrays_byte_for_byte(seed, shape, classes):
    sites = data.generate_benchmark(seed, *BENCH_SHAPES[shape], classes)
    assert decoded_digest(sites) == DECODED_DIGESTS[(seed, shape, classes)]


# (split, image maxval, mask maxval) per record; a mask code of 1 over maxval 2
# is exactly 0.5, which is foreground
MIXED = [("train", 255, 255), ("train", 4095, 1), ("train", 65535, 65535),
         ("test", 4095, 2), ("test", 255, 65535), ("test", 65535, 255)]


def test_a_manifest_of_8_12_and_16_bit_images_decodes_byte_for_byte(tmp_path):
    rng = np.random.default_rng(7)
    lines = []
    for i, (split, img_max, mask_max) in enumerate(MIXED):
        image = rng.integers(0, img_max + 1, size=(8, 12)).astype(np.uint16)
        mask = rng.integers(0, mask_max + 1, size=(8, 12)).astype(np.uint16)
        data.write_pgm(str(tmp_path / f"img{i}.pgm"), image, maxval=img_max)
        data.write_pgm(str(tmp_path / f"mask{i}.pgm"), mask, maxval=mask_max)
        lines.append(f"0 {split} img{i}.pgm mask{i}.pgm\n")
    (tmp_path / "manifest.txt").write_text("".join(lines))
    [site] = data.load_directory(str(tmp_path / "manifest.txt"))
    assert site.train.maxval.ravel().tolist() == [255, 4095, 65535]
    assert site.test.maxval.ravel().tolist() == [4095, 255, 65535]
    assert decoded_digest([site]) == MIXED_DIGEST


@pytest.mark.parametrize("classes", [1, 2])
def test_a_desk_site_holds_its_stored_bytes_and_decodes_one_batch(classes):
    _, n_train, n_test, size = BENCH_SHAPES["desk"]
    site = data.generate_benchmark(1, 1, n_train, n_test, size, classes)[0]
    for split, n in ((site.train, n_train), (site.test, n_test)):
        # every array the split holds: 2 bytes per image pixel, 1 per mask
        # pixel and class, 2 per image for its maxval
        arrays = [a for a in vars(split).values() if isinstance(a, np.ndarray)]
        assert sum(a.nbytes for a in arrays) <= n * size * size * (2 + classes) + 2 * n

        idx = np.arange(1, n, 4)[:BATCH]
        for dtype in DTYPES:
            tracemalloc.start()
            try:
                batch = split.images(idx, dtype)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert batch.shape == (BATCH, 1, size, size) and batch.dtype == dtype
            assert batch.base is None   # no view into a decoded whole split
            # the batch's codes, its float64 quotient and its cast, nothing per split
            assert peak <= BATCH * size * size * (2 + 8 + 8) + 4096
    assert set(vars(site)) == {"train", "test"}
