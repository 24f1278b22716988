import dataclasses
import os
import re

import numpy as np
import pytest

from lcfed import data


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestPGM:
    def test_16_bit_image_round_trips_exactly_and_is_big_endian(self, tmp_path):
        values = np.random.default_rng(0).integers(0, 65536, size=(3, 5)) / 65535.0
        values[0, 0] = 0x0102 / 65535.0
        path = str(tmp_path / "img.pgm")
        data.write_pgm(path, values, maxval=65535)
        blob = read_bytes(path)
        header = b"P5\n5 3\n65535\n"
        assert blob[:len(header)] == header
        assert blob[len(header):len(header) + 2] == b"\x01\x02"
        assert len(blob) == len(header) + 2 * values.size
        np.testing.assert_array_equal(data.read_pgm(path), values)

    def test_8_bit_mask_round_trips_exactly(self, tmp_path):
        mask = (np.random.default_rng(1).random((4, 6)) > 0.5).astype(np.float64)
        path = str(tmp_path / "mask.pgm")
        data.write_pgm(path, mask, maxval=255)
        blob = read_bytes(path)
        assert blob.startswith(b"P5\n6 4\n255\n")
        assert len(blob) == len(b"P5\n6 4\n255\n") + mask.size
        np.testing.assert_array_equal(data.read_pgm(path), mask)

    def test_header_comment_is_skipped(self, tmp_path):
        path = str(tmp_path / "commented.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n# written by hand\n3 # width\n2\n255\n")
            fh.write(bytes([0, 51, 255, 102, 0, 204]))
        np.testing.assert_array_equal(data.read_pgm(path),
                                      np.array([[0, 51, 255], [102, 0, 204]]) / 255.0)

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_truncated_pixel_data_names_the_file(self, tmp_path, maxval):
        path = str(tmp_path / "cut.pgm")
        data.write_pgm(path, np.full((4, 4), 0.5), maxval=maxval)
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

    def test_truncated_header_names_the_file(self, tmp_path):
        path = str(tmp_path / "header.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n4 4\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: truncated or malformed PGM header")):
            data.read_pgm(path)


class TestWriteDataset:
    def test_one_class_samples_load_back_unchanged(self, tmp_path):
        per_site = data.benchmark_samples(3, 2, 2, 1, 16)
        manifest = data.write_dataset(per_site, str(tmp_path))
        loaded = data.load_directory(manifest)
        flat = [s for samples in per_site for s in samples]
        assert len(loaded) == len(flat)
        for got, want in zip(loaded, flat):
            assert (got.site, got.split) == (want.site, want.split)
            np.testing.assert_array_equal(got.image, want.image)
            np.testing.assert_array_equal(got.mask, want.mask)

    def test_masks_with_two_classes_are_rejected_before_any_file_is_written(self, tmp_path):
        per_site = data.benchmark_samples(3, 2, 2, 1, 16, classes=2)
        out = str(tmp_path / "two")
        with pytest.raises(ValueError, match="site 0 sample 0: mask has 2 classes"):
            data.write_dataset(per_site, out)
        assert not os.path.exists(out)


class TestGenerator:
    def test_samples_are_a_function_of_the_benchmark_seed(self):
        def arrays(seed):
            return [(s.site, s.split, s.image.tobytes(), s.mask.tobytes())
                    for samples in data.benchmark_samples(seed, 2, 2, 1, 16) for s in samples]

        assert arrays(5) == arrays(5)
        assert [a[:2] for a in arrays(5)] == [a[:2] for a in arrays(6)]
        assert [a[2:] for a in arrays(5)] != [a[2:] for a in arrays(6)]


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
        data.generate_site(style, 0, 1, 0, seed=0, image_size=16)


def _mask_of_another_size(out_dir):
    data.write_pgm(os.path.join(out_dir, "small.pgm"), np.zeros((8, 8)), maxval=255)
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
    manifest = data.write_dataset(data.benchmark_samples(3, 1, 2, 1, 16), out_dir)
    with open(manifest) as fh:
        lines = fh.read().splitlines()
    lines[1] = record(out_dir)
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(error, match=message):
        data.load_directory(manifest)
