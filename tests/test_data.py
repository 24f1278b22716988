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
