import ctypes
import platform

import pytest

from lcfed import runner


class TestSteadyHeap:
    def test_false_without_raising_when_libc_cannot_load(self, monkeypatch):
        def no_libc(*args, **kwargs):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert runner.steady_heap() is False

    def test_false_without_raising_when_mallopt_is_missing(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: object())
        assert runner.steady_heap() is False

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_true_on_glibc(self):
        assert runner.steady_heap() is True
