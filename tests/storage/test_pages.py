"""Tests for the fixed-size page abstraction."""

import pytest

from repro.errors import PageOverflowError
from repro.storage.pages import DEFAULT_PAGE_SIZE, Page


class TestConstruction:
    def test_zeroed_by_default(self):
        page = Page(128)
        assert page.to_bytes() == bytes(128)

    def test_from_image(self):
        image = bytes(range(64))
        page = Page(64, image)
        assert page.to_bytes() == image

    def test_image_size_mismatch(self):
        with pytest.raises(PageOverflowError):
            Page(64, bytes(32))

    def test_default_size(self):
        assert Page().size == DEFAULT_PAGE_SIZE


class TestAccessors:
    @pytest.mark.parametrize(
        "writer,reader,value",
        [
            ("write_u8", "read_u8", 200),
            ("write_u16", "read_u16", 40000),
            ("write_u32", "read_u32", 3_000_000_000),
            ("write_i64", "read_i64", -(2**60)),
            ("write_f64", "read_f64", -1234.5678),
        ],
    )
    def test_roundtrip(self, writer, reader, value):
        page = Page(64)
        getattr(page, writer)(8, value)
        assert getattr(page, reader)(8) == value

    def test_bytes_roundtrip(self):
        page = Page(64)
        page.write_bytes(10, b"hello")
        assert page.read_bytes(10, 5) == b"hello"

    def test_adjacent_values_do_not_clobber(self):
        page = Page(64)
        page.write_f64(0, 1.5)
        page.write_f64(8, 2.5)
        assert page.read_f64(0) == 1.5
        assert page.read_f64(8) == 2.5


class TestBounds:
    def test_write_past_end(self):
        page = Page(16)
        with pytest.raises(PageOverflowError):
            page.write_i64(12, 1)

    def test_read_past_end(self):
        page = Page(16)
        with pytest.raises(PageOverflowError):
            page.read_f64(9)

    def test_negative_offset(self):
        page = Page(16)
        with pytest.raises(PageOverflowError):
            page.write_u8(-1, 0)

    @pytest.mark.parametrize(
        "writer,value",
        [
            ("write_u8", 256),
            ("write_u16", -1),
            ("write_u32", 2**32),
            ("write_i64", 2**63),
            ("write_f64", "1.5"),
        ],
    )
    def test_value_out_of_range(self, writer, value):
        page = Page(16)
        with pytest.raises(PageOverflowError, match="does not fit"):
            getattr(page, writer)(0, value)

    def test_boundary_write_allowed(self):
        page = Page(16)
        page.write_i64(8, 42)  # exactly the final 8 bytes
        assert page.read_i64(8) == 42
