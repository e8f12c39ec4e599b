"""MemoryRequest tests: the Section IV-B scheduling relations."""

import pytest

from tests.helpers import make_request
from repro.dram.request import MemoryRequest, ServiceClass


class TestRelations:
    def test_bank_conflict_same_bank_different_row(self):
        a = make_request(bank=1, row=10)
        b = make_request(bank=1, row=11)
        assert a.bank_conflict_with(b)
        assert b.bank_conflict_with(a)

    def test_no_conflict_on_row_hit(self):
        a = make_request(bank=1, row=10)
        b = make_request(bank=1, row=10)
        assert not a.bank_conflict_with(b)
        assert a.row_hit_with(b)

    def test_no_conflict_across_banks(self):
        a = make_request(bank=1, row=10)
        b = make_request(bank=2, row=10)
        assert not a.bank_conflict_with(b)
        assert not a.row_hit_with(b)

    def test_data_contention_on_direction_flip(self):
        read = make_request(is_read=True)
        write = make_request(is_read=False)
        assert read.data_contention_with(write)
        assert not read.data_contention_with(make_request(is_read=True))


class TestValidation:
    def test_positive_beats_required(self):
        with pytest.raises(ValueError):
            make_request(beats=0)

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            make_request(bank=-1)
        with pytest.raises(ValueError):
            make_request(row=-1)

    def test_split_index_bounds(self):
        with pytest.raises(ValueError):
            make_request(split_index=2, split_count=2)


class TestProperties:
    def test_priority_flag(self):
        assert make_request(priority=True).is_priority
        assert not make_request().is_priority

    def test_write_flag(self):
        assert make_request(is_read=False).is_write
        assert not make_request(is_read=True).is_write

    def test_split_lineage(self):
        part = make_request(parent_id=1, split_index=2, split_count=4)
        assert (part.parent_id, part.split_index, part.split_count) == (1, 2, 4)
        # An unsplit request is its own parent: the core NI keys its
        # reassembly on request_id when parent_id is None.
        whole = make_request()
        assert (whole.parent_id, whole.split_index, whole.split_count) == (
            None, 0, 1,
        )

    def test_str_shows_ap_and_class(self):
        req = make_request(priority=True, ap_tag=True, is_read=False)
        text = str(req)
        assert "[P]" in text and "WR" in text and "/AP" in text
