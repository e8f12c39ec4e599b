"""AddressMap geometry tests."""

import pytest

from repro.dram.address_map import AddressMap


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        AddressMap(banks=0)
    with pytest.raises(ValueError):
        AddressMap(banks=4, columns=0)
