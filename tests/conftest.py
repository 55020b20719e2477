"""Every test starts from an empty held store (``beamchan._held.HELD``), so
no test depends on the bases or tables that the tests before it built."""
import pytest

from beamchan._held import HELD


@pytest.fixture(autouse=True)
def empty_held_store():
    HELD.clear()
