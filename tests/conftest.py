"""Every test starts from empty held stores (``beamchan._held.HELD`` and
``STATES``), so no test depends on the bases, tables or cluster states
that the tests before it built or drew."""
import pytest

from beamchan._held import HELD, STATES


@pytest.fixture(autouse=True)
def empty_held_store():
    HELD.clear()
    STATES.clear()
