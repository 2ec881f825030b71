import pytest
from hypothesis import settings

from definetti.operators import DEFAULT_MAX_SIDE, set_max_side

# property tests draw the same examples on every run and keep no example
# database, so a run's outcome depends on the code alone
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def _reset_side_cap():
    yield
    set_max_side(DEFAULT_MAX_SIDE)
