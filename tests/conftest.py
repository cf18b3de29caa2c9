import pytest

from liefields import algebra as A


@pytest.fixture(autouse=True)
def cold_sampling_caches():
    """Start every test with the generic results of algebra uncached, so a
    test that patches the sampling code sees that code run, whatever the
    tests before it computed."""
    for fn in (A._generic_rank, A._generic_point, A._isotropy, A._joint_invariant_count):
        fn.cache_clear()
