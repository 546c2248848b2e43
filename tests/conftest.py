import math

import numpy as np
import pytest

import zdlab as z


@pytest.fixture
def m() -> z.PayoffMatrix:
    return z.DEFAULT_PAYOFFS


@pytest.fixture
def random_strategies():
    """Factory for seeded batches of random memory-one strategies."""

    def make(n: int, seed: int = 0) -> list[z.MemoryOneStrategy]:
        rng = np.random.Generator(np.random.PCG64(seed))
        return [z.MemoryOneStrategy(tuple(rng.random(4))) for _ in range(n)]

    return make


@pytest.fixture(params=[
    2, np.int64(2), (0.25,) * 4, (math.nan, 0.0, 0.0, 1.0), True, False,
], ids=["int", "numpy-int", "distribution", "nan-distribution", "True", "False"])
def bad_start(request):
    """A start that is neither a JointState nor None, refused wherever a start is taken."""
    return request.param


@pytest.fixture(params=["cold", "warm"])
def table_caches(request, m):
    """Empty the payoff-table and basis caches, then fill them for ``warm``.

    The warm-up caches the rows of ``(0, 0)``, ``(1, 0)``, ``(0, 1)`` and
    ``("exp", 1, 0.5)``, alone and together, and every shared basis at the
    default payoffs, so a test that takes this fixture runs once against
    built tables and once against tables it builds itself.
    """
    z.game._feature_rows.cache_clear()
    z.pressdyson._shared_basis.cache_clear()
    if request.param == "warm":
        labels = [(0, 0), (1, 0), (0, 1), ("exp", 1, 0.5)]
        for some in [labels] + [[label] for label in labels]:
            z.payoff_features(m, some)
        for basis in (z.BasisSpec.zd(m), z.BasisSpec.wsls4(m), z.BasisSpec.monomial(m, 3)):
            z.decompose(z.press_dyson(z.WSLS, 1), basis)
        for h in (0.5, 2.0, -1.0):
            z.BasisSpec.exponential(m, h)
    return request.param
