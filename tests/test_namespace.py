"""zdlab's namespace: its five layers' public names plus a few ready-made extras."""

import zdlab as z
from zdlab import game, markov, moments, montecarlo, pressdyson

LAYERS = (game, markov, moments, montecarlo, pressdyson)
EXTRAS = ("__version__", "TFT", "WSLS", "ALL_C", "ALL_D")


def test_every_layer_name_is_the_layer_object():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(z, name) is getattr(layer, name), f"{layer.__name__}.{name}"


def test_all_is_the_extras_and_the_layer_names_once_each():
    assert len(z.__all__) == len(set(z.__all__))
    assert set(z.__all__) == set(EXTRAS).union(*(layer.__all__ for layer in LAYERS))


def _records() -> dict:
    """Each result record, by (layer, name), with a value its function returns."""
    m, tft, wsls = z.DEFAULT_PAYOFFS, z.TFT, z.WSLS
    M = z.transition_matrix(tft, wsls)
    cfg = z.SimulationConfig(rounds=100, burn_in=0)
    return {
        (markov, "ChainStructure"): z.classify(M),
        (markov, "LimitResult"): z.cesaro_limit(M),
        (markov, "LimitBatch"): z.cesaro_limits(M[None]),
        (montecarlo, "SimulationReport"): z.simulate(tft, wsls, cfg),
        (montecarlo, "ComparisonReport"): z.empirical_vs_exact(tft, wsls, cfg, 5.0),
        (pressdyson, "DecompositionResult"): z.decompose(z.press_dyson(tft, 1),
                                                         z.BasisSpec.zd(m)),
        (pressdyson, "IdentityCheck"): z.tft_power_identity(m, 2),
    }


def test_result_records_are_reached_through_their_functions():
    # the records stay in their layers, out of every __all__
    for (layer, name), result in _records().items():
        assert name not in z.__all__ and name not in layer.__all__, name
        assert type(result) is getattr(layer, name), name
