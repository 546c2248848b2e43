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
