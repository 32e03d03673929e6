"""The package's public names all resolve."""

import corrset


def test_every_exported_name_resolves():
    missing = [name for name in corrset.__all__ if not hasattr(corrset, name)]
    assert not missing, missing
    assert len(set(corrset.__all__)) == len(corrset.__all__)


def test_star_import():
    namespace = {}
    exec("from corrset import *", namespace)
    assert set(corrset.__all__) <= set(namespace)
