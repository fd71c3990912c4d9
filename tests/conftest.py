import sys

import pytest


def clear_caliblab_caches():
    """Clear every functools cache in caliblab, so no table built from an
    earlier convention survives."""
    for name, module in list(sys.modules.items()):
        if name == "caliblab" or name.startswith("caliblab."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.fixture
def convention(monkeypatch):
    """set_convention(owner, name, key, value) sets one convention at its
    single source: the attribute owner.name, or its entry key unless key is
    None.  Every functools cache in caliblab is cleared before and after."""

    def set_convention(owner, name, key, value):
        clear_caliblab_caches()
        if key is None:
            monkeypatch.setattr(owner, name, value)
        else:
            monkeypatch.setitem(getattr(owner, name), key, value)

    yield set_convention
    monkeypatch.undo()
    clear_caliblab_caches()


def flip_first_term(terms):
    """A term table with the sign of its first term flipped."""
    (index, sign), *rest = terms
    return ((index, -sign), *rest)
