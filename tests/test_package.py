"""The package surface: the names ``knotgroups.__all__`` exports."""

import inspect

import pytest

import knotgroups
from knotgroups import errors, fox, homsearch

REMOVED = ("GroupRingElement", "MissingWeightError", "abelianize_ring_element",
           "images_conjugate")


def test_all_is_unique_and_every_name_resolves():
    names = knotgroups.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(knotgroups, name), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert name not in knotgroups.__all__
    for module in (knotgroups, errors, fox, homsearch):
        assert not hasattr(module, name), (module.__name__, name)


def test_every_error_class_is_exported():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.KnotGroupsError)]
    assert errors.KnotGroupsError in classes and len(classes) > 1
    for cls in classes:
        assert cls.__name__ in knotgroups.__all__, cls.__name__
        assert getattr(knotgroups, cls.__name__) is cls
