"""Every name a module exports exists, so ``from clonewt.x import *``
cannot fail on a stale entry."""

import importlib
import pkgutil

import pytest

import clonewt

MODULES = sorted(info.name for info in pkgutil.iter_modules(clonewt.__path__, "clonewt."))


def test_every_module_is_found():
    assert "clonewt.filtration" in MODULES and "clonewt.audit" in MODULES


@pytest.mark.parametrize("name", ["clonewt", *MODULES])
def test_all_names_only_existing_attributes(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
