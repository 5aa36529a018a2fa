"""Every name a module exports exists, so ``from clonewt.x import *``
cannot fail on a stale entry, and so does every name the benchmark tracer
wraps."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_benchmark_tracer_finds_every_entry_point():
    """The benchmark's tracer wraps clonewt functions by name, so a renamed
    or removed entry point (``euclid.integrate``, ``euclid._chi_diag_1d``)
    breaks traced benchmark runs; installing and uninstalling it here
    catches that in the test suite."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from clonewt import euclid

    before = dict(vars(euclid))
    tracer = tracing.Tracer()
    try:
        tracer.install(clonewt)
        euclid.sharing_matrix([[0], [1]], family="fnu", density=clonewt.Density.uniform(1))
    finally:
        tracer.uninstall()
    assert "euclid.matrix" in {span[0] for span in tracer.take()}
    assert all(vars(euclid)[key] is value for key, value in before.items())
