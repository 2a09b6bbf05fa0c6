"""The benchmark's tracer (``bench/tracing.py``) wraps package functions by
name; every name it lists must resolve the way ``Tracer.install`` resolves
it, so a rename fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_as_install_does():
    tracing = _load_tracing()
    missing = []
    for layer, fns in tracing.LAYERS.items():
        home = importlib.import_module(f"matchgames.{layer}")
        for qualname in fns:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            if owner is None or not callable(vars(owner).get(attr)):
                missing.append(f"{layer}.{qualname}")
    assert missing == []


def test_install_wraps_and_uninstall_restores_every_name():
    tracing = _load_tracing()
    for layer in tracing.LAYERS:  # install patches loaded modules only
        importlib.import_module(f"matchgames.{layer}")
    home = importlib.import_module("matchgames.dac")
    original = home.run_dac
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert home.run_dac is not original and home.run_dac.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert home.run_dac is original
    assert set(tracer.names) == set(tracing.traced_names())
