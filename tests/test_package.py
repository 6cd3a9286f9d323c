"""The package namespace re-exports every public name of its modules."""

import importlib
import pkgutil

import peierls


def test_all_covers_every_submodule():
    # cli is the command-line entry point; its names are not library API
    for info in pkgutil.iter_modules(peierls.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"peierls.{info.name}")
        missing = set(module.__all__) - set(peierls.__all__)
        assert not missing, f"peierls.__all__ lacks {sorted(missing)} of peierls.{info.name}"
        for name in module.__all__:
            assert getattr(peierls, name) is getattr(module, name)
