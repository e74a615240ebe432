"""Every exported name resolves: a deletion cannot leave a stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import entvec

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(entvec.__path__))


def test_every_submodule_is_listed():
    assert {"cli", "core", "embeddings", "evaluation", "graph", "interpret", "oracle",
            "training"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", ["entvec"] + [f"entvec.{sub}" for sub in SUBMODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}, which do not resolve"
