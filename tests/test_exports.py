"""Every name a module exports through `__all__` exists."""
import importlib
from pathlib import Path

import pytest

import notepheno

MODULES = (
    "adjudication", "bench", "cli", "corpus", "evaluation", "inference", "preprocess", "prompting",
)


@pytest.mark.parametrize("module", ("notepheno",) + tuple(f"notepheno.{m}" for m in MODULES))
def test_public_exports_resolve(module):
    loaded = importlib.import_module(module)
    missing = [name for name in loaded.__all__ if not hasattr(loaded, name)]
    assert missing == []


def test_every_module_is_checked():
    found = {path.stem for path in Path(notepheno.__file__).parent.glob("*.py")}
    assert found - {"__init__"} == set(MODULES)
