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


def test_the_corpus_is_read_one_file_at_a_time():
    from notepheno import corpus

    for name in ("load_patients", "load_labels", "reference_map"):
        assert name in notepheno.__all__ and name in corpus.__all__
        assert getattr(notepheno, name) is getattr(corpus, name)
    for gone in ("Cohort", "load_cohort"):
        assert gone not in notepheno.__all__ and not hasattr(notepheno, gone)
        assert gone not in corpus.__all__
    assert not hasattr(corpus, "Cohort")
