"""Smoke tests for the example scripts.

Importing each example catches syntax errors, broken imports, and API
drift without paying for full runs (several examples evolve for
minutes).  The cheapest example also runs end to end.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_exist():
    names = {p.stem for p in EXAMPLE_FILES}
    assert "quickstart" in names
    assert len(names) >= 3  # the deliverable floor; we ship nine


@pytest.mark.parametrize(
    "path", EXAMPLE_FILES, ids=lambda p: p.stem
)
def test_example_imports_cleanly(path):
    module = _load(path)
    assert callable(getattr(module, "main", None)), (
        f"{path.name} must expose a main() entry point"
    )
    assert module.__doc__, f"{path.name} needs a module docstring"


def test_accelerator_deep_dive_runs(capsys):
    # the cheapest end-to-end example (< 1 s): exercises compile, PU
    # sweeps, device accounting, and the fixed-point comparison
    module = _load(EXAMPLES_DIR / "accelerator_deep_dive.py")
    module.main()
    out = capsys.readouterr().out
    assert "U(PE)" in out
    assert "float64 PU output == software forward pass: True" in out
