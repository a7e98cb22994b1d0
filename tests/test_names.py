"""Names that code outside the package looks up at run time must exist:
perfbench wraps its TARGETS by name, and ``from hppcrypt import *``
reads ``__all__``. A removal that forgets either fails here."""

import importlib
import importlib.util
import sys
from pathlib import Path

import hppcrypt

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read perfbench only
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_targets_resolve(monkeypatch):
    targets = load_spans(monkeypatch).TARGETS
    missing = [
        f"{layer}.{name}"
        for layer, names in targets.items()
        for name in names
        if not hasattr(importlib.import_module(f"hppcrypt.{layer}"), name)
    ]
    assert missing == []


def test_package_exports_exist():
    assert [name for name in hppcrypt.__all__ if not hasattr(hppcrypt, name)] == []
