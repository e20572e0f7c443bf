"""The benchmark tracer wraps superlie functions by name (perfbench/spans.py
LAYERS, looked up with getattr by Recorder.install): every name must still
resolve, or a rename would silently drop its layer from traced runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


SPANS = load_spans()


@pytest.mark.parametrize("layer", sorted(SPANS.LAYERS))
def test_traced_names_resolve(layer):
    mod_name, attrs, _, _ = SPANS.LAYERS[layer]
    mod = importlib.import_module(f"superlie.{mod_name}")
    for attr in attrs:
        if "." in attr:
            # install replaces the method in the class's own namespace
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), attr
        else:
            assert callable(getattr(mod, attr)), attr


def test_catalog_builders_are_traced():
    constructions = importlib.import_module("superlie.constructions")
    assert SPANS.LAYERS["constructions.build"][1] == SPANS.CATALOG_BUILDERS
    for name in SPANS.CATALOG_BUILDERS:
        assert callable(getattr(constructions, name)), name
