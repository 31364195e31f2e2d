"""The traced benchmark run wraps virpoly functions by name; every name must exist.

``perfbench/tracing.py`` lists them in ``SPANS``, per module, with
``Class.method`` entries replaced on the class.  A rename or deletion in
``src/`` that leaves a stale entry fails here instead of in ``--trace 1``.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("tracing").SPANS


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in _spans().items() for name in names]
)
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"virpoly.{layer}")
    if "." in name:
        cls_name, meth = name.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth))
    else:
        assert callable(getattr(module, name, None))
