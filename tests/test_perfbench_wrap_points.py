"""The benchmark harness times layers by rebinding names on slmcf modules; a
refactor that unbinds one of them breaks the traced runs."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)        # defines names only; nothing is wrapped
    return module.WRAP_POINTS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _wrap_points()])
def test_every_wrap_point_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)
