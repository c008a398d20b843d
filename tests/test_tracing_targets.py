"""The benchmark tracer's patch targets still exist in the package."""

import importlib.util
import sys
from pathlib import Path

import pytest

import trichotomy.cli  # noqa: F401  (loads every layer module)

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing",
    Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py",
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("span", sorted(tracing.SPANS))
def test_span_target_resolves(span):
    module, attr, cls_name, _ = tracing.SPANS[span]
    owner = sys.modules[f"trichotomy.{module}"]
    if cls_name is not None:
        owner = getattr(owner, cls_name).__dict__
        assert attr in owner
        target = owner[attr]
    else:
        target = getattr(owner, attr)
    assert callable(getattr(target, "__func__", target))


def test_counted_targets_resolve():
    prop = sys.modules["trichotomy.propagator"]
    rap = sys.modules["trichotomy.rap"]
    assert callable(prop.CoefficientMatrix.__dict__["value"])
    assert callable(rap.remote_period_residual)
