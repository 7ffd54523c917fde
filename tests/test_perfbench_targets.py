"""The names that perfbench's tracer patches must exist in the package.

perfbench/tracing.py wraps each TARGETS entry when a benchmark run starts;
a renamed or deleted entry would fail only there.  This resolves every entry
by the tracer's own rule: a module attribute, or ``Class.method`` found in
the class ``__dict__``.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, target", sorted(_targets().items()))
def test_traced_name_resolves(name, target):
    modname, attr = target
    owner = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__.get(meth)), name
    else:
        assert callable(getattr(owner, attr, None)), name
