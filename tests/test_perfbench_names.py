"""The names the traced benchmark run wraps still resolve on the package.

``perfbench/tracing.py`` patches functions by name; a refactor that renames
one would break the traced run without failing any other test. The tables
are read as data: ``install()`` is never called.
"""

import importlib.util
import inspect
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    for module, attr in tracing.SPANS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for name, owner, attr in tracing.COUNTED:
        assert callable(getattr(owner, attr, None)), name
    cache = tracing.scores.LocalScoreCache
    assert list(inspect.signature(cache.get_or_compute).parameters) == ["self", "key", "compute"]
