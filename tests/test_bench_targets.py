"""The benchmark's tracer wraps slpn functions by name; every name must resolve."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_traced_name_exists():
    targets = _targets()
    assert targets
    missing = []
    for name, modname, clsname, attr in targets:
        mod = importlib.import_module(f"slpn.{modname}")
        if clsname is None:
            found = callable(getattr(mod, attr, None))
        else:
            # the tracer replaces the attribute in the class's own __dict__
            found = attr in vars(getattr(mod, clsname, object))
        if not found:
            missing.append(name)
    assert missing == []
