"""Every probe of the benchmark's tracer (``perfbench/tracer.py``, loaded
read-only) names a function or method that exists, is wrapped while the
tracer is installed, and is restored after it: a rename in the library
would otherwise leave a per-layer metric silently at zero."""

import importlib.util
import sys
from pathlib import Path

import incalg  # noqa: F401  (loads every module the probes name)


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolve(target: str):
    """(owner, attribute name, original object) of a probe target."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _bindings():
    """Every name bound in an incalg module or class, with its object."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "incalg" or name.startswith("incalg."):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_every_probe_resolves_is_wrapped_and_restored():
    originals = {probe.target: _resolve(probe.target) for probe in tracer.PROBES}
    before = _bindings()
    with tracer.Tracer() as t:
        assert t.missing == []
        during = _bindings()
        for target, (owner, attr, original) in originals.items():
            assert getattr(owner, attr) is not original, f"{target} not wrapped"
            assert all(value is not original for value in during.values()), (
                f"{target} still bound unwrapped")
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
