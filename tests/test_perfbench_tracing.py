"""The benchmark's per-layer run wraps mbfun functions by name.

perfbench/tracing.py lists its targets as (module, attribute path); a
refactor that deletes a traced function, or moves a traced method out of
its own class, breaks the traced benchmark run.  Installing and removing
the tracer here catches that in the test suite.
"""

import importlib.util
import sys
from pathlib import Path

import mbfun.cli  # noqa: F401  (imports every traced module)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_restored():
    tracing = load_tracing()
    originals = {}
    for modname, path, _ in tracing.TARGETS:
        owner = sys.modules[f"mbfun.{modname}"]
        if "." in path:
            cls_name, path = path.split(".")
            owner = getattr(owner, cls_name)
            assert path in vars(owner), f"{modname}.{cls_name}.{path} is inherited"
        originals[(owner, path)] = getattr(owner, path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original, f"{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{attr} was not restored"
