"""The benchmark tracer's patch points still exist in the library.

``perfbench/tracer.py`` wraps methods by name and skips, without a word,
a class that no longer defines a method in its own body; a refactor that
moves one would leave the traced per-layer metrics silently empty.
"""

import importlib.util
from pathlib import Path

from foliops import verify
from foliops.canonical import canonical_workspace

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_bisubmersion_maps():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        ws = canonical_workspace()
        verify.suite_adjoint(ws)
        verify.suite_translation(ws)
    finally:
        tracer.uninstall()
    names = {sp.name for sp in tracer.spans}
    assert {"PathHolonomy.r", "PathHolonomy.s", "PathHolonomy.chart",
            "PathHolonomy.chart_jac_det", "Bisection.phi_inv"} <= names
