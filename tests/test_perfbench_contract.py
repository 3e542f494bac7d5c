"""The benchmark harness traces kdgf by replacing module attributes by name
(``perfbench/tracing.py``); every name it wraps must still exist."""
import importlib
import importlib.util
from pathlib import Path

import pytest

from kdgf import NaturalFrequencies, PhaseConfig, cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)  # standard library only


@pytest.mark.parametrize("mod,attr", [*tracing.SPANS, *tracing.KERNEL_SITES],
                         ids=lambda x: x)
def test_traced_name_resolves(mod, attr):
    assert callable(getattr(importlib.import_module(f"kdgf.{mod}"), attr))


def test_reference_count_reads_the_knots():
    ref = cli.rk4_reference(PhaseConfig([0.1, -0.1]), NaturalFrequencies.zero(2),
                            1.0, 0.1, 3)
    assert tracing._result_attrs("integrate.rk4_reference", (), ref) == {"knots": 3}
