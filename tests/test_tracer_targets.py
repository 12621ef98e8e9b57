"""The benchmark's span tracer (``perfbench/spans.py``) still fits the package.

``perfbench/tests`` runs the tracer end to end; these checks catch a traced
function that is removed or renamed, or a measured parameter that moves.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def _resolve(module_name, attr):
    obj = importlib.import_module(module_name)
    for name in attr.split("."):
        obj = getattr(obj, name)
    return obj


def test_every_target_resolves():
    for module_name, attr, _, _ in _targets():
        assert callable(_resolve(module_name, attr)), (module_name, attr)


@pytest.mark.parametrize(
    "module_name, attr, index, name",
    [
        ("pcoulomb.numerics", "eigen_lowest", 1, "grid"),
        ("pcoulomb.numerics", "eigen_lowest", 4, "eigenvectors"),
        ("pcoulomb.qes", "qes_solve", 4, "n"),
        ("pcoulomb.model", "LaurentForm.__call__", 1, "r"),
        ("pcoulomb.susy", "ClosedFormState.evaluate", 1, "r"),
    ],
)
def test_measured_parameters_keep_their_positions(module_name, attr, index, name):
    # the tracer's measures read these arguments by position
    assert (module_name, attr) in {(m, a) for m, a, _, _ in _targets()}
    parameters = list(inspect.signature(_resolve(module_name, attr)).parameters)
    assert parameters[index] == name
