"""The convexlab names that perfbench/tracer.py binds, checked without tracing.

The tracer wraps package functions by (module, attribute) and reads their
arguments by name, so deleting or renaming one breaks the benchmark's traced
runs; without these tests only the benchmark's own self-test would show it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from convexlab.rng import RngStream

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


class _Recorder(dict):
    """Bound arguments that record every name a counter requires.  Each
    reads as 4; get() asks for an argument that may be absent, finds
    nothing, and the counter's fallback reads on."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return 4

    def get(self, key, default=None):
        return default


def _function(module: str, attribute: str):
    return getattr(importlib.import_module(f"convexlab.{module}"), attribute)


@pytest.mark.parametrize("module, attribute, name, work", tracer.SPANS, ids=[span[2] for span in tracer.SPANS])
def test_each_span_binds_a_function_that_takes_what_its_counter_reads(module, attribute, name, work):
    parameters = inspect.signature(_function(module, attribute)).parameters
    if work is not None:
        recorder = _Recorder()
        work[1](recorder)
        assert recorder.read and recorder.read <= set(parameters), (name, recorder.read - set(parameters))


@pytest.mark.parametrize(
    "fn, arguments",
    [
        (_function("testers", "_certified_outside"), ("y", "points", "tol")),
        (_function("nazarov", "_count_batches"), ("norms", "N", "r", "gen")),
        (RngStream.generator, ("self",)),
        (RngStream.child, ("self", "index")),
    ],
    ids=["testers._certified_outside", "nazarov._count_batches", "RngStream.generator", "RngStream.child"],
)
def test_wrapped_helpers_take_the_arguments_their_wrappers_pass(fn, arguments):
    # The tracer's wrappers pass these arguments by position and read them
    # under these names; any further parameter must have a default.
    parameters = list(inspect.signature(fn).parameters.values())
    assert tuple(p.name for p in parameters[: len(arguments)]) == arguments
    assert all(p.default is not inspect.Parameter.empty for p in parameters[len(arguments):])
