"""Fixtures shared by the test modules."""

import functools
import importlib.util
import threading
from pathlib import Path

import pytest


def _load_tracing():
    """perfbench/tracing.py, loaded by path (perfbench is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.fixture
def traced_calls():
    """`traced_calls(run)` calls run() with every target of the benchmark
    tracer wrapped by a recorder, and returns the (group, thread) of each
    call to a wrapped function.  The tracer keeps one span stack per
    process, so only the calling thread may run these functions."""

    def trace(run) -> list:
        tracer = _load_tracing().Tracer()
        calls = []

        def record(group, fn, hook=None):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append((group, threading.current_thread()))
                return fn(*args, **kwargs)

            return wrapper

        tracer._wrap = record
        tracer._count_probe = functools.partial(record, "opnorm._ratio")
        tracer.install()
        try:
            run()
        finally:
            tracer.uninstall()
        return calls

    return trace
