"""The benchmark's traced run wraps package names that must keep existing."""

import importlib.util
from pathlib import Path

INSTRUMENT = Path(__file__).resolve().parents[1] / "bench" / "instrument.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_instrument", INSTRUMENT)
    instrument = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instrument)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
        for name, owners, attr in instrument.SPAN_TARGETS
        for owner in owners
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing
