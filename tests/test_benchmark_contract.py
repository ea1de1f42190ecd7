"""The names the benchmark under perfbench/ reads from kdmps still exist.

The benchmark builds ``Tensor(data, legs)`` site records, reads ``.data``,
and its tracer swaps package attributes (module functions and methods) for
wrappers, looking each one up through ``owner.__dict__``. A refactor that
drops or moves one of them would break the benchmark without failing any
other test, so this file runs its self-check and installs its tracer.
"""

import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selfcheck.py")], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check passed" in proc.stdout


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_benchmark_tracer_installs_every_wrapper(tracing):
    tracer = tracing.kdmps_tracer()
    tracer.install()
    try:
        patched = [(owner, attr) for owner, attr, _ in tracer._saved]
        assert len(patched) == len(tracer._targets)
        for owner, attr in patched:
            assert hasattr(owner.__dict__[attr], "__wrapped__")
    finally:
        tracer.uninstall()
    for owner, attr, _, _ in tracer._targets:
        assert not hasattr(owner.__dict__[attr], "__wrapped__")
