"""The benchmark's tracer patches rulex by name; every name must exist in the sources.

``perfbench/tracing.py`` looks each patched attribute up with
``vars(owner)[attr]``, so a renamed or deleted function fails the traced
benchmark.  This checks the same lookups in a second, without running it.
"""

import sys
from pathlib import Path

import rulex
import rulex.cli
import rulex.metrics

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_tracer_installs_and_uninstalls_against_the_sources():
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, rulex)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, raw in patches:
            assert vars(owner)[attr] is not raw, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, raw in patches:
        assert vars(owner)[attr] is raw, (owner, attr)
    assert not tracer._patches
