"""The benchmark's tracer must still see every layer it names.

A traced benchmark run fails when a layer records no calls on one of its
home workloads: a wrapper was bypassed, or the layer stopped running there.
This runs the small instance of each workload under the tracer, so such a
change fails here first.  It reads perfbench/ and changes nothing there.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_home_layer_records_calls(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inst = wl.build(0, small=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.reset()
        out = wl.solve(inst, tmp_path)
        stats = tracer.stats(0.0, out.est_reliability)
    finally:
        tracer.uninstall()
    assert tracing.missing_layers(name, stats) == []
