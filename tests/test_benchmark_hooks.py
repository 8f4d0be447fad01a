"""The benchmark's tracer must still see every layer it names, and its
output checks must still pass.

A traced benchmark run fails when a layer records no calls on one of its
home workloads: a wrapper was bypassed, or the layer stopped running there.
An untraced run fails when its output misses the workload's check.  These
tests run the small instance of each workload, so such a change fails here
first.  They read perfbench/ and change nothing there.
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


# sparse_fixed_n400 is left out: its stored reference exists only at N=400,
# not for the N=20 small instance.
@pytest.mark.parametrize("name", sorted(set(workloads.WORKLOADS) - {"sparse_fixed_n400"}))
def test_small_instance_passes_its_check(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inst = wl.build(0, small=True)
    passed, _, message = wl.check(wl.solve(inst, tmp_path), wl.reference(inst)[0])
    assert passed, message
