"""The benchmark's definition: workload and metric names, units and bounds.

BENCHMARK.json at the root of the checkout is the only list of them; every
other file of the benchmark takes its names from here.
"""

import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SPEC = json.loads(BENCHMARK.read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
