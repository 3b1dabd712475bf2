"""Names and units of every metric the benchmark reports, read from BENCHMARK.json."""

import json
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# (metric, unit) pairs, in the order BENCHMARK.json lists them
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]

# the layers: polycount's modules, one `share.<module>` metric each
MODULES = tuple(name.split(".", 1)[1] for name, _ in PER_LAYER if name.startswith("share.") and name != "share.harness")
