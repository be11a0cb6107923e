"""The MOE cost walk's reports and cost-driver rankings, byte for byte.

``moe_golden.json`` holds ``repr(evaluate(flow_for(i), v))`` for the
four GPS build-ups at three volumes (one of them an ``int``, whose
object the report must keep as ``started_units``) and every
``(node_id, knob, repr(elasticity))`` entry of
``rank_cost_drivers(flow_for(i))`` in ranked order.  A ``repr`` shows
every float to the last bit, so any change in the walk's arithmetic,
its operation order or a value's type shows here.

Regenerate after an *intentional* change of the cost model with::

    PYTHONPATH=src python tests/cost/test_moe_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.cost.moe.analytic import evaluate
from repro.cost.sensitivity import rank_cost_drivers
from repro.gps.buildups import flow_for

GOLDEN = Path(__file__).with_name("moe_golden.json")

IMPLEMENTATIONS = (1, 2, 3, 4)

#: A float, an ``int`` and a large float volume.
VOLUMES = (200.0, 10_000, 1e6)


def render_golden() -> str:
    reports = {
        f"{i} {volume!r}": repr(evaluate(flow_for(i), volume))
        for i in IMPLEMENTATIONS
        for volume in VOLUMES
    }
    rankings = {
        str(i): [
            [entry.node_id, entry.knob.value, repr(entry.elasticity)]
            for entry in rank_cost_drivers(flow_for(i))
        ]
        for i in IMPLEMENTATIONS
    }
    payload = {"evaluate": reports, "rank_cost_drivers": rankings}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_reports_and_rankings_match_the_golden():
    assert render_golden() == GOLDEN.read_text(), (
        f"cost walk output drifted from {GOLDEN.name}.  If the change is "
        "intentional, regenerate with: PYTHONPATH=src python "
        "tests/cost/test_moe_golden.py --write"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_moe_golden.py --write")
    GOLDEN.write_text(render_golden())
    print(f"wrote {GOLDEN}")
