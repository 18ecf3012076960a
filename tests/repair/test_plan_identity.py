"""A context without a link model plans exactly what the paper describes.

``plans_without_link_model.json`` holds, for every single failure of
RS(6,3), RS(8,3) and RS(12,4) on the Simics testbed, the RPR plan's ops
as ``to_dict`` emits them and its outputs.  It was written by
:func:`plans` running on the commit *before* ops learned ``slices`` and
the planner learned the chain (``PYTHONPATH=<that commit>/src python
tests/repair/test_plan_identity.py``), so equality here means: the
slice field is invisible when it is 1, and nothing but a link model
changes what ``RPRScheme`` plans — every paper figure, golden schedule,
fault path and the store coordinator keep their op lists byte for byte.
"""

import json
from pathlib import Path

from repro.experiments import build_simics_environment, context_for
from repro.repair import RPRScheme

FIXTURE = Path(__file__).with_name("plans_without_link_model.json")
CODES = ((6, 3), (8, 3), (12, 4))


def plans() -> dict:
    out = {}
    for n, k in CODES:
        env = build_simics_environment(n, k)
        for block in range(n + k):
            plan = RPRScheme().plan(context_for(env, [block]))
            out[f"rs{n}_{k}/fail{block}"] = {
                "ops": [op.to_dict() for op in plan.ops.values()],
                "outputs": {str(bid): list(where) for bid, where in plan.outputs.items()},
            }
    return out


def test_plans_without_a_link_model_are_the_parents():
    expected = json.loads(FIXTURE.read_text())
    got = json.loads(json.dumps(plans()))
    assert got.keys() == expected.keys()
    for case in expected:
        assert got[case] == expected[case], case


if __name__ == "__main__":
    lines = [
        f"{json.dumps(case)}: {json.dumps(plan, separators=(',', ':'), sort_keys=True)}"
        for case, plan in plans().items()
    ]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
