"""``rpr trace`` prints what it printed before the view moved.

``trace_reports.json`` was captured at the commit that still had
``RunTrace.from_result`` walking ``SimResult.events``: the text report,
the ``--gantt`` chart and the ``--json`` dump of five scenarios (two
fault-free, both attempts of a repair that loses a node mid-stream, and
a lossy run whose critical path has a ``retry`` hop), plus the view of
the slice-pipelined RS(8,3) chain the live runtime plans.  The view is
now derived from the run's ``TelemetryTrace``; it must reproduce every
one byte for byte.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURE = json.loads((Path(__file__).parent / "trace_reports.json").read_text())


@pytest.mark.parametrize("flag", ["text", "gantt", "json"])
@pytest.mark.parametrize("case", sorted(FIXTURE["trace"]))
def test_rpr_trace_output_is_pinned(case, flag, capsys):
    pinned = FIXTURE["trace"][case]
    argv = pinned["argv"] + ([] if flag == "text" else [f"--{flag}"])
    assert main(argv) == 0
    assert capsys.readouterr().out == pinned[flag]


def test_sliced_chain_view_is_pinned():
    from repro.live import live_context, live_environment
    from repro.repair import RPRScheme, simulate_repair

    env = live_environment(8, 3)
    outcome = simulate_repair(RPRScheme(), live_context(env, [2]), env.bandwidth)
    assert any(op.slices > 1 for op in outcome.plan.ops.values())
    assert outcome.trace().to_dict() == FIXTURE["sliced_chain_rs8_3_fail2"]
