"""The CLI prints what it printed, and declares the flags it declared.

``cli_snapshot.json`` was captured at the commit that still had the
single-file ``cli.py``: stdout of every deterministic verb as text (byte
for byte) and under ``--json`` (equal after parsing), plus the flattened
``(verb, flag, default, choices)`` surface of ``build_parser()``.  A
refactor of the front end must reproduce both unmodified; regenerate
(``python tests/integration/test_cli_snapshot.py``) only on a deliberate
change to an output format or a flag.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

FIXTURE_PATH = Path(__file__).parent / "cli_snapshot.json"

#: case -> (argv, has a --json form)
CASES = {
    "list": (["list"], False),
    "figure6": (["figure", "6"], True),
    "figure8": (["figure", "8"], True),
    "table1": (["table", "1"], False),
    "extension_lrc": (["extension", "lrc"], True),
    "extension_node_rebuild": (["extension", "node-rebuild"], True),
    "repair_simics": (["repair"], True),
    "repair_ec2": (
        ["repair", "--code", "8,4", "--fail", "0,3", "--scheme", "traditional",
         "--testbed", "ec2", "--placement", "contiguous"],
        True,
    ),
    "compare_single": (["compare", "--code", "6,2", "--fail", "1"], True),
    "compare_multi": (["compare", "--code", "8,4", "--fail", "0,1"], True),
    "rebuild_parallel": (["rebuild", "--stripes", "6", "--node", "1"], True),
    "rebuild_sequential": (
        ["rebuild", "--stripes", "6", "--mode", "sequential", "--rebuild",
         "replacement", "--balance"],
        True,
    ),
    "durability": (["durability", "--code", "6,2"], True),
    "durability_ec2": (
        ["durability", "--code", "6,3", "--testbed", "ec2", "--block-mtbf-years", "1"],
        True,
    ),
    "faults_kill_verify": (
        ["faults", "--code", "8,3", "--fail", "2", "--kill", "12@0.7", "--verify"],
        True,
    ),
    "faults_random_death": (["faults", "--code", "6,2", "--fail", "1", "--seed", "3"], True),
    "faults_slow_lossy": (
        ["faults", "--code", "6,3", "--fail", "1", "--slow", "4@3.0",
         "--loss-prob", "0.2", "--seed", "5"],
        True,
    ),
    "telemetry_report": (["telemetry", "report", "--code", "6,2"], True),
}


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def flag_surface(parser=None, verb="rpr") -> list[list]:
    """Every ``[verb, flag, default, choices]`` of the parser tree, sorted."""
    parser = parser or build_parser()
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                rows.extend(flag_surface(sub, f"{verb} {name}"))
            continue
        flag = "/".join(action.option_strings) or f"<{action.dest}>"
        default = None if callable(action.default) else action.default
        choices = sorted(action.choices) if action.choices else None
        rows.append([verb, flag, default, choices])
    return sorted(rows, key=lambda row: (row[0], row[1]))


def capture() -> dict:
    return {
        "outputs": {
            case: {
                "argv": argv,
                "text": run(argv),
                "json": json.loads(run([*argv, "--json"])) if has_json else None,
            }
            for case, (argv, has_json) in CASES.items()
        },
        "flags": flag_surface(),
    }


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    raise SystemExit(0)

FIXTURE = json.loads(FIXTURE_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_text_output_is_pinned(case):
    pinned = FIXTURE["outputs"][case]
    assert run(pinned["argv"]) == pinned["text"]


@pytest.mark.parametrize("case", sorted(c for c, (_, has_json) in CASES.items() if has_json))
def test_json_output_is_pinned(case):
    pinned = FIXTURE["outputs"][case]
    assert json.loads(run([*pinned["argv"], "--json"])) == pinned["json"]


def test_flag_surface_is_pinned():
    """Same verbs, same flags, same defaults, same choices."""
    assert json.loads(json.dumps(flag_surface())) == FIXTURE["flags"]
