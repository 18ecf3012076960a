"""Architecture guard: the plan walkers must not grow back.

``docs/ARCHITECTURE.md`` §1.1: ``repro.repair.plan`` is the only module
that tells a ``SendOp`` from a ``CombineOp`` (every other consumer drives
``owner`` / ``reads`` / ``writes`` / ``apply`` / ``to_job``), and
``TrafficLedger.add_send`` in ``repro.metrics.traffic`` is the only byte
accounting.  Both used to be written out five to eight times; this test
fails the tier-1 run when a copy reappears.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Modules allowed to branch on op kind / to fill per-rack upload counters.
OP_CORE = {"repair/plan.py"}
LEDGER_CORE = {"metrics/traffic.py"}

OP_KINDS = {"SendOp", "CombineOp"}


def names_in(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def violations(tree: ast.AST) -> tuple[list[int], list[int]]:
    """Line numbers of (op-kind isinstance checks, per-rack ledger writes)."""
    kind_checks, ledger_writes = [], []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and names_in(node.args[1]) & OP_KINDS
        ):
            kind_checks.append(node.lineno)
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript) and "cross_uploaded_by_rack" in names_in(
                target.value
            ):
                ledger_writes.append(node.lineno)
    return kind_checks, ledger_writes


def scan():
    kind_checks, ledger_writes = [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        kinds, writes = violations(ast.parse(path.read_text(), filename=str(path)))
        if rel not in OP_CORE:
            kind_checks += [f"src/repro/{rel}:{line}" for line in kinds]
        if rel not in LEDGER_CORE:
            ledger_writes += [f"src/repro/{rel}:{line}" for line in writes]
    return kind_checks, ledger_writes


def test_op_kind_is_branched_on_only_in_the_plan_core():
    kind_checks, _ = scan()
    assert not kind_checks, (
        "isinstance(_, SendOp|CombineOp) outside repro.repair.plan — drive the op's "
        "owner/reads/writes/apply/to_job instead:\n" + "\n".join(kind_checks)
    )


def test_per_rack_uploads_are_accounted_only_by_the_traffic_ledger():
    _, ledger_writes = scan()
    assert not ledger_writes, (
        "cross_uploaded_by_rack[...] assigned outside repro.metrics.traffic — call "
        "TrafficLedger.add_send instead:\n" + "\n".join(ledger_writes)
    )


def test_the_guard_sees_what_it_guards():
    """Not vacuous: the core modules do contain both patterns, and the
    shapes the deleted walkers used are recognised."""
    plan_kinds, _ = violations(ast.parse((SRC / "repair/plan.py").read_text()))
    _, ledger = violations(ast.parse((SRC / "metrics/traffic.py").read_text()))
    assert plan_kinds and ledger
    old_walker = ast.parse(
        "if isinstance(op, (SendOp, plan.CombineOp)):\n"
        "    res.cross_uploaded_by_rack[rack] = res.cross_uploaded_by_rack.get(rack, 0) + n\n"
        "elif isinstance(op, SendOp | CombineOp):\n"
        "    cross_uploaded_by_rack[rack] += n\n"
    )
    assert violations(old_walker) == ([1, 3], [2, 4])
