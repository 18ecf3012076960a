"""Architecture guard: the plan walkers and the event-list walkers must
not grow back.

``docs/ARCHITECTURE.md`` §1.1: ``repro.repair.plan`` is the only module
that tells a ``SendOp`` from a ``CombineOp`` (every other consumer drives
``owner`` / ``reads`` / ``writes`` / ``apply`` / ``to_job``), and
``TrafficLedger.add_send`` in ``repro.metrics.traffic`` is the only byte
accounting.  Both used to be written out five to eight times; this test
fails the tier-1 run when a copy reappears.

Also §1.1: plan parts run in three places only — the byte executor
(``execute_plan``), the symbolic tracker (``payload_compositions``) and
the one wall-clock executor (``repro.live.node``), which the live
runtime runs in-process and the store's daemons run behind RPC.  The
runtime and the daemons used to carry a part loop each.

§2.1: a ``TelemetryTrace`` is the one model of a run.  ``repro.telemetry``
imports none of the interpreters that emit into it (sim → telemetry is
one-way), and only ``repro.sim`` compares against the engine's job
end/abort/loss event kinds — every other reader of a run reads its
trace.  ``SimResult.events`` used to be re-walked in five places.

§3: ``repro.multistripe.store.StripeStore`` is the one stripe catalog.
Only it rotates a placement by stripe id and only it mutates a stripe's
``missing`` set — the coordinator, the node-rebuild scheduler, examples
and benchmarks call its operations — and the ``system`` package, the
third copy of that bookkeeping, stays deleted.

§2: a simulated repair is one function.  Outside ``repro.sim`` only
``simulate_repair`` builds a ``SimulationEngine`` for a repair, beside
the planner's candidate race, the merged rebuild graph and the perf
harness; the faulted repair used to run its own engine as a second
fork of it.

§4: front ends compute nothing.  ``repro.cli`` writes JSON in one place
and reaches the simulator, the live runtime and the in-process store
only through library functions; the kill-mid-trace replay is scripted
once (``repro.qos``), and the name → scheme table exists once
(``repro.repair.SCHEMES``).

§2.2: one deadline idiom.  No module under ``src/repro`` calls
``asyncio.wait_for``, which spawns a task per call; a bounded wait is an
``asyncio.timeout`` block, and a frame read is one deadline pushed out
on progress (``repro.live.wire``), not one ``wait_for`` per read step.

§2.2: one TCP receive path.  Every socket under ``src/repro`` is a
``repro.live.transport.TcpStream`` — a buffered protocol that lends a
waiting reader's frame buffer to ``recv_into`` — built by
``connect_tcp`` or ``serve_tcp``; no module opens an asyncio stream
pair (``asyncio.open_connection`` / ``asyncio.start_server``) or builds
an ``asyncio.StreamReader``, whose reads copy each byte three times.

§2.2: one clock.  ``repro.store`` and ``repro.live`` read time only from
the running event loop (``loop.time()``; waits are asyncio sleeps and
timeouts), never ``time.monotonic`` / ``perf_counter`` / ``time`` —
except the launcher, which polls subprocesses with no loop running.  On
a real loop that is the monotonic clock; under a virtual-time loop
(``tests/vtime.py``) a test runs the store's timing exactly and fast.
The detector, the token bucket and the link shaper used to take a
clock of their own, and 22 call sites read the host clock directly.

§2.3: one owner for liveness.  ``repro.store.heartbeat.FailureDetector``
holds the watches, sends the probes and declares the deaths; the
coordinator starts its loop and reacts in ``on_nodes_dead``, and names
none of the watch's connect, the probe deadline, the per-node record
or the evidence calls.  The coordinator used to keep half of that
policy in two dicts beside the detector's own.

§2.3: one in-process store cluster.  A ``Coordinator`` is built only by
its own process entry point and by ``repro.store.LocalService``; tests,
the QoS replay and the perf harness bring that cluster up instead of
wiring a coordinator and daemons together themselves.  The test suite
and the QoS driver used to carry a cluster each.

§5: one field, one generator.  The codes work over the one GF(2^8)
field ``repro.gf.tables`` builds at import, so no function under
``src/repro`` takes a table set — except ``gf_matmul_blocks``, whose
third parameter the end-to-end benchmark's coding probe passes — and
``RSCode`` builds only Jerasure's systematic Vandermonde generator: no
module imports the deleted ``repro.gf.cauchy`` and no call passes
``matrix=`` to ``RSCode``.  A ``tables=None`` option no caller set used
to ride on 34 functions in 14 modules.

§6: a number the repo reports comes from a row function, and a script
that prints one is run.  Every ``benchmarks/*.py`` is named in a ``run:``
step of the CI workflow, and every ``benchmarks/….py`` path a document
or a source file names exists.  Fourteen pytest-benchmark scripts that
no CI step ran used to print ablation tables nobody checked, and the
docs went on citing them.

Every public name has a caller.  A public function, class or method
under ``src/repro`` is read somewhere in ``src/``, ``benchmarks/`` or
``examples/`` outside its own body — an ``__all__`` entry or an
``__init__`` re-export does not count — or it has an
``UNREACHED_NAMES`` entry saying why it stays: a paper equation or
figure, a reference the tests compare against, or a name-based
dispatch.  Thirty-eight names that only their own tests called used
to ride along.
"""

import ast
import functools
import re
from fnmatch import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: Modules allowed to branch on op kind / to fill per-rack upload counters.
OP_CORE = {"repair/plan.py"}
LEDGER_CORE = {"metrics/traffic.py"}

OP_KINDS = {"SendOp", "CombineOp"}

#: Packages that emit into ``repro.telemetry``; it may import none of them.
EMITTERS = {"sim", "repair", "live", "store"}
#: The ``EventKind`` members that describe what a job did — what an
#: event-list walker branches on.
JOB_EVENT_KINDS = {
    "TRANSFER_END", "COMPUTE_END", "TRANSFER_ABORT", "COMPUTE_ABORT", "TRANSFER_LOST",
}


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


def emitter_imports(tree: ast.AST, rel: str, packages=EMITTERS) -> list[int]:
    """Lines of ``rel`` (a path under ``src/repro``) importing one of the
    ``repro.<packages>`` (default: the emitters) — absolutely or
    relatively, at module level or lazily."""
    package = ["repro", *rel.split("/")[:-1]]
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join([*base, *([node.module] if node.module else [])])
            targets = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(
            parts[0] == "repro" and len(parts) > 1 and parts[1] in packages
            for parts in (target.split(".") for target in targets)
        ):
            lines.append(node.lineno)
    return lines


def job_event_comparisons(tree: ast.AST) -> list[int]:
    """Lines comparing (``==`` / ``!=`` / ``in``) against a job event kind."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(n, ast.Attribute)
            and n.attr in JOB_EVENT_KINDS
            and "EventKind" in names_in(n.value)
            for comparator in [node.left, *node.comparators]
            for n in ast.walk(comparator)
        )
    ]


def test_telemetry_imports_no_emitter():
    found = []
    for path in sorted((SRC / "telemetry").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        found += [
            f"src/repro/{rel}:{line}"
            for line in emitter_imports(ast.parse(path.read_text()), rel)
        ]
    assert not found, (
        "repro.telemetry imports repro.sim/repair/live/store — the model and its "
        "views take a TelemetryTrace, they do not reach back into what emitted it:\n"
        + "\n".join(found)
    )


def test_job_event_kinds_are_compared_only_in_the_simulator():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("sim/"):
            continue
        found += [
            f"src/repro/{rel}:{line}"
            for line in job_event_comparisons(ast.parse(path.read_text()))
        ]
    assert not found, (
        "EventKind.*_END/_ABORT/_LOST compared outside repro.sim — read the run's "
        "TelemetryTrace (telemetry_from_sim) instead of walking SimResult.events:\n"
        + "\n".join(found)
    )


def test_the_trace_guard_sees_what_it_guards():
    """Not vacuous: the emitter does branch on job event kinds, the
    importers of ``repro.sim`` are recognised in every spelling, and the
    shapes the deleted walkers used are caught."""
    assert job_event_comparisons(ast.parse((SRC / "sim/emitter.py").read_text()))
    assert emitter_imports(
        ast.parse((SRC / "repair/simulate.py").read_text()), "repair/simulate.py"
    )
    old_diff = ast.parse(
        "import repro.sim.tracing\n"
        "from repro.live import LiveResult\n"
        "def diff_repair(outcome, live):\n"
        "    from ..sim.tracing import critical_path\n"
        "    from .. import store\n"
        "    from . import model\n"
        "    from ..cluster import Cluster\n"
    )
    assert emitter_imports(old_diff, "telemetry/diff.py") == [1, 2, 4, 5]
    old_walker = ast.parse(
        "for event in result.events:\n"
        "    if event.kind == EventKind.TRANSFER_END:\n"
        "        pass\n"
        "    elif event.kind in (EventKind.TRANSFER_ABORT, sim.EventKind.COMPUTE_ABORT):\n"
        "        pass\n"
        "    elif event.kind == EventKind.NODE_DEATH:\n"
        "        pass\n"
    )
    assert job_event_comparisons(old_walker) == [2, 4]


#: The one module allowed to rotate placements and mutate ``missing``.
CATALOG = "src/repro/multistripe/store.py"
#: The deleted facade package (``repro.<DELETED>``).
DELETED = "system"
SET_MUTATORS = {
    "add", "discard", "remove", "clear", "pop", "update",
    "difference_update", "intersection_update", "symmetric_difference_update",
}


def catalog_bypasses(tree: ast.AST) -> tuple[list[int], list[int]]:
    """Lines that (call ``rotate_placement``, mutate a ``.missing`` set)."""
    rotations, mutations = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "rotate_placement":
                rotations.append(node.lineno)
            if (
                isinstance(func, ast.Attribute)
                and func.attr in SET_MUTATORS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "missing"
            ):
                mutations.append(node.lineno)
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Attribute) and t.attr == "missing" for t in targets):
            mutations.append(node.lineno)
    return rotations, sorted(mutations)


def test_only_the_stripe_catalog_rotates_placements_and_mutates_missing():
    rotated, mutated, imported = [], [], []
    for top in ("src", "examples", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            tree = ast.parse(path.read_text())
            rotations, mutations = catalog_bypasses(tree) if rel != CATALOG else ([], [])
            rotated += [f"{rel}:{line}" for line in rotations]
            mutated += [f"{rel}:{line}" for line in mutations]
            # A script outside the package has no relative imports to resolve.
            inside = rel.removeprefix("src/repro/") if top == "src" else ""
            imported += [
                f"{rel}:{line}" for line in emitter_imports(tree, inside, {DELETED})
            ]
    assert not (rotated or mutated or imported), (
        "stripe bookkeeping outside repro.multistripe.store — call StripeStore."
        "allocate / fail_node / relocate instead:\n"
        + "\n".join(
            [f"rotate_placement() called: {x}" for x in rotated]
            + [f".missing mutated: {x}" for x in mutated]
            + [f"repro.{DELETED} imported: {x}" for x in imported]
        )
    )


def test_the_catalog_guard_sees_what_it_guards():
    """Not vacuous: the catalog does both, and the shapes the coordinator,
    the facade and the examples used are each recognised."""
    rotations, mutations = catalog_bypasses(ast.parse((ROOT / CATALOG).read_text()))
    assert rotations and mutations
    old_copies = ast.parse(
        f"from repro.{DELETED} import Facade\n"
        f"import repro.{DELETED}.storage\n"
        f"from ..{DELETED}.objects import ObjectInfo\n"
        f"from .. import {DELETED}\n"
        "from repro.multistripe.store import rotate_placement\n"
        "placement = rotate_placement(cluster, base, rack_offset=sid)\n"
        "meta.missing.add(bid)\n"
        "self._stripes[sid].missing.clear()\n"
        "state.missing = set()\n"
        "state.missing |= lost\n"
        "if meta.missing and multistripe.rotate_placement(c, p, 1):\n"
        "    failed = sorted(meta.missing)\n"
    )
    assert catalog_bypasses(old_copies) == ([6, 11], [7, 8, 9, 10])
    assert emitter_imports(old_copies, "store/client.py", {DELETED}) == [1, 2, 3, 4]
    assert emitter_imports(old_copies, "", {DELETED}) == [1, 2]


CLI = SRC / "cli"
#: What a verb reaches through one library function, never directly.
ENGINE_ROOM = {
    "simulate_repair", "SimulationEngine",
    "run_plan_live", "run_plan_live_sync", "replay_trace", "LocalService",
}
#: The in-process store scenario: scripted once, in ``repro.qos``.
QOS_SCENARIO = {"replay_trace", "LocalService"}


def calls_to(tree: ast.AST, names: set[str]) -> list[int]:
    """Lines calling one of ``names`` — bare, or as an attribute (``json.dumps``
    is spelled ``{"dumps"}``)."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        )
        in names
    )


def scheme_tables(tree: ast.AST) -> list[int]:
    """Lines of dict literals mapping ``"traditional"`` to ``TraditionalRepair``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        and any(
            isinstance(key, ast.Constant)
            and key.value == "traditional"
            and "TraditionalRepair" in names_in(value)
            for key, value in zip(node.keys, node.values)
        )
    ]


def python_files(*tops: str):
    """``(repo-relative path, tree)`` of every script under ``tops``, the
    end-to-end benchmark (which binds its own names) excluded."""
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            if not rel.startswith("benchmarks/e2e/"):
                yield rel, ast.parse(path.read_text())


def test_the_cli_writes_json_once_and_computes_nothing():
    dumps, engine_room = [], []
    for rel, tree in python_files("src/repro/cli"):
        dumps += [f"{rel}:{line}" for line in calls_to(tree, {"dumps"})]
        engine_room += [f"{rel}:{line}" for line in calls_to(tree, ENGINE_ROOM)]
    assert len(dumps) == 1 and dumps[0].startswith("src/repro/cli/common.py:"), (
        "json.dumps under repro.cli outside common.to_json — return a payload and "
        "let the emitter print it:\n" + "\n".join(dumps)
    )
    assert not engine_room, (
        "repro.cli drives the simulator / live runtime / in-process store itself — "
        "call the library function that scripts the scenario:\n" + "\n".join(engine_room)
    )


def test_the_qos_scenario_and_the_scheme_table_exist_once():
    scenario, tables = {}, []
    for rel, tree in python_files("src", "benchmarks", "examples"):
        if calls_to(tree, QOS_SCENARIO):
            scenario[rel] = calls_to(tree, QOS_SCENARIO)
        if not rel.startswith("examples/"):
            tables += [f"{rel}:{line}" for line in scheme_tables(tree)]
    assert list(scenario) == ["src/repro/qos.py"], (
        "replay_trace / LocalService called outside repro.qos — call "
        f"kill_mid_trace_replay instead: {scenario}"
    )
    assert len(tables) == 1 and tables[0].startswith("src/repro/repair/__init__.py:"), (
        'a second {"traditional": TraditionalRepair, ...} table — import '
        "repro.repair.SCHEMES:\n" + "\n".join(tables)
    )


def test_the_front_end_guard_sees_what_it_guards():
    """Not vacuous: the emitter, the scenario and the table are found where
    they live, and the shapes the old ``cli.py`` used are each recognised."""
    assert calls_to(ast.parse((CLI / "common.py").read_text()), {"dumps"})
    driver = ast.parse((SRC / "qos.py").read_text())
    assert calls_to(driver, QOS_SCENARIO) and calls_to(driver, {"replay_trace"})
    assert scheme_tables(ast.parse((SRC / "repair/__init__.py").read_text()))
    old_cli = ast.parse(
        "import json\n"
        '_SCHEMES = {"traditional": TraditionalRepair, "car": CARRepair}\n'
        "def _cmd_qos(args):\n"
        "    async def run():\n"
        "        async with LocalService(racks=args.racks) as svc:\n"
        "            return await qos.replay_trace(svc.client, events)\n"
        "    horizon = simulate_repair(scheme, ctx, env.bandwidth).total_repair_time\n"
        "    live = repro.live.run_plan_live_sync(plan, cluster, store)\n"
        "    if args.json:\n"
        "        print(json.dumps(result, indent=2))\n"
        'names = {"rpr": RPRScheme, "traditional": repair.TraditionalRepair}\n'
        'labels = {"traditional": "TRA"}\n'
    )
    assert calls_to(old_cli, {"dumps"}) == [10]
    assert calls_to(old_cli, ENGINE_ROOM) == [5, 6, 7, 8]
    assert calls_to(old_cli, QOS_SCENARIO) == [5, 6]
    assert scheme_tables(old_cli) == [2, 11]


#: Modules allowed to run a plan part (``run_op``, or a part's ``apply``).
PART_RUNNERS = {"repair/plan.py", "repair/executor.py", "repair/faults.py", "live/node.py"}
PART_STEPS = {"run_op", "apply"}


def test_plan_parts_run_only_in_the_executors():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel not in PART_RUNNERS:
            found += [
                f"src/repro/{rel}:{line}"
                for line in calls_to(ast.parse(path.read_text()), PART_STEPS)
            ]
    assert not found, (
        "run_op / part.apply called outside execute_plan, payload_compositions and "
        "repro.live.node — run the parts through a NodeExecutor instead:\n"
        + "\n".join(found)
    )


def test_the_part_loop_guard_sees_what_it_guards():
    """Not vacuous: every allowed module does run parts, and the shapes the
    deleted second part loops used are recognised."""
    for rel in PART_RUNNERS:
        assert calls_to(ast.parse((SRC / rel).read_text()), PART_STEPS), rel
    old_loops = ast.parse(
        "async def _run_op(self, op):\n"
        "    payload = op.apply(inputs, self.tables)\n"
        "    node_store[key] = run_op(self.plan, part, node_store, self.tables)\n"
        "    tasks[oid] = asyncio.ensure_future(self._run_op(op))\n"
        "    comps = executor.run_op(plan, op, comps)\n"
    )
    assert calls_to(old_loops, PART_STEPS) == [2, 3, 5]


#: Modules outside ``repro.sim`` allowed to build a ``SimulationEngine``.
ENGINE_BUILDERS = {
    "repair/simulate.py",  # simulate_repair: every simulated repair, faulted or not
    "repair/rpr/scheme.py",  # the planner's candidate race
    "multistripe/scheduler.py",  # the merged rebuild graph
    "perfharness.py",
    # a cross-rack transfer cap and update plans: neither is a repair
    # simulate_repair runs (the switch-capacity and update ablations)
    "experiments/ablations.py",
}


def test_only_simulate_repair_builds_an_engine_for_a_repair():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("sim/") or rel in ENGINE_BUILDERS:
            continue
        found += [
            f"src/repro/{rel}:{line}"
            for line in calls_to(ast.parse(path.read_text()), {"SimulationEngine"})
        ]
    assert not found, (
        "SimulationEngine built outside simulate_repair — pass the fault plan to "
        "simulate_repair instead of running a second engine loop:\n" + "\n".join(found)
    )


def test_the_engine_guard_sees_what_it_guards():
    """Not vacuous: every allowed module does build an engine, and the
    shapes the deleted faulted fork used are recognised."""
    for rel in ENGINE_BUILDERS:
        assert calls_to(ast.parse((SRC / rel).read_text()), {"SimulationEngine"}), rel
    old_fork = ast.parse(
        "def simulate_repair_with_faults(scheme, ctx, bandwidth, faults):\n"
        "    engine = SimulationEngine(ctx.cluster, bandwidth)\n"
        "    sim = sim.SimulationEngine(ctx.cluster, bandwidth).run(graph, faults)\n"
    )
    assert calls_to(old_fork, {"SimulationEngine"}) == [2, 3]


def asyncio_wait_for_calls(tree: ast.AST) -> list[int]:
    """Lines calling ``asyncio.wait_for`` — through the module, or bare
    after ``from asyncio import wait_for``.  (``Condition.wait_for`` is
    another function and is not flagged.)"""
    imported = any(
        isinstance(node, ast.ImportFrom)
        and node.module == "asyncio"
        and any(alias.name == "wait_for" for alias in node.names)
        for node in ast.walk(tree)
    )
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "wait_for"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "asyncio"
            or imported
            and isinstance(node.func, ast.Name)
            and node.func.id == "wait_for"
        )
    )


def test_no_module_calls_asyncio_wait_for():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        found += [
            f"src/repro/{rel}:{line}"
            for line in asyncio_wait_for_calls(ast.parse(path.read_text()))
        ]
    assert not found, (
        "asyncio.wait_for under src/repro — it spawns a task per call; bound the "
        "wait with `async with asyncio.timeout(...)` (a frame read: one deadline, "
        "rescheduled on progress):\n" + "\n".join(found)
    )


def test_the_deadline_guard_sees_what_it_guards():
    """Not vacuous: the wire and the QoS driver bound their waits with
    ``asyncio.timeout``, and the shapes the per-step read and the old
    poll used are recognised."""
    for rel in ("live/wire.py", "qos.py"):
        assert calls_to(ast.parse((SRC / rel).read_text()), {"timeout"}), rel
    old_waits = ast.parse(
        "async def _read_step(awaitable, timeout):\n"
        "    return await asyncio.wait_for(awaitable, timeout)\n"
        "async def poll(stop, cond):\n"
        "    await asyncio.wait_for(stop.wait(), timeout=0.25)\n"
        "    await cond.wait_for(lambda: stop.is_set())\n"
        "    from asyncio import wait_for\n"
        "    await wait_for(stop.wait(), 1.0)\n"
    )
    assert asyncio_wait_for_calls(old_waits) == [2, 4, 7]
    assert asyncio_wait_for_calls(ast.parse("await cond.wait_for(ready)\n")) == []


#: The host-clock reads; ``repro.store`` and ``repro.live`` read the loop's.
CLOCK_READS = {"monotonic", "perf_counter", "time"}
#: Where the guard looks, and the one module that may read the host clock
#: (it polls subprocesses with no event loop running).
LOOP_CLOCKED = ("store", "live")
LOOPLESS = {"store/launcher.py"}


def clock_reads(tree: ast.AST) -> list[int]:
    """Lines calling ``time.monotonic`` / ``time.perf_counter`` /
    ``time.time`` — through the module, or bare (or renamed) after
    ``from time import ...``.  (``loop.time()`` is not flagged.)"""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "time"
        for alias in node.names
        if alias.name in CLOCK_READS
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in CLOCK_READS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
            or isinstance(node.func, ast.Name)
            and node.func.id in imported
        )
    )


def test_the_store_and_the_live_runtime_read_only_the_loop_clock():
    found = [
        f"src/repro/{rel}:{line}"
        for top in LOOP_CLOCKED
        for path in sorted((SRC / top).rglob("*.py"))
        if (rel := path.relative_to(SRC).as_posix()) not in LOOPLESS
        for line in clock_reads(ast.parse(path.read_text()))
    ]
    assert not found, (
        "host-clock read under repro.store / repro.live — read the running "
        "loop's clock (`asyncio.get_running_loop().time()`) and wait with "
        "asyncio sleeps and timeouts, so a virtual-time loop runs it:\n"
        + "\n".join(found)
    )


def test_the_clock_guard_sees_what_it_guards():
    """Not vacuous: the launcher's loop-less polls are seen, and so are
    the shapes the RPC dispatch and the live runtime's paced channel
    used; the loop's clock is not flagged."""
    for rel in LOOPLESS:
        assert clock_reads(ast.parse((SRC / rel).read_text())), rel
    old_reads = ast.parse(
        "async def dispatch(party, span_attrs, request):\n"
        "    start = time.monotonic()\n"
        "    try:\n"
        "        return await handler(request)\n"
        "    finally:\n"
        "        elapsed = time.monotonic() - start\n"
        "async def send(op_id, key, payload, ctx):\n"
        "    start = time.monotonic()\n"
        "    await asyncio.sleep(latency)\n"
        "    t_lat = time.perf_counter()\n"
        "    from time import monotonic as now, time as wall\n"
        "    t_conn, t_sent = now(), wall()\n"
        "    end = asyncio.get_running_loop().time()\n"
        "    return [('send.latency', start, t_lat), ('send.ack_wait', t_sent, loop.time())]\n"
    )
    assert clock_reads(old_reads) == [2, 6, 8, 10, 12, 12]


#: The only modules that build a ``Coordinator``: its process entry point
#: (``_amain``) and the one in-process cluster.
COORDINATOR_BUILDERS = {"src/repro/store/coordinator.py", "src/repro/store/local.py"}


def test_one_in_process_cluster_builds_the_coordinator():
    found = [
        f"{rel}:{line}"
        for rel, tree in python_files("src", "tests", "examples", "benchmarks")
        if rel not in COORDINATOR_BUILDERS
        for line in calls_to(tree, {"Coordinator"})
    ]
    assert not found, (
        "Coordinator built outside repro.store.coordinator / repro.store.local — "
        "bring up repro.store.LocalService (start_daemon / kill) instead of a "
        "second in-process cluster:\n" + "\n".join(found)
    )


def test_the_cluster_guard_sees_what_it_guards():
    """Not vacuous: both builders do build one, and the shape of the
    deleted test-suite cluster is recognised."""
    for rel in COORDINATOR_BUILDERS:
        assert calls_to(ast.parse((ROOT / rel).read_text()), {"Coordinator"}), rel
    old_service = ast.parse(
        "class Service:\n"
        "    def __init__(self, scheme='rpr'):\n"
        "        self.coordinator = Coordinator(\n"
        "            Cluster.homogeneous(3, 2), get_code(3, 2), scheme=scheme,\n"
        "        )\n"
        "    async def __aenter__(self):\n"
        "        self.port = await self.coordinator.start()\n"
        "coordinator = store.Coordinator(cluster, code, block_size=2048)\n"
    )
    assert calls_to(old_service, {"Coordinator"}) == [3, 8]


def message_text_branches(tree: ast.AST) -> list[int]:
    """Lines that branch on a caught exception's message: an ``in`` /
    ``not in`` comparison against ``str(<exception>)``, or
    ``str(<exception>).startswith(...)``, inside its ``except ... as``."""
    found = set()
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
            continue

        def is_text(node, name=handler.name):
            return (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "str"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == name
            )

        for node in ast.walk(handler):
            if (
                isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
                and any(is_text(side) for side in (node.left, *node.comparators))
                or isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "startswith"
                and is_text(node.func.value)
            ):
                found.add(node.lineno)
    return sorted(found)


def test_no_module_branches_on_an_error_message():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        found += [
            f"src/repro/{rel}:{line}"
            for line in message_text_branches(ast.parse(path.read_text()))
        ]
    assert not found, (
        "control flow on an exception's message text under src/repro — raise and "
        "catch the StoreError subclass of its kind (repro.store.messages.KINDS) "
        "instead:\n" + "\n".join(found)
    )


def test_the_message_text_guard_sees_what_it_guards():
    """Not vacuous: the retry test the store client used and the QoS
    driver's rejection test are recognised, and so is a prefix test;
    reading the text for a report is not flagged."""
    old_branches = ast.parse(
        "async def get_with_report(self, name, *, degraded=False):\n"
        "    try:\n"
        "        return await self._get_once(name, degraded=degraded)\n"
        "    except StoreError as exc:\n"
        "        if not degraded or 'unrecoverable' not in str(exc):\n"
        "            raise\n"
        "async def run_one(ev):\n"
        "    try:\n"
        "        await client.put(ev.obj, b'')\n"
        "    except (StoreError, ConnectionError, OSError) as exc:\n"
        "        ok, error = False, f'{type(exc).__name__}: {exc}'\n"
        "        rejected = 'would land on dead nodes' in str(exc) or (\n"
        "            ev.op == 'put'\n"
        "            and (\n"
        "                isinstance(exc, (ConnectionError, OSError))\n"
        "                or 'Connection' in str(exc)\n"
        "                or 'died during put' in str(exc)\n"
        "            )\n"
        "        )\n"
        "    except ValueError as err:\n"
        "        if str(err).startswith('unknown'):\n"
        "            raise\n"
        "        print(f'failed: {err}', str(err))\n"
    )
    assert message_text_branches(old_branches) == [5, 12, 16, 17, 21]


CI = ROOT / ".github" / "workflows" / "ci.yml"
#: ``benchmarks/*.py`` that no CI step runs by name: pytest's fixtures.
NOT_SCRIPTS = {"conftest.py"}
#: Documents that may name what is gone: the change log is history.
HISTORY = {"CHANGES.md"}
BENCH_PATH = re.compile(r"benchmarks/[\w/.-]+?\.py\b")


def run_steps(workflow: str) -> str:
    """The commands of every ``run:`` step of ``workflow`` (a GitHub
    Actions file): one-line values and ``|`` / ``>`` blocks."""
    lines, steps = workflow.splitlines(), []
    for i, line in enumerate(lines):
        key = re.match(r"(\s*)(?:- )?run:\s*(.*)$", line)
        if not key:
            continue
        indent, value = len(key.group(1)), key.group(2)
        if value[:1] not in ("|", ">"):
            steps.append(value)
            continue
        for body in lines[i + 1 :]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            steps.append(body)
    return "\n".join(steps)


def unrun_scripts(scripts, workflow: str) -> list[str]:
    """The ``benchmarks/<name>`` of ``scripts`` (file names) that no
    ``run:`` step of ``workflow`` names."""
    steps = run_steps(workflow)
    return [
        f"benchmarks/{name}"
        for name in sorted(scripts)
        if name not in NOT_SCRIPTS and f"benchmarks/{name}" not in steps
    ]


def missing_benchmark_paths(texts: dict[str, str]) -> list[str]:
    """``<file>:<line>: <path>`` for every ``benchmarks/….py`` path named in
    ``texts`` (repo-relative name → contents) that the checkout lacks."""
    return [
        f"{rel}:{number}: {path}"
        for rel, text in sorted(texts.items())
        for number, line in enumerate(text.splitlines(), 1)
        for path in BENCH_PATH.findall(line)
        if not (ROOT / path).exists()
    ]


def documents() -> dict[str, str]:
    """Every Markdown file of the checkout outside hidden directories and
    :data:`HISTORY`, and every source file under ``src/``."""
    paths = [
        path
        for path in ROOT.rglob("*.md")
        if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
    ]
    paths += SRC.rglob("*.py")
    texts = {path.relative_to(ROOT).as_posix(): path.read_text() for path in paths}
    return {rel: text for rel, text in texts.items() if rel not in HISTORY}


def test_every_benchmark_script_is_run_by_ci():
    scripts = [path.name for path in (ROOT / "benchmarks").glob("*.py")]
    unrun = unrun_scripts(scripts, CI.read_text())
    assert not unrun, (
        "benchmarks/*.py that no run: step of .github/workflows/ci.yml runs — "
        "make its numbers a repro.experiments row checked in tier-1, or run it "
        "in CI, or delete it:\n" + "\n".join(unrun)
    )


def test_every_named_benchmark_path_exists():
    missing = missing_benchmark_paths(documents())
    assert not missing, (
        "benchmarks/….py paths named in a document or under src/ that do not "
        "exist:\n" + "\n".join(missing)
    )


def test_the_script_guard_sees_what_it_guards():
    """Not vacuous: the CI scripts are found in their run: steps, and the
    parent's fourteen unrun scripts and a docs row naming a deleted one
    are each recognised."""
    ci = CI.read_text()
    assert "benchmarks/check_prom_exposition.py" in run_steps(ci)  # a | block
    assert "benchmarks/bench_degraded_repair.py" in run_steps(ci)  # one line
    unrun = [
        "bench_ablation_bandwidth_ratio.py", "bench_ablation_blocksize.py",
        "bench_ablation_hetero.py", "bench_ablation_pipeline.py",
        "bench_ablation_preplacement.py", "bench_ablation_rack_count.py",
        "bench_ablation_switch_capacity.py", "bench_coding_throughput.py",
        "bench_durability.py", "bench_engine_scale.py", "bench_loadbalance.py",
        "bench_node_rebuild.py", "bench_update_traffic.py", "run_perf.py",
    ]
    ran = [
        "bench_degraded_repair.py", "bench_live_validation.py", "bench_qos_tradeoff.py",
        "check_perf_regression.py", "check_prom_exposition.py", "conftest.py",
    ]
    assert unrun_scripts(unrun + ran, ci) == [f"benchmarks/{name}" for name in unrun]
    old_design = {
        "DESIGN.md": (
            "| Ablation | Question | Bench target |\n"
            '| Pipeline on/off | Value of Alg. 2 vs naive "all racks send to recovery '
            'rack" (schedule 1 vs 2 of Fig. 5) | `benchmarks/bench_ablation_pipeline.py` |\n'
            "Run `python benchmarks/run_perf.py --quick` or "
            "`benchmarks/check_perf_regression.py`.\n"
        )
    }
    assert missing_benchmark_paths(old_design) == [
        "DESIGN.md:2: benchmarks/bench_ablation_pipeline.py",
        "DESIGN.md:3: benchmarks/run_perf.py",
    ]
    checked = documents()
    assert "CHANGES.md" not in checked and {"DESIGN.md", "src/repro/perfharness.py"} <= set(
        checked
    )


#: The one function that still takes a table set (the frozen coding
#: probe calls ``gf_matmul_blocks(coding, data, code.tables, out=...)``).
TABLE_TAKERS = {("gf/batch.py", "gf_matmul_blocks")}


def table_parameters(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every function with a parameter named ``tables``."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            arg.arg == "tables"
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )
    )


def second_generators(tree: ast.AST) -> list[int]:
    """Lines importing ``repro.gf.cauchy`` (absolute, relative or as a
    name from ``repro.gf``) or calling ``RSCode(..., matrix=...)``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[-1] == "cauchy" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            hit = module[-1] == "cauchy" or (
                module[-1] == "gf" and any(alias.name == "cauchy" for alias in node.names)
            )
        elif isinstance(node, ast.Call):
            hit = (
                node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            ) == "RSCode" and any(kw.arg == "matrix" for kw in node.keywords)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_coding_kernel_takes_a_table_set():
    found = [
        f"src/repro/{rel}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in table_parameters(ast.parse(path.read_text()))
        if ((rel := path.relative_to(SRC).as_posix()), name) not in TABLE_TAKERS
    ]
    assert not found, (
        "a `tables` parameter outside repro.gf.batch.gf_matmul_blocks — the "
        "field is fixed; read repro.gf.get_tables() where the tables are "
        "needed:\n" + "\n".join(found)
    )


def test_rscode_has_one_generator_construction():
    found = [
        f"{rel}:{line}"
        for rel, tree in python_files("src", "tests", "examples", "benchmarks")
        for line in second_generators(tree)
    ]
    assert not found, (
        "repro.gf.cauchy imported or RSCode(matrix=...) called — the code has "
        "one generator, Jerasure's systematic Vandermonde:\n" + "\n".join(found)
    )


def test_the_field_guard_sees_what_it_guards():
    """Not vacuous: the kept kernel parameter is seen, and the parent's
    shapes — a ``tables`` option on a kernel, a method, a keyword-only
    constructor argument, the Cauchy imports and the construction
    switch — are each recognised."""
    for rel, name in TABLE_TAKERS:
        assert name in {n for _, n in table_parameters(ast.parse((SRC / rel).read_text()))}
    old_field = ast.parse(
        "def gf_mul(a, b, tables: GFTables | None = None):\n"
        "    return (tables or get_tables()).mul_table[a, b]\n"
        "class CombineOp:\n"
        "    def apply(self, inputs, tables=None):\n"
        "        return linear_combine(self.coeffs, inputs, tables)\n"
        "class RepairSession:\n"
        "    def __init__(self, rid, *, block_size, tables=None, rpc=call):\n"
        "        self.tables = tables\n"
        "async def run_plan_live(plan, *, tables=None, chunk_size=DEFAULT_CHUNK):\n"
        "    pass\n"
    )
    assert table_parameters(old_field) == [
        (1, "gf_mul"), (4, "apply"), (7, "__init__"), (9, "run_plan_live"),
    ]
    old_generator = ast.parse(
        "from .cauchy import cauchy_coding_matrix, systematic_cauchy_generator\n"
        "from ..gf.cauchy import systematic_cauchy_generator\n"
        "from repro.gf import cauchy\n"
        "import repro.gf.cauchy\n"
        "from repro.gf import systematic_vandermonde_generator\n"
        "code = RSCode(6, 3, matrix='cauchy')\n"
        "code = repro.rs.RSCode(n, k, matrix=matrix)\n"
        "code = RSCode(6, 3)\n"
    )
    assert second_generators(old_generator) == [1, 2, 3, 4, 6, 7]



#: What builds an asyncio stream pair instead of a ``TcpStream``.
STREAM_BUILDERS = {"open_connection", "start_server", "StreamReader"}


def test_every_tcp_stream_is_the_buffered_protocol():
    found = [
        f"src/repro/{path.relative_to(SRC).as_posix()}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in calls_to(ast.parse(path.read_text()), STREAM_BUILDERS)
    ]
    assert not found, (
        "an asyncio stream pair under src/repro — open sockets with "
        "repro.live.transport.connect_tcp / serve_tcp, so every byte is "
        "received by TcpStream:\n" + "\n".join(found)
    )


def test_the_stream_guard_sees_what_it_guards():
    """Not vacuous: the transport builds its streams through the loop,
    and the shapes the client, the servers and a hand-made reader used
    are recognised."""
    transport = ast.parse((SRC / "live/transport.py").read_text())
    assert calls_to(transport, {"create_connection", "create_server"})
    old_streams = ast.parse(
        "async def connect_tcp(host, port):\n"
        "    reader, writer = await asyncio.open_connection(host, port)\n"
        "    server = await asyncio.start_server(on_connect, host, 0)\n"
        "    reader = asyncio.StreamReader(limit=2 ** 16)\n"
        "    from asyncio import start_server\n"
        "    return await start_server(on_connect, host, port)\n"
    )
    assert calls_to(old_streams, STREAM_BUILDERS) == [2, 3, 4, 6]


#: What only the failure detector uses: the watch's connect, the probe
#: deadline, the per-node record and the evidence a probe or watch finds.
LIVENESS_NAMES = {"connect_tcp", "PROBE_AFTER", "NodeEntry", "hangup", "answered", "refused"}


def references(tree: ast.AST, names: set[str]) -> list[int]:
    """Lines that name one of ``names``: as a name, an attribute, or an
    import from a module."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names)
    )


def test_only_the_failure_detector_judges_liveness():
    found = references(ast.parse((SRC / "store/coordinator.py").read_text()), LIVENESS_NAMES)
    assert not found, (
        "repro.store.coordinator watches, probes or judges liveness itself — "
        "that is repro.store.heartbeat.FailureDetector's; the coordinator "
        "only reacts in on_nodes_dead:\n"
        + "\n".join(f"src/repro/store/coordinator.py:{line}" for line in found)
    )


def test_the_liveness_guard_sees_what_it_guards():
    """Not vacuous: the detector uses every one of the names, and the
    shapes of the coordinator's old watch, probe and imports are seen."""
    heartbeat = ast.parse((SRC / "store/heartbeat.py").read_text())
    assert all(references(heartbeat, {name}) for name in LIVENESS_NAMES)
    old_coordinator = ast.parse(
        "from ..live.transport import cancel_and_wait, connect_tcp\n"
        "from .heartbeat import PROBE_AFTER, FailureDetector, NodeEntry\n"
        "async def _hold_watch(self, node_id, host, port):\n"
        "    stream = await connect_tcp(host, port, attempts=1)\n"
        "    self.detector.hangup(node_id)\n"
        "async def _ping(self, entry: NodeEntry):\n"
        "    async with asyncio.timeout(PROBE_AFTER * self.detector.suspect_after):\n"
        "        pass\n"
        "def _settle(self, entry, answer):\n"
        "    if answer == 'answered':\n"
        "        self.detector.answered(entry.node_id)\n"
        "    elif answer == 'refused':\n"
        "        self.detector.refused(entry.node_id)\n"
    )
    assert references(old_coordinator, LIVENESS_NAMES) == [1, 2, 4, 5, 6, 7, 11, 13]


#: Where a public name of ``src/repro`` must have a caller: the package
#: itself, the benchmarks (the frozen end-to-end one included) and the
#: examples.  ``tests/`` does not count.
CALLER_TOPS = ("src", "benchmarks", "examples")

#: Public names that nothing under :data:`CALLER_TOPS` reaches, and why
#: each stays.  A key is ``<path under src/repro>::<name>`` or
#: ``…::<Class>.<method>``; ``fnmatch`` patterns are for names a table
#: dispatches by.
UNREACHED_NAMES = {
    "cli/*.py::cmd_*": "name-based dispatch: repro.cli.table calls getattr(module, 'cmd_<verb>')",
    "cli/*.py::text_*": "name-based dispatch: repro.cli.table calls getattr(module, 'text_<verb>')",
    "experiments/*.py::figure*_rows": (
        "name-based dispatch: `rpr figure N` reads getattr(experiments, 'figure<N>_rows') "
        "in cli/paper.py (the paper's Figs. 7-14)"
    ),
    "experiments/ablations.py::*_rows": (
        "name-based dispatch: tests/integration/test_experiments.py writes each "
        "EXPERIMENTS.md ablation block from getattr(experiments, '<name>_rows')"
    ),
    **{
        f"live/transport.py::TcpStream.{callback}": (
            "name-based dispatch: asyncio calls its BufferedProtocol callbacks by name"
        )
        for callback in (
            "get_buffer", "buffer_updated", "eof_received", "connection_lost",
            "pause_writing", "resume_writing",
        )
    },
    "analysis/model.py::traditional_total_time_eq5": (
        "paper eq. (5); tests/analysis/test_model.py checks the paper's example"
    ),
    "analysis/limits.py::worst_case_improvement": (
        "paper §4.3.1, which EXPERIMENTS.md generates no row for; "
        "tests/analysis/test_limits.py checks it"
    ),
    "analysis/model.py::car_repair_time": (
        "reference: tests/analysis/test_limits.py holds the simulator's CAR repairs to it"
    ),
    "repair/faults.py::payload_compositions": (
        "reference: tests/repair/test_executor.py and test_slices.py check that a plan "
        "run symbolically ends on the generator row"
    ),
    "repair/update.py::apply_update_payloads": (
        "reference: tests/repair/test_update.py compares the update plan's bytes with it"
    ),
    "repair/planstats.py::critical_path_hops": (
        "reference: tests/properties/test_scaling_invariants.py bounds every simulated "
        "makespan below by its chained cross-rack hops × t_c"
    ),
    "gf/splittable.py::combine_tile_reference": (
        "reference: tests/properties/test_kernel_equivalence.py compares the kernel with it"
    ),
    "store/messages.py::serve_connection": (
        "test seam: serves any Stream, so store tests run an RpcServer's handler "
        "without a socket (ROADMAP item 1a-0)"
    ),
    **{
        f"sim/jobs.py::JobGraph.{builder}": (
            "test builder: ≈ 110 test call sites write job graphs with it; the planners "
            "build graphs through RepairPlan"
        )
        for builder in ("add_transfer", "add_compute")
    },
}


def public_definitions(tree: ast.AST):
    """``(qualified name, name, first line, last line)`` of every public
    top-level function or class and every public method of a top-level
    class (decorators included)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        members = [node] + [
            item
            for item in (node.body if isinstance(node, ast.ClassDef) else [])
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for member in members:
            if member.name.startswith("_"):
                continue
            qualified = member.name if member is node else f"{node.name}.{member.name}"
            first = min([member.lineno] + [d.lineno for d in member.decorator_list])
            yield qualified, member.name, first, member.end_lineno


def name_uses(tree: ast.AST, reexports: bool):
    """``(name, line)`` of every name a module reads — a name, an
    attribute, a string that is one identifier (``getattr`` targets) or a
    name it imports — except its ``__all__`` entries, the keys of its
    dict literals (a record field named like a method reads nothing) and,
    in an ``__init__`` (``reexports``), its imports."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skipped |= {id(n) for n in ast.walk(node)}
        elif isinstance(node, ast.Dict):
            skipped |= {id(key) for key in node.keys if isinstance(key, ast.Constant)}
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno
        elif isinstance(node, ast.ImportFrom) and not reexports:
            yield from ((alias.name, node.lineno) for alias in node.names)


def unreached_names(sources: dict[str, str], allowed=UNREACHED_NAMES) -> list[str]:
    """``src/repro/<path>::<name>`` of every public name defined in
    ``sources`` (repo-relative path → text) under ``src/repro`` that no
    line of ``sources`` reads outside the name's own body — or only the
    bodies of other such names — and that ``allowed`` does not match."""
    definitions, uses = [], {}
    for rel, text in sources.items():
        tree = ast.parse(text, filename=rel)
        if rel.startswith("src/repro/"):
            definitions += [
                (rel, qualified, name, first, last)
                for qualified, name, first, last in public_definitions(tree)
                if not any(
                    fnmatch(f"{rel[len('src/repro/'):]}::{qualified}", pattern)
                    for pattern in allowed
                )
            ]
        for name, line in name_uses(tree, reexports=rel.endswith("__init__.py")):
            uses.setdefault(name, []).append((rel, line))
    unreached: dict[str, tuple] = {}
    while True:
        dead_bodies = [(rel, first, last) for rel, _, _, first, last in unreached.values()]
        found = {
            f"{rel}::{qualified}": (rel, qualified, name, first, last)
            for rel, qualified, name, first, last in definitions
            if not any(
                not (at == rel and first <= line <= last)
                and not any(at == r and lo <= line <= hi for r, lo, hi in dead_bodies)
                for at, line in uses.get(name, ())
            )
        }
        if found.keys() == unreached.keys():
            return sorted(found)
        unreached = found


@functools.cache
def caller_sources() -> dict[str, str]:
    return {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for top in CALLER_TOPS
        for path in sorted((ROOT / top).rglob("*.py"))
    }


@functools.cache
def unreached_without_allowlist() -> tuple[str, ...]:
    return tuple(unreached_names(caller_sources(), allowed={}))


def test_every_public_name_has_a_caller_outside_tests():
    unreached = unreached_names(caller_sources())
    assert not unreached, (
        "public names under src/repro that only tests reach — delete each with its "
        "tests, re-exports and docs rows, make it private, or give it an "
        "UNREACHED_NAMES entry with its reason (a paper equation or figure, the tests "
        "that use it as a reference, or a name-based dispatch):\n" + "\n".join(unreached)
    )
    needed = unreached_without_allowlist()
    stale = [
        pattern
        for pattern in UNREACHED_NAMES
        if not any(fnmatch(name.removeprefix("src/repro/"), pattern) for name in needed)
    ]
    assert not stale, "UNREACHED_NAMES entries that a caller now reaches:\n" + "\n".join(stale)


def test_the_dead_name_guard_sees_what_it_guards():
    """Not vacuous: allowlisted names are unreached without their entries,
    and a planted test-only function, method and class are found — also
    one that only another dead name calls — while an ``__all__`` entry, an
    ``__init__`` re-export or a dict key keeps nothing alive and a real
    caller does."""
    sources = caller_sources()
    bare = unreached_without_allowlist()
    assert "src/repro/repair/planstats.py::critical_path_hops" in bare
    assert "src/repro/cli/paper.py::cmd_figure" in bare
    assert "src/repro/sim/jobs.py::JobGraph.add_transfer" in bare
    planted = {
        **sources,
        "src/repro/planted.py": (
            "__all__ = ['only_tests', 'PlanStats', 'called']\n"
            "def only_tests(plan):\n"
            "    return only_tests(plan.inner) + helper_of_dead(plan)\n"
            "def helper_of_dead(plan):\n"
            "    return 1\n"
            "class PlanStats:\n"
            "    def from_plan(cls, plan):\n"
            "        return PlanStats()\n"
            "class Stripe2:\n"
            "    def used(self):\n"
            "        return self.drop_payload2()\n"
            "    @property\n"
            "    def drop_payload2(self):\n"
            "        return 0\n"
            "    def _private(self):\n"
            "        return 0\n"
            "def called():\n"
            "    return Stripe2().used(), {'from_plan': 0}\n"
        ),
        "src/repro/planted_pkg/__init__.py": "from ..planted import only_tests, PlanStats\n",
        "examples/planted_example.py": "from repro.planted import called\ncalled()\n",
    }
    assert [
        name for name in unreached_names(planted) if "planted" in name
    ] == [
        "src/repro/planted.py::PlanStats",
        "src/repro/planted.py::PlanStats.from_plan",
        "src/repro/planted.py::helper_of_dead",
        "src/repro/planted.py::only_tests",
    ]
