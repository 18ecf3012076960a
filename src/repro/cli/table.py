"""The verb table: every ``rpr`` verb, its flags, and where its handler lives.

A verb is one :class:`Verb` row.  Its handler is ``cmd_<verb>`` (``store
up`` → ``cmd_store_up``; a ``select`` verb appends the selected value:
``cmd_telemetry_report``) in the row's command module, imported only
when the verb runs.  A handler makes one library call and returns
``(exit code, payload)``:

* a **report** verb's payload is a dict or an object with ``to_dict()``;
  ``--json`` (declared here, once) prints it through
  :func:`repro.cli.common.to_json`, otherwise ``text_<verb>(payload,
  args)`` renders the text view of the same payload;
* any other verb's payload is the text to print;
* ``None`` means the handler wrote its own output (raw object bytes, an
  exported file, ``top``'s frames).

A handler that cannot run with a flag value raises
:class:`~repro.cli.common.UsageError`; :func:`main` turns it into the
one-line message on stderr and exit status 2.

Flags shared by several verbs are declared once, as groups: the
scenario (``--code/--fail/--scheme/--testbed/--placement``), the injected
faults, the live run (``--transport/--block-size/--timeout/--seed``) and
the store cluster (``--racks … --repair-share``).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import dataclass

from ..experiments import DEFAULT_SCENARIO_CAP
from ..perfharness import REPORT_SUITES
from ..repair import SCHEMES
from .common import UsageError, to_json

__all__ = ["EXTENSIONS", "FIGURES", "VERBS", "Verb", "build_parser", "main"]

#: figure number -> text columns of ``repro.experiments.figure<N>_rows``
FIGURES = {
    "6": ["code", "traditional_s", "rpr_s"],
    "7": ["code", "tra_cross_blocks", "car_cross_blocks", "rpr_cross_blocks"],
    "8": ["code", "tra_time_s", "car_time_s", "rpr_time_s", "rpr_vs_tra_pct", "rpr_vs_car_pct"],
    "9": ["code", "tra_time_s", "rpr_time_s", "rpr_time_min_s", "rpr_time_max_s",
          "time_reduction_pct"],
    "10": ["code", "tra_cross_blocks", "rpr_cross_blocks", "traffic_reduction_pct"],
    "11": ["code", "tra_time_s", "rpr_time_s", "time_reduction_pct", "traffic_reduction_pct"],
    "12": ["code", "tra_time_s", "car_time_s", "rpr_time_s", "rpr_vs_tra_pct", "rpr_vs_car_pct"],
    "13": ["code", "tra_time_s", "rpr_time_s", "time_reduction_pct"],
    "14": ["code", "tra_time_s", "rpr_time_s", "time_reduction_pct"],
}

#: extension name -> row generator in ``repro.experiments`` (the text
#: columns are the rows' scalar fields, in row order)
EXTENSIONS = {
    "node-rebuild": "node_rebuild_rows",
    "durability": "durability_rows",
    "lrc": "lrc_rows",
    "slice-pipelining": "slice_pipelining_rows",
}


def opt(name, type=None, default=None, help=None, **kwargs):
    """``--name VALUE``, as data: one ``add_argument`` call."""
    return (name,), {"type": type, "default": default, "help": help, **kwargs}


def switch(name, help=None):
    return (name,), {"action": "store_true", "help": help}


def choice(name, choices, default=None, help=None):
    return (name,), {"choices": choices, "default": default, "help": help}


def arg(name, help=None, **kwargs):
    return (name,), {"help": help, **kwargs}


@dataclass(frozen=True)
class Verb:
    name: str
    module: str  #: command module under ``repro.cli`` holding the handler
    help: str
    flags: tuple = ()
    report: bool = False  #: has ``--json`` and a ``text_<verb>`` view
    select: str = ""  #: flag whose value picks the handler (``telemetry <mode>``)
    sub: tuple["Verb", ...] = ()  #: nested verbs (``store up``), each its own row


def scenario_flags(*, code, fail=None, scheme=True, placement=True):
    """The flags :func:`repro.cli.common.scenario` reads; a verb omits the
    ones it has no use for."""
    return (
        opt("--code", default=code, help="RS code as 'n,k'"),
        *([opt("--fail", default=fail, help="failed block ids, comma-separated")] if fail else []),
        *([choice("--scheme", sorted(SCHEMES), "rpr")] if scheme else []),
        choice("--testbed", ["simics", "ec2"], "simics"),
        *([choice("--placement", ["rpr", "contiguous"], "rpr")] if placement else []),
    )


def fault_flags(*, deaths):
    """The flags ``repro.cli.faults`` turns into a fault scenario."""
    return (
        opt("--kill", default="", help="explicit node deaths as node@fraction of the "
            "fault-free makespan, comma-separated (e.g. '12@0.7,6@0.3')"),
        opt("--slow", default="",
            help="stragglers as node@slowdown-factor, comma-separated (e.g. '4@3.0')"),
        opt("--loss-prob", float, 0.0, "per-transfer loss probability (seeded, deterministic)"),
        opt("--deaths", int, deaths,
            "random node deaths when no --kill/--slow/--loss-prob is given"),
        opt("--seed", int, 0, "fault-plan seed"),
        opt("--max-attempts", int, 3,
            "re-planning budget before the repair is declared irrecoverable"),
    )


#: How a plan is run on the live runtime (``live``, ``telemetry diff/export``).
LIVE_RUN_FLAGS = (
    choice("--transport", ["memory", "tcp"], "memory",
           "live runtime: in-process streams or real localhost sockets"),
    opt("--block-size", int, 64 * 1024,
        "live runtime: payload bytes per block (scaled-down testbed default: 64 KiB)"),
    opt("--timeout", float, 120.0,
        "live runtime: hard wall-clock budget per scheme (hangs fail, not stall)"),
    opt("--seed", int, 0, "stripe payload seed"),
)


def cluster_flags(*, block_size):
    """The store cluster ``store up`` launches and ``qos`` runs in-process."""
    return (
        opt("--racks", int, 3),
        opt("--per-rack", int, 2),
        opt("--code", default="3,2", help="RS code as 'n,k'"),
        choice("--scheme", sorted(SCHEMES), "rpr"),
        opt("--block-size", int, block_size, "bytes per stored block"),
        opt("--link-rate", float, None, "shape every daemon NIC to this rate with a QoS "
            "foreground/repair split (default: unshaped)", metavar="BYTES_PER_S"),
        opt("--repair-share", float, 0.5, "fraction of --link-rate guaranteed to repair traffic"),
    )


def state_dir(what):
    return opt("--dir", default=".rpr-store", help=f"{what} (default: .rpr-store)")


VERBS = (
    Verb("list", "paper", "list figures, tables and schemes"),
    Verb("figure", "paper", "regenerate one figure's rows", report=True, flags=(
        arg("number", f"figure number ({', '.join(FIGURES)})"),
        opt("--cap", int, DEFAULT_SCENARIO_CAP,
            "max scenarios per sweep (larger sweeps are sampled)"),
    )),
    Verb("extension", "paper", "regenerate an extension experiment", report=True, flags=(
        arg("name", " | ".join(EXTENSIONS)),
    )),
    Verb("table", "paper", "regenerate one table", flags=(arg("number", "table number (1)"),)),
    Verb("repair", "paper", "simulate a single repair", report=True,
         flags=scenario_flags(code="12,4", fail="1")),
    Verb("compare", "paper", "run every scheme on one scenario", report=True,
         flags=scenario_flags(code="12,4", fail="1", scheme=False)),
    Verb("faults", "faults", report=True,
         help="simulate a repair under injected faults (node death, stragglers, loss)",
         flags=(
             *scenario_flags(code="8,3", fail="2"),
             *fault_flags(deaths=1),
             switch("--verify", "replay the scenario on a real byte store and check the "
                    "recovered payloads equal the lost originals"),
         )),
    Verb("trace", "faults", report=True,
         help="per-rack utilization + critical-path bottleneck report for one repair",
         flags=(
             *scenario_flags(code="6,4", fail="1"),
             switch("--gantt", "append the utilization Gantt chart"),
             opt("--width", int, 64, "Gantt chart width"),
             *fault_flags(deaths=0),
             opt("--attempt", int, -1,
                 "which attempt of a degraded repair to trace (default: final)"),
             switch("--jsonl", "emit the run's telemetry as canonical JSON lines "
                    "(what 'rpr telemetry export --format jsonl' writes)"),
         )),
    Verb("telemetry", "live", report=True, select="mode",
         help="span telemetry: report one repair, diff sim vs live, export "
         "Chrome/JSONL traces, or assemble a store's per-process streams",
         flags=(
             choice("mode", ["report", "diff", "export", "assemble"]),
             arg("paths", "assemble: telemetry JSONL files to stitch (see also --dir)",
                 nargs="*"),
             opt("--dir", default="",
                 help="assemble: store state directory to glob telemetry-*.jsonl from"),
             *scenario_flags(code="6,3", fail="1"),
             *LIVE_RUN_FLAGS,
             opt("--top", int, 8, "rows shown for slowest ops / worst divergers"),
             choice("--source", ["sim", "live", "both"], "sim",
                    "export: which interpreter's trace (both = side-by-side Chrome trace)"),
             choice("--format", ["chrome", "jsonl"], "chrome",
                    "export format: Chrome trace-event JSON (Perfetto) or canonical JSONL"),
             opt("--out", default="", help="export: output path (default stdout)"),
         )),
    Verb("rebuild", "paper", "rebuild everything a failed node held", report=True, flags=(
        *scenario_flags(code="6,2", placement=False),
        opt("--stripes", int, 30),
        opt("--node", int, 0),
        choice("--mode", ["parallel", "sequential"], "parallel"),
        choice("--rebuild", ["replacement", "scatter"], "scatter"),
        switch("--balance"),
    )),
    Verb("durability", "paper", "MTTDL per scheme from measured repair times", report=True,
         flags=(
             *scenario_flags(code="12,4", scheme=False, placement=False),
             opt("--block-mtbf-years", float, 4.0,
                 "mean time between failures per block, in years"),
         )),
    Verb("live", "live", report=True,
         help="execute repairs on the live asyncio runtime, cross-validated "
         "against the simulator",
         flags=(
             opt("--code", default="6,3", help="RS code as 'n,k'"),
             opt("--fail", default="1", help="failed block ids, comma-separated"),
             opt("--schemes", default="",
                 help="comma-separated subset of schemes (default: all applicable)"),
             *LIVE_RUN_FLAGS,
             switch("--validate", "exit nonzero unless bytes match and measured ordering "
                    "agrees with the simulator"),
         )),
    Verb("store", "service", "run the multi-process object store service "
         "(coordinator + daemons as real subprocesses)",
         flags=(state_dir("state directory the cluster is rooted at"),),
         sub=(
             Verb("up", "service", "launch coordinator + one daemon per node", flags=(
                 *cluster_flags(block_size=64 * 1024),
                 opt("--suspect-after", float, 2.0,
                     "seconds of heartbeat silence before a node is declared dead"),
                 opt("--heartbeat-interval", float, 0.5),
             )),
             Verb("down", "service", "stop every process and clear the state dir"),
             Verb("status", "service", "process liveness + per-daemon heartbeat age / "
                  "repairs in flight + service-side cluster status", report=True),
             Verb("stats", "service", "scrape the live metrics plane (coordinator + every "
                  "daemon)", report=True, flags=(
                      switch("--prom", "Prometheus text exposition (counters, gauges, "
                             "latency histograms)"),
                  )),
             Verb("kill", "service", "SIGKILL one daemon so the coordinator must repair",
                  flags=(arg("node", "node id of the daemon to kill", type=int),)),
             Verb("put", "service", "store an object (striped + encoded)", flags=(
                 arg("name"), arg("file", "path to read, or '-' for stdin"),
             )),
             Verb("get", "service", "fetch an object back", report=True, flags=(
                 arg("name"),
                 opt("--out", help="write here instead of stdout"),
                 opt("--degraded", action=argparse.BooleanOptionalAction, default=True,
                     help="reconstruct blocks on dead nodes client-side instead of "
                     "failing (--no-degraded restores the strict behaviour)"),
             )),
             Verb("rm", "service", "delete an object", flags=(arg("name"),)),
             Verb("ls", "service", "list stored objects"),
         )),
    Verb("top", "service", "refreshing terminal dashboard over a running store cluster",
         flags=(
             state_dir("state directory of the cluster"),
             opt("--interval", float, 2.0, "seconds between frames"),
             opt("--iterations", int, 0, "stop after this many frames (0 = run until Ctrl-C)"),
         )),
    Verb("qos", "service", report=True,
         help="replay a Zipfian user workload against an in-process store "
         "cluster, optionally killing a daemon mid-run",
         flags=(
             *cluster_flags(block_size=16 * 1024),
             opt("--objects", int, 8, "working-set size"),
             opt("--requests", int, 100),
             opt("--object-bytes", int, 3 * 16 * 1024),
             opt("--rate", float, 200.0, "open-loop arrival rate (req/s) in the trace"),
             opt("--zipf-s", float, 1.0),
             opt("--get-fraction", float, 0.9),
             choice("--mode", ("closed", "open"), "closed"),
             opt("--concurrency", int, 4, "closed-loop client count"),
             opt("--time-scale", float, 1.0, "open-loop trace-time multiplier"),
             opt("--kill-at", float, None, "kill the daemon holding stripe 0 block 0 this "
                 "long into the replay", metavar="SECONDS"),
             opt("--seed", int, 0),
         )),
    Verb("perf", "perf", "time the engine and coding hot paths, write BENCH_*.json", flags=(
        switch("--quick", "CI-sized run (fewer reps, smaller sizes)"),
        opt("--out-dir", default=".",
            help="where to write " + " / ".join(name for name, _ in REPORT_SUITES)),
    )),
)


def _add_verb(subparsers, verb: Verb, prefix: str = "") -> None:
    parser = subparsers.add_parser(verb.name, help=verb.help)
    for names, kwargs in verb.flags:
        parser.add_argument(*names, **kwargs)
    if verb.report:
        parser.add_argument("--json", action="store_true", help="machine-readable output")
    if verb.sub:
        nested = parser.add_subparsers(dest=f"{verb.name}_command", required=True)
        for child in verb.sub:
            _add_verb(nested, child, f"{prefix}{verb.name}_")
    else:
        parser.set_defaults(verb=verb, handler=prefix + verb.name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpr",
        description="RPR reproduction: regenerate paper experiments or run one repair",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for verb in VERBS:
        _add_verb(subparsers, verb)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    verb: Verb = args.verb
    module = importlib.import_module(f"{__package__}.{verb.module}")
    name = args.handler + (f"_{getattr(args, verb.select)}" if verb.select else "")
    try:
        code, payload = getattr(module, f"cmd_{name}")(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    if payload is None:
        return code
    if verb.report and args.json:
        text = to_json(payload.to_dict() if hasattr(payload, "to_dict") else payload)
    elif verb.report:
        text = getattr(module, f"text_{name}")(payload, args)
    else:
        text = payload
    if text:
        print(text, end="" if text.endswith("\n") else "\n")
    return code
