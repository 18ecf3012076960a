"""Command-line interface: regenerate any experiment or run one repair.

Usage (installed as ``rpr`` or via ``python -m repro.cli``):

    rpr list                        # what can be regenerated
    rpr figure 8                    # print Figure 8's rows
    rpr figure 9 --cap 100          # cap exhaustive sweeps at 100 scenarios
    rpr table 1                     # Table 1's bandwidth matrix
    rpr repair --code 12,4 --fail 1 --scheme rpr [--testbed ec2]
    rpr compare --code 12,4 --fail 1                # all schemes, one table
    rpr faults --code 8,3 --fail 2 --kill 12@0.7    # degraded repair under injected faults
    rpr trace --code 6,4 --fail 1 --scheme rpr      # utilization + bottleneck report
    rpr trace --code 6,2 --fail 1 --gantt           # ... plus the ASCII schedule chart
    rpr trace --code 8,3 --fail 2 --kill 4@0.5      # same report for a degraded repair
    rpr telemetry report --code 6,3 --fail 1        # span/counter/histogram summary
    rpr telemetry diff --code 6,3 --fail 1          # per-op sim vs live ratios
    rpr telemetry export --source both --out t.json # Chrome trace for Perfetto
    rpr telemetry assemble --dir .rpr-store         # stitch per-process store traces
    rpr store stats --prom                          # scrape the live metrics plane
    rpr top                                         # refreshing cluster dashboard
    rpr rebuild --code 6,2 --stripes 30 --node 0    # full-node rebuild
    rpr durability --code 12,4                      # MTTDL per scheme
    rpr extension lrc                               # extension experiments
    rpr perf --quick                                # refresh BENCH_*.json reports
    rpr live --code 6,3 --fail 1 --validate         # live runtime vs simulator

Every report subcommand accepts ``--json`` for machine-readable output.

The front end computes nothing: :mod:`repro.cli.table` declares every
verb and flag and owns dispatch, printing and the usage-error exit; the
command modules beside it (``paper``, ``faults``, ``live``, ``service``,
``perf`` — imported only when one of their verbs runs) each turn parsed
flags into one library call and a payload.
"""

from .table import build_parser, main

__all__ = ["build_parser", "main"]
