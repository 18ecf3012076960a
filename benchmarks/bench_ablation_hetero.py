"""Extension bench: RPR told the heterogeneous EC2 links.

The paper's Algorithm 2 assumes uniform cross-rack links; the EC2
testbed's links vary 2.6x (Table 1).  A context that carries the links
(``RepairContext.link_model``) lets ``RPRScheme`` simulate a
slice-pipelined land-and-fold plan against the paper's tree and keep
the faster one.  Expectation: never slower on any single failure, the
same cross-rack traffic, and a large gain on every paper code.
"""

from dataclasses import replace

from conftest import emit
from repro.experiments import build_ec2_env, context_for, format_table
from repro.metrics import percent_reduction
from repro.repair import RPRScheme, simulate_repair
from repro.rs import PAPER_SINGLE_FAILURE_CODES
from repro.workloads import single_failure_scenarios


def run_sweep():
    rows = []
    scheme = RPRScheme()
    for n, k in PAPER_SINGLE_FAILURE_CODES:
        env = build_ec2_env(n, k)
        pairs = []
        for scenario in single_failure_scenarios(env.code):
            ctx = context_for(env, scenario.failed_blocks)
            told = replace(ctx, link_model=env.bandwidth)
            pairs.append(
                (
                    simulate_repair(scheme, ctx, env.bandwidth),
                    simulate_repair(scheme, told, env.bandwidth),
                )
            )
        paper_t = sum(p.total_repair_time for p, _ in pairs)
        told_t = sum(t.total_repair_time for _, t in pairs)
        rows.append(
            {
                "code": f"({n},{k})",
                "pairs": pairs,
                "paper_s": paper_t / len(pairs),
                "told_s": told_t / len(pairs),
                "gain_pct": percent_reduction(paper_t, told_t),
            }
        )
    return rows


def test_ablation_rpr_told_the_links(bench_once):
    rows = bench_once(run_sweep)
    emit(
        "Extension — RPR told the EC2 links vs the paper's plan "
        "(every single failure)",
        format_table(
            ["code", "rpr_s", "rpr_told_links_s", "gain_%"],
            [[r["code"], r["paper_s"], r["told_s"], r["gain_pct"]] for r in rows],
        ),
    )
    for r in rows:
        for paper, told in r["pairs"]:
            assert told.total_repair_time <= paper.total_repair_time + 1e-9
            assert told.cross_rack_bytes == paper.cross_rack_bytes
        assert r["gain_pct"] >= 40.0, r["code"]
