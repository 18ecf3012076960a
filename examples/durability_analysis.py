#!/usr/bin/env python3
"""Durability analysis: how much safer does faster repair make data?

The paper motivates RPR with cross-rack bandwidth; this extension closes
the loop to what operators actually buy with faster repair — *mean time
to data loss*.  Per-failure-count repair times are measured on the
Simics testbed for traditional repair and RPR, then fed into:

* an exact birth-death MTTDL model at a production failure rate
  (1 failure per block per 4 years), and
* a Monte-Carlo trajectory simulation at an accelerated rate (so
  run-to-loss trials terminate) for cross-validation.

Because data loss needs k+1 *overlapping* failures, an r-times-faster
repair multiplies MTTDL by roughly r^k — RPR's ~4x repair speedup on
RS(12,4) buys ~70x the durability.

Run:  python examples/durability_analysis.py
"""

from repro.experiments import build_simics_environment, durability_rows
from repro.reliability import simulate_stripe_lifetimes
from repro.repair import RPRScheme, TraditionalRepair

N, K = 12, 4
LAM_ACCELERATED = 1 / 2000.0


def main() -> None:
    env = build_simics_environment(N, K)
    print(f"RS({N},{K}) stripe, Simics testbed, "
          f"failure rate 1/(4 years) per block\n")

    (row,) = durability_rows([(N, K)], block_mtbf_years=4.0)
    for prefix, scheme in [("tra", TraditionalRepair()), ("rpr", RPRScheme())]:
        mc = simulate_stripe_lifetimes(
            env, scheme, LAM_ACCELERATED, trials=100, seed=42
        )
        print(f"{scheme.name}:")
        print(f"  repair time by concurrent failures: "
              f"{[f'{t:.0f}s' for t in row[f'{prefix}_repair_times_s']]}")
        print(f"  analytic MTTDL: {row[f'{prefix}_mttdl_years']:.3e} years")
        print(f"  Monte-Carlo (accelerated failures): mean lifetime "
              f"{mc.mttdl_seconds:.0f} s over {mc.trials} trials\n")

    speedup = row["tra_repair_s"] / row["rpr_repair_s"]
    print(
        f"repairing {speedup:.1f}x faster multiplies MTTDL by "
        f"{row['amplification']:.0f}x (super-linear: loss needs {K + 1} "
        f"overlapping failures)"
    )


if __name__ == "__main__":
    main()
