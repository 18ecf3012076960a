"""Extension bench: repair speed → data durability (MTTDL).

Quantifies the paper's motivation.  Per-state repair times are measured
on the Simics testbed for each scheme, then fed into the analytic
birth-death MTTDL model at a production failure rate (one failure per
block per 4 years — the AFR regime of Schroeder & Gibson [29]) and into
an accelerated Monte-Carlo run for cross-validation.
"""

from conftest import emit
from repro.experiments import build_simics_environment, durability_rows, format_table
from repro.reliability import simulate_stripe_lifetimes
from repro.repair import RPRScheme, TraditionalRepair

LAM_ACCELERATED = 1 / 2000.0
CODES = [(6, 2), (8, 4), (12, 4)]


def run_analysis():
    rows = []
    for (n, k), analytic in zip(CODES, durability_rows(CODES, block_mtbf_years=4.0)):
        env = build_simics_environment(n, k)
        for prefix, scheme in [("tra", TraditionalRepair()), ("rpr", RPRScheme())]:
            mc = simulate_stripe_lifetimes(
                env, scheme, LAM_ACCELERATED, trials=80, seed=13
            )
            rows.append(
                {
                    "code": analytic["code"],
                    "scheme": scheme.name,
                    "repair_1_s": analytic[f"{prefix}_repair_times_s"][0],
                    "repair_k_s": analytic[f"{prefix}_repair_times_s"][-1],
                    "mttdl_years": analytic[f"{prefix}_mttdl_years"],
                    "mc_accel_s": mc.mttdl_seconds,
                }
            )
    return rows


def test_durability_mttdl(bench_once):
    rows = bench_once(run_analysis)
    emit(
        "Extension — MTTDL per scheme (analytic at 1 failure/block/4y; "
        "MC at accelerated rate)",
        format_table(
            ["code", "scheme", "repair(1)_s", "repair(k)_s", "MTTDL_years", "MC_accel_s"],
            [
                [
                    r["code"],
                    r["scheme"],
                    r["repair_1_s"],
                    r["repair_k_s"],
                    f"{r['mttdl_years']:.3e}",
                    r["mc_accel_s"],
                ]
                for r in rows
            ],
        ),
    )
    by = {(r["code"], r["scheme"]): r for r in rows}
    for n, k in CODES:
        code = f"({n},{k})"
        tra, rpr = by[(code, "traditional")], by[(code, "rpr")]
        # Faster repair must translate into higher durability in both models.
        assert rpr["mttdl_years"] > tra["mttdl_years"]
        assert rpr["mc_accel_s"] > tra["mc_accel_s"]
        # The amplification is super-linear (~ (T_tra/T_rpr)^k in the rare
        # regime); demand at least the linear factor.
        speedup = tra["repair_1_s"] / rpr["repair_1_s"]
        assert rpr["mttdl_years"] / tra["mttdl_years"] > speedup
