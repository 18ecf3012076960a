"""Extension bench: LRC(12,2,2) vs RS(12,4) — the §4.3.1 industry codes.

Both codes store 12 data blocks with 4 parities (33 % overhead).  The
sweep (:func:`repro.experiments.lrc_rows`, also ``rpr extension lrc``)
compares single-failure repair over every data-block position on the
same 9-rack cluster (2 blocks/rack), plus fault-tolerance reach:

* RS(12,4)+RPR needs 12 helpers per repair; LRC needs 6 (its local
  group) — roughly half the traffic and repair time;
* RS recovers *every* ≤4-failure pattern; LRC refuses those that
  concentrate in one local group (quantified below).
"""

from conftest import emit
from repro.experiments import format_table, lrc_rows


def test_lrc_vs_rs(bench_once):
    lrc, rs = bench_once(lrc_rows)
    emit(
        "Extension — LRC(12,2,2)+local repair vs RS(12,4)+RPR "
        "(same 33% overhead)",
        format_table(
            ["metric", "LRC(12,2,2)", "RS(12,4)"],
            [
                ["mean repair time (s)", lrc["mean_repair_s"], rs["mean_repair_s"]],
                ["mean cross-rack blocks", lrc["mean_cross_blocks"], rs["mean_cross_blocks"]],
                ["4-failure patterns recoverable",
                 f"{lrc['four_failure_coverage_pct']:.1f}%",
                 f"{rs['four_failure_coverage_pct']:.0f}%"],
            ],
        ),
    )
    # the trade-off, asserted: cheaper common case...
    assert lrc["mean_repair_s"] < rs["mean_repair_s"]
    assert lrc["mean_cross_blocks"] < rs["mean_cross_blocks"]
    # ...for less-than-MDS worst-case coverage.
    assert 50.0 < lrc["four_failure_coverage_pct"] < 100.0
