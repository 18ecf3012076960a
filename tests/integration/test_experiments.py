"""Integration tests: the experiment harness reproduces the paper's shapes,
and EXPERIMENTS.md prints exactly what it measures.

The shape tests state one qualitative claim of the evaluation section,
or of an ablation, each and check the measured rows uphold it.  The doc
tests check every block of EXPERIMENTS.md between ``<!--
experiments:<name>:begin ... -->`` and ``<!-- experiments:<name>:end -->``
(the result tables of Figs 6–14, the link-model ablation and
slice-pipelining, the "Measured:" lines) against the rows rendered
by :data:`BLOCKS`; prose outside the markers is hand-written.  After a
deliberate change to a row function, ``python
tests/integration/test_experiments.py`` rewrites the blocks.  Each row
function runs once per session, at the defaults the doc prints.
"""

import functools
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":  # run as a script: import the checkout's package
    sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from repro import experiments  # noqa: E402
from repro.analysis import nonworst_traffic_blocks  # noqa: E402
from repro.ec2 import average_cross_mbps, average_intra_mbps  # noqa: E402
from repro.experiments import (  # noqa: E402
    build_simics_environment,
    format_table,
    model_vs_simulation_rows,
    run_scheme,
    single_failure_rows,
)
from repro.reliability import simulate_stripe_lifetimes  # noqa: E402
from repro.repair import RPRScheme, TraditionalRepair  # noqa: E402
from repro.rs import get_code  # noqa: E402
from repro.workloads import scenario_count  # noqa: E402

DOC = ROOT / "EXPERIMENTS.md"


@functools.cache
def rows(fn: str) -> list[dict]:
    """``repro.experiments.<fn>()`` at its defaults, computed once."""
    return getattr(experiments, fn)()


# --- EXPERIMENTS.md: what each generated block prints -----------------------


def triple(row) -> tuple[int, ...]:
    """``"(12,4,3)"`` -> ``(12, 4, 3)``."""
    return tuple(int(x) for x in row["code"].strip("()").split(","))


def marked(row) -> str:
    """A multi-failure sweep's code cell, ``*`` when it was subsampled."""
    return row["code"] + ("*" if row["sampled"] else "")


def table(fn: str, columns):
    """Markdown table of ``rows(fn)``; ``columns`` are (header, cell) pairs,
    a cell a ``str.format`` template over the row or a function of it.
    A line under the table counts the positions of each subsampled row."""

    def render() -> str:
        lines = ["| " + " | ".join(h for h, _ in columns) + " |", "|" + "---|" * len(columns)]
        for row in rows(fn):
            cells = [c(row) if callable(c) else c.format(**row) for _, c in columns]
            lines.append("| " + " | ".join(cells) + " |")
        counts = [
            f"{row['code']} {row['scenarios']} of "
            f"{scenario_count(get_code(*triple(row)[:2]), triple(row)[2])} positions"
            for row in rows(fn)
            if row.get("sampled")
        ]
        if counts:
            lines += ["", "`*` subsampled (seeded): " + ", ".join(counts) + "."]
        return "\n".join(lines)

    return render


def avg_up_to(fn: str, key: str) -> str:
    values = [row[key] for row in rows(fn)]
    return f"avg {sum(values) / len(values):.1f} % / up to **{max(values):.1f} %**"


def measured(fn: str, *keys: str):
    return lambda: "Measured: " + "; ".join(avg_up_to(fn, key) for key in keys) + "."


def span(values, fmt: str) -> str:
    low, high = format(min(values), fmt), format(max(values), fmt)
    return low if low == high else f"{low}–{high}"


def fig6_measured() -> str:
    tra, rpr = ([r[key] * 1e3 for r in rows("figure6_rows")] for key in ("traditional_s", "rpr_s"))
    return f"Measured: traditional {span(tra, '.0f')} ms, RPR {span(rpr, '.0f')} ms."


def fig11_measured() -> str:
    traffic = span([row["traffic_reduction_pct"] for row in rows("figure11_rows")], ".0f")
    return (
        f"Measured: {avg_up_to('figure11_rows', 'time_reduction_pct')} time reduction, "
        f"traffic reduction **{traffic} %** on every code."
    )


def table1_measured() -> str:
    cross, intra = average_cross_mbps(), average_intra_mbps()
    return (
        f"Measured: avg cross {cross:.2f} Mbps, avg intra {intra:.2f} Mbps, "
        f"ratio {intra / cross:.2f}."
    )


def node_rebuild_measured() -> str:
    time = {
        (r["scheme"], r["mode"], r["rebuild"]): r["makespan_s"] for r in rows("node_rebuild_rows")
    }
    return (
        f"Measured: RPR parallel+scatter rebuilds in {time['rpr', 'parallel', 'scatter']:.1f} s "
        f"vs traditional sequential+replacement "
        f"{time['traditional', 'sequential', 'replacement']:.1f} s."
    )


def durability_measured() -> str:
    row = next(row for row in rows("durability_rows") if row["code"] == "(12,4)")
    tra, rpr = (f"{row[s + '_mttdl_years']:.1e}".replace("e+", "e") for s in ("tra", "rpr"))
    return (
        f"Measured: RS(12,4) traditional {tra} years vs RPR {rpr} years "
        f"({row['amplification']:.0f}x), from a "
        f"{row['tra_repair_s'] / row['rpr_repair_s']:.1f}x faster single-block repair."
    )


def lrc_measured() -> str:
    lrc, rs = rows("lrc_rows")
    return (
        f"Measured: mean single-failure repair {lrc['mean_repair_s']:.1f} s vs "
        f"{rs['mean_repair_s']:.1f} s and {lrc['mean_cross_blocks']:g} vs "
        f"{rs['mean_cross_blocks']:g} cross-rack blocks; {lrc['four_failure_coverage_pct']:.1f} % "
        f"of 4-failure patterns recoverable vs {rs['four_failure_coverage_pct']:.0f} %."
    )


def by_code(fn: str) -> dict[str, dict]:
    return {row["code"]: row for row in rows(fn)}


def pipeline_measured() -> str:
    gains = ", ".join(f"{r['code']} {r['gain_pct']:.1f} %" for r in rows("pipeline_rows"))
    idle = ", ".join(
        f"{r['code']} {r['direct_idle_pct']:.1f} → {r['pipeline_idle_pct']:.1f} %"
        for r in rows("pipeline_rows")
        if r["gain_pct"] > 0
    )
    return (
        f"Measured: mean repair time saved by the pipeline {gains}; where it saves "
        f"time, the mean rack upload idle share of one repair drops, direct → "
        f"pipelined, {idle}."
    )


def preplacement_measured() -> str:
    table = rows("preplacement_rows")
    ec2 = span([r["ec2_contiguous_s"] - r["ec2_preplaced_s"] for r in table], ".1f")
    simics = span(
        [100 * (1 - r["simics_preplaced_s"] / r["simics_contiguous_s"]) for r in table], ".1f"
    )
    xor = span([r["ec2_preplaced_s"] - r["ec2_xor_s"] for r in table], ".1f")
    return (
        f"Measured: pre-placement saves {ec2} s per repair on the EC2 decode model and "
        f"{simics} % on Simics; preferring the XOR helper set saves a further {xor} s "
        f"on EC2."
    )


def bandwidth_ratio_measured() -> str:
    sweep = ", ".join(
        f"{r['rpr_vs_tra_pct']:.1f} % at {r['ratio']}:1" for r in rows("bandwidth_ratio_rows")
    )
    return f"Measured: RS(12,4), block 1 lost, RPR vs traditional {sweep}."


def link_model_measured() -> str:
    table = rows("link_model_rows")
    total = sum(r["failures"] for r in table)
    slower = sum(r["slower"] for r in table)
    changed = sum(r["traffic_changed"] for r in table)
    gains = span([r["all_gain_pct"] for r in table], ".1f")
    return (
        f"Measured over all {total} single failures, parity included: told the links is "
        f"slower in {slower} and moves different cross-rack bytes in {changed}; "
        f"{gains} % faster per code."
    )


def block_size_measured() -> str:
    table = rows("block_size_rows")
    sweep = ", ".join(f"{r['rpr_vs_tra_pct']:.1f} % at {r['block']}" for r in table)
    return (
        f"Measured: RS(12,4), block 1 lost, RPR vs traditional {sweep}; the time saved "
        f"falls from {table[0]['saving_s']:.2f} s to {table[-1]['saving_s']:.2f} s."
    )


def switch_capacity_measured() -> str:
    table = rows("switch_capacity_rows")
    rpr = ", ".join(
        f"{r['rpr_s']:.1f} s " + ("uncapped" if r["capacity"] is None else f"at {r['capacity']}")
        for r in table
    )
    return (
        f"Measured: RS(12,4), block 1 lost: traditional "
        f"{span([r['traditional_s'] for r in table], '.1f')} s and CAR "
        f"{span([r['car_s'] for r in table], '.1f')} s under every cap; RPR {rpr}."
    )


def update_traffic_measured() -> str:
    table = rows("update_traffic_rows")
    blocks = ", ".join(
        f"{r['code']} {r['preplaced_blocks']:.3g} vs {r['contiguous_blocks']:.3g}" for r in table
    )
    return (
        f"Measured: mean cross-rack blocks per update, pre-placed vs contiguous, {blocks}; "
        f"mean update time {span([r['preplaced_s'] for r in table], '.1f')} s vs "
        f"{span([r['contiguous_s'] for r in table], '.1f')} s."
    )


def load_balance_measured() -> str:
    row = by_code("load_balance_rows")["(12,4)"]
    schemes = ("traditional", "car", "rpr")
    peak = " / ".join(f"{row[s + '_peak_mb']:.0f}" for s in schemes)
    spread = " / ".join(f"{row[s + '_spread']:.2f}" for s in schemes)
    return (
        f"Measured: RS(12,4), block 1 lost, traditional / CAR / RPR: largest download of "
        f"one node {peak} MB; cross-rack upload max/mean over racks {spread}."
    )


def rack_failure_measured() -> str:
    time = {r["scheme"]: r["makespan_s"] for r in rows("rack_failure_rows")}
    return (
        f"Measured: RPR rebuilds in {time['rpr']:.1f} s vs traditional "
        f"{time['traditional']:.1f} s."
    )


def rack_count_measured() -> str:
    table = rows("rack_count_rows")
    tra, rpr = (" / ".join(f"{r[key]:.1f}" for r in table) for key in ("tra_s", "rpr_s"))
    slack = span([r["eq13_bound_s"] - r["rpr_s"] for r in table], ".1f")
    return (
        f"Measured: {table[0]['code']} to {table[-1]['code']}, q = {table[0]['q']} to "
        f"{table[-1]['q']}, block 1 lost: traditional {tra} s; RPR {rpr} s; eq. (13) "
        f"lies {slack} s above each RPR point."
    )


CODE, TRA_S = ("code", "{code}"), ("Tra (s)", "{tra_time_s:.1f}")
RPR_S = ("RPR (s)", "{rpr_time_s:.1f}")
REDUCTION = ("reduction", "{time_reduction_pct:.1f} %")
SINGLE_TIMES = [
    CODE, TRA_S, ("CAR (s)", "{car_time_s:.1f}"), RPR_S,
    ("RPR vs Tra", "{rpr_vs_tra_pct:.1f} %"), ("RPR vs CAR", "{rpr_vs_car_pct:.1f} %"),
]
MULTI_TIMES = [("code", marked), TRA_S, RPR_S, REDUCTION]
PREDICTION = (
    "§4.3.3 prediction for same-rack failures, "
    "`repro.analysis.nonworst_traffic_blocks(n, k, l)` = (n/k)·l"
)

#: block name -> its text, in the doc's order.
BLOCKS = {
    "fig6": table("figure6_rows", [
        CODE,
        ("traditional (ms)", lambda row: f"{row['traditional_s'] * 1e3:.0f}"),
        ("RPR worst case (ms)", lambda row: f"{row['rpr_s'] * 1e3:.0f}"),
    ]),
    "fig6-measured": fig6_measured,
    "fig7": table("figure7_rows", [
        CODE, ("Tra (blocks)", "{tra_cross_blocks:.1f}"),
        ("CAR", "{car_cross_blocks:g}"), ("RPR", "{rpr_cross_blocks:g}"),
    ]),
    "fig8": table("figure8_rows", SINGLE_TIMES),
    "fig8-measured": measured("figure8_rows", "rpr_vs_tra_pct", "rpr_vs_car_pct"),
    "fig9": table("figure9_rows", [
        *MULTI_TIMES[:3], ("RPR min–max", "{rpr_time_min_s:.1f}–{rpr_time_max_s:.1f}"),
        REDUCTION,
    ]),
    "fig9-measured": measured("figure9_rows", "time_reduction_pct"),
    "fig10": table("figure10_rows", [
        ("code", marked), ("Tra (blocks)", "{tra_cross_blocks:.1f}"),
        ("RPR (blocks)", "{rpr_cross_blocks:.1f}"), ("reduction", "{traffic_reduction_pct:.1f} %"),
        (PREDICTION, lambda row: str(nonworst_traffic_blocks(*triple(row)))),
    ]),
    "fig10-measured": measured("figure10_rows", "traffic_reduction_pct"),
    "fig11": table("figure11_rows", [
        *MULTI_TIMES[:3], ("time reduction", "{time_reduction_pct:.1f} %"),
        ("traffic reduction", "{traffic_reduction_pct:.0f} %"),
    ]),
    "fig11-measured": fig11_measured,
    "table1-measured": table1_measured,
    "fig12": table("figure12_rows", SINGLE_TIMES),
    "fig12-measured": measured("figure12_rows", "rpr_vs_tra_pct", "rpr_vs_car_pct"),
    "fig13": table("figure13_rows", MULTI_TIMES),
    "fig13-measured": measured("figure13_rows", "time_reduction_pct"),
    "fig14": table("figure14_rows", MULTI_TIMES),
    "fig14-measured": measured("figure14_rows", "time_reduction_pct"),
    "pipeline-measured": pipeline_measured,
    "preplacement-measured": preplacement_measured,
    "bandwidth-ratio-measured": bandwidth_ratio_measured,
    "link-model": table("link_model_rows", [
        CODE, ("paper RPR (s)", "{paper_s:.2f}"),
        ("told the links (s)", "{told_s:.2f} ({gain_pct:.1f} %)"),
    ]),
    "link-model-measured": link_model_measured,
    "node-rebuild-measured": node_rebuild_measured,
    "durability-measured": durability_measured,
    "block-size-measured": block_size_measured,
    "switch-capacity-measured": switch_capacity_measured,
    "update-traffic-measured": update_traffic_measured,
    "load-balance-measured": load_balance_measured,
    "rack-failure-measured": rack_failure_measured,
    "lrc-measured": lrc_measured,
    "rack-count-measured": rack_count_measured,
    "slice-pipelining": table("slice_pipelining_rows", [
        CODE, ("failures pipelined", "{chained_failures} / {failures}"), ("s", "{slices}"),
        ("cross-rack blocks, tree", "{tree_cross_blocks:g}"),
        ("… pipelined", "{chain_cross_blocks:g}"),
        ("tree (s)", "{tree_time_s:.1f}"), ("pipelined (s)", "{chain_time_s:.1f}"),
        ("paper model, block times", "{paper_block_times}"),
        ("tree, block times", "{tree_block_times:.2f}"),
        ("pipelined, block times", "{chain_block_times:.2f}"),
        ("reduction", "{time_reduction_pct:.1f} %"),
    ]),
}


def begin_marker(name: str) -> str:
    return (
        f"<!-- experiments:{name}:begin "
        "(generated, see tests/integration/test_experiments.py) -->"
    )


def end_marker(name: str) -> str:
    return f"<!-- experiments:{name}:end -->"


@functools.cache
def rendered(name: str, indent: str = "") -> str:
    """Block ``name``'s contents as the doc holds them: lines indented like
    the markers (a block inside a list item), newline-ended."""
    return "".join(f"{indent}{line}\n" if line else "\n" for line in BLOCKS[name]().split("\n"))


def block_span(text: str, name: str) -> tuple[int, int, str]:
    """(start, end, indent) of block ``name``'s contents in ``text``;
    ``ValueError`` when a marker is missing."""
    begin = text.index(begin_marker(name))
    indent = text[text.rfind("\n", 0, begin) + 1 : begin]
    start = text.index("\n", begin) + 1
    return start, text.index(indent + end_marker(name), start), indent


def stale_blocks(text: str) -> list[str]:
    """The :data:`BLOCKS` missing from ``text`` or differing from their rendering."""
    stale = []
    for name in BLOCKS:
        try:
            start, end, indent = block_span(text, name)
        except ValueError:
            stale.append(name)
            continue
        if text[start:end] != rendered(name, indent):
            stale.append(name)
    return stale


def regenerate(text: str) -> str:
    for name in BLOCKS:
        start, end, indent = block_span(text, name)
        text = text[:start] + rendered(name, indent) + text[end:]
    return text


class TestExperimentsDoc:
    def test_generated_blocks_are_the_rows(self):
        assert stale_blocks(DOC.read_text()) == [], (
            "EXPERIMENTS.md differs from the row functions; regenerate with "
            "`python tests/integration/test_experiments.py`"
        )

    def test_the_check_sees_what_it_guards(self):
        """Not vacuous: every spec'd block is in the doc exactly once, no
        other block is, every number in a block is read (one changed digit
        in an up-to-date copy makes that block, and only it, stale), and
        subsampled rows are marked."""
        text = DOC.read_text()
        for name in BLOCKS:
            assert text.count(begin_marker(name)) == 1, name
            assert text.count(end_marker(name)) == 1, name
        assert re.findall(r"<!-- experiments:([\w-]+):begin", text) == list(BLOCKS)
        text = regenerate(text)
        assert stale_blocks(text) == []
        for name in BLOCKS:
            start, end, _ = block_span(text, name)
            numbers = list(re.finditer(r"\d+", text[start:end]))
            assert numbers, name
            for number in numbers:
                at = start + number.end() - 1
                bumped = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :]
                assert stale_blocks(bumped) == [name], (name, number.group())
        for name in ("fig9", "fig10", "fig11", "fig13", "fig14"):
            fn = f"figure{name[3:]}_rows"
            sampled = {row["code"] for row in rows(fn) if row["sampled"]}
            marks = re.findall(r"^\| (\([\d,]+\))\* \|", rendered(name), re.M)
            assert sampled and set(marks) == sampled, name


# --- the paper's shapes ------------------------------------------------------


class TestFigure6:
    def test_rpr_always_below_traditional(self):
        for row in rows("figure6_rows"):
            assert row["rpr_s"] < row["traditional_s"]


class TestFigures7And8:
    def test_cross_traffic_car_equals_rpr(self):
        """Fig. 7: identical bars for CAR and RPR (both partial-decode)."""
        for row in rows("figure7_rows"):
            assert row["car_cross_blocks"] == pytest.approx(
                row["rpr_cross_blocks"]
            )

    def test_cross_traffic_below_traditional(self):
        for row in rows("figure7_rows"):
            assert row["rpr_cross_blocks"] < row["tra_cross_blocks"]

    def test_repair_time_ordering(self):
        """Fig. 8: RPR <= CAR <= traditional for every configuration."""
        for row in rows("figure8_rows"):
            assert row["rpr_time_s"] <= row["car_time_s"] + 1e-9
            assert row["car_time_s"] <= row["tra_time_s"] + 1e-9

    def test_largest_code_gives_largest_reduction(self):
        """The paper's 'up to' numbers come from (12,4), on Simics
        (Fig. 8) and on EC2 (Fig. 12)."""
        for fn in ("figure8_rows", "figure12_rows"):
            best = max(rows(fn), key=lambda r: r["rpr_vs_tra_pct"])
            assert best["code"] == "(12,4)"
            assert best["rpr_vs_tra_pct"] > 70.0

    def test_rpr_vs_car_gap_grows_with_rack_count(self):
        """Pipelining pays when there are more racks to pipeline across:
        the k=2 family's gap grows monotonically from (4,2) to (8,2)."""
        by_code = {r["code"]: r["rpr_vs_car_pct"] for r in rows("figure8_rows")}
        assert by_code["(4,2)"] < by_code["(6,2)"]
        assert by_code["(8,2)"] > 20.0


class TestFigures9And10:
    def test_rpr_faster_everywhere(self):
        fig9 = rows("figure9_rows")
        for row in fig9:
            assert row["rpr_time_s"] < row["tra_time_s"]
            assert row["time_reduction_pct"] > 30.0
        assert max(row["time_reduction_pct"] for row in fig9) > 55.0

    def test_traffic_reduced_everywhere(self):
        for row in rows("figure10_rows"):
            assert row["traffic_reduction_pct"] > 0.0

    def test_min_max_caps_bracket_mean(self):
        for row in rows("figure9_rows"):
            assert (
                row["rpr_time_min_s"]
                <= row["rpr_time_s"]
                <= row["rpr_time_max_s"]
            )


class TestFigure11:
    def test_worst_case_still_faster_for_low_overhead_codes(self):
        for row in rows("figure11_rows"):
            assert row["rpr_time_s"] < row["tra_time_s"]

    def test_worst_case_traffic_not_reduced(self):
        """§4.3.2: k failures ship ``n`` intermediates, as many blocks as
        traditional repair — a reduction of exactly 0 %."""
        for row in rows("figure11_rows"):
            assert row["traffic_reduction_pct"] == 0.0

    def test_worst_case_reduction_smaller_than_nonworst(self):
        """§4.3: the worst case is RPR's weakest scenario."""
        worst_12_4 = next(r for r in rows("figure11_rows") if r["code"] == "(12,4,4)")
        nonworst_12_4 = next(r for r in rows("figure9_rows") if r["code"] == "(12,4,2)")
        assert (
            worst_12_4["time_reduction_pct"]
            < nonworst_12_4["time_reduction_pct"]
        )


class TestFigure12:
    def test_ordering_on_ec2(self):
        for row in rows("figure12_rows"):
            assert row["rpr_time_s"] <= row["car_time_s"] <= row["tra_time_s"]

    def test_car_gap_bigger_than_simics(self):
        """§5.2.1: the decode-time gap makes RPR's lead over CAR larger on
        EC2 than on Simics (averaged over codes)."""
        fig8, fig12 = rows("figure8_rows"), rows("figure12_rows")
        simics_gap = sum(r["rpr_vs_car_pct"] for r in fig8) / len(fig8)
        ec2_gap = sum(r["rpr_vs_car_pct"] for r in fig12) / len(fig12)
        assert ec2_gap > simics_gap


class TestFigure13:
    def test_rpr_faster_everywhere(self):
        """Non-worst multi-failure on EC2: RPR wins every triple by > 30 %."""
        for row in rows("figure13_rows"):
            assert row["rpr_time_s"] < row["tra_time_s"]
            assert row["time_reduction_pct"] > 30.0


class TestFigure14:
    def test_worst_case_on_ec2(self):
        for row in rows("figure14_rows"):
            assert row["rpr_time_s"] < row["tra_time_s"]


class TestModelCrossChecks:
    def test_eq10_is_upper_bound_for_sim_traditional(self):
        """Simulated traditional <= n * t_c (local helpers go intra-rack)."""
        for row in model_vs_simulation_rows():
            assert row["sim_tra_s"] <= row["eq10_tra_s"] * 1.05

    def test_eq13_bounds_simulated_rpr(self):
        """The un-pipelined eq. (13) estimate upper-bounds real RPR up to
        decode overhead."""
        for row in model_vs_simulation_rows():
            assert row["sim_rpr_s"] <= row["eq13_rpr_bound_s"] + 5.0


# --- the ablations' shapes ---------------------------------------------------


class TestPipelineAblation:
    def test_pipeline_never_hurts_and_keeps_the_traffic(self):
        for row in rows("pipeline_rows"):
            assert row["pipeline_s"] <= row["direct_s"] + 1e-9
            assert row["pipeline_cross_blocks"] == row["direct_cross_blocks"]

    def test_pipeline_wins_with_three_remote_racks(self):
        by = by_code("pipeline_rows")
        assert by["(6,2)"]["gain_pct"] > 10.0
        assert by["(12,4)"]["gain_pct"] > 10.0

    def test_pipeline_leaves_racks_less_idle(self):
        """Fig. 5: schedule 1 leaves racks idle while the others drain."""
        for row in rows("pipeline_rows"):
            assert row["pipeline_idle_pct"] <= row["direct_idle_pct"] + 1e-9
        by = by_code("pipeline_rows")
        assert by["(6,2)"]["pipeline_idle_pct"] < by["(6,2)"]["direct_idle_pct"]
        assert by["(12,4)"]["pipeline_idle_pct"] < by["(12,4)"]["direct_idle_pct"]


class TestPreplacementAblation:
    def test_preplacement_never_hurts_and_keeps_the_traffic_on_simics(self):
        """§3.3: no negative effect, on traffic included."""
        for row in rows("preplacement_rows"):
            assert row["simics_preplaced_s"] <= row["simics_contiguous_s"] + 1e-9
            assert row["simics_same_traffic"]

    def test_preplacement_skips_the_matrix_build_on_ec2(self):
        """The slow-decode testbed exposes the ~17.5 s matrix-build saving."""
        for row in rows("preplacement_rows"):
            assert row["ec2_contiguous_s"] - row["ec2_preplaced_s"] > 10.0

    def test_xor_selection_never_hurts_on_ec2(self):
        for row in rows("preplacement_rows"):
            assert row["ec2_xor_s"] <= row["ec2_preplaced_s"] + 1e-9


class TestBandwidthRatio:
    def test_advantage_grows_with_the_skew(self):
        table = rows("bandwidth_ratio_rows")
        reductions = [row["rpr_vs_tra_pct"] for row in table]
        assert all(b >= a - 1.0 for a, b in zip(reductions, reductions[1:]))
        assert reductions[-1] > reductions[0]
        for row in table:
            assert row["rpr_s"] <= row["tra_s"] + 1e-9


class TestLinkModel:
    def test_told_the_links_is_never_slower_nor_moves_other_bytes(self):
        """Checked per scenario, over every single failure, parity included."""
        for row in rows("link_model_rows"):
            assert row["slower"] == 0, row["code"]
            assert row["traffic_changed"] == 0, row["code"]

    def test_told_the_links_gains_at_least_40_percent_per_code(self):
        for row in rows("link_model_rows"):
            assert row["all_gain_pct"] >= 40.0, row["code"]


class TestNodeRebuild:
    def makespans(self) -> dict[tuple[str, str, str], float]:
        return {
            (r["scheme"], r["mode"], r["rebuild"]): r["makespan_s"]
            for r in rows("node_rebuild_rows")
        }

    def test_parallel_scatter_dominates_within_each_scheme(self):
        time = self.makespans()
        for scheme in ["traditional", "rpr"]:
            best = time[scheme, "parallel", "scatter"]
            assert all(
                best <= time[scheme, mode, rebuild] + 1e-9
                for mode in ["sequential", "parallel"]
                for rebuild in ["replacement", "scatter"]
            )

    def test_rpr_beats_traditional_in_every_configuration(self):
        time = self.makespans()
        for mode in ["sequential", "parallel"]:
            for rebuild in ["replacement", "scatter"]:
                assert time["rpr", mode, rebuild] < time["traditional", mode, rebuild]


class TestDurability:
    def test_faster_repair_is_more_durable_beyond_its_speedup(self):
        """The amplification is super-linear (~ (T_tra/T_rpr)^k in the rare
        regime); demand at least the linear factor."""
        for row in rows("durability_rows"):
            assert row["rpr_mttdl_years"] > row["tra_mttdl_years"]
            assert row["amplification"] > row["tra_repair_s"] / row["rpr_repair_s"]

    def test_monte_carlo_ranks_the_schemes_the_same_way(self):
        """An accelerated failure rate (one per block per 2000 s), so that
        trials end."""
        for row in rows("durability_rows"):
            env = build_simics_environment(*triple(row))
            tra, rpr = (
                simulate_stripe_lifetimes(env, scheme, 1 / 2000.0, trials=80, seed=13)
                for scheme in (TraditionalRepair(), RPRScheme())
            )
            assert rpr.mttdl_seconds > tra.mttdl_seconds, row["code"]


class TestBlockSize:
    def test_relative_advantage_holds_at_every_block_size(self):
        """The shortest critical path also wins the latency game."""
        for row in rows("block_size_rows"):
            assert row["rpr_vs_tra_pct"] > 60.0
            assert row["rpr_s"] <= row["car_s"] + 1e-9

    def test_absolute_saving_scales_with_block_size(self):
        savings = [row["saving_s"] for row in rows("block_size_rows")]
        assert savings == sorted(savings, reverse=True)


class TestSwitchCapacity:
    def test_only_rpr_gives_back_time_under_a_cap(self):
        """Traditional already serialises through the recovery node, so the
        cap barely moves it; RPR gives back its pipeline win."""
        unlimited, tight = rows("switch_capacity_rows")[0], rows("switch_capacity_rows")[-1]
        assert tight["traditional_s"] == pytest.approx(unlimited["traditional_s"], rel=0.05)
        assert tight["rpr_s"] >= unlimited["rpr_s"]

    def test_ordering_holds_under_every_cap(self):
        """Even fully serialised, RPR is never worse than CAR (same
        transfers, minus CAR's star gather)."""
        for row in rows("switch_capacity_rows"):
            assert row["rpr_s"] <= row["car_s"] + 1e-9
            assert row["car_s"] <= row["traditional_s"] + 1e-9


class TestUpdateTraffic:
    def test_preplacement_is_neutral_on_updates(self):
        """§3.3's "no negative effect": never worse, for traffic or time."""
        for row in rows("update_traffic_rows"):
            assert row["preplaced_blocks"] <= row["contiguous_blocks"] + 1e-9
            assert row["preplaced_s"] <= row["contiguous_s"] + 1e-9


class TestLoadBalance:
    def test_partial_decoding_shrinks_the_recovery_hotspot(self):
        for row in rows("load_balance_rows"):
            assert row["car_peak_mb"] < row["traditional_peak_mb"]
            assert row["rpr_peak_mb"] <= row["car_peak_mb"] + 1e-9


class TestRackFailure:
    def test_rpr_rebuilds_a_rack_faster(self):
        time = {r["scheme"]: r["makespan_s"] for r in rows("rack_failure_rows")}
        assert time["rpr"] < time["traditional"]


class TestRackCount:
    def test_reduction_grows_with_the_rack_span(self):
        """Traditional grows ~linearly in n, RPR ~logarithmically in q."""
        reductions = [row["reduction_pct"] for row in rows("rack_count_rows")]
        assert all(b >= a - 3.0 for a, b in zip(reductions, reductions[1:]))
        assert reductions[-1] > reductions[0]

    def test_eq13_bounds_every_point(self):
        """Up to decode slack."""
        for row in rows("rack_count_rows"):
            assert row["rpr_s"] <= row["eq13_bound_s"] + 5.0


class TestHarnessUtilities:
    def test_format_table_renders(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.50" in text

    def test_single_failure_rows_custom_codes(self):
        custom = single_failure_rows(build_simics_environment, codes=[(4, 2)])
        assert len(custom) == 1
        assert custom[0]["scenarios"] == 4

    def test_run_scheme_roundtrip(self):
        env = build_simics_environment(4, 2)
        outcome = run_scheme(env, RPRScheme(), [0])
        assert outcome.total_repair_time > 0
        tra = run_scheme(env, TraditionalRepair(), [0])
        assert outcome.total_repair_time < tra.total_repair_time


if __name__ == "__main__":
    DOC.write_text(regenerate(DOC.read_text()))
