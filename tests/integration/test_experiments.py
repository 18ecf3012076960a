"""Integration tests: the experiment harness reproduces the paper's shapes,
and EXPERIMENTS.md prints exactly what it measures.

The shape tests state one qualitative claim of the evaluation section
each and check the measured rows uphold it.  The doc tests check every
block of EXPERIMENTS.md between ``<!-- experiments:<name>:begin ... -->``
and ``<!-- experiments:<name>:end -->`` (the result tables of Figs 6–14
and slice-pipelining, the "Measured:" lines) against the rows rendered
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
    "node-rebuild-measured": node_rebuild_measured,
    "durability-measured": durability_measured,
    "lrc-measured": lrc_measured,
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
