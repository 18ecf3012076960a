"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "6, 7, 8, 9, 10, 11, 12, 13, 14" in out
        assert "rpr" in out and "car" in out and "traditional" in out


class TestFigure:
    def test_figure6(self, capsys):
        assert main(["figure", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "(12,4)" in out

    def test_figure8(self, capsys):
        assert main(["figure", "8"]) == 0
        out = capsys.readouterr().out
        assert "rpr_time_s" in out

    def test_capped_figure(self, capsys):
        assert main(["figure", "11", "--cap", "5"]) == 0
        out = capsys.readouterr().out
        assert "(12,4,4)" in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "99"]) == 2
        assert "unknown figure" in capsys.readouterr().err


class TestTable:
    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "583.39" in out
        assert "Sydney" in out

    def test_unknown_table(self, capsys):
        assert main(["table", "7"]) == 2


class TestRepair:
    def test_default_repair(self, capsys):
        assert main(["repair"]) == 0
        out = capsys.readouterr().out
        assert "total repair time" in out
        assert "scheme rpr" in out

    def test_multi_failure_ec2(self, capsys):
        assert (
            main(
                [
                    "repair",
                    "--code",
                    "8,4",
                    "--fail",
                    "0,3",
                    "--scheme",
                    "traditional",
                    "--testbed",
                    "ec2",
                    "--placement",
                    "contiguous",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "failed blocks [0, 3]" in out

    def test_bad_code_format(self, capsys):
        assert main(["repair", "--code", "12-4"]) == 2
        assert "--code" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestTimeline:
    """The schedule chart ``rpr timeline`` drew is ``rpr trace --gantt``."""

    def test_timeline_renders(self, capsys):
        assert main(["trace", "--gantt", "--code", "6,2", "--width", "40"]) == 0
        chart = capsys.readouterr().out.split("\n\n")[-1]
        rows = chart.splitlines()
        assert all(len(row.split("|")[1]) == 40 for row in rows[:-1])
        assert "n" in chart and "|" in chart and "#" in chart
        assert rows[-1].endswith("s") and "+" in rows[-1]  # the scale line

    def test_timeline_bad_code(self, capsys):
        assert main(["trace", "--gantt", "--code", "oops"]) == 2
        assert "timeline" not in build_parser().format_help()


def usage_error(argv, capsys) -> str:
    """The one-line message a bad flag value dies with: on stderr, exit
    status 2, nothing on stdout — the same way from every verb."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "", "something was printed before the flag was rejected"
    message = captured.err.strip()
    assert "\n" not in message and "Traceback" not in message
    return message


BAD_FLAG_VERBS = {
    "repair": ["repair"],
    "compare": ["compare"],
    "faults": ["faults"],
    "trace": ["trace", "--gantt"],
    "telemetry": ["telemetry", "report"],
    "live": ["live"],
}
BAD_FLAGS = {
    "fail-outside-stripe": ["--fail", "9"],
    "fail-not-a-number": ["--fail", "x"],
    "fail-repeated": ["--fail", "1,1"],
    "width-too-narrow": ["--width", "5"],  # a trace flag
}


class TestBadScenarioFlags:
    """A bad ``--fail`` / ``--width`` is a one-line usage error, never a traceback."""

    @pytest.mark.parametrize(
        "verb,bad",
        [
            pytest.param(verb, bad, id=f"{verb}-{bad}")
            for verb in BAD_FLAG_VERBS
            for bad in BAD_FLAGS
            if bad != "width-too-narrow" or verb == "trace"
        ],
    )
    def test_one_line_message_names_the_flag_and_the_value(self, verb, bad, capsys):
        flag, value = BAD_FLAGS[bad]
        message = usage_error(
            [*BAD_FLAG_VERBS[verb], "--code", "6,2", flag, value], capsys
        )
        assert flag in message and value in message


class TestTrace:
    def test_trace_prints_rack_and_path_report(self, capsys):
        assert main(["trace", "--code", "6,4", "--fail", "1", "--scheme", "rpr"]) == 0
        out = capsys.readouterr().out
        assert "per-rack utilization" in out
        assert "critical path" in out
        assert "up_idle_%" in out

    def test_trace_critical_path_ends_at_makespan(self, capsys):
        """The acceptance contract: the JSON trace's critical path is
        contiguous and its end equals the simulated makespan."""
        import json

        assert main(["trace", "--code", "6,4", "--fail", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        path = data["critical_path"]
        assert path[0]["start"] == pytest.approx(0.0, abs=1e-9)
        for prev, cur in zip(path, path[1:]):
            assert cur["start"] == pytest.approx(prev["end"], rel=1e-9)
        assert path[-1]["end"] == pytest.approx(data["makespan"], rel=1e-9)

    def test_trace_gantt(self, capsys):
        assert main(["trace", "--code", "6,2", "--gantt", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "|" in out and "%" in out

    def test_trace_jsonl(self, capsys, tmp_path):
        """``--jsonl`` is the run's canonical telemetry JSONL — the same
        bytes ``rpr telemetry export`` writes — and re-derives the report."""
        import json

        from repro.experiments import build_simics_environment
        from repro.telemetry import RunTrace, from_jsonl

        assert main(["trace", "--code", "6,2", "--jsonl"]) == 0
        text = capsys.readouterr().out
        assert json.loads(text.splitlines()[0])["record"] == "telemetry"
        exported = tmp_path / "t.jsonl"
        assert main(["telemetry", "export", "--source", "sim", "--format", "jsonl",
                     "--code", "6,2", "--out", str(exported)]) == 0
        capsys.readouterr()
        assert exported.read_text() == text
        assert main(["trace", "--code", "6,2", "--json"]) == 0
        view = RunTrace.from_telemetry(
            from_jsonl(text), build_simics_environment(6, 2).cluster
        )
        assert view.to_dict() == json.loads(capsys.readouterr().out)

    def test_trace_ec2_traditional(self, capsys):
        assert (
            main(["trace", "--code", "6,2", "--scheme", "traditional", "--testbed", "ec2"])
            == 0
        )
        assert "bottleneck report" in capsys.readouterr().out

    def test_faulted_trace_reports_the_chosen_attempt(self, capsys):
        argv = ["trace", "--code", "8,3", "--fail", "2", "--kill", "6@0.5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "under injected faults" in out
        assert "attempt 2 of 2" in out
        assert main(argv + ["--attempt", "0"]) == 0
        first = capsys.readouterr().out
        assert "attempt 1 of 2" in first
        assert "abort" in first  # the path walks across the abort

    def test_faulted_trace_attempt_out_of_range(self, capsys):
        assert (
            main(["trace", "--code", "8,3", "--fail", "2", "--kill", "6@0.5",
                  "--attempt", "9"])
            == 2
        )
        assert "out of range" in capsys.readouterr().err


class TestTelemetry:
    def test_report_summarises_spans_and_counters(self, capsys):
        assert main(["telemetry", "report", "--code", "6,2"]) == 0
        out = capsys.readouterr().out
        assert "telemetry (sim clock)" in out
        assert "bytes.cross_rack" in out
        assert "slowest ops:" in out

    def test_diff_aligns_every_op(self, capsys):
        assert (
            main(["telemetry", "diff", "--code", "6,2", "--scheme", "rpr",
                  "--block-size", "8192"])
            == 0
        )
        out = capsys.readouterr().out
        assert "0 sim-only, 0 live-only" in out
        assert "worst divergers" in out

    def test_export_chrome_trace_loads(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "trace.json"
        assert (
            main(["telemetry", "export", "--code", "6,2", "--out", str(out_file)])
            == 0
        )
        doc = json.loads(out_file.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_export_jsonl_round_trips(self, capsys, tmp_path):
        from repro.telemetry import from_jsonl, to_jsonl

        out_file = tmp_path / "trace.jsonl"
        assert (
            main(["telemetry", "export", "--format", "jsonl", "--code", "6,2",
                  "--out", str(out_file)])
            == 0
        )
        text = out_file.read_text()
        assert to_jsonl(from_jsonl(text)) == text

    def test_export_refuses_jsonl_of_both_sources(self, capsys):
        assert (
            main(["telemetry", "export", "--format", "jsonl", "--source", "both"])
            == 2
        )
        assert "single trace" in capsys.readouterr().err


class TestRebuild:
    def test_rebuild_runs(self, capsys):
        assert main(["rebuild", "--stripes", "6", "--node", "1"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "cross-rack traffic" in out

    def test_rebuild_balanced_sequential(self, capsys):
        assert (
            main(
                [
                    "rebuild",
                    "--stripes",
                    "6",
                    "--mode",
                    "sequential",
                    "--rebuild",
                    "replacement",
                    "--balance",
                ]
            )
            == 0
        )


class TestDurability:
    def test_durability_runs(self, capsys):
        assert main(["durability", "--code", "6,2"]) == 0
        out = capsys.readouterr().out
        assert "MTTDL" in out
        assert "amplification" in out

    def test_custom_mtbf(self, capsys):
        assert main(["durability", "--code", "6,2", "--block-mtbf-years", "1"]) == 0


class TestJsonOutput:
    def test_figure_json(self, capsys):
        import json

        assert main(["figure", "6", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["figure"] == "6"
        assert len(data["rows"]) == 6
        assert all("traditional_s" in row for row in data["rows"])

    def test_figure_json_capped(self, capsys):
        import json

        assert main(["figure", "11", "--cap", "5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(row["sampled"] in (True, False) for row in data["rows"])


class TestCompare:
    def test_compare_single_failure(self, capsys):
        assert main(["compare", "--code", "6,2", "--fail", "1"]) == 0
        out = capsys.readouterr().out
        assert "traditional" in out and "car" in out and "rpr" in out
        assert "vs_traditional_%" in out

    def test_compare_multi_failure_drops_car(self, capsys):
        assert main(["compare", "--code", "8,4", "--fail", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "car" not in out.splitlines()[-1]
        assert "rpr" in out


class TestExtensionCommand:
    def test_lists_extensions(self, capsys):
        main(["list"])
        assert "node-rebuild" in capsys.readouterr().out

    def test_lrc_extension(self, capsys):
        assert main(["extension", "lrc"]) == 0
        out = capsys.readouterr().out
        assert "lrc(12,2,2)" in out and "rs(12,4)" in out

    def test_durability_extension(self, capsys):
        assert main(["extension", "durability"]) == 0
        assert "amplification" in capsys.readouterr().out

    def test_node_rebuild_extension(self, capsys):
        assert main(["extension", "node-rebuild"]) == 0
        out = capsys.readouterr().out
        assert "scatter" in out and "sequential" in out

    def test_slice_pipelining_extension(self, capsys):
        """Same cross-rack blocks, fewer block times: the EXPERIMENTS.md table."""
        import json

        assert main(["extension", "slice-pipelining", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["code"] for row in rows] == [
            "(4,2)", "(6,2)", "(8,2)", "(6,3)", "(8,4)", "(12,4)"
        ]
        for row in rows:
            assert row["chain_cross_blocks"] == row["tree_cross_blocks"]
            assert row["chain_block_times"] < 1.25 < 2.0 < row["tree_block_times"]
            # the paper's §4.3 model counts the tree's cross timesteps only
            assert 2 <= row["paper_block_times"] <= row["tree_block_times"]

    def test_unknown_extension(self, capsys):
        assert main(["extension", "nope"]) == 2


class TestJsonEverywhere:
    """Every report subcommand must emit parseable JSON under --json."""

    #: report verb (as the verb table names it) -> invocations, sans --json
    REPORT_INVOCATIONS = {
        "figure": [["figure", "6"]],
        "repair": [["repair", "--code", "6,2"]],
        "compare": [["compare", "--code", "6,2"]],
        "trace": [
            ["trace", "--code", "6,2"],
            ["trace", "--code", "8,3", "--fail", "2", "--kill", "6@0.5"],
        ],
        "rebuild": [["rebuild", "--code", "6,2", "--stripes", "4"]],
        "durability": [["durability", "--code", "6,2"]],
        "extension": [["extension", "lrc"]],
        "faults": [["faults", "--code", "6,2", "--fail", "1", "--kill", "0@0.5"]],
        "live": [["live", "--code", "6,2", "--schemes", "rpr"]],
        "telemetry": [
            ["telemetry", "report", "--code", "6,2"],
            ["telemetry", "diff", "--code", "6,2", "--scheme", "rpr", "--block-size", "8192"],
        ],
        "store status": [["store", "status"]],
        "store stats": [["store", "stats"]],
        "store get": [["store", "get", "obj"]],
        "qos": [["qos", "--objects", "2", "--requests", "10", "--block-size", "4096",
                 "--object-bytes", "12288"]],
    }

    def test_every_report_verb_of_the_table_has_an_invocation(self):
        from repro.cli.table import VERBS

        def report_verbs(verbs, prefix=""):
            """Every verb that takes ``--json``, as its command-line words."""
            found = []
            for verb in verbs:
                if verb.report:
                    found.append(prefix + verb.name)
                found += report_verbs(verb.sub, f"{prefix}{verb.name} ")
            return found

        assert sorted(self.REPORT_INVOCATIONS) == sorted(report_verbs(VERBS))

    @pytest.mark.parametrize(
        "argv",
        [argv for invocations in REPORT_INVOCATIONS.values() for argv in invocations],
        ids=[argv[0] for invocations in REPORT_INVOCATIONS.values() for argv in invocations],
    )
    def test_json_flag_emits_json(self, argv, capsys, stub_launcher):
        import json

        if argv[:2] == ["store", "get"]:
            stub_launcher.client.put("obj", b"x" * 100)
        assert main([*argv, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert isinstance(data, dict) and data

    def test_compare_json_rows_carry_schemes(self, capsys):
        import json

        assert main(["compare", "--code", "6,2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {row["scheme"] for row in data["schemes"]} == {
            "traditional",
            "car",
            "rpr",
        }

    def test_timeline_json_intervals_end_at_makespan(self, capsys):
        import json

        assert main(["trace", "--code", "6,2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        latest = max(
            interval["end"] for row in data["resources"] for interval in row["intervals"]
        )
        assert latest == pytest.approx(data["makespan"])


class TestLiveCommand:
    def test_live_validate_passes(self, capsys):
        assert main(
            ["live", "--code", "6,2", "--block-size", "16384", "--validate"]
        ) == 0
        out = capsys.readouterr().out
        assert "measured_s" in out and "ratio" in out
        assert "matches simulator" in out

    def test_live_json_reports_per_scheme_ratio(self, capsys):
        import json

        assert main(
            ["live", "--code", "6,2", "--schemes", "rpr,traditional",
             "--block-size", "16384", "--json", "--validate"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["validated"] is True
        assert all("ratio" in row for row in data["schemes"])

    def test_live_rejects_unknown_scheme(self, capsys):
        assert main(["live", "--schemes", "nope"]) == 2
        assert "unknown schemes" in capsys.readouterr().err
