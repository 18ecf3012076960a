"""Cross-validation harness tests: sim predictions vs live measurements."""

import json
import statistics
from dataclasses import replace

import pytest

from repro.live import DEFAULT_LIVE_BANDWIDTH, audit_store_repairs, run_live_validation
from repro.live.validate import LiveSchemeReport, LiveValidationReport, live_environment


def _repair_record(measured: int, simulated: int) -> dict:
    return {
        "rid": "r0",
        "sid": 0,
        "measured": {"cross_rack_bytes": measured},
        "simulated": {"cross_rack_bytes": simulated},
    }


class TestStoreRepairAudit:
    def test_empty_records_are_trivially_ok(self):
        audit = audit_store_repairs([])
        assert audit.ledger_ok and audit.repairs == 0
        assert audit.measured_cross_rack_bytes == 0

    def test_matching_ledgers_pass(self):
        audit = audit_store_repairs(
            [_repair_record(8192, 8192), _repair_record(4096, 4096)]
        )
        assert audit.ledger_ok
        assert audit.repairs == 2
        assert audit.measured_cross_rack_bytes == 12288
        assert audit.simulated_cross_rack_bytes == 12288
        assert audit.mismatches == ()

    def test_mismatch_is_caught_even_if_coordinator_lied(self):
        """The audit re-derives the verdict from raw byte counts, so a
        record stamped ledger_match=True with disagreeing numbers fails."""
        bad = {**_repair_record(8192, 4096), "ledger_match": True}
        audit = audit_store_repairs([_repair_record(100, 100), bad])
        assert not audit.ledger_ok
        assert audit.mismatches == (bad,)
        assert audit.to_dict()["mismatches"] == [bad]


    def test_any_ledger_field_counts_not_just_cross_rack_bytes(self):
        """Equal cross-rack totals with a different per-node split, intra
        volume or op count is still a mismatch."""
        from repro.cluster import Cluster
        from repro.metrics import TrafficLedger

        cluster = Cluster.homogeneous(2, 2)
        a, b = TrafficLedger(), TrafficLedger()
        a.add_send(cluster, 0, 2, 4096)
        b.add_send(cluster, 1, 2, 4096)  # same rack pair, other uploader
        assert a.cross_rack_bytes == b.cross_rack_bytes

        def record(measured, simulated, combines=(1, 1)):
            return {
                "measured": {**measured.to_dict(), "combines": combines[0]},
                "simulated": {**simulated.to_dict(), "combines": combines[1]},
            }

        # The wire turns a record into JSON and back; the verdict survives.
        wire = lambda rec: json.loads(json.dumps(rec))
        assert audit_store_repairs([wire(record(a, a))]).ledger_ok
        assert not audit_store_repairs([wire(record(a, b))]).ledger_ok
        assert not audit_store_repairs([record(a, a, combines=(1, 2))]).ledger_ok


class TestLiveEnvironment:
    def test_scaled_bandwidth_and_block_size(self):
        env = live_environment(6, 3, block_size=32 * 1024)
        assert env.block_size == 32 * 1024
        assert env.bandwidth is DEFAULT_LIVE_BANDWIDTH


class TestCrossValidation:
    @pytest.mark.parametrize("n,k", [(6, 3), (8, 3)])
    def test_single_failure_all_schemes(self, n, k):
        """The ISSUE acceptance bar, on the wire: bytes identical, ordering
        matches the simulator, ratio computed per scheme.

        Three validations: every one must rebuild the bytes and land on
        the simulator's ledger; the order is judged on each scheme's
        median makespan, as ``benchmarks/e2e`` judges it, because one
        repair lasts a tenth of a second and this kind of host can stall
        for longer than that once in a while.
        """
        reports = [run_live_validation(n, k, [1]) for _ in range(3)]
        for report in reports:
            assert [row.scheme for row in report.rows] == ["traditional", "car", "rpr"]
            assert report.all_bytes_ok
            for row in report.rows:
                assert row.predicted_s > 0
                assert row.measured_s > 0
                assert row.ratio == pytest.approx(row.measured_s / row.predicted_s)
                # Live traffic must hit the simulator's cross-rack ledger exactly.
                assert row.cross_rack_bytes == row.sim_cross_rack_bytes
        report = replace(
            reports[0],
            rows=tuple(
                replace(runs[0], measured_s=statistics.median(row.measured_s for row in runs))
                for runs in zip(*(report.rows for report in reports))
            ),
        )
        assert report.ordering_ok()
        # The validation hands the planner its links, so RPR chains the two
        # remote racks in 8 slices: same two cross-rack blocks as CAR, no
        # longer a tie with it (predicted ~0.6x) and measured strictly faster.
        rows = {row.scheme: row for row in report.rows}
        assert (rows["rpr"].slices, rows["rpr"].gather) == (8, "chain")
        assert (rows["car"].slices, rows["car"].gather) == (1, "tree")
        assert rows["rpr"].cross_rack_bytes == rows["car"].cross_rack_bytes
        assert rows["rpr"].predicted_s < 0.65 * rows["car"].predicted_s
        assert rows["rpr"].measured_s < rows["car"].measured_s

    def test_small_blocks_keep_the_paper_tree(self):
        """4 KiB at 0.8 MB/s is a 5 ms transfer: too short to slice."""
        report = run_live_validation(6, 3, [1], schemes=["rpr"], block_size=4096)
        assert (report.rows[0].slices, report.rows[0].gather) == (1, "tree")
        assert report.all_bytes_ok

    def test_multi_block_drops_car(self):
        report = run_live_validation(6, 3, [0, 2])
        assert {row.scheme for row in report.rows} == {"traditional", "rpr"}
        assert report.all_bytes_ok

    def test_report_round_trips_through_json(self):
        report = run_live_validation(6, 3, [1], schemes=["rpr"])
        dumped = json.loads(json.dumps(report.to_dict()))
        assert dumped["code"] == [6, 3]
        assert dumped["all_bytes_ok"] is True
        assert dumped["schemes"][0]["scheme"] == "rpr"
        assert "ratio" in dumped["schemes"][0]
        assert dumped["schemes"][0]["slices"] == 8
        assert dumped["schemes"][0]["gather"] == "chain"

    def test_ordering_check_logic(self):
        report = run_live_validation(6, 3, [1], schemes=["traditional", "rpr"])
        # Predictions put rpr well below traditional; measurements agree.
        ranked = sorted(report.rows, key=lambda r: r.predicted_s)
        assert ranked[0].scheme == "rpr"
        assert ranked[0].measured_s < ranked[1].measured_s

    def test_a_predicted_tie_has_no_order_to_contradict(self):
        """Only pairs the simulator separates by more than the tolerance
        are held to their order (RPR vs CAR at whole blocks: 0.1 % apart)."""

        def report(*rows):
            return LiveValidationReport(
                n=6, k=3, failed=(1,), block_size=1, transport="memory",
                rows=tuple(
                    LiveSchemeReport(
                        scheme=name, predicted_s=predicted, measured_s=measured,
                        bytes_ok=True, ops=0, sends=0, combines=0,
                        cross_rack_bytes=0, sim_cross_rack_bytes=0,
                    )
                    for name, predicted, measured in rows
                ),
            )

        tie = report(("rpr", 0.1804, 0.190), ("car", 0.1806, 0.186), ("traditional", 0.344, 0.35))
        assert tie.ordering_ok()
        inverted = report(("rpr", 0.109, 0.190), ("car", 0.1806, 0.186))
        assert not inverted.ordering_ok()
        # not just neighbours in predicted order: every separated pair
        skipping = report(("a", 0.100, 0.30), ("b", 0.104, 0.10), ("c", 0.108, 0.29))
        assert not skipping.ordering_ok()
