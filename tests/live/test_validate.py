"""Cross-validation harness tests: sim predictions vs live measurements."""

import json

import pytest

from repro.live import DEFAULT_LIVE_BANDWIDTH, audit_store_repairs, run_live_validation
from repro.live.validate import live_environment


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
        matches the simulator, ratio computed per scheme."""
        report = run_live_validation(n, k, [1])
        assert {row.scheme for row in report.rows} == {
            "traditional",
            "car",
            "rpr",
        }
        assert report.all_bytes_ok
        assert report.ordering_ok()
        for row in report.rows:
            assert row.predicted_s > 0
            assert row.measured_s > 0
            assert row.ratio == pytest.approx(
                row.measured_s / row.predicted_s
            )
            # Live traffic must hit the simulator's cross-rack ledger exactly.
            assert row.cross_rack_bytes == row.sim_cross_rack_bytes

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

    def test_ordering_check_logic(self):
        report = run_live_validation(6, 3, [1], schemes=["traditional", "rpr"])
        # Predictions put rpr well below traditional; measurements agree.
        ranked = sorted(report.rows, key=lambda r: r.predicted_s)
        assert ranked[0].scheme == "rpr"
        assert ranked[0].measured_s < ranked[1].measured_s
