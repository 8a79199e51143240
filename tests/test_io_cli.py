"""Tests for repro.io (persistence) and repro.cli."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.schedule import Schedule
from repro.flows.flow import Flow, FlowSet
from repro.io import (
    load_flow_set,
    load_schedule,
    load_topology,
    save_flow_set,
    save_schedule,
    save_topology,
)

from test_core_schedule import request


class TestTopologyRoundtrip:
    def test_roundtrip(self, line_topology, tmp_path):
        path = tmp_path / "topo.npz"
        save_topology(line_topology, path)
        loaded = load_topology(path)
        assert np.array_equal(loaded.prr, line_topology.prr)
        assert list(loaded.channel_map) == list(line_topology.channel_map)
        assert loaded.num_nodes == line_topology.num_nodes
        assert loaded.name == line_topology.name

    def test_roles_and_positions_preserved(self, line_topology, tmp_path):
        topo = line_topology.with_access_points([2])
        path = tmp_path / "topo.npz"
        save_topology(topo, path)
        loaded = load_topology(path)
        assert loaded.access_points() == [2]
        assert loaded.node(3).position.x == 3.0

    def test_real_testbed_roundtrip(self, wustl, tmp_path):
        topology, _ = wustl
        path = tmp_path / "wustl.npz"
        save_topology(topology, path)
        loaded = load_topology(path)
        assert np.array_equal(loaded.prr, topology.prr)


class TestFlowSetRoundtrip:
    def test_roundtrip(self, tmp_path):
        flows = FlowSet([
            Flow(0, 1, 5, 100, 80, (1, 3, 5)),
            Flow(1, 2, 4, 200, 200),
        ])
        path = tmp_path / "flows.json"
        save_flow_set(flows, path)
        loaded = load_flow_set(path)
        assert len(loaded) == 2
        assert loaded[0].route == (1, 3, 5)
        assert loaded[1].period_slots == 200
        assert [f.flow_id for f in loaded] == [0, 1]

    def test_wire_after_preserved(self, tmp_path):
        flows = FlowSet([Flow(0, 1, 5, 100, 100, (1, 2, 4, 5),
                              wire_after=1)])
        path = tmp_path / "flows.json"
        save_flow_set(flows, path)
        loaded = load_flow_set(path)
        assert loaded[0].wire_after == 1
        assert loaded[0].links == ((1, 2), (4, 5))

    def test_json_is_human_readable(self, tmp_path):
        flows = FlowSet([Flow(0, 1, 5, 100, 100)])
        path = tmp_path / "flows.json"
        save_flow_set(flows, path)
        payload = json.loads(path.read_text())
        assert payload["flows"][0]["source"] == 1


class TestScheduleRoundtrip:
    def test_roundtrip(self, tmp_path):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(2, 3), 0, 1)
        schedule.add(request(4, 5), 3, 0)
        path = tmp_path / "schedule.json"
        save_schedule(schedule, path)
        loaded = load_schedule(path)
        assert len(loaded) == 3
        assert loaded.cell_size(0, 1) == 1
        assert loaded.node_busy(4, 3)
        loaded.validate_basic()

    def test_load_rechecks_invariants(self, tmp_path):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        path = tmp_path / "schedule.json"
        save_schedule(schedule, path)
        payload = json.loads(path.read_text())
        payload["entries"].append(dict(payload["entries"][0],
                                       receiver=2, offset=1))
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_schedule(path)  # node 0 double-booked in slot 0

    def test_non_strict_load_reproduces_node_conflict(self, tmp_path):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule.force_add(request(1, 2, flow_id=1), 0, 1)
        path = tmp_path / "schedule.json"
        save_schedule(schedule, path)
        loaded = load_schedule(path, strict=False)
        assert len(loaded) == 2
        with pytest.raises(AssertionError):
            loaded.validate_basic()  # the conflict survived the round trip

    def test_state_blob_round_trips_corrupt_bookkeeping(self, tmp_path):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(4, 5, flow_id=1), 0, 0)
        schedule._occ_senders[0, 0, 0] = 3  # corrupt the lane
        path = tmp_path / "schedule.json"
        save_schedule(schedule, path, include_state=True)
        loaded = load_schedule(path, strict=False)
        assert int(loaded._occ_senders[0, 0, 0]) == 3
        # A strict load of the same dump ignores the blob and rebuilds
        # consistent bookkeeping from the entries.
        strict = load_schedule(path)
        assert int(strict._occ_senders[0, 0, 0]) == 0
        strict.validate_basic()


class TestCli:
    def test_topology_command(self, capsys):
        assert main(["topology", "--testbed", "wustl",
                     "--channels", "4"]) == 0
        out = capsys.readouterr().out
        assert "nodes: 60" in out
        assert "reuse graph" in out

    def test_topology_save(self, tmp_path, capsys):
        path = tmp_path / "t.npz"
        assert main(["topology", "--testbed", "wustl", "--channels", "4",
                     "--save", str(path)]) == 0
        assert path.exists()
        loaded = load_topology(path)
        assert loaded.num_channels == 4

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--testbed", "wustl", "--values", "4",
                     "--flows", "20", "--flow-sets", "2"]) == 0
        out = capsys.readouterr().out
        assert "NR:" in out and "RC:" in out

    def test_reliability_command(self, capsys):
        assert main(["reliability", "--flow-sets", "1",
                     "--repetitions", "5"]) == 0
        out = capsys.readouterr().out
        assert "median" in out

    def test_detection_command(self, capsys):
        assert main(["detection", "--flows", "40", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "RA/clean" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_testbed_rejected(self):
        with pytest.raises(SystemExit):
            main(["topology", "--testbed", "mars"])

    def test_seed_round_trip_is_reproducible(self, capsys):
        args = ["sweep", "--testbed", "wustl", "--values", "4",
                "--flows", "15", "--flow-sets", "2", "--seed", "123"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_testbed(self, capsys):
        base = ["topology", "--testbed", "wustl", "--channels", "4"]
        assert main(base + ["--seed", "1"]) == 0
        seeded = capsys.readouterr().out
        assert main(base + ["--seed", "2"]) == 0
        reseeded = capsys.readouterr().out
        assert seeded != reseeded


class TestCliObservability:
    def test_sweep_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro import obs
        from repro.io import load_jsonl, load_metrics

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(["sweep", "--testbed", "wustl", "--values", "4",
                     "--flows", "15", "--flow-sets", "1", "--seed", "7",
                     "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        assert not obs.is_enabled()  # CLI restores the disabled default

        events = load_jsonl(trace)
        kinds = {event["kind"] for event in events}
        assert "placement" in kinds

        snapshot = load_metrics(metrics)
        counters = snapshot["counters"]
        assert counters["scheduler.placements"] > 0
        for policy in ("NR", "RA", "RC"):
            assert counters[f"policy.{policy}.runs"] == 1
        stages = snapshot["histograms"]
        for policy in ("nr", "ra", "rc"):
            assert stages[f"span.schedule.{policy}.seconds"]["count"] == 1
        assert stages["span.prepare_network.seconds"]["count"] >= 1

    def test_report_command(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.jsonl"
        assert main(["sweep", "--testbed", "wustl", "--values", "4",
                     "--flows", "15", "--flow-sets", "1", "--seed", "7",
                     "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["report", str(metrics), "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "scheduler:" in out
        assert "policies:" in out
        assert "stages:" in out
        assert "schedule.rc" in out
        assert "trace events by kind:" in out

    def test_report_missing_metrics_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["report", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error_lines = captured.err.strip().splitlines()
        assert len(error_lines) == 1
        assert error_lines[0].startswith(
            f"error: cannot read metrics from {missing}")

    def test_report_corrupt_metrics_fails_cleanly(self, tmp_path, capsys):
        corrupt = tmp_path / "metrics.json"
        corrupt.write_text("{this is not json")
        assert main(["report", str(corrupt)]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1
        assert "error: cannot read metrics" in captured.err


class TestCliValidate:
    """repro validate must catch every corrupt-schedule fixture end to
    end: dump -> (non-sanitizing) load -> audit -> exit code 1."""

    @pytest.fixture()
    def line_artifacts(self, line_topology, tmp_path):
        topo_path = tmp_path / "topo.npz"
        save_topology(line_topology, topo_path)
        return line_topology, topo_path, tmp_path

    def run_validate(self, topo_path, sched_path, capsys, extra=()):
        code = main(["validate", "--schedule", str(sched_path),
                     "--topology", str(topo_path), *extra])
        return code, capsys.readouterr().out

    def save(self, schedule, tmp_path, include_state=False):
        path = tmp_path / "sched.json"
        save_schedule(schedule, path, include_state=include_state)
        return path

    def test_clean_schedule_passes(self, line_artifacts, capsys):
        _, topo_path, tmp_path = line_artifacts
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(4, 5, flow_id=1), 0, 0)  # effective rho 3
        report_path = tmp_path / "audit.json"
        code, out = self.run_validate(
            topo_path, self.save(schedule, tmp_path), capsys,
            extra=["--report-out", str(report_path)])
        assert code == 0
        assert "audit OK" in out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["cell_rho"] == {"0,0": 3}

    def test_catches_node_conflict(self, line_artifacts, capsys):
        _, topo_path, tmp_path = line_artifacts
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule.force_add(request(1, 2, flow_id=1), 0, 1)
        code, out = self.run_validate(
            topo_path, self.save(schedule, tmp_path), capsys)
        assert code == 1
        assert "[node_conflict]" in out

    def test_catches_rho_floor_violation(self, line_artifacts, capsys):
        _, topo_path, tmp_path = line_artifacts
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(2, 3, flow_id=1), 0, 0)  # effective rho 1
        code, out = self.run_validate(
            topo_path, self.save(schedule, tmp_path), capsys,
            extra=["--rho-t", "2"])
        assert code == 1
        assert "[rho_floor]" in out
        assert "effective rho 1 below floor 2" in out

    def test_catches_out_of_deadline_placement(self, line_artifacts,
                                               capsys):
        _, topo_path, tmp_path = line_artifacts
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1, release=0, deadline=5), 7, 0)
        code, out = self.run_validate(
            topo_path, self.save(schedule, tmp_path), capsys)
        assert code == 1
        assert "[window]" in out
        assert "after deadline 5" in out

    def test_catches_occupancy_lane_mismatch(self, line_artifacts, capsys):
        _, topo_path, tmp_path = line_artifacts
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(4, 5, flow_id=1), 0, 0)
        schedule._occ_senders[0, 0, 0] = 3
        code, out = self.run_validate(
            topo_path, self.save(schedule, tmp_path, include_state=True),
            capsys)
        assert code == 1
        assert "[occupancy]" in out
        assert "lane 0" in out

    def test_nr_policy_flags_any_reuse(self, line_artifacts, capsys):
        _, topo_path, tmp_path = line_artifacts
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(4, 5, flow_id=1), 0, 0)
        code, out = self.run_validate(
            topo_path, self.save(schedule, tmp_path), capsys,
            extra=["--policy", "NR"])
        assert code == 1  # NR audits with an infinite floor
        assert "[rho_floor]" in out

    def test_missing_artifact_is_operator_error(self, line_artifacts,
                                                capsys):
        _, topo_path, tmp_path = line_artifacts
        code = main(["validate", "--schedule", str(tmp_path / "nope.json"),
                     "--topology", str(topo_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: cannot load artifacts")

    def test_size_mismatch_is_operator_error(self, line_artifacts, capsys):
        _, topo_path, tmp_path = line_artifacts
        schedule = Schedule(9, 20, 2)  # 9 nodes vs the 6-node topology
        schedule.add(request(7, 8), 0, 0)
        code = main(["validate", "--schedule",
                     str(self.save(schedule, tmp_path)),
                     "--topology", str(topo_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "does not match" in captured.err


class TestCliFuzz:
    def test_smoke_run_exits_zero(self, capsys):
        assert main(["fuzz", "--cases", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "fuzz OK: 2 cases" in out

    def test_nonpositive_cases_is_operator_error(self, capsys):
        assert main(["fuzz", "--cases", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_failure_writes_artifacts(self, tmp_path, capsys, monkeypatch):
        from repro.validate import FuzzCaseResult, FuzzReport

        def fake_run_fuzz(cases, seed=0, on_case=None):
            report = FuzzReport(seed=seed, num_cases=cases)
            case = FuzzCaseResult(index=0, seed=seed)
            case.fail("kernel_equivalence", "scalar and vector disagree")
            report.cases.append(case)
            if on_case is not None:
                on_case(case)
            return report

        monkeypatch.setattr("repro.validate.run_fuzz", fake_run_fuzz)
        artifacts = tmp_path / "artifacts"
        code = main(["fuzz", "--cases", "1", "--seed", "9",
                     "--artifacts", str(artifacts)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL case 0 (kernel_equivalence)" in out
        case_payload = json.loads(
            (artifacts / "case_0000.json").read_text())
        assert case_payload["reproduce"] == "repro fuzz --cases 1 --seed 9"
        report_payload = json.loads((artifacts / "report.json").read_text())
        assert report_payload["ok"] is False
        assert report_payload["num_failed"] == 1


class TestCliManager:
    def test_manage_quick_writes_report_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "manager.json"
        assert main(["manage", "--quick", "--epochs", "3", "--policy",
                     "noop", "--seed", "1",
                     "--report-out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "policy NoOp / scenario 'reuse-storm'" in out
        payload = json.loads(out_path.read_text())
        assert payload["policy"] == "NoOp"
        assert payload["seed"] == 1
        assert len(payload["epochs"]) == 3

    def test_manage_multi_seed_writes_report_list(self, tmp_path, capsys):
        out_path = tmp_path / "managers.json"
        assert main(["manage", "--quick", "--epochs", "2", "--policy",
                     "noop", "--scenario", "quiet", "--seeds", "1", "2",
                     "--report-out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert [report["seed"] for report in payload] == [1, 2]

    def test_adapt_quick_prints_comparison(self, capsys):
        assert main(["adapt", "--quick", "--epochs", "3", "--policies",
                     "noop", "reschedule", "--scenario", "quiet",
                     "--seed", "1", "--metric", "median"]) == 0
        out = capsys.readouterr().out
        assert "median PDR per epoch" in out
        assert "NoOp" in out and "RescheduleVictims" in out
        assert "trend (one char/epoch" in out

    def test_manage_unknown_scenario_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["manage", "--scenario", "definitely-not-a-preset",
                  "--epochs", "2", "--quick"])


class TestCliObservatory:
    """manage --timeseries -> repro top / repro metrics round trip."""

    @pytest.fixture()
    def managed_artifacts(self, tmp_path, capsys):
        ts_path = tmp_path / "ts.jsonl"
        snap_path = tmp_path / "metrics.json"
        assert main(["manage", "--quick", "--epochs", "4", "--flows", "10",
                     "--policy", "reschedule", "--seed", "3",
                     "--timeseries", str(ts_path),
                     "--metrics-out", str(snap_path),
                     "--no-ledger"]) == 0
        return ts_path, snap_path, capsys.readouterr().out

    def test_manage_writes_timeseries_dump(self, managed_artifacts):
        ts_path, _, out = managed_artifacts
        assert "timeseries:" in out and str(ts_path) in out
        lines = [json.loads(l) for l in
                 ts_path.read_text().splitlines() if l]
        kinds = {record["kind"] for record in lines}
        assert kinds == {"series", "ts_meta"}
        names = {r["name"] for r in lines if r["kind"] == "series"}
        assert "manager.median_pdr" in names
        assert any(n.startswith("slo.flow.") for n in names)

    def test_top_once_renders_without_consuming_input(
            self, managed_artifacts, capsys):
        ts_path, snap_path, _ = managed_artifacts
        before = ts_path.read_text()
        assert main(["top", str(ts_path), "--metrics", str(snap_path),
                     "--once", "--ascii"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "median PDR" in out
        assert "flow SLOs" in out
        assert "manager epochs" in out
        # Regression: top's input positional must never be treated as a
        # recording *output* path and overwritten.
        assert ts_path.read_text() == before

    def test_openmetrics_export_and_check_round_trip(
            self, managed_artifacts, tmp_path, capsys):
        ts_path, snap_path, _ = managed_artifacts
        exp_path = tmp_path / "exposition.txt"
        assert main(["metrics", "export", "--metrics", str(snap_path),
                     "--timeseries", str(ts_path), "--openmetrics",
                     "--out", str(exp_path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "exposition validated (strict parse)" in out
        text = exp_path.read_text()
        assert text.endswith("# EOF\n")
        assert "repro_slo_pdr{" in text
        assert "repro_channel_prr{" in text
        assert main(["metrics", "check", str(exp_path)]) == 0
        assert capsys.readouterr().out.startswith("ok: ")

    def test_metrics_check_rejects_malformed_exposition(self, tmp_path,
                                                        capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("repro_x 1\n# EOF\n")
        assert main(["metrics", "check", str(bad)]) == 1
        assert "invalid exposition" in capsys.readouterr().err
        assert main(["metrics", "check", str(tmp_path / "missing.txt")]) \
            == 2

    def test_metrics_export_requires_an_input(self, capsys):
        assert main(["metrics", "export", "--openmetrics"]) == 2
        assert "--metrics and/or --timeseries" in capsys.readouterr().err

    def test_top_missing_dump_errors(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope.jsonl"), "--once"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestCliLedgerCorruption:
    def test_ledger_list_warns_about_corrupt_lines(self, tmp_path,
                                                   capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ledger_path = tmp_path / "runs.jsonl"
        assert main(["manage", "--quick", "--epochs", "2", "--policy",
                     "noop", "--scenario", "quiet", "--seed", "1",
                     "--ledger", str(ledger_path)]) == 0
        capsys.readouterr()
        with open(ledger_path, "a", encoding="utf-8") as handle:
            handle.write('{"half a record...\n')
        assert main(["ledger", "list", "--ledger", str(ledger_path)]) == 0
        captured = capsys.readouterr()
        assert "warning: skipped 1 unparseable line(s)" in captured.err
        assert "manage" in captured.out  # the good record still lists
