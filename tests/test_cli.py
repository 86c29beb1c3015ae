"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "gcc"])

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["schedule", "swim", "--machine", "16-cluster"]
            )

    def test_figure_defaults(self):
        args = build_parser().parse_args(["figure5"])
        assert args.clusters == 2
        assert args.latencies == [1, 2, 4]
        assert args.thresholds == [1.0, 0.75, 0.25, 0.0]
        assert args.jobs == 1
        assert args.cache_dir is None

    def test_fig_aliases(self):
        args = build_parser().parse_args(["fig5", "--jobs", "4"])
        assert args.command == "fig5"
        assert args.jobs == 4
        args = build_parser().parse_args(["fig6", "--cache-dir", "d"])
        assert args.command == "fig6"
        assert args.cache_dir == "d"

    @pytest.mark.parametrize(
        "argv", [["run", "fig6-smoke"], ["fig6"], ["export", "fig6-smoke"]]
    )
    def test_no_cache_flag_is_gone(self, argv):
        """Leaving out ``--cache-dir`` is what keeps the stores in
        memory; there is no second switch."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--no-cache"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "unified" in out
        assert "heterogeneous" in out

    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        for name in ("tomcatv", "apsi"):
            assert name in out

    def test_schedule(self, capsys):
        assert main(
            ["schedule", "applu", "--machine", "unified",
             "--scheduler", "baseline", "--max-points", "64"]
        ) == 0
        out = capsys.readouterr().out
        assert "II=" in out
        assert "slot" in out

    def test_simulate(self, capsys):
        assert main(
            ["simulate", "applu", "--machine", "2-cluster",
             "--threshold", "0.5", "--max-points", "64"]
        ) == 0
        out = capsys.readouterr().out
        assert "cycles: total=" in out

    def test_figure6_with_outputs(self, capsys, tmp_path):
        csv_path = tmp_path / "fig.csv"
        json_path = tmp_path / "fig.json"
        assert main(
            [
                "figure6",
                "--clusters", "2",
                "--thresholds", "1.0",
                "--kernels", "applu",
                "--bus-counts", "1",
                "--bus-latencies", "1",
                "--max-points", "64",
                "--csv", str(csv_path),
                "--out", str(json_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert csv_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["title"].startswith("Figure 6")

    def test_figure5_small(self, capsys):
        assert main(
            [
                "figure5",
                "--thresholds", "1.0",
                "--kernels", "applu",
                "--latencies", "1",
                "--max-points", "64",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "Figure 5" in captured.out
        assert "cells:" in captured.err  # progress summary on stderr

    def test_fig5_alias_with_jobs_and_disk_cache(self, capsys, tmp_path):
        argv = [
            "fig5",
            "--jobs", "2",
            "--thresholds", "1.0",
            "--kernels", "applu",
            "--latencies", "1",
            "--max-points", "64",
            "--cache-dir", str(tmp_path),
            "--no-progress",
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Figure 5" in first.out
        assert first.err == ""  # --no-progress silences stderr
        assert list(tmp_path.rglob("*.pkl"))  # disk stores populated
        # A second invocation rides the disk stores and prints the same.
        assert main(argv) == 0
        assert capsys.readouterr().out == first.out

    def test_fig6_without_cache_dir_writes_nothing(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        assert main(
            [
                "fig6",
                "--thresholds", "1.0",
                "--kernels", "applu",
                "--bus-counts", "1",
                "--bus-latencies", "1",
                "--max-points", "64",
                "--no-progress",
            ]
        ) == 0
        assert "Figure 6" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig5", "--jobs", "0"],
            ["simulate", "applu", "--max-points", "0"],
            ["fig5", "--max-points", "-3"],
            ["fig6", "--max-points", "0"],
        ],
    )
    def test_counts_must_be_positive(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"argument {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig6", "--sim", "scalar"],
            ["fig5", "--cme", "sampling"],
            ["run", "streaming", "--exact"],
            ["run", "streaming", "--no-warm-store"],
            ["serve", "--exact"],
        ],
    )
    def test_engine_switches_do_not_exist(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestServiceCommands:
    def test_scenarios_json_matches_listing(self, capsys):
        from repro.harness.scenarios import scenario_listing

        assert main(["scenarios", "--json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == json.loads(json.dumps(scenario_listing()))

    def test_export_csv(self, capsys, tmp_path):
        out_path = tmp_path / "smoke.csv"
        assert main(
            ["export", "fig6-smoke", "--format", "csv",
             "--out", str(out_path), "--no-progress"]
        ) == 0
        assert "records written" in capsys.readouterr().out
        header = out_path.read_text().splitlines()[0]
        assert "total_cycles" in header and "norm_total" in header

    def test_export_npz_round_trips(self, capsys, tmp_path):
        from repro.harness.scenarios import run_scenario
        from repro.service import load_npz, outcome_records

        out_path = tmp_path / "smoke.npz"
        assert main(
            ["export", "fig6-smoke", "--out", str(out_path),
             "--no-progress"]
        ) == 0
        assert load_npz(out_path) == outcome_records(
            run_scenario("fig6-smoke")
        )

    def test_export_unknown_scenario_fails(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            main(["export", "fig7", "--no-progress"])

    def test_serve_disk_backend_needs_directory(
        self, capsys, tmp_path, monkeypatch
    ):
        served = []
        monkeypatch.setattr(
            "repro.cli.run_server", lambda **kwargs: served.append(kwargs)
        )
        assert main(["serve", "--backend", "disk"]) == 2
        assert "--backend-dir" in capsys.readouterr().err
        assert main(["serve", "--backend-dir", str(tmp_path)]) == 2
        assert "--backend disk" in capsys.readouterr().err
        assert served == []

    def test_submit_streams_and_prints_result(self, capsys):
        from repro.service import ServerThread

        with ServerThread() as srv:
            assert main(
                ["submit", "fig6-smoke", "--url", srv.url]
            ) == 0
        captured = capsys.readouterr()
        assert "stage-store hits" in captured.out
        assert json.loads(captured.out.split("\n", 1)[1])["kind"] == "figure"
        assert "done" in captured.err

    def test_submit_unreachable_service_fails(self, capsys):
        assert main(
            ["submit", "fig6-smoke", "--url", "http://127.0.0.1:9",
             "--timeout", "2"]
        ) == 1
        assert "service error" in capsys.readouterr().err

    def test_submit_unknown_scenario_fails(self, capsys):
        from repro.service import ServerThread

        with ServerThread() as srv:
            assert main(["submit", "fig7", "--url", srv.url]) == 1
        assert "unknown scenario" in capsys.readouterr().err
