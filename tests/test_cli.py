"""Unit tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, SCALES, build_parser, main


class TestParser:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        for name in FIGURES:
            assert name in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bench_requires_target(self, capsys):
        assert main(["bench"]) == 2

    def test_bench_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--figure", "fig99"])

    def test_scales_defined(self):
        assert set(SCALES) == {"small", "medium", "large"}


class TestExecutionFlagHelp:
    """Only the canonical ExecutionConfig spellings exist: --help lists
    them, and the removed pre-rename aliases are argparse errors."""

    @pytest.fixture(scope="class")
    def demo_help(self):
        import contextlib
        import io

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            with pytest.raises(SystemExit):
                main(["demo", "--help"])
        return buffer.getvalue()

    def test_canonical_flags_are_documented(self, demo_help):
        for flag in (
            "--deadline-ms",
            "--check",
            "--degrade",
        ):
            assert flag in demo_help
        assert "--cache" not in demo_help
        assert "--workers" not in demo_help
        assert "--fragments" not in demo_help
        assert "--substrate" not in demo_help

    def test_alias_spellings_are_hidden(self, capsys):
        for argv in (
            ["--jobs", "4"],
            ["--workers", "2"],
            ["--caching", "on"],
            ["--cache", "on"],
            ["--deadline", "1500"],
            ["--backend", "memory"],
            ["--fragments", "on"],
            ["--substrate", "int"],
        ):
            for command in ("demo", "bench"):
                with pytest.raises(SystemExit) as excinfo:
                    build_parser().parse_args([command, *argv])
                assert excinfo.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err

    def test_canonical_defaults_survive_alias_registration(self):
        args = build_parser().parse_args(["demo"])
        assert args.check == "off"
        assert args.deadline_ms is None


class TestServeCommands:
    def test_serve_registered_with_defaults(self):
        args = build_parser().parse_args(["serve", "--smoke"])
        assert args.func.__name__ == "cmd_serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8373
        assert args.smoke is True

    def test_serve_bench_registered_with_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.func.__name__ == "cmd_serve_bench"
        assert args.duration == 5.0
        assert args.clients == 8
        assert args.out == "BENCH_serve.json"


class TestDatasetCommand:
    def test_writes_database(self, tmp_path, capsys):
        out = tmp_path / "db.json"
        code = main(
            [
                "dataset",
                "--profile",
                "emol",
                "--count",
                "12",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        from repro.graph.io import read_database

        database = read_database(out)
        assert len(database) == 12


class TestBenchCommand:
    def test_runs_cheap_ablation(self, capsys):
        code = main(["bench", "--figure", "abl3", "--scale", "small"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ablation 3" in out
        assert "completed in" in out
