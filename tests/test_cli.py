"""CLI: every command parses and the cheap ones run end-to-end."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("pretrain", "finetune", "multitask", "explore", "scaling", "datasets"):
            args = parser.parse_args([cmd] if cmd in ("datasets",) else [cmd])
            assert args.command == cmd

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_encoder_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pretrain", "--encoder", "transformer"])

    def test_defaults(self):
        args = build_parser().parse_args(["finetune"])
        assert args.target == "band_gap"
        assert args.world_size == 16
        assert not args.pretrained

    def test_serve_resilience_flags(self):
        args = build_parser().parse_args([
            "serve", "--registry", "/tmp/reg", "--replicas", "3",
            "--chaos-profile", "replica_crash:1,replica_slow:1",
            "--chaos-seed", "7", "--hedge-ms", "2.5",
        ])
        assert args.replicas == 3
        assert args.chaos_profile == "replica_crash:1,replica_slow:1"
        assert args.chaos_seed == 7
        assert args.hedge_ms == 2.5

    def test_serve_resilience_defaults_to_single_replica(self):
        args = build_parser().parse_args(["serve", "--registry", "/tmp/reg"])
        assert args.replicas == 1
        assert args.chaos_profile is None
        assert args.hedge_ms == 5.0

    def test_registry_verify_parses(self):
        args = build_parser().parse_args(
            ["registry", "verify", "--registry", "/tmp/reg"]
        )
        assert args.command == "registry"
        assert args.registry_command == "verify"
        assert args.registry == "/tmp/reg"

    def test_registry_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["registry"])


class TestExecution:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("symmetry", "materials_project", "carolina", "oc20", "oc22", "lips"):
            assert name in out

    def test_scaling_command(self, capsys):
        assert main(["scaling", "--workers", "16", "64"]) == 0
        out = capsys.readouterr().out
        assert "workers" in out
        assert "64" in out

    def test_pretrain_tiny(self, capsys):
        code = main(
            [
                "pretrain",
                "--samples", "24",
                "--epochs", "1",
                "--world-size", "2",
                "--hidden-dim", "8",
                "--layers", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "val CE" in out
        assert "throughput" in out

    def test_finetune_tiny_scratch(self, capsys):
        code = main(
            [
                "finetune",
                "--samples", "24",
                "--epochs", "1",
                "--world-size", "2",
                "--hidden-dim", "8",
                "--layers", "1",
            ]
        )
        assert code == 0
        assert "final" in capsys.readouterr().out

    def test_multitask_tiny_scratch(self, capsys):
        code = main(
            [
                "multitask",
                "--samples", "20",
                "--epochs", "1",
                "--world-size", "2",
                "--hidden-dim", "8",
                "--layers", "1",
            ]
        )
        assert code == 0
        assert "band_gap_mae" in capsys.readouterr().out


class TestBadInput:
    """A config no run can use fails at the boundary: one stderr line, exit 2."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--world-size", "0"], "world_size must be >= 1"),
            (["--batch-per-worker", "0"], "batch_per_worker must be >= 1"),
            (["--lr", "nan"], "learning rate must be finite and > 0"),
        ],
    )
    def test_pretrain_rejects_unusable_config(self, capsys, flags, message):
        assert main(["pretrain", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: error: ")
        assert message in lines[0]

    @pytest.mark.parametrize("flags", [["--world-size", "0"], ["--lr=-1e-3"], ["--lr", "inf"]])
    def test_finetune_rejects_unusable_config(self, capsys, flags):
        assert main(["finetune", *flags]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("repro: error: ")

    def test_config_rejects_zero_batch(self):
        from repro.core import FinetuneConfig
        from repro.core.config import ConfigError

        with pytest.raises(ConfigError, match="batch_size must be >= 1"):
            FinetuneConfig(batch_size=0)
