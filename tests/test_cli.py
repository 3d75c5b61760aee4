"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import cpcompress
import cpcompress.cli

from cpcompress import verify
from cpcompress.cli import EXIT_ARGS, EXIT_DIVERGED, EXIT_FILE, EXIT_OK, EXIT_VERIFY, main
from cpcompress.network import NetworkSpec, load
from cpcompress.presets import toy_cnn
from cpcompress.network import save


FAST_TRAIN = [
    "--baseline-epochs", "2",
    "--epochs-per-stage", "1",
    "--rank-fraction", "0.5",
]


@pytest.fixture
def toy_model_path(tmp_path):
    path = tmp_path / "toy.cpnet"
    save(toy_cnn(seed=0), path)
    return path


class TestDecompose:
    def test_alexnet_preset_report(self, capsys):
        code = main(["decompose", "--arch", "alexnet", "--analytic-only"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "compressed_weights\t8898392" in out
        assert "weight_ratio\t6.8501" in out
        assert "mult_ratio\t3.4236" in out

    def test_alexnet_instrumented(self, capsys):
        code = main(["decompose", "--arch", "alexnet"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "instrumented_mult_ratio\t3.4236" in out

    def test_missing_model_file(self, capsys):
        code = main(["decompose", "--model-in", "/nope/missing.cpnet",
                     "--rank-budget", "conv=8,fc=8"])
        err = capsys.readouterr().err
        assert code == EXIT_FILE
        assert "/nope/missing.cpnet" in err

    @pytest.mark.parametrize("layer", ["conv1", "fc1"])
    def test_non_finite_model_is_a_file_error(self, tmp_path, capsys, layer):
        # A checksum-valid file with a NaN in conv1 once exited 2 blaming the
        # conv1 rank, or 0 with a report for a NaN network when fc1 was named.
        net = toy_cnn(seed=0)
        conv1 = net.layer("conv1")
        weights = conv1.weights.copy()
        weights[0, 0, 0, 0] = float("nan")
        nan_conv1 = conv1.with_params({**conv1.params(), "weights": weights})
        layers = tuple(nan_conv1 if layer is conv1 else layer for layer in net.layers)
        model = tmp_path / "nan.cpnet"
        save(NetworkSpec(net.input_shape, layers), model)
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text(f"{layer}\t4\n")
        code = main(["decompose", "--model-in", str(model), "--ranks-file", str(ranks)])
        captured = capsys.readouterr()
        assert code == EXIT_FILE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "non-finite" in captured.err

    def test_huge_weights_decompose_to_a_loadable_model(self, tmp_path, capsys):
        # Weights near 1e200 once overflowed in the power method's norms and
        # were saved as non-finite factors that load refused.
        net = toy_cnn(seed=0)
        conv2 = net.layer("conv2")
        huge = conv2.with_params({**conv2.params(), "weights": conv2.weights * 1e200})
        model = tmp_path / "huge.cpnet"
        save(NetworkSpec(net.input_shape, tuple(
            huge if layer is conv2 else layer for layer in net.layers
        )), model)
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text("conv2\t6\n")
        out_path = tmp_path / "compressed.cpnet"
        code = main(["decompose", "--model-in", str(model), "--ranks-file", str(ranks),
                     "--model-out", str(out_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        (factors,) = load(out_path).layer("conv2").factors
        assert np.all(np.isfinite(factors.u3)) and np.abs(factors.u3).max() > 1e199

    def test_empty_ranks_leaves_ratios_at_one(self, toy_model_path, tmp_path, capsys):
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text("layer\trank\n")
        code = main([
            "decompose", "--model-in", str(toy_model_path),
            "--ranks-file", str(ranks), "--analytic-only",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        for line in out.splitlines():
            if line.startswith(("conv", "fc", "TOTAL")):
                fields = line.split("\t")
                assert fields[4] == "1.0000"
                assert fields[7] == "1.0000"
        assert "weight_ratio\t1.0000" in out

    def test_decompose_writes_loadable_model(self, toy_model_path, tmp_path, capsys):
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text("layer\trank\nconv2\t6\nfc1\t8\n")
        out_path = tmp_path / "compressed.cpnet"
        code = main([
            "decompose", "--model-in", str(toy_model_path),
            "--ranks-file", str(ranks), "--model-out", str(out_path),
            "--analytic-only",
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        net = load(out_path)
        kinds = {l.name: type(l).__name__ for l in net.layers}
        assert kinds["conv2"] == "DecomposedConv"
        assert kinds["fc1"] == "DecomposedFc"
        assert kinds["conv1"] == "Conv"

    def test_invalid_rank_exit_code(self, toy_model_path, tmp_path, capsys):
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text("layer\trank\nfc2\t99\n")  # above min(10, 48)
        code = main([
            "decompose", "--model-in", str(toy_model_path),
            "--ranks-file", str(ranks), "--analytic-only",
        ])
        capsys.readouterr()
        assert code == EXIT_ARGS

    def test_rank_above_bound_refused_before_any_decomposition(
        self, toy_model_path, tmp_path, capsys, monkeypatch
    ):
        def no_decomposition(*args, **kwargs):
            raise AssertionError("decomposition started")

        monkeypatch.setattr(cpcompress.cli, "decompose_layer", no_decomposition)
        ranks = tmp_path / "ranks.tsv"
        # conv1's bound is its 8*3*3*3 = 216 weights: ceil(rank / 1) <= S*D^2*T.
        for text, words in (("conv1\t4\nfc2\t99\n", "layer 'fc2': rank must be in [1, 10]"),
                            ("conv1\t217\n", "layer 'conv1': rank must be in [1, 216]")):
            ranks.write_text(text)
            code = main([
                "decompose", "--model-in", str(toy_model_path),
                "--ranks-file", str(ranks), "--analytic-only",
            ])
            assert code == EXIT_ARGS
            assert words in _one_line_error(capsys)

    def test_preset_rank_above_bound_is_an_argument_error(self, tmp_path, capsys):
        # fc8 is 1000 x 4096; a rank of 5000 once exited 0 with a report.
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text("fc8\t1001\n")
        code = main(["decompose", "--arch", "alexnet", "--ranks-file", str(ranks),
                     "--analytic-only"])
        assert code == EXIT_ARGS
        assert "layer 'fc8': rank must be in [1, 1000], got 1001" in _one_line_error(capsys)

    def test_zero_rank_for_preset_is_an_argument_error(self, tmp_path, capsys):
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text("conv3\t0\n")
        code = main(["decompose", "--arch", "alexnet", "--ranks-file", str(ranks)])
        assert code == EXIT_ARGS
        assert _one_line_error(capsys).startswith("error: invalid ranks")

    def test_unknown_layer_in_ranks_file(self, toy_model_path, tmp_path, capsys):
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text("layer\trank\nmystery\t4\n")
        code = main([
            "decompose", "--model-in", str(toy_model_path),
            "--ranks-file", str(ranks), "--analytic-only",
        ])
        assert code == EXIT_ARGS
        assert "unknown layers: ['mystery']" in _one_line_error(capsys)

    def test_layer_named_twice_in_ranks_file(self, toy_model_path, tmp_path, capsys):
        # The last line used to win silently.
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text("conv1\t2\nconv2\t4\nconv1\t3\n")
        code = main([
            "decompose", "--model-in", str(toy_model_path),
            "--ranks-file", str(ranks), "--analytic-only",
        ])
        assert code == EXIT_ARGS
        line = _one_line_error(capsys)
        assert line.startswith("error: bad ranks file") and "'conv1'" in line

    def test_rank_budget_uniform_split(self, toy_model_path, tmp_path, capsys):
        # allocate_ranks at zero loss: an even split, earlier layers first.
        out_path = tmp_path / "split.cpnet"
        code = main([
            "decompose", "--model-in", str(toy_model_path),
            "--rank-budget", "conv=8,fc=9", "--analytic-only", "--model-out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        rows = {ln.split("\t")[0]: ln.split("\t") for ln in out.splitlines() if "\t" in ln}
        assert rows["conv1"][1] == "decomposed_conv"
        assert rows["fc1"][1] == "decomposed_fc"
        net = load(out_path)
        assert [net.layer(n).ranks for n in ("conv1", "conv2")] == [(4,), (4,)]
        assert [net.layer(n).rank for n in ("fc1", "fc2")] == [5, 4]

    @pytest.mark.parametrize("budget, words", [
        ("conv=8", "no budget given for group 'fc'"),
        ("fc=9", "no budget given for group 'conv'"),
        ("conv=1,fc=9", "budget 1 for group 'conv' is below its 2 layers"),
        ("conv=8,fc=0", "budget 0 for group 'fc' is below its 2 layers"),
        ("conv=8,fc", "bad budget component"),
        ("conv=99999999999999999999999,fc=5", "outside [0, 2**53]"),
        ("conv=4,conv=6,fc=5", "group 'conv' is given twice"),
    ])
    def test_refused_rank_budget(self, toy_model_path, capsys, budget, words):
        code = main([
            "decompose", "--model-in", str(toy_model_path), "--rank-budget", budget,
            "--analytic-only",
        ])
        assert code == EXIT_ARGS
        assert words in _one_line_error(capsys)

    @pytest.mark.parametrize("flag, value", [
        ("--model-in", "/nope/missing.cpnet"), ("--rank-budget", "conv=1"),
    ])
    def test_alexnet_preset_refuses_model_flags(self, capsys, flag, value):
        # Both were once dropped in silence, with the preset's report and exit 0.
        code = main(["decompose", "--arch", "alexnet", flag, value, "--analytic-only"])
        assert code == EXIT_ARGS
        assert f"--arch alexnet cannot be combined with {flag}" in _one_line_error(capsys)

    @pytest.mark.parametrize("where, words", [
        ("missing", "no such directory"), ("directory", "it is a directory"),
    ])
    def test_unwritable_model_out_refused_before_any_decomposition(
        self, toy_model_path, tmp_path, capsys, monkeypatch, where, words
    ):
        def no_decomposition(*args, **kwargs):
            raise AssertionError("decomposition started")

        monkeypatch.setattr(cpcompress.cli, "decompose_layer", no_decomposition)
        out_path = tmp_path / "missing" / "c.cpnet" if where == "missing" else tmp_path
        code = main([
            "decompose", "--model-in", str(toy_model_path), "--rank-budget", "conv=10,fc=10",
            "--model-out", str(out_path),
        ])
        assert code == EXIT_FILE
        assert words in _one_line_error(capsys)

    def test_failed_write_is_a_file_error(self, toy_model_path, tmp_path, capsys, monkeypatch):
        def full_disk(net, path):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(cpcompress.cli, "save", full_disk)
        code = main([
            "decompose", "--model-in", str(toy_model_path), "--rank-budget", "conv=10,fc=10",
            "--analytic-only", "--model-out", str(tmp_path / "c.cpnet"),
        ])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_FILE
        assert len(err) == 1 and err[0].startswith("error: cannot write")
        assert "No space left on device" in err[0]


class TestRanksFileNames:
    """Every path that reads a ranks file refuses names the target network
    lacks, with exit code 2 (``decompose --model-in``: TestDecompose)."""

    def test_preset_unknown_name(self, tmp_path, capsys):
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text("conv1\t60\nconv6\t10\n")
        code = main([
            "decompose", "--arch", "alexnet", "--ranks-file", str(ranks), "--analytic-only",
        ])
        assert code == EXIT_ARGS
        assert "unknown layers: ['conv6']" in _one_line_error(capsys)

    @pytest.mark.parametrize("text, words", [
        ("conv1\t4\nconv2\t8\nfc1\t8\nfc2\t4\nconv9\t3\n", "unknown layers: ['conv9']"),
        ("conv1\t4\nconv2\t8\nfc1\t8\n", "missing for layers: ['fc2']"),
        ("conv1\t4\nconv2\t8\nfc1\t8\nfc2\t99\n",
         "layer 'fc2': rank must be in [1, 10], got 99"),
    ], ids=["unknown", "missing", "above-bound"])
    def test_train_refuses_before_baseline_training(
        self, tmp_path, capsys, monkeypatch, text, words
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("baseline training started")

        monkeypatch.setattr(cpcompress.cli, "finetune", no_training)
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text(text)
        code = main(["train", "--ranks-file", str(ranks)] + FAST_TRAIN)
        assert code == EXIT_ARGS
        assert words in _one_line_error(capsys)


class TestAllocate:
    def test_reference_fc_split(self, tmp_path, capsys):
        report = tmp_path / "report.tsv"
        report.write_text(
            "# baseline_accuracy\t0.7995\n"
            "group\tlayer\tprobe_accuracy\taccuracy_loss\n"
            "fc\tfc6\t0.5136\t28.59\n"
            "fc\tfc7\t0.5845\t21.50\n"
            "fc\tfc8\t0.5964\t20.31\n"
        )
        code = main(["allocate", "--report", str(report), "--budget", "fc=900"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "fc6\t365" in out
        assert "fc7\t275" in out
        assert "fc8\t260" in out

    @pytest.mark.parametrize("budget, words", [
        ("fc", "bad budget component"),
        # Once an OverflowError traceback from largest_remainder.
        ("conv=99999999999999999999999,fc=6", "outside [0, 2**53]"),
        # Once accepted, the last value winning.
        ("conv=4,conv=6,fc=6", "group 'conv' is given twice"),
    ], ids=["no-value", "above-2**53", "repeated-group"])
    def test_bad_budget_exit(self, tmp_path, capsys, budget, words):
        report = tmp_path / "report.tsv"
        report.write_text(
            "group\tlayer\tprobe_accuracy\taccuracy_loss\n"
            "conv\tconv1\t0.5\t1.0\nfc\tfc6\t0.5\t1.0\n"
        )
        code = main(["allocate", "--report", str(report), "--budget", budget])
        assert code == EXIT_ARGS
        assert words in _one_line_error(capsys)

    @pytest.mark.parametrize("rows, words", [
        # conv1 listed twice once gave "conv1 2", so conv=10 was not met.
        ("conv\tconv1\t0.5\t0.25\nconv\tconv2\t0.6\t0.15\n"
         "conv\tconv1\t0.7\t0.05\nfc\tfc1\t0.5\t0.25\n", "listed twice"),
        # max(0.0, nan) is 0.0, so a NaN loss used to read as no loss.
        ("conv\tconv1\t0.5\t0.25\nfc\tfc1\tnan\tnan\n", "non-finite"),
        ("conv\tconv1\t0.5\tinf\nfc\tfc1\t0.5\t0.25\n", "non-finite"),
        # A baseline line without a value once raised IndexError.
        ("# baseline_accuracy\nconv\tconv1\t0.5\t0.25\nfc\tfc1\t0.5\t0.25\n",
         "baseline_accuracy needs one finite value"),
        ("# baseline_accuracy\tnan\nconv\tconv1\t0.5\t0.25\nfc\tfc1\t0.5\t0.25\n",
         "baseline_accuracy needs one finite value"),
        ("# baseline_accuracy\t0.9\n# baseline_accuracy\t0.8\n"
         "conv\tconv1\t0.5\t0.25\nfc\tfc1\t0.5\t0.25\n", "baseline_accuracy is listed twice"),
    ], ids=["repeated-layer", "nan", "inf", "baseline-no-value", "baseline-nan",
            "baseline-twice"])
    def test_bad_report_rows_refused(self, tmp_path, capsys, rows, words):
        report = tmp_path / "report.tsv"
        report.write_text("group\tlayer\tprobe_accuracy\taccuracy_loss\n" + rows)
        code = main(["allocate", "--report", str(report), "--budget", "conv=10,fc=6"])
        assert code == EXIT_FILE
        line = _one_line_error(capsys)
        assert line.startswith("error: cannot parse report") and words in line

    def test_missing_report_exit(self, capsys):
        code = main(["allocate", "--report", "/nope.tsv", "--budget", "fc=10"])
        capsys.readouterr()
        assert code == EXIT_FILE

    def test_unwritable_out(self, tmp_path, capsys):
        report = tmp_path / "report.tsv"
        report.write_text("group\tlayer\tprobe_accuracy\taccuracy_loss\nconv\tconv1\t0.5\t1.0\n")
        out_path = tmp_path / "missing" / "r.tsv"
        code = main(["allocate", "--report", str(report), "--budget", "conv=5",
                     "--out", str(out_path)])
        assert code == EXIT_FILE
        assert f"cannot write {out_path}: no such directory" in _one_line_error(capsys)


class TestProbe:
    def test_probe_emits_parseable_report(self, tmp_path, capsys):
        code = main([
            "probe", "--seed", "0", "--baseline-epochs", "2",
            "--probe-epochs", "0", "--probe-rank", "4",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        from cpcompress.allocator import SensitivityReport

        report = SensitivityReport.from_table(out)
        assert [e.name for e in report.entries] == ["conv1", "conv2", "fc1", "fc2"]
        assert {e.group for e in report.entries} == {"conv", "fc"}

        # The emitted table feeds straight into allocate.
        report_path = tmp_path / "probe.tsv"
        report_path.write_text(out)
        code = main([
            "allocate", "--report", str(report_path), "--budget", "conv=40,fc=20",
        ])
        ranks_out = capsys.readouterr().out
        assert code == EXIT_OK
        ranks = {
            line.split("\t")[0]: int(line.split("\t")[1])
            for line in ranks_out.splitlines()[1:]
        }
        assert sum(ranks[n] for n in ("conv1", "conv2")) == 40
        assert sum(ranks[n] for n in ("fc1", "fc2")) == 20


class TestTrain:
    def test_iterative_deterministic_output(self, capsys):
        args = ["train", "--schedule", "iterative", "--seed", "7"] + FAST_TRAIN
        code1 = main(args)
        out1 = capsys.readouterr().out
        code2 = main(args)
        out2 = capsys.readouterr().out
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert "layer=conv1" in out1
        assert "final_accuracy" in out1

    def test_oneshot_schedule_runs(self, capsys):
        code = main(["train", "--schedule", "oneshot", "--seed", "3"] + FAST_TRAIN)
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "layer=finetune" in out

    def test_ranks_file_override(self, tmp_path, capsys):
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text(
            "layer\trank\nconv1\t4\nconv2\t8\nfc1\t8\nfc2\t4\n"
        )
        code = main([
            "train", "--schedule", "iterative", "--seed", "1",
            "--ranks-file", str(ranks),
        ] + FAST_TRAIN)
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "rank=8" in out


    def test_unwritable_model_out_refused_before_training(self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("baseline training started")

        monkeypatch.setattr(cpcompress.cli, "finetune", no_training)
        code = main(["train", "--model-out", str(tmp_path)] + FAST_TRAIN)
        assert code == EXIT_FILE
        assert "it is a directory" in _one_line_error(capsys)

    @pytest.mark.parametrize(
        "text", ["layer\trank\nconv1\tfour\n", "conv1\t4\textra\n", "conv1 4\n"]
    )
    def test_malformed_ranks_file_exit_code(self, tmp_path, capsys, text):
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text(text)
        code = main(["train", "--ranks-file", str(ranks)] + FAST_TRAIN)
        err = capsys.readouterr().err
        assert code == EXIT_ARGS
        assert err.startswith("error: bad ranks file")


def _one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


class TestNumericSettings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["probe", "--batch-size", "0"],
            ["train", "--batch-size", "-3"],
            ["probe", "--probe-rank", "0"],
            ["probe", "--probe-epochs", "-1"],
            ["probe", "--baseline-epochs", "-1"],
            ["probe", "--finetune-lr", "-0.1"],
            ["train", "--baseline-lr", "nan"],
            ["train", "--finetune-lr", "0"],
            ["train", "--lr-step", "0"],
            ["train", "--epochs-per-stage", "0"],
            ["train", "--rank-fraction", "0"],
            ["train", "--rank-fraction", "1.5"],
            ["verify", "--verify-cases", "-1"],
            ["decompose", "--arch", "alexnet", "--seed", "-1"],
        ],
    )
    def test_out_of_range_flag(self, capsys, argv):
        assert main(argv) == EXIT_ARGS
        flag = next(a for a in argv if a.startswith("--") and a != "--arch")
        assert flag in _one_line_error(capsys)

    @pytest.mark.parametrize("text", ["2.5", "x", "nan", "1e400"])
    @pytest.mark.parametrize(
        "command, flag, rule",
        [("probe", "--batch-size", "an integer >= 1"),
         ("train", "--rank-fraction", "in (0, 1]")],
    )
    def test_malformed_flag(self, capsys, command, flag, rule, text):
        # One line quoting the text as typed, not argparse's usage block.
        assert main([command, flag, text]) == EXIT_ARGS
        assert _one_line_error(capsys) == f"error: {flag} must be {rule}, got {text!r}"

    @pytest.mark.parametrize("command", ["probe", "train"])
    @pytest.mark.parametrize(
        "overlay",
        [{"batch_size": 0}, {"batch_size": 2.5}, {"batch_size": True},
         {"batch_size": None}, {"finetune_lr": 0},
         # Strings are not numbers, and a setting the subcommand does not
         # take is checked all the same.
         {"verify_cases": "3"}, {"verify_cases": "x"},
         # Too large for a float: this once crashed the range check.
         {"finetune_lr": 10**400}],
    )
    def test_out_of_range_config(self, tmp_path, capsys, command, overlay):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(overlay))
        assert main(["--config", str(cfg), command]) == EXIT_ARGS
        flag = "--" + next(iter(overlay)).replace("_", "-")
        assert flag in _one_line_error(capsys)

    @pytest.mark.parametrize("text", ["[1, 2]", "5", '"batch_size"', "\udcff"])
    def test_config_not_an_object(self, tmp_path, capsys, text):
        cfg = tmp_path / "config.json"
        cfg.write_text(text, errors="surrogateescape")
        assert main(["--config", str(cfg), "verify"]) == EXIT_ARGS
        assert "bad config" in _one_line_error(capsys)

    def test_settings_table(self, monkeypatch):
        # The built-in defaults, and the subcommands each setting is a flag on.
        assert cpcompress.cli.DEFAULTS == {
            "seed": 0, "probe_rank": 5, "probe_epochs": 1, "baseline_epochs": 16,
            "baseline_lr": 0.05, "finetune_lr": 0.02, "epochs_per_stage": 4,
            "lr_step": 3, "batch_size": 32, "rank_fraction": 0.25,
            "verify_cases": 200, "verify_trips": 100,
        }
        table = cpcompress.cli._SETTINGS
        assert cpcompress.cli.DEFAULTS == {name: entry[0] for name, entry in table.items()}
        training = {"seed", "baseline_epochs", "baseline_lr", "finetune_lr", "lr_step",
                    "batch_size"}
        expected = {
            "decompose": {"seed"},
            "probe": training | {"probe_rank", "probe_epochs"},
            "allocate": {"seed"},
            "train": training | {"epochs_per_stage", "rank_fraction"},
            "verify": {"seed", "verify_cases", "verify_trips"},
        }
        parser = cpcompress.cli.build_parser()
        required = {"allocate": ["--report", "r.tsv", "--budget", "fc=1"]}
        seen = {}

        def capture(args):
            seen[args.command] = args
            return EXIT_OK

        monkeypatch.setattr(cpcompress.cli, "_COMMANDS", dict.fromkeys(expected, capture))
        for command, names in expected.items():
            head = [command] + required.get(command, [])
            assert {n for n, entry in table.items() if command in entry[2]} == names
            # Each numeric flag the subcommand takes parses, and no other does.
            for name in table:
                argv = head + ["--" + name.replace("_", "-"), "7"]
                if name in names:
                    assert getattr(parser.parse_args(argv), name) == "7"
                else:
                    with pytest.raises(SystemExit):
                        parser.parse_args(argv)
            # A flag left out reaches the command as its built-in default.
            assert main(head) == EXIT_OK
            assert all(getattr(seen[command], n) == cpcompress.cli.DEFAULTS[n] for n in names)

    def test_probe_rank_above_layer_bound(self, capsys):
        code = main([
            "probe", "--baseline-epochs", "0", "--probe-epochs", "0",
            "--probe-rank", "100000",
        ])
        assert code == EXIT_ARGS
        assert "probe rank" in _one_line_error(capsys)


class TestModuleEntryPoints:
    @staticmethod
    def _run(*args, cwd):
        src = str(Path(cpcompress.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-m", *args], cwd=cwd, env=env,
            capture_output=True, text=True, timeout=120,
        )

    @pytest.mark.parametrize("module", ["cpcompress", "cpcompress.cli"])
    def test_python_dash_m_runs_the_cli(self, tmp_path, module):
        report = tmp_path / "report.tsv"
        report.write_text(
            "group\tlayer\tprobe_accuracy\taccuracy_loss\nfc\tfc6\t0.5\t1.0\n"
        )
        done = self._run(
            module, "allocate", "--report", str(report), "--budget", "fc=7",
            cwd=tmp_path,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == "layer\trank\nfc6\t7\n"

    def test_float_manifest_field_exits_cleanly(self, tmp_path):
        # A pool window written as 2.0 is refused by the loader: exit 1 and
        # one error line, not a crash in the forward pass.
        model = tmp_path / "toy.cpnet"
        save(toy_cnn(seed=0), model)
        raw = model.read_bytes()
        header_end = raw.index(b"\n") + 1
        size_end = raw.index(b"\n", header_end) + 1
        length = int(raw[header_end:size_end].split()[0])
        manifest = json.loads(raw[size_end : size_end + length])
        for entry in manifest["layers"]:
            if entry["kind"] == "max_pool":
                entry["window"] = entry["stride"] = 2.0
        text = json.dumps(manifest).encode("utf-8")
        model.write_bytes(
            raw[:header_end] + b"%d %08x\n" % (len(text), zlib.crc32(text)) + text
            + raw[size_end + length :]
        )
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text("conv2\t6\n")
        done = self._run(
            "cpcompress", "decompose", "--model-in", str(model), "--ranks-file", str(ranks),
            cwd=tmp_path,
        )
        assert done.returncode == EXIT_FILE
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"error: cannot parse {model}")

    @pytest.mark.parametrize("flags", [
        ["--finetune-lr", "1e6"],  # a fine-tuning stage diverges: the log, then exit 3
        ["--baseline-lr", "1e300"],  # the baseline diverges: DivergedError
    ])
    def test_divergence_prints_one_error_line(self, tmp_path, flags):
        # Run apart from pytest, which would otherwise capture numpy's warnings.
        done = self._run(
            "cpcompress", "train", *flags, "--baseline-epochs", "1",
            "--epochs-per-stage", "1", cwd=tmp_path,
        )
        assert done.returncode == EXIT_DIVERGED
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: ")

    @pytest.mark.parametrize("module", ["cpcompress", "cpcompress.cli"])
    def test_python_dash_m_exit_code(self, tmp_path, module):
        done = self._run(module, "verify", "--verify-cases", "-1", cwd=tmp_path)
        assert done.returncode == EXIT_ARGS
        assert done.stderr.startswith("error: --verify-cases")


class TestVerify:
    def test_verify_passes_on_healthy_build(self, capsys):
        code = main(["verify", "--verify-cases", "40", "--verify-trips", "10"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "equivalence" in out and "ok" in out

    def test_equivalence_catches_a_skewed_pipeline(self, monkeypatch, capsys):
        # The suite compares two independent kernels; a factorized pipeline
        # off by one part in a million must fail it, in the library and the CLI.
        staged = verify.batch_cp_conv
        monkeypatch.setattr(
            verify, "batch_cp_conv", lambda *args: staged(*args) * (1 + 1e-6)
        )
        assert not verify.equivalence_suite(cases=5).passed
        code = main(["verify", "--verify-cases", "5", "--verify-trips", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert "FAIL" in out.splitlines()[0]


class TestConfigOverlay:
    def test_config_changes_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"verify_cases": 25, "verify_trips": 5}))
        code = main(["--config", str(cfg), "verify"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "25 cases" in out

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"verify_cases": 25, "verify_trips": 5}))
        code = main(["--config", str(cfg), "verify", "--verify-cases", "30"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "30 cases" in out

    @staticmethod
    def _config_args(form, path):
        return [f"--config={path}"] if form == "equals" else ["--conf", str(path)]

    @pytest.mark.parametrize("form", ["equals", "abbreviated"])
    def test_config_forms_read_missing_file(self, capsys, form):
        argv = self._config_args(form, "/nope/missing.json")
        code = main(argv + ["verify", "--verify-cases", "1", "--verify-trips", "1"])
        assert code == EXIT_FILE
        assert "cannot read config" in capsys.readouterr().err

    def test_argv_error_before_config_error(self, capsys):
        # argv is parsed once, before the config file is read.
        assert main(["--config", "/nope/missing.json", "bogus"]) == EXIT_ARGS
        assert "cannot read config" not in capsys.readouterr().err

    def test_bad_config_value_refused_under_a_flag(self, tmp_path, capsys):
        # Every config value is checked, even one a flag overrides.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"verify_cases": -1}))
        argv = ["--config", str(cfg), "verify", "--verify-cases", "1", "--verify-trips", "1"]
        assert main(argv) == EXIT_ARGS
        assert "--verify-cases must be an integer >= 0, got -1" in _one_line_error(capsys)

    @pytest.mark.parametrize("form", ["equals", "abbreviated"])
    def test_config_forms_change_defaults(self, tmp_path, capsys, form):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"verify_cases": 25, "verify_trips": 5}))
        code = main(self._config_args(form, cfg) + ["verify"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "25 cases" in out

    def test_config_after_subcommand_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"verify_cases": 25}))
        assert main(["verify", f"--config={cfg}"]) == EXIT_ARGS
        capsys.readouterr()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"mystery_knob": 1}))
        code = main(["--config", str(cfg), "verify"])
        capsys.readouterr()
        assert code == EXIT_ARGS

    def test_unknown_flag_rejected(self, capsys):
        code = main(["verify", "--mystery"])
        capsys.readouterr()
        assert code == EXIT_ARGS
