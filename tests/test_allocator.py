"""Rank allocation: apportionment arithmetic and sensitivity probes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpcompress.allocator import (
    LayerSensitivity,
    SensitivityReport,
    allocate_ranks,
    largest_remainder,
    measure_sensitivity,
    probe_sensitivity,
)
from cpcompress.conv import ConvSpec
from cpcompress.network import Conv, Fc, Flatten, NetworkSpec
from cpcompress.train import evaluate

from helpers import separated_cp_kernel


def report_from(losses_by_group):
    entries = []
    for group, losses in losses_by_group.items():
        for i, loss in enumerate(losses):
            entries.append(LayerSensitivity(f"{group}{i + 1}", group, 0.0, loss))
    return SensitivityReport(0.0, tuple(entries))


class TestLargestRemainder:
    def test_fc_reference_split(self):
        # The canonical regression: three losses against a budget of 900.
        assert largest_remainder([28.59, 21.50, 20.31], 900) == [365, 275, 260]

    def test_conv_reference_split(self):
        assert largest_remainder([5.38, 11.89, 11.86, 13.68, 15.17], 750) == [
            70, 154, 153, 177, 196,
        ]

    def test_equal_losses(self):
        assert largest_remainder([1.0, 1.0, 1.0], 90) == [30, 30, 30]

    def test_all_zero_falls_back_to_uniform(self):
        assert largest_remainder([0.0, 0.0, 0.0, 0.0], 10) == [3, 3, 2, 2]

    def test_ties_break_by_index(self):
        assert largest_remainder([1.0, 1.0], 3) == [2, 1]

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(
        n=st.integers(1, 8),
        budget=st.integers(0, 500),
        seed=st.integers(0, 2**16),
    )
    def test_sum_is_exact(self, n, budget, seed):
        rng = np.random.default_rng(seed)
        losses = rng.integers(0, 4000, n) / 64.0
        assert sum(largest_remainder(losses, budget)) == budget

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(n=st.integers(2, 8), budget=st.integers(10, 500), seed=st.integers(0, 2**16))
    def test_monotone_in_loss(self, n, budget, seed):
        rng = np.random.default_rng(seed)
        losses = rng.integers(0, 4000, n) / 64.0
        ranks = largest_remainder(losses, budget)
        for i in range(n):
            for j in range(n):
                if losses[i] > losses[j]:
                    assert ranks[i] >= ranks[j]

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(
        n=st.integers(1, 8),
        budget=st.integers(0, 500),
        seed=st.integers(0, 2**16),
        factor=st.sampled_from([2.0, 3.0, 4.0, 8.0, 0.5]),
    )
    def test_scale_invariant(self, n, budget, seed, factor):
        # Dyadic losses scaled by small exact factors keep every quota
        # bit-identical, so the allocation cannot move.
        rng = np.random.default_rng(seed)
        losses = rng.integers(0, 4000, n) / 64.0
        assert largest_remainder(losses, budget) == largest_remainder(
            factor * losses, budget
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            largest_remainder([1.0, -0.5], 10)

    def test_total_at_most_2_53(self):
        # Past 2**53 the float64 quotas skip integers; a total past the
        # int64 range once raised OverflowError.
        assert sum(largest_remainder([1.0, 2.0], 2**53)) == 2**53
        for total in (2**53 + 1, 10**23):
            with pytest.raises(ValueError):
                largest_remainder([1.0, 2.0], total)


class TestAllocateRanks:
    def test_groups_allocated_independently(self):
        report = report_from({"conv": [5.38, 11.89, 11.86, 13.68, 15.17],
                              "fc": [28.59, 21.50, 20.31]})
        ranks = allocate_ranks(report, {"conv": 750, "fc": 900})
        assert [ranks[f"fc{i}"] for i in (1, 2, 3)] == [365, 275, 260]
        assert sum(ranks[f"conv{i}"] for i in range(1, 6)) == 750

    def test_minimum_rank_one(self):
        report = report_from({"fc": [0.0, 10.0, 10.0]})
        ranks = allocate_ranks(report, {"fc": 9})
        assert ranks["fc1"] >= 1
        assert sum(ranks.values()) == 9

    def test_zero_fill_keeps_larger_loss_at_least_as_large(self):
        # largest_remainder gives 5, 4, 0, 0, 0; taking all three missing
        # units from the first layer once left it at 2 against the second's 4.
        report = report_from({"fc": [0.5, 0.4, 0.0, 0.0, 0.0]})
        ranks = allocate_ranks(report, {"fc": 9})
        assert [ranks[f"fc{i}"] for i in range(1, 6)] == [3, 3, 1, 1, 1]

    def test_budget_below_layer_count_rejected(self):
        report = report_from({"fc": [1.0, 2.0, 3.0]})
        with pytest.raises(ValueError):
            allocate_ranks(report, {"fc": 2})

    def test_missing_group_budget_rejected(self):
        report = report_from({"fc": [1.0], "conv": [1.0]})
        with pytest.raises(ValueError):
            allocate_ranks(report, {"fc": 10})

    def test_table_rejects_repeated_layer(self):
        report = report_from({"conv": [1.5, 2.5]})
        text = report.to_table() + "conv\tconv1\t0.0\t0.5\n"
        with pytest.raises(ValueError, match="listed twice"):
            SensitivityReport.from_table(text)

    @pytest.mark.parametrize("acc, loss", [
        ("nan", "0.5"), ("0.5", "nan"), ("inf", "0.5"), ("0.5", "-inf"),
    ])
    def test_table_rejects_non_finite_values(self, acc, loss):
        text = report_from({"fc": [1.0]}).to_table() + f"fc\tfc2\t{acc}\t{loss}\n"
        with pytest.raises(ValueError, match="non-finite"):
            SensitivityReport.from_table(text)

    def test_table_roundtrip(self):
        report = report_from({"conv": [1.5, 2.5], "fc": [3.25]})
        report = SensitivityReport(0.875, report.entries)
        back = SensitivityReport.from_table(report.to_table())
        assert back == report


def lossless_probe_net(rng):
    """Both decomposable layers have exact low rank, so a rank-5 probe is free."""
    kernel = separated_cp_kernel(6, 3, 3, rank=3, rng=rng)
    u = rng.standard_normal((4, 3))
    v = rng.standard_normal((3, 6 * 16))
    return NetworkSpec(
        (3, 4, 4),
        (
            Conv("conv", ConvSpec(6, 3, 3, padding=1), kernel, None),
            Flatten("flatten"),
            Fc("fc", u @ v, None),
        ),
    )


class TestProbe:
    def test_lossless_probe_keeps_accuracy(self):
        rng = np.random.default_rng(0)
        net = lossless_probe_net(rng)
        x = rng.standard_normal((40, 3, 4, 4))
        y = rng.integers(0, 4, 40)

        def eval_fn(candidate):
            _, acc = evaluate(candidate, x, y)
            return acc

        baseline = eval_fn(net)
        probed = probe_sensitivity(net, "conv", 5, eval_fn, epochs=0)
        assert probed == baseline
        probed_fc = probe_sensitivity(net, "fc", 3, eval_fn, epochs=0)
        assert probed_fc == baseline

    def test_probe_leaves_input_untouched(self):
        rng = np.random.default_rng(1)
        net = lossless_probe_net(rng)
        before = net.layer("conv").weights.tobytes()
        probe_sensitivity(net, "conv", 2, lambda n: 0.5, epochs=0)
        assert net.layer("conv").weights.tobytes() == before
        assert isinstance(net.layer("conv"), Conv)

    def test_probe_rejects_non_decomposable(self):
        rng = np.random.default_rng(2)
        net = lossless_probe_net(rng)
        with pytest.raises(ValueError):
            probe_sensitivity(net, "flatten", 2, lambda n: 0.5, epochs=0)

    def test_measure_sensitivity_deterministic(self):
        rng = np.random.default_rng(3)
        net = lossless_probe_net(rng)
        x = rng.standard_normal((30, 3, 4, 4))
        y = rng.integers(0, 4, 30)

        def eval_fn(candidate):
            _, acc = evaluate(candidate, x, y)
            return acc

        r1 = measure_sensitivity(net, eval_fn, probe_rank=2, epochs=0, seed=5)
        r2 = measure_sensitivity(net, eval_fn, probe_rank=2, epochs=0, seed=5)
        assert r1 == r2
        assert [e.group for e in r1.entries] == ["conv", "fc"]
        assert all(e.accuracy_loss >= 0.0 for e in r1.entries)

    def test_probe_with_finetune_epoch_deterministic(self):
        from cpcompress.data import make_synthetic_dataset
        from cpcompress.presets import toy_cnn
        from cpcompress.train import TrainConfig

        data = make_synthetic_dataset(n_train=96, n_test=40, seed=6)
        net = toy_cnn(seed=6)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, seed=6)

        def eval_fn(candidate):
            _, acc = evaluate(candidate, data.test_x, data.test_y)
            return acc

        accs = [
            probe_sensitivity(net, "conv2", 4, eval_fn, data=data, cfg=cfg,
                              epochs=1, seed=2)
            for _ in range(2)
        ]
        assert accs[0] == accs[1]

    def test_probe_rank_out_of_range(self):
        rng = np.random.default_rng(7)
        net = lossless_probe_net(rng)
        with pytest.raises(ValueError):
            probe_sensitivity(net, "fc", 99, lambda n: 0.5, epochs=0)
