"""Sensitivity probes and proportional rank allocation.

How many rank units each layer deserves is decided empirically: factorize
one layer at a time at a fixed very low probe rank, optionally fine-tune
briefly, and measure how much held-out accuracy the network loses.  Layers
that lose more get proportionally more of the group's rank budget.

The integer rounding is largest-remainder apportionment: floor every
proportional share, then hand the leftover units to the largest fractional
parts (ties by layer order).  The group total is preserved exactly.
"""

from dataclasses import dataclass
from math import floor

import numpy as np

from .network import NetworkSpec, decompose_layer, replace_layer
from . import train as train_mod

__all__ = [
    "LayerSensitivity",
    "SensitivityReport",
    "largest_remainder",
    "allocate_ranks",
    "probe_sensitivity",
    "measure_sensitivity",
]


@dataclass(frozen=True)
class LayerSensitivity:
    name: str
    group: str  # "conv" or "fc"
    probe_accuracy: float
    accuracy_loss: float  # baseline accuracy minus probe accuracy, clamped at 0


@dataclass(frozen=True)
class SensitivityReport:
    baseline_accuracy: float
    entries: tuple

    def group_entries(self, group: str) -> list:
        return [e for e in self.entries if e.group == group]

    def to_table(self) -> str:
        lines = [f"# baseline_accuracy\t{self.baseline_accuracy!r}"]
        lines.append("group\tlayer\tprobe_accuracy\taccuracy_loss")
        for e in self.entries:
            lines.append(
                f"{e.group}\t{e.name}\t{e.probe_accuracy!r}\t{e.accuracy_loss!r}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_table(cls, text: str) -> "SensitivityReport":
        baseline = float("nan")
        entries = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("# baseline_accuracy"):
                baseline = float(line.split("\t")[1])
                continue
            if line.startswith("group\t"):
                continue
            group, name, acc, loss = line.split("\t")
            entries.append(LayerSensitivity(name, group, float(acc), float(loss)))
        return cls(baseline, tuple(entries))


def largest_remainder(weights, total: int) -> list:
    """Integers proportional to `weights` that sum to exactly `total`.

    All-zero weights fall back to a uniform split.  Fractional ties go to
    the earlier index.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty vector")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    if total < 0:
        raise ValueError("total must be non-negative")
    mass = w.sum()
    if mass == 0.0:
        quotas = np.full(w.size, total / w.size)
    else:
        quotas = total * (w / mass)
    base = np.array([floor(q) for q in quotas], dtype=np.int64)
    leftover = total - int(base.sum())
    # Stable sort keeps earlier layers first among equal remainders.
    order = np.argsort(-(quotas - base), kind="stable")
    for i in order[:leftover]:
        base[i] += 1
    return base.tolist()


def allocate_ranks(report: SensitivityReport, budgets: dict) -> dict:
    """Split each group's rank budget across its layers by accuracy loss.

    Within a group, layer ranks are proportional to loss with
    largest-remainder rounding, so they sum exactly to the budget; every
    layer gets at least rank 1.
    """
    out = {}
    groups = {e.group for e in report.entries}
    for group in sorted(groups):
        entries = report.group_entries(group)
        if group not in budgets:
            raise ValueError(f"no budget given for group {group!r}")
        budget = int(budgets[group])
        if budget < len(entries):
            raise ValueError(
                f"budget {budget} for group {group!r} is below its "
                f"{len(entries)} layers"
            )
        losses = [max(0.0, e.accuracy_loss) for e in entries]
        ranks = largest_remainder(losses, budget)
        # Guarantee rank >= 1, taking units from the largest allocations.
        donors = sorted(range(len(ranks)), key=lambda i: -ranks[i])
        for i, r in enumerate(ranks):
            if r == 0:
                for j in donors:
                    if ranks[j] > 1:
                        ranks[j] -= 1
                        ranks[i] = 1
                        break
        for e, r in zip(entries, ranks):
            out[e.name] = int(r)
    return out


def probe_sensitivity(
    net: NetworkSpec,
    layer_name: str,
    probe_rank: int,
    eval_fn,
    *,
    data=None,
    cfg=None,
    epochs: int = 1,
    seed: int = 0,
) -> float:
    """Accuracy after factorizing only `layer_name` at `probe_rank`.

    When `data` is given the whole probed network is fine-tuned for
    `epochs` epochs first (default one); the input network is never
    modified.  `eval_fn` maps a network to an accuracy fraction.
    """
    probed = replace_layer(
        net, layer_name, decompose_layer(net.layer(layer_name), probe_rank, seed=seed)
    )
    if data is not None and epochs > 0:
        cfg = cfg or train_mod.TrainConfig()
        probed, _ = train_mod.finetune(probed, data, cfg, epochs=epochs)
    return float(eval_fn(probed))


def measure_sensitivity(
    net: NetworkSpec,
    eval_fn,
    *,
    probe_rank: int = 5,
    data=None,
    cfg=None,
    epochs: int = 1,
    seed: int = 0,
) -> SensitivityReport:
    """Probe every decomposable layer and assemble the loss table."""
    baseline = float(eval_fn(net))
    entries = []
    for layer in net.layers:
        group = layer.rank_group
        if group is None:
            continue
        accuracy = probe_sensitivity(
            net, layer.name, probe_rank, eval_fn,
            data=data, cfg=cfg, epochs=epochs, seed=seed,
        )
        entries.append(
            LayerSensitivity(layer.name, group, accuracy, max(0.0, baseline - accuracy))
        )
    return SensitivityReport(baseline, tuple(entries))
