"""Command-line interface.

Subcommands: decompose (factorize a model file or the built-in preset and
print the compression report), probe (sensitivity table on the built-in
task), allocate (losses + budgets -> ranks file), train (run a compression
schedule on the built-in task), verify (randomized equivalence and
round-trip suites).

Reports go to stdout as tab-separated tables; diagnostics go to stderr.
Exit codes: 0 success, 1 unreadable/missing file, 2 invalid ranks or
arguments, 3 training diverged, 4 verification failure.

Defaults live in ``DEFAULTS`` and can be overridden by a JSON config file
(``--config``), which is in turn overridden by explicit flags.
"""

import argparse
import json
import math
import sys

import numpy as np

from .allocator import LayerSensitivity, SensitivityReport, allocate_ranks, measure_sensitivity
from .conv import MultiplyCounter
from .data import make_synthetic_dataset
from .network import (
    ModelFormatError,
    NetworkSpec,
    check_rank,
    count_params,
    decompose_layer,
    decomposable_layers,
    forward,
    load,
    replace_layer,
    save,
)
from .presets import ALEXNET_DEFAULT_RANKS, alexnet, alexnet_decomposed, toy_cnn
from .train import (
    DivergedError,
    TrainConfig,
    evaluate,
    finetune,
    iterative_compress,
    oneshot_compress,
)
from .verify import corruption_suite, equivalence_suite, roundtrip_suite

DEFAULTS = {
    "seed": 0,
    "probe_rank": 5,
    "probe_epochs": 1,
    "baseline_epochs": 16,
    "baseline_lr": 0.05,
    "finetune_lr": 0.02,
    "epochs_per_stage": 4,
    "lr_step": 3,
    "batch_size": 32,
    "rank_fraction": 0.25,
    "verify_cases": 200,
    "verify_trips": 100,
}

EXIT_OK = 0
EXIT_FILE = 1
EXIT_ARGS = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4

# Lowest value of each integer setting; the rates and the rank fraction
# must be positive and finite, and the fraction at most 1.
_INT_FLOORS = {
    "seed": 0,
    "probe_rank": 1,
    "probe_epochs": 0,
    "baseline_epochs": 0,
    "epochs_per_stage": 1,
    "lr_step": 1,
    "batch_size": 1,
    "verify_cases": 0,
    "verify_trips": 0,
}
_POSITIVE_REALS = ("baseline_lr", "finetune_lr", "rank_fraction")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _bad_setting(args):
    """One-line complaint about the first out-of-range numeric setting, or None.

    Flags are parsed by argparse, but config-file values arrive as raw JSON,
    so the type is checked too.
    """
    settings = vars(args)
    for name, floor in _INT_FLOORS.items():
        value = settings.get(name, floor)
        if isinstance(value, bool) or not isinstance(value, int) or value < floor:
            return f"--{name.replace('_', '-')} must be an integer >= {floor}, got {value!r}"
    for name in _POSITIVE_REALS:
        value = settings.get(name, 1.0)
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not (math.isfinite(value) and value > 0)
            or (name == "rank_fraction" and value > 1)
        ):
            limit = "in (0, 1]" if name == "rank_fraction" else "a positive number"
            return f"--{name.replace('_', '-')} must be {limit}, got {value!r}"
    return None


class _Refused(Exception):
    """Bad input, reported as one error line and an exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_ranks(path, names, complete: bool = False) -> dict:
    """The ``layer<TAB>rank`` lines of a ranks file (blank, ``#`` and
    ``layer<TAB>`` header lines skipped).  Every name must be one of `names`,
    the target network's decomposable layers, and with `complete` every one
    of them must have a rank."""
    ranks = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("layer\t"):
                    continue
                name, value = line.split("\t")
                ranks[name] = int(value)
    except OSError as exc:
        raise _Refused(EXIT_FILE, f"cannot read ranks file: {exc}") from None
    except ValueError as exc:
        raise _Refused(EXIT_ARGS, f"bad ranks file: {exc}") from None
    unknown = set(ranks) - set(names)
    if unknown:
        raise _Refused(EXIT_ARGS, f"ranks name unknown layers: {sorted(unknown)}")
    missing = [n for n in names if n not in ranks]
    if complete and missing:
        raise _Refused(EXIT_ARGS, f"ranks missing for layers: {missing}")
    return ranks


def _check_ranks(net: NetworkSpec, ranks: dict) -> None:
    """Refuse the first rank outside its layer's bound, before any training
    or decomposition starts."""
    try:
        for name, rank in ranks.items():
            check_rank(net.layer(name), rank)
    except ValueError as exc:
        raise _Refused(EXIT_ARGS, f"invalid ranks: {exc}") from None


def _write_ranks(ranks: dict, stream) -> None:
    stream.write("layer\trank\n")
    for name, rank in ranks.items():
        stream.write(f"{name}\t{rank}\n")


def _allocate(report: SensitivityReport, text: str) -> dict:
    """allocate_ranks with the per-group budgets ``group=N,...`` in `text`."""
    budgets = {}
    try:
        for part in text.split(","):
            key, _, value = part.partition("=")
            if not value:
                raise ValueError(f"bad budget component {part!r}; want group=N")
            budgets[key.strip()] = int(value)
        return allocate_ranks(report, budgets)
    except ValueError as exc:
        raise _Refused(EXIT_ARGS, str(exc)) from None


def _instrumented_mults(net: NetworkSpec, seed: int) -> int:
    rng = np.random.default_rng(seed)
    counter = MultiplyCounter()
    forward(net, rng.standard_normal(net.input_shape), counter)
    return counter.count


def _print_comparison(original: NetworkSpec, compressed: NetworkSpec, instrument_seed=None):
    report = count_params(compressed)
    base = count_params(original)
    print(report.to_table())
    ratio_w = base.total_original_params / report.total_compressed_params
    ratio_m = base.total_original_mults / report.total_compressed_mults
    print(f"original_weights\t{base.total_original_params}")
    print(f"compressed_weights\t{report.total_compressed_params}")
    print(f"weight_ratio\t{ratio_w:.4f}")
    print(f"original_mults\t{base.total_original_mults}")
    print(f"compressed_mults\t{report.total_compressed_mults}")
    print(f"mult_ratio\t{ratio_m:.4f}")
    if instrument_seed is not None:
        m_orig = _instrumented_mults(original, instrument_seed)
        m_comp = _instrumented_mults(compressed, instrument_seed)
        print(f"instrumented_mult_ratio\t{m_orig / m_comp:.4f}")


def cmd_decompose(args) -> int:
    if args.arch == "alexnet":
        original = alexnet()
        ranks = dict(ALEXNET_DEFAULT_RANKS)
        if args.ranks_file:
            ranks.update(_read_ranks(args.ranks_file, decomposable_layers(original)))
        try:
            compressed = alexnet_decomposed(ranks)
        except ValueError as exc:
            return _fail(EXIT_ARGS, f"invalid ranks: {exc}")
    else:
        if not args.model_in:
            return _fail(EXIT_ARGS, "need a model file (--model-in) or --arch alexnet")
        try:
            original = load(args.model_in)
        except OSError as exc:
            return _fail(EXIT_FILE, f"cannot read {args.model_in}: {exc}")
        except ModelFormatError as exc:
            return _fail(EXIT_FILE, f"cannot parse {args.model_in}: {exc}")
        names = decomposable_layers(original)
        if args.ranks_file:
            ranks = _read_ranks(args.ranks_file, names)
        elif args.rank_budget:
            # With every loss zero, each group's budget is split evenly and
            # the earlier layers take the remainder.
            flat = SensitivityReport(0.0, tuple(
                LayerSensitivity(layer.name, layer.rank_group, 0.0, 0.0)
                for layer in original.layers if layer.rank_group is not None
            ))
            ranks = _allocate(flat, args.rank_budget)
        else:
            return _fail(EXIT_ARGS, "need --ranks-file or --rank-budget")
        _check_ranks(original, ranks)
        # Layers without a rank are left in their original form.
        compressed = original
        for index, name in enumerate(n for n in names if n in ranks):
            try:
                factors = decompose_layer(
                    compressed.layer(name), ranks[name], seed=args.seed + index
                )
            except ValueError as exc:
                return _fail(EXIT_ARGS, f"invalid rank for {name}: {exc}")
            compressed = replace_layer(compressed, name, factors)
    _print_comparison(
        original, compressed, instrument_seed=None if args.analytic_only else args.seed
    )
    if args.model_out:
        save(compressed, args.model_out)
    return EXIT_OK


def _trained_baseline(args, net: NetworkSpec):
    data = make_synthetic_dataset(seed=args.seed)
    cfg = TrainConfig(
        learning_rate=args.baseline_lr, batch_size=args.batch_size,
        lr_step=12, seed=args.seed,
    )
    net, history = finetune(net, data, cfg, epochs=args.baseline_epochs)
    return data, net, history


def cmd_probe(args) -> int:
    data, net, _ = _trained_baseline(args, toy_cnn(seed=args.seed))

    def eval_fn(candidate):
        _, acc = evaluate(candidate, data.test_x, data.test_y)
        return acc

    cfg = TrainConfig(
        learning_rate=args.finetune_lr, batch_size=args.batch_size,
        lr_step=args.lr_step, seed=args.seed,
    )
    try:
        report = measure_sensitivity(
            net, eval_fn, probe_rank=args.probe_rank, data=data, cfg=cfg,
            epochs=args.probe_epochs, seed=args.seed,
        )
    except ValueError as exc:
        return _fail(EXIT_ARGS, f"invalid probe rank: {exc}")
    sys.stdout.write(report.to_table())
    return EXIT_OK


def cmd_allocate(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            report = SensitivityReport.from_table(fh.read())
    except OSError as exc:
        return _fail(EXIT_FILE, f"cannot read report: {exc}")
    except ValueError as exc:
        return _fail(EXIT_FILE, f"cannot parse report: {exc}")
    ranks = _allocate(report, args.budget)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_ranks(ranks, fh)
    else:
        _write_ranks(ranks, sys.stdout)
    return EXIT_OK


def cmd_train(args) -> int:
    # Ranks are settled on the untrained net, which has the trained one's shapes.
    untrained = toy_cnn(seed=args.seed)
    if args.ranks_file:
        ranks = _read_ranks(args.ranks_file, decomposable_layers(untrained), complete=True)
        _check_ranks(untrained, ranks)
    else:
        ranks = {
            layer.name: max(1, math.ceil(args.rank_fraction * layer.full_rank))
            for layer in untrained.layers if layer.rank_group is not None
        }
    data, baseline, history = _trained_baseline(args, untrained)
    # Each score below is the last epoch's test score where an epoch ran.
    if history:
        base_acc = history[-1].test_accuracy
    else:
        _, base_acc = evaluate(baseline, data.test_x, data.test_y)
    cfg = TrainConfig(
        learning_rate=args.finetune_lr, batch_size=args.batch_size,
        epochs_per_stage=args.epochs_per_stage, lr_step=args.lr_step,
        seed=args.seed,
    )
    schedule = iterative_compress if args.schedule == "iterative" else oneshot_compress
    try:
        net, log = schedule(baseline, data, ranks, cfg)
    except ValueError as exc:
        return _fail(EXIT_ARGS, str(exc))
    sys.stdout.write(log.to_text())
    if log.records and not log.diverged:
        final_acc = log.records[-1].post_accuracy
    else:
        _, final_acc = evaluate(net, data.test_x, data.test_y)
    print(f"baseline_accuracy\t{base_acc!r}")
    print(f"final_accuracy\t{final_acc!r}")
    if args.model_out:
        save(net, args.model_out)
    if log.diverged:
        return _fail(EXIT_DIVERGED, "a fine-tuning stage diverged (log above)")
    return EXIT_OK


def cmd_verify(args) -> int:
    failed = False
    eq = equivalence_suite(cases=args.verify_cases, seed=args.seed)
    status = "ok" if eq.passed else "FAIL"
    print(f"equivalence\t{eq.cases} cases\tmax_rel_err {eq.max_rel_err:.3e}\t{status}")
    failed |= not eq.passed

    trips = roundtrip_suite(trips=args.verify_trips, seed=args.seed)
    print(f"roundtrip\t{args.verify_trips} trips\t{len(trips)} failures\t"
          f"{'ok' if not trips else 'FAIL'}")
    for line in trips:
        print(f"  {line}", file=sys.stderr)
    failed |= bool(trips)

    bad = corruption_suite(seed=args.seed)
    print(f"corruption\t{len(bad)} failures\t{'ok' if not bad else 'FAIL'}")
    for line in bad:
        print(f"  {line}", file=sys.stderr)
    failed |= bool(bad)
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser(defaults: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpcompress",
        description="Compress small CNNs by factorizing convolutions and "
        "fully connected layers into low-rank stages.",
    )
    parser.add_argument("--config", help="JSON file overriding built-in defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=defaults["seed"])

    p = sub.add_parser("decompose", help="factorize a model and report savings")
    common(p)
    p.add_argument("--model-in", help="input model file")
    p.add_argument("--model-out", help="where to write the factorized model")
    p.add_argument("--arch", choices=["alexnet"], help="use a built-in preset")
    p.add_argument("--ranks-file", help="tab-separated layer->rank file")
    p.add_argument("--rank-budget", help="per-group budgets, e.g. conv=750,fc=900")
    p.add_argument("--analytic-only", action="store_true",
                   help="skip the instrumented forward pass")

    p = sub.add_parser("probe", help="sensitivity table on the built-in task")
    common(p)
    p.add_argument("--probe-rank", type=int, default=defaults["probe_rank"])
    p.add_argument("--probe-epochs", type=int, default=defaults["probe_epochs"])
    p.add_argument("--baseline-epochs", type=int, default=defaults["baseline_epochs"])
    p.add_argument("--baseline-lr", type=float, default=defaults["baseline_lr"])
    p.add_argument("--finetune-lr", type=float, default=defaults["finetune_lr"])
    p.add_argument("--lr-step", type=int, default=defaults["lr_step"])
    p.add_argument("--batch-size", type=int, default=defaults["batch_size"])

    p = sub.add_parser("allocate", help="turn a sensitivity report into ranks")
    common(p)
    p.add_argument("--report", required=True, help="sensitivity table file")
    p.add_argument("--budget", required=True, help="e.g. conv=750,fc=900")
    p.add_argument("--out", help="ranks file to write (default stdout)")

    p = sub.add_parser("train", help="run a compression schedule on the built-in task")
    common(p)
    p.add_argument("--schedule", choices=["iterative", "oneshot"], default="iterative")
    p.add_argument("--ranks-file")
    p.add_argument("--rank-fraction", type=float, default=defaults["rank_fraction"])
    p.add_argument("--baseline-epochs", type=int, default=defaults["baseline_epochs"])
    p.add_argument("--baseline-lr", type=float, default=defaults["baseline_lr"])
    p.add_argument("--finetune-lr", type=float, default=defaults["finetune_lr"])
    p.add_argument("--epochs-per-stage", type=int, default=defaults["epochs_per_stage"])
    p.add_argument("--lr-step", type=int, default=defaults["lr_step"])
    p.add_argument("--batch-size", type=int, default=defaults["batch_size"])
    p.add_argument("--model-out")

    p = sub.add_parser("verify", help="randomized equivalence and round-trip suites")
    common(p)
    p.add_argument("--verify-cases", type=int, default=defaults["verify_cases"])
    p.add_argument("--verify-trips", type=int, default=defaults["verify_trips"])

    return parser


_COMMANDS = {
    "decompose": cmd_decompose,
    "probe": cmd_probe,
    "allocate": cmd_allocate,
    "train": cmd_train,
    "verify": cmd_verify,
}


def _config_path(argv):
    """The --config value as the full parser would read it: ``--config PATH``,
    ``--config=PATH`` or an unambiguous abbreviation, before the subcommand."""
    pre = argparse.ArgumentParser(prog="cpcompress", add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    return pre.parse_known_args(argv)[0].config


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    defaults = dict(DEFAULTS)
    # A config file changes defaults only, so flags still win.
    try:
        config = _config_path(argv)
    except SystemExit as exc:
        return EXIT_ARGS if exc.code else EXIT_OK
    if config is not None:
        try:
            with open(config, "r", encoding="utf-8") as fh:
                overlay = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_FILE
        except ValueError as exc:  # bad JSON or bad UTF-8
            print(f"error: bad config: {exc}", file=sys.stderr)
            return EXIT_ARGS
        if not isinstance(overlay, dict):
            print("error: bad config: expected a JSON object", file=sys.stderr)
            return EXIT_ARGS
        unknown = set(overlay) - set(defaults)
        if unknown:
            print(f"error: unknown config keys {sorted(unknown)}", file=sys.stderr)
            return EXIT_ARGS
        defaults.update(overlay)
    parser = build_parser(defaults)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ARGS if exc.code else EXIT_OK
    problem = _bad_setting(args)
    if problem:
        return _fail(EXIT_ARGS, problem)
    try:
        return _COMMANDS[args.command](args)
    except _Refused as exc:
        return _fail(exc.code, str(exc))
    except DivergedError as exc:
        return _fail(EXIT_DIVERGED, f"training diverged: {exc}")


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
