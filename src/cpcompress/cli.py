"""Command-line interface.

Subcommands: decompose (factorize a model file or the built-in preset and
print the compression report), probe (sensitivity table on the built-in
task), allocate (losses + budgets -> ranks file), train (run a compression
schedule on the built-in task), verify (randomized equivalence and
round-trip suites).

Reports go to stdout as tab-separated tables; diagnostics go to stderr.
Exit codes: 0 success, 1 unreadable, missing or unwritable file, 2 invalid
ranks or arguments, 3 training diverged, 4 verification failure.

Each numeric setting is declared once, in ``_SETTINGS``; ``DEFAULTS`` holds
their built-in values.  A JSON config file (``--config``) overrides those,
and explicit flags override both.
"""

import argparse
import json
import math
import os
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

# Each numeric setting, declared once: (built-in default, least value,
# subcommands that take it as a flag).  The default's type is the setting's
# type.  A real has no least value: it must be positive and finite, and the
# rank fraction at most 1.
_ALL = ("decompose", "probe", "allocate", "train", "verify")
_TRAINING = ("probe", "train")
_SETTINGS = {
    "seed": (0, 0, _ALL),
    "probe_rank": (5, 1, ("probe",)),
    "probe_epochs": (1, 0, ("probe",)),
    "baseline_epochs": (16, 0, _TRAINING),
    "baseline_lr": (0.05, None, _TRAINING),
    "finetune_lr": (0.02, None, _TRAINING),
    "epochs_per_stage": (4, 1, ("train",)),
    "lr_step": (3, 1, _TRAINING),
    "batch_size": (32, 1, _TRAINING),
    "rank_fraction": (0.25, None, ("train",)),
    "verify_cases": (200, 0, ("verify",)),
    "verify_trips": (100, 0, ("verify",)),
}
DEFAULTS = {name: default for name, (default, _, _) in _SETTINGS.items()}

EXIT_OK = 0
EXIT_FILE = 1
EXIT_ARGS = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _bad_setting(settings: dict):
    """One-line complaint about the first out-of-range numeric setting in
    `settings`, or None.

    Config-file values arrive as raw JSON and flags as text that
    ``_typed_flags`` may have left unconverted, so the type is checked too:
    a bool is not an integer, nor a string a number.
    """
    for name, (_, least, _) in _SETTINGS.items():
        if name not in settings:
            continue
        value = settings[name]
        if least is not None:
            if type(value) is not int or value < least:
                return f"{_flag(name)} must be an integer >= {least}, got {value!r}"
        elif (
            type(value) not in (int, float)
            # False for NaN, the infinities and ints too large for a float.
            or not 0 < value <= sys.float_info.max
            or (name == "rank_fraction" and value > 1)
        ):
            limit = "in (0, 1]" if name == "rank_fraction" else "a positive number"
            return f"{_flag(name)} must be {limit}, got {value!r}"
    return None


def _typed_flags(values: dict) -> dict:
    """`values` with each numeric flag's text converted to its setting's
    type.  Text that does not convert, or converts to an out-of-range value,
    stays text, so that ``_bad_setting`` quotes it as it was typed."""
    typed = dict(values)
    for name, (default, _, _) in _SETTINGS.items():
        text = values.get(name)
        if not isinstance(text, str):
            continue  # not given
        try:
            value = type(default)(text)
        except ValueError:
            continue
        if _bad_setting({name: value}) is None:
            typed[name] = value
    return typed


class _Refused(Exception):
    """Bad input, reported as one error line and an exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_ranks(path, names, complete: bool = False) -> dict:
    """The ``layer<TAB>rank`` lines of a ranks file (blank, ``#`` and
    ``layer<TAB>`` header lines skipped).  Every name must be one of `names`,
    the target network's decomposable layers, and appear once; with
    `complete` every one of them must have a rank."""
    ranks = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("layer\t"):
                    continue
                name, value = line.split("\t")
                if name in ranks:
                    raise ValueError(f"layer {name!r} is listed twice")
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


def _check_output(path) -> None:
    """Refuse an output path that is a directory or lies in a missing one,
    before any work whose result it would hold."""
    if path is None:
        return
    if os.path.isdir(path):
        raise _Refused(EXIT_FILE, f"cannot write {path}: it is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise _Refused(EXIT_FILE, f"cannot write {path}: no such directory")


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
            key = key.strip()
            if not value:
                raise ValueError(f"bad budget component {part!r}; want group=N")
            if key in budgets:
                raise ValueError(f"group {key!r} is given twice")
            budgets[key] = int(value)
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
    """factorize a model and report savings"""
    _check_output(args.model_out)
    if args.arch == "alexnet":
        # The preset is its own model and carries its own ranks.
        for name in ("model_in", "rank_budget"):
            if getattr(args, name) is not None:
                return _fail(EXIT_ARGS, f"--arch alexnet cannot be combined with {_flag(name)}")
        original = alexnet()
        ranks = dict(ALEXNET_DEFAULT_RANKS)
        if args.ranks_file:
            ranks.update(_read_ranks(args.ranks_file, decomposable_layers(original)))
        _check_ranks(original, ranks)
        compressed = alexnet_decomposed(ranks)
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
    """sensitivity table on the built-in task"""
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
    """turn a sensitivity report into ranks"""
    _check_output(args.out)
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
    """run a compression schedule on the built-in task"""
    _check_output(args.model_out)
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
    """randomized equivalence and round-trip suites"""
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


_COMMANDS = {
    "decompose": cmd_decompose,
    "probe": cmd_probe,
    "allocate": cmd_allocate,
    "train": cmd_train,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpcompress",
        description="Compress small CNNs by factorizing convolutions and "
        "fully connected layers into low-rank stages.",
    )
    parser.add_argument("--config", help="JSON file overriding built-in defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {name: sub.add_parser(name, help=fn.__doc__) for name, fn in _COMMANDS.items()}
    p = commands["decompose"]
    p.add_argument("--model-in", help="input model file")
    p.add_argument("--model-out", help="where to write the factorized model")
    p.add_argument("--arch", choices=["alexnet"], help="use a built-in preset")
    p.add_argument("--ranks-file", help="tab-separated layer->rank file")
    p.add_argument("--rank-budget", help="per-group budgets, e.g. conv=750,fc=900")
    p.add_argument("--analytic-only", action="store_true",
                   help="skip the instrumented forward pass")

    p = commands["allocate"]
    p.add_argument("--report", required=True, help="sensitivity table file")
    p.add_argument("--budget", required=True, help="e.g. conv=750,fc=900")
    p.add_argument("--out", help="ranks file to write (default stdout)")

    p = commands["train"]
    p.add_argument("--schedule", choices=["iterative", "oneshot"], default="iterative")
    p.add_argument("--ranks-file")
    p.add_argument("--model-out")

    for name, (_, _, names) in _SETTINGS.items():
        for command in names:
            # No type= and no default: main converts the text, so a malformed
            # value gets the same one-line error as an out-of-range one, and
            # fills in the settings that were not given.
            commands[command].add_argument(_flag(name), default=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_ARGS if exc.code else EXIT_OK
    overlay = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                overlay = json.load(fh)
        except OSError as exc:
            return _fail(EXIT_FILE, f"cannot read config: {exc}")
        except ValueError as exc:  # bad JSON or bad UTF-8
            return _fail(EXIT_ARGS, f"bad config: {exc}")
        if not isinstance(overlay, dict):
            return _fail(EXIT_ARGS, "bad config: expected a JSON object")
        unknown = set(overlay) - set(DEFAULTS)
        if unknown:
            return _fail(EXIT_ARGS, f"unknown config keys {sorted(unknown)}")
    flags = _typed_flags(vars(args))
    # Every config value is checked, whether or not the subcommand takes the
    # setting, and before the flags that override it.
    problem = _bad_setting(overlay) or _bad_setting(flags)
    if problem:
        return _fail(EXIT_ARGS, problem)
    args = argparse.Namespace(**{**DEFAULTS, **overlay, **flags})
    try:
        # Every non-finite result ends in DivergedError or a diverged log, so
        # numpy's overflow warnings would only repeat the one error line.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except _Refused as exc:
        return _fail(exc.code, str(exc))
    except DivergedError as exc:
        return _fail(EXIT_DIVERGED, f"training diverged: {exc}")
    except OSError as exc:
        # Every read is refused where it happens; this is a failed write.
        return _fail(EXIT_FILE, f"cannot write: {exc}")


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
