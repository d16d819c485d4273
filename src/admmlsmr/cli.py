"""Command-line entry point: training runs, rounding-mode comparison sweeps,
per-procedure profiling and fixed-point self-checks."""
from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys

import numpy as np

from . import data as datamod
from .admm import ARITHMETICS, NetworkConfig, TrainingDivergedError, TrainReport, train
from .data import DataError, Dataset
from .fixedpoint import FIXED16, FIXED32, RoundingMode, convert, stream_keys, value_of
from .lsmr import SQRT_PATHS

ROUNDINGS = [m.value for m in RoundingMode]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError, ValueError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admmlsmr",
        description="Train feed-forward networks without gradients; profile and "
        "compare the fixed-point solver variants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train once and emit a JSON report")
    _add_run_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_cmp = sub.add_parser(
        "compare-rounding",
        help="mean/stdev accuracy per arithmetic/rounding mode over repeated runs",
    )
    _add_run_flags(p_cmp)
    p_cmp.add_argument("--runs", type=int, default=10, help="runs per mode (>= 2)")
    p_cmp.set_defaults(func=cmd_compare_rounding)

    p_prof = sub.add_parser("profile", help="per-procedure time percentages")
    _add_run_flags(p_prof, iters_default=5)
    p_prof.set_defaults(func=cmd_profile)

    p_self = sub.add_parser(
        "selftest", help="bit-exact fixed-point fixtures and stream-key checks"
    )
    p_self.set_defaults(func=cmd_selftest)
    return parser


def _add_run_flags(p: argparse.ArgumentParser, iters_default: int = 100) -> None:
    p.add_argument("--data", help="CSV dataset path")
    p.add_argument(
        "--synthetic",
        type=_widths,
        metavar="D,N,K",
        help="generate D features x N samples with K Gaussian classes instead of --data",
    )
    p.add_argument("--label-col", type=int, help="label column index of --data (default -1)")
    p.add_argument("--has-header", action="store_true", help="skip one header line of --data")
    p.add_argument("--arch", type=_widths, required=True, help="layer widths, e.g. 4,8,8,3")
    p.add_argument("--iters", type=int, default=iters_default, help="training sweeps")
    p.add_argument("--arithmetic", choices=ARITHMETICS, default="real")
    p.add_argument("--rounding", choices=ROUNDINGS, default="nearest")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, help="ranges of the output weight solve")
    p.add_argument("--test-frac", type=float, default=0.2)
    p.add_argument("--subsample", type=int, default=None, help="rows kept before splitting")
    p.add_argument("--lsmr-iters", type=int, default=None, help="override min(m,n)")
    p.add_argument("--sqrt-path", choices=SQRT_PATHS, default="float")
    p.add_argument("--bias-feature", action="store_true", help="append a constant-1 feature")
    p.add_argument("--out", help="write the report here instead of stdout")


def _widths(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _load(args) -> tuple[Dataset, dict]:
    _config(args)  # a bad flag fails here, before any data is read
    if bool(args.data) == bool(args.synthetic):
        raise DataError("provide exactly one of --data or --synthetic")
    if args.synthetic and (args.label_col is not None or args.has_header):
        raise DataError("--label-col and --has-header apply to --data only, not --synthetic")
    if args.data:
        label_col = -1 if args.label_col is None else args.label_col
        ds = datamod.load_csv(args.data, label_col, args.has_header)
        info = {"path": args.data}
    else:
        if len(args.synthetic) != 3:
            raise DataError("--synthetic wants D,N,K integers")
        d, n, k = args.synthetic
        ds = datamod.synthetic_blobs(d, n, k, args.seed)
        info = {"synthetic": {"features": d, "samples": n, "classes": k}}
    if args.subsample is not None:
        ds = datamod.subsample(ds, args.subsample, args.seed)
    info.update(
        samples=ds.n_samples,
        features=ds.n_features + args.bias_feature,  # _run_once appends the bias row
        classes=ds.class_count,
        subsample=args.subsample,
        test_fraction=args.test_frac,
    )
    return ds, info


def _config(args, seed: int | None = None, arithmetic: str | None = None,
            rounding: str | None = None) -> NetworkConfig:
    return NetworkConfig(
        layer_dims=args.arch,
        iterations=args.iters,
        arithmetic=arithmetic or args.arithmetic,
        rounding=RoundingMode(rounding or args.rounding),
        beta=args.beta,
        gamma=args.gamma,
        seed=args.seed if seed is None else seed,
        workers=args.workers,
        lsmr_iterations=args.lsmr_iters,
        sqrt_path=args.sqrt_path,
    )


def _run_once(args, seed: int, arithmetic: str, rounding: str,
              ds: Dataset) -> TrainReport:
    sp = datamod.split(ds, args.test_frac, seed)
    tr, te, _ = datamod.standardize(sp.train, sp.test)
    if args.bias_feature:
        # after standardizing, which would map the constant row to zeros
        tr, te = datamod.add_bias_feature(tr), datamod.add_bias_feature(te)
    cfg = _config(args, seed=seed, arithmetic=arithmetic, rounding=rounding)
    _, report = train(cfg, tr, te)
    return report


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_train(args) -> int:
    ds, info = _load(args)
    report = _run_once(args, args.seed, args.arithmetic, args.rounding, ds)
    payload = report.to_dict()
    payload["dataset"] = info
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_compare_rounding(args) -> int:
    if args.runs < 2:
        raise DataError("--runs must be at least 2")
    ds, _ = _load(args)
    modes = [("real", "nearest")] + [
        (args.arithmetic if args.arithmetic != "real" else "fixed32", m)
        for m in ("nearest", "stochastic", "up", "down")
    ]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["arithmetic", "rounding", "runs", "mean_accuracy", "stdev_accuracy"])
    for arithmetic, rounding in modes:
        accs = [
            _run_once(args, args.seed + r, arithmetic, rounding, ds).test_accuracy
            for r in range(args.runs)
        ]
        writer.writerow(
            [arithmetic, rounding, args.runs,
             f"{statistics.mean(accs):.6f}", f"{statistics.stdev(accs):.6f}"]
        )
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_profile(args) -> int:
    ds, info = _load(args)
    report = _run_once(args, args.seed, args.arithmetic, args.rounding, ds)
    payload = {
        "config": report.to_dict()["config"],
        "dataset": info,
        "percentages": report.percentages(),
        "totals_seconds": report.totals(),
        "wall_seconds": report.wall_seconds,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_selftest(args) -> int:
    """Bit-pattern fixtures for the word formats and stream keys checked
    against numpy's ``SeedSequence``; nonzero exit on any miss."""
    checks: list[tuple[str, bool]] = []

    w = convert(23.1337890625, FIXED16)
    checks.append(("16-bit rep of 23.1337890625 is 23689", w.rep == 23689))
    checks.append(
        ("16-bit value of rep -28254 is -27.591796875",
         value_of(FIXED16.word(-28254)) == -27.591796875)
    )
    checks.append(("16-bit epsilon rep is 1", FIXED16.word(1).value == 2.0**-10))
    checks.append(("32-bit upper bound is 0x7FFFFFFF", FIXED32.ubound == 0x7FFFFFFF))
    checks.append(
        ("32-bit lower bound is 0x80000000",
         FIXED32.lbound & 0xFFFFFFFF == 0x80000000 and FIXED32.lbound == -(2**31))
    )
    checks.append(("32-bit one is 0x00040000", FIXED32.one == 1 << 18))
    checks.append(
        ("32-bit minus one is 0xFFFC0000", FIXED32.minus_one & 0xFFFFFFFF == 0xFFFC0000)
    )
    checks.append(
        ("32-bit range is [-8192, 8192 - 2**-18]",
         FIXED32.lbound_value == -8192.0 and FIXED32.ubound_value == 8192.0 - 2.0**-18)
    )
    saturated = convert(1e10, FIXED32)
    checks.append(("32-bit conversion saturates at the upper bound",
                   saturated.rep == FIXED32.ubound))
    # the stream keys mix the column word as numpy's SeedSequence does;
    # check it here
    for seed, key, col in ((0, (3, 1), 0), (2**32 + 7, (3, 2**33), 119),
                           (2**70 + 5, (2, 9), 2**32 - 1)):
        want = np.random.SeedSequence(seed, spawn_key=(*key, col)).generate_state(2, np.uint64)
        checks.append(
            (f"stream key of seed {seed}, key {(*key, col)} matches SeedSequence",
             stream_keys(seed, key, [col])[0].tolist() == want.tolist())
        )

    failed = 0
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} fixtures passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
