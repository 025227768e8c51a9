"""Command line interface: decompose, bounds, synth, verify.

Exit codes: 0 success, 1 input/format errors, 2 no decomposition found,
3 verification above threshold.  Structured results go to ``-o`` files;
stdout carries a human-readable summary and stderr the diagnostics.
Set TDEC_LOG=info|debug to trace the decomposition attempts.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

from .algebra import DegreeOverflowError
from .decompose import (
    DecomposeOptions,
    DecompositionError,
    decompose,
    rank_bounds,
    verify,
)
from .files import (
    DecompositionFile,
    FormatError,
    load_decomposition,
    load_tensor,
    synthesize,
    write_json,
)

log = logging.getLogger("tdec")


def _setup_logging(verbose: bool):
    level_name = os.environ.get("TDEC_LOG", "")
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        level_name.lower(), logging.DEBUG if verbose else logging.WARNING
    )
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(name)s %(levelname)s %(message)s"
    )


def _fmt_num(x) -> str:
    x = complex(x)
    if x.imag == 0:
        return f"{x.real:.6g}"
    return f"({x.real:.6g}{x.imag:+.6g}j)"


def cmd_decompose(args) -> int:
    tf = load_tensor(args.input)
    if tf.tensor.is_zero():
        raise FormatError(f"{args.input}: zero tensor")
    if args.field == "complex" or tf.field == "complex":
        from .algebra import Polynomial

        tf.tensor = Polynomial(
            tf.shape, {m: complex(c) for m, c in tf.tensor.terms.items()}
        )
    opts = DecomposeOptions(
        max_rank=args.max_rank,
        tol_rank=args.tol_rank,
        tol_resid=args.tol_resid,
        seed=args.seed,
        reduce=args.reduce,
    )
    started = time.monotonic()
    try:
        dec = decompose(tf.tensor, opts)
    except DecompositionError as exc:
        print(f"no decomposition found: {exc}", file=sys.stderr)
        if args.output:
            write_json(
                args.output,
                {
                    "error": str(exc),
                    "report": {
                        k: v for k, v in exc.report.items() if _jsonable(v)
                    },
                },
            )
        return 2
    elapsed_ms = int(1000 * (time.monotonic() - started))
    # the flattening rank that decompose read, unless it decomposed an
    # HOSVD-compressed core, whose bounds are not those of the input
    bounds = rank_bounds(tf.tensor, args.tol_rank, dec.meta.get("lower_bound"))
    meta = {
        "seed": args.seed,
        "tolerances": {"tol_rank": args.tol_rank, "tol_resid": args.tol_resid},
        "bounds": {
            "lower": bounds.lower,
            "upper": bounds.upper,
            "expected": bounds.expected,
            "kruskal": bounds.kruskal,
        },
        "coordinate_change_applied": bool(
            dec.meta.get("coordinate_change_applied", False)
        ),
        "reduced": bool(dec.meta.get("reduced", False)),
    }
    if meta["reduced"]:
        meta["multilinear_rank"] = list(dec.meta["multilinear_rank"])
        meta["compression_error"] = float(dec.meta["compression_error"])
    if args.timing:
        meta["elapsed_ms"] = elapsed_ms
    out = DecompositionFile(dec.shape, dec, meta)
    print(f"rank {dec.rank}, residual {dec.residual:.3e}")
    for w, p in dec.terms:
        coords = " | ".join(
            ",".join(_fmt_num(x) for x in c) for c in p.coords
        )
        print(f"  weight {_fmt_num(w)}  point {coords}")
    if args.output:
        write_json(args.output, out.to_obj())
    return 0


def _jsonable(v):
    return isinstance(v, (int, float, str, bool, type(None)))


def cmd_bounds(args) -> int:
    tf = load_tensor(args.input)
    b = rank_bounds(tf.tensor, args.tol_rank)
    print(f"lower    {b.lower}")
    print(f"upper    {b.upper}")
    print(f"expected {b.expected}")
    print(f"kruskal  {b.kruskal if b.kruskal is not None else 'n/a'}")
    if args.output:
        write_json(
            args.output,
            {
                "lower": b.lower,
                "upper": b.upper,
                "expected": b.expected,
                "kruskal": b.kruskal,
            },
        )
    return 0


def cmd_synth(args) -> int:
    tf, truth = synthesize(
        dims=args.dims,
        degrees=args.degrees,
        rank=args.rank,
        seed=args.seed,
        noise=args.noise,
        fld=args.field,
    )
    write_json(args.output, tf.to_obj())
    truth_path = args.truth_output or _default_truth_path(args.output)
    write_json(truth_path, truth.to_obj())
    print(f"wrote {args.output} and {truth_path}")
    return 0


def _default_truth_path(path: str) -> str:
    stem, dot, _ = path.rpartition(".")
    return (stem if dot else path) + ".truth.json"


def cmd_verify(args) -> int:
    tf = load_tensor(args.input)
    df = load_decomposition(args.decomposition)
    if df.shape != tf.shape:
        raise FormatError(
            f"shape mismatch: tensor {tf.shape.dims}/{tf.shape.degrees} vs "
            f"decomposition {df.shape.dims}/{df.shape.degrees}"
        )
    residual = verify(tf.tensor, df.decomposition)
    print(f"residual {residual:.6e}")
    return 0 if residual <= args.threshold else 3


def tolerance(text: str) -> float:
    """A finite, non-negative float; argparse reports a ValueError here as
    an invalid tolerance value."""
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdec",
        description="Rank-one decomposition of partially symmetric tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("-i", "--input", required=True, help="tensor JSON file")
        if output:
            p.add_argument("-o", "--output", help="write structured result here")
        p.add_argument("--tol-rank", type=tolerance, default=1e-8)
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("decompose", help="compute a minimal decomposition")
    common(p)
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--tol-resid", type=tolerance, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reduce", action="store_true",
                   help="HOSVD-compress to the multilinear rank first")
    p.add_argument("--field", choices=["real", "complex"], default=None,
                   help="override the field declared in the input file")
    p.add_argument("--timing", action="store_true",
                   help="record elapsed_ms in the output meta")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bounds", help="print rank bounds")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("synth", help="generate a random instance")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--truth-output", help="ground-truth path "
                   "(default: <output>.truth.json)")
    p.add_argument("--dims", type=int, nargs="+", required=True)
    p.add_argument("--degrees", type=int, nargs="+", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=tolerance, default=0.0)
    p.add_argument("--field", choices=["real", "complex"], default="real")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="check a decomposition against a tensor")
    common(p, output=False)
    p.add_argument("-d", "--decomposition", required=True)
    p.add_argument("--threshold", type=tolerance, default=1e-6)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(getattr(args, "verbose", False))
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, DegreeOverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
