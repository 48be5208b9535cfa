"""Command-line front end.

Exit codes: 0 success, 1 runtime error (codec or I/O), 2 usage error.
Human-readable summaries go to stdout, errors to stderr, data to files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .base import LOSSLESS_BASE, BaseConfig
from .container import HEADER_SIZE, decode_base_only, demux, read_headers
from .errors import CodecError
from .image import bits_per_pixel
from .pipeline import bench_sweep, decode_two_layer, encode_two_layer_detailed, rows_to_csv
from .pnm import load_pnm, store_pnm
from .residual import LosslessCoderId

_CODER_BY_NAME = {c.name.lower(): c for c in LosslessCoderId}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlxs",
        description="Two-layer lossless image codec (lossy base + lossless extension).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a PNM image into a layered file")
    enc.add_argument("--input", required=True, help="input PGM/PPM image")
    enc.add_argument("--output", required=True, help="output layered file")
    rate = enc.add_mutually_exclusive_group()
    rate.add_argument("--bpp", type=float, default=2.0, help="base layer target bpp (default 2.0)")
    rate.add_argument("--no-base", action="store_true", help="skip the base layer entirely")
    rate.add_argument(
        "--lossless-base", action="store_true", help="unquantized (step 1) base layer"
    )
    enc.add_argument(
        "--coder",
        choices=sorted(_CODER_BY_NAME),
        default="predictive",
        help="lossless coder for the extension layer",
    )
    enc.add_argument("--levels-h", type=int, default=5, help="horizontal decomposition levels")
    enc.add_argument("--levels-v", type=int, default=2, help="vertical decomposition levels (max 2)")

    dec = sub.add_parser("decode", help="losslessly decode a layered file")
    dec.add_argument("--input", required=True)
    dec.add_argument("--output", required=True, help="output PNM image")

    dbase = sub.add_parser("decode-base", help="decode only the lossy base layer")
    dbase.add_argument("--input", required=True)
    dbase.add_argument("--output", required=True, help="output PNM image")

    ins = sub.add_parser("inspect", help="print header and layer info without decoding samples")
    ins.add_argument("file", help="layered file to inspect")

    ben = sub.add_parser("bench", help="rate sweep producing a CSV")
    ben.add_argument("--input", required=True, help="input PGM/PPM image")
    ben.add_argument("--out", required=True, help="output CSV path")
    ben.add_argument(
        "--grid",
        default="0,0.5,1,2,4",
        help="comma-separated base bpp targets; must include 0",
    )
    ben.add_argument(
        "--coders",
        default="predictive,wavelet",
        help="comma-separated subset of: predictive, wavelet",
    )
    return parser


def _cmd_encode(args: argparse.Namespace) -> int:
    image = load_pnm(args.input)
    config = None if args.no_base else BaseConfig(
        levels_h=args.levels_h,
        levels_v=args.levels_v,
        target_bpp=LOSSLESS_BASE if args.lossless_base else args.bpp,
    )
    details = encode_two_layer_detailed(image, config, _CODER_BY_NAME[args.coder])
    Path(args.output).write_bytes(details.file_bytes)
    if details.overshoot:
        print("warning: target below reachable rate; coarsest stream written", file=sys.stderr)
    base_bpp = bits_per_pixel(len(details.base_bytes), image.width, image.height)
    ext_bpp = bits_per_pixel(len(details.ext_bytes), image.width, image.height)
    total_bpp = bits_per_pixel(len(details.file_bytes), image.width, image.height)
    print(f"base: {base_bpp:.4f} bpp  ext: {ext_bpp:.4f} bpp  total: {total_bpp:.4f} bpp")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    result = decode_two_layer(Path(args.input).read_bytes())
    store_pnm(result.image, args.output)
    print(f"lossless: {'true' if result.lossless else 'false'}")
    return 0


def _cmd_decode_base(args: argparse.Namespace) -> int:
    image = decode_base_only(Path(args.input).read_bytes())
    store_pnm(image, args.output)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    data = Path(args.file).read_bytes()
    base, ext, meta = demux(data)
    base_info, ext_info = read_headers(base, ext, meta)
    print(f"container: {len(data)} bytes (header {HEADER_SIZE})")
    print(f"image: {meta.width}x{meta.height}, {meta.components} component(s), {meta.bit_depth}-bit")
    print(f"coder: {ext_info.coder.name.lower() if ext_info else 'none'}")
    print(f"base: {len(base)} bytes")
    print(f"extension: {'absent' if not ext else f'{len(ext)} bytes'}")
    if base_info:
        print(f"base levels: {base_info.levels_h} horizontal / {base_info.levels_v} vertical")
        print("band  comp  size       step   k  bits")
        for record in base_info.records:
            print(
                f"{record.name:<5} {record.component:<5} "
                f"{record.width:>4}x{record.height:<5} "
                f"{record.step:<6} {record.k:<2} {record.bits}"
            )
    if ext_info:
        print(f"extension coder: {ext_info.coder.name.lower()}, depth {ext_info.depth}")
        for comp, part in enumerate(ext_info.components):
            print(f"extension component {comp}: {part.length} bytes")
        if ext_info.coder == LosslessCoderId.WAVELET:
            print("band  comp  size       k  bits")
            for comp, part in enumerate(ext_info.components):
                for band in part.bands:
                    print(
                        f"{band.name:<5} {comp:<5} {band.width:>4}x{band.height:<5} "
                        f"{band.k:<2} {band.bits}"
                    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    image = load_pnm(args.input)
    try:
        grid = [float(part) for part in args.grid.split(",") if part.strip() != ""]
    except ValueError:
        raise CodecError(f"bad grid {args.grid!r}") from None
    coder_names = [part.strip() for part in args.coders.split(",") if part.strip()]
    unknown = [name for name in coder_names if name not in _CODER_BY_NAME]
    if unknown:
        raise CodecError(f"unknown coder(s): {', '.join(unknown)}")
    coders = [_CODER_BY_NAME[name] for name in coder_names]
    rows = bench_sweep(image, grid, coders)
    Path(args.out).write_text(rows_to_csv(rows), encoding="ascii")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "decode-base": _cmd_decode_base,
    "inspect": _cmd_inspect,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (CodecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
