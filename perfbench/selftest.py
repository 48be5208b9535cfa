#!/usr/bin/env python3
"""Fast self-test of the benchmark itself, on 32x32 images (a few seconds).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
1. every metric BENCHMARK.json names is printed in the result line, with its
   unit, for every workload and both run kinds;
2. the traced composition is byte-identical to ``encode_two_layer`` and its
   decodes equal ``decode_two_layer`` and ``decode_base_only``;
3. a deliberately corrupted stream is counted in ``failed_frac`` and makes
   the run incorrect, and a container that misses its digest is counted in
   ``stream_drift``.
"""

import io
import json
import math
import sys
from contextlib import redirect_stdout

import run

TOY = 32
SEED = 3


def result_line(report: dict, result: dict) -> dict:
    """What the benchmark prints last, parsed back."""
    import bench

    out = io.StringIO()
    with redirect_stdout(out):
        bench.print_run(report, result)
    return json.loads(out.getvalue().splitlines()[-1])


def check_metrics_printed(spec: dict, digests: dict) -> None:
    import bench

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line = result_line(
                *bench.run(workload, SEED, 0.01, trace, size=TOY, digests=digests)
            )
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {got} != {want}"
            for name, metric in line["metrics"].items():
                value = metric["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), (
                    f"{workload}: {name} = {value!r}"
                )
            assert line["correct"] and line["failed"] == 0, f"{workload}: {line}"
            assert line["attempted"] >= 1


def check_composition() -> None:
    import traced
    import workloads
    from tlxs.container import decode_base_only
    from tlxs.pipeline import decode_two_layer, encode_two_layer
    from tlxs.pnm import serialize_pnm

    tr = traced.Tracer()
    for workload in ("default_roundtrip", "wavelet_rate_sweep"):
        for item in workloads.build(workload, SEED, TOY):
            data, _image, _base, _steps = traced.encode(
                tr, item.pnm, item.config, item.coder
            )
            assert data == encode_two_layer(item.image, item.config, item.coder), (
                f"composed encode differs: {item.label}"
            )
            expected = decode_two_layer(data)
            assert traced.decode(tr, data) == (
                serialize_pnm(expected.image),
                expected.lossless,
            ), f"composed decode differs: {item.label}"
    for item in workloads.build("base_preview", SEED, TOY):
        assert traced.decode_base_only(tr, item.container) == decode_base_only(
            item.container
        ), f"composed base decode differs: {item.label}"


def flip_base_byte(data: bytes) -> bytes:
    """Flip the top bit of the last base-payload byte, a Rice data bit."""
    from tlxs.container import HEADER_SIZE, demux

    base, _ext, _meta = demux(data)
    corrupted = bytearray(data)
    corrupted[HEADER_SIZE + len(base) - 1] ^= 0x80
    return bytes(corrupted)


def flip_ext_bit(data: bytes) -> bytes:
    """Flip a bit three quarters into the file, inside the extension payload.

    Most such flips decode without error to a wrong image.
    """
    corrupted = bytearray(data)
    corrupted[(len(data) + len(data) // 2) // 2] ^= 0x01
    return bytes(corrupted)


def check_failures_counted(digests: dict) -> None:
    import bench

    for workload, mutate, decodes_per_attempt in (
        ("default_roundtrip", flip_base_byte, 0.5),
        ("default_roundtrip", flip_ext_bit, 0.5),
        ("base_preview", flip_base_byte, 1.0),
    ):
        report, result = bench.run(
            workload, SEED, 0.01, False, size=TOY, digests=digests, mutate=mutate
        )
        failed_frac = report["metrics"]["failed_frac"]["value"]
        assert not result["correct"], f"{workload}: corrupted run reported correct"
        assert result["failed"] == result["attempted"] * decodes_per_attempt, (
            f"{workload}: {result['failed']} of {result['attempted']} counted failed"
        )
        assert failed_frac == decodes_per_attempt, f"{workload}: failed_frac {failed_frac}"
    report, result = bench.run("base_preview", SEED, 0.01, False, size=TOY, digests={})
    drift = report["metrics"]["stream_drift"]["value"]
    assert drift == 8 and not result["correct"], f"stream_drift {drift}"


def main() -> int:
    run.use_checkout_src()
    import workloads

    with open(run.ROOT / "BENCHMARK.json", encoding="ascii") as handle:
        spec = json.load(handle)
    digests = workloads.compute_digests(SEED, TOY)
    check_metrics_printed(spec, digests)
    check_composition()
    check_failures_counted(digests)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
