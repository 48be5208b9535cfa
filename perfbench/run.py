#!/usr/bin/env python3
"""tlxs benchmark: one client, one thread, closed loop, outputs checked.

Run from the root of a tlxs checkout; the codec is imported from ``src/``:

    python3 perfbench/run.py --workload default_roundtrip --seed 1 \\
        --seconds 25 --trace 0

Workloads (see README.md): ``default_roundtrip``, ``wavelet_rate_sweep``,
``base_preview``. The loop runs whole cycles over the workload's items until
``--seconds`` is about spent; each operation starts when the previous one
has finished.

``--trace 0`` times the public API untraced and reports end-to-end figures.
``--trace 1`` composes every operation from the stage functions with a span
around each layer call, checks the result against the untraced pipeline,
and reports per-layer figures. Span lists and, for wavelet_rate_sweep, the
rate-and-time sweep CSVs are written to ``perfbench/out/``.

Standard output ends with a human-readable summary, one ``report`` JSON line
(environment, every metric, sample counts) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_src() -> None:
    """Import tlxs from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "tlxs" / "__init__.py").is_file():
        raise SystemExit(f"error: no tlxs sources under {src}; run from a tlxs checkout")
    sys.path.insert(0, str(src))


def _loadavg() -> float | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return float(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("default_roundtrip", "wavelet_rate_sweep", "base_preview"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loadavg = _loadavg()
    use_checkout_src()
    start = time.perf_counter()
    import bench  # imports numpy and tlxs; part of set-up time

    import_s = time.perf_counter() - start
    report, result = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s, loadavg
    )
    bench.print_run(report, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
