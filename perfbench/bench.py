"""Timed loops, correctness checks and metrics of the tlxs benchmark.

``run.py`` is the entry point; it puts the checkout's ``src/`` on the path
before this module imports tlxs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

import tlxs
import traced
import workloads
from tlxs.container import HEADER_SIZE, decode_base_only
from tlxs.image import bits_per_pixel, measure, psnr
from tlxs.pipeline import (
    DecodeResult,
    SweepRow,
    decode_two_layer,
    encode_two_layer_detailed,
    rows_to_csv,
)
from tlxs.pnm import parse_pnm, serialize_pnm

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3

# Gated figures: present for every workload, named in BENCHMARK.json.
END_TO_END_UNITS = {
    "setup_s": "s",
    "trip_mb_s": "MB/s",
    "trip_ms_p50_gmean": "ms",
    "total_bps": "bit/sample",
    "base_psnr_db": "dB",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "pnm.parse_ms": "ms",
    "pnm.serialize_ms": "ms",
    "dwt.decompose_ms": "ms",
    "dwt.recompose_ms": "ms",
    "base.rate_control_ms": "ms",
    "base.rc_k_searches": "count",
    "base.encode_ms": "ms",
    "base.band_code_ms": "ms",
    "base.decode_ms": "ms",
    "base.bytes": "B",
    "residual.shift_ms": "ms",
    "residual.predictive_encode_ms": "ms",
    "residual.predictive_decode_ms": "ms",
    "residual.wavelet_encode_ms": "ms",
    "residual.wavelet_decode_ms": "ms",
    "residual.ext_bytes": "B",
    "container.mux_ms": "ms",
    "container.demux_ms": "ms",
    "pipeline.encode_self_ms": "ms",
    "pipeline.decode_self_ms": "ms",
    "trace.overhead_frac": "frac",
}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, loadavg: float | None) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tlxs").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "corpus_seed": workloads.corpus_seed(seed),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tlxs": tlxs.__version__,
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": loadavg,
        "loop": "closed, 1 client, 1 thread",
    }


def _timing(values_ms: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values_ms)
    n = len(ordered)
    tail = ordered[n - 11] if n > 10 else None
    return {
        "p50": statistics.median(ordered) if n else None,
        "tail": tail,
        "percentile": int(1000 * (n - 10) / n) / 10 if tail is not None else None,
        "n": n,
    }


def _mb_s(nbytes: int, values_ms: list[float]) -> float | None:
    total = sum(values_ms)
    return nbytes / 1e6 / (total / 1000.0) if total else None


class Tally:
    """Timings and correctness counts of one untraced run."""

    def __init__(self, digests: dict[str, str]) -> None:
        self.digests = digests
        self.ms: dict[str, list[float]] = {}
        self.op_bytes: dict[str, int] = {}
        self.trip_ms: dict[str, list[float]] = {}
        self.trip_bytes: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.drifted: set[str] = set()
        self.coded_bytes: dict[str, int] = {}
        self.samples: dict[str, int] = {}
        self.psnr: dict[str, float] = {}

    def op(self, kind: str, item, call):
        """Time one operation; returns (value, seconds), or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = call()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        elapsed = time.perf_counter() - start
        self.ms.setdefault(kind, []).append(1000.0 * elapsed)
        self.op_bytes[kind] = self.op_bytes.get(kind, 0) + len(item.pnm)
        return value, elapsed

    def wrong(self, item, what: str) -> None:
        self.failed += 1
        print(f"wrong result: {item.label}: {what}", file=sys.stderr)

    def trip(self, item, seconds: float) -> None:
        self.trip_ms.setdefault(item.label, []).append(1000.0 * seconds)
        self.trip_bytes[item.label] = len(item.pnm)

    def stream(self, item, data: bytes, base_image) -> None:
        """Hash a container against its committed digest; note its size once."""
        if workloads.sha256(data) != self.digests.get(item.label):
            if item.label not in self.drifted:
                print(f"stream drift: {item.label}", file=sys.stderr)
            self.drifted.add(item.label)
        if item.label not in self.coded_bytes:
            self.coded_bytes[item.label] = len(data)
            image = item.image
            self.samples[item.label] = image.width * image.height * image.components
            if base_image is not None:
                self.psnr[item.label] = psnr(image, base_image)


def _cycles(items, trip, seconds: float) -> int:
    """Run whole cycles until the next one would end past ``seconds``, on average."""
    start = time.perf_counter()
    cycles = 0
    while True:
        for item in items:
            trip(item)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            return cycles


def _decode_to_pnm(data: bytes) -> tuple[bytes, DecodeResult]:
    result = decode_two_layer(data)
    return serialize_pnm(result.image), result


def run_untraced(workload: str, items, seconds: float, digests, mutate=None) -> tuple[Tally, int]:
    tally = Tally(digests)

    def roundtrip(item) -> None:
        encoded = tally.op(
            "encode",
            item,
            lambda: encode_two_layer_detailed(parse_pnm(item.pnm), item.config, item.coder),
        )
        if encoded is None:
            return
        details, t_encode = encoded
        tally.stream(item, details.file_bytes, details.base_image)
        data = mutate(details.file_bytes) if mutate else details.file_bytes
        decoded = tally.op("decode", item, lambda: _decode_to_pnm(data))
        if decoded is None:
            return
        (pnm, result), t_decode = decoded
        if not result.lossless:
            tally.wrong(item, "decode did not report lossless: true")
        elif pnm != item.pnm:
            tally.wrong(item, "decoded image differs from the input")
        tally.trip(item, t_encode + t_decode)

    def preview(item) -> None:
        data = mutate(item.container) if mutate else item.container
        decoded = tally.op("base_decode", item, lambda: decode_base_only(data))
        if decoded is None:
            return
        image, t_decode = decoded
        if image != item.base_image:
            tally.wrong(item, "base-only decode differs from the encoder's base image")
        tally.trip(item, t_decode)

    if workload == "base_preview":
        for item in items:
            tally.stream(item, item.container, item.base_image)
        cycles = _cycles(items, preview, seconds)
    else:
        cycles = _cycles(items, roundtrip, seconds)
    return tally, cycles


def untraced_metrics(tally: Tally, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """(gated end-to-end metrics, every end-to-end figure for the report)."""
    samples = sum(tally.samples.values())
    # PSNR of the mean peak-normalized squared error over all base layers:
    # an exact base (infinite PSNR) adds zero error instead of an infinity.
    nmse = [10.0 ** (-db / 10.0) for db in tally.psnr.values()]
    exact = sum(1 for db in tally.psnr.values() if math.isinf(db))
    # Each item at its median trip time: medians keep a burst of machine
    # noise in one trip from moving the gated figures. The throughput is one
    # such median cycle; the latency is their geometric mean, because the
    # median of all trips falls between two items' times when a cycle holds
    # an even number of items, and jumps between them with noise.
    item_ms = [statistics.median(v) for v in tally.trip_ms.values()]
    gated = {
        "setup_s": setup_s,
        "trip_mb_s": _mb_s(sum(tally.trip_bytes.values()), item_ms),
        "trip_ms_p50_gmean": statistics.geometric_mean(item_ms) if item_ms else None,
        "total_bps": 8.0 * sum(tally.coded_bytes.values()) / samples if samples else None,
        "base_psnr_db": -10.0 * math.log10(statistics.fmean(nmse)) if exact < len(nmse) else None,
        "peak_rss_mb": peak_rss_mb,
    }
    report = {name: {"value": gated[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    report["base_exact"] = {"value": exact, "unit": "count", "of": len(nmse)}
    for kind, values in tally.ms.items():
        timing = _timing(values)
        report[f"{kind}_mb_s"] = {"value": _mb_s(tally.op_bytes[kind], values), "unit": "MB/s"}
        report[f"{kind}_ms_p50"] = {"value": timing["p50"], "unit": "ms", "n": timing["n"]}
        report[f"{kind}_ms_tail"] = {
            "value": timing["tail"],
            "unit": "ms",
            "percentile": timing["percentile"],
            "n": timing["n"],
        }
    report["failed_frac"] = {
        "value": tally.failed / tally.attempted if tally.attempted else 0.0,
        "unit": "frac",
        "failed": tally.failed,
        "attempted": tally.attempted,
    }
    report["stream_drift"] = {
        "value": len(tally.drifted),
        "unit": "count",
        "containers_checked": len(tally.coded_bytes),
    }
    return gated, report


def _sweep_row(item, details, result, image) -> SweepRow:
    """The ``bench_sweep`` row for one encode and its decode."""
    if details.base_image is not None:
        base = measure(image, details.base_image, len(details.base_bytes))
        base_bpp, base_psnr = base.bpp, base.psnr_db
    else:
        base_bpp, base_psnr = 0.0, None
    return SweepRow(
        coder=item.coder.name.lower(),
        target_bpp=item.target or 0.0,
        base_bpp=base_bpp,
        base_psnr=base_psnr,
        ext_bpp=bits_per_pixel(len(details.ext_bytes), image.width, image.height),
        overhead_bpp=bits_per_pixel(HEADER_SIZE, image.width, image.height),
        total_bpp=bits_per_pixel(len(details.file_bytes), image.width, image.height),
        lossless=result.lossless and result.image == image,
    )


def _sweep_csv(sweep: dict[str, dict]) -> dict[str, str]:
    """Per image: ``rows_to_csv`` rows plus median encode and decode ms."""
    out = {}
    for image_name in dict.fromkeys(label.split("/")[0] for label in sweep):
        entries = [e for label, e in sweep.items() if label.split("/")[0] == image_name]
        lines = rows_to_csv([e["row"] for e in entries]).splitlines()
        lines[0] += ",encode_ms,decode_ms"
        for i, entry in enumerate(entries, start=1):
            lines[i] += (
                f",{statistics.median(entry['encode_ms']):.1f}"
                f",{statistics.median(entry['decode_ms']):.1f}"
            )
        out[image_name] = "\n".join(lines) + "\n"
    return out


def run_traced(workload: str, items, seconds: float, digests) -> tuple[dict, dict, list]:
    """Traced cycles; returns (per-layer metrics, report, spans)."""
    tr = traced.Tracer()
    op_labels: dict[int, str] = {}
    untraced_s = 0.0
    counts = {"attempted": 0, "failed": 0}
    drifted: set[str] = set()
    sweep: dict[str, dict] = {}
    turns: dict[tuple[str, str], int] = {}

    def mismatch(item, what: str) -> None:
        counts["failed"] += 1
        print(f"traced mismatch: {item.label}: {what}", file=sys.stderr)

    def pair(item, kind: str, untraced_call, traced_call):
        """Run an operation untraced (timed) and traced.

        Which goes first alternates per item and operation, so that neither
        gains from the other's warm caches. Returns (untraced value,
        untraced seconds, traced value).
        """
        nonlocal untraced_s
        turn = turns.get((item.label, kind), 0)
        turns[(item.label, kind)] = turn + 1

        def untraced_run():
            start = time.perf_counter()
            value = untraced_call()
            return value, time.perf_counter() - start

        def traced_run():
            tr.op += 1
            op_labels[tr.op] = item.label
            counts["attempted"] += 1
            return traced_call()

        if turn % 2:
            traced_value = traced_run()
            value, seconds = untraced_run()
        else:
            value, seconds = untraced_run()
            traced_value = traced_run()
        untraced_s += seconds
        return value, seconds, traced_value

    def roundtrip(item) -> None:
        details, t_encode, (data, image, base_image, steps) = pair(
            item,
            "encode",
            lambda: encode_two_layer_detailed(parse_pnm(item.pnm), item.config, item.coder),
            lambda: traced.encode(tr, item.pnm, item.config, item.coder),
        )
        if data != details.file_bytes:
            mismatch(item, "composed container differs from encode_two_layer")
        if workloads.sha256(data) != digests.get(item.label):
            drifted.add(item.label)
        if item.config is not None and traced.probe_encode(tr, image, item.config) != steps:
            mismatch(item, "rate-control probe chose other steps than the encoder")

        (pnm, result), t_decode, (pnm_traced, lossless) = pair(
            item,
            "decode",
            lambda: _decode_to_pnm(data),
            lambda: traced.decode(tr, data),
        )
        if (pnm_traced, lossless) != (pnm, result.lossless):
            mismatch(item, "composed decode differs from decode_two_layer")
        if not lossless or pnm_traced != item.pnm:
            mismatch(item, "decode is not bit-exact and lossless")
        if item.config is not None:
            traced.probe_recompose(tr, base_image, item.config)

        if workload == "wavelet_rate_sweep":
            entry = sweep.setdefault(item.label, {"encode_ms": [], "decode_ms": []})
            entry["encode_ms"].append(1000.0 * t_encode)
            entry["decode_ms"].append(1000.0 * t_decode)
            entry.setdefault("row", _sweep_row(item, details, result, image))

    def preview(item) -> None:
        expected, _seconds, image = pair(
            item,
            "base_decode",
            lambda: decode_base_only(item.container),
            lambda: traced.decode_base_only(tr, item.container),
        )
        if image != expected:
            mismatch(item, "composed base decode differs from decode_base_only")
        if image != item.base_image:
            mismatch(item, "base-only decode differs from the encoder's base image")
        traced.probe_recompose(tr, image, item.config)

    def guarded(trip):
        def call(item) -> None:
            try:
                trip(item)
            except Exception:
                counts["failed"] += 1
                traceback.print_exc(file=sys.stderr)

        return call

    if workload == "base_preview":
        for item in items:
            if workloads.sha256(item.container) != digests.get(item.label):
                drifted.add(item.label)
        cycles = _cycles(items, guarded(preview), seconds)
    else:
        cycles = _cycles(items, guarded(roundtrip), seconds)

    spans = tr.spans
    traced_s = sum(
        s.end - s.start for s in spans if s.parent is None and s.name.startswith("pipeline.")
    )
    metrics = traced.layer_metrics(spans)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    report = {
        "cycles": cycles,
        "traced_ops": counts["attempted"],
        "failed": counts["failed"],
        "stream_drift": len(drifted),
        "layer_shares": traced.layer_shares(spans),
        "stages_ms_by_item": traced.stage_table(spans, op_labels),
    }
    if sweep:
        report["rate_sweep_csv"] = _sweep_csv(sweep)
    return metrics, report, [(span, op_labels.get(span.op)) for span in spans]


def write_outputs(report: dict, spans: list, stem: str) -> None:
    """Write spans as JSON lines and sweep CSVs under ``perfbench/out``."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{stem}.jsonl"
    origin = spans[0][0].start if spans else 0.0
    with open(path, "w", encoding="ascii") as handle:
        for span, item in spans:
            record = {
                "name": span.name,
                "start_ms": round(1000.0 * (span.start - origin), 4),
                "end_ms": round(1000.0 * (span.end - origin), 4),
                "parent": span.parent,
                "op": span.op,
                "item": item,
            }
            if span.counts:
                record["counts"] = span.counts
            handle.write(json.dumps(record) + "\n")
    report["spans_file"] = str(path.relative_to(ROOT))
    for image_name, text in report.get("rate_sweep_csv", {}).items():
        (OUT_DIR / f"rate_sweep-{image_name}-{stem}.csv").write_text(text, encoding="ascii")


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float = 0.0,
    loadavg: float | None = None,
    size: int = workloads.SIZE,
    digests: dict[str, str] | None = None,
    mutate=None,
) -> tuple[dict, dict]:
    """One benchmark run; returns (report, result line).

    ``size``, ``digests`` and ``mutate`` exist for the self-test: toy-sized
    images, digests computed on the spot, and a corruption applied to every
    container before it is decoded. Traced runs write their spans (and the
    sweep CSVs) only at full size.
    """
    start = time.perf_counter()
    if digests is None:
        digests = workloads.load_digests(seed)
    build_s = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        items = workloads.build(workload, seed, size)
        build_s.append(time.perf_counter() - begin)
    setup_s = import_s + (time.perf_counter() - start - sum(build_s)) + statistics.median(build_s)

    report = {"environment": environment(workload, seed, loadavg), "trace": trace}
    if trace:
        metrics, details, spans = run_traced(workload, items, seconds, digests)
        if size == workloads.SIZE:
            write_outputs(details, spans, f"{workload}-seed{seed}")
        report.update(details)
        report["metrics"] = {
            name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()
        }
        attempted, failed = details["traced_ops"], details["failed"]
        correct = failed == 0 and details["stream_drift"] == 0
        result_metrics = report["metrics"]
    else:
        tally, cycles = run_untraced(workload, items, seconds, digests, mutate)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gated, full = untraced_metrics(tally, setup_s, peak_rss_mb)
        report["cycles"] = cycles
        report["setup"] = {"import_s": import_s, "build_s": build_s}
        report["metrics"] = full
        attempted, failed = tally.attempted, tally.failed
        correct = failed == 0 and not tally.drifted
        result_metrics = {
            name: {"value": gated[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    return report, result


def print_run(report: dict, result: dict) -> None:
    """Human-readable metrics, sweep CSVs, the report line, the result line."""
    for name, metric in report["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        extra = "".join(
            f" {key}={metric[key]}"
            for key in ("percentile", "n", "failed", "attempted", "of")
            if key in metric
        )
        print(f"{name:32s} {shown:>12s} {metric['unit']}{extra}")
    for image_name, text in report.get("rate_sweep_csv", {}).items():
        print(f"# rate sweep, {image_name}")
        print(text, end="")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
