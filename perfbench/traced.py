"""Traced composition of the tlxs operations, for per-layer figures.

Each operation is rebuilt from the public stage functions in the order
``tlxs.pipeline`` calls them, and every call into a layer is wrapped in a
span timed from outside. Nothing inside ``src/`` is instrumented. The caller
checks that a composed operation returns exactly what the pipeline returns.

Two figures cannot be read off the composed path and are timed as separate
probe calls outside the operation span: ``dwt.decompose`` / ``dwt.recompose``
at the item's levels, and ``base.rate_control`` (whose ``choose_rice_k``
calls are counted by wrapping that function for the probe only).
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from tlxs import container, dwt, rice
from tlxs.base import decode_base, encode_base_detailed, rate_control
from tlxs.container import ContainerMeta, demux, mux
from tlxs.errors import CodecError, ContainerError, MissingLayerError
from tlxs.image import PlanarImage
from tlxs.pnm import parse_pnm, serialize_pnm
from tlxs.residual import (
    LosslessCoderId,
    compute_residual,
    dc_shift,
    decode_extension,
    encode_extension,
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1000.0 * (self.end - self.start)


class Tracer:
    """In-memory span recorder; one operation id per traced operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts: int):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.op, dict(counts))
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = time.perf_counter()


def _coder_name(coder: LosslessCoderId) -> str:
    return LosslessCoderId(coder).name.lower()


def encode(tr: Tracer, pnm: bytes, config, coder: LosslessCoderId):
    """``parse_pnm`` then ``encode_two_layer_detailed``, stage by stage."""
    with tr.span("pipeline.encode"):
        with tr.span("pnm.parse"):
            image = parse_pnm(pnm)
        if config is None:
            base_payload = b""
            base_image = None
            steps = None
            planes = image.planes
            depth = image.bit_depth
        else:
            with tr.span("base.encode") as span:
                result = encode_base_detailed(image, config)
                span.counts["bytes"] = len(result.payload)
            base_payload = result.payload
            steps = result.steps
            with tr.span("base.decode", bytes=len(base_payload)):
                base_image = decode_base(base_payload)
            with tr.span("residual.shift"):
                shifted = [dc_shift(r) for r in compute_residual(image, base_image)]
            planes = [r.samples for r in shifted]
            depth = image.bit_depth + 1
        with tr.span(f"residual.{_coder_name(coder)}_encode") as span:
            ext_payload = encode_extension(planes, depth, coder)
            span.counts["bytes"] = len(ext_payload)
        meta = ContainerMeta(
            width=image.width,
            height=image.height,
            components=image.components,
            bit_depth=image.bit_depth,
            coder_id=int(coder),
        )
        with tr.span("container.mux"):
            data = mux(base_payload, ext_payload, meta)
    return data, image, base_image, steps


def decode(tr: Tracer, data: bytes):
    """``decode_two_layer`` then ``serialize_pnm``; returns (pnm, lossless)."""
    with tr.span("pipeline.decode"):
        with tr.span("container.demux"):
            base_payload, ext_payload, meta = demux(data)
        if not base_payload and not ext_payload:
            raise ContainerError("container has neither base nor extension layer")
        base_image = None
        if base_payload:
            with tr.span("base.decode", bytes=len(base_payload)):
                base_image = decode_base(base_payload)
            container.check_base_matches(meta, base_image)
        if not ext_payload:
            with tr.span("pnm.serialize"):
                return serialize_pnm(base_image), False
        coder = LosslessCoderId(meta.coder_id)
        with tr.span(f"residual.{_coder_name(coder)}_decode", bytes=len(ext_payload)):
            planes, coder, depth = decode_extension(
                ext_payload, meta.width, meta.height, meta.components
            )
        if int(coder) != meta.coder_id:
            raise ContainerError("extension coder disagrees with container header")
        if base_image is None:
            if depth != meta.bit_depth:
                raise ContainerError("base-less extension depth mismatch")
            image = PlanarImage.from_planes(planes, meta.bit_depth)
        else:
            if depth != meta.bit_depth + 1:
                raise ContainerError("extension depth mismatch")
            offset = (1 << meta.bit_depth) - 1
            out_planes = []
            for shifted, base_plane in zip(planes, base_image.planes):
                restored = base_plane + (shifted - offset)
                if restored.size and (
                    int(restored.min()) < 0 or int(restored.max()) > offset
                ):
                    raise CodecError("reconstructed samples out of range")
                out_planes.append(restored)
            image = PlanarImage.from_planes(out_planes, meta.bit_depth)
        with tr.span("pnm.serialize"):
            return serialize_pnm(image), True


def decode_base_only(tr: Tracer, data: bytes) -> PlanarImage:
    """``container.decode_base_only``, stage by stage."""
    with tr.span("pipeline.decode_base"):
        with tr.span("container.demux"):
            base_payload, _ext, meta = demux(data)
        if not base_payload:
            raise MissingLayerError("file has no base layer")
        with tr.span("base.decode", bytes=len(base_payload)):
            image = decode_base(base_payload)
        container.check_base_matches(meta, image)
    return image


def probe_encode(tr: Tracer, image: PlanarImage, config) -> tuple[int, ...]:
    """Time decomposition and rate control alone; returns the chosen steps."""
    with tr.span("dwt.decompose"):
        for plane in image.planes:
            dwt.decompose(plane, config.levels_h, config.levels_v)
    original = rice.choose_rice_k
    calls = 0

    def counting(indices: np.ndarray) -> int:
        nonlocal calls
        calls += 1
        return original(indices)

    rice.choose_rice_k = counting
    try:
        with tr.span("base.rate_control") as span:
            steps, _overshoot = rate_control(image, config)
    finally:
        rice.choose_rice_k = original
    span.counts["k_searches"] = calls
    return steps


def probe_recompose(tr: Tracer, image: PlanarImage, config) -> None:
    """Time recomposition alone, on the bands of ``image`` at its levels."""
    lh, lv = config.levels_h, config.levels_v
    bands = [dwt.decompose(plane, lh, lv) for plane in image.planes]
    with tr.span("dwt.recompose"):
        for plane_bands in bands:
            dwt.recompose(plane_bands, image.width, image.height, lh, lv)


def _self_ms(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [1000.0 * (s.end - s.start) for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.ms
    return own


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# per-layer metric -> (span names, what to read from each span)
_SPAN_METRICS = {
    "pnm.parse_ms": (("pnm.parse",), "ms"),
    "pnm.serialize_ms": (("pnm.serialize",), "ms"),
    "dwt.decompose_ms": (("dwt.decompose",), "ms"),
    "dwt.recompose_ms": (("dwt.recompose",), "ms"),
    "base.rate_control_ms": (("base.rate_control",), "ms"),
    "base.rc_k_searches": (("base.rate_control",), "k_searches"),
    "base.encode_ms": (("base.encode",), "ms"),
    "base.decode_ms": (("base.decode",), "ms"),
    "base.bytes": (("base.decode",), "bytes"),
    "residual.shift_ms": (("residual.shift",), "ms"),
    "residual.predictive_encode_ms": (("residual.predictive_encode",), "ms"),
    "residual.predictive_decode_ms": (("residual.predictive_decode",), "ms"),
    "residual.wavelet_encode_ms": (("residual.wavelet_encode",), "ms"),
    "residual.wavelet_decode_ms": (("residual.wavelet_decode",), "ms"),
    "residual.ext_bytes": (
        ("residual.predictive_encode", "residual.wavelet_encode"),
        "bytes",
    ),
    "container.mux_ms": (("container.mux",), "ms"),
    "container.demux_ms": (("container.demux",), "ms"),
    "pipeline.encode_self_ms": (("pipeline.encode",), "self"),
    "pipeline.decode_self_ms": (("pipeline.decode", "pipeline.decode_base"), "self"),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-image medians of every per-layer metric; 0 where a stage never ran."""
    out = {}
    self_ms = _self_ms(spans)
    for metric, (names, what) in _SPAN_METRICS.items():
        values = []
        for index, span in enumerate(spans):
            if span.name not in names:
                continue
            if what == "ms":
                values.append(span.ms)
            elif what == "self":
                values.append(self_ms[index])
            else:
                values.append(float(span.counts[what]))
        out[metric] = _median(values)
    # Derived, not timed: base encode minus the rate-control probe, per op.
    by_op: dict[int, dict[str, float]] = {}
    for span in spans:
        if span.name in ("base.encode", "base.rate_control"):
            by_op.setdefault(span.op, {})[span.name] = span.ms
    out["base.band_code_ms"] = _median(
        [d["base.encode"] - d["base.rate_control"] for d in by_op.values() if len(d) == 2]
    )
    return out


def stage_table(spans: list[Span], op_labels: dict[int, str]) -> dict:
    """Median ms of every stage span per item label, with op and self time.

    ``op_labels`` maps operation id to item label. The result backs the
    stage table in the README and the per-rate share checks.
    """
    per: dict[str, dict[str, list[float]]] = {}
    self_ms = _self_ms(spans)
    for index, span in enumerate(spans):
        table = per.setdefault(op_labels[span.op], {})
        table.setdefault(span.name, []).append(span.ms)
        if span.name.startswith("pipeline."):
            table.setdefault(span.name + ".self", []).append(self_ms[index])
    return {
        item: {name: round(_median(v), 3) for name, v in sorted(table.items())}
        for item, table in per.items()
    }


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Share of traced operation time spent in each direct child stage."""
    total = 0.0
    by_name: dict[str, float] = {}
    self_ms = _self_ms(spans)
    for index, span in enumerate(spans):
        if span.parent is None and span.name.startswith("pipeline."):
            total += span.ms
            by_name["self"] = by_name.get("self", 0.0) + self_ms[index]
        elif span.parent is not None:
            by_name[span.name] = by_name.get(span.name, 0.0) + span.ms
    if not total:
        return {}
    return {name: round(t / total, 4) for name, t in sorted(by_name.items())}
