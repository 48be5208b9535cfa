"""Inputs of the three benchmark workloads and the digests of their containers.

Every input is a synthetic image from :mod:`tlxs.synthetic`, generated from
the workload seed. The seed is folded onto ``CORPUS_SEEDS`` corpus seeds so
that every container the benchmark can produce has a committed SHA-256 in
``digests.json``; ``python3 perfbench/digests.py`` rewrites that file after
a deliberate format change.

An *item* is one (image, coder, base target) point. Its label, such as
``natural8/predictive/2`` or ``natural12/wavelet/none``, names the container
it encodes to and keys the digest table.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from tlxs import synthetic
from tlxs.base import BaseConfig
from tlxs.image import PlanarImage
from tlxs.pipeline import encode_two_layer_detailed
from tlxs.pnm import serialize_pnm
from tlxs.residual import LosslessCoderId

SIZE = 512
CORPUS_SEEDS = 32
DIGESTS_PATH = Path(__file__).with_name("digests.json")

P = LosslessCoderId.PREDICTIVE
W = LosslessCoderId.WAVELET

# (image name, coder, base target bpp or None for --no-base), in cycle order.
WORKLOADS: dict[str, tuple[tuple[str, LosslessCoderId, float | None], ...]] = {
    "default_roundtrip": tuple(
        (name, P, 2.0)
        for name in ("natural8", "natural12", "natural16", "rgb8", "text8")
    ),
    "wavelet_rate_sweep": tuple(
        (name, W, target)
        for name in ("natural8", "natural12")
        for target in (None, 0.5, 1.0, 2.0, 4.0)
    ),
    "base_preview": tuple(
        (name, coder, target)
        for name in ("natural8",)
        for coder in (P, W)
        for target in (0.5, 1.0, 2.0, 4.0)
    ),
}


def corpus_seed(seed: int) -> int:
    return seed % CORPUS_SEEDS


def make_image(name: str, seed: int, size: int = SIZE) -> PlanarImage:
    """One named synthetic image; distinct names never share a field seed."""
    base = corpus_seed(seed) * 16
    if name == "natural8":
        return synthetic.natural_image(size, size, 8, seed=base + 1)
    if name == "natural12":
        return synthetic.natural_image(size, size, 12, seed=base + 2)
    if name == "natural16":
        return synthetic.natural_image(size, size, 16, seed=base + 3)
    if name == "rgb8":
        planes = [
            synthetic.natural_image(size, size, 8, seed=base + s).planes[0]
            for s in (4, 5, 6)
        ]
        return PlanarImage.from_planes(planes, 8)
    if name == "text8":
        return synthetic.text_image(size, size, 8, seed=base + 7)
    raise ValueError(f"unknown image {name!r}")


def label(name: str, coder: LosslessCoderId, target: float | None) -> str:
    rate = "none" if target is None else f"{target:g}"
    return f"{name}/{coder.name.lower()}/{rate}"


def base_config(target: float | None) -> BaseConfig | None:
    """CLI defaults (5/2 levels); ``None`` is ``tlxs encode --no-base``."""
    return None if target is None else BaseConfig(target_bpp=target)


@dataclass(frozen=True, eq=False)
class Item:
    label: str
    image: PlanarImage
    pnm: bytes
    config: BaseConfig | None
    coder: LosslessCoderId
    target: float | None
    # Filled for base_preview only: the container decoded in the timed loop
    # and the base image the encoder itself reconstructed.
    container: bytes | None = None
    base_image: PlanarImage | None = None


def build(workload: str, seed: int, size: int = SIZE) -> list[Item]:
    """Generate a workload's items; base_preview also pre-encodes them."""
    images: dict[str, tuple[PlanarImage, bytes]] = {}
    items = []
    for name, coder, target in WORKLOADS[workload]:
        if name not in images:
            image = make_image(name, seed, size)
            images[name] = (image, serialize_pnm(image))
        image, pnm = images[name]
        config = base_config(target)
        container = base_image = None
        if workload == "base_preview":
            details = encode_two_layer_detailed(image, config, coder)
            container, base_image = details.file_bytes, details.base_image
        items.append(
            Item(
                label=label(name, coder, target),
                image=image,
                pnm=pnm,
                config=config,
                coder=coder,
                target=target,
                container=container,
                base_image=base_image,
            )
        )
    return items


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute_digests(seed: int, size: int = SIZE) -> dict[str, str]:
    """SHA-256 of every distinct container any workload encodes for a seed."""
    out: dict[str, str] = {}
    images: dict[str, PlanarImage] = {}
    for specs in WORKLOADS.values():
        for name, coder, target in specs:
            key = label(name, coder, target)
            if key not in out:
                if name not in images:
                    images[name] = make_image(name, seed, size)
                details = encode_two_layer_detailed(
                    images[name], base_config(target), coder
                )
                out[key] = sha256(details.file_bytes)
    return out


def load_digests(seed: int) -> dict[str, str]:
    """Committed digests for the corpus seed that ``seed`` folds onto."""
    with open(DIGESTS_PATH, encoding="ascii") as handle:
        table = json.load(handle)
    if table["size"] != SIZE or table["corpus_seeds"] != CORPUS_SEEDS:
        raise ValueError("digests.json was written for another corpus")
    return table["digests"][str(corpus_seed(seed))]
