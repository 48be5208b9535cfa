"""Two-layer lossless image codec.

A low-latency lossy wavelet base layer plus a losslessly coded residual
extension, muxed into one container whose base substream decodes standalone.
Stage-level functions live in the submodules.
"""

from .base import LOSSLESS_BASE, BaseConfig
from .container import decode_base_only
from .errors import (
    BadMagicError,
    BitstreamError,
    ChecksumError,
    CodecError,
    ContainerError,
    LengthMismatchError,
    MissingLayerError,
    PnmError,
)
from .pipeline import DecodeResult, decode_two_layer, encode_two_layer
from .pnm import load_pnm, store_pnm
from .residual import LosslessCoderId

__version__ = "0.1.0"

__all__ = [
    "BadMagicError",
    "BaseConfig",
    "BitstreamError",
    "ChecksumError",
    "CodecError",
    "ContainerError",
    "DecodeResult",
    "LOSSLESS_BASE",
    "LengthMismatchError",
    "LosslessCoderId",
    "MissingLayerError",
    "PnmError",
    "decode_base_only",
    "decode_two_layer",
    "encode_two_layer",
    "load_pnm",
    "store_pnm",
]
