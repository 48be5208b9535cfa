"""Golden SHA-256 hashes of whole containers, to catch accidental format drift.

Every case is encoded with the public pipeline, hashed, and decoded again.
The table was computed once from a known-good tree; a mismatch means the
bytes a coder emits changed. A deliberate format change regenerates the
table with ``python tests/test_golden.py`` and says so in CHANGES.md.
"""

import hashlib

import pytest

from tlxs.base import LOSSLESS_BASE, BaseConfig
from tlxs.pipeline import decode_two_layer, encode_two_layer
from tlxs.residual import LosslessCoderId
from tlxs.synthetic import (
    color_gradient_image,
    constant_image,
    natural_image,
    noise_image,
)

IMAGES = {
    "natural8_64x64": lambda: natural_image(64, 64, 8),
    "noise12_61x37": lambda: noise_image(61, 37, 12),
    "natural16_48x48": lambda: natural_image(48, 48, 16),
    "rgb8_40x33": lambda: color_gradient_image(40, 33, 8),
    "constant8_32x32": lambda: constant_image(32, 32, 8),
}

BASES = {
    "nobase": None,
    "lossless": BaseConfig(target_bpp=LOSSLESS_BASE),
    "0.5bpp": BaseConfig(target_bpp=0.5),
    "2bpp": BaseConfig(target_bpp=2.0),
}

CODERS = {
    "predictive": LosslessCoderId.PREDICTIVE,
    "wavelet": LosslessCoderId.WAVELET,
}

GOLDEN = {
    "natural8_64x64/nobase/predictive": "6fe814c2486ae1f53c568b021dbac6201db5fc0fec15f6c5bf4c8be79f2f1582",
    "natural8_64x64/nobase/wavelet": "1c581dfd24951947b7007bc8c133317c513d3fb2401144db95a9a40e26488806",
    "natural8_64x64/lossless/predictive": "1c8eaa15a7b04262d73c5fa93fb7a328189b62ab8f110aa121358e8be64680e7",
    "natural8_64x64/lossless/wavelet": "69e6a75e6b4f2509e186a1781deb94ee0d8d435e471cd7993b4aaf227721f618",
    "natural8_64x64/0.5bpp/predictive": "440879a451f3e0b84c8b29232280fa573afd984cbb286133b20ba4f1ed4ebb88",
    "natural8_64x64/0.5bpp/wavelet": "2ff30e4522fe174b3ae049043b43dd4429b857570e21e154e9b8e4e8dd546e93",
    "natural8_64x64/2bpp/predictive": "08fecdbb23c5157aefb59d40d57bccaa366c5f60198724184ef6cf451e1168c0",
    "natural8_64x64/2bpp/wavelet": "692085bc5ed2592ab68fdaddb48ed25cc9f31eabed8cd41735e99654f3ec3782",
    "noise12_61x37/nobase/predictive": "6b59abb18be2f2c7bee44787470e980e02d29c72e3fddddd111c7a44f70a9dc7",
    "noise12_61x37/nobase/wavelet": "dfdb4fafc4ba0bbd858e2a5f2c2d68c42897be544986a8e2ef51a27e43c26875",
    "noise12_61x37/lossless/predictive": "c7a028b0f904c83182a655912915a793af48461d532df6f41ffda5c5773c4a04",
    "noise12_61x37/lossless/wavelet": "09ca6600e31c22e3fcfd6f228445bd371f92e9efe0cc054be2e67a75af1e380c",
    "noise12_61x37/0.5bpp/predictive": "a34a0540f29da2a5650ef036502765ed59372f83a57c159f1e54952d1d7175a9",
    "noise12_61x37/0.5bpp/wavelet": "5e15f81e10dfa98c136c7766b2f2f5bf9b83d035cf7e3b783373cb75fd88920f",
    "noise12_61x37/2bpp/predictive": "6279c42515546c0ff33331e97bf2eac3f9bb3aad253166f8c86a434a1f198b6c",
    "noise12_61x37/2bpp/wavelet": "d601063273f8badca110978ae6dc6222d70aee95e93db72ff4dd3223a90d1680",
    "natural16_48x48/nobase/predictive": "85315365027e5d56185b28bd09396b486b4b2ce91da639eaa2af14a385f555ec",
    "natural16_48x48/nobase/wavelet": "01fac0e319b8566612f29c6e3de6a378a2203d2239f4a53b4116a20560a8c134",
    "natural16_48x48/lossless/predictive": "94c43790615c644dbaf71858f3e668196a2d0e1d3245e648bdc9ef0dfdfce28f",
    "natural16_48x48/lossless/wavelet": "c54ea03c8eaff063acfd7e0072c85cf462a27eda18ac8366e48f7f5040e2b9dd",
    "natural16_48x48/0.5bpp/predictive": "6fab506619360ead725c706b82aa81839100f1d305a362b31db2097c79e51a2b",
    "natural16_48x48/0.5bpp/wavelet": "d9f75cb86efbafdce18da797eadced9205ac4903d64e7f1addf793afe828ca03",
    "natural16_48x48/2bpp/predictive": "3c935f8338fdb0a58c94c935257c2913837ae1786bb41893a21779ad67c68647",
    "natural16_48x48/2bpp/wavelet": "c1babb319ab5f957e1fba72d6e15086ef5cac0ebafa459985f3ddc96a8a5621c",
    "rgb8_40x33/nobase/predictive": "32c15124f28b4cb4b5620bb52a1a5a7cb23f41464380449bf6eae86aa54add32",
    "rgb8_40x33/nobase/wavelet": "0fe0ad3993f8418304129d28ac105d97fb9263faeb65e47e5b2ee3a5642bfb2f",
    "rgb8_40x33/lossless/predictive": "7bd9dd52ada25daaa2f6a66341e343b23eb5d883022149e2f543344b23a7a825",
    "rgb8_40x33/lossless/wavelet": "493b252d312b0e7a208a6bd775a6cc2bdb16c217f3dc64b1c9a5344a76852794",
    "rgb8_40x33/0.5bpp/predictive": "78daec32db150c87f34c96463ffa0833523f4921aca368f0f6ea16501ea6be6e",
    "rgb8_40x33/0.5bpp/wavelet": "8f5888ea75a823d8b1ccb19743299b37c0da9412c5ee2a1ed1fcdd7b13508a7b",
    "rgb8_40x33/2bpp/predictive": "6d0ff4f41ac6d584c0d97811556fa0baa2ec5456b59e19144d7ecc45078c6c5c",
    "rgb8_40x33/2bpp/wavelet": "fe8a3c9121e38422255a0575a1838be7b53915dc11c07caf9b3d4ed18e6fa71b",
    "constant8_32x32/nobase/predictive": "beaef84814b05b49f3bcb7e2ef13bc1b183ee6e72df1247b4ea4e474071f12e8",
    "constant8_32x32/nobase/wavelet": "00e8dc7933fe100623d97ba5fae023d947d857a2352d49859a25c7d346b5caed",
    "constant8_32x32/lossless/predictive": "1ca0b6a71c479531ca90d07a57b2625631f88f96164c0ea08ce0d92e020c71c3",
    "constant8_32x32/lossless/wavelet": "448b02dfae1726eeb3ae7c7565a8df11fc4a3445ba90bef86bd0c5925f581bbe",
    "constant8_32x32/0.5bpp/predictive": "4fe98bf87df7dfe8e9c5ccf3886c45bb0ca783b4a6f4c0137ff775776638557a",
    "constant8_32x32/0.5bpp/wavelet": "04d096356737445def33b737fbbbe363460ca10995a40f21b651aae3570b8ae2",
    "constant8_32x32/2bpp/predictive": "1ca0b6a71c479531ca90d07a57b2625631f88f96164c0ea08ce0d92e020c71c3",
    "constant8_32x32/2bpp/wavelet": "448b02dfae1726eeb3ae7c7565a8df11fc4a3445ba90bef86bd0c5925f581bbe",
}


def _encode(image_name: str, base_name: str, coder_name: str) -> bytes:
    image = IMAGES[image_name]()
    return encode_two_layer(image, BASES[base_name], CODERS[coder_name])


CASES = [
    (image_name, base_name, coder_name)
    for image_name in IMAGES
    for base_name in BASES
    for coder_name in CODERS
]


@pytest.mark.parametrize("image_name,base_name,coder_name", CASES)
def test_golden_container(image_name, base_name, coder_name):
    data = _encode(image_name, base_name, coder_name)
    key = f"{image_name}/{base_name}/{coder_name}"
    assert hashlib.sha256(data).hexdigest() == GOLDEN[key]
    decoded = decode_two_layer(data)
    assert decoded.lossless
    assert decoded.image == IMAGES[image_name]()


if __name__ == "__main__":
    for case in CASES:
        digest = hashlib.sha256(_encode(*case)).hexdigest()
        print(f'    "{"/".join(case)}": "{digest}",')
