import os
import subprocess
import sys
from pathlib import Path

import pytest

from tlxs.base import MAX_STEP, BaseConfig, encode_base
from tlxs.cli import main
from tlxs.container import CODER_NONE, ContainerMeta, demux, mux
from tlxs.pipeline import bench_sweep, encode_two_layer, rows_to_csv
from tlxs.pnm import load_pnm, store_pnm
from tlxs.residual import _EXT_FIXED, _EXT_LEN, EXT_MAGIC, LosslessCoderId, parse_extension_header
from tlxs.synthetic import natural_image, noise_image

from conftest import (
    base_larger_than_its_container,
    overlong_band_container,
    reseal,
    zero_band_container,
)
from test_base import _one_band_payload

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def pgm(tmp_path):
    path = tmp_path / "img.pgm"
    store_pnm(natural_image(40, 24, 8), str(path))
    return str(path)


def test_encode_decode_roundtrip(pgm, tmp_path, capsys):
    out = str(tmp_path / "img.tlxs")
    rec = str(tmp_path / "rec.pgm")
    assert main(["encode", "--input", pgm, "--output", out, "--bpp", "2.0"]) == 0
    summary = capsys.readouterr().out
    assert "base:" in summary and "ext:" in summary and "total:" in summary
    assert main(["decode", "--input", out, "--output", rec]) == 0
    assert "lossless: true" in capsys.readouterr().out
    assert load_pnm(rec) == load_pnm(pgm)


def test_no_base_flag_writes_empty_base(pgm, tmp_path):
    out = str(tmp_path / "img.tlxs")
    assert main(["encode", "--input", pgm, "--output", out, "--no-base"]) == 0
    with open(out, "rb") as handle:
        base, ext, meta = demux(handle.read())
    assert base == b"" and len(ext) > 0


@pytest.mark.parametrize("flag", ["--no-base", "--lossless-base"])
def test_conflicting_rate_flags_exit_2(pgm, tmp_path, capsys, flag):
    # --bpp at its default value still conflicts
    out = str(tmp_path / "img.tlxs")
    code = main(["encode", "--input", pgm, "--output", out, "--bpp", "2.0", flag])
    capsys.readouterr()
    assert code == 2


def test_overshoot_warning_goes_to_stderr(pgm, tmp_path, capsys):
    out = str(tmp_path / "img.tlxs")
    assert main(["encode", "--input", pgm, "--output", out, "--bpp", "0.001"]) == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err
    assert "warning:" not in captured.out


def test_encode_infinite_target_exit_1(pgm, tmp_path, capsys):
    out = tmp_path / "img.tlxs"
    assert main(["encode", "--input", pgm, "--output", str(out), "--bpp", "inf"]) == 1
    assert "target_bpp must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_flag_exit_2(capsys):
    assert main(["encode", "--frobnicate"]) == 2
    capsys.readouterr()


def test_missing_input_exit_1(tmp_path, capsys):
    out = str(tmp_path / "img.tlxs")
    assert main(["encode", "--input", str(tmp_path / "nope.pgm"), "--output", out]) == 1
    assert "error:" in capsys.readouterr().err


def test_decode_base_of_no_base_file_exit_1(pgm, tmp_path, capsys):
    out = str(tmp_path / "img.tlxs")
    main(["encode", "--input", pgm, "--output", out, "--no-base"])
    code = main(["decode-base", "--input", out, "--output", str(tmp_path / "b.pgm")])
    err = capsys.readouterr().err
    assert code == 1
    assert "no base layer" in err


def test_decode_base_writes_lossy_image(pgm, tmp_path):
    out = str(tmp_path / "img.tlxs")
    base_pgm = str(tmp_path / "base.pgm")
    main(["encode", "--input", pgm, "--output", out, "--bpp", "1.0"])
    assert main(["decode-base", "--input", out, "--output", base_pgm]) == 0
    base = load_pnm(base_pgm)
    assert (base.width, base.height) == (40, 24)


def test_lossless_base_flag(pgm, tmp_path, capsys):
    out = str(tmp_path / "img.tlxs")
    assert main(["encode", "--input", pgm, "--output", out, "--lossless-base"]) == 0
    capsys.readouterr()
    base_pgm = str(tmp_path / "base.pgm")
    assert main(["decode-base", "--input", out, "--output", base_pgm]) == 0
    assert load_pnm(base_pgm) == load_pnm(pgm)


def test_inspect_echoes_header(pgm, tmp_path, capsys):
    out = str(tmp_path / "img.tlxs")
    main(["encode", "--input", pgm, "--output", out, "--coder", "wavelet"])
    capsys.readouterr()
    assert main(["inspect", out]) == 0
    text = capsys.readouterr().out
    assert "40x24" in text
    assert "8-bit" in text
    assert "coder: wavelet" in text
    assert "base levels: 5 horizontal / 2 vertical" in text
    assert "HL1" in text
    with open(out, "rb") as handle:
        _, ext, _ = demux(handle.read())
    info = parse_extension_header(ext, 40, 24, 1)
    assert "extension coder: wavelet, depth 9" in text
    assert f"extension component 0: {info.components[0].length} bytes" in text
    # the 3-level extension transform has bands the 5/2-level base lacks
    hh3 = next(band for band in info.components[0].bands if band.name == "HH3")
    assert f"HH3   0        5x3     {hh3.k:<2} {hh3.bits}" in text


def test_inspect_shows_predictive_extension(tmp_path, capsys):
    from tlxs.image import PlanarImage

    path = tmp_path / "rgb.ppm"
    planes = [natural_image(16, 8, 8, seed=s).planes[0] for s in (1, 2, 3)]
    store_pnm(PlanarImage.from_planes(planes, 8), str(path))
    out = str(tmp_path / "rgb.tlxs")
    assert main(["encode", "--input", str(path), "--output", out, "--no-base"]) == 0
    capsys.readouterr()
    assert main(["inspect", out]) == 0
    text = capsys.readouterr().out
    with open(out, "rb") as handle:
        _, ext, _ = demux(handle.read())
    info = parse_extension_header(ext, 16, 8, 3)
    assert "extension coder: predictive, depth 8" in text
    for comp, part in enumerate(info.components):
        assert f"extension component {comp}: {part.length} bytes" in text
    assert "HH3" not in text


def test_inspect_base_only_reports_absent_extension(pgm, tmp_path, capsys):
    from tlxs.base import BaseConfig, encode_base
    from tlxs.container import CODER_NONE, ContainerMeta, mux

    payload = encode_base(load_pnm(pgm), BaseConfig(target_bpp=2.0))
    blob = mux(payload, b"", ContainerMeta(40, 24, 1, 8, CODER_NONE))
    path = tmp_path / "base_only.tlxs"
    path.write_bytes(blob)
    assert main(["inspect", str(path)]) == 0
    assert "extension: absent" in capsys.readouterr().out


def test_inspect_bad_magic_exit_1(tmp_path, capsys):
    path = tmp_path / "junk.tlxs"
    path.write_bytes(b"JUNKJUNKJUNK" + bytes(40))
    assert main(["inspect", str(path)]) == 1
    capsys.readouterr()


def test_inspect_unknown_coder_id(pgm, tmp_path, capsys):
    out = tmp_path / "img.tlxs"
    main(["encode", "--input", pgm, "--output", str(out)])
    out.write_bytes(reseal(out.read_bytes(), 7, 7))  # byte 7: coder id
    capsys.readouterr()
    assert main(["inspect", str(out)]) == 1
    err = capsys.readouterr().err
    assert "extension coder id 1 disagrees with container header coder id 7" in err
    assert main(["decode", "--input", str(out), "--output", str(tmp_path / "r.pgm")]) == 1
    assert capsys.readouterr().err == err


def _baseless_extension_under_a_base():
    image = natural_image(16, 16, 8)
    _, ext, meta = demux(encode_two_layer(image, None))  # an 8-bit extension
    return mux(encode_base(image, BaseConfig(target_bpp=2.0)), ext, meta)


def _one_sample_base_of_131097_bits():
    # index 2**40 at the largest step: a code far longer than the index bound allows
    return mux(_one_band_payload(1 << 40, MAX_STEP), b"", ContainerMeta(1, 1, 1, 16, CODER_NONE))


def _predictive_component_of_1_byte():
    # a 64x64 plane takes at least 4096 bits, one per sample
    base, ext, meta = demux(encode_two_layer(natural_image(64, 64, 8), BaseConfig(target_bpp=2.0)))
    start = _EXT_FIXED.size + _EXT_LEN.size  # component 0's first byte
    return mux(base, ext[: _EXT_FIXED.size] + _EXT_LEN.pack(1) + ext[start : start + 1], meta)


def _one_sample_predictive_component_of_65_bytes():
    # one sample's code at depth 8 is at most 2**9 - 1 bits, so 64 bytes at most
    predictive = LosslessCoderId.PREDICTIVE
    ext = _EXT_FIXED.pack(EXT_MAGIC, predictive, 8) + _EXT_LEN.pack(65) + b"\xff" * 65
    return mux(b"", ext, ContainerMeta(1, 1, 1, 8, predictive))


@pytest.mark.parametrize(
    "make, message",
    [
        (
            base_larger_than_its_container,
            "base payload header (2000x2000, 1 component(s), 8-bit) disagrees with "
            "container header (64x64, 1 component(s), 8-bit)",
        ),
        (_baseless_extension_under_a_base, "extension depth 8 does not match expected depth 9"),
        (
            lambda: zero_band_container(1 << 20, 0),
            "extension component 0: band L at bit 400: 8388608 bits exceed any band of 64 samples",
        ),
        (
            _one_sample_base_of_131097_bits,
            "base component 0: band L at bit 736: 131097 bits exceed any band of 1 samples",
        ),
        (
            _predictive_component_of_1_byte,
            "extension component 0: 1 bytes cannot hold 4096 samples",
        ),
        (
            _one_sample_predictive_component_of_65_bytes,
            "extension component 0: 65 bytes exceed any stream of 1 samples",
        ),
    ],
    ids=[
        "base_2000x2000_in_64x64",
        "ext_depth_8_under_base",
        "ext_band_L_of_8388608_bits",
        "base_band_L_of_131097_bits",
        "ext_predictive_component_of_1_byte",
        "ext_predictive_1x1_component_of_65_bytes",
    ],
)
def test_inspect_refuses_what_decode_refuses_from_the_headers(tmp_path, capsys, make, message):
    path = tmp_path / "bad.tlxs"
    path.write_bytes(make())
    assert main(["decode", "--input", str(path), "--output", str(tmp_path / "r.pgm")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert main(["inspect", str(path)]) == 1
    assert capsys.readouterr() == ("", err)


def test_band_sizes_that_overrun_the_extension_exit_1(tmp_path, capsys):
    path = tmp_path / "overlong.tlxs"
    path.write_bytes(overlong_band_container())
    assert main(["inspect", str(path)]) == 1
    assert "declared band sizes" in capsys.readouterr().err
    assert main(["decode", "--input", str(path), "--output", str(tmp_path / "r.pgm")]) == 1
    assert "declared band sizes" in capsys.readouterr().err


def test_bench_writes_expected_rows(pgm, tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert (
        main(
            [
                "bench",
                "--input",
                pgm,
                "--out",
                str(csv_path),
                "--grid",
                "0,1,2",
            ]
        )
        == 0
    )
    capsys.readouterr()
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 7  # header + 3 targets x 2 coders
    assert all(line.endswith("true") for line in lines[1:])
    # the command is the library's sweep of the stored image
    assert csv_path.read_text() == rows_to_csv(bench_sweep(load_pnm(pgm), [0, 1, 2]))


def test_bench_deterministic(pgm, tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["bench", "--input", pgm, "--out", str(a), "--grid", "0,1"])
    main(["bench", "--input", pgm, "--out", str(b), "--grid", "0,1"])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_bench_grid_without_zero_exit_1(pgm, tmp_path, capsys):
    code = main(["bench", "--input", pgm, "--out", str(tmp_path / "x.csv"), "--grid", "1,2"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize(
    "option",
    [["--grid", "0,abc"], ["--grid", "0,inf"], ["--coders", "foo"]],
    ids=["grid", "grid_inf", "coders"],
)
def test_bench_bad_option_value_exit_1(pgm, tmp_path, capsys, option):
    csv_path = tmp_path / "x.csv"
    code = main(["bench", "--input", pgm, "--out", str(csv_path), *option])
    assert "error:" in capsys.readouterr().err
    assert code == 1
    assert not csv_path.exists()


@pytest.mark.parametrize("coders", [",", " , "])
def test_bench_without_coders_exit_1(pgm, tmp_path, capsys, coders):
    csv_path = tmp_path / "x.csv"
    code = main(["bench", "--input", pgm, "--out", str(csv_path), "--coders", coders])
    assert "coder list" in capsys.readouterr().err
    assert code == 1
    assert not csv_path.exists()


def test_commands_do_not_mutate_inputs(pgm, tmp_path, capsys):
    before = open(pgm, "rb").read()
    out = str(tmp_path / "img.tlxs")
    main(["encode", "--input", pgm, "--output", out])
    main(["decode", "--input", out, "--output", str(tmp_path / "r.pgm")])
    main(["inspect", out])
    capsys.readouterr()
    assert open(pgm, "rb").read() == before
    encoded_before = open(out, "rb").read()
    main(["decode-base", "--input", out, "--output", str(tmp_path / "b.pgm")])
    capsys.readouterr()
    assert open(out, "rb").read() == encoded_before


def test_encode_deterministic_across_invocations(pgm, tmp_path, capsys):
    a = str(tmp_path / "a.tlxs")
    b = str(tmp_path / "b.tlxs")
    main(["encode", "--input", pgm, "--output", a, "--bpp", "1.5"])
    main(["encode", "--input", pgm, "--output", b, "--bpp", "1.5"])
    capsys.readouterr()
    assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("rate", [["--no-base"], ["--bpp", "2.0"]], ids=["no_base", "bpp2"])
@pytest.mark.parametrize("coder", ["predictive", "wavelet"])
@pytest.mark.parametrize("depth", [8, 16])
@pytest.mark.parametrize("width, height", [(300, 3), (3, 300), (1, 200)])
def test_strips_round_trip(tmp_path, capsys, width, height, depth, coder, rate):
    # noise, so that no prediction or band is trivially zero
    source, decoded, layered = tmp_path / "in.pgm", tmp_path / "out.pgm", str(tmp_path / "in.tlxs")
    store_pnm(noise_image(width, height, depth), str(source))
    encode = ["encode", "--input", str(source), "--output", layered, "--coder", coder, *rate]
    assert main(encode) == 0
    assert main(["decode", "--input", layered, "--output", str(decoded)]) == 0
    assert capsys.readouterr().out.endswith("lossless: true\n")
    assert decoded.read_bytes() == source.read_bytes()


# `python -m tlxs` and the README's rate-sweep recipe as real processes, with their exit codes


def _run(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=10
    )


def _tlxs(*args):
    return _run("-m", "tlxs", *args)


def test_process_round_trip_at_16_bits(tmp_path):
    # 16 bits is where the int32 arrays have the least headroom
    source, layered, base = tmp_path / "in.pgm", tmp_path / "in.tlxs", tmp_path / "base.pgm"
    store_pnm(natural_image(64, 64, 16), str(source))
    assert _tlxs("encode", "--input", source, "--output", layered).returncode == 0
    decoded = _tlxs("decode", "--input", layered, "--output", tmp_path / "out.pgm")
    assert (decoded.returncode, decoded.stdout) == (0, "lossless: true\n")
    assert (tmp_path / "out.pgm").read_bytes() == source.read_bytes()
    assert _tlxs("decode-base", "--input", layered, "--output", base).returncode == 0
    assert base.read_bytes().startswith(b"P5\n64 64\n65535\n")
    inspected = _tlxs("inspect", layered)
    assert inspected.returncode == 0
    assert "image: 64x64, 1 component(s), 16-bit" in inspected.stdout


def test_process_usage_error_exits_2():
    result = _tlxs("decode")
    assert (result.returncode, "required: --input, --output" in result.stderr) == (2, True)


def test_process_decode_of_a_pgm_exits_1(pgm, tmp_path):
    result = _tlxs("decode", "--input", pgm, "--output", tmp_path / "x.pgm")
    assert result.returncode == 1
    assert result.stderr.startswith("error: container: bad container magic")


def test_process_refuses_hostile_files(tmp_path):
    mismatched, overlong = tmp_path / "mismatched.tlxs", tmp_path / "overlong.tlxs"
    mismatched.write_bytes(base_larger_than_its_container())
    overlong.write_bytes(overlong_band_container())
    out = ["--output", tmp_path / "x.pgm"]
    for args, message in [
        (["decode", "--input", mismatched, *out], "disagrees with container header"),
        (["decode-base", "--input", mismatched, *out], "disagrees with container header"),
        (["inspect", mismatched], "disagrees with container header"),
        (["inspect", overlong], "declared band sizes"),
    ]:
        result = _tlxs(*args)
        assert (result.returncode, message in result.stderr) == (1, True), (args, result.stderr)


def test_process_readme_rate_sweep_recipe(tmp_path):
    corpus, csv_path = tmp_path / "corpus", tmp_path / "sweep.csv"
    made = _run(ROOT / "scripts/make_corpus.py", "--out", corpus, "--depths", "8", "--size", "16")
    assert made.returncode == 0
    bench = _tlxs("bench", "--input", corpus / "natural_n8_16.pgm", "--out", csv_path)
    assert bench.returncode == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 11  # header, 5 targets x 2 coders
    assert not any(line.endswith(",false") for line in lines)
