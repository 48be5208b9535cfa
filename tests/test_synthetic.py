import numpy as np
import pytest

from tlxs.synthetic import _bilinear_lattice, _rand_u64, natural_image


@pytest.mark.parametrize("width,height", [(1, 1), (3, 8), (8, 3)])
def test_natural_image_with_a_side_under_four_is_flat(width, height):
    # no octave of the fractal field fits, so there is nothing to normalize
    plane = natural_image(width, height, 8).planes[0]
    assert plane.shape == (height, width)
    assert np.all(plane == plane.flat[0])


def _bilinear_lattice_2d(width, height, cells_x, cells_y, seed, stream):
    """The 2-D form: four gathers of the lattice corners around every pixel."""
    lat = _rand_u64(seed, (cells_x + 1) * (cells_y + 1), stream=stream)
    lattice = (lat >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    lattice = lattice.reshape(cells_y + 1, cells_x + 1)
    xs = np.linspace(0.0, cells_x, width)
    ys = np.linspace(0.0, cells_y, height)
    x0 = np.minimum(xs.astype(np.int64), cells_x - 1)
    y0 = np.minimum(ys.astype(np.int64), cells_y - 1)
    fx = xs - x0
    fy = ys - y0
    top = (
        lattice[y0][:, x0] * (1 - fx)[np.newaxis, :]
        + lattice[y0][:, x0 + 1] * fx[np.newaxis, :]
    )
    bottom = (
        lattice[y0 + 1][:, x0] * (1 - fx)[np.newaxis, :]
        + lattice[y0 + 1][:, x0 + 1] * fx[np.newaxis, :]
    )
    return top * (1 - fy)[:, np.newaxis] + bottom * fy[:, np.newaxis]


@pytest.mark.parametrize(
    "width,height", [(1, 1), (1, 37), (37, 1), (5, 9), (33, 17), (64, 64), (127, 65)]
)
def test_separable_lattice_is_bit_identical_to_the_2d_form(width, height):
    for cells_x in range(1, 9):
        for cells_y in range(1, 9):
            got = _bilinear_lattice(width, height, cells_x, cells_y, 5, cells_x)
            want = _bilinear_lattice_2d(width, height, cells_x, cells_y, 5, cells_x)
            assert np.array_equal(got, want)
    for cells in (16, 32, 64):  # the finer octaves natural_image asks for
        got = _bilinear_lattice(width, height, cells, cells, 9, 12)
        assert np.array_equal(got, _bilinear_lattice_2d(width, height, cells, cells, 9, 12))


def test_natural_image_is_int32():
    assert natural_image(40, 24, 12).planes[0].dtype == np.int32
