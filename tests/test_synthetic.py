import numpy as np
import pytest

from tlxs.synthetic import natural_image


@pytest.mark.parametrize("width,height", [(1, 1), (3, 8), (8, 3)])
def test_natural_image_with_a_side_under_four_is_flat(width, height):
    # no octave of the fractal field fits, so there is nothing to normalize
    plane = natural_image(width, height, 8).planes[0]
    assert plane.shape == (height, width)
    assert np.all(plane == plane.flat[0])
