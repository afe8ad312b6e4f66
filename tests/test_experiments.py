"""Tests for the shared experiments."""

from skdv.experiments import analytic_errors
from skdv.spectral import SpectralGrid


def test_soliton_reference_off_the_grid():
    # 5/dx = 12.8 is not a whole number of cells, so a reference shifted
    # by whole cells would leave an error floor of its own
    _, err_v = analytic_errors(SpectralGrid(256, 50.0))
    assert err_v < 1e-3
