import numpy as np
import pytest

from jflow import (
    ConfigError,
    ConvexityLost,
    GeometryError,
    HermitianFormField,
    NotKahlerError,
    ShapeMismatchError,
    UnsupportedBackend,
)


def test_error_hierarchy_roots():
    # Geometric failures are ValueErrors; runtime flow failures are not.
    assert issubclass(ShapeMismatchError, GeometryError)
    assert issubclass(NotKahlerError, GeometryError)
    assert issubclass(UnsupportedBackend, GeometryError)
    assert issubclass(ConvexityLost, GeometryError)
    assert issubclass(GeometryError, ValueError)
    assert issubclass(ConfigError, ValueError)


def test_config_error_carries_line():
    err = ConfigError("bad value", line="flow.t_max = banana")
    assert err.line == "flow.t_max = banana"
    assert ConfigError("no line").line is None


def test_form_field_symmetrizes_exactly():
    mats = np.random.default_rng(1).normal(size=(5, 2, 2))
    field = HermitianFormField.from_matrices(mats)
    assert np.array_equal(field.matrices, np.swapaxes(field.matrices, -1, -2))
    assert field.n == 2
    assert field.grid_shape == (5,)


def test_form_field_kahler_flag():
    good = HermitianFormField.from_matrices(
        np.broadcast_to(np.eye(2), (4, 2, 2)).copy())
    assert good.kahler and good.min_eigenvalue == 1.0
    bad = HermitianFormField.from_matrices(
        np.broadcast_to(np.diag([1.0, -0.5]), (4, 2, 2)).copy())
    assert not bad.kahler
    with pytest.raises(NotKahlerError):
        bad.require_kahler("test")
    # require_kahler returns the field for chaining
    assert good.require_kahler("test") is good


def test_form_field_shape_validation():
    with pytest.raises(ShapeMismatchError):
        HermitianFormField.from_matrices(np.zeros((4, 2, 3)))
    with pytest.raises(ShapeMismatchError):
        HermitianFormField.from_matrices(np.zeros(4))


def test_density_only_for_one_dimensional():
    one = HermitianFormField.from_matrices(np.ones((6, 1, 1)))
    assert np.array_equal(one.density, np.ones(6))
    two = HermitianFormField.from_matrices(
        np.broadcast_to(np.eye(2), (6, 2, 2)).copy())
    with pytest.raises(UnsupportedBackend):
        two.density


def test_det_matches_numpy():
    rng = np.random.default_rng(2)
    b = rng.normal(size=(7, 2, 2))
    mats = b @ np.swapaxes(b, -1, -2) + 0.1 * np.eye(2)
    field = HermitianFormField.from_matrices(mats)
    assert np.allclose(field.det(), np.linalg.det(field.matrices), rtol=1e-13)
