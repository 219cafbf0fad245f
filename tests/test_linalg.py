import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab.linalg import (
    SingularSpectrum,
    complement_projector,
    minmax_kth_smallest,
    numerical_rank,
    rank_cutoff,
    read_matrix,
    singular_spectrum,
    write_matrix,
)


def test_spectrum_of_identity():
    spec = singular_spectrum(np.eye(3))
    assert spec.values == pytest.approx((1.0, 1.0, 1.0))
    assert spec.shape == (3, 3)
    assert spec.largest == pytest.approx(1.0)
    assert spec.smallest == pytest.approx(1.0)


def test_spectrum_of_diagonal():
    spec = singular_spectrum(np.diag([3.0, 1.0, 2.0]))
    assert spec.values == pytest.approx((3.0, 2.0, 1.0))
    assert spec.kth_smallest(2) == pytest.approx(2.0)


def test_spectrum_of_rank_one():
    spec = singular_spectrum(np.ones((4, 4)))
    assert spec.values[0] == pytest.approx(4.0)
    assert all(v < 1e-12 for v in spec.values[1:])


def test_spectrum_rejects_non_finite():
    bad = np.eye(2)
    bad[0, 1] = np.nan
    with pytest.raises(ValueError):
        singular_spectrum(bad)
    bad[0, 1] = np.inf
    with pytest.raises(ValueError):
        singular_spectrum(bad)


def test_spectrum_ordering_enforced():
    with pytest.raises(ValueError):
        SingularSpectrum((1.0, 2.0), (2, 2))
    with pytest.raises(ValueError):
        SingularSpectrum((1.0, -0.5), (2, 2))
    with pytest.raises(ValueError):
        SingularSpectrum((1.0,), (2, 2))


def test_sum_of_squares_matches_hs_norm(rng):
    m = rng.standard_normal((7, 5))
    spec = singular_spectrum(m)
    assert sum(v * v for v in spec.values) == pytest.approx(np.sum(m * m), rel=1e-10)


def test_kth_smallest_range_checks():
    spec = singular_spectrum(np.eye(3))
    with pytest.raises(ValueError):
        spec.kth_smallest(0)
    with pytest.raises(ValueError):
        spec.kth_smallest(4)


# --- rank ---


def test_rank_of_identity_and_zero():
    assert numerical_rank(singular_spectrum(np.eye(5))) == 5
    assert numerical_rank(singular_spectrum(np.zeros((3, 3)))) == 0
    assert numerical_rank(singular_spectrum(np.zeros((0, 3)))) == 0


def test_rank_of_outer_product(rng):
    u = rng.standard_normal(6)
    v = rng.standard_normal(6)
    spec = singular_spectrum(np.outer(u, v))
    assert numerical_rank(spec) == 1


def test_rank_default_tolerance(rng):
    m = rng.standard_normal((8, 8))
    m[:, 0] = m[:, 1] + m[:, 2]
    spec = singular_spectrum(m)
    assert numerical_rank(spec) == 7


def test_rank_cutoff_takes_floats_and_arrays():
    eps = np.finfo(float).eps
    assert rank_cutoff(4, 2.5) == 4 * eps * 2.5
    s = np.array([[3.0], [0.0], [1e300]])
    np.testing.assert_array_equal(rank_cutoff(7, s), 7 * eps * s)
    assert rank_cutoff(7, s).shape == (3, 1)


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=40, deadline=None)
def test_numerical_rank_matches_numpy_matrix_rank(seed):
    # numpy's matrix_rank applies the same max(M, N) * eps * S.max() rule on its own
    stream = np.random.default_rng(seed)
    m = stream.standard_normal((5, 7)) if seed % 2 else stream.integers(-1, 2, (6, 6)) * 1.0
    if seed % 3 == 0:
        m[:, 0] = m[:, 1] - m[:, 2]
    assert numerical_rank(singular_spectrum(m)) == np.linalg.matrix_rank(m)


# --- orthogonal complement projector ---


def test_projector_single_axis():
    p = complement_projector(np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(p @ np.array([1.0, 0.0]), np.array([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(p @ np.array([0.0, 1.0]), np.zeros(2), atol=1e-12)


def test_projector_residual_norm():
    # (1,1)/sqrt(2) against span{e1}: residual has norm 1/sqrt(2)
    p = complement_projector(np.array([[1.0], [0.0]]))
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert np.linalg.norm(p @ x) == pytest.approx(1.0 / math.sqrt(2.0))


def test_projector_idempotent_and_kills_span(rng):
    cols = rng.standard_normal((9, 3))
    p = complement_projector(cols)
    np.testing.assert_allclose(p @ p, p, atol=1e-10)
    np.testing.assert_allclose(p @ cols, np.zeros_like(cols), atol=1e-10)
    rank = np.linalg.matrix_rank(p, tol=1e-8)
    assert rank == 9 - 3


def test_projector_empty_span_is_identity():
    p = complement_projector(np.zeros((4, 0)))
    np.testing.assert_allclose(p, np.eye(4), atol=1e-14)
    p2 = complement_projector(np.zeros((4, 2)))
    np.testing.assert_allclose(p2, np.eye(4), atol=1e-14)


def test_projector_handles_dependent_columns(rng):
    v = rng.standard_normal(6)
    cols = np.column_stack([v, 2.0 * v, -v])
    p = complement_projector(cols)
    rank = np.linalg.matrix_rank(p, tol=1e-8)
    assert rank == 5
    np.testing.assert_allclose(p @ v, np.zeros(6), atol=1e-10)


# --- min-max characterization of the kth smallest value ---


def test_minmax_on_diagonal():
    a = np.diag([3.0, 2.0, 1.0])
    value, witness = minmax_kth_smallest(a, 2)
    assert value == pytest.approx(2.0)
    assert witness.shape == (3, 2)
    # witness spans the bottom two right singular directions
    gram = witness.T @ witness
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)
    assert abs(witness[0, 0]) + abs(witness[0, 1]) < 1e-10


def test_minmax_identity_any_k():
    for k in (1, 2, 4):
        value, witness = minmax_kth_smallest(np.eye(4), k)
        assert value == pytest.approx(1.0)
        assert witness.shape == (4, k)


def test_minmax_matches_spectrum(rng):
    for _ in range(20):
        a = rng.standard_normal((8, 6))
        spec = singular_spectrum(a)
        for k in (1, 2, 3):
            value, witness = minmax_kth_smallest(a, k)
            assert value == pytest.approx(spec.kth_smallest(k), abs=1e-10)
            # max of ||Ax|| over the witness subspace equals the value
            top = np.linalg.svd(a @ witness, compute_uv=False)[0]
            assert top == pytest.approx(value, abs=1e-8)


def test_minmax_random_subspaces_never_beat_witness(rng):
    a = rng.standard_normal((6, 6))
    k = 2
    value, _ = minmax_kth_smallest(a, k)
    for _ in range(500):
        q, _ = np.linalg.qr(rng.standard_normal((6, k)))
        top = np.linalg.svd(a @ q, compute_uv=False)[0]
        assert top >= value - 1e-10


def test_minmax_validates_inputs(rng):
    with pytest.raises(ValueError):
        minmax_kth_smallest(np.eye(3), 0)
    with pytest.raises(ValueError):
        minmax_kth_smallest(np.eye(3), 4)
    with pytest.raises(ValueError):
        minmax_kth_smallest(rng.standard_normal((3, 5)), 1)


# --- csv round trip ---


def test_matrix_round_trip(tmp_path, rng):
    m = rng.standard_normal((5, 3))
    m[0, 0] = 1.0 / 3.0
    path = tmp_path / "m.csv"
    write_matrix(path, m)
    back = read_matrix(path)
    np.testing.assert_array_equal(back, m)


def test_matrix_round_trip_preserves_extremes(tmp_path):
    m = np.array([[1e-300, -1e300], [math.pi, -0.0]])
    path = tmp_path / "m.csv"
    write_matrix(path, m)
    np.testing.assert_array_equal(read_matrix(path), m)


def test_read_matrix_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("rows,cols\n1,2\n")
    with pytest.raises(ValueError):
        read_matrix(p)
    p.write_text("2,2\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        read_matrix(p)
    p.write_text("2,2\n1.0,2.0\n")
    with pytest.raises(ValueError):
        read_matrix(p)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_matrix_round_trip_keeps_empty_shapes(tmp_path, shape):
    path = tmp_path / "m.csv"
    write_matrix(path, np.zeros(shape))
    assert read_matrix(path).shape == shape


def test_read_matrix_rejects_negative_shape(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,-2\n")
    with pytest.raises(ValueError, match="negative shape"):
        read_matrix(p)
