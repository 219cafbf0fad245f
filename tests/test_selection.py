import itertools
import math

import numpy as np
import pytest

from rmtlab import selection
from rmtlab.errors import ResourceLimitError
from rmtlab.linalg import numerical_rank, singular_spectrum
from rmtlab.selection import (
    SelectionCertificate,
    projection_deficit,
    ri_bound_rhs,
    ri_select,
)


def test_bound_flat_spectrum():
    # 3 x 6 matrix with all singular values sqrt(2): the minimum lands at r = 2
    m = np.zeros((3, 6))
    m[0, 0] = m[1, 1] = m[2, 2] = math.sqrt(2.0)
    spec = singular_spectrum(m)
    assert ri_bound_rhs(spec, 1) == pytest.approx(math.sqrt(3.0))


def test_bound_two_rows_single_term():
    # k = 2, l = 1: only r = 2 contributes, rhs = sqrt(d * 2 / s_2^2)
    m = np.zeros((2, 5))
    m[0, 0] = 2.0
    m[1, 1] = 1.0
    spec = singular_spectrum(m)
    assert ri_bound_rhs(spec, 1) == pytest.approx(math.sqrt(10.0))


def test_bound_scales_inversely(rng):
    m = rng.standard_normal((4, 9))
    spec = singular_spectrum(m)
    spec2 = singular_spectrum(3.0 * m)
    for l in (1, 2, 3):
        assert ri_bound_rhs(spec2, l) == pytest.approx(ri_bound_rhs(spec, l) / 3.0)


def test_bound_monotone_under_tail_growth():
    # enlarging trailing singular values shrinks every candidate term
    a = singular_spectrum(np.diag([3.0, 2.0, 1.0]) @ np.eye(3, 7))
    b = singular_spectrum(np.diag([3.0, 2.5, 2.0]) @ np.eye(3, 7))
    for l in (1, 2):
        assert ri_bound_rhs(b, l) <= ri_bound_rhs(a, l)


def test_bound_validation(rng):
    tall = singular_spectrum(rng.standard_normal((6, 3)))
    with pytest.raises(ValueError):
        ri_bound_rhs(tall, 1)
    deficient = singular_spectrum(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        ri_bound_rhs(deficient, 1)
    ok = singular_spectrum(rng.standard_normal((3, 6)))
    for bad_l in (0, 3, 7):
        with pytest.raises(ValueError):
            ri_bound_rhs(ok, bad_l)
    with pytest.raises(ValueError, match="l must lie in"):
        ri_bound_rhs(singular_spectrum(np.zeros((0, 4))), 1)


def test_select_duplicated_identity():
    # two copies of I_3 side by side: any single column has norm 1
    m = np.hstack([np.eye(3), np.eye(3)])
    cert = ri_select(m, 1, mode="exhaustive")
    assert cert.indices == (0,)  # lexicographically first among the six ties
    assert cert.s_l_selected == pytest.approx(1.0)
    # all three singular values are sqrt(2), so the bound minimum sits at r = 2
    assert cert.rhs_bound == pytest.approx(math.sqrt(3.0))
    assert cert.ratio == pytest.approx(1.0 / math.sqrt(3.0))


def test_select_orthogonal_columns_picks_largest():
    # orthogonal columns with norms 3, 2, 1: best pair keeps the two largest
    m = np.diag([3.0, 2.0, 1.0])
    cert = ri_select(m, 2, mode="exhaustive")
    assert cert.indices == (0, 1)
    assert cert.s_l_selected == pytest.approx(2.0)


def test_greedy_matches_exhaustive_on_orthogonal():
    m = np.diag([3.0, 2.0, 1.0])
    greedy = ri_select(m, 2, mode="greedy")
    exhaustive = ri_select(m, 2, mode="exhaustive")
    assert greedy.indices == exhaustive.indices
    assert greedy.s_l_selected == pytest.approx(exhaustive.s_l_selected)


def test_greedy_breaks_ties_by_lowest_index():
    m = np.hstack([np.eye(3), np.eye(3)])
    cert = ri_select(m, 1, mode="greedy")
    assert cert.indices == (0,)


def test_exhaustive_never_below_greedy(rng):
    for _ in range(25):
        m = rng.standard_normal((4, 8))
        for l in (1, 2, 3):
            ex = ri_select(m, l, mode="exhaustive")
            gr = ri_select(m, l, mode="greedy")
            assert ex.s_l_selected >= gr.s_l_selected - 1e-10


def test_exhaustive_budget_enforced(rng):
    m = rng.standard_normal((8, 50))
    with pytest.raises(ResourceLimitError):
        ri_select(m, 5, mode="exhaustive")  # C(50, 5) > 10^6


def test_select_rejects_unknown_mode(rng):
    with pytest.raises(ValueError):
        ri_select(rng.standard_normal((3, 6)), 1, mode="best")


def test_certificate_validation():
    with pytest.raises(ValueError):
        SelectionCertificate((0, 0), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SelectionCertificate((0, 1), 0.0, 1.0, 1.0)
    cert = SelectionCertificate((2, 0), 0.5, 2.0, 1.0)
    assert cert.csv_row().startswith("2 0,")


def test_projection_deficit_identity():
    a = np.eye(3)
    assert projection_deficit(a, [0], [1, 2]) == pytest.approx(1.0)
    assert projection_deficit(a, [0, 1], [2]) == pytest.approx(2.0)


def test_projection_deficit_dependent_column(rng):
    v = rng.standard_normal(5)
    a = np.column_stack([v, 2.0 * v, rng.standard_normal(5)])
    assert projection_deficit(a, [0], [1]) == pytest.approx(0.0, abs=1e-20)


def test_projection_deficit_empty_excluded(rng):
    a = rng.standard_normal((4, 3))
    total = projection_deficit(a, [0, 1, 2], [])
    assert total == pytest.approx(np.sum(a * a), rel=1e-12)


def test_projection_deficit_matches_lstsq_residuals(rng):
    a = rng.standard_normal((8, 6))
    selected, excluded = [0, 2], [1, 3, 4]
    basis = a[:, excluded]
    expected = 0.0
    for j in selected:
        coeffs, _, _, _ = np.linalg.lstsq(basis, a[:, j], rcond=None)
        r = a[:, j] - basis @ coeffs
        expected += float(r @ r)
    assert projection_deficit(a, selected, excluded) == pytest.approx(expected, rel=1e-10)


def test_projection_deficit_rejects_overlap(rng):
    with pytest.raises(ValueError):
        projection_deficit(rng.standard_normal((4, 4)), [0, 1], [1, 2])


# --- batched subset scoring against the 0.7.0 one-SVD-per-subset loop ---


def ref_select(m: np.ndarray, l: int, mode: str) -> tuple[tuple[int, ...], float]:
    """(indices, s_l) of the 0.7.0 ri_select, one SVD per candidate subset."""
    def smallest(indices):
        return float(np.linalg.svd(m[:, list(indices)], compute_uv=False)[-1])

    d = m.shape[1]
    if mode == "exhaustive":
        best_idx, best_val = None, -math.inf
        for combo in itertools.combinations(range(d), l):
            val = smallest(combo)
            if val > best_val:
                best_val, best_idx = val, combo
        return best_idx, best_val
    chosen: list = []
    for _ in range(l):
        best_j, best_val = None, -math.inf
        for j in range(d):
            if j in chosen:
                continue
            val = smallest(chosen + [j])
            if val > best_val:
                best_val, best_j = val, j
        chosen.append(best_j)
    indices = tuple(sorted(chosen))
    return indices, smallest(indices)


def _selection_matrices(count):
    stream = np.random.default_rng(17)
    made = 0
    while made < count:
        k = int(stream.integers(2, 6))
        d = int(stream.integers(k + 1, 10))
        m = stream.standard_normal((k, d))
        kind = made % 3
        if kind == 1:  # rounded entries: many exactly tied subsets
            m = np.round(m, 1)
        elif kind == 2:  # duplicated columns
            m[:, k:] = m[:, stream.integers(0, k, size=d - k)]
        if numerical_rank(singular_spectrum(m)) == k:
            made += 1
            yield m, int(stream.integers(1, k))


@pytest.mark.parametrize("chunk_entries", [None, 7], ids=["one-chunk", "many-chunks"])
@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_batched_selection_matches_per_subset_loop(monkeypatch, mode, chunk_entries):
    if chunk_entries is not None:
        monkeypatch.setattr(selection, "_CHUNK_ENTRIES", chunk_entries)
    for m, l in _selection_matrices(120):
        indices, s_l = ref_select(m, l, mode)
        if s_l <= 0.0:
            with pytest.raises(ValueError, match="singular"):
                ri_select(m, l, mode)
            continue
        cert = ri_select(m, l, mode)
        assert (cert.indices, cert.s_l_selected) == (indices, s_l)
        assert all(type(i) is int for i in cert.indices)
