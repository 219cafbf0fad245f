"""Entry distributions for inhomogeneous random matrices.

Every law here has mean 0 and variance 1, together with a declared
subgaussian (psi2) norm.  A matrix ensemble is described by an
:class:`EntryProfile`: its distinct laws plus an (n_rows, n_cols) grid of
integer codes into them, with every declared psi2 norm below a
user-supplied cap ``k_cap``.

All sampling goes through an explicit ``numpy.random.Generator``; equal
generator states produce bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import EstimationError

__all__ = [
    "DistributionLaw",
    "EntryProfile",
    "LatticePlan",
    "LawGroup",
    "atom_moments",
    "rademacher",
    "gaussian",
    "uniform_scaled",
    "sparse_bernoulli",
    "discrete",
    "check_psi2_cap",
    "parse_law_spec",
    "parse_rule_key",
    "profile_from_rules",
    "sample_matrix",
    "paley_zygmund_floor",
    "psi2_estimate",
]

_SQRT3 = math.sqrt(3.0)

#: psi2 of the +/-1 symmetric law: solves E exp((X/t)^2) = e^(1/t^2) = 2.
RADEMACHER_PSI2 = 1.0 / math.sqrt(math.log(2.0))

#: psi2 of the standard gaussian: E exp((X/t)^2) = (1 - 2/t^2)^(-1/2) = 2.
GAUSSIAN_PSI2 = math.sqrt(8.0 / 3.0)

#: psi2 of the uniform law on [-sqrt3, sqrt3], 1e-9 above the root t of
#: E exp((X/t)^2) = sum_k (3/t^2)^k / (k! (2k+1)) = 2.
UNIFORM_PSI2 = 1.3383691564309084


def atom_moments(atoms, weights):
    """Exact (mean, variance) of a finitely supported law given as atoms/weights."""
    a = np.asarray(atoms, dtype=float)
    w = np.asarray(weights, dtype=float)
    mean = float(np.sum(w * a))
    var = float(np.sum(w * (a - mean) ** 2))
    return mean, var


def _finite_psi2(atoms, weights):
    """Smallest t with sum_j w_j exp((a_j/t)^2) <= 2, by bisection (exact law)."""
    a2 = np.asarray(atoms, dtype=float) ** 2
    w = np.asarray(weights, dtype=float)
    peak = float(np.max(a2))
    if peak == 0.0:
        return 0.0

    def avg(t):
        return float(np.sum(w * np.exp(a2 / (t * t))))

    lo = math.sqrt(peak / (math.log(2.0 / max(np.min(w[a2 == peak]), 1e-300)) + 1.0))
    hi = math.sqrt(peak / math.log(2.0)) + 1e-9  # bounded law: exp(peak/t^2) <= 2 suffices
    if avg(hi) > 2.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        last = mid in (lo, hi)  # the bracket has collapsed: no later step moves it
        if avg(mid) > 2.0:
            lo = mid
        else:
            hi = mid
        if last:
            break
    return hi


@dataclass(frozen=True)
class DistributionLaw:
    """A mean-0, variance-1 entry law with a declared psi2 norm.

    ``atoms``/``weights`` are set for finitely supported kinds and are the
    normalized support.  Use the module-level constructors rather than
    instantiating directly.
    """

    kind: str
    declared_psi2: float
    atoms: tuple[float, ...] | None = None
    weights: tuple[float, ...] | None = None
    param: float | None = None

    def __post_init__(self):
        if not (self.declared_psi2 >= 0.0 and math.isfinite(self.declared_psi2)):
            raise ValueError("declared_psi2 must be finite and non-negative")
        if self.atoms is not None:
            mean, var = atom_moments(self.atoms, self.weights)
            if abs(mean) > 1e-12 or abs(var - 1.0) > 1e-12:
                raise ValueError(
                    f"law {self.kind}: normalized atoms have mean {mean:.3e}, "
                    f"variance {var:.15g}; expected (0, 1)"
                )

    @property
    def finite_support(self) -> bool:
        return self.atoms is not None

    def support_bound(self) -> float:
        """sup |X|; infinite for the gaussian law."""
        if self.kind == "gaussian":
            return math.inf
        if self.kind == "uniform":
            return _SQRT3
        return max(abs(a) for a in self.atoms)

    def sample(self, stream: np.random.Generator, size=None):
        if self.kind == "rademacher":
            draw = stream.integers(0, 2, size=size) * 2.0 - 1.0
            return float(draw) if size is None else draw
        if self.kind == "gaussian":
            return stream.standard_normal(size)
        if self.kind == "uniform":
            return stream.uniform(-_SQRT3, _SQRT3, size=size)
        atoms, cdf = self._atom_table
        u = stream.random(size)
        index = (u >= cdf[0]).astype(np.intp)
        for edge in cdf[1:]:
            index += u >= edge
        draw = atoms[index]
        return float(draw) if size is None else draw

    @cached_property
    def _atom_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Atoms as an array, and the inner edges of the cdf that :meth:`sample` counts.

        The cdf is ``Generator.choice``'s: the weights' cumulative sum divided by its last
        entry.  An entry draws u uniform in [0, 1) and takes the atom whose index is the
        number of edges at or below u, which is the index ``choice`` finds by binary
        search, so the draw and the stream state afterwards equal
        ``stream.choice(atoms, size, p=weights)`` bit for bit.  The last edge is 1.0,
        never at or below u, and is dropped.
        """
        cdf = np.asarray(self.weights).cumsum()
        cdf /= cdf[-1]
        return np.asarray(self.atoms), cdf[:-1]

    def sample_symmetrized(self, stream: np.random.Generator, size=None):
        """One draw of X - X' with X, X' independent copies."""
        return self.sample(stream, size) - self.sample(stream, size)

    def symmetrized_support(self):
        """(atoms, weights) of X - X' for finite laws, None otherwise."""
        if self.atoms is None:
            return None
        acc: dict[float, float] = {}
        for a, wa in zip(self.atoms, self.weights):
            for b, wb in zip(self.atoms, self.weights):
                key = round(a - b, 12)
                acc[key] = acc.get(key, 0.0) + wa * wb
        atoms = tuple(sorted(acc))
        return atoms, tuple(acc[a] for a in atoms)

    def spec_string(self) -> str:
        if self.kind == "sparse-bernoulli":
            return f"sparse-bernoulli({self.param:g})"
        if self.kind == "discrete":
            pairs = ",".join(f"{a:.12g}:{w:.12g}" for a, w in zip(self.atoms, self.weights))
            return f"discrete({pairs})"
        return self.kind


def rademacher() -> DistributionLaw:
    """+/-1 with probability 1/2 each."""
    return DistributionLaw("rademacher", RADEMACHER_PSI2, atoms=(-1.0, 1.0), weights=(0.5, 0.5))


def gaussian() -> DistributionLaw:
    """Standard normal."""
    return DistributionLaw("gaussian", GAUSSIAN_PSI2)


def uniform_scaled() -> DistributionLaw:
    """Uniform on [-sqrt(3), sqrt(3)] (unit variance)."""
    return DistributionLaw("uniform", UNIFORM_PSI2)


def sparse_bernoulli(p: float) -> DistributionLaw:
    """0 with probability 1-p, +/-1/sqrt(p) with probability p/2 each."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sparse-bernoulli needs p in (0, 1], got {p}")
    s = 1.0 / math.sqrt(p)
    # E exp((X/t)^2) = (1-p) + p exp(1/(p t^2)) = 2  <=>  t = 1/sqrt(p log(1 + 1/p))
    psi2 = 1.0 / math.sqrt(p * math.log(1.0 + 1.0 / p))
    if p == 1.0:
        return DistributionLaw("sparse-bernoulli", psi2, atoms=(-1.0, 1.0),
                               weights=(0.5, 0.5), param=1.0)
    return DistributionLaw("sparse-bernoulli", psi2, atoms=(-s, 0.0, s),
                           weights=(p / 2.0, 1.0 - p, p / 2.0), param=p)


def discrete(atoms, weights) -> DistributionLaw:
    """Finitely supported law, normalized to mean 0 and variance 1.

    ``atoms``/``weights`` describe the raw law; the constructor recenters and
    rescales the atoms so the sampled law satisfies the moment conditions
    exactly.  Weights must be non-negative and sum to 1 (within 1e-12).
    """
    a = np.asarray(atoms, dtype=float)
    w = np.asarray(weights, dtype=float)
    if a.shape != w.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("discrete law needs matching 1-d atoms/weights with >= 2 atoms")
    for name, values in (("atom", a), ("weight", w)):
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise ValueError(f"discrete law needs finite atoms and weights, "
                             f"got {name} {float(bad[0])!r}")
    if np.any(w < 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
        raise ValueError(f"discrete law weights must be >= 0 and sum to 1, got sum {np.sum(w)!r}")
    mean, var = atom_moments(a, w)
    if var <= 0.0:
        raise ValueError("discrete law is degenerate (zero variance)")
    norm = tuple((a - mean) / math.sqrt(var))
    return DistributionLaw("discrete", _finite_psi2(norm, w), atoms=norm, weights=tuple(w))


_NAMED_LAWS = {
    "rademacher": rademacher,
    "gaussian": gaussian,
    "uniform": uniform_scaled,
    "uniform-scaled": uniform_scaled,
}


def check_psi2_cap(law: DistributionLaw, k_cap: float) -> None:
    """Raise ValueError when ``law`` declares a psi2 above ``k_cap`` (1e-12 allowance)."""
    if not law.declared_psi2 <= k_cap + 1e-12:
        raise ValueError(f"{law.spec_string()} declares psi2 {law.declared_psi2:.6g} "
                         f"above k_cap {k_cap:.6g}")


def parse_law_spec(text: str) -> DistributionLaw:
    """Parse a law spec string.

    Accepted forms: ``rademacher``, ``gaussian``, ``uniform``,
    ``sparse-bernoulli(p)``, ``discrete(a1:w1,a2:w2,...)``.
    """
    text = text.strip()
    if text in _NAMED_LAWS:
        return _NAMED_LAWS[text]()
    if text.startswith("sparse-bernoulli(") and text.endswith(")"):
        return sparse_bernoulli(float(text[len("sparse-bernoulli("):-1]))
    if text.startswith("discrete(") and text.endswith(")"):
        pairs = [p for p in text[len("discrete("):-1].split(",") if p.strip()]
        atoms, weights = [], []
        for p in pairs:
            a, _, w = p.partition(":")
            if not _:
                raise ValueError(f"discrete atom needs the form value:weight, got {p!r}")
            atoms.append(float(a))
            weights.append(float(w))
        return discrete(atoms, weights)
    raise ValueError(f"unknown law spec {text!r}")


@dataclass(frozen=True, eq=False)
class EntryProfile:
    """Entry laws of an (n_rows x n_cols) ensemble, with a psi2 cap.

    ``laws`` holds the distinct laws of the grid, merged by equality, in
    row-major order of first appearance; ``codes`` is a read-only
    (n_rows, n_cols) integer array whose entry (i, j) indexes the law of cell
    (i, j) in ``laws``.  The constructor takes any laws/codes pair, drops laws
    no cell uses, merges equal laws and renumbers the codes into that order,
    so equal grids make equal (and equally hashed) profiles.
    """

    laws: tuple[DistributionLaw, ...]
    codes: np.ndarray
    k_cap: float

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 2 or codes.size == 0 or not np.issubdtype(codes.dtype, np.integer):
            raise ValueError("codes must be a non-empty 2-d integer array")
        if codes.min() < 0 or codes.max() >= len(self.laws):
            raise ValueError(f"codes must lie in [0, {len(self.laws)}), the indices of laws")
        if not self.k_cap > 0:
            raise ValueError(f"k_cap must be positive, got {self.k_cap}")
        merged: dict[DistributionLaw, int] = {}
        lut = np.array([merged.setdefault(law, len(merged)) for law in self.laws], dtype=np.intp)
        # First flat index of each code, then of each merged law: one scatter over the cells.
        first = np.full(len(self.laws), codes.size, dtype=np.intp)
        np.minimum.at(first, codes.ravel(), np.arange(codes.size))
        merged_first = np.full(len(merged), codes.size, dtype=np.intp)
        np.minimum.at(merged_first, lut, first)
        order = np.argsort(merged_first)[:np.count_nonzero(merged_first < codes.size)]
        distinct = list(merged)
        laws = tuple(distinct[c] for c in order)
        for law in laws:
            check_psi2_cap(law, self.k_cap)
        renumber = np.zeros(len(merged), dtype=np.intp)
        renumber[order] = np.arange(order.size)
        codes = renumber[lut][codes]
        codes.flags.writeable = False
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "codes", codes)

    @classmethod
    def homogeneous(cls, n_rows: int, n_cols: int, law: DistributionLaw,
                    k_cap: float) -> "EntryProfile":
        return cls((law,), np.zeros((n_rows, n_cols), dtype=np.intp), k_cap)

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    @property
    def n_cols(self) -> int:
        return self.codes.shape[1]

    def law(self, i: int, j: int) -> DistributionLaw:
        return self.laws[self.codes[i, j]]

    def column(self, j: int) -> tuple[DistributionLaw, ...]:
        return tuple(self.laws[c] for c in self.codes[:, j].tolist())

    @property
    def is_homogeneous(self) -> bool:
        return len(self.laws) == 1

    def __eq__(self, other):
        return (isinstance(other, EntryProfile) and self.k_cap == other.k_cap
                and self.laws == other.laws and np.array_equal(self.codes, other.codes))

    def __hash__(self):
        return hash((self.laws, self.codes.shape, self.codes.tobytes(), self.k_cap))

    @cached_property
    def cells(self) -> tuple[np.ndarray, ...]:
        """Flat row-major indices of the cells of each law, built on first use."""
        flat = self.codes.ravel()
        return tuple(np.flatnonzero(flat == c) for c in range(len(self.laws)))

    @cached_property
    def integer_scale(self) -> np.ndarray | None:
        """Positive scales under which every atom of every cell becomes -1, 0 or 1, or None.

        An (n_rows, 1) array, one scale per row, when the laws of each row share one
        nonzero atom magnitude; otherwise a (1, n_cols) array, one per column, when the
        laws of each column do; otherwise None.  Only rademacher and sparse-bernoulli laws
        qualify, so gaussian, uniform and discrete laws give None.  For any sample A,
        ``np.rint(A * integer_scale)`` is its {-1, 0, 1} pattern M, and A is M times the
        laws' nonzero atom magnitudes (the scales are their reciprocals) along that axis,
        exactly.  Built on first use.
        """
        if any(law.kind not in ("rademacher", "sparse-bernoulli") for law in self.laws):
            return None
        units = np.array([max(law.atoms) for law in self.laws])[self.codes]
        for axis in (1, 0):
            first = units.take([0], axis)
            if np.all(units == first):
                scale = 1.0 / first
                scale.flags.writeable = False
                return scale
        return None

    @cached_property
    def lattice_plan(self) -> "LatticePlan":
        """Distinct columns with their law groups, built on first use and kept on the profile."""
        distinct: dict[bytes, int] = {}
        column_of = np.array([distinct.setdefault(col.tobytes(), len(distinct))
                              for col in self.codes.T], dtype=np.intp)
        supports = [law.symmetrized_support() for law in self.laws]
        groups = []
        for j in np.unique(column_of, return_index=True)[1]:
            col = self.codes[:, j]
            used, first = np.unique(col, return_index=True)
            groups.append(tuple(
                LawGroup(self.laws[c], np.flatnonzero(col == c),
                         *((None, None) if supports[c] is None else map(np.asarray, supports[c])))
                for c in used[np.argsort(first)]))
        return LatticePlan(column_of, tuple(groups))


class LawGroup(NamedTuple):
    """Rows of one column that share a law, with the law's symmetrized support.

    ``atoms``/``weights`` describe X - X' exactly for finitely supported laws;
    both are None for the gaussian and uniform laws, whose lattice
    expectations have closed forms.
    """

    law: DistributionLaw
    rows: np.ndarray
    atoms: np.ndarray | None
    weights: np.ndarray | None


class LatticePlan(NamedTuple):
    """How the lattice-distance kernel reads a profile: one entry per distinct column.

    Column j of the profile is evaluated with ``groups[column_of[j]]``, so
    columns with equal laws share one entry; entries are in order of first
    appearance.  Each entry lists the column's law groups in order of first
    appearance down the column.
    """

    column_of: np.ndarray
    groups: tuple[tuple[LawGroup, ...], ...]


def parse_rule_key(key: str) -> tuple[object, object]:
    """(row, column) selectors of a ``law.<i>.<j>`` key: an int, or ``"*"`` for all."""
    parts = key.strip().split(".")
    if len(parts) != 3 or parts[0] != "law" or not all(
            p == "*" or p.lstrip("-").isdigit() for p in parts[1:]):
        raise ValueError(f"profile rule key must look like law.<i>.<j>, got {key.strip()!r}")
    return tuple("*" if p == "*" else int(p) for p in parts[1:])


def profile_from_rules(rules, n_rows: int, n_cols: int, k_cap: float) -> EntryProfile:
    """Materialize (row, col, law) rules into a profile; ``"*"`` selects a whole row or column.

    Later rules overwrite earlier ones on the cells they select; every cell must be covered.
    """
    codes = np.full((n_rows, n_cols), -1, dtype=np.intp)
    laws = []
    for row_sel, col_sel, law in rules:
        if row_sel != "*" and not 0 <= row_sel < n_rows:
            raise ValueError(f"profile rule row {row_sel} out of range for n_rows={n_rows}")
        if col_sel != "*" and not 0 <= col_sel < n_cols:
            raise ValueError(f"profile rule column {col_sel} out of range for n_cols={n_cols}")
        codes[slice(None) if row_sel == "*" else row_sel,
              slice(None) if col_sel == "*" else col_sel] = len(laws)
        laws.append(law)
    unassigned = np.argwhere(codes < 0)
    if unassigned.size:
        i, j = unassigned[0]
        raise ValueError(f"profile rule set leaves cell ({i},{j}) unassigned")
    return EntryProfile(tuple(laws), codes, k_cap)


def sample_matrix(profile: EntryProfile, stream: np.random.Generator,
                  count: int | None = None) -> np.ndarray:
    """Sample matrices with independent entries per the profile.

    With ``count`` None, returns one (n_rows x n_cols) matrix; with an integer
    ``count``, a (count, n_rows, n_cols) stack.  Each law of ``profile.laws``
    is drawn in turn in one vectorized call of shape (count, cells), in
    row-major cell order, so ``sample_matrix(p, s, 1)[0]`` equals
    ``sample_matrix(p, s)`` bit for bit.  A one-law profile draws the whole
    stack in one call of the output's shape, which consumes the stream alike.
    """
    lead = () if count is None else (count,)
    if profile.is_homogeneous:
        return profile.laws[0].sample(stream, lead + profile.codes.shape)
    out = np.empty(lead + (profile.codes.size,))
    for law, cells in zip(profile.laws, profile.cells):
        out[..., cells] = law.sample(stream, lead + (cells.size,))
    return out.reshape(lead + profile.codes.shape)


def paley_zygmund_floor(k_psi2: float) -> float:
    """Lower bound (6 + 4 K^4)^(-1) on P(|X - X'| >= 1) for any law with psi2 <= K.

    Valid for K >= 1 (below that no variance-1 law exists with the cap).
    """
    if not k_psi2 >= 1.0:
        raise ValueError(f"the floor assumes K >= 1, got {k_psi2}")
    return 1.0 / (6.0 + 4.0 * k_psi2 ** 4)


def psi2_estimate(law, n_samples: int, stream: np.random.Generator) -> float:
    """Empirical psi2 norm: smallest t with mean(exp((X/t)^2)) <= 2 over one sample.

    Bisects on t against a fixed sample of ``n_samples`` draws from ``stream``,
    to a relative width of 1e-3.  Raises :class:`EstimationError` when even
    t = 100 fails the criterion (the law is too heavy-tailed for the sample to
    certify subgaussianity).
    """
    if n_samples < 1000:
        raise ValueError("psi2_estimate needs n_samples >= 1000")
    sq = np.asarray(law.sample(stream, n_samples), dtype=float) ** 2
    peak = float(np.max(sq))
    if peak == 0.0:
        return 0.0

    def avg(t):
        with np.errstate(over="ignore"):
            return float(np.mean(np.exp(sq / (t * t))))

    hi = 100.0
    if avg(hi) > 2.0:
        raise EstimationError(f"empirical exp-moment still above 2 at t = {hi}")
    # exp(peak/t^2)/n > 2 guarantees the mean exceeds 2: a valid lower bracket
    lo = math.sqrt(peak / (math.log(2.0 * n_samples) + 1.0))
    if avg(lo) <= 2.0:  # tiny samples of a bounded law; shrink further
        lo = min(lo, 1e-12)
    while (hi - lo) > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if avg(mid) > 2.0:
            lo = mid
        else:
            hi = mid
    return hi
