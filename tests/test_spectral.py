"""P-set machinery: symmetric functions, wedge bound, augmentation,
realization."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pmkit import classify, linalg, spectral, suites
from pmkit.classify import NO, YES
from pmkit.errors import (
    DimensionTooLargeError,
    NotAPSetError,
    NotConjugationClosedError,
    PreconditionViolatedError,
    ZeroElementInP0CheckError,
)
from pmkit.generators import CLASS_TAGS, GenSpec, generate
from pmkit.tolerances import DEFAULT_TOL

EXAMPLE = np.array([[-1.0, -1.0], [4.0, 3.0]])


class TestSigmaAll:
    def test_pair_of_ones(self):
        np.testing.assert_allclose(spectral.sigma_all([1.0, 1.0]), [2.0, 1.0])

    def test_hand_conjugate_pair(self):
        # sum 2, product |1+2i|^2 = 5
        np.testing.assert_allclose(
            spectral.sigma_all([complex(1, 2), complex(1, -2)]), [2.0, 5.0]
        )

    def test_all_zeros(self):
        np.testing.assert_allclose(spectral.sigma_all([0.0] * 4), [0.0] * 4)

    def test_unpaired_rejected(self):
        with pytest.raises(NotConjugationClosedError):
            spectral.sigma_all([complex(1, 2), complex(5, 0)])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-3, 3), st.floats(0.1, 3)), min_size=1, max_size=4
        ),
        st.lists(st.floats(-3, 3), max_size=3),
    )
    def test_matches_expansion_of_real_quadratics(self, pairs, reals):
        vals = []
        poly = np.array([1.0])
        for a, b in pairs:
            vals += [complex(a, b), complex(a, -b)]
            poly = np.convolve(poly, [1.0, 2.0 * a, a * a + b * b])
        for r in reals:
            vals.append(complex(r, 0.0))
            poly = np.convolve(poly, [1.0, r])
        got = spectral.sigma_all(vals)
        np.testing.assert_allclose(got, poly[1:], rtol=1e-9, atol=1e-9)

    def test_bridge_to_charpoly(self):
        # sigma_k of the spectrum equals c_k = sum of k x k principal minors
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = rng.uniform(-1, 1, (n, n))
            spec = linalg.eigenvalues(m)
            sig = spectral.sigma_all(spec.values)
            p = linalg.charpoly(m)
            for k in range(1, n + 1):
                ref = p[k]
                assert abs(sig[k - 1] - ref) <= 1e-6 * max(1.0, abs(ref))


class TestIsPSet:
    def test_pair_of_ones(self):
        assert spectral.is_P_set([1.0, 1.0]) == YES

    def test_negative_real_part_pair(self):
        assert spectral.is_P_set([complex(-1, 2), complex(-1, -2)]) == NO

    def test_pure_imaginary_pair_p0_boundary(self):
        vals = [complex(0, 1), complex(0, -1)]
        assert spectral.is_P_set(vals) == NO  # sigma_1 = 0
        assert spectral.is_P_set(vals, variant="P0") == YES

    def test_example_contrast(self):
        # {1,1} is a P-set even though the anchor matrix with that
        # spectrum is not a P-matrix
        assert spectral.is_P_set([1.0, 1.0]) == YES
        assert classify.is_P_minors(EXAMPLE)[0] == NO

    def test_p_matrix_spectra_are_p_sets(self):
        rng = np.random.default_rng(19)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(2, 7))
            m = rng.uniform(-1, 1, (n, n))
            np.fill_diagonal(m, np.abs(m).sum(axis=1) + rng.uniform(0.1, 1.0))
            assert classify.is_P_minors(m)[0] == YES
            assert spectral.is_P_set(linalg.eigenvalues(m).values) == YES
            checked += 1
        assert checked == 300


class TestWedge:
    def test_hand_conjugate_pair(self):
        res = spectral.wedge_check([complex(1, 2), complex(1, -2)])
        assert res.verdict == YES
        assert res.max_arg == pytest.approx(math.atan(2.0))
        assert res.bound == pytest.approx(math.pi / 2)

    def test_pair_of_ones(self):
        res = spectral.wedge_check([1.0, 1.0])
        assert res.verdict == YES and res.max_arg == 0.0

    def test_p0_equality_case(self):
        # {i, -i}: |arg| = pi/2 = (n-1)pi/n with sigma = (0, 1)
        res = spectral.wedge_check([complex(0, 1), complex(0, -1)], variant="P0")
        assert res.verdict == YES
        assert res.equality_case is True
        assert res.equality_sigma_consistent is True

    def test_p0_zero_rejected(self):
        for vals in ([0.0, 1.0], [0.0], [0.0, 2.0**-60], [complex(0.0, 0.0), 1.0]):
            with pytest.raises(ZeroElementInP0CheckError):
                spectral.wedge_check(vals, variant="P0")

    @pytest.mark.parametrize("k", [-60, -30, 0, 30])
    def test_p0_verdict_is_scale_free(self, k):
        # the zero test is exact: 2^-30 is a nonzero value, not a zero
        for vals in ([1.0, 1.0], [1.0, -3.0], [0.5, 2.0, 7.0]):
            scaled = [2.0**k * v for v in vals]
            assert spectral.wedge_check(scaled, "P0").verdict == spectral.wedge_check(vals, "P0").verdict

    def test_negative_real_fails(self):
        assert spectral.wedge_check([-1.0, 1.0]).verdict == NO

    def test_accepted_p_sets_pass_wedge(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m = rng.uniform(-1, 1, (n, n))
            np.fill_diagonal(m, np.abs(m).sum(axis=1) + 0.3)
            vals = linalg.eigenvalues(m).values
            assert spectral.is_P_set(vals) == YES
            assert spectral.wedge_check(vals).verdict == YES

    def test_suite_count_is_per_matrix(self):
        # eigenvalues +-i sit on the n = 2 bound: one rejected matrix, not two values
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert suites._kellogg_violations([rotation], DEFAULT_TOL) == 1
        assert suites._kellogg_violations([rotation, np.eye(2), np.eye(1)], DEFAULT_TOL) == 1


class TestAugment:
    def test_single_addition_in_derived_window(self):
        # for base {-1 +- 2i} and one addition t: sigma = (t-2, 5-2t, 5t),
        # all positive exactly when t in (2, 2.5)
        res = spectral.augment_to_P_set([complex(-1, 2), complex(-1, -2)])
        assert res is not None
        assert len(res.additions) == 1
        t = res.additions[0]
        assert 2.0 < t < 2.5
        assert res.sigma_scale == 1.0
        np.testing.assert_allclose(res.sigma, [t - 2.0, 5.0 - 2.0 * t, 5.0 * t], atol=1e-9)

    def test_quarter_grid_value_valid(self):
        # the specific grid point 2.25 from the derivation is itself valid
        union = [complex(-1, 2), complex(-1, -2), 2.25]
        np.testing.assert_allclose(spectral.sigma_all(union), [0.25, 0.5, 11.25], atol=1e-12)
        assert spectral.is_P_set(union) == YES

    def test_already_p_set(self):
        res = spectral.augment_to_P_set([1.0])
        assert res.additions == ()

    def test_harder_pair(self):
        base = [complex(-3, 4), complex(-3, -4)]
        res = spectral.augment_to_P_set(base)
        assert res is not None
        union = list(base) + list(res.additions)
        assert spectral.is_P_set(union) == YES
        assert all(t > 0 for t in res.additions)

    def test_near_axis_pair_needs_many(self):
        base = [complex(-3, 0.5), complex(-3, -0.5)]
        res = spectral.augment_to_P_set(base)
        assert res is not None
        assert len(res.additions) >= spectral._kellogg_min_total(base) - 2
        assert spectral.is_P_set(list(base) + list(res.additions)) == YES

    @pytest.mark.parametrize(
        "pairs, count, value",
        [
            ([(-1.2697541461647213, 2.394705317640004)], 1, 2.710515),
            # ladder-sized: past the dense phase's 24 counts
            ([(-2.6697158040624913, 0.7835773885215302)], 47, 2.782333),
            ([(-1.9960153702591887, 0.6163162541214344), (2.117077673750968, 1.7397497452378228)], 41, 1.996015),
        ],
    )
    def test_pinned_additions(self, pairs, count, value):
        # seed sets 4, 29 and 78 of the seed-1 suite's augmentation check
        base = [complex(a, sign * b) for a, b in pairs for sign in (1.0, -1.0)]
        res = spectral.augment_to_P_set(base)
        assert res.additions == (value,) * count

    def test_precondition_negative_real(self):
        with pytest.raises(PreconditionViolatedError):
            spectral.augment_to_P_set([-1.0])

    @pytest.mark.parametrize("k", [-60, -30, 0, 30])
    def test_precondition_is_scale_free(self, k):
        # positive reals pass and nonpositive ones fail at every scale
        for vals in ([1.0], [1.0, 3.0]):
            spectral._check_augment_precondition(spectral.make_candidate([2.0**k * v for v in vals]))
        for vals in ([-1.0], [1.0, -3.0]):
            with pytest.raises(PreconditionViolatedError):
                spectral.augment_to_P_set([2.0**k * v for v in vals])
        spectral.augment_to_P_set([2.0**k])  # passes the precondition

    @pytest.mark.parametrize("vals", [[0.0], [0.0, 1.0], [2.0**-60, -0.0]])
    def test_precondition_exact_zero(self, vals):
        with pytest.raises(PreconditionViolatedError):
            spectral.augment_to_P_set(vals)

    def test_precondition_unpaired(self):
        with pytest.raises(PreconditionViolatedError):
            spectral.augment_to_P_set([complex(1, 2)])


def _pair(a, b):
    return (complex(a, b), complex(a, -b))


class TestLadder:
    @staticmethod
    def brute_first_pass(base, ts, cap):
        """The first (m, t) in count order, then `ts` order, whose union
        passes is_P_set."""
        for m in range(1, cap + 1):
            for t in ts:
                union = linalg.Spectrum(base + (complex(t),) * m, True)
                if spectral.is_P_set(union) == YES:
                    return m, t
        return None

    @pytest.mark.parametrize(
        "base, t, cap, expected",
        [
            (_pair(-1, 2), 0.5, 30, 5),
            (_pair(-1, 2), 0.5, 4, None),
            (_pair(-1, 2), 2.25, 10, 1),
            (_pair(-1, 2) + (0.3,), 1.0, 50, 2),
            (_pair(-3, 4), 8.0, 100, 4),
            (_pair(-3, 0.5), 3.0, 300, 146),
            (_pair(-3, 0.5), 2.0, 300, None),
            (_pair(-2.6697158040624913, 0.7835773885215302), 2.782333, 100, 47),
        ],
    )
    def test_smallest_passing_count(self, base, t, cap, expected):
        assert len(base) + cap <= spectral.FLOAT64_MAX_VALUES
        got = spectral._ladder_min_count(base, (t,), cap, DEFAULT_TOL)
        assert got == (None if expected is None else (expected, t)) == self.brute_first_pass(base, (t,), cap)

    @pytest.mark.parametrize(
        "base, ts, cap, expected",
        [
            # 2 < t < 2.5 passes with one addition: the first in ts order wins
            (_pair(-1, 2), (2.4, 2.25), 10, (1, 2.4)),
            (_pair(-1, 2), (2.25, 2.4), 10, (1, 2.25)),
            # a later magnitude passing at a smaller count wins
            (_pair(-1, 2), (0.5, 4.0, 2.25), 30, (1, 2.25)),
            (_pair(-3, 0.5), (2.0, 3.0), 300, (146, 3.0)),
            (_pair(-1, 2) + (0.3,), (8.0, 1.0, 0.5), 50, (2, 1.0)),
            (_pair(-1, 2), (0.25, 0.5), 30, (5, 0.5)),
            (_pair(-1, 2), (0.25, 0.5), 4, None),
        ],
    )
    def test_first_magnitude_at_the_smallest_count(self, base, ts, cap, expected):
        got = spectral._ladder_min_count(base, ts, cap, DEFAULT_TOL)
        assert got == expected == self.brute_first_pass(base, ts, cap)

    def test_not_monotone_in_the_count(self):
        # {-1 +- 2i} with 0.5 passes from 5 copies on, and fails again at 16
        union = linalg.Spectrum(_pair(-1, 2) + (0.5 + 0j,) * 16, True)
        assert spectral.is_P_set(union) == NO

    @staticmethod
    def full_scan(base, t, cap):
        """The ladder scan without the dead-end exit: every count up to the cap."""
        values = base + (complex(t),) * min(cap, spectral.EXPANSION_MAX_VALUES - len(base))
        scale = spectral._scale(values)
        expansion = spectral._expansion(values, scale)
        _, coeffs = next(expansion)
        thr = spectral._pset_thresholds(len(values), scale, DEFAULT_TOL).astype(coeffs.real.dtype)
        for deg, coeffs in expansion:
            if deg > len(base) and bool((coeffs.real[1 : deg + 1] > thr[:deg]).all()):
                return deg - len(base)
        return None

    def test_dead_end_exit_matches_full_scan(self):
        # caps past FLOAT64_MAX_VALUES run in clongdouble; t = 6 sets the
        # scale itself for the small bases, so t/L = 1 there; with 1e-8 in
        # the base and t = 6, 3 copies pass with the top coefficient at
        # 2.3e-10, just above the floor; the batch of all three magnitudes
        # exits only once every row is at its dead end
        bases = (_pair(-1, 2), _pair(-1, 2) + (0.3,), _pair(-1, 2) + (1e-8,), _pair(-3, 0.5),
                 _pair(-3, 4), _pair(-0.2, 3) + _pair(0.5, 1), _pair(1, 1))
        ts = (0.5, 2.0, 6.0)
        got = []
        for base in bases:
            for cap in (4, 60, 900):
                scans = []
                for t in ts:
                    m = self.full_scan(base, t, cap)
                    assert spectral._ladder_min_count(base, (t,), cap, DEFAULT_TOL) == (
                        None if m is None else (m, t)), (base, t, cap)
                    if m is not None:
                        scans.append((m, t))
                    got.append(m)
                first = min(scans, key=lambda hit: hit[0], default=None)
                assert spectral._ladder_min_count(base, ts, cap, DEFAULT_TOL) == first, (base, cap)
        assert None in got and any(m is not None for m in got)

    def test_dead_end_stops_far_below_the_cap(self, monkeypatch):
        degrees = []
        expansion = spectral._expansion

        def spy(values, scale):
            for deg, coeffs in expansion(values, scale):
                degrees.append(deg)
                yield deg, coeffs

        monkeypatch.setattr(spectral, "_expansion", spy)
        assert spectral._ladder_min_count(_pair(-3, 0.5), (2.0,), 6000, DEFAULT_TOL) is None
        assert max(degrees) < 100


def _reference_expansion(values, scale):
    """The expansion loop before row batching, one Python complex division
    per value: the bit oracle of spectral._expansion."""
    n = len(values)
    coeffs = np.zeros(n + 1, dtype=np.complex128 if n <= spectral.FLOAT64_MAX_VALUES else np.clongdouble)
    coeffs[0] = 1.0
    for deg, v in enumerate(values):
        vs = complex(v) / scale
        coeffs[1 : deg + 2] = coeffs[1 : deg + 2] + vs * coeffs[0 : deg + 1]
    return coeffs


def _reference_scale(values):
    return max(1.0, max((abs(complex(v)) for v in values), default=1.0))


def _assert_same_coeffs(got, want):
    assert got.dtype == want.dtype
    if want.dtype == np.complex128:
        assert got.tobytes() == want.tobytes()
    else:
        # clongdouble: equal values, but the padding bytes may differ
        np.testing.assert_array_equal(got, want)


def _kernel_rows(n, rows, rng):
    """Seeded rows of n values: real and complex mixed, one power of ten
    in 1e-5..1e5 per row, and some zero parts of either sign."""
    vals = rng.uniform(-3.0, 3.0, (rows, n)) + 1j * rng.uniform(-3.0, 3.0, (rows, n))
    vals.imag[rng.random((rows, n)) < 0.4] = 0.0
    vals *= 10.0 ** rng.integers(-5, 6, (rows, 1))
    vals.real[:, ::7] *= 0.0  # +0 or -0 by the sign of the draw
    return vals


def _suite_sets(seed):
    """The value lists of the augmentation check of suite_classify."""
    for k in range(suites.AUGMENT_TRIALS):
        g = np.random.default_rng(seed * 6_000_029 + k)
        vals = []
        for _ in range(int(g.integers(1, 4))):
            a, b = g.uniform(-3.0, 3.0), g.uniform(0.25, 3.0)
            vals += [complex(a, b), complex(a, -b)]
        for _ in range(int(g.integers(0, 3))):
            vals.append(complex(g.uniform(0.1, 3.0), 0.0))
        yield vals


# value lists that tuples of distinct random values decided while the
# augmentation still drew them
RANDOM_TUPLE_CASES = (
    _pair(-1.2709828402885623, 1.671693904991313) + (0.362074422666861,),
    _pair(-0.22578742833737842, 0.5461795719882386) + _pair(-1.688825161831149, 2.744289720901905)
    + (5.685201850537812,),
    _pair(-5.841815268733481, 5.456870694387031) + (6.854809557046741, 4.724908738279774),
)


class TestBatchedExpansion:
    SIZES = tuple(range(1, 41)) + (799, 800, 801, 1200)

    @pytest.mark.parametrize("n", SIZES)
    def test_rows_match_reference_loop(self, n):
        rng = np.random.default_rng(n)
        vals = _kernel_rows(n, 4 if n <= 40 else 2, rng)
        scales = [_reference_scale(row) for row in vals]
        batch = spectral._full_expansion(vals, scales)
        assert batch.shape == (len(vals), n + 1)
        for row, scale, got in zip(vals, scales, batch):
            want = _reference_expansion(row, scale)
            _assert_same_coeffs(got, want)
            _assert_same_coeffs(spectral._full_expansion(row, scale), want)

    def test_expand_scaled_takes_python_abs_scale(self):
        rng = np.random.default_rng(100)
        for n in self.SIZES[:-1]:
            row = _kernel_rows(n, 1, rng)[0]
            values = tuple(complex(v) for v in row) + tuple(complex(v) for v in np.conj(row[row.imag != 0.0]))
            scaled, scale, _ = spectral._expand_scaled(linalg.Spectrum(values, True))
            assert scale == _reference_scale(values)
            _assert_same_coeffs(scaled, _reference_expansion(values, scale).real[1:])

    def test_dense_batches_expand_reference_rows(self, monkeypatch):
        # every ladder batch row of at most 800 values has, at the count
        # where the scan stopped, the bits of the old per-candidate
        # expansion at the union's Python-abs scale
        batches = []
        expansion = spectral._expansion

        def spy(values, scales):
            batch = {"values": np.array(values), "scales": np.array(scales)}
            if batch["values"].ndim == 2:
                batches.append(batch)
            for deg, coeffs in expansion(values, scales):
                batch["deg"], batch["coeffs"] = deg, coeffs  # coeffs is updated in place
                yield deg, coeffs

        monkeypatch.setattr(spectral, "_expansion", spy)
        for vals in list(_suite_sets(1))[:40] + list(RANDOM_TUPLE_CASES):
            spectral.augment_to_P_set(list(vals))
        rows = 0
        for batch in batches:
            deg = batch["deg"]
            for row, scale, got in zip(batch["values"], batch["scales"], batch["coeffs"]):
                if len(row) > spectral.FLOAT64_MAX_VALUES:
                    continue
                assert scale == _reference_scale(row)
                _assert_same_coeffs(got[: deg + 1], _reference_expansion(row[:deg], scale))
                assert not got[deg + 1 :].any()
                rows += 1
        assert rows > 500

    def test_first_passing_row_across_800_values(self):
        # ladder batches across the complex128 / clongdouble switch, with
        # the top coefficient near its threshold; the base is a P-set, so
        # only the top coefficient can fail and one copy decides unless
        # every magnitude fails at every count
        rng = np.random.default_rng(3)
        base = _pair(-0.3, 0.5) + tuple(complex(x) for x in rng.uniform(0.995, 1.0, 796))
        found = []
        for m, lo, hi in ((1, 1e-12, 1e-7), (2, 1e-12, 1e-7), (3, 1e-12, 1e-7), (4, 1e-12, 1e-7),
                          (3, 1e-16, 1e-13), (4, 1e-48, 1e-28), (4, 1e-64, 1e-52)):
            ts = tuple(np.geomspace(lo, hi, 12) ** (1.0 / m))
            want = TestLadder.brute_first_pass(base, ts, m)
            assert spectral._ladder_min_count(base, ts, m, DEFAULT_TOL) == want
            found.append(want if want is None else ts.index(want[1]))
        assert None in found and any(i not in (None, 0) for i in found)

    def test_past_the_expansion_cap_no_row_passes(self):
        base = (1.0 + 0j,) * spectral.EXPANSION_MAX_VALUES
        assert spectral._ladder_min_count(base, (1.0, 1.0, 1.0), 1, DEFAULT_TOL) is None


def _reference_union_is_pset(base, additions, tol):
    vals = base + tuple(complex(t) for t in additions)
    if len(vals) > spectral.EXPANSION_MAX_VALUES:
        return False
    return spectral.is_P_set(linalg.Spectrum(vals, True), tol) == YES


def _reference_augment_to_P_set(c, tol=DEFAULT_TOL):
    """augment_to_P_set with a dense phase of one is_P_set call per
    candidate: counts from the Kellogg bound up, magnitudes ascending
    within a count."""
    cand = spectral._coerce(c)
    spectral._check_augment_precondition(cand)
    base = cand.values

    if _reference_union_is_pset(base, (), tol):
        sig, scale = spectral._result_sigma(base, ())
        return spectral.AugmentResult((), sig, scale)

    m_start = max(1, spectral._kellogg_min_total(base) - len(base))
    if m_start > spectral._MAX_ADDITIONS:
        return None
    magnitudes = tuple(sorted(set(list(spectral._AUGMENT_MAGNITUDES) + spectral._dip_targets(base))))

    def finish(additions):
        adds = tuple(sorted(float(t) for t in additions))
        sig, scale = spectral._result_sigma(base, adds)
        return spectral.AugmentResult(adds, sig, scale)

    dense_hi = min(m_start + spectral._DENSE_COUNT_LIMIT - 1, spectral._MAX_ADDITIONS)
    if m_start <= 8:
        for m in range(m_start, dense_hi + 1):
            for t in magnitudes:
                if _reference_union_is_pset(base, [t] * m, tol):
                    return finish([t] * m)

    ladder_ts = tuple(spectral._dip_targets(base)) + spectral._LADDER_MAGNITUDES
    best = None
    cap = spectral._MAX_ADDITIONS
    for t in dict.fromkeys(ladder_ts):
        hit = spectral._ladder_min_count(base, (float(t),), cap, tol)
        if hit is not None and (best is None or hit[0] < best[0]):
            best = hit
            cap = hit[0] - 1
    if best is not None:
        m, t = best
        return finish([t] * m)
    return None


class TestDensePhaseAgainstReference:
    @staticmethod
    def outcome(res):
        return None if res is None else (res.additions, res.sigma, res.sigma_scale)

    def test_seed_1_suite_sets(self):
        for vals in _suite_sets(1):
            got = spectral.augment_to_P_set(vals)
            assert self.outcome(got) == self.outcome(_reference_augment_to_P_set(vals)), vals

    @pytest.mark.parametrize("vals", RANDOM_TUPLE_CASES)
    def test_random_tuple_cases(self, vals):
        got = spectral.augment_to_P_set(list(vals))
        assert len(set(got.additions)) == 1
        assert self.outcome(got) == self.outcome(_reference_augment_to_P_set(list(vals)))

    @pytest.mark.parametrize("k", (17, 43))
    def test_seed_3_suite_sets_won_by_one_random_value(self, k):
        # the two suite sets of seeds 1-10 that a one-value random tuple
        # decided while the augmentation drew them (2.328095977600164 and
        # 1.4525148600823266); the grid takes one more addition
        vals = list(_suite_sets(3))[k]
        got = spectral.augment_to_P_set(vals)
        assert got.additions == {17: (1.5, 1.5), 43: (0.75, 0.75)}[k]
        assert self.outcome(got) == self.outcome(_reference_augment_to_P_set(vals))

    def test_one_is_P_set_call_per_augmentation(self, monkeypatch):
        calls = []
        is_P_set = spectral.is_P_set

        def counting(*args, **kwargs):
            calls.append(1)
            return is_P_set(*args, **kwargs)

        monkeypatch.setattr(spectral, "is_P_set", counting)
        for vals in list(_suite_sets(1))[:20] + list(RANDOM_TUPLE_CASES):
            calls.clear()
            spectral.augment_to_P_set(list(vals))
            assert len(calls) == 1  # the base test; no ladder count goes through it


class TestRealize:
    def test_pair_of_ones_gives_identity(self):
        m = spectral.realize_P_set([1.0, 1.0])
        np.testing.assert_allclose(m, np.eye(2))

    def test_positive_reals_diagonal(self):
        m = spectral.realize_P_set([2.0, 3.0])
        np.testing.assert_allclose(np.sort(np.diag(m)), [2.0, 3.0])
        assert classify.is_P_minors(m)[0] == YES

    def test_conjugate_pair(self):
        m = spectral.realize_P_set([complex(1, 2), complex(1, -2)])
        assert m is not None
        assert classify.is_P_minors(m)[0] == YES
        assert np.trace(m) == pytest.approx(2.0)
        assert np.linalg.det(m) == pytest.approx(5.0)

    def test_left_half_plane_pset(self):
        vals = [complex(-1, 2), complex(-1, -2), 2.25]
        m = spectral.realize_P_set(vals, budget=3000, seed=0)
        assert m is not None
        assert classify.is_P_minors(m)[0] == YES
        ok, dev = spectral.spectra_match(linalg.eigenvalues(m).values, vals)
        assert ok, dev

    def test_not_a_pset_rejected(self):
        with pytest.raises(NotAPSetError):
            spectral.realize_P_set([-1.0, 1.0])

    def test_past_the_minor_cap_rejected(self):
        with pytest.raises(DimensionTooLargeError):
            spectral.realize_P_set([1.0] * (classify.MINORS_MAX_DIM + 1))

    @pytest.mark.parametrize(
        "values",  # (raw values, the expected blocks in canonical order)
        [
            ([3.0, 0.5, 2.0], [[[0.5]], [[2.0]], [[3.0]]]),  # reals only
            ([complex(1, 2), complex(1, -2), complex(-0.0, 0.5), complex(-0.0, -0.5)],  # pairs only
             [[[-0.0, 0.5], [-0.5, -0.0]], [[1.0, 2.0], [-2.0, 1.0]]]),
            ([complex(-1, 2), 2.25, complex(-1, -2), 0.5, complex(1e-3, 7), complex(1e-3, -7)],
             [[[-1.0, 2.0], [-2.0, -1.0]], [[1e-3, 7.0], [-7.0, 1e-3]], [[0.5]], [[2.25]]]),
            ([4.0], [[[4.0]]]),
        ],
    )
    def test_block_form_is_scipy_block_diag(self, values):
        values, blocks = values
        want = scipy.linalg.block_diag(*(np.array(b) for b in blocks))
        got = spectral._block_form(spectral.make_candidate(values))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _outcome(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:  # the error is part of the output
        return ("raised", type(exc).__name__, str(exc))


class TestEigenvalueSpectrum:
    """The spectral functions take the Spectrum of `eigenvalues` as it is."""

    @staticmethod
    def counted(monkeypatch, module):
        """Record the length of each `pair_conjugates` call made through `module`."""
        calls = []

        def pair_conjugates(values, pair=linalg.pair_conjugates):
            calls.append(len(values))
            return pair(values)

        monkeypatch.setattr(module, "pair_conjugates", pair_conjugates)
        return calls

    @staticmethod
    def outputs(s):
        return [
            _outcome(lambda: spectral.sigma_all(s).tobytes()),
            _outcome(spectral.is_P_set, s),
            _outcome(spectral.is_P_set, s, variant="P0"),
            _outcome(spectral.wedge_check, s),
            _outcome(spectral.wedge_check, s, variant="P0"),
        ]

    def test_same_bits_without_a_second_pairing(self, monkeypatch):
        spectra = [linalg.eigenvalues(generate(GenSpec(tag, n, seed=seed)))
                   for tag in CLASS_TAGS for n in range(1, 11) for seed in range(2)]
        calls = self.counted(monkeypatch, spectral)
        direct = [self.outputs(spec) for spec in spectra]
        assert calls == []
        assert direct == [self.outputs(spec.values) for spec in spectra]
        assert len(calls) == 5 * len(spectra)

    def test_kellogg_check_pairs_each_spectrum_once(self, monkeypatch):
        mats = [generate(GenSpec("arbitrary", n, seed=n)) for n in range(2, 7)]
        spectral_calls = self.counted(monkeypatch, spectral)
        eigen_calls = self.counted(monkeypatch, linalg)
        suites._kellogg_violations(mats, DEFAULT_TOL)
        assert spectral_calls == [] and eigen_calls == [m.shape[0] for m in mats]


class TestNonFiniteValues:
    INF = float("inf")

    @pytest.mark.parametrize(
        "values",
        [
            [complex(1, INF), complex(1, -INF)],  # once a P-set with sigma [2, 1]
            [INF],  # once "no" with sigma [nan]
            [float("nan"), 1.0],
            [complex(INF, 2), complex(INF, -2)],
        ],
    )
    def test_rejected_like_matrix_entries(self, values):
        with pytest.raises(ValueError, match="must all be finite"):
            spectral.make_candidate(values)
        for fn in (spectral.is_P_set, spectral.sigma_all, spectral.wedge_check):
            with pytest.raises(ValueError, match="must all be finite"):
                fn(values)

    def test_augment_rejects_at_once(self):
        # this input once kept the augmentation ladder running for minutes
        with pytest.raises(ValueError, match="must all be finite"):
            spectral.augment_to_P_set([complex(-1, 2), complex(-1, -2), self.INF])


class TestSpectraMatch:
    def test_permutation_invariance(self):
        a = [complex(1, 2), complex(1, -2), 3.0]
        b = [3.0, complex(1, -2), complex(1, 2)]
        ok, dev = spectral.spectra_match(a, b)
        assert ok and dev <= 1e-12

    def test_mismatch_detected(self):
        ok, _ = spectral.spectra_match([1.0, 2.0], [1.0, 2.1])
        assert not ok


class TestExtremalSearch:
    def test_n2_never_left_half_plane(self):
        rpt = spectral.extremal_spectrum_search(2, budget=400, seed=5)
        assert rpt.p_matrices_found > 0
        assert rpt.max_left_half_plane_count == 0

    def test_n3_harness_runs(self):
        rpt = spectral.extremal_spectrum_search(3, budget=120, seed=7)
        assert rpt.trials == 120
        if rpt.witness is not None and rpt.max_left_half_plane_count:
            m = np.array(rpt.witness)
            assert classify.is_P_minors(m)[0] == YES

    def test_zero_budget_empty_report(self):
        rpt = spectral.extremal_spectrum_search(3, budget=0)
        assert rpt.trials == 0
        assert rpt.max_left_half_plane_count is None
        assert rpt.max_abs_arg is None
