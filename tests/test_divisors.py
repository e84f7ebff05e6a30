import numpy as np
import pytest

import toruslin
from toruslin import LatticeSpec
from toruslin.divisors import (FORMS, RESONANCE_TOL, TAU_FLOOR,
                               MultiplierData,
                               enhanced_bound_check, is_resonant, monomials,
                               scan_and_fit, scan_indices, small_divisors)
from toruslin.problem import parse_problem

from _oracles import divisor_oracle, envelope, iter_indices, lam_pow, mu_pow

GOLDEN = (np.sqrt(5) - 1) / 2


def golden_data():
    lam = [[np.exp(2j * np.pi * (0.3 + 1.1j))]]
    mu = [[np.exp(2j * np.pi * GOLDEN)]]
    return MultiplierData(lam, mu)


def trivial_data():
    return MultiplierData([[np.exp(2j * np.pi * (0.3 + 1.1j))]], [[1.0]])


def tie_data():
    # two identical generator rows: both l give the same divisor
    lam = np.exp(2j * np.pi * np.array(
        [[0.3 + 1.1j, 0.1 + 0.5j], [0.3 + 1.1j, 0.1 + 0.5j]]))
    mu = np.exp(2j * np.pi * np.array([[GOLDEN], [GOLDEN]]))
    return MultiplierData(lam, mu)


def row(table, P, Q, j):
    """The table row of index (P, Q) and component j."""
    hit = (table.P == P).all(axis=1) & (table.Q == Q).all(axis=1) \
        & (table.j == j)
    (i,) = np.nonzero(hit)[0]
    return i


class TestDivisorValues:
    def test_minus_one_square(self):
        data = MultiplierData([[0.5]], [[-1.0]])
        div = small_divisors(data, [(0,)], [(2,)])
        assert div.shape == (1, 1, 1)
        assert abs(div[0, 0, 0]) == pytest.approx(2.0)

    def test_trivial_bundle_resonance(self):
        assert small_divisors(trivial_data(), [(0,)], [(2,)])[0, 0, 0] == 0.0

    def test_rejects_low_q(self):
        with pytest.raises(ValueError):
            small_divisors(golden_data(), [(0,)], [(1,)])

    def test_against_doubled_precision_oracle(self):
        data = golden_data()
        import mpmath
        with mpmath.workdps(40):
            lam = mpmath.e ** (2j * mpmath.pi * mpmath.mpc(0.3, 1.1))
            mu = mpmath.e ** (2j * mpmath.pi * mpmath.mpf(GOLDEN))
            want = float(abs(lam * mu ** 2 - mu))
        got = abs(small_divisors(data, [(1,)], [(2,)])[0, 0, 0])
        assert got == pytest.approx(want, rel=1e-12)
        high, _ = scan_and_fit(data, 2, 2, dps=40)
        assert high.maxval[row(high, (1,), (2,), 0)] == \
            pytest.approx(want, rel=1e-15)

    def test_argmax_smallest_index_on_tie(self):
        table, _ = scan_and_fit(tie_data(), 2, 2)
        i = row(table, (1, 1), (2,), 0)
        assert table.perl[i, 0] == table.perl[i, 1]
        assert table.argmax[i] == 0


def shipped_data():
    return parse_problem(toruslin.reference_problem_path()).data


def lattice2_data():
    lat = LatticeSpec(2, 1, [[1, 0], [0, 1], [0.31 + 0.07j, 0.5 + 0.02j],
                             [0.7 + 0.01j, 0.2 + 0.09j]])
    mu = [[np.exp(2j * np.pi * GOLDEN)], [np.exp(2j * np.pi * (np.sqrt(2) - 1))]]
    return MultiplierData(lat.lam_matrix(), mu)


def pair_data():
    # n = 1, d = 2
    return MultiplierData(golden_data().lam, [[np.exp(2j * np.pi * GOLDEN),
                                               np.exp(-2j * np.pi * 0.4142)]])


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("case, pq", [(shipped_data, 20), (lattice2_data, 6),
                                      (pair_data, 6), (tie_data, 4)])
def test_table_matches_per_index_oracle(case, pq, form):
    # every divisor, modulus, argmax and row equals the one-index-at-a-time
    # computation bit for bit, in the same row order; moduli are Python's
    # scalar abs, which numpy's array abs need not match
    data = case()
    P, Q = scan_indices(data.n, data.d, pq, pq)
    div = small_divisors(data, P, Q, form)
    table, _ = scan_and_fit(data, pq, pq, form=form)
    oracle_form = "inverse" if form == "inverse" else "weak"
    r = 0
    for i, (Pi, Qi) in enumerate(iter_indices(data.n, data.d, pq, pq)):
        assert (tuple(P[i]), tuple(Q[i])) == (Pi, Qi)
        for j in range(data.d):
            want = divisor_oracle(data, Pi, Qi, j, oracle_form)
            assert (div[i, j] == want).all()
            assert (tuple(table.P[r]), tuple(table.Q[r]), table.j[r]) == \
                (Pi, Qi, j)
            moduli = [abs(complex(w)) for w in want.tolist()]
            assert table.perl[r].tolist() == moduli
            assert table.argmax[r] == moduli.index(max(moduli))
            r += 1
    assert r == len(table.j)
    if case is tie_data:
        assert (table.argmax == 0).all()


class TestScanAndFit:
    def test_trivial_bundle_flagged(self):
        table, fit = scan_and_fit(trivial_data(), 3, 3)
        assert fit.resonant
        assert ((0,), (2,), 0, None) in fit.resonances

    def test_envelope_property(self):
        data = golden_data()
        table, fit = scan_and_fit(data, 12, 12)
        assert not fit.resonant
        for value, size in zip(table.maxval.tolist(), table.size.tolist()):
            assert value >= envelope(fit, size)

    def test_two_scale_stability(self):
        data = golden_data()
        _, fit_small = scan_and_fit(data, 20, 20)
        _, fit_large = scan_and_fit(data, 40, 40)
        assert fit_large.tau >= fit_small.tau - 1e-12
        assert abs(fit_large.tau - fit_small.tau) < 2.0

    def test_inverse_form_also_finite(self):
        data = golden_data()
        _, fit = scan_and_fit(data, 10, 10, form="inverse")
        assert not fit.resonant
        assert fit.D > 0 and np.isfinite(fit.tau)

    def test_strong_implies_weak(self):
        data = golden_data()
        table_s, fit_s = scan_and_fit(data, 8, 8, form="strong")
        table_w, _ = scan_and_fit(data, 8, 8, form="weak")
        assert not fit_s.resonant
        for value, size in zip(table_w.maxval.tolist(), table_w.size.tolist()):
            assert value >= envelope(fit_s, size)

    def test_strong_nonresonant_means_no_zero_divisor(self):
        data = golden_data()
        table, fit = scan_and_fit(data, 8, 8, form="strong")
        assert not fit.resonant
        assert (table.perl > 0).all()

    @pytest.mark.parametrize("form", FORMS)
    def test_tau_point_sets_tau(self, form):
        # the kept point's slope through the smallest-size anchor is tau,
        # and the envelope passes through it up to D's 1e-9 shave
        table, fit = scan_and_fit(golden_data(), 12, 12, form=form)
        P, Q, j, size, value = fit.tau_point
        i = row(table, P, Q, j)
        assert size == table.size[i] > fit.anchor_size
        binding = table.perl[i].min() if form == "strong" else \
            table.maxval[i]
        assert value == binding
        assert envelope(fit, size) == pytest.approx(value, rel=1e-8)
        assert envelope(fit, size) < value

    def test_tau_point_on_the_shipped_instance(self):
        # not a small divisor: 1 - |lam| at P = 1, Q = 2
        data = parse_problem(toruslin.reference_problem_path()).data
        _, fit = scan_and_fit(data, 20, 20)
        P, Q, j, size, value = fit.tau_point
        assert (P, Q, j, size) == ((1,), (2,), 0, 3)
        assert value == pytest.approx(1 - abs(data.lam[0, 0]), abs=1e-3)

    def test_floor_sets_tau_without_a_point(self):
        # mu = 1 makes every P = 0 divisor resonant; the smallest of the
        # rest, |2^-1 - 1| at size 3, lies below the larger sizes' |2^P - 1|,
        # so no slope is positive and TAU_FLOOR sets tau
        _, fit = scan_and_fit(MultiplierData([[2.0]], [[1.0]]), 2, 2)
        assert fit.tau == TAU_FLOOR and fit.tau_point is None

    def test_csv_schema(self):
        table, _ = scan_and_fit(golden_data(), 3, 3)
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "p_1,q_1,j,value,argmax"
        assert len(lines) == 1 + len(table.j)


class TestEnhancedBound:
    def test_unitary_gives_b_two(self):
        data = golden_data()
        _, fit = scan_and_fit(data, 8, 8)
        report = enhanced_bound_check(data, fit, 8, 8)
        assert report["B"] == pytest.approx(2.0)
        assert report["d_prime_envelope"] == pytest.approx(fit.D / 2.0)

    def test_large_modulus_branch_direct(self):
        data = golden_data()
        # P = -3 makes |lam^P| = e^{6.6 pi} >> B; reverse triangle applies
        maxval = np.abs(small_divisors(data, [(-3,)], [(2,)])).max()
        t = float(np.abs(monomials(data, [(-3,)], [(2,)])).max())
        assert t == float(np.abs(lam_pow(data, (-3,)) * mu_pow(data, (2,))).max())
        assert t >= 2.0
        assert maxval >= t / 2.0

    def test_full_scan_passes(self):
        data = golden_data()
        _, fit = scan_and_fit(data, 10, 10)
        report = enhanced_bound_check(data, fit, 10, 10)
        assert report["all_pass"]
        assert report["checked"] > 0


def minus_one_data():
    # mu = exp(pi i) = -1 + 1.2e-16 i: mu^3 - mu computes to 2.4e-16, not 0
    return MultiplierData(golden_data().lam, [[np.exp(2j * np.pi * 0.5)]])


class TestResonancePredicate:
    def test_threshold_grows_with_size(self):
        assert is_resonant(0.0, 2)
        assert is_resonant(10 * RESONANCE_TOL, 10)
        assert not is_resonant(10 * RESONANCE_TOL, 9)
        assert list(is_resonant(np.array([0.0, 5e-13, 0.216]), 40)) == \
            [True, True, False]

    def test_rounded_divisor_is_not_exactly_zero(self):
        div = small_divisors(minus_one_data(), [(0,)], [(3,)])
        assert 0.0 < abs(div[0, 0, 0])

    @pytest.mark.parametrize("form", FORMS)
    def test_rounded_resonances_reported_not_fitted(self, form):
        table, fit = scan_and_fit(minus_one_data(), 4, 8, form=form)
        assert fit.resonant
        l = 0 if form == "strong" else None
        assert fit.resonances == (((0,), (3,), 0, l), ((0,), (5,), 0, l),
                                  ((0,), (7,), 0, l))
        assert fit.n_points == len(table.j) - 3
        assert fit.tau < 10

    def test_enhanced_bound_skips_rounded_resonances(self):
        data = minus_one_data()
        _, fit = scan_and_fit(data, 4, 8)
        report = enhanced_bound_check(data, fit, 4, 8)
        assert report["checked"] == fit.n_points


def test_iter_indices_range():
    # scan_indices gives the rows of the one-index-at-a-time enumeration
    for n, d in ((1, 1), (2, 1), (1, 2)):
        P, Q = scan_indices(n, d, 3, 4)
        pts = list(zip(map(tuple, P.tolist()), map(tuple, Q.tolist())))
        assert all(sum(map(abs, p)) <= 3 and 2 <= sum(q) <= 4 for p, q in pts)
        # deterministic lexicographic order
        assert pts == sorted(pts) == list(iter_indices(n, d, 3, 4))
    assert len(scan_indices(1, 1, 3, 4)[0]) == 7 * 3
