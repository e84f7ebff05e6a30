import numpy as np
import pytest

from toruslin.divisors import (FORMS, RESONANCE_TOL, DiophantineFit,
                               MultiplierData, DivisorTable, divisor_values,
                               enhanced_bound_check, is_resonant,
                               iter_indices, scan_and_fit)

GOLDEN = (np.sqrt(5) - 1) / 2


def golden_data():
    lam = [[np.exp(2j * np.pi * (0.3 + 1.1j))]]
    mu = [[np.exp(2j * np.pi * GOLDEN)]]
    return MultiplierData(lam, mu)


def trivial_data():
    return MultiplierData([[np.exp(2j * np.pi * (0.3 + 1.1j))]], [[1.0]])


class TestDivisorValues:
    def test_minus_one_square(self):
        data = MultiplierData([[0.5]], [[-1.0]])
        rec = divisor_values(data, (0,), (2,), 0)
        assert rec.maxval == pytest.approx(2.0)
        assert rec.argmax == 0

    def test_trivial_bundle_resonance(self):
        rec = divisor_values(trivial_data(), (0,), (2,), 0)
        assert rec.maxval == 0.0

    def test_rejects_low_q(self):
        with pytest.raises(ValueError):
            divisor_values(golden_data(), (0,), (1,), 0)

    def test_against_doubled_precision_oracle(self):
        data = golden_data()
        rec = divisor_values(data, (1,), (2,), 0)
        import mpmath
        with mpmath.workdps(40):
            lam = mpmath.e ** (2j * mpmath.pi * mpmath.mpc(0.3, 1.1))
            mu = mpmath.e ** (2j * mpmath.pi * mpmath.mpf(GOLDEN))
            want = float(abs(lam * mu ** 2 - mu))
        assert rec.maxval == pytest.approx(want, rel=1e-12)
        high = divisor_values(data, (1,), (2,), 0, dps=40)
        assert high.maxval == pytest.approx(want, rel=1e-15)

    def test_argmax_smallest_index_on_tie(self):
        # two identical generator rows: both l give the same value; pick l=0
        lam = np.exp(2j * np.pi * np.array(
            [[0.3 + 1.1j, 0.1 + 0.5j], [0.3 + 1.1j, 0.1 + 0.5j]]))
        mu = np.exp(2j * np.pi * np.array([[GOLDEN], [GOLDEN]]))
        data = MultiplierData(lam, mu)
        rec = divisor_values(data, (1, 1), (2,), 0)
        assert rec.perl[0] == rec.perl[1]
        assert rec.argmax == 0


class TestScanAndFit:
    def test_trivial_bundle_flagged(self):
        table, fit = scan_and_fit(trivial_data(), 3, 3)
        assert fit.resonant
        assert ((0,), (2,), 0, None) in fit.resonances

    def test_envelope_property(self):
        data = golden_data()
        table, fit = scan_and_fit(data, 12, 12)
        assert not fit.resonant
        for rec in table.records:
            assert rec.maxval >= fit.lower_bound(rec.size), (rec.P, rec.Q)

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
        for rec in table_w.records:
            assert rec.maxval >= fit_s.lower_bound(rec.size)

    def test_strong_nonresonant_means_no_zero_divisor(self):
        data = golden_data()
        table, fit = scan_and_fit(data, 8, 8, form="strong")
        assert not fit.resonant
        assert all((rec.perl > 0).all() for rec in table.records)

    def test_csv_schema(self):
        table, _ = scan_and_fit(golden_data(), 3, 3)
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "p_1,q_1,j,value,argmax"
        assert len(lines) == 1 + len(table.records)


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
        rec = divisor_values(data, (-3,), (2,), 0)
        t = float(np.abs(data.lam_pow((-3,)) * data.mu_pow((2,))).max())
        assert t >= 2.0
        assert rec.maxval >= t / 2.0

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
        assert 0.0 < divisor_values(minus_one_data(), (0,), (3,), 0).maxval

    @pytest.mark.parametrize("form", FORMS)
    def test_rounded_resonances_reported_not_fitted(self, form):
        table, fit = scan_and_fit(minus_one_data(), 4, 8, form=form)
        assert fit.resonant
        assert sorted(Q for _, Q, _, _ in fit.resonances) == \
            [(3,), (5,), (7,)]
        assert all(P == (0,) for P, _, _, _ in fit.resonances)
        assert fit.n_points == len(table.records) - 3
        assert fit.tau < 10

    def test_enhanced_bound_skips_rounded_resonances(self):
        data = minus_one_data()
        _, fit = scan_and_fit(data, 4, 8)
        report = enhanced_bound_check(data, fit, 4, 8)
        assert report["checked"] == fit.n_points


def test_iter_indices_range():
    pts = list(iter_indices(1, 1, 3, 4))
    assert all(abs(P[0]) <= 3 and 2 <= Q[0] <= 4 for P, Q in pts)
    assert len(pts) == 7 * 3
    # deterministic lexicographic order
    assert pts == sorted(pts)
