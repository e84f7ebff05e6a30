import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import toruslin
from toruslin import DomainSpec, LatticeSpec, TruncatedSeries, \
    compose_diagonal, invert_vertical_map, sup_norm_bound, \
    substitute_vertical
from toruslin._kernels import table_data, vertical_degrees
from toruslin.deckmaps import DeckMap, compose_with_maps
from toruslin.series import PRUNE, SeriesError, _scatter, \
    linear_combinations, scale_components, substitute_verticals

from _oracles import (accumulate, dense_diff, dense_mul, dense_poly,
                      dense_substitute, random_series, shuffled_copy,
                      sorted_copy, stores_sorted, substitute_per_record,
                      term_dict, with_terms)


def mono(n, d, P, Q, c=1.0, vmax=8):
    return TruncatedSeries.monomial(n, d, 0, P, Q, c, components=1,
                                    vmax=vmax)


class TestRingOps:
    def test_exponent_addition(self):
        # (h v^2) * (h^-1 v^3) = v^5
        a = mono(1, 1, (1,), (2,))
        b = mono(1, 1, (-1,), (3,))
        prod = a.mul(b)
        assert list(prod.terms()) == [(0, (0,), (5,), 1.0 + 0.0j)]

    def test_additive_identity(self):
        rng = np.random.default_rng(1)
        f = random_series(rng, 2, 1)
        zero = TruncatedSeries.zero(2, 1, 1, f.vmax)
        assert f.add(zero).max_coeff_diff(f) == 0.0

    def test_truncated_square_difference(self):
        # (1 + h v^2)(1 - h v^2) at vmax=4 -> 1 - h^2 v^4, by hand
        one = mono(1, 1, (0,), (0,), 1.0, vmax=4)
        hv2 = mono(1, 1, (1,), (2,), 1.0, vmax=4)
        prod = one.add(hv2).mul(one.add(hv2.scale(-1.0)))
        assert prod.get(0, (1,), (2,)) == 0.0
        assert prod.get(0, (0,), (0,)) == 1.0
        assert prod.get(0, (2,), (4,)) == -1.0
        assert prod.nterms() == 2

    def test_mul_against_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_series(rng, 2, 2, vmax=5, pmax=3, nterms=15)
            b = random_series(rng, 2, 2, vmax=5, pmax=3, nterms=15)
            got = dense_poly(a.mul(b))
            want = dense_mul(dense_poly(a), dense_poly(b), 2, 2, 5)
            assert dense_diff(got, want) < 1e-12

    def test_dimension_mismatch_rejected(self):
        a = mono(1, 1, (0,), (2,))
        b = mono(2, 1, (0, 0), (2,))
        with pytest.raises(SeriesError):
            a.mul(b)

    def test_tailflag_on_truncation(self):
        a = mono(1, 1, (1,), (2,), 3.0, vmax=3)
        prod = a.mul(a)  # lands at v^4 > vmax
        assert prod.tailflag
        assert prod.discarded == pytest.approx(9.0)
        assert prod.is_zero()

    def test_tailflag_is_read_from_discarded(self):
        # discarded is the one truncation record: a series that records no
        # mass carries no flag, as a truncated series scaled by 0 records
        # none
        f = TruncatedSeries(1, 1, 1, 4, discarded=0.5)
        assert f.tailflag and not f.scale(0.0).tailflag
        assert not TruncatedSeries.zero(1, 1).tailflag
        with pytest.raises(AttributeError):
            f.tailflag = False
        with pytest.raises(TypeError):
            TruncatedSeries(1, 1, tailflag=True)

    def test_product_scales_its_operands_records(self):
        # a part dA lost by A reaches A B as dA (B + dB), and a part dB lost
        # by B as A dB: |A|_1 = 3 + 4 = 7 over both components, |B|_1 = 2
        A = TruncatedSeries(1, 1, 2, 4, coeffs={(0, (1,), (1,)): 3.0,
                                                (1, (0,), (2,)): 4.0j},
                            discarded=0.5)
        B = TruncatedSeries(1, 1, 1, 4, coeffs={(0, (-1,), (1,)): 2.0},
                            discarded=0.25)
        assert A.mul(B).discarded == 0.5 * (2.0 + 0.25) + 7.0 * 0.25
        assert B.mul(A).discarded == 0.25 * (7.0 + 0.5) + 2.0 * 0.5
        # a zero factor multiplies the lost part away, also a record that
        # has overflowed to inf
        lost = TruncatedSeries(1, 1, 1, 4, discarded=float("inf"))
        zero = TruncatedSeries.zero(1, 1, 1, 4)
        for got in (lost.mul(zero), zero.mul(lost), lost.scale(0.0)):
            assert got.discarded == 0.0 and not got.tailflag

    def test_scale_components_scales_its_record(self):
        # a = h v^2 at vmax 3: a^2 drops h^2 v^4 and records 1.0, which the
        # factor 1000 makes 1000; the largest |factor| bounds every component
        a = mono(1, 1, (1,), (2,), vmax=3)
        p = a.mul(a)
        assert p.discarded == 1.0
        assert scale_components(p, [1000]).discarded == 1000.0
        two = TruncatedSeries(1, 1, 2, 3, discarded=2.0)
        assert scale_components(two, [0.5, -4j]).discarded == 8.0
        assert scale_components(two, [0.0, 0.0]).discarded == 0.0


class TestHomogeneousPart:
    def test_examples(self):
        f = mono(1, 2, (0,), (2, 0)).add(mono(1, 2, (0,), (1, 2)))
        part2 = f.homogeneous_part(2)
        assert dense_poly(part2) == {((0,), (2, 0)): 1.0 + 0.0j}
        assert f.homogeneous_part(1).is_zero()

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        f = random_series(rng, 1, 2, vmax=6, nterms=30)
        total = TruncatedSeries.zero(1, 2, 1, f.vmax)
        for m in range(f.vmax + 1):
            total = total.add(f.homogeneous_part(m))
        assert total.max_coeff_diff(f) < 1e-15

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_parts_multiply(self, ma, mb):
        # [f g]_m = sum_{a+b=m} [f]_a [g]_b
        rng = np.random.default_rng(ma * 7 + mb)
        f = random_series(rng, 1, 1, vmax=6, pmax=3, nterms=10)
        g = random_series(rng, 1, 1, vmax=6, pmax=3, nterms=10)
        m = min(ma + mb, 6)
        direct = f.mul(g).homogeneous_part(m)
        pieces = TruncatedSeries.zero(1, 1, 1, f.vmax)
        for a in range(m + 1):
            pieces = pieces.add(f.homogeneous_part(a).mul(g.homogeneous_part(m - a)))
        assert direct.max_coeff_diff(pieces) < 1e-12 * max(1.0, direct.max_abs())


class TestAboveDegree:
    def test_complement_of_up_to_degree(self):
        rng = np.random.default_rng(31)
        f = random_series(rng, 2, 1, components=2, vmax=6, pmax=3,
                          nterms=30)
        f = TruncatedSeries(2, 1, 2, 6, coeffs=term_dict(f), discarded=0.125)
        for m in range(-1, 8):
            high, low = f.above_degree(m), f.up_to_degree(m)
            assert all(sum(Q) > m for _, _, Q, _ in high.terms())
            assert high.nterms() + low.nterms() == f.nterms()
            assert high.add(low).max_coeff_diff(f) == 0.0
            # the truncation record stays with the terms that are kept
            assert (high.tailflag, high.discarded) == (True, 0.125)
            assert high.vmax == f.vmax
        assert f.above_degree(-1).max_coeff_diff(f) == 0.0
        assert f.above_degree(6).nterms() == 0


class TestMaxCoeffDiff:
    """One segment sum over both series' records against the dict formula
    max |a - b| over the union of keys, bit for bit."""

    @pytest.mark.parametrize("n,d,components", [(1, 1, 1), (2, 1, 3),
                                                (1, 2, 2)])
    def test_matches_dict_oracle(self, n, d, components):
        rng = np.random.default_rng(40 + 7 * n + d + components)
        a = random_series(rng, n, d, components, vmax=5, pmax=3, nterms=25)
        b = random_series(rng, n, d, components, vmax=5, pmax=3, nterms=25)
        # shared keys with other values, and a key with a -0.0 part
        shared = with_terms(b, {key: c * (1 + 2.0 ** -40) + 1e-3
                                for key, c in list(term_dict(a).items())[:8]})
        shared = with_terms(shared, {(0, (0,) * n, (1,) + (0,) * (d - 1)):
                                     complex(-0.0, 1.0)})
        empty = TruncatedSeries.zero(n, d, components, 5)
        near = with_terms(a, {key: c + 2.0 ** -45 for key, c in
                              list(term_dict(a).items())[::3]})
        for x, y in ((a, b), (a, shared), (shared, a), (a, empty),
                     (empty, b), (empty, empty), (a, a), (a, near)):
            want = dense_diff(term_dict(x), term_dict(y))
            got = x.max_coeff_diff(y)
            assert type(got) is float
            assert got.hex() == float(want).hex()
        assert a.max_coeff_diff(a) == 0.0 and empty.max_coeff_diff(a) > 0

    def test_disjoint_keys(self):
        a = TruncatedSeries(1, 1, 2, 4, coeffs={(0, (1,), (2,)): 3 + 4j,
                                            (1, (0,), (0,)): 0.5})
        b = TruncatedSeries(1, 1, 2, 4, coeffs={(1, (1,), (2,)): -6.0,
                                            (0, (0,), (0,)): 1j})
        assert a.max_coeff_diff(b) == 6.0
        assert b.max_coeff_diff(a) == 6.0
        # the same key in another component is another key
        c = TruncatedSeries(1, 1, 2, 4, coeffs={(1, (1,), (2,)): 3 + 4j})
        assert a.max_coeff_diff(c) == 5.0


class TestComposeDiagonal:
    def test_unit_square(self):
        # mu = -1: v^2 picks up (-1)^2 = 1
        f = mono(1, 1, (0,), (2,))
        g = compose_diagonal(f, [1.0], [-1.0])
        assert g.get(0, (0,), (2,)) == 1.0 + 0.0j

    def test_modulus(self):
        lam = np.exp(-2.2 * np.pi) * np.exp(0.6j * np.pi)
        mu = np.exp(2j * np.pi * (np.sqrt(5) - 1) / 2)
        f = mono(1, 1, (1,), (2,))
        g = compose_diagonal(f, [lam], [mu])
        coeff = g.get(0, (1,), (2,))
        assert coeff == pytest.approx(lam * mu**2)
        assert abs(coeff) == pytest.approx(np.exp(-2.2 * np.pi))

    def test_inverse_composition_roundtrip(self):
        rng = np.random.default_rng(11)
        f = random_series(rng, 2, 2, components=2, vmax=5, pmax=4)
        lam = np.exp(2j * np.pi * np.array([0.3 + 1.1j, 0.17 + 0.7j]))
        mu = np.exp(2j * np.pi * np.array([0.618, 0.414]))
        back = compose_diagonal(compose_diagonal(f, lam, mu, +1), lam, mu, -1)
        assert back.max_coeff_diff(f) < 1e-12 * f.max_abs()

    def test_underflowing_factor_is_pruned(self):
        # 1e-200 * (1e-3)^40 underflows to a subnormal of modulus about
        # 1e-320, below PRUNE: the term is dropped, as scale drops it
        f = TruncatedSeries.monomial(1, 1, 0, (40,), (2,), 1e-200, vmax=4)
        g = compose_diagonal(f, [1e-3], [1.0])
        assert g.nterms() == 0 and g.is_zero()
        assert f.scale(complex(1e-3) ** 40).nterms() == 0
        # a value above PRUNE is the product c * factor, bit for bit
        factor = (1.0 + 0.0j) * complex(1e-2) ** 40 * complex(1.0) ** 2
        kept = compose_diagonal(f, [1e-2], [1.0])
        assert list(kept.terms()) == [(0, (40,), (2,), (1e-200 + 0j) * factor)]

    def test_record_is_kept_only_under_unit_multipliers(self):
        # a = h v^2 at vmax 3: a^2 drops h^2 v^4 and records 1.0; under
        # 1/lam = 1e3 that term is 1e6, and a dropped h^P picks up 1e3^P
        # for any P, so only unit multipliers keep the record
        a = mono(1, 1, (1,), (2,), vmax=3)
        p = a.mul(a)
        assert p.discarded == 1.0
        assert compose_diagonal(p, [1e-3], [1.0], sign=-1).discarded == np.inf
        assert compose_diagonal(p, [1.0], [-1.0]).discarded == 1.0
        assert compose_diagonal(p, [1j], [-1.0], sign=-1).discarded == 1.0
        assert compose_diagonal(a, [1e-3], [1.0]).discarded == 0.0

    def test_ring_homomorphism(self):
        rng = np.random.default_rng(13)
        f = random_series(rng, 1, 1, vmax=5, pmax=3)
        g = random_series(rng, 1, 1, vmax=5, pmax=3)
        lam, mu = [0.5 + 0.1j], [np.exp(0.4j)]
        lhs = compose_diagonal(f.mul(g), lam, mu)
        rhs = compose_diagonal(f, lam, mu).mul(compose_diagonal(g, lam, mu))
        assert lhs.max_coeff_diff(rhs) < 1e-10 * max(1.0, lhs.max_abs())


class TestSubstituteVerticals:
    """Several series substituted into one phi in one pass: each bit for
    bit what it gives alone and what the per-record loop gives."""

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_series_match_one_at_a_time(self, n, d):
        rng = np.random.default_rng(130 + 10 * n + d)
        phi = random_series(rng, n, d, components=d, vmax=6, pmax=2,
                            nterms=8, min_vdeg=2, scale=0.1)
        phi = TruncatedSeries(n, d, d, 6, coeffs=term_dict(phi),
                              discarded=1e-12)
        fs = [random_series(rng, n, d, components=n, vmax=6, pmax=3,
                            nterms=14),
              random_series(rng, n, d, components=d, vmax=5, pmax=3,
                            nterms=10, min_vdeg=1),
              TruncatedSeries(n, d, 1, 6, discarded=0.5),
              random_series(rng, n, d, components=1, vmax=4, pmax=2,
                            nterms=6)]
        fs.append(fs[0])
        # on a narrower phi, terms above its window leave their moduli in
        # discarded between the amounts marked before each term
        narrow = TruncatedSeries(n, d, d, 4, coeffs=term_dict(phi.cut(4)),
                                 discarded=1e-12)
        for phi in (phi, narrow):
            got = substitute_verticals(fs, phi)
            assert len(got) == len(fs)
            for f, out in zip(fs, got):
                assert exact(out) == exact(substitute_per_record(f, phi))
                assert exact(out) == exact(substitute_vertical(f, phi))
        # a phi without terms re-truncates every series
        zero = TruncatedSeries(n, d, d, 5, discarded=0.25)
        for f, out in zip(fs, substitute_verticals(fs, zero)):
            assert exact(out) == exact(substitute_vertical(f, zero))
        assert substitute_verticals([], phi) == []

    def test_passes_change_no_bit(self, monkeypatch):
        # series that share a pass and series cut into passes of a few
        # records give the same sums and records, in a scatter of many
        # series and in sums of many summands
        import toruslin.series as series_mod
        rng = np.random.default_rng(140)
        phi = random_series(rng, 2, 1, vmax=6, pmax=2, nterms=8,
                            min_vdeg=2, scale=0.1)
        fs = [random_series(rng, 2, 1, components=c, vmax=6, pmax=3,
                            nterms=12) for c in (2, 1, 1, 2)]
        sums = [[(f.component(0), 0.5 - 1j), (fs[1], 2.0, (1, -1), 1j)]
                for f in fs]
        want = ([exact(out) for out in substitute_verticals(fs, phi)],
                [exact(out) for out in linear_combinations(sums)])
        monkeypatch.setattr(series_mod, "PASS_LIMIT", 5)
        assert series_mod._passes([3, 2, 4, 9, 1, 1]) == [
            (0, 2), (2, 3), (3, 4), (4, 6)]
        got = ([exact(out) for out in substitute_verticals(fs, phi)],
               [exact(out) for out in linear_combinations(sums)])
        assert got == want

    def test_series_that_pack_alone_pack_together(self):
        # each series' records need 60 bits for h and 3 for v, 63 in all,
        # so a series index beside them, and the two series' h ranges
        # together, cannot pack into one key: each series is summed alone
        rng = np.random.default_rng(150)
        phi = random_series(rng, 1, 1, vmax=4, pmax=1, nterms=6,
                            min_vdeg=2, scale=0.1)
        far = (1 << 60) - 16
        fs = [TruncatedSeries(1, 1, 1, 4, coeffs={
                  (0, (sign * P,), (q,)): 0.5 + q - 1j * sign
                  for P in (0, far) for q in range(4)})
              for sign in (1, -1)]
        for f, out in zip(fs, substitute_verticals(fs, phi)):
            assert exact(out) == exact(substitute_vertical(f, phi))
        sums = [[(f, 2.0 - 1j)] for f in fs]
        for pair, out in zip(sums, linear_combinations(sums)):
            assert exact(out) == exact(linear_combinations([pair])[0])
        # one bit more is past what a series alone packs
        wide = fs[0].add(TruncatedSeries(1, 1, 1, 4, coeffs={
            (0, (-far,), (0,)): 1.0}))
        with pytest.raises(OverflowError):
            substitute_vertical(wide, phi)
        with pytest.raises(OverflowError):
            substitute_verticals([wide, fs[1]], phi)


class TestProducts:
    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_pairs_match_one_at_a_time(self, n, d):
        # componentwise and broadcast pairs, truncation records and windows
        # of their own, one pair at a time: each product sorted as stored,
        # and the dense product
        rng = np.random.default_rng(150 + 10 * n + d)

        def series(components, vmax, record=0.0):
            f = random_series(rng, n, d, components=components, vmax=vmax,
                              pmax=3, nterms=12)
            return TruncatedSeries(n, d, components, vmax,
                                   coeffs=term_dict(f), discarded=record)

        a, b = series(2, 6, 1e-9), series(2, 5)
        c, e = series(1, 6), series(1, 4, 2.0 ** -20)
        pairs = [(a, b), (c, a), (b, c), (e, e), (c, c), (a, b),
                 (TruncatedSeries(n, d, 2, 6), a)]
        for x, y in pairs:
            out = x.mul(y)
            assert stores_sorted(out)
            for k in range(out.components):
                want = dense_mul(dense_poly(x, k if x.components > 1 else 0),
                                 dense_poly(y, k if y.components > 1 else 0),
                                 n, d, out.vmax)
                assert dense_diff(dense_poly(out, k), want) < 1e-12


class TestDegreeMaxima:
    def test_maxima_are_the_homogeneous_parts_largest(self):
        rng = np.random.default_rng(170)
        f = random_series(rng, 2, 2, components=3, vmax=6, pmax=3,
                          nterms=40)
        for top in (0, 3, 6, 9):
            got = f.degree_maxima(top)
            assert got == [f.homogeneous_part(m).max_abs()
                           for m in range(top + 1)]
        assert TruncatedSeries(1, 1, 1, 4).degree_maxima(2) == [0.0] * 3


class TestSubstituteVertical:
    def test_identity(self):
        rng = np.random.default_rng(5)
        f = random_series(rng, 1, 1, vmax=5)
        zero = TruncatedSeries.zero(1, 1, 1, f.vmax)
        assert substitute_vertical(f, zero).max_coeff_diff(f) == 0.0

    def test_binomial_expansion(self):
        # f = v^2, phi = c v^2, vmax=4: v^2 + 2c v^3 + c^2 v^4
        c = 0.3 - 0.2j
        f = mono(1, 1, (0,), (2,), vmax=4)
        phi = mono(1, 1, (0,), (2,), c, vmax=4)
        got = substitute_vertical(f, phi)
        assert got.get(0, (0,), (2,)) == pytest.approx(1.0)
        assert got.get(0, (0,), (3,)) == pytest.approx(2 * c)
        assert got.get(0, (0,), (4,)) == pytest.approx(c * c)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            f = random_series(rng, 1, 2, vmax=6, pmax=3, nterms=12)
            phi = random_series(rng, 1, 2, components=2, vmax=6, pmax=3,
                                nterms=8, min_vdeg=2)
            got = dense_poly(substitute_vertical(f, phi))
            want = dense_substitute(dense_poly(f),
                                    [dense_poly(phi, 0), dense_poly(phi, 1)],
                                    1, 2, 6)
            assert dense_diff(got, want) < 1e-12

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2)])
    def test_zero_phi_retruncates_f(self, n, d):
        # v <- v + 0 re-truncates f to the smaller window: f's terms in
        # sorted order, the ones outside leave their moduli in discarded in
        # that order; no power table is built
        rng = np.random.default_rng(90 + 10 * n + d)
        items = list(term_dict(random_series(
            rng, n, d, components=2, vmax=6, pmax=3, nterms=20)).items())
        f = TruncatedSeries(n, d, 2, 6, coeffs=dict(
            items[i] for i in rng.permutation(len(items))),
            discarded=0.5)
        zero = TruncatedSeries(n, d, d, 5, discarded=0.25)
        assert not stores_sorted(f)
        got = substitute_vertical(f, zero)
        assert zero._shift is None
        kept, lost = [], (0.5 + 0.25)
        for k, P, Q, c in f.terms():
            if sum(Q) > 5:
                lost += abs(c)
            else:
                kept.append((k, P, Q, c))
        assert lost > 0.75
        assert bits(got) == bits(TruncatedSeries(
            n, d, 2, 5, coeffs={(k, P, Q): c for k, P, Q, c in kept},
            discarded=lost))
        assert got.discarded == lost
        # the table holds the kept terms in sorted order
        assert stores_sorted(got)
        # on f's own vertical window, the per-record loop agrees
        zero = TruncatedSeries(n, d, d, 6)
        assert exact(substitute_vertical(f, zero)) == \
            exact(substitute_per_record(f, zero))
        assert zero._shift is None

    def test_rejects_low_order(self):
        f = mono(1, 1, (0,), (2,))
        bad = mono(1, 1, (0,), (1,))
        with pytest.raises(SeriesError):
            substitute_vertical(f, bad)

    def test_degree_filtration(self):
        # For ord_v f >= 2, [result]_m must not see parts of phi of degree >= m
        rng = np.random.default_rng(23)
        f = random_series(rng, 1, 1, vmax=6, pmax=2, nterms=10, min_vdeg=2)
        phi = random_series(rng, 1, 1, vmax=6, pmax=2, nterms=8, min_vdeg=2)
        m = 4
        base = substitute_vertical(f, phi).homogeneous_part(m)
        bumped = with_terms(phi, {(0, (0,), (m,)): phi.get(0, (0,), (m,)) + 5.0,
                                  (0, (1,), (m + 1,)): 7.0})
        other = substitute_vertical(f, bumped).homogeneous_part(m)
        assert base.max_coeff_diff(other) == 0.0


class TestShiftTable:
    """The (v + phi)^q table kept with phi by substitute_vertical."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_reused_table_gives_fresh_results(self, d):
        # substituting a second series into phi reuses (and extends) the
        # table built for the first; the result is bit for bit the one a
        # phi built afresh gives
        rng = np.random.default_rng(31 + d)
        phi = random_series(rng, 1, d, components=d, vmax=6, pmax=2,
                            nterms=8, min_vdeg=2, scale=0.3)
        low = random_series(rng, 1, d, vmax=6, pmax=2, nterms=6)
        high = random_series(rng, 1, d, vmax=6, pmax=2, nterms=6,
                             min_vdeg=5)
        substitute_vertical(low, phi)
        fresh = TruncatedSeries(1, d, d, 6, coeffs=term_dict(phi))
        assert bits(substitute_vertical(high, phi)) == \
            bits(substitute_vertical(high, fresh))

    @pytest.mark.parametrize("derive", ["restrict", "with_window", "cut"])
    def test_derived_series_start_without_table(self, derive):
        # a series derived from a used phi and then changed must not
        # substitute phi's powers
        rng = np.random.default_rng(37)
        f = random_series(rng, 1, 1, vmax=6, pmax=2, nterms=10)
        phi = random_series(rng, 1, 1, vmax=6, pmax=2, nterms=8,
                            min_vdeg=2, scale=0.3)
        substitute_vertical(f, phi)
        bumped = getattr(phi, derive)(6) if derive != "with_window" else \
            phi.with_window()
        value = bumped.get(0, (0,), (2,)) + 0.5
        bumped.coeffs[(0, (0,), (2,))] = value
        fresh = TruncatedSeries(1, 1, 1, 6, coeffs=term_dict(bumped))
        assert fresh.get(0, (0,), (2,)) == value
        got = substitute_vertical(f, bumped)
        want = substitute_vertical(f, fresh)
        assert bits(got) == bits(want)
        assert got.discarded == want.discarded
        assert bits(got) != bits(substitute_vertical(f, phi))


class TestCoeffsHandle:
    """``coeffs`` hands out the dict for writing; every later read, of the
    terms or through an operation, sees what was written."""

    KEY = (0, (1,), (3,))

    @staticmethod
    def derived(rng):
        a = random_series(rng, 1, 1, vmax=6, pmax=2, nterms=8, min_vdeg=1)
        b = random_series(rng, 1, 1, vmax=6, pmax=2, nterms=8, min_vdeg=1)
        prod = a.mul(b)
        return {"mul": prod, "cut": prod.cut(5),
                "with_window": prod.with_window(vmax=7)}

    @pytest.mark.parametrize("derive", ["mul", "cut", "with_window"])
    def test_write_is_seen(self, derive):
        rng = np.random.default_rng(43)
        s = self.derived(rng)[derive]
        # the series keeps arrays, and get() has built its dict beside them
        assert s._store is not None and s.nterms() > 0
        value = s.get(*self.KEY) + 0.5 - 0.25j
        want = with_terms(s, {self.KEY: value})
        s.coeffs[self.KEY] = value
        other = random_series(rng, 1, 1, vmax=6, pmax=2, nterms=8)
        phi = random_series(rng, 1, 1, vmax=6, pmax=2, nterms=6,
                            min_vdeg=2, scale=0.3)
        assert term_dict(s) == term_dict(want)
        assert s.get(*self.KEY) == value
        assert exact(s.mul(other)) == exact(want.mul(other))
        assert exact(other.mul(s)) == exact(other.mul(want))
        assert exact(s.add(other)) == exact(want.add(other))
        assert exact(other.add(s)) == exact(other.add(want))
        points = (np.array([[0.1 + 0.2j], [-0.3j]]),
                  np.array([[0.2], [0.1 - 0.3j]]))
        assert s.evaluate(*points).tolist() == want.evaluate(*points).tolist()
        assert exact(substitute_vertical(s, phi)) == \
            exact(substitute_vertical(want, phi))

    def test_write_into_phi_is_seen(self):
        # a phi whose powers are kept: the write reaches the substitution
        rng = np.random.default_rng(44)
        f = random_series(rng, 1, 1, vmax=6, pmax=2, nterms=10)
        phi = random_series(rng, 1, 1, vmax=6, pmax=2, nterms=6,
                            min_vdeg=2, scale=0.3).mul(
            TruncatedSeries.monomial(1, 1, 0, (0,), (0,), 2.0, vmax=6))
        before = substitute_vertical(f, phi)
        want = with_terms(phi, {(0, (0,), (2,)): phi.get(0, (0,), (2,)) + 1})
        phi.coeffs[(0, (0,), (2,))] = phi.get(0, (0,), (2,)) + 1
        got = substitute_vertical(f, phi)
        assert exact(got) == exact(substitute_vertical(f, want))
        assert exact(got) != exact(before)

    def test_benchmark_write_pattern(self):
        # perfbench's workloads write into a fresh series' coeffs, then
        # widen, multiply and bound it: the same bits as the constructor
        rng = np.random.default_rng(45)
        written = TruncatedSeries(2, 1, 1, 5)
        terms = {}
        while len(written.coeffs) < 9:
            key = (0, tuple(int(x) for x in rng.integers(-2, 3, size=2)),
                   (int(rng.integers(0, 6)),))
            c = complex(rng.standard_normal(), rng.standard_normal())
            written.coeffs[key] = terms[key] = c
        built = TruncatedSeries(2, 1, 1, 5, coeffs=terms)
        assert exact(written) == exact(built)
        wide, wide_built = (s.with_window(hband=6) for s in (written, built))
        assert exact(wide) == exact(wide_built)
        assert exact(wide.mul(written)) == exact(wide_built.mul(built))
        lat = LatticeSpec(2, 1, [[1, 0], [0, 1], [0.3 + 1.0j, 0.5 + 0.2j],
                                 [0.7 + 0.1j, 0.2 + 1.0j]])
        for dom in (DomainSpec(lat, 0.15, 0.45),
                    DomainSpec(lat, 0.1, 0.5, word=((0, 1),))):
            got, want = (sup_norm_bound(s, dom).value for s in (written,
                                                                 built))
            assert got.hex() == want.hex()


class TestSubstitutionLoss:
    """What a substitution drops above vmax goes to its truncation record:
    the losses of the power products W_Q, and the triangle bound of each
    row that is not formed."""

    def test_power_product_loss_is_recorded(self):
        # (v + v^2 / 4)^2 = v^2 + v^3 / 2 + v^4 / 16: v^4 lies above vmax 3
        f = mono(1, 1, (0,), (2,), vmax=3)
        phi = mono(1, 1, (0,), (2,), 0.25, vmax=3)
        got = substitute_vertical(f, phi)
        assert term_dict(got) == {(0, (0,), (2,)): 1.0, (0, (0,), (3,)): 0.5}
        assert got.tailflag and got.discarded >= 0.0625

    def test_record_bounds_the_mass_above_vmax(self):
        # the power products W_Q carry their factors' records scaled by
        # the other factor's mass, so the substitution records at least
        # what the same substitution on a wide window holds above vmax
        # (201.3 here; 137.4 while mul added its operands' records unscaled)
        rng = np.random.default_rng(512)
        f = random_series(rng, 1, 2, components=2, vmax=5, pmax=2,
                          nterms=12)
        phi = random_series(rng, 1, 2, components=2, vmax=5, pmax=2,
                            nterms=6, min_vdeg=2, scale=0.3)
        wide = substitute_vertical(f.with_window(vmax=30),
                                   phi.with_window(vmax=30))
        assert not wide.tailflag
        above = sum(abs(c) for _, _, Q, c in wide.terms() if sum(Q) > 5)
        assert above > 200
        assert substitute_vertical(f, phi).discarded >= above

    def test_phi_record_reaches_only_terms_that_read_phi(self):
        # f without terms of positive degree does not read phi: the
        # substitution is exact, whatever phi has dropped
        phi = TruncatedSeries(1, 1, 1, 4, coeffs={(0, (1,), (2,)): 0.5},
                              discarded=0.25)
        for f in (TruncatedSeries.zero(1, 1, 1, 4),
                  mono(1, 1, (2,), (0,), 3.0, vmax=4)):
            got = substitute_vertical(f, phi)
            assert (got.tailflag, got.discarded) == (False, 0.0)
            assert term_dict(got) == term_dict(f)
            assert exact(got) == exact(substitute_per_record(f, phi))
        got = substitute_vertical(mono(1, 1, (0,), (1,), vmax=4), phi)
        assert got.tailflag and got.discarded >= 0.25
        # so a deck map without pert_h keeps it exactly zero under
        # conjugation, and compositions with it form no binomial series
        from _fixtures import lattice2_family

        family, _ = lattice2_family(7)
        assert all(m.pert_h.nterms() == 0 and not m.pert_h.tailflag
                   and m.pert_h.discarded == 0.0 for m in family.maps)

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2)])
    def test_rows_not_formed_are_bounded(self, n, d):
        # every term of f lies past vmax - ord phi + 1, so no row is formed
        # and each adds its triangle bound: the same substitution on a
        # window that keeps every term has at most that mass above vmax
        rng = np.random.default_rng(500 + 10 * n + d)
        f = random_series(rng, n, d, components=2, vmax=5, pmax=2,
                          nterms=8, min_vdeg=5)
        phi = random_series(rng, n, d, components=d, vmax=5, pmax=2,
                            nterms=6, min_vdeg=2, scale=0.3)
        got = substitute_vertical(f, phi)
        assert [len(row) for row in phi._shift[5]] == [2] * d
        wide = substitute_vertical(f.with_window(vmax=30),
                                   phi.with_window(vmax=30))
        assert not wide.tailflag and wide.discarded == 0.0
        above = sum(abs(c) for _, _, Q, c in wide.terms() if sum(Q) > 5)
        assert got.tailflag and 0 < above <= got.discarded
        assert got.max_coeff_diff(wide.restrict(vmax=5)) == 0.0


class TestPowersWithinReach:
    """Past |Q| = vmax - ord phi + 1, W_Q = prod_j (v_j + phi_j)^q_j holds
    only v^Q inside the window: such a term is its own record and no power
    row is built for it."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_matches_per_record_oracle(self, order):
        rng = np.random.default_rng(120 + order)
        vmax = 7
        limit = vmax - order + 1
        f = random_series(rng, 1, 2, components=2, vmax=vmax, pmax=2,
                          nterms=24)
        f = f.add(TruncatedSeries(1, 2, 2, vmax, coeffs={
            (0, (1,), (limit, 0)): 0.5 - 0.25j,
            (1, (0,), (3, vmax - 3)): 1.5,
            (1, (-1,), (0, limit + 1)): 0.75j}))
        phi = random_series(rng, 1, 2, components=2, vmax=vmax, pmax=2,
                            nterms=8, min_vdeg=order, scale=0.3)
        phi = phi.add(TruncatedSeries.monomial(
            1, 2, 1, (1,), (order - 1, 1), 0.25, components=2, vmax=vmax))
        assert phi.v_order() == order
        assert {sum(Q) for _, _, Q, _ in f.terms()} >= {limit, limit + 1}
        got = substitute_vertical(f, phi)
        want = substitute_per_record(f, phi)
        assert exact(got) == exact(want)
        assert stores_sorted(got)
        # the rows reach limit, and no further
        (rows,) = phi._shift.values()
        assert max(len(row) for row in rows) - 1 == limit

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 2)])
    def test_wider_phi_drops_its_terms_above_the_output_window(self, n, d):
        # phi on vmax 8 with a record of its own, f on vmax 5: each row
        # v_j + phi_j keeps phi_j's terms through degree 5, and its
        # discarded is phi's record plus the moduli of the others, in
        # sorted order
        rng = np.random.default_rng(640 + 10 * n + d)
        f = random_series(rng, n, d, components=2, vmax=5, pmax=2,
                          nterms=16)
        phi = random_series(rng, n, d, components=d, vmax=8, pmax=2,
                            nterms=24, min_vdeg=2, scale=0.3)
        phi = TruncatedSeries(n, d, d, 8, coeffs=term_dict(phi),
                              discarded=3e-9)
        above = [[abs(c) for k, _, Q, c in phi.terms()
                  if k == j and sum(Q) > 5] for j in range(d)]
        assert all(above)
        got = substitute_vertical(f, phi)
        assert exact(got) == exact(substitute_per_record(f, phi))
        for j, row in enumerate(phi._shift[5]):
            want = phi.discarded
            for amount in above[j]:
                want += amount
            assert row[1].discarded.hex() == want.hex()
            assert row[1].v_order() == 1 and row[1].vmax == 5

    def test_terms_above_the_output_window_are_discarded(self):
        # f on vmax 6, phi on vmax 5: f's v^6 term is past the output
        # window and leaves its modulus in discarded
        f = TruncatedSeries(1, 1, 1, 6, coeffs={(0, (1,), (2,)): 0.5,
                                            (0, (0,), (6,)): 2.0})
        phi = mono(1, 1, (0,), (2,), 0.25, vmax=5)
        got = substitute_vertical(f, phi)
        # before it, the triangle bound of the row (v + v^2 / 4)^6 - v^6,
        # all of it above the window
        assert (got.vmax, got.tailflag, got.discarded) == \
            (5, True, 2.0 * (1.25 ** 6 - 1.0) + 2.0)
        # 0.5 h (v + v^2 / 4)^2 = 0.5 h v^2 + 0.25 h v^3 + 0.03125 h v^4
        assert term_dict(got) == {(0, (1,), (2,)): 0.5,
                                  (0, (1,), (3,)): 0.25,
                                  (0, (1,), (4,)): 0.03125}
        assert exact(got) == exact(substitute_per_record(f, phi))
        (rows,) = phi._shift.values()
        assert [len(row) for row in rows] == [3]


class TestKernelIO:
    def test_mul_output_is_plain_python(self):
        # keys of Python ints and values of Python complex, so that no
        # numpy scalar repr ("np.int64(") can reach to_text
        rng = np.random.default_rng(41)
        a = random_series(rng, 2, 1, vmax=5, pmax=3, nterms=10)
        b = random_series(rng, 2, 1, vmax=5, pmax=3, nterms=10)
        prod = a.mul(b)
        assert prod.nterms() > 0
        for k, P, Q, c in prod.terms():
            assert type(k) is int and type(c) is complex
            assert type(P) is tuple and type(Q) is tuple
            assert all(type(x) is int for x in P + Q)
        assert "np." not in prod.to_text()

    def test_arrays_layout(self):
        f = TruncatedSeries(2, 1, 2, 4, coeffs={(1, (1, -2), (3,)): 2.0,
                                            (1, (-1, 0), (0,)): 1j,
                                            (0, (0, 0), (1,)): 5.0})
        exps, vals = f._arrays(1)
        assert exps.dtype == np.int64 and vals.dtype == np.complex128
        assert exps.tolist() == [[-1, 0, 0], [1, -2, 3]]
        assert vals.tolist() == [1j, 2.0]
        exps, vals = TruncatedSeries.zero(2, 1, 1)._arrays(0)
        assert exps.shape == (0, 3) and vals.shape == (0,)


class TestScaledInPlaceAdd:
    @pytest.mark.parametrize("c", [2.5, -0.3j, 1e-300, 0.0])
    @pytest.mark.parametrize("discarded", [0.0, 1e-7])
    def test_matches_add_of_scaled_copy(self, c, discarded):
        # linear_combinations([[(a, 1), (b, c)]]) is a.add(b.scale(c)) bit for
        # bit; 1e-300 leaves some scaled terms above PRUNE and prunes the
        # rest; a pruned term outside a's window must not reach ``discarded``
        rng = np.random.default_rng(17)
        a = random_series(rng, 2, 1, vmax=5, pmax=3, nterms=12)
        b = random_series(rng, 2, 1, vmax=5, pmax=3, nterms=12)
        b = TruncatedSeries(2, 1, 1, 6, coeffs=
                            {**term_dict(b), (0, (4, 0), (1,)): 0.5,
                             (0, (0, 0), (6,)): 2.0 - 1j},
                            discarded=discarded)
        got = linear_combination([(a, 1.0), (b, c)])
        want = a.add(b.scale(c))
        assert bits(got) == bits(want)
        assert (got.tailflag, got.discarded) == (want.tailflag,
                                                 want.discarded)
        # the keys are stored sorted: restrict adds the moduli of the
        # terms it drops to discarded in the stored order
        assert len({abs(c) for _, _, Q, c in want.terms()
                    if sum(Q) > 2}) >= 3
        assert exact(got.restrict(vmax=2)) == \
            exact(sorted_copy(want).restrict(vmax=2))

    def test_keys_stored_in_sorted_order(self):
        # the sum, and add, store their keys sorted, not in a's order:
        # restrict(vmax=2) drops u, u, 1 in that order, and u + u + 1
        # does not round to 1, while a's order 1 + u + u would (u = 2^-53)
        u = 2.0 ** -53
        a = TruncatedSeries(1, 1, 1, 4, coeffs={(0, (3,), (3,)): 1.0,
                                                (0, (-3,), (3,)): u,
                                                (0, (-2,), (3,)): u,
                                                (0, (0,), (2,)): 0.5})
        b = TruncatedSeries(1, 1, 1, 4, coeffs={(0, (1,), (2,)): 0.25,
                                                (0, (0,), (2,)): 0.125})
        for c in (1.0, -2.0):
            got = linear_combination([(a, 1.0), (b, c)])
            want = a.add(b.scale(c))
            assert exact(got) == exact(want)
            assert want.restrict(vmax=2).discarded == 1.0 + 2.0 ** -52
            assert got.restrict(vmax=2).discarded == 1.0 + 2.0 ** -52
            assert exact(got.restrict(vmax=2)) == \
                exact(sorted_copy(want).restrict(vmax=2))


def hexed(x):
    """A complex value's parts in hex; a row of ints or an int as it is."""
    return (x.real.hex(), x.imag.hex()) if isinstance(x, complex) else x


def exact(f):
    """``bits`` plus the exact ``discarded``."""
    return bits(f), f.discarded.hex()


def numpy_fuses():
    """Whether numpy's complex multiply differs from the scalar one here."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    b = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    return (a * b).tolist() != [x * y for x, y in zip(a.tolist(), b.tolist())]


def linear_combination(pairs):
    (out,) = linear_combinations([pairs])
    return out


def chained_sum(pairs):
    """sum c s over (s, c): each s.scale(c), its terms stored sorted, added
    in turn to a zero series on the smallest window."""
    first = pairs[0][0]
    out = TruncatedSeries.zero(first.n, first.d, first.components,
                               min(s.vmax for s, _ in pairs))
    for s, c in pairs:
        out = out.add(sorted_copy(s).scale(c))
    return out


class TestFanOutSums:
    """The segment-sum paths against the record-by-record oracles."""

    def test_sum_cancelling_to_zero_then_hit_again(self):
        # key (0, 3): f's v^2 term gives 1 * 2b = 0.5, its v^3 term -0.5,
        # so the running sum is exactly 0 (the record loop deletes the key)
        # before the h v^2 term adds 2e through h * h^-1 v^3
        b, e = 0.25, 0.125
        phi = TruncatedSeries(1, 1, 1, 6, coeffs={(0, (0,), (2,)): b,
                                              (0, (-1,), (2,)): e})
        f = TruncatedSeries(1, 1, 1, 6, coeffs={(0, (0,), (2,)): 1.0,
                                            (0, (0,), (3,)): -0.5,
                                            (0, (1,), (2,)): 1.0})
        got = substitute_vertical(f, phi)
        assert got.get(0, (0,), (3,)) == 2 * e
        assert exact(got) == exact(substitute_per_record(f, phi))
        s = TruncatedSeries.monomial(1, 1, 0, (0,), (3,), 0.5, vmax=6)
        t = TruncatedSeries.monomial(1, 1, 0, (0,), (3,), 0.25, vmax=6)
        pairs = [(s, 1.0), (s, -1.0), (t, 1.0), (s, -0.5)]
        got = linear_combination(pairs)
        assert got.get(0, (0,), (3,)) == 0.0 and got.nterms() == 0
        assert exact(got) == exact(chained_sum(pairs))
        pairs = pairs[:3]
        assert exact(linear_combination(pairs)) == exact(chained_sum(pairs))

    def test_discarded_in_record_order(self):
        # each summand's own discarded comes before the mass its records
        # lose to the smaller window: 1 + u + u rounds to 1, while
        # u + u + 1 would not (u = 2^-53)
        u = 2.0 ** -53
        narrow = TruncatedSeries.monomial(1, 1, 0, (1,), (2,), 1.0, vmax=4)
        wide = TruncatedSeries(1, 1, 1, 6, coeffs={(0, (3,), (5,)): u,
                                                   (0, (0,), (6,)): u,
                                                   (0, (1,), (2,)): 0.5},
                               discarded=1.0)
        for pairs in ([(narrow, 1.0), (wide, 1.0)],
                      [(wide, 1.0), (narrow, -1.0), (wide, 2.0)]):
            got = linear_combination(pairs)
            assert got.vmax == 4 and got.tailflag
            assert exact(got) == exact(chained_sum(pairs))
        assert got.discarded == 3.0

    def test_batched_sums_match_single_ones(self):
        # sums over different windows, with truncation records and shared
        # keys, formed in one call: each as its own chain of add and scale
        rng = np.random.default_rng(88)
        a = random_series(rng, 2, 1, vmax=5, pmax=3, nterms=12)
        b = TruncatedSeries(2, 1, 1, 6, coeffs=term_dict(random_series(
            rng, 2, 1, vmax=6, pmax=4, nterms=12)), discarded=0.25)
        c = random_series(rng, 2, 1, vmax=6, pmax=4, nterms=12)
        sums = [[(a, 1.5), (b, -0.5j)], [(b, 2.0)], [(c, 1.0), (b, 0.3),
                                                     (a, -1.0)], [(c, 0.0)]]
        got = linear_combinations(sums)
        assert [exact(g) for g in got] == \
            [exact(chained_sum(pairs)) for pairs in sums]
        assert got[0].tailflag and got[0].discarded > 0.125

    def test_negative_zero_parts(self):
        # values written with -0.0 parts (from_text keeps them) and scales
        # with -0.0 parts: every sum starts from +0.0 in both paths
        text = "TLS 1 1 1 6 2\n" + "".join(
            "0 %d %d %s %s\n" % (p, q, re, im)
            for p, q, re, im in [(0, 2, "-1.5", "-0.0"), (1, 2, "-0.0", "2.0"),
                                 (0, 3, "0.75", "-0.0"), (-1, 4, "-0.0", "-0.0"),
                                 (0, 0, "-0.0", "-0.5")])
        f = TruncatedSeries.from_text(text)
        assert "-0.0" in f.to_text()
        phi = TruncatedSeries.from_text(
            "TLS 1 1 1 6 2\n0 0 2 0.5 -0.0\n0 -1 3 -0.0 0.25\n")
        assert exact(substitute_vertical(f, phi)) == \
            exact(substitute_per_record(f, phi))
        for c in (complex(-2.0, -0.0), complex(-0.0, 1.0), -1.0):
            pairs = [(f, c), (phi, 1.0), (f, complex(0.5, -0.0))]
            assert exact(linear_combination(pairs)) == \
                exact(chained_sum(pairs))

    @pytest.mark.parametrize("seed", range(3))
    def test_unfused_products(self, seed):
        # random values: numpy's complex multiply, where it fuses, rounds
        # many of these products differently (see the next test)
        rng = np.random.default_rng(70 + seed)
        f = random_series(rng, 2, 1, components=2, vmax=6, pmax=3,
                          nterms=16)
        phi = random_series(rng, 2, 1, vmax=6, pmax=3, nterms=8,
                            min_vdeg=2, scale=0.7)
        assert exact(substitute_vertical(f, phi)) == \
            exact(substitute_per_record(f, phi))
        g = random_series(rng, 2, 1, components=2, vmax=6, pmax=3,
                          nterms=16)
        pairs = [(f, 0.3 - 1.7j), (g, 1.1 + 0.9j), (f, -2.3 + 0.1j)]
        assert exact(linear_combination(pairs)) == exact(chained_sum(pairs))

    def test_inputs_tell_fused_from_unfused(self):
        if not numpy_fuses():
            pytest.skip("numpy's complex multiply does not fuse on this CPU")
        rng = np.random.default_rng(70)
        f = random_series(rng, 2, 1, components=2, vmax=6, pmax=3,
                          nterms=16)
        vals = [c for *_, c in f.terms()]
        fused = (np.array(vals) * (0.3 - 1.7j)).tolist()
        assert fused != [c * (0.3 - 1.7j) for c in vals]


class TestFoldedSummands:
    """``(s, c, P, p)`` summands against ``(s.shift_h(P).scale(p), c)``,
    shifted from ``s``'s terms in sorted order."""

    @staticmethod
    def check(sums):
        got = linear_combinations(sums)
        want = linear_combinations(
            [[(sorted_copy(s).shift_h(fold[0]).scale(fold[1]) if fold else s,
               c) for s, c, *fold in pairs] for pairs in sums])
        for g, w in zip(got, want):
            assert exact(g) == exact(w)
            assert stores_sorted(g)
        return got

    @pytest.mark.parametrize("components", [1, 2])
    def test_matches_shift_then_scale(self, components):
        # pre-factors of 1e-300 and 0 prune some or all of the shifted
        # records, and unshifted summands, records above the window and a
        # truncation record ride along
        rng = np.random.default_rng(300 + components)
        a = random_series(rng, 2, 1, components=components, vmax=5, pmax=3,
                          nterms=14)
        b = TruncatedSeries(2, 1, components, 5, coeffs=term_dict(random_series(
            rng, 2, 1, components=components, vmax=5, pmax=3, nterms=14)),
            discarded=0.125)
        c = random_series(rng, 2, 1, components=components, vmax=6, pmax=4,
                          nterms=10)
        sums = [[(a, 0.7 - 0.2j, (2, -1), 1e-3 + 2e-3j),
                 (b, 1.0, (0, 0), 1.0),
                 (c, -1.5),
                 (a, 2.0, (0, 1), 1e-300)],
                [(b, 0.3j, (-2, 2), 3.0 - 1.0j), (a, 1.0, (1, 0), 0.0),
                 (c, 1e-300, (1, 1), 1.0 + 1.0j)],
                [(c, 2.0, (1, 0), 0.5)]]
        got = self.check(sums)
        assert got[0].tailflag
        assert got[1].discarded >= 0.125 * abs(3.0 - 1.0j) * abs(0.3j)

    def test_record_of_modulus_prune_or_less(self):
        # from_text keeps a value of modulus below PRUNE, which shift_h does
        # not store, so the pre-factor 1e20 must not lift it into the sum
        # (at h v^2)
        f = TruncatedSeries.from_text("TLS 1 1 1 4 3\n0 0 2 1e-310 0.0\n"
                                      "0 3 2 0.5 0.25\n0 -1 3 0.0 -2.0\n")
        got = self.check([[(f, 2.0, (1,), 1e20), (f, 1.0)]])
        assert got[0].get(0, (1,), (2,)) == 0 and got[0].nterms() == 4


class TestInsertionOrder:
    """The order in which a table stores its keys is not an input: the
    bulk operations read every series in sorted order, so inputs stored in
    any order give the same bits, ``tailflag`` and ``discarded``, and the
    results store their keys sorted."""

    @staticmethod
    def inputs():
        # the moduli 1, u, u (u = 2^-53) add up to 1 + 2u in sorted order
        # and to 1 in any order that does not put 1 last: b's are lost to
        # a's smaller window, e's to g's, and f's to phi's
        u = 2.0 ** -53
        rng = np.random.default_rng(400)
        a = random_series(rng, 2, 1, components=2, vmax=5, pmax=3,
                          nterms=16)
        b = TruncatedSeries(2, 1, 2, 6, coeffs={
            **term_dict(random_series(rng, 2, 1, components=2, vmax=5,
                                      pmax=3, nterms=16)),
            (0, (-4, 0), (6,)): u, (0, (0, 0), (6,)): u,
            (1, (4, 1), (6,)): 1.0})
        e = TruncatedSeries(2, 1, 1, 6, coeffs={
            **term_dict(random_series(rng, 2, 1, vmax=5, pmax=2,
                                      nterms=12)),
            (0, (3, -2), (6,)): u, (0, (3, -1), (6,)): u,
            (0, (3, 2), (6,)): 1.0})
        # f has terms of degree 6, above phi's vmax 5
        f = TruncatedSeries(2, 1, 2, 6, coeffs={
            **term_dict(random_series(rng, 2, 1, components=2, vmax=6,
                                      pmax=3, nterms=16)),
            (0, (-3, 0), (6,)): u, (0, (0, 1), (6,)): u,
            (1, (2, 2), (6,)): 1.0})
        phi = random_series(rng, 2, 1, vmax=5, pmax=1, nterms=6, min_vdeg=2,
                            scale=0.3)
        g = TruncatedSeries.monomial(2, 1, 0, (1, 0), (1,), vmax=5)
        return dict(a=a, b=b, e=e, f=f, phi=phi, g=g)

    CASES = {
        "mul": lambda s: [s["a"].mul(s["e"]), s["e"].mul(s["b"]),
                          s["e"].mul(s["e"])],
        "sum": lambda s: linear_combinations([[(s["a"], 1.0),
                                               (s["b"], 1.0)]]),
        "folded": lambda s: linear_combinations(
            [[(s["g"], 1.0), (s["e"], 1.0, (1, 0), 1.0),
              (s["e"], 0.5, (0, -1), 0.25 - 1j)]]),
        "several sums": lambda s: linear_combinations(
            [[(s["a"], 1.5), (s["b"], -0.5j)], [(s["e"], 1.0, (1, 0), 1.0)],
             [(s["b"], 1.0)], [(s["a"], 1.0), (s["a"], -1.0)],
             [(s["e"], 2.0), (s["e"], 1.0, (-1, 1), 0.5)]]),
        "substitute": lambda s: [substitute_vertical(s[name], s["phi"])
                                 for name in ("f", "g", "a")],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_shuffled_inputs_give_the_same_bits(self, case):
        op = self.CASES[case]
        series = self.inputs()
        want = op({name: sorted_copy(s) for name, s in series.items()})
        assert all(stores_sorted(w) for w in want)
        if case != "mul":
            assert want[0].tailflag
        for seed in range(6):
            order = np.random.default_rng(seed)
            got = op({name: shuffled_copy(s, order)
                      for name, s in series.items()})
            assert [exact(g) for g in got] == [exact(w) for w in want]
            assert all(stores_sorted(g) for g in got)


class TestScatterWrite:
    """``_scatter`` stores its sums in one pass, as ``accumulate`` would."""

    def test_matches_accumulate(self):
        # two tables and two components; 2 PRUNE - PRUNE is exactly PRUNE,
        # so one key's sum ends at PRUNE and is left out, like a record of
        # modulus PRUNE on its own; v^4 lies outside the second table
        recs = [(0, 0, (1,), (2,), 0.5 - 1j), (0, 1, (1,), (2,), 2 * PRUNE),
                (0, 0, (0,), (3,), 0.25), (0, 1, (1,), (2,), -PRUNE),
                (0, 0, (-2,), (2,), 1j * PRUNE), (0, 0, (1,), (2,), 0.5),
                (1, 1, (0,), (4,), 3.0 + 4.0j), (1, 0, (2,), (3,), 3 * PRUNE),
                (1, 1, (0,), (2,), -1.5), (1, 0, (2,), (3,), 0.125j),
                (1, 1, (0,), (2,), 0.75)]

        def empty():
            return [TruncatedSeries(1, 1, 2, 4),
                    TruncatedSeries(1, 1, 2, 3)]

        got, want = empty(), empty()
        _scatter(got, np.array([r[0] for r in recs]),
                 np.array([r[1] for r in recs]),
                 np.array([r[2] + r[3] for r in recs], dtype=np.int64),
                 np.array([r[4] for r in recs], dtype=np.complex128),
                 [[(0, 0.0)], [(1, 0.5)]])
        want[1].discarded = 0.5
        for o, k, P, Q, c in recs:
            accumulate(want[o], [((k, P, Q), c)])
        for g, w in zip(got, want):
            assert exact(g) == exact(w)
            assert stores_sorted(g)
        assert got[0].get(1, (1,), (2,)) == 0 and got[0].nterms() == 2
        assert got[1].tailflag and got[1].discarded == 5.5

    def test_add_matches_accumulate(self):
        # add is one _scatter of a's records, then b's: the record loop's
        # sums, and a's tiny v^4 lies outside the sum's window and is lost
        # mass all the same.  The one difference: the loop drops a's tiny
        # record at v^2 before b's 1.5e-300 arrives, where add sums the two
        # (tiny records come only from from_text or a coeffs write)
        a = TruncatedSeries.from_text("TLS 1 1 1 4 2\n0 0 2 1e-310 0.0\n"
                                      "0 1 4 0.0 1e-310\n0 0 1 0.5 0.0\n")
        b = TruncatedSeries(1, 1, 1, 3, coeffs={(0, (0,), (2,)): 1.5e-300,
                                            (0, (0,), (1,)): 0.25})
        total = 1e-310 + 1.5e-300
        assert total != 1.5e-300
        for x, y in ((a, b), (b, a)):
            want = TruncatedSeries(1, 1, 1, 3)
            for s in (x, y):
                accumulate(want, (((k, P, Q), c) for k, P, Q, c in s.terms()))
            want = with_terms(want, {(0, (0,), (2,)): total})
            assert exact(x.add(y)) == exact(want)
        assert a.add(b).tailflag and a.add(b).discarded == 1e-310


class TestKernelArrays:
    """The sorted (exps, vals) a series keeps for the kernels."""

    @staticmethod
    def fresh(f, k):
        return sorted_copy(f)._arrays(k)

    @classmethod
    def check_kept(cls, f, seeded=True):
        """``f``'s kernel arrays, kept from its making when ``seeded``, are
        bit for bit what a rebuild from the table gives, read-only, and
        a write through ``accumulate`` drops them."""
        if seeded:
            # kept from the making; with_window shares its source's store,
            # with what was kept beside the arrays
            assert {*range(f.components), "sorted"} <= set(f._store)
        # (no component column for a single component)
        for got, want in zip(f._sorted(), sorted_copy(f)._sorted()):
            if want is None:
                assert got is None and f.components == 1
                continue
            assert got.dtype == want.dtype and got.shape == want.shape
            assert not got.flags.writeable
            assert [hexed(x) for x in got.tolist()] == \
                [hexed(x) for x in want.tolist()]
        for k in range(f.components):
            exps, vals = f._arrays(k)
            want_exps, want_vals = cls.fresh(f, k)
            assert exps.dtype == want_exps.dtype and exps.shape == \
                want_exps.shape
            assert exps.tolist() == want_exps.tolist()
            assert [hexed(c) for c in vals.tolist()] == \
                [hexed(c) for c in want_vals.tolist()]
            assert not exps.flags.writeable and not vals.flags.writeable
        accumulate(f, [])
        assert f._store is None

    @pytest.mark.parametrize("ca,cb", [(1, 1), (2, 2), (1, 2), (2, 1)])
    def test_mul_seeds_what_a_rebuild_gives(self, ca, cb):
        rng = np.random.default_rng(80 + 3 * ca + cb)
        a = random_series(rng, 2, 1, components=ca, vmax=5, pmax=3,
                          nterms=12)
        b = random_series(rng, 2, 1, components=cb, vmax=5, pmax=3,
                          nterms=12)
        self.check_kept(a.mul(b))

    def test_sums_seed_what_a_rebuild_gives(self):
        # plain, folded and batched sums over one and two components, with
        # records lost to the window and a sum that cancels
        rng = np.random.default_rng(81)
        a, b = (random_series(rng, 2, 1, components=2, vmax=5, pmax=3,
                              nterms=14) for _ in range(2))
        c = random_series(rng, 2, 1, vmax=6, pmax=4, nterms=12)
        for out in linear_combinations([
                [(a, 1.0), (b, -0.5j), (a, -1.0)],
                [(a, 0.25, (1, -1), 2.0), (b, 1.0)],
                [(c, 1.5)], [(c, 1.0), (c, -1.0)]]):
            self.check_kept(out)

    @pytest.mark.parametrize("components", [1, 2])
    def test_substitution_seeds_what_a_rebuild_gives(self, components):
        rng = np.random.default_rng(82 + components)
        f = random_series(rng, 2, 1, components=components, vmax=6, pmax=2,
                          nterms=14)
        phi = random_series(rng, 2, 1, vmax=5, pmax=2, nterms=6,
                            min_vdeg=2, scale=0.3)
        self.check_kept(substitute_vertical(f, phi))

    def test_composition_keeps_what_a_rebuild_gives(self):
        # compose_with_maps ends with one _scatter of its group pieces, which
        # keeps its arrays
        rng = np.random.default_rng(84)
        zero_h = TruncatedSeries.zero(1, 1, 1, 6)
        pv = random_series(rng, 1, 1, vmax=6, pmax=2, nterms=6,
                           min_vdeg=2, scale=0.1)
        m = DeckMap(lam=[np.exp(0.3j)], mu=[np.exp(1.1j)], pert_h=zero_h,
                    pert_v=pv)
        f = random_series(rng, 1, 1, components=3, vmax=6, pmax=3,
                          nterms=20)
        self.check_kept(compose_with_maps([(f, m, None)])[0])

    def test_empty_product_seeds_empty_arrays(self):
        a = TruncatedSeries.monomial(1, 1, 0, (0,), (4,), vmax=6)
        prod = a.mul(a)  # v^8 lies above vmax
        exps, vals = prod._arrays(0)
        assert exps.shape == (0, 2) and vals.shape == (0,)

    def test_arrays_follow_accumulate(self):
        rng = np.random.default_rng(85)
        f = random_series(rng, 1, 1, vmax=5, pmax=3, nterms=8)
        before = f._arrays(0)
        assert f._arrays(0) is before  # kept, not rebuilt
        key = (0, (1,), (5,))
        accumulate(f, [(key, 2.0 - 1j)])
        exps, vals = f._arrays(0)
        assert exps is not before[0]
        assert [1, 5] in exps.tolist()
        assert exps.tolist() == self.fresh(f, 0)[0].tolist()
        assert vals.tolist() == self.fresh(f, 0)[1].tolist()

    def test_kept_data_follows_accumulate(self):
        # the table_data kept with the arrays is built once, dropped when
        # accumulate writes, and rebuilt from the new table
        rng = np.random.default_rng(87)
        f = random_series(rng, 1, 1, components=2, vmax=5, pmax=3,
                          nterms=10)
        data = f._operand(1)[2]
        assert f._operand(1)[2] is data
        accumulate(f, [((1, (1,), (5,)), 2.0 - 1j)])
        assert f._store is None
        exps, vals, data = f._operand(1)
        fresh_exps, fresh_vals = self.fresh(f, 1)
        want = table_data(fresh_exps, fresh_vals,
                          vertical_degrees(fresh_exps, 1))
        assert [1, 5] in exps.tolist()
        for got, expected in zip(data, want):
            assert got.tolist() == expected.tolist()

    @staticmethod
    def used_series():
        rng = np.random.default_rng(86)
        f = random_series(rng, 1, 1, components=2, vmax=5, pmax=3,
                          nterms=10, scale=0.5)
        f.mul(f)
        f.evaluate(np.zeros((1, 1)), np.zeros((1, 1)))
        assert f._store is not None
        return f

    def test_operation_results_keep_arrays(self):
        # selections, sums, re-truncations and scalings store arrays, bit
        # for bit what a rebuild from a sorted copy gives, read-only
        f = self.used_series()
        g = f.add(TruncatedSeries(1, 1, 2, 5, coeffs={(1, (3,), (1,)): -1e-3}))
        for out in [f.with_window(vmax=6), f.cut(4), f.component(1),
                    f.homogeneous_part(2), f.up_to_degree(3), f.restrict(4),
                    f.restrict(2), f.scale(2.0), f.scale(1e-299),
                    f.shift_h((1,)), f.shift_h((-2,)), f.add(f), f - f, -f,
                    f.add(g), g.add(f), scale_components(f, [1.0, -2j])]:
            self.check_kept(out)

    def test_constructed_series_start_without_arrays(self):
        f = self.used_series()
        derived = [f._like(), compose_diagonal(f, [0.5], [1j]),
                   TruncatedSeries.from_text(f.to_text()),
                   TruncatedSeries(1, 1, 2, 5, coeffs=term_dict(f)),
                   TruncatedSeries.zero(1, 1), TruncatedSeries.monomial(
                       1, 1, 0, (0,), (2,))]
        assert [g._store for g in derived] == [None] * len(derived)


class TestInvertVerticalMap:
    def test_zero(self):
        z = TruncatedSeries.zero(1, 1, 1, 5)
        assert invert_vertical_map(z).is_zero()

    def test_quadratic_reversion(self):
        # G = c v^2, vmax=4: H = -c v^2 + 2 c^2 v^3 - 5 c^3 v^4
        c = 0.7 + 0.4j
        G = mono(1, 1, (0,), (2,), c, vmax=4)
        H = invert_vertical_map(G)
        assert H.get(0, (0,), (2,)) == pytest.approx(-c)
        assert H.get(0, (0,), (3,)) == pytest.approx(2 * c * c)
        assert H.get(0, (0,), (4,)) == pytest.approx(-5 * c**3)

    def test_roundtrip(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            G = random_series(rng, 1, 2, components=2, vmax=6, pmax=2,
                              nterms=10, min_vdeg=2, scale=0.3)
            H = invert_vertical_map(G)
            # (h, v + G) then (h, v + H): composite vertical part must vanish
            comp = H.add(substitute_vertical(G, H))
            assert comp.max_abs() < 1e-12


def full_window_inverse(G):
    """The fixed-point inversion with every sweep on the full window."""
    H = G._like(components=G.d)
    for _ in range(G.vmax + 1):
        nxt = substitute_vertical(G, H).scale(-1.0)
        if nxt.max_coeff_diff(H) == 0.0:
            H = nxt
            break
        H = nxt
    return H


def bits(f):
    """Window, flags and every coefficient as exact bit patterns, in order."""
    return (f.n, f.d, f.components, f.vmax, f.tailflag,
            [(k, P, Q, c.real.hex(), c.imag.hex()) for k, P, Q, c in f.terms()])


def unflagged_bits(f):
    """``bits`` without the tailflag."""
    flagged = bits(f)
    return flagged[:4] + flagged[5:]


def homogeneous_series(rng, n, d, m, vmax, pmax, nterms, scale):
    coeffs = {}
    while len(coeffs) < nterms:
        Q = [0] * d
        for _ in range(m):
            Q[int(rng.integers(0, d))] += 1
        P = tuple(int(x) for x in rng.integers(-pmax, pmax + 1, size=n))
        key = (int(rng.integers(0, d)), P, tuple(Q))
        coeffs[key] = scale * complex(rng.standard_normal(),
                                      rng.standard_normal())
    return TruncatedSeries(n, d, d, vmax, coeffs=coeffs)


class TestWindowedInversion:
    """Windowed sweeps against the full-window loop, bit for bit."""

    @staticmethod
    def homogeneous_case(n, d, m):
        rng = np.random.default_rng(100 * n + 10 * d + m)
        vmax = 7 if d == 1 else 6
        return homogeneous_series(rng, n, d, m, vmax, 2, 5, 0.3)

    @staticmethod
    def mixed_case(n, d):
        rng = np.random.default_rng(7 * n + d)
        vmax = 7 if d == 1 else 6
        return random_series(rng, n, d, components=d, vmax=vmax, pmax=2,
                             nterms=12, min_vdeg=2, scale=0.3)

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_homogeneous(self, n, d, m):
        G = self.homogeneous_case(n, d, m)
        H = invert_vertical_map(G)
        full = full_window_inverse(G)
        assert unflagged_bits(H) == unflagged_bits(full)
        assert H.max_abs() > 0
        # a sweep records what it drops above vmax; where the first sweep,
        # from H = 0, is already on the full window, one more sweep records
        # what the substitution of H = -G drops
        assert H.tailflag == full.tailflag

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_mixed_degree(self, n, d):
        psi = self.mixed_case(n, d)
        H = invert_vertical_map(psi)
        assert bits(H) == bits(full_window_inverse(psi))
        assert H.homogeneous_part(psi.vmax).max_abs() > 0

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("m", [2, 3, 4, None])
    def test_one_more_sweep_changes_nothing(self, n, d, m):
        # the inversion stops after its first full-window sweep; a further
        # sweep from its result moves no coefficient bit, and its truncation
        # record can only grow by what that sweep drops above vmax
        G = self.mixed_case(n, d) if m is None else \
            self.homogeneous_case(n, d, m)
        H = invert_vertical_map(G)
        again = substitute_vertical(G, H).scale(-1.0)
        assert unflagged_bits(again) == unflagged_bits(H)
        assert again.tailflag >= H.tailflag

    @pytest.mark.parametrize("m,vmax,windows", [(2, 6, [2, 3, 4, 5, 6]),
                                                (3, 7, [4, 6, 7]),
                                                (5, 7, [7, 7])])
    def test_sweep_windows(self, monkeypatch, m, vmax, windows):
        # sweep s works through degree (s + 1)(m - 1); the first sweep on
        # the full window that substitutes a nonzero H is the last, so a
        # first sweep from H = 0 on the full window is followed by one more
        import toruslin.series as series_mod
        seen = []
        real = series_mod.substitute_vertical

        def recording(f, phi):
            seen.append(f.vmax)
            return real(f, phi)

        monkeypatch.setattr(series_mod, "substitute_vertical", recording)
        G = homogeneous_series(np.random.default_rng(m), 1, 1, m, vmax, 2, 3,
                               0.3)
        invert_vertical_map(G)
        assert seen == windows


class TestRingProperties:
    small = st.integers(-2, 2)

    @st.composite
    @staticmethod
    def small_series(draw):
        terms = draw(st.lists(st.tuples(
            st.integers(-3, 3), st.integers(0, 4),
            st.complex_numbers(max_magnitude=4, allow_nan=False,
                               allow_infinity=False)),
            min_size=0, max_size=6))
        coeffs = {}
        for p, q, c in terms:
            key = (0, (p,), (q,))
            coeffs[key] = coeffs.get(key, 0.0) + c
        # the constructor drops the sums that cancelled to zero
        return TruncatedSeries(1, 1, 1, 4, coeffs=coeffs)

    @given(small_series(), small_series())
    @settings(max_examples=40, deadline=None)
    def test_mul_commutes(self, a, b):
        ab, ba = a.mul(b), b.mul(a)
        assert ab.max_coeff_diff(ba) < 1e-12 * max(1.0, ab.max_abs())

    @given(small_series(), small_series(), small_series())
    @settings(max_examples=25, deadline=None)
    def test_mul_distributes_over_add(self, a, b, c):
        lhs = a.mul(b.add(c))
        rhs = a.mul(b).add(a.mul(c))
        assert lhs.max_coeff_diff(rhs) < 1e-10 * max(1.0, lhs.max_abs())

    @given(small_series())
    @settings(max_examples=25, deadline=None)
    def test_scale_linear(self, a):
        assert a.scale(2.0).max_coeff_diff(a.add(a)) < 1e-13 * max(1.0, a.max_abs())


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(37)
        f = random_series(rng, 2, 1, components=3, vmax=7, pmax=5, nterms=40)
        text = f.to_text()
        g = TruncatedSeries.from_text(text)
        assert list(g.terms()) == list(f.terms())
        assert (g.n, g.d, g.components, g.vmax) == \
            (f.n, f.d, f.components, f.vmax)
        assert g.to_text() == text

    def test_header_names_the_largest_horizontal_exponent(self):
        # the fifth header field is max |P|_inf over the terms, 0 without
        # terms; a reader checks it is a nonnegative int and ignores it, so
        # a file from a writer that put the horizontal band there reads
        f = TruncatedSeries(2, 1, 1, 4, coeffs={(0, (1, -3), (2,)): 1.0,
                                                (0, (2, 0), (1,)): 2.0})
        assert f.to_text().splitlines()[0] == "TLS 2 1 1 4 3"
        assert TruncatedSeries.zero(2, 1, 1, 4).to_text() == "TLS 2 1 1 4 0\n"
        old = TruncatedSeries.from_text(
            f.to_text().replace("TLS 2 1 1 4 3", "TLS 2 1 1 4 40"))
        assert list(old.terms()) == list(f.terms())
        for head in ("TLS 2 1 1 4 -1", "TLS 2 1 1 4 x", "TLS 2 1 1 4"):
            with pytest.raises(SeriesError, match="header"):
                TruncatedSeries.from_text(head + "\n")

    def test_records_sorted(self):
        f = TruncatedSeries(1, 1, 2, 4, coeffs={(1, (2,), (1,)): 1.0,
                                            (0, (-1,), (3,)): 2.0,
                                            (0, (-1,), (1,)): 3.0})
        lines = f.to_text().strip().splitlines()[1:]
        assert lines == sorted(lines, key=lambda ln: (
            int(ln.split()[0]), int(ln.split()[1]), int(ln.split()[2])))

    def test_malformed_inputs_rejected(self):
        with pytest.raises(SeriesError, match="header"):
            TruncatedSeries.from_text("XLS 1 1 1 4 4\n")
        with pytest.raises(SeriesError, match="record"):
            TruncatedSeries.from_text("TLS 1 1 1 4 4\n0 1 2\n")
        # a value that is not finite is no coefficient
        for value in ("nan 0.0", "0.0 -inf", "inf nan"):
            with pytest.raises(SeriesError, match="record"):
                TruncatedSeries.from_text("TLS 1 1 1 4 1\n0 1 2 %s\n"
                                          % value)

    def test_component_out_of_range_rejected(self):
        with pytest.raises(SeriesError, match="component index"):
            TruncatedSeries.from_text("TLS 1 1 2 4 4\n2 0 2 1.0 0.0\n")

    def test_negative_vertical_exponent_rejected(self):
        with pytest.raises(SeriesError, match="nonnegative"):
            TruncatedSeries.from_text("TLS 1 1 1 4 4\n0 0 -1 1.0 0.0\n")

    def test_vertical_degree_above_vmax_rejected(self):
        with pytest.raises(SeriesError, match="window"):
            TruncatedSeries.from_text("TLS 1 2 1 4 4\n0 0 3 2 1.0 0.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(SeriesError, match="duplicate"):
            TruncatedSeries.from_text("TLS 1 1 1 4 4\n0 1 2 1.0 0.0\n"
                                      "0 1 2 2.0 0.0\n")

    def test_negative_header_field_rejected(self):
        with pytest.raises(SeriesError, match="header"):
            TruncatedSeries.from_text("TLS -1 1 1 4 4\n")

    def test_empty_text_rejected(self):
        with pytest.raises(SeriesError, match="empty"):
            TruncatedSeries.from_text("\n  \n")

    def test_tiny_values_kept_as_written(self):
        text = "TLS 1 1 1 4 0\n0 0 2 1e-310 0.0\n"
        assert TruncatedSeries.from_text(text).to_text() == text


def test_coefficient_table_is_private():
    # the table's format is known to series.py alone: every other module
    # goes through terms(), get(), nterms() and the series operations
    package = Path(toruslin.__file__).parent
    uses = ["%s:%d" % (path.relative_to(package), num)
            for path in sorted(package.rglob("*.py"))
            if path.name != "series.py"
            for num, line in enumerate(path.read_text().splitlines(), 1)
            if ".coeffs" in line or "PRUNE" in line]
    assert not uses


def test_package_writes_series_in_series_py():
    # the coeffs handle drops a series' kept arrays, and the stores are the
    # series layer's own: no other package module touches them, so no
    # internal reader writes or drops a store
    package = Path(toruslin.__file__).parent
    private = {"coeffs", "_store", "_table"}
    uses = ["%s:%d" % (path.relative_to(package), node.lineno)
            for path in sorted(package.rglob("*.py"))
            if path.name != "series.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in private]
    assert not uses


def test_pending_dicts_converted_once(monkeypatch):
    # building the shipped family and linearizing it at order 12 converts
    # a pending dict to arrays 64 times (when pinned; 67 while the two
    # compositions of an inversion sweep each made their own unit and
    # vertical power, and a substitution into a series without terms left
    # its result a pending dict; 64 before each inversion whose first
    # sweep is on the full window took one more), each in a different
    # series made by a constructor; every other series is stored as arrays
    # from the start, and no series holds a dict beside its arrays
    from _fixtures import shipped_family
    from toruslin.linearize import linearize
    conversions, both = [], []
    real_sorted = TruncatedSeries._sorted
    real_keep = TruncatedSeries._keep_sorted

    def checked(self):
        if self._table is not None and self._store is not None:
            both.append(self)

    def spied_sorted(self):
        checked(self)
        if self._store is None:
            conversions.append(self)
        out = real_sorted(self)
        checked(self)
        return out

    def spied_keep(self, *arrays):
        real_keep(self, *arrays)
        checked(self)

    monkeypatch.setattr(TruncatedSeries, "_sorted", spied_sorted)
    monkeypatch.setattr(TruncatedSeries, "_keep_sorted", spied_keep)
    family, run = shipped_family(12)
    linearize(family, 12, run["epsilon"], run["radius"], pmax=run["pmax"],
              qmax=run["qmax"])
    assert len(conversions) == 64
    assert len({id(s) for s in conversions}) == len(conversions)
    assert not both


def test_inversions_stop_at_the_first_full_window_sweep(monkeypatch):
    # each inversion ends with its first sweep on the full window that
    # substitutes a nonzero H: an order-12 forward linearization of the
    # shipped family substitutes 24 times inside invert_vertical_map (21
    # before the blocks at degrees 7, 9 and 11, whose first sweep is on the
    # full window, took one more), and the degree-2 inverse family composes
    # both perturbations of each map in one call per sweep
    from _fixtures import shipped_family
    import toruslin.deckmaps as deckmaps_mod
    import toruslin.series as series_mod
    from toruslin.linearize import linearize
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def counted(first, *args, **kwargs):
            calls.append(name if name == "substitute_vertical"
                         else (name, len(first)))
            return real(first, *args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    counting(series_mod, "substitute_vertical")
    counting(deckmaps_mod, "compose_with_maps")
    family, run = shipped_family(12)
    family.inverse(2)
    assert calls == [("compose_with_maps", 2)] * family.n
    calls.clear()
    linearize(family, 12, run["epsilon"], run["radius"], pmax=run["pmax"],
              qmax=run["qmax"])
    assert calls.count("substitute_vertical") == 24


# The .coeffs uses tests/ keeps, by (file, function), each with its reason.
COEFFS_IN_TESTS_ALLOWED = {
    ("test_series.py", "test_derived_series_start_without_table"):
        "changes a derived series in place on purpose, to show that it "
        "does not share phi's power table",
    ("test_series.py", "test_write_is_seen"):
        "writes into a series that keeps arrays, to show every later read "
        "sees the write",
    ("test_series.py", "test_write_into_phi_is_seen"):
        "writes into a phi whose powers are kept, to show the "
        "substitution sees the write",
    ("test_series.py", "test_benchmark_write_pattern"):
        "repeats perfbench's writes into a fresh series' coeffs",
    ("_oracles.py", "accumulate"):
        "the record loop that the _scatter tests compare against; writing "
        "one record at a time needs the writable dict",
    ("_oracles.py", "stores_sorted"):
        "reads the order in which a table stores its keys, which the bulk "
        "sums store sorted; no method exposes that order",
}


def test_tests_use_the_series_api():
    # tests read and build series through terms(), get(), nterms() and the
    # constructors, like the package, so the table's format can change
    # without them; an attribute named ``coeffs`` is a use
    here = Path(__file__).parent
    uses = set()
    for path in sorted(here.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "coeffs":
                owner = max((f for f in funcs
                             if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                uses.add((path.name, owner.name if owner else None))
    assert uses - set(COEFFS_IN_TESTS_ALLOWED) == set()
    assert set(COEFFS_IN_TESTS_ALLOWED) - uses == set()


# Top-level functions and public methods of the package that nothing in
# the package refers to, each with the reason it stays.
UNREFERENCED_ALLOWED = {
    "reference_problem_path": "package entry point: the shipped problem",
    "solve_single": "criterion 3's second route, the single-generator solve",
    "TruncatedSeries.from_text": "the TLS reader that phi_v.tls round-trips "
                                 "through",
    "conjugate_by_vertical": "the one-map form of conjugate_maps, through "
                             "which the lattice2-o8 benchmark workload "
                             "(perfbench/workloads.py) builds its family",
    "_Parser.error": "argparse's hook for a rejected command line, which "
                     "argparse calls and cli.main reports as UsageError",
}


def test_every_function_is_used_in_the_package():
    # a top-level function or public method is referenced elsewhere in the
    # package, exported in toruslin.__all__, or allowed above; test-only
    # code lives in tests/.  A method counts as used when its name is read
    # anywhere outside its own body.
    package = Path(toruslin.__file__).parent
    defined, used = {}, set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {a.asname: a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for a in node.names if a.asname}
        for top in tree.body:
            in_class = isinstance(top, ast.ClassDef)
            for unit in top.body if in_class else [top]:
                owner = None
                if isinstance(unit, ast.FunctionDef) and not (
                        in_class and unit.name.startswith("_")):
                    owner = unit.name
                    defined["%s.%s" % (top.name, owner) if in_class
                            else owner] = owner
                for node in ast.walk(unit):
                    if isinstance(node, ast.Name):
                        name = aliases.get(node.id, node.id)
                    elif isinstance(node, ast.Attribute):
                        name = node.attr
                    else:
                        continue
                    if name != owner:  # a function's own recursion is no use
                        used.add(name)
    unused = [qual for qual, name in defined.items() if name not in used
              and name not in toruslin.__all__
              and qual not in UNREFERENCED_ALLOWED]
    assert not unused
    stale = [qual for qual in UNREFERENCED_ALLOWED
             if qual not in defined or defined[qual] in used]
    assert not stale
