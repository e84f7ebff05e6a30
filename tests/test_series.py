from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import toruslin
from toruslin import TruncatedSeries, compose_diagonal, invert_vertical_map, \
    partial_h, substitute_vertical
from toruslin.series import SeriesError

from _oracles import (dense_diff, dense_mul, dense_poly, dense_substitute,
                      random_series)


def mono(n, d, P, Q, c=1.0, vmax=8, hband=8):
    return TruncatedSeries.monomial(n, d, 0, P, Q, c, components=1,
                                    vmax=vmax, hband=hband)


class TestRingOps:
    def test_exponent_addition(self):
        # (h v^2) * (h^-1 v^3) = v^5
        a = mono(1, 1, (1,), (2,))
        b = mono(1, 1, (-1,), (3,))
        prod = a.mul(b)
        assert prod.coeffs == {(0, (0,), (5,)): 1.0 + 0.0j}

    def test_additive_identity(self):
        rng = np.random.default_rng(1)
        f = random_series(rng, 2, 1)
        zero = TruncatedSeries.zero(2, 1, 1, f.vmax, f.hband)
        assert f.add(zero).max_coeff_diff(f) == 0.0

    def test_truncated_square_difference(self):
        # (1 + h v^2)(1 - h v^2) at vmax=4 -> 1 - h^2 v^4, by hand
        one = mono(1, 1, (0,), (0,), 1.0, vmax=4)
        hv2 = mono(1, 1, (1,), (2,), 1.0, vmax=4)
        prod = one.add(hv2).mul(one.add(hv2.scale(-1.0)))
        assert prod.get(0, (1,), (2,)) == 0.0
        assert prod.get(0, (0,), (0,)) == 1.0
        assert prod.get(0, (2,), (4,)) == -1.0
        assert len(prod.coeffs) == 2

    def test_mul_against_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_series(rng, 2, 2, vmax=5, hband=3, nterms=15)
            b = random_series(rng, 2, 2, vmax=5, hband=3, nterms=15)
            got = dense_poly(a.mul(b))
            want = dense_mul(dense_poly(a), dense_poly(b), 2, 2, 5, 3)
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


class TestHomogeneousPart:
    def test_examples(self):
        f = mono(1, 2, (0,), (2, 0)).add(mono(1, 2, (0,), (1, 2)))
        part2 = f.homogeneous_part(2)
        assert dense_poly(part2) == {((0,), (2, 0)): 1.0 + 0.0j}
        assert f.homogeneous_part(1).is_zero()

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        f = random_series(rng, 1, 2, vmax=6, nterms=30)
        total = TruncatedSeries.zero(1, 2, 1, f.vmax, f.hband)
        for m in range(f.vmax + 1):
            total = total.add(f.homogeneous_part(m))
        assert total.max_coeff_diff(f) < 1e-15

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_parts_multiply(self, ma, mb):
        # [f g]_m = sum_{a+b=m} [f]_a [g]_b
        rng = np.random.default_rng(ma * 7 + mb)
        f = random_series(rng, 1, 1, vmax=6, hband=3, nterms=10)
        g = random_series(rng, 1, 1, vmax=6, hband=3, nterms=10)
        m = min(ma + mb, 6)
        direct = f.mul(g).homogeneous_part(m)
        pieces = TruncatedSeries.zero(1, 1, 1, f.vmax, f.hband)
        for a in range(m + 1):
            pieces = pieces.add(f.homogeneous_part(a).mul(g.homogeneous_part(m - a)))
        assert direct.max_coeff_diff(pieces) < 1e-12 * max(1.0, direct.max_abs())


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
        f = random_series(rng, 2, 2, components=2, vmax=5, hband=4)
        lam = np.exp(2j * np.pi * np.array([0.3 + 1.1j, 0.17 + 0.7j]))
        mu = np.exp(2j * np.pi * np.array([0.618, 0.414]))
        back = compose_diagonal(compose_diagonal(f, lam, mu, +1), lam, mu, -1)
        assert back.max_coeff_diff(f) < 1e-12 * f.max_abs()

    def test_ring_homomorphism(self):
        rng = np.random.default_rng(13)
        f = random_series(rng, 1, 1, vmax=5, hband=3)
        g = random_series(rng, 1, 1, vmax=5, hband=3)
        lam, mu = [0.5 + 0.1j], [np.exp(0.4j)]
        lhs = compose_diagonal(f.mul(g), lam, mu)
        rhs = compose_diagonal(f, lam, mu).mul(compose_diagonal(g, lam, mu))
        assert lhs.max_coeff_diff(rhs) < 1e-10 * max(1.0, lhs.max_abs())


class TestSubstituteVertical:
    def test_identity(self):
        rng = np.random.default_rng(5)
        f = random_series(rng, 1, 1, vmax=5)
        zero = TruncatedSeries.zero(1, 1, 1, f.vmax, f.hband)
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
            f = random_series(rng, 1, 2, vmax=6, hband=3, nterms=12)
            phi = random_series(rng, 1, 2, components=2, vmax=6, hband=3,
                                nterms=8, min_vdeg=2)
            got = dense_poly(substitute_vertical(f, phi))
            want = dense_substitute(dense_poly(f),
                                    [dense_poly(phi, 0), dense_poly(phi, 1)],
                                    1, 2, 6, 3)
            assert dense_diff(got, want) < 1e-12

    def test_rejects_low_order(self):
        f = mono(1, 1, (0,), (2,))
        bad = mono(1, 1, (0,), (1,))
        with pytest.raises(SeriesError):
            substitute_vertical(f, bad)

    def test_degree_filtration(self):
        # For ord_v f >= 2, [result]_m must not see parts of phi of degree >= m
        rng = np.random.default_rng(23)
        f = random_series(rng, 1, 1, vmax=6, hband=2, nterms=10, min_vdeg=2)
        phi = random_series(rng, 1, 1, vmax=6, hband=2, nterms=8, min_vdeg=2)
        m = 4
        base = substitute_vertical(f, phi).homogeneous_part(m)
        bumped = phi.copy()
        bumped.coeffs[(0, (0,), (m,))] = bumped.coeffs.get((0, (0,), (m,)), 0.0) + 5.0
        bumped.coeffs[(0, (1,), (m + 1,))] = 7.0
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
        phi = random_series(rng, 1, d, components=d, vmax=6, hband=2,
                            nterms=8, min_vdeg=2, scale=0.3)
        low = random_series(rng, 1, d, vmax=6, hband=2, nterms=6)
        high = random_series(rng, 1, d, vmax=6, hband=2, nterms=6,
                             min_vdeg=5)
        substitute_vertical(low, phi)
        fresh = TruncatedSeries(1, d, d, 6, 2, dict(phi.coeffs))
        assert bits(substitute_vertical(high, phi)) == \
            bits(substitute_vertical(high, fresh))

    @pytest.mark.parametrize("derive", ["copy", "with_window", "cut"])
    def test_derived_series_start_without_table(self, derive):
        # a series derived from a used phi and then changed must not
        # substitute phi's powers
        rng = np.random.default_rng(37)
        f = random_series(rng, 1, 1, vmax=6, hband=2, nterms=10)
        phi = random_series(rng, 1, 1, vmax=6, hband=2, nterms=8,
                            min_vdeg=2, scale=0.3)
        substitute_vertical(f, phi)
        bumped = getattr(phi, derive)(6) if derive == "cut" else \
            getattr(phi, derive)()
        bumped.coeffs[(0, (0,), (2,))] = bumped.get(0, (0,), (2,)) + 0.5
        fresh = TruncatedSeries(1, 1, 1, 6, 2, dict(bumped.coeffs))
        got = substitute_vertical(f, bumped)
        want = substitute_vertical(f, fresh)
        assert bits(got) == bits(want)
        assert got.discarded == want.discarded


class TestKernelIO:
    def test_mul_output_is_plain_python(self):
        # keys of Python ints and values of Python complex, so that no
        # numpy scalar repr ("np.int64(") can reach to_text
        rng = np.random.default_rng(41)
        a = random_series(rng, 2, 1, vmax=5, hband=3, nterms=10)
        b = random_series(rng, 2, 1, vmax=5, hband=3, nterms=10)
        prod = a.mul(b)
        assert prod.nterms() > 0
        for (k, P, Q), c in prod.coeffs.items():
            assert type(k) is int and type(c) is complex
            assert type(P) is tuple and type(Q) is tuple
            assert all(type(x) is int for x in P + Q)
        assert "np." not in prod.to_text()

    def test_arrays_layout(self):
        f = TruncatedSeries(2, 1, 2, 4, 3, {(1, (1, -2), (3,)): 2.0,
                                            (1, (-1, 0), (0,)): 1j,
                                            (0, (0, 0), (1,)): 5.0})
        exps, vals = f._arrays(1)
        assert exps.dtype == np.int64 and vals.dtype == np.complex128
        assert exps.tolist() == [[-1, 0, 0], [1, -2, 3]]
        assert vals.tolist() == [1j, 2.0]
        exps, vals = TruncatedSeries.zero(2, 1, 1)._arrays(0)
        assert exps.shape == (0, 3) and vals.shape == (0,)


class TestPartialH:
    def test_basic(self):
        assert dense_poly(partial_h(mono(1, 1, (1,), (0,)), (1,))) == \
            {((0,), (0,)): 1.0 + 0.0j}
        assert dense_poly(partial_h(mono(1, 1, (-1,), (0,)), (1,))) == \
            {((-2,), (0,)): -1.0 + 0.0j}

    def test_second_derivative(self):
        got = partial_h(mono(1, 1, (3,), (2,)), (2,))
        assert dense_poly(got) == {((1,), (2,)): 6.0 + 0.0j}

    def test_finite_differences(self):
        rng = np.random.default_rng(29)
        f = random_series(rng, 1, 1, vmax=3, hband=3, nterms=10)
        df = partial_h(f, (1,))
        v = np.array([[0.2 + 0.1j]])
        for h0 in (0.9 + 0.2j, 1.1 - 0.3j):
            step = 1e-6
            up = f.evaluate(np.log(np.array([[h0 + step]])), v)[0, 0]
            dn = f.evaluate(np.log(np.array([[h0 - step]])), v)[0, 0]
            fd = (up - dn) / (2 * step)
            exact = df.evaluate(np.log(np.array([[h0]])), v)[0, 0]
            assert abs(fd - exact) < 1e-6 * max(1.0, abs(exact))


class TestInvertVerticalMap:
    def test_zero(self):
        z = TruncatedSeries.zero(1, 1, 1, 5, 3)
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
            G = random_series(rng, 1, 2, components=2, vmax=6, hband=2,
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
    return (f.n, f.d, f.components, f.vmax, f.hband, f.tailflag,
            [(k, P, Q, c.real.hex(), c.imag.hex()) for k, P, Q, c in f.terms()])


def homogeneous_series(rng, n, d, m, vmax, hband, nterms, scale):
    s = TruncatedSeries(n, d, d, vmax, hband)
    while len(s.coeffs) < nterms:
        Q = [0] * d
        for _ in range(m):
            Q[int(rng.integers(0, d))] += 1
        P = tuple(int(x) for x in rng.integers(-hband, hband + 1, size=n))
        key = (int(rng.integers(0, d)), P, tuple(Q))
        s.coeffs[key] = scale * complex(rng.standard_normal(),
                                        rng.standard_normal())
    return s


class TestWindowedInversion:
    """Windowed sweeps against the full-window loop, bit for bit."""

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_homogeneous(self, n, d, m):
        rng = np.random.default_rng(100 * n + 10 * d + m)
        vmax = 7 if d == 1 else 6
        G = homogeneous_series(rng, n, d, m, vmax, 2, 5, 0.3)
        H = invert_vertical_map(G)
        assert bits(H) == bits(full_window_inverse(G))
        assert H.max_abs() > 0

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_mixed_degree(self, n, d):
        rng = np.random.default_rng(7 * n + d)
        vmax = 7 if d == 1 else 6
        psi = random_series(rng, n, d, components=d, vmax=vmax, hband=2,
                            nterms=12, min_vdeg=2, scale=0.3)
        H = invert_vertical_map(psi)
        assert bits(H) == bits(full_window_inverse(psi))
        assert H.homogeneous_part(vmax).max_abs() > 0

    @pytest.mark.parametrize("m,vmax,windows", [(2, 6, [2, 3, 4, 5, 6, 6]),
                                                (3, 7, [4, 6, 7, 7]),
                                                (5, 7, [7, 7])])
    def test_sweep_windows(self, monkeypatch, m, vmax, windows):
        # sweep s works through degree (s + 1)(m - 1), then one full sweep
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
        s = TruncatedSeries(1, 1, 1, 4, 3)
        for p, q, c in terms:
            key = (0, (p,), (q,))
            s.coeffs[key] = s.coeffs.get(key, 0.0) + c
            if s.coeffs[key] == 0:
                del s.coeffs[key]
        return s

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
        f = random_series(rng, 2, 1, components=3, vmax=7, hband=5, nterms=40)
        text = f.to_text()
        g = TruncatedSeries.from_text(text)
        assert g.coeffs == f.coeffs
        assert (g.n, g.d, g.components, g.vmax, g.hband) == \
            (f.n, f.d, f.components, f.vmax, f.hband)
        assert g.to_text() == text

    def test_records_sorted(self):
        f = TruncatedSeries(1, 1, 2, 4, 4)
        f.coeffs[(1, (2,), (1,))] = 1.0
        f.coeffs[(0, (-1,), (3,))] = 2.0
        f.coeffs[(0, (-1,), (1,))] = 3.0
        lines = f.to_text().strip().splitlines()[1:]
        assert lines == sorted(lines, key=lambda ln: (
            int(ln.split()[0]), int(ln.split()[1]), int(ln.split()[2])))

    def test_malformed_inputs_rejected(self):
        with pytest.raises(SeriesError, match="header"):
            TruncatedSeries.from_text("XLS 1 1 1 4 4\n")
        with pytest.raises(SeriesError, match="record"):
            TruncatedSeries.from_text("TLS 1 1 1 4 4\n0 1 2\n")

    def test_component_out_of_range_rejected(self):
        with pytest.raises(SeriesError, match="component index"):
            TruncatedSeries.from_text("TLS 1 1 2 4 4\n2 0 2 1.0 0.0\n")

    def test_negative_vertical_exponent_rejected(self):
        with pytest.raises(SeriesError, match="nonnegative"):
            TruncatedSeries.from_text("TLS 1 1 1 4 4\n0 0 -1 1.0 0.0\n")

    def test_vertical_degree_above_vmax_rejected(self):
        with pytest.raises(SeriesError, match="window"):
            TruncatedSeries.from_text("TLS 1 2 1 4 4\n0 0 3 2 1.0 0.0\n")

    def test_horizontal_exponent_above_hband_rejected(self):
        with pytest.raises(SeriesError, match="window"):
            TruncatedSeries.from_text("TLS 1 1 1 4 4\n0 -5 2 1.0 0.0\n")

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
        text = "TLS 1 1 1 4 4\n0 0 2 1e-310 0.0\n"
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
