import numpy as np
import pytest

import toruslin.cohomology as cohomology_mod
from toruslin import LatticeSpec, TruncatedSeries
from toruslin.cohomology import (CompatibilityError, CompatibleFamily,
                                 check_compatibility, solve_family,
                                 solve_single)
from toruslin.divisors import MultiplierData, ResonanceError, scan_and_fit

from _oracles import (apply_vertical_operator, divisor_oracle, random_series,
                      term_dict, with_terms)

GOLDEN = (np.sqrt(5) - 1) / 2
SQRT2M1 = np.sqrt(2) - 1


def setup_1d(mu=-1.0):
    lat = LatticeSpec(1, 1, [[1.0], [0.3 + 1.1j]])
    data = MultiplierData(lat.lam_matrix(), [[mu]])
    return lat, data


def setup_2d():
    gens = [[1, 0], [0, 1],
            [0.3 + 1.0j, 0.5 + 0.2j],
            [0.7 + 0.1j, 0.2 + 1.0j]]
    lat = LatticeSpec(2, 1, gens)
    mu = [[np.exp(2j * np.pi * GOLDEN)], [np.exp(2j * np.pi * SQRT2M1)]]
    data = MultiplierData(lat.lam_matrix(), mu)
    return lat, data


def compatible_family(rng, data, vmax=6, pmax=3, nterms=14, scale=1.0):
    """Family built from a random potential: F_i := T_i(G0); solution is G0."""
    n, d = data.n, data.d
    G0 = random_series(rng, n, d, components=d, vmax=vmax, pmax=pmax,
                       nterms=nterms, min_vdeg=2, scale=scale)
    rhs = [apply_vertical_operator(G0, data, i) for i in range(n)]
    return G0, CompatibleFamily(rhs=rhs)


def family_scale(family):
    return max((F.max_abs() for F in family.rhs), default=0.0)


def dense_lstsq_oracle(family, data):
    """Assemble the block-diagonal coefficient system and least-squares solve."""
    keys = family.keys()
    index = {key: t for t, key in enumerate(keys)}
    n_eq, n_un = family.n * len(keys), len(keys)
    A = np.zeros((n_eq, n_un), dtype=np.complex128)
    b = np.zeros(n_eq, dtype=np.complex128)
    for a in range(family.n):
        for key in keys:
            k, P, Q = key
            row = a * n_un + index[key]
            A[row, index[key]] = divisor_oracle(data, P, Q, k)[a]
            b[row] = family.rhs[a].get(*key)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    F = family.rhs[0]
    return TruncatedSeries(F.n, F.d, F.d, F.vmax, coeffs=
                           {key: sol[t] for key, t in index.items()
                            if sol[t] != 0})


class TestCheckCompatibility:
    def test_single_generator_vacuous(self):
        _, data = setup_1d()
        F = TruncatedSeries.monomial(1, 1, 0, (0,), (2,), 1.0, components=1)
        fam = CompatibleFamily(rhs=[F])
        report = check_compatibility(fam, data)
        assert report.max_abs == 0.0 and report.max_rel == 0.0

    def test_constructed_family_compatible(self):
        rng = np.random.default_rng(2)
        _, data = setup_2d()
        _, fam = compatible_family(rng, data)
        assert check_compatibility(fam, data).max_rel <= 1e-13

    def test_degree_filter(self):
        rng = np.random.default_rng(5)
        _, data = setup_2d()
        _, fam = compatible_family(rng, data, vmax=5)
        key3 = next((k, P, Q) for k, P, Q, _ in fam.rhs[1].terms()
                    if sum(Q) == 3)
        fam.rhs[1] = with_terms(fam.rhs[1],
                                {key3: 2.0 * fam.rhs[1].get(*key3)})
        for m, ok in ((2, True), (3, False)):
            fam_m = CompatibleFamily(rhs=[F.homogeneous_part(m)
                                          for F in fam.rhs])
            assert check_compatibility(fam_m, data).ok() == ok

    def test_injected_fault_detected(self):
        rng = np.random.default_rng(3)
        _, data = setup_2d()
        G0, fam = compatible_family(rng, data)
        # fault at a key whose cross terms are O(1), so the absolute residual
        # is the divisor factor times the injected size
        key = min(term_dict(fam.rhs[1]),
                  key=lambda kk: abs(abs(fam.rhs[1].get(*kk)) - 1.0))
        fam.rhs[1] = with_terms(fam.rhs[1],
                                {key: fam.rhs[1].get(*key) + 1e-3})
        report = check_compatibility(fam, data)
        assert not report.ok()
        k, P, Q = key
        div = divisor_oracle(data, P, Q, k)
        factor = abs(div[0])
        res_at_key = abs(div[0] * fam.rhs[1].get(*key)
                         - div[1] * fam.rhs[0].get(*key))
        assert res_at_key == pytest.approx(1e-3 * factor, rel=1e-5)


class TestSolveFamily:
    def test_monomial_division(self):
        lat, data = setup_1d(mu=-1.0)
        c = 0.8 - 0.3j
        F = TruncatedSeries.monomial(1, 1, 0, (0,), (2,), c, components=1)
        fam = CompatibleFamily(rhs=[F])
        cert = solve_family(fam, data, lat, eps=0.2, r=0.5, delta=0.1, rho=0.5)
        assert cert.G.get(0, (0,), (2,)) == pytest.approx(c / 2.0)
        assert cert.G.nterms() == 1

    def test_zero_rhs(self):
        lat, data = setup_1d()
        Z = TruncatedSeries.zero(1, 1, 1, 6)
        cert = solve_family(CompatibleFamily(rhs=[Z]), data, lat,
                            eps=0.2, r=0.5, delta=0.1, rho=0.5)
        assert cert.G.is_zero()
        assert cert.bound.value == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_against_dense_oracle(self, seed):
        rng = np.random.default_rng(50 + seed)
        lat, data = setup_2d()
        G0, fam = compatible_family(rng, data, vmax=5, pmax=2, nterms=20)
        cert = solve_family(fam, data, lat, eps=0.15, r=0.5, delta=0.05,
                            rho=0.25)
        oracle = dense_lstsq_oracle(fam, data)
        assert cert.G.max_coeff_diff(oracle) < 1e-12
        assert cert.G.max_coeff_diff(G0) < 1e-12

    def test_forms_no_composed_solution(self, monkeypatch):
        # no output reads G composed with the diagonal maps tauhat_i^{+-1}:
        # neither solver forms it
        import toruslin.series as series_mod
        rng = np.random.default_rng(31)
        lat, data = setup_2d()
        _, fam = compatible_family(rng, data, vmax=5, pmax=2)
        calls = []

        def counting(*args, real=series_mod.compose_diagonal, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(series_mod, "compose_diagonal", counting)
        monkeypatch.setattr(cohomology_mod, "compose_diagonal", counting,
                            raising=False)
        cert = solve_family(fam, data, lat, eps=0.15, r=0.5, delta=0.05,
                            rho=0.25)
        single = solve_single(fam.rhs[1], 1, data, lat, eps=0.15, r=0.5,
                              delta=0.05, rho=0.25)
        assert calls == []
        assert cert.G.nterms() and single.G.nterms()
        assert not hasattr(cert, "composed_bounds")

    def test_plugback_residual(self):
        rng = np.random.default_rng(7)
        lat, data = setup_2d()
        _, fam = compatible_family(rng, data)
        cert = solve_family(fam, data, lat, eps=0.15, r=0.5, delta=0.05,
                            rho=0.25)
        for i in range(data.n):
            back = apply_vertical_operator(cert.G, data, i)
            assert back.max_coeff_diff(fam.rhs[i]) < \
                1e-12 * max(1.0, family_scale(fam))

    def test_inverse_route_plugback(self):
        rng = np.random.default_rng(9)
        lat, data = setup_2d()
        n, d = data.n, data.d
        G0 = random_series(rng, n, d, components=d, vmax=5, pmax=2,
                           nterms=12, min_vdeg=2)
        rhs = [apply_vertical_operator(G0, data, i, sign=-1) for i in range(n)]
        fam = CompatibleFamily(rhs=rhs)
        cert = solve_family(fam, data.inverse(), lat, eps=0.15, r=0.5,
                            delta=0.05, rho=0.25)
        assert cert.G.max_coeff_diff(G0) < 1e-12
        for i in range(n):
            back = apply_vertical_operator(cert.G, data, i, sign=-1)
            assert back.max_coeff_diff(fam.rhs[i]) < \
                1e-12 * max(1.0, family_scale(fam))

    def test_resonance_named(self):
        lat, _ = setup_1d()
        data = MultiplierData(lat.lam_matrix(), [[1.0]])
        F = TruncatedSeries.monomial(1, 1, 0, (0,), (2,), 1.0, components=1)
        with pytest.raises(ResonanceError) as err:
            solve_family(CompatibleFamily(rhs=[F]), data, lat,
                         eps=0.2, r=0.5, delta=0.1, rho=0.5)
        assert err.value.P == (0,) and err.value.Q == (2,) and err.value.j == 0

    def test_rounded_resonance_named(self):
        # mu^3 - mu is 2.4e-16 in floats for mu = exp(pi i), not 0
        lat, _ = setup_1d()
        data = MultiplierData(lat.lam_matrix(), [[np.exp(1j * np.pi)]])
        F = TruncatedSeries.monomial(1, 1, 0, (0,), (3,), 1.0, components=1)
        with pytest.raises(ResonanceError) as err:
            solve_family(CompatibleFamily(rhs=[F]), data, lat,
                         eps=0.2, r=0.5, delta=0.1, rho=0.5)
        assert err.value.P == (0,) and err.value.Q == (3,)
        with pytest.raises(ResonanceError) as err:
            solve_single(F, 0, data, lat, eps=0.2, r=0.5, delta=0.1, rho=0.5)
        assert err.value.P == (0,) and err.value.Q == (3,)

    def test_incompatible_family_rejected(self):
        rng = np.random.default_rng(11)
        lat, data = setup_2d()
        _, fam = compatible_family(rng, data)
        key = sorted(term_dict(fam.rhs[0]))[0]
        fam.rhs[0] = with_terms(fam.rhs[0],
                                {key: 1.5 * fam.rhs[0].get(*key)})
        with pytest.raises(CompatibilityError):
            solve_family(fam, data, lat, eps=0.15, r=0.5, delta=0.05, rho=0.25)

    def test_delta_gate(self):
        lat, data = setup_1d()
        F = TruncatedSeries.monomial(1, 1, 0, (0,), (2,), 1.0, components=1)
        with pytest.raises(ValueError):
            solve_family(CompatibleFamily(rhs=[F]), data, lat,
                         eps=0.01, r=0.5, delta=10.0, rho=0.5)

    def test_divisor_index_correctness(self):
        rng = np.random.default_rng(13)
        lat, data = setup_2d()
        _, fam = compatible_family(rng, data, nterms=8)
        cert = solve_family(fam, data, lat, eps=0.15, r=0.5, delta=0.05,
                            rho=0.25)
        for (k, P, Q), (iv, divisor) in cert.divisors_used.items():
            want = divisor_oracle(data, P, Q, k)
            # the largest scalar modulus, the smallest index on ties
            assert iv == max(range(data.n), key=lambda l: abs(want[l]))
            assert divisor == want[iv]

    def test_generator_chosen_by_scalar_modulus(self, monkeypatch):
        # scalar abs (libm hypot) puts z[0] one ulp above z[1]; numpy's
        # complex abs rounds the other way on some CPUs (AVX-512, numpy 2.4)
        z = [complex(float.fromhex("0x1.8063459af1caap-1"),
                     float.fromhex("0x1.05b3c461205bep-1")),
             complex(float.fromhex("0x1.c780c207fb26dp-1"),
                     float.fromhex("0x1.765c0d4ae8082p-3"))]
        assert abs(z[0]) > abs(z[1])
        lat, data = setup_2d()
        keys = [(0, (p, 0), (2,)) for p in range(-2, 3)]
        monkeypatch.setattr(cohomology_mod, "_divisors_at",
                            lambda data, keys, form="weak":
                            np.array([z] * len(keys)))
        # F_i = z_i c: compatible with these divisors, solved by G = c
        fam = CompatibleFamily(rhs=[
            TruncatedSeries(2, 1, 1, 4, coeffs={key: zi * 1e-3 for key in keys})
            for zi in z])
        cert = solve_family(fam, data, lat, eps=0.15, r=0.5, delta=0.05,
                            rho=0.25)
        assert [iv for iv, _ in cert.divisors_used.values()] == [0] * 5

    def test_degree_preservation(self):
        rng = np.random.default_rng(17)
        lat, data = setup_2d()
        _, fam = compatible_family(rng, data)
        cert = solve_family(fam, data, lat, eps=0.15, r=0.5, delta=0.05,
                            rho=0.25)
        m = 3
        fam_m = CompatibleFamily(rhs=[F.homogeneous_part(m) for F in fam.rhs])
        cert_m = solve_family(fam_m, data, lat, eps=0.15, r=0.5, delta=0.05,
                              rho=0.25)
        assert cert_m.G.max_coeff_diff(cert.G.homogeneous_part(m)) < 1e-13

    def test_uniqueness_under_tie_break_change(self):
        # dividing through any generator with a nonzero divisor gives the
        # same coefficients, because the family is compatible
        rng = np.random.default_rng(19)
        lat, data = setup_2d()
        _, fam = compatible_family(rng, data, nterms=10)
        cert = solve_family(fam, data, lat, eps=0.15, r=0.5, delta=0.05,
                            rho=0.25)
        alt = {}
        for key in fam.keys():
            k, P, Q = key
            div = divisor_oracle(data, P, Q, k)
            lmin = int(np.abs(div).argmin())  # the other extreme of the tie-break
            if div[lmin] == 0.0:
                continue
            c = fam.rhs[lmin].get(*key)
            if c:
                alt[key] = c / div[lmin]
        F = fam.rhs[0]
        alt = TruncatedSeries(F.n, F.d, F.d, F.vmax, coeffs=alt)
        assert cert.G.max_coeff_diff(alt) < 1e-10 * max(1.0, family_scale(fam))


class TestSolveSingle:
    def test_monomial_same_as_family(self):
        lat, data = setup_1d(mu=-1.0)
        c = 0.8 - 0.3j
        F = TruncatedSeries.monomial(1, 1, 0, (0,), (2,), c, components=1)
        fam_cert = solve_family(CompatibleFamily(rhs=[F]), data, lat,
                                eps=0.2, r=0.5, delta=0.1, rho=0.5)
        single = solve_single(F, 0, data, lat, eps=0.2, r=0.5, delta=0.1,
                              rho=0.5)
        assert single.G.max_coeff_diff(fam_cert.G) == 0.0

    def test_glues_with_family_solution(self):
        rng = np.random.default_rng(23)
        lat, data = setup_2d()
        _, fit = scan_and_fit(data, 8, 8, form="strong")
        assert not fit.resonant
        _, fam = compatible_family(rng, data, vmax=5, pmax=2)
        cert = solve_family(fam, data, lat, eps=0.15, r=0.5, delta=0.05,
                            rho=0.25)
        for i in range(data.n):
            single = solve_single(fam.rhs[i], i, data, lat, eps=0.15, r=0.5,
                                  delta=0.05, rho=0.25, fit=fit)
            # shared support: keys where F_i has coefficients
            for k, P, Q, _ in fam.rhs[i].terms():
                diff = abs(single.G.get(k, P, Q) - cert.G.get(k, P, Q))
                assert diff < 1e-12 * max(1.0, family_scale(fam))

    def test_inverse_sign_plugback(self):
        rng = np.random.default_rng(29)
        lat, data = setup_2d()
        F = random_series(rng, 2, 1, components=1, vmax=5, pmax=2,
                          nterms=10, min_vdeg=2)
        single = solve_single(F, 1, data, lat, eps=0.15, r=0.5, delta=0.05,
                              rho=0.25, sign=-1)
        back = apply_vertical_operator(single.G, data, 1, sign=-1)
        assert back.max_coeff_diff(F) < 1e-12 * max(1.0, F.max_abs())

