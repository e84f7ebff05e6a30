import math
import warnings

import numpy as np
import pytest

import toruslin
from toruslin import DomainSpec, log_indicatrix
from toruslin.cohomology import CompatibleFamily, solve_family
from toruslin.divisors import MultiplierData, scan_and_fit
from toruslin.linearize import build_family, linearize
from toruslin.majorant import (ConstantsBundle, ConstantsError,
                               build_state, constants_bundle,
                               domain_schedule, dominance_and_radius,
                               eta_sequence, log_best_product_table,
                               majorant_coefficients, _ser_mul)
from toruslin.problem import parse_problem
from toruslin.reports import certificate_text
from toruslin.series import TruncatedSeries

from _fixtures import golden_data, golden_family, golden_lattice
from _oracles import (apply_vertical_operator, full_window_majorant,
                      norm_certificate, random_series, ser_mul_slices)


@pytest.fixture(scope="module")
def golden_setup():
    rng = np.random.default_rng(101)
    fam = golden_family(rng, vmax=6, nterms=8)
    _, fit = scan_and_fit(fam.data, 10, 10)
    bundle = constants_bundle(fam.lattice, fam.data, fit, fam,
                              eps1=0.2, r1=0.5)
    return fam, fit, bundle


def toy_bundle(C1=2.0, tau=1.0, nu=2, eta=1.0, **kw):
    defaults = dict(kappa=2.0, nu=nu, tau=tau, tau_eff=max(1.0, tau), D=0.5,
                    C1=C1, C=2.0, Cp=1.5, Cpp=3.0, R=0.5, eta=eta,
                    eta_ratio=eta / 2.0)
    defaults.update(kw)
    return ConstantsBundle(**defaults)


class TestConstantsBundle:
    def test_kappa_against_grid_infsup_oracle(self, golden_setup):
        # sup|h^P| over the delta-shrunk box must decay like e^{-kappa d' |P|}
        fam, _, bundle = golden_setup
        lat = fam.lattice
        eps, dprime = 0.2, 0.03
        base = DomainSpec(lat, eps, 0.5)
        shrunk = DomainSpec(lat, eps - dprime, 0.5)
        for P in ([1.0], [-2.0], [3.0], [-5.0]):
            P = np.asarray(P)
            ratio = shrunk.sup_monomial(P) / base.sup_monomial(P)
            bound = np.exp(-bundle.kappa * dprime * np.abs(P).sum())
            assert ratio <= bound * (1 + 1e-12)

    def test_kappa_value_1d(self, golden_setup):
        _, _, bundle = golden_setup
        assert bundle.kappa == pytest.approx(2.2 * np.pi)

    def test_nu_and_decay_sums(self, golden_setup):
        _, _, bundle = golden_setup
        assert bundle.nu == 2  # n + d
        for delta in (0.1, 0.01):
            total = sum(np.exp(-delta * abs(p) / 2) for p in range(-2000, 2001))
            assert total <= 6.0 / delta

    def test_margin_capped_below_half(self, golden_setup):
        _, _, bundle = golden_setup
        assert 0 < bundle.eta_ratio < 0.5
        assert bundle.eta == pytest.approx(bundle.kappa * bundle.eta_ratio)

    def test_zero_perturbation_R_convention(self, golden_setup):
        _, fit, _ = golden_setup
        fam = golden_family()  # no perturbation records
        bundle = constants_bundle(fam.lattice, fam.data, fit, fam,
                                  eps1=0.2, r1=0.5)
        assert bundle.R == 1.0
        assert any("R = 1 by convention" in note for note in bundle.notes)

    def test_R_envelope_holds(self, golden_setup):
        fam, _, bundle = golden_setup
        dom_p = DomainSpec(fam.lattice, 0.2, 0.5, union_ell=2)
        dom_m = DomainSpec(fam.lattice, 0.2, 0.5, union_ell=-2)
        for mp in fam.maps:
            for pert in (mp.pert_h, mp.pert_v):
                by_q = {}
                for k, P, Q, c in pert.terms():
                    by_q.setdefault((k, Q), 0.0)
                    by_q[(k, Q)] += abs(c) * max(dom_p.sup_monomial(np.array(P, float)),
                                                 dom_m.sup_monomial(np.array(P, float)))
                for (k, Q), norm in by_q.items():
                    assert norm <= bundle.R ** sum(Q) * (1 + 1e-9)

    def test_resonant_fit_rejected(self, golden_setup):
        fam, _, _ = golden_setup
        lat, _ = golden_data()
        res_data = MultiplierData(lat.lam_matrix(), [[1.0]])
        _, bad_fit = scan_and_fit(res_data, 4, 4)
        with pytest.raises(ConstantsError):
            constants_bundle(lat, res_data, bad_fit, fam, 0.2, 0.5)


class TestEtaSequence:
    def test_first_values(self):
        bundle = toy_bundle(C1=2.0, tau=1.0, nu=2, eta=1.0)
        etas, _, _ = eta_sequence(6, bundle)
        gamma = 3.0
        assert etas[1] == 1.0
        # eta_2 = (C1/eta^gamma) 4^gamma with best product 1
        assert etas[2] == pytest.approx(2.0 * 4.0 ** gamma)
        # eta_3 best product is eta_2 itself
        assert etas[3] == pytest.approx(2.0 * 2.0 ** (3 * gamma) * etas[2])

    def test_envelope(self, golden_setup):
        _, _, bundle = golden_setup
        etas, d_env, _ = eta_sequence(8, bundle)
        for m in range(1, 9):
            assert etas[m] <= d_env ** m * (1 + 1e-12)

    def test_best_product_monotone_under_refinement(self):
        bundle = toy_bundle()
        _, _, log_etas = eta_sequence(8, bundle)
        best = np.exp(log_best_product_table(log_etas, 8, 7))
        for k1 in range(1, 5):
            for k2 in range(1, 9 - k1):
                assert best[k1] * best[k2] <= best[k1 + k2] * (1 + 1e-12)


class TestDomainSchedule:
    def test_floors_and_monotonicity(self):
        bundle = toy_bundle(eta=0.5, kappa=2.0)  # ratio 0.25
        eps, r = domain_schedule(64, 0.2, 0.5, bundle)
        # strictly decreasing until the decrements drop below fp resolution
        assert (np.diff(eps[1:]) <= 0).all() and (np.diff(r[1:]) <= 0).all()
        assert (np.diff(eps[1:33]) < 0).all() and (np.diff(r[1:33]) < 0).all()
        assert (eps[1:] > 0.1).all()
        assert (r[1:] >= 0.5 / np.e * (1 - 1e-12)).all()
        # eps_infinity = eps1 (1 - ratio) = 0.15
        assert eps[-1] == pytest.approx(0.15, abs=1e-12)
        assert r[-1] == pytest.approx(0.5 / np.e, rel=1e-9)

    def test_bad_ratio_rejected(self):
        bundle = toy_bundle(eta=1.2, kappa=2.0)  # ratio 0.6 >= 1/2
        with pytest.raises(ConstantsError):
            domain_schedule(8, 0.2, 0.5, bundle)


class TestMajorantCoefficients:
    def test_zero_R(self):
        bundle = toy_bundle(R=0.0)
        A, B = majorant_coefficients(8, bundle, n=1, d=1)
        assert (A == 0).all()
        assert all((arr == 0).all() for arr in B.values())

    def test_seed_coefficient_d1(self):
        bundle = toy_bundle(R=0.5)
        A, B = majorant_coefficients(6, bundle, n=1, d=1)
        assert A[2] == pytest.approx(0.25)  # [G(t,0)]_2 = R^2 for d=1
        for arr in B.values():
            assert arr[2] == pytest.approx(0.25)

    def test_seed_multiplicity_d2(self):
        bundle = toy_bundle(R=0.5)
        A, _ = majorant_coefficients(6, bundle, n=1, d=2)
        assert A[2] == pytest.approx(3 * 0.25)  # binom(3,1) Q's with |Q|=2

    def test_nonnegative(self, golden_setup):
        _, _, bundle = golden_setup
        A, B = majorant_coefficients(8, bundle, n=1, d=1)
        assert (A >= 0).all()
        assert all((arr >= 0).all() for arr in B.values())

    def test_against_fixed_point_oracle(self):
        from math import comb

        bundle = toy_bundle(R=0.5, C1=2.0)
        M, n, d = 8, 1, 1
        A, B = majorant_coefficients(M, bundle, n, d)

        # independent oracle: iterate the full functional system from zero
        def g_of(u):
            t_plus = u.copy()
            t_plus[1] += 1.0
            out = np.zeros(M + 1)
            power = np.polynomial.polynomial.polymul(t_plus, t_plus)[:M + 1]
            for q in range(2, M + 1):
                out[:len(power)] += comb(q + d - 1, d - 1) * bundle.R ** q \
                    * power[:M + 1]
                power = np.polynomial.polynomial.polymul(power, t_plus)[:M + 1]
            return out

        def coupling(g):
            x = (bundle.Cp / bundle.Cpp) * g
            geom = np.zeros(M + 1)
            geom[0] = 1.0
            acc = np.zeros(M + 1)
            acc[0] = 1.0
            for _ in range(M // 2 + 1):
                acc = np.polynomial.polynomial.polymul(acc, x)[:M + 1]
                geom += acc
            out = np.zeros(M + 1)
            out[0] = 1.0
            for _ in range(n):
                out = np.polynomial.polynomial.polymul(out, geom)[:M + 1]
            out[0] -= 1.0
            return out

        Ao = np.zeros(M + 1)
        Bo = {key: np.zeros(M + 1) for key in B}
        for _ in range(M + 2):
            sumB = sum(Bo.values())
            gA = g_of(Ao)
            Ao_new = gA + (bundle.C / bundle.Cpp ** bundle.nu) * \
                np.polynomial.polynomial.polymul(Ao + sumB, coupling(gA))[:M + 1]
            Bo_new = {}
            for key in Bo:
                gB = g_of(Bo[key])
                Bo_new[key] = gB + (bundle.C / bundle.Cpp ** bundle.nu) * \
                    np.polynomial.polynomial.polymul(
                        Ao + sumB, coupling(gB))[:M + 1]
            Ao, Bo = Ao_new, Bo_new
            Ao[:2] = 0.0
            for key in Bo:
                Bo[key][:2] = 0.0
        assert np.allclose(A, Ao, rtol=0, atol=1e-12)
        for key in B:
            assert np.allclose(B[key], Bo[key], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2)])
    @pytest.mark.parametrize("M", [2, 3, 8, 12, 20, 30])
    def test_bits_of_the_full_window_recursion(self, golden_setup, M, n, d):
        # degree m is solved on series cut at m: A and every B bit for bit
        # as when each degree reads series carried to degree M
        for bundle in (golden_setup[2], toy_bundle(R=0.5)):
            A, B = majorant_coefficients(M, bundle, n, d)
            Ao, Bo = full_window_majorant(M, bundle, n, d)
            assert A[M] > 0
            assert A.tobytes() == Ao.tobytes()
            assert B.keys() == Bo.keys()
            assert all(B[key].tobytes() == Bo[key].tobytes() for key in B)

    def test_well_founded(self):
        bundle = toy_bundle(R=0.5)
        A6, B6 = majorant_coefficients(6, bundle, n=1, d=1)
        A8, B8 = majorant_coefficients(8, bundle, n=1, d=1)
        assert np.allclose(A6, A8[:7])
        for key in B6:
            assert np.allclose(B6[key], B8[key][:7])

    @pytest.mark.parametrize("case", ["random", "zeros", "short"])
    def test_ser_mul_bits_of_the_slice_loop(self, case):
        # the loop on Python floats adds the same products in the same order
        # as one numpy slice per term of a; magnitudes over 16 decades make
        # the sums depend on that order
        rng = np.random.default_rng(["random", "zeros", "short"].index(case))
        for _ in range(30):
            a, b = (rng.uniform(0.0, 1.0, size) * 10.0 ** rng.integers(
                -8, 9, size) for size in rng.integers(3, 16, size=2))
            if case == "zeros":
                a[rng.random(len(a)) < 0.4] = 0.0
                b[rng.random(len(b)) < 0.4] = 0.0
            M = int(rng.integers(0, min(len(a), len(b)) - 1)) \
                if case == "short" else len(a) + len(b)
            got = _ser_mul(a, b, M)
            assert got.dtype == np.float64 and got.shape == (M + 1,)
            assert got.tobytes() == ser_mul_slices(a, b, M).tobytes()


class TestDominance:
    def test_golden_instance_dominated(self, golden_setup):
        fam, fit, bundle = golden_setup
        result = linearize(fam, order=6, eps1=0.2, r1=0.5, fit=fit,
                           constants=bundle)
        state = build_state(6, bundle, fam.n, fam.d, 0.2, 0.5)
        cert = dominance_and_radius(result, state)
        assert cert["all_dominated"]
        assert cert["radius"] > 0
        assert cert["status"] == "pass"

    def test_zero_perturbation_no_obstruction(self, golden_setup):
        _, fit, _ = golden_setup
        fam = golden_family()
        bundle = constants_bundle(fam.lattice, fam.data, fit, fam, 0.2, 0.5)
        result = linearize(fam, order=4, eps1=0.2, r1=0.5, fit=fit,
                           constants=bundle)
        state = build_state(4, bundle, fam.n, fam.d, 0.2, 0.5)
        state.A[:] = 0.0  # zero perturbation: R-convention keeps A positive
        for key in state.B:
            state.B[key][:] = 0.0
        cert = dominance_and_radius(result, state)
        assert cert["status"] == "no obstruction detected"
        assert cert["radius"] == float("inf")

    def test_blowup_reported_not_raised(self, golden_setup):
        fam, fit, bundle = golden_setup
        result = linearize(fam, order=6, eps1=0.2, r1=0.5, fit=fit,
                           constants=bundle)
        state = build_state(6, bundle, fam.n, fam.d, 0.2, 0.5)
        state.A[:] = 0.0
        state.etas[:] = 0.0  # force failure
        for key in state.B:
            state.B[key][:] = 0.0
        cert = dominance_and_radius(result, state)
        assert not cert["all_dominated"]
        assert cert["status"] == "inconclusive at desk scale"


@pytest.fixture(scope="module")
def reference_o19():
    """The shipped perturbation at vmax 19, where A_m eta_m leaves the
    double range."""
    p = parse_problem(toruslin.reference_problem_path())
    run = p.run
    fam = build_family(p.lattice, p.data, p.pert_records, 19,
                       eps0=run["epsilon"], r0=run["radius"])
    result = linearize(fam, 19, run["epsilon"], run["radius"],
                       pmax=run["pmax"], qmax=run["qmax"])
    return fam, result, run


class TestMajorantOverflow:
    def test_order_19_never_passes_against_infinite_majorant(
            self, reference_o19):
        fam, result, run = reference_o19
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = build_state(19, result.constants, fam.n, fam.d,
                                run["epsilon"], run["radius"])
            cert = dominance_and_radius(result, state)
            text = certificate_text(cert, state)
        infinite = [row for row in cert["rows"]
                    if not math.isfinite(row["majorant"])]
        assert infinite  # the order really reaches past the double range
        assert not any(row["ok"] for row in infinite)
        assert not cert["all_dominated"]
        assert cert["status"] == "inconclusive at desk scale"
        assert 0 < cert["radius"] < math.inf
        assert math.isfinite(cert["stabilization"])
        assert "all_dominated no" in text

    def test_certificate_logs_finite_past_the_double_range(
            self, reference_o19):
        fam, result, run = reference_o19
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = build_state(19, result.constants, fam.n, fam.d,
                                run["epsilon"], run["radius"])
            cert = dominance_and_radius(result, state)
            text = certificate_text(cert, state)
        lines = text.splitlines()
        log_etas = [float(ln.split()[1]) for ln in lines
                    if ln.startswith("log10_eta_")]
        assert np.allclose(log_etas, state.log_etas[1:] / math.log(10),
                           rtol=1e-15, atol=0)
        head = lines.index("m domain norm majorant log10_slack flag")
        table = [ln.split() for ln in lines[head + 1:]]
        assert len(table) == len(cert["rows"])
        overflowed = 0
        for fields, row in zip(table, cert["rows"]):
            slack = float(fields[4])
            assert math.isfinite(slack)
            if math.isfinite(row["majorant"]):
                assert slack == pytest.approx(
                    math.log10(row["majorant"] / row["norm"]), rel=1e-12)
            else:
                overflowed += 1
                assert fields[3] == "inf"
                # log10 of the majorant is past the largest double
                assert slack + math.log10(row["norm"]) > 308
        assert overflowed

    def test_log_gains_finite_past_the_double_range(self, reference_o19):
        _, result, _ = reference_o19
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = build_state(24, result.constants, 1, 1, 0.2, 0.5)
        assert np.isfinite(state.log_etas[1:]).all()
        assert state.etas[24] == math.inf  # eta_24 exceeds a double
        assert math.isfinite(state.d_env)
        finite = np.isfinite(state.etas)
        assert np.allclose(np.log(state.etas[1:][finite[1:]]),
                           state.log_etas[1:][finite[1:]], rtol=1e-14)


class TestNormCertificate:
    def test_monomial_case(self, golden_setup):
        _, fit, bundle = golden_setup
        lat, data = golden_data()
        data = MultiplierData(lat.lam_matrix(), [[-1.0]])
        c = 8e-1
        F = TruncatedSeries.monomial(1, 1, 0, (0,), (2,), c, components=1)
        cert = solve_family(CompatibleFamily(rhs=[F]), data, lat,
                            eps=0.2, r=0.5, delta=0.1, rho=0.5,
                            constants=bundle)
        # empirical |c|/2 r'^2 against C1-form theoretical with C1 >= 1/2
        assert bundle.C1 >= 0.5
        report = norm_certificate(cert, data)
        assert len(report["rows"]) == 1 + 2 * data.n
        assert report["pass"]

    def test_sweep(self, golden_setup):
        fam, fit, bundle = golden_setup
        rng = np.random.default_rng(7)
        lat, data = golden_data()
        for delta, rho in ((0.1, 0.1), (0.05, 0.05)):
            G0 = random_series(rng, 1, 1, components=1, vmax=5, pmax=3,
                               nterms=8, min_vdeg=2)
            F = apply_vertical_operator(G0, data, 0)
            cert = solve_family(CompatibleFamily(rhs=[F]), data, lat,
                                eps=0.2, r=0.5, delta=delta, rho=rho,
                                constants=bundle)
            report = norm_certificate(cert, data)
            assert len(report["rows"]) == 1 + 2 * data.n
            assert report["pass"]