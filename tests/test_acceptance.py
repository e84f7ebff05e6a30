"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
execute.  Criterion 9's stabilization clause is implemented exactly as
stated; see the assertion message there for the quantitative situation.
"""

import filecmp
import os
import time

import numpy as np
import pytest

import toruslin
from toruslin import DomainSpec, LatticeSpec, max_margin_eta, \
    sampled_lower_bound, sup_norm_bound
from toruslin.cli import EXIT_OK, EXIT_RESONANCE, main
from toruslin.cohomology import CompatibleFamily, solve_family, solve_single
from toruslin.divisors import MultiplierData, ResonanceError, scan_and_fit
from toruslin.lattice import log_indicatrix, union_and_hull, union_translates
from toruslin.linearize import build_family, linearize, residual_table
from toruslin.majorant import build_state, dominance_and_radius
from toruslin.problem import parse_problem

from _fixtures import golden_lattice
from _oracles import in_hull, random_series
from test_cohomology import compatible_family, dense_lstsq_oracle, setup_2d
from test_norms import evaluated_points


def report_line(num, ok, text):
    print("ACCEPTANCE %2d: %s - %s" % (num, "PASS" if ok else "FAIL", text))


@pytest.fixture(scope="module")
def reference():
    problem = parse_problem(toruslin.reference_problem_path())
    run = problem.run
    family = build_family(problem.lattice, problem.data,
                          problem.pert_records, run["vmax"],
                          eps0=run["epsilon"], r0=run["radius"])
    start = time.perf_counter()
    _, fit = scan_and_fit(problem.data, run["pmax"], run["qmax"])
    result = linearize(family, run["order"], run["epsilon"], run["radius"],
                       fit=fit)
    elapsed = time.perf_counter() - start
    return problem, family, fit, result, elapsed


def test_criterion_1_conjugacy_residual(reference):
    problem, family, fit, result, elapsed = reference
    rows = residual_table(result)
    worst = max(w for _, w in rows)
    ok = len(rows) == 7 and worst <= 1e-9 and elapsed <= 60.0
    report_line(1, ok, "conjugacy residual max %.3e over m=2..8, %.1fs"
                % (worst, elapsed))
    assert len(rows) == 7
    assert worst <= 1e-9
    assert elapsed <= 60.0


def test_criterion_2_solver_oracle_equivalence():
    lat, data = setup_2d()
    worst = 0.0
    families = 0
    largest = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        # one family near the size cap, the rest moderate
        nterms = 420 if seed == 0 else 25
        G0, fam = compatible_family(rng, data, vmax=5, pmax=2, nterms=nterms)
        unknowns = len(fam.keys())
        assert unknowns <= 500
        largest = max(largest, unknowns)
        cert = solve_family(fam, data, lat, eps=0.15, r=0.5, delta=0.05,
                            rho=0.25)
        oracle = dense_lstsq_oracle(fam, data)
        worst = max(worst, cert.G.max_coeff_diff(oracle))
        families += 1
    ok = families >= 20 and worst <= 1e-12
    report_line(2, ok, "%d families (largest %d unknowns), max coefficient "
                "gap %.3e" % (families, largest, worst))
    assert worst <= 1e-12


def test_criterion_3_dual_route_agreement(reference):
    problem, family, fit, result, _ = reference
    run = problem.run
    inverse = linearize(family, run["order"], run["epsilon"], run["radius"],
                        fit=fit, route="inverse")
    gap = result.phi_v.max_coeff_diff(inverse.phi_v)
    ok = gap <= 1e-10
    report_line(3, ok, "forward/inverse phi gap %.3e through order %d"
                % (gap, run["order"]))
    assert gap <= 1e-10


def test_criterion_4_uniqueness_gluing():
    lat, data = setup_2d()
    _, fit = scan_and_fit(data, 8, 8, form="strong")
    assert not fit.resonant
    rng = np.random.default_rng(77)
    _, fam = compatible_family(rng, data, vmax=5, pmax=2, nterms=20)
    cert = solve_family(fam, data, lat, eps=0.15, r=0.5, delta=0.05, rho=0.25)
    worst = 0.0
    for i in range(data.n):
        single = solve_single(fam.rhs[i], i, data, lat, eps=0.15, r=0.5,
                              delta=0.05, rho=0.25, fit=fit)
        for k, P, Q, _ in fam.rhs[i].terms():
            worst = max(worst, abs(single.G.get(k, P, Q)
                                   - cert.G.get(k, P, Q)))
    ok = worst <= 1e-12
    report_line(4, ok, "family/single shared-coefficient gap %.3e" % worst)
    assert worst <= 1e-12


def criterion_5_pairs():
    """Criterion 5's 500 (series, domain, seed) inputs: 100 seeded series,
    on an ``n = 2`` and an ``n = 1`` lattice in turn, each on five
    domains."""
    lat1 = golden_lattice()
    lat2 = LatticeSpec(2, 1, [[1, 0], [0, 1],
                              [0.3 + 1.0j, 0.5 + 0.2j],
                              [0.7 + 0.1j, 0.2 + 1.0j]])
    rng = np.random.default_rng(5150)
    for idx in range(100):
        lat = lat1 if idx % 2 else lat2
        n = lat.n
        f = random_series(rng, n, 1, components=1, vmax=5, pmax=3,
                          nterms=15)
        for dom in (DomainSpec(lat, 0.15, 0.45),
                    DomainSpec(lat, 0.1, 0.5, word=((0, 1),)),
                    DomainSpec(lat, 0.2, 0.4, word=((n - 1, -2),)),
                    DomainSpec(lat, 0.1, 0.5, union_ell=2),
                    DomainSpec(lat, 0.12, 0.5, hull=True)):
            yield f, dom, 9000 + idx


def test_criterion_5_norm_bound_soundness():
    violations = 0
    checked = 0
    for f, dom, seed in criterion_5_pairs():
        upper = sup_norm_bound(f, dom).value
        lower = sampled_lower_bound(f, dom, points=10_000, seed=seed).value
        checked += 1
        if lower > upper * (1 + 1e-12):
            violations += 1
    ok = violations == 0 and checked == 500
    report_line(5, ok, "%d series/domain pairs, %d violations"
                % (checked, violations))
    assert violations == 0


def test_criterion_5_samples_are_pruned(monkeypatch):
    # criterion 5's sampled lower bounds evaluate in full only the points
    # whose triangle bound can reach the maximum: a return to evaluating
    # every point fails here, where the benchmark's clock could miss it
    counts = evaluated_points(monkeypatch)
    worst = total = 0
    for f, dom, seed in criterion_5_pairs():
        counts.clear()
        sampled_lower_bound(f, dom, points=10_000, seed=seed)
        worst = max(worst, sum(counts))
        total += sum(counts)
    print("criterion 5 evaluates %d of 5,000,000 points, at most %d of "
          "10,000 per pair" % (total, worst))
    assert worst < 1_000
    assert total < 50_000


def test_criterion_6_hartogs_geometry():
    # every 1-d lattice has margin exactly 1
    worst_1d = 0.0
    for e2 in (0.3 + 1.1j, 0.5j, -0.2 + 2.7j, 0.9 + 0.4j):
        for eps in (0.05, 0.2):
            lat = LatticeSpec(1, 1, [[1.0], [e2]])
            worst_1d = max(worst_1d, abs(max_margin_eta(lat, eps) - 1.0))
    # the standard square lattice against a coarse-to-fine grid search
    lat = LatticeSpec(2, 1, [[1, 0], [0, 1], [1j, 0], [0, 1j]])
    eps = 0.1
    eta = max_margin_eta(lat, eps)
    _, hull = union_and_hull(lat, eps)

    def fits(x):
        fat = log_indicatrix(lat, eps + x)
        return all(in_hull(hull, fat.vertices() + s * lat.log_gens[i],
                               tol=1e-10)
                   for i in range(2) for s in (1, -1))

    lo, hi = 0.0, 2.0
    for step in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        x = lo
        while x + step <= hi and fits(x + step):
            x += step
        lo, hi = x, min(hi, x + step)
    grid_gap = abs(eta - lo)

    # hull sup equals union sup for 50 random exponents
    lat_skew = LatticeSpec(2, 1, [[1, 0], [0, 1],
                                  [0.3 + 1.0j, 0.5 + 0.2j],
                                  [0.7 + 0.1j, 0.2 + 1.0j]])
    rng = np.random.default_rng(606)
    hull_dom = DomainSpec(lat_skew, 0.12, 0.5, hull=True)
    polys = union_translates(lat_skew, 0.12)
    worst_rel = 0.0
    for _ in range(50):
        P = rng.integers(-6, 7, size=2).astype(float)
        via_hull = hull_dom.sup_monomial(P)
        via_union = max(np.exp((p.vertices() @ P).max()) for p in polys)
        worst_rel = max(worst_rel, abs(via_hull - via_union)
                        / max(via_union, 1e-300))
    ok = worst_1d <= 1e-9 and eta > 0 and grid_gap <= 1e-6 \
        and worst_rel <= 1e-12
    report_line(6, ok, "1d margin gap %.1e, grid gap %.1e, hull/union rel "
                "gap %.1e" % (worst_1d, grid_gap, worst_rel))
    assert worst_1d <= 1e-9
    assert eta > 0 and grid_gap <= 1e-6
    assert worst_rel <= 1e-12


def test_criterion_7_resonance_gate(tmp_path):
    lat = golden_lattice()
    data = MultiplierData(lat.lam_matrix(), [[1.0]])
    _, fit = scan_and_fit(data, 4, 4)
    listed = ((0,), (2,), 0, None) in fit.resonances
    fam = build_family(lat, data, [(0, 1, (0,), (2,), 1e-4)], 4, 4,
                       eps0=0.3, r0=0.6)
    refused = False
    named_ok = False
    try:
        linearize(fam, order=3, eps1=0.2, r1=0.5, pmax=4, qmax=4)
    except ResonanceError as exc:
        refused = True
        named_ok = exc.P == (0,) and exc.Q == (2,) and exc.j == 0
    ok = fit.resonant and listed and refused and named_ok
    report_line(7, ok, "resonant flagged=%s listed=%s refused=%s"
                % (fit.resonant, listed, refused))
    assert fit.resonant and listed and refused and named_ok


@pytest.fixture(scope="module")
def certificate(reference):
    problem, family, fit, result, _ = reference
    run = problem.run
    state = build_state(run["order"], result.constants, family.n, family.d,
                        run["epsilon"], run["radius"])
    cert = dominance_and_radius(result, state)
    return state, cert


def test_criterion_8_majorant_dominance(reference, certificate):
    problem, family, fit, result, _ = reference
    state, cert = certificate
    M = result.order
    envelope_ok = all(state.etas[m] <= state.d_env ** m * (1 + 1e-12)
                      for m in range(1, M + 1))
    floors_ok = (state.eps_m[1:] > problem.run["epsilon"] / 2).all() and \
        (state.r_m[1:] > problem.run["radius"] / np.e * (1 - 1e-12)).all()
    ok = cert["all_dominated"] and envelope_ok and floors_ok
    report_line(8, ok, "dominated=%s envelope=%s floors=%s"
                % (cert["all_dominated"], envelope_ok, floors_ok))
    assert cert["all_dominated"]
    assert envelope_ok
    assert floors_ok


def test_criterion_9a_radius_positive(certificate):
    _, cert = certificate
    ok = cert["radius"] > 0
    report_line(9, ok, "radius estimate %.3e (positive part)" % cert["radius"])
    assert cert["radius"] > 0


def test_criterion_9b_radius_stabilization(certificate):
    state, cert = certificate
    window = range(4, state.order + 1)

    def spread(values):
        return (max(values) - min(values)) / min(values)

    variation = spread([(state.A[m] * state.etas[m]) ** (1.0 / m)
                        for m in window])
    eta_alone = spread([state.etas[m] ** (1.0 / m) for m in window])
    a_alone = spread([state.A[m] ** (1.0 / m) for m in window])
    ok = variation <= 0.10
    report_line(9, ok, "stabilization of (A_m eta_m)^(1/m) over m=4..8: "
                "%.4g (criterion asks <= 0.10)" % variation)
    assert variation <= 0.10, (
        "Over the m=4..8 window (A_m eta_m)^(1/m) varies by %.4g, and each "
        "factor varies on its own.  eta_m^(1/m) alone varies by %.4g: the "
        "per-degree gain recursion multiplies by (C1/eta^g) 2^(m g) and its "
        "best lower-degree product at every step, so it grows roughly like "
        "2^(g (m+1)/2) instead of stabilizing.  A_m^(1/m) alone varies by "
        "%.4g: the majorant coefficients are not geometric from m = 4 on, "
        "so replacing the gain sequence alone cannot bring the 10%% "
        "stabilization clause within reach."
        % (variation, eta_alone, a_alone))


def test_criterion_10_determinism(tmp_path):
    src = toruslin.reference_problem_path()
    prob = tmp_path / "ref.prob"
    prob.write_text(open(src).read())
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["report", str(prob)]
    assert main(args + ["--out", out1]) == EXIT_OK
    assert main(args + ["--out", out2]) == EXIT_OK
    names = sorted(os.listdir(out1))
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names,
                                               shallow=False)
    ok = mismatch == [] and errors == [] and sorted(match) == names
    report_line(10, ok, "%d artifacts byte-identical across two runs"
                % len(names))
    assert mismatch == [] and errors == []
    assert sorted(match) == names
