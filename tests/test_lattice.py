import os
import subprocess
import sys

import numpy as np
import pytest

from toruslin import DomainSpec, LatticeSpec, log_indicatrix, max_margin_eta, \
    union_and_hull
from toruslin.lattice import HullLimitError, LatticeError, \
    polytope_to_text, union_translates

from _oracles import in_hull, in_polytope, translates_fit

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def lat1(e2=0.3 + 1.1j):
    return LatticeSpec(1, 1, [[1.0], [e2]])


def lat2_square():
    return LatticeSpec(2, 1, [[1, 0], [0, 1], [1j, 0], [0, 1j]])


def lat2_skew():
    # elliptic-golden style skew: Im e_3 = (1, 0.2), Im e_4 = (0.1, 1)
    return LatticeSpec(2, 1, [[1, 0], [0, 1],
                              [0.3 + 1.0j, 0.5 + 0.2j],
                              [0.7 + 0.1j, 0.2 + 1.0j]])


def random_lattice(rng, n):
    """Seeded skew lattice: Im e_{n+i} near the unit vectors, any real part."""
    im = np.eye(n) + rng.uniform(-0.3, 0.3, (n, n))
    re = rng.uniform(-1.0, 1.0, (n, n))
    return LatticeSpec(n, 1, np.vstack([np.eye(n), re + 1j * im]))


def graham_scan(points):
    """Independent 2D convex hull oracle (no scipy)."""
    pts = sorted(set(map(tuple, np.round(points, 12))))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 1e-12:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 1e-12:
            upper.pop()
        upper.append(p)
    return sorted(set(lower[:-1] + upper[:-1]))


class TestLatticeSpec:
    @pytest.mark.parametrize("eps, r", [(np.nan, 0.5), (0.2, np.nan),
                                        (np.inf, 0.5), (0.2, np.inf),
                                        (-0.1, 0.5), (0.2, 0.0)])
    def test_domain_needs_finite_eps_and_r(self, eps, r):
        # nan fails every comparison, so a bare range test lets it through
        with pytest.raises(LatticeError, match="finite"):
            DomainSpec(lat1(), eps, r)

    def test_standard_basis_enforced(self):
        with pytest.raises(LatticeError):
            LatticeSpec(1, 1, [[2.0], [0.3 + 1.1j]])

    def test_degenerate_imaginary_parts(self):
        with pytest.raises(LatticeError):
            LatticeSpec(2, 1, [[1, 0], [0, 1], [1j, 0], [2j, 0]])

    def test_lambda_matrix(self):
        lam = lat1().lam_matrix()
        assert lam.shape == (1, 1)
        assert lam[0, 0] == pytest.approx(np.exp(2j * np.pi * (0.3 + 1.1j)))

    def test_decay_rate_1d(self):
        assert lat1().decay_rate() == pytest.approx(2.2 * np.pi)


class TestLogIndicatrix:
    def test_segment_1d(self):
        poly = log_indicatrix(lat1(), 0.0)
        verts = np.sort(poly.vertices().ravel())
        assert verts == pytest.approx([-2.2 * np.pi, 0.0])

    def test_axis_aligned_square(self):
        poly = log_indicatrix(lat2_square(), 0.0)
        verts = {tuple(np.round(v, 12)) for v in poly.vertices()}
        s = -2 * np.pi
        want = {(0.0, 0.0), (round(s, 12), 0.0), (0.0, round(s, 12)),
                (round(s, 12), round(s, 12))}
        assert verts == want

    def test_skew_corners_match_enumeration(self):
        lat = lat2_skew()
        eps = 0.1
        poly = log_indicatrix(lat, eps)
        got = sorted(map(tuple, np.round(poly.vertices(), 10)))
        want = []
        for t1 in (-eps, 1 + eps):
            for t2 in (-eps, 1 + eps):
                want.append(tuple(np.round(
                    t1 * lat.log_gens[0] + t2 * lat.log_gens[1], 10)))
        assert got == sorted(want)

    def test_roundtrip_from_generators(self):
        lat = lat2_skew()
        poly = log_indicatrix(lat, 0.05)
        rebuilt = np.array([t @ poly.gens + poly.offset
                            for t in [(poly.lo, poly.lo), (poly.lo, poly.hi),
                                      (poly.hi, poly.lo), (poly.hi, poly.hi)]])
        assert np.allclose(sorted(map(tuple, rebuilt)),
                           sorted(map(tuple, poly.vertices())), atol=1e-12)

    def test_inclusion_monotone_in_eps(self):
        lat = lat2_skew()
        small = log_indicatrix(lat, 0.1)
        big = log_indicatrix(lat, 0.2)
        assert all(in_polytope(big, v) for v in small.vertices())

    def test_translation_identity(self):
        lat = lat2_skew()
        base = log_indicatrix(lat, 0.1)
        k = -2
        shifted = base.translate(k * lat.log_gens[1])
        assert np.allclose(shifted.vertices(),
                           base.vertices() + k * lat.log_gens[1])


class TestUnionAndHull:
    def test_interval_1d(self):
        polys, hull = union_and_hull(lat1(), 0.0)
        assert len(polys) == 5
        v = -2.2 * np.pi
        lo = min(p.vertices().min() for p in polys)
        hi = max(p.vertices().max() for p in polys)
        assert lo == pytest.approx(3 * v)
        assert hi == pytest.approx(-2 * v)
        assert hull.vertices.ravel().min() == pytest.approx(3 * v)
        assert hull.vertices.ravel().max() == pytest.approx(-2 * v)

    def test_square_lattice_octagon(self):
        polys, hull = union_and_hull(lat2_square(), 0.0)
        assert len(polys) == 4 * 2 + 1
        cloud = np.concatenate([p.vertices() for p in polys])
        want = graham_scan(cloud)
        got = sorted(map(tuple, np.round(hull.vertices, 12)))
        assert len(got) == len(want) == 8
        assert np.allclose(got, want, atol=1e-9)

    def test_skew_hull_vs_graham(self):
        polys, hull = union_and_hull(lat2_skew(), 0.15)
        cloud = np.concatenate([p.vertices() for p in polys])
        want = graham_scan(cloud)
        got = sorted(map(tuple, np.round(hull.vertices, 12)))
        assert np.allclose(got, want, atol=1e-9)

    def test_adjacent_translates_overlap(self):
        lat = lat2_square()
        eps = 0.25
        base = log_indicatrix(lat, eps)
        for i in range(2):
            vi = lat.log_gens[i]
            for k in (-2, -1, 0, 1):
                a = base.translate(k * vi)
                b = base.translate((k + 1) * vi)
                mid = 0.5 * (a.vertices().mean(axis=0) + b.vertices().mean(axis=0))
                assert in_polytope(a, mid, tol=-1e-9) \
                    and in_polytope(b, mid, tol=-1e-9), (i, k)

    def test_hull_limit(self):
        lat5 = LatticeSpec(5, 1, np.vstack([np.eye(5), 1j * np.eye(5)]))
        with pytest.raises(HullLimitError):
            union_and_hull(lat5, 0.1)


class TestClosedFormHull:
    """The closed-form hull against qhull of the whole translate cloud."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
    def test_matches_qhull(self, n, eps):
        spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(1000 * n + int(10 * eps))
        for _ in range(3):
            lat = random_lattice(rng, n)
            polys, hull = union_and_hull(lat, eps)
            cloud = np.concatenate([p.vertices() for p in polys])
            oracle = spatial.ConvexHull(cloud)
            want = cloud[np.sort(oracle.vertices)]
            want = want[np.lexsort(want.T[::-1])]
            assert np.array_equal(hull.vertices, want)
            assert len(hull.vertices) == n * 2 ** n
            # qhull splits each facet into simplices: match facets as sets
            ours = np.column_stack([hull.normals, hull.offsets])
            gap = np.abs(oracle.equations[:, None, :]
                         - ours[None, :, :]).max(axis=2)
            assert len(ours) == 3 ** n - 1
            assert gap.min(axis=1).max() <= 1e-12
            assert gap.min(axis=0).max() <= 1e-12

    def test_no_scipy_in_the_package(self):
        code = (
            "import sys\n"
            "from toruslin import DomainSpec, LatticeSpec, TruncatedSeries, "
            "max_margin_eta, sampled_lower_bound, sup_norm_bound, "
            "union_and_hull\n"
            "lat = LatticeSpec(2, 1, [[1, 0], [0, 1], [0.3 + 1.0j, 0.5 + 0.2j],"
            " [0.7 + 0.1j, 0.2 + 1.0j]])\n"
            "union_and_hull(lat, 0.15)\n"
            "assert abs(max_margin_eta(lat, 0.15) - 0.5) < 1e-9\n"
            "dom = DomainSpec(lat, 0.12, 0.5, hull=True)\n"
            "f = TruncatedSeries.monomial(2, 1, 0, (1, -1), (1,), 0.5, vmax=3)"
            "\n"
            "assert sampled_lower_bound(f, dom, points=200, seed=1).value"
            " <= sup_norm_bound(f, dom).value\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
            "\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestMaxMarginEta:
    @pytest.mark.parametrize("e2", [0.3 + 1.1j, 0.5j, -0.2 + 2.7j])
    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.4])
    def test_1d_is_exactly_one(self, e2, eps):
        assert max_margin_eta(lat1(e2), eps) == pytest.approx(1.0, abs=1e-9)

    def test_square_lattice_matches_grid_search(self):
        lat = lat2_square()
        eps = 0.1
        eta = max_margin_eta(lat, eps)
        assert eta > 0
        # independent coarse-to-fine grid search
        _, hull = union_and_hull(lat, eps)

        def fits(x):
            fat = log_indicatrix(lat, eps + x)
            return all(in_hull(hull, fat.vertices() + s * lat.log_gens[i],
                                   tol=1e-12 * 60)
                       for i in range(2) for s in (1, -1))

        lo, hi = 0.0, 2.0
        for step in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
            x = lo
            while x + step <= hi and fits(x + step):
                x += step
            lo, hi = x, min(hi, x + step)
        assert eta == pytest.approx(lo, abs=1e-6)

    def test_square_lattice_value_is_half(self):
        # the diagonal hull facets bind at exactly eta = 1/2
        assert max_margin_eta(lat2_square(), 0.1) == pytest.approx(0.5, abs=1e-8)

    def test_maximality(self):
        lat = lat2_square()
        eps = 0.1
        eta = max_margin_eta(lat, eps)
        assert translates_fit(lat, eps, eta)
        assert not translates_fit(lat, eps, eta + 1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_value_is_one_over_n(self, n):
        # the closed-form hull binds at the facet y = (1, ..., 1): eta = 1/n
        rng = np.random.default_rng(70 + n)
        for eps in (0.05, 0.2, 0.4):
            lat = random_lattice(rng, n)
            assert max_margin_eta(lat, eps) == 1.0 / n

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_over_n_is_the_largest_fitting_margin(self, n):
        # containment probe on the hull itself, independent of the formula
        rng = np.random.default_rng(80 + n)
        for eps in (0.05, 0.2, 0.4):
            lat = random_lattice(rng, n)
            assert translates_fit(lat, eps, 1.0 / n)
            assert not translates_fit(lat, eps, 1.0 / n + 1e-6)

    def test_monotonicity_probe(self):
        lat = lat2_square()
        assert max_margin_eta(lat, 0.2) <= max_margin_eta(lat, 0.1) + 0.1


class TestSupMonomial:
    def test_constant_monomial(self):
        for dom in (DomainSpec(lat1(), 0.2, 0.5),
                    DomainSpec(lat2_skew(), 0.1, 0.5, word=((0, 2),)),
                    DomainSpec(lat2_skew(), 0.1, 0.5, union_ell=-2)):
            assert dom.sup_monomial(np.zeros(dom.lattice.n)) == pytest.approx(1.0)

    def test_1d_positive_power(self):
        dom = DomainSpec(lat1(), 0.1, 0.5)
        assert dom.sup_monomial([1.0]) == pytest.approx(np.exp(0.22 * np.pi))

    def test_translate_shift_identity(self):
        lat = lat1()
        base = DomainSpec(lat, 0.1, 0.5)
        moved = base.translated(0, 1)
        lam_abs = np.exp(lat.log_gens[0][0])
        P = np.array([-3.0])
        assert moved.sup_monomial(P) == pytest.approx(
            base.sup_monomial(P) * lam_abs ** (-3), rel=1e-12)

    def test_hull_equals_union_max(self):
        lat = lat2_skew()
        rng = np.random.default_rng(41)
        hull_dom = DomainSpec(lat, 0.12, 0.5, hull=True)
        polys = union_translates(lat, 0.12)
        for _ in range(50):
            P = rng.integers(-6, 7, size=2).astype(float)
            via_hull = hull_dom.sup_monomial(P)
            via_union = max(np.exp((p.vertices() @ P).max()) for p in polys)
            assert via_hull == pytest.approx(via_union, rel=1e-12)


def test_sup_abs_monomial_function():
    def sup_abs_monomial(lat, eps, P, word=()):
        return DomainSpec(lat, eps, 1.0, word=word).sup_monomial(P)

    lat = lat1()
    assert sup_abs_monomial(lat, 0.2, [0]) == pytest.approx(1.0)
    assert sup_abs_monomial(lat, 0.1, [1]) == pytest.approx(np.exp(0.22 * np.pi))
    lam_abs = np.exp(lat.log_gens[0][0])
    assert sup_abs_monomial(lat, 0.1, [-3], word=((0, 1),)) == pytest.approx(
        sup_abs_monomial(lat, 0.1, [-3]) * lam_abs ** (-3), rel=1e-12)


def test_polytope_text_format():
    poly = log_indicatrix(lat2_square(), 0.0)
    text = polytope_to_text(poly.vertices())
    lines = text.strip().splitlines()
    assert len(lines) == 4
    first = [float(x) for x in lines[0].split()]
    assert len(first) == 2
