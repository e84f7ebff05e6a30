import mpmath
import numpy as np
import pytest

from toruslin import DomainSpec, LatticeSpec, sampled_lower_bound, sup_norm_bound
from toruslin.norms import sup_norm_bound_union, sup_norm_bounds
from toruslin.series import TruncatedSeries

from _oracles import random_series


def lat1():
    return LatticeSpec(1, 1, [[1.0], [0.3 + 1.1j]])


def lat2():
    return LatticeSpec(2, 1, [[1, 0], [0, 1],
                              [0.3 + 1.0j, 0.5 + 0.2j],
                              [0.7 + 0.1j, 0.2 + 1.0j]])


def test_pure_vertical_monomial():
    f = TruncatedSeries.monomial(1, 1, 0, (0,), (2,), 1.0, components=1)
    dom = DomainSpec(lat1(), 0.2, 0.5)
    bound = sup_norm_bound(f, dom)
    assert bound.value == pytest.approx(0.25)
    sampled = sampled_lower_bound(f, dom, points=64)
    assert sampled.value == pytest.approx(0.25, rel=1e-9)


def test_mixed_monomial_vertex_formula():
    f = TruncatedSeries.monomial(1, 1, 0, (1,), (2,), 1.0, components=1)
    dom = DomainSpec(lat1(), 0.1, 0.5)
    bound = sup_norm_bound(f, dom)
    assert bound.value == pytest.approx(np.exp(0.22 * np.pi) * 0.25)


def test_cauchy_coefficient_inequality():
    # every stored term's |c| sup|h^P| r^|Q| is below the triangle bound
    rng = np.random.default_rng(5)
    f = random_series(rng, 1, 1, vmax=6, pmax=4, nterms=25)
    dom = DomainSpec(lat1(), 0.15, 0.7)
    total = sup_norm_bound(f, dom).value
    for _, P, Q, c in f.terms():
        piece = abs(c) * dom.sup_monomial(np.asarray(P, float)) * dom.r ** sum(Q)
        assert piece <= total * (1 + 1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_soundness_random_domains(seed):
    rng = np.random.default_rng(100 + seed)
    lat = lat2() if seed % 2 else lat1()
    n = lat.n
    f = random_series(rng, n, 1, components=2, vmax=5, pmax=3, nterms=20)
    domains = [
        DomainSpec(lat, 0.1, 0.4),
        DomainSpec(lat, 0.2, 0.6, word=((0, 1),)),
        DomainSpec(lat, 0.15, 0.5, word=((n - 1, -2),)),
        DomainSpec(lat, 0.1, 0.5, union_ell=1),
        DomainSpec(lat, 0.1, 0.5, hull=True),
    ]
    for dom in domains:
        upper = sup_norm_bound(f, dom).value
        lower = sampled_lower_bound(f, dom, points=512, seed=seed).value
        assert lower <= upper * (1 + 1e-12)


def test_unitary_translate_keeps_radius():
    # translate words do not change the r-power contribution
    f = TruncatedSeries.monomial(1, 1, 0, (0,), (3,), 2.0, components=1)
    base = DomainSpec(lat1(), 0.1, 0.5)
    moved = base.translated(0, 2)
    assert sup_norm_bound(f, base).value == pytest.approx(2.0 * 0.5 ** 3)
    assert sup_norm_bound(f, moved).value == pytest.approx(2.0 * 0.5 ** 3)


def test_nonfinite_sample_raises():
    # |h|^-2 overflows a double on this domain: a nan maximum would compare
    # false against the (infinite) upper bound and pass as sound
    lat = LatticeSpec(1, 1, [[1.0], [0.3 + 70j]])
    f = TruncatedSeries.monomial(1, 1, 0, (-2,), (0,), 1.0, components=1)
    with pytest.raises(ValueError, match="not finite"):
        sampled_lower_bound(f, DomainSpec(lat, 0.1, 0.5))


def test_sampled_bound_finite_where_h_powers_overflow():
    # log|h_j| reaches about -968 here, so h_j itself underflows to 0 and
    # h_2^-1 to inf, while h_1 h_2^-1 stays of order one
    lat = LatticeSpec(2, 1, [[1, 0], [0, 1],
                             [0.3 + 70j, 0.5 + 70j],
                             [0.7 + 70.1j, 0.2 + 69j]])
    f = TruncatedSeries.monomial(2, 1, 0, (1, -1), (0,), 1.0, components=1)
    dom = DomainSpec(lat, 0.1, 0.5)
    lower = sampled_lower_bound(f, dom, points=64).value
    assert lower == pytest.approx(1.8428416968113683, rel=1e-12)
    assert lower <= sup_norm_bound(f, dom).value


def test_certified_bound_finite_where_monomial_sup_overflows():
    # sup|h^-2| = exp(967.61...) is past the double range on this domain,
    # but 1e-250 sup|h^-2| is not: that term is formed in logs
    lat = LatticeSpec(1, 1, [[1.0], [0.3 + 70j]])
    dom = DomainSpec(lat, 0.1, 0.5)
    f = TruncatedSeries.monomial(1, 1, 0, (-2,), (0,), 1e-250, components=1)
    top = mpmath.mpf(float((dom.log_vertices() @ np.array([-2.0])).max()))
    want = float(mpmath.exp(top) * mpmath.mpf(1e-250))
    bound = sup_norm_bound(f, dom).value
    assert bound == pytest.approx(1.690117829592838e170, rel=1e-12)
    assert bound == pytest.approx(want, rel=1e-12)
    # the same term at 1e-5 is past the double range itself: inf, silently
    big = TruncatedSeries.monomial(1, 1, 0, (-2,), (0,), 1e-5, components=1)
    assert sup_norm_bound(big, dom).value == np.inf


def test_domains_shared_by_unions_are_computed_once(monkeypatch):
    # each union's bound is its sup_norm_bound_union bit for bit, and a
    # domain in several unions, given twice as equal specs included, has
    # its monomial sups computed once per component
    rng = np.random.default_rng(41)
    f = random_series(rng, 2, 1, components=2, vmax=5, pmax=3, nterms=20)
    base = DomainSpec(lat2(), 0.2, 0.5)
    one, two, back = (base.translated(1, k) for k in (1, 2, -1))
    unions = [[base], [one, two], [two, back], [one],
              [DomainSpec(lat2(), 0.2, 0.5, union_ell=1), base],
              [DomainSpec(base.lattice, 0.2, 0.5, word=((1, 1),))]]
    want = [sup_norm_bound_union(f, u).hex() for u in unions]
    calls = []
    sups = DomainSpec.sup_monomials

    def counted(dom, Ps):
        calls.append(dom)
        return sups(dom, Ps)

    monkeypatch.setattr(DomainSpec, "sup_monomials", counted)
    assert [x.hex() for x in sup_norm_bounds(f, unions)] == want
    assert len(calls) == 5 * f.components


def scalar_abs_values(rng, count):
    """Complex values, first those whose numpy ``abs`` differs from the
    scalar one on this CPU (numpy's SIMD loop rounds some of them
    differently), then others."""
    vals = (rng.standard_normal(4000) + 1j * rng.standard_normal(4000)) \
        * 10.0 ** rng.uniform(-6, 6, 4000)
    vals = vals.tolist()
    differ = [c for c, a in zip(vals, np.abs(vals).tolist()) if abs(c) != a]
    return (differ + vals)[:count]


def test_bound_takes_the_scalar_modulus():
    # each term contributes |c| as Python's scalar abs gives it, bit for
    # bit, whatever numpy's complex abs does on this CPU
    rng = np.random.default_rng(2027)
    dom = DomainSpec(lat2(), 0.2, 0.5)
    sup = float(dom.sup_monomials(np.array([[1.0, -2.0]]))[0])
    for c in scalar_abs_values(rng, 60):
        flat = TruncatedSeries.monomial(2, 1, 0, (0, 0), (0,), c,
                                        components=1)
        assert sup_norm_bound(flat, dom).value == abs(c)
        mixed = TruncatedSeries.monomial(2, 1, 0, (1, -2), (3,), c,
                                         components=1)
        assert sup_norm_bound(mixed, dom).value == abs(c) * sup * 0.5 ** 3

