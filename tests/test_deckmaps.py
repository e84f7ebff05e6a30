import numpy as np
import pytest

from toruslin import LatticeSpec, TruncatedSeries
from toruslin.deckmaps import (DeckMap, compose_map_pairs,
                               compose_with_maps, conjugate_by_vertical,
                               invert_map)
from toruslin.divisors import MultiplierData
from toruslin.linearize import check_commutation, DeckMapFamily
from toruslin.series import (invert_vertical_map, scale_components,
                             substitute_vertical)

from _oracles import (chained_add_compose, identity_map, random_series,
                      shuffled_copy, stores_sorted, term_dict, with_terms)

GOLDEN = (np.sqrt(5) - 1) / 2

# a lattice with |lambda| close to 1 keeps inverse-map coefficients tame,
# which is what the structural composition tests need; the harsh
# |lambda| ~ 1e-3 acceptance lattice is exercised by the linearizer tests
MILD_E2 = 0.31 + 0.07j


def mild_map(rng=None, nterms=6, scale=1e-3, vmax=6):
    lam = np.array([np.exp(2j * np.pi * MILD_E2)])
    mu = np.array([np.exp(2j * np.pi * GOLDEN)])
    if rng is None:
        ph = TruncatedSeries.zero(1, 1, 1, vmax)
        pv = TruncatedSeries.zero(1, 1, 1, vmax)
    else:
        ph = random_series(rng, 1, 1, components=1, vmax=vmax, pmax=2,
                           nterms=nterms, min_vdeg=2, scale=scale)
        pv = random_series(rng, 1, 1, components=1, vmax=vmax, pmax=2,
                           nterms=nterms, min_vdeg=2, scale=scale)
    return DeckMap(lam=lam, mu=mu, pert_h=ph, pert_v=pv)


def eval_map(m, logh, v):
    """Numerically apply the deck map at points."""
    H = m.lam[None, :] * np.exp(logh) + m.pert_h.evaluate(logh, v)
    V = m.mu[None, :] * v + m.pert_v.evaluate(logh, v)
    return np.log(H), V


class TestComposeWithMap:
    def test_identity_map_is_noop(self):
        rng = np.random.default_rng(1)
        f = random_series(rng, 1, 1, vmax=5, pmax=3, nterms=10)
        ident = identity_map(1, 1, 5)
        got = compose_with_maps([(f, ident, None)])[0]
        assert got.max_coeff_diff(f) < 1e-14

    def test_diagonal_map_scales_coefficients(self):
        rng = np.random.default_rng(2)
        f = random_series(rng, 1, 1, vmax=5, pmax=3, nterms=10)
        m = mild_map()
        got = compose_with_maps([(f, m, None)])[0]
        for k, P, Q, c in f.terms():
            want = c * m.lam[0] ** P[0] * m.mu[0] ** Q[0]
            assert got.get(k, P, Q) == pytest.approx(want)

    def test_binomial_laurent_expansion(self):
        # f = h^-1 against the closed form
        # (lam h + c h v^2)^-1 = lam^-1 h^-1 sum_s (-c/lam)^s v^{2s}
        lam = np.exp(2j * np.pi * MILD_E2)
        c = 0.01
        ph = TruncatedSeries(1, 1, 1, 6, coeffs={(0, (1,), (2,)): c})
        pv = TruncatedSeries.zero(1, 1, 1, 6)
        m = DeckMap(lam=[lam], mu=[1.0], pert_h=ph, pert_v=pv)
        f = TruncatedSeries.monomial(1, 1, 0, (-1,), (0,), 1.0,
                                     components=1, vmax=6)
        comp = compose_with_maps([(f, m, None)])[0]
        for s in range(4):
            want = (1 / lam) * (-c / lam) ** s
            assert comp.get(0, (-1,), (2 * s,)) == pytest.approx(want)
        assert comp.nterms() == 4

    @pytest.mark.parametrize("seed", range(3))
    def test_pointwise_evaluation_oracle(self, seed):
        # perturbations well below |lam| and small |v| keep the composite's
        # vertical tail beyond vmax negligible, so point evaluation of the
        # truncated composition must match evaluating f after the map
        rng = np.random.default_rng(40 + seed)
        f = random_series(rng, 1, 1, vmax=6, pmax=2, nterms=10)
        m = mild_map(rng, vmax=6, scale=1e-5)
        comp = compose_with_maps([(f, m, None)])[0]
        logh = (rng.uniform(-0.2, 0.2, (8, 1))
                + 1j * rng.uniform(0, 2 * np.pi, (8, 1)))
        v = 0.05 * np.exp(1j * rng.uniform(0, 2 * np.pi, (8, 1)))
        logH, V = eval_map(m, logh, v)
        direct = f.evaluate(logH, V)
        viaseries = comp.evaluate(logh, v)
        scale = np.abs(direct).max()
        assert np.max(np.abs(direct - viaseries)) < 1e-9 * max(scale, 1.0)

    def test_vertical_truncation_consistency(self):
        # composing then truncating equals truncating the exact composition
        rng = np.random.default_rng(9)
        f = random_series(rng, 1, 1, vmax=6, pmax=2, nterms=8, min_vdeg=2)
        m = mild_map(rng, vmax=6)
        full = compose_with_maps([(f, m, None)])[0]
        low = compose_with_maps([(f.restrict(vmax=4), m, 4)])[0]
        assert full.restrict(vmax=4).max_coeff_diff(low) < 1e-13


class TestComposeAndInvert:
    def test_compose_maps_diagonal_parts_multiply(self):
        rng = np.random.default_rng(3)
        m1, m2 = mild_map(rng), mild_map(rng)
        both = compose_map_pairs([(m1, m2)])[0]
        assert both.lam[0] == pytest.approx(m1.lam[0] * m2.lam[0])
        assert both.mu[0] == pytest.approx(m1.mu[0] * m2.mu[0])

    def test_invert_map_roundtrip(self):
        rng = np.random.default_rng(5)
        m = mild_map(rng, vmax=5)
        minv = invert_map(m)
        comp = compose_map_pairs([(m, minv)])[0]
        scale = max(1.0, minv.pert_scale())
        assert comp.pert_h.max_abs() < 1e-12 * scale
        assert comp.pert_v.max_abs() < 1e-12 * scale
        assert comp.lam[0] == pytest.approx(1.0)
        assert comp.mu[0] == pytest.approx(1.0)

    def test_invert_both_orders(self):
        rng = np.random.default_rng(6)
        m = mild_map(rng, vmax=5)
        minv = invert_map(m)
        comp = compose_map_pairs([(minv, m)])[0]
        scale = max(1.0, minv.pert_scale())
        assert comp.pert_h.max_abs() < 1e-12 * scale
        assert comp.pert_v.max_abs() < 1e-12 * scale

    def test_conjugation_by_vertical_preserves_diagonal(self):
        rng = np.random.default_rng(7)
        m = mild_map(rng, vmax=5)
        G = random_series(rng, 1, 1, components=1, vmax=5, pmax=2,
                          nterms=5, min_vdeg=2, scale=1e-2)
        conj = conjugate_by_vertical(m, G)
        assert conj.lam[0] == pytest.approx(m.lam[0])
        assert conj.mu[0] == pytest.approx(m.mu[0])

    def test_conjugation_undone_by_inverse_correction(self):
        rng = np.random.default_rng(8)
        m = mild_map(rng, vmax=5)
        G = random_series(rng, 1, 1, components=1, vmax=5, pmax=2,
                          nterms=5, min_vdeg=2, scale=1e-2)
        H = invert_vertical_map(G)
        back = conjugate_by_vertical(conjugate_by_vertical(m, G), H)
        scale = max(1.0, m.pert_scale())
        assert back.pert_h.max_coeff_diff(m.pert_h) < 1e-12 * scale
        assert back.pert_v.max_coeff_diff(m.pert_v) < 1e-12 * scale


def full_window_invert_map(m):
    """The fixed-point map inversion with every sweep on the full window."""
    n, d = m.n, m.d
    vmax = m.pert_h.vmax
    inv = DeckMap(lam=1.0 / m.lam, mu=1.0 / m.mu,
                  pert_h=TruncatedSeries.zero(n, d, n, vmax),
                  pert_v=TruncatedSeries.zero(n, d, d, vmax))
    for _ in range(vmax + 1):
        a_of = compose_with_maps([(m.pert_h, inv, vmax)])[0]
        b_of = compose_with_maps([(m.pert_v, inv, vmax)])[0]
        new_h = scale_components(a_of, 1.0 / m.lam).scale(-1.0)
        new_v = scale_components(b_of, 1.0 / m.mu).scale(-1.0)
        done = new_h.max_coeff_diff(inv.pert_h) == 0.0 and \
            new_v.max_coeff_diff(inv.pert_v) == 0.0
        inv = DeckMap(lam=inv.lam, mu=inv.mu, pert_h=new_h, pert_v=new_v)
        if done:
            break
    return inv


def coeff_bits(f):
    return (f.vmax,
            [(k, P, Q, c.real.hex(), c.imag.hex()) for k, P, Q, c in f.terms()])


class TestWindowedInvertMap:
    cases = pytest.mark.parametrize("n,d,vmax", [(1, 1, 5), (1, 1, 7),
                                                 (2, 1, 5), (1, 2, 4)])

    @staticmethod
    def case(n, d, vmax):
        rng = np.random.default_rng(40 + 10 * n + d + vmax)
        lam = np.exp(2j * np.pi * np.array([MILD_E2, 0.2 + 0.03j][:n]))
        mu = np.exp(2j * np.pi * np.array([GOLDEN, np.sqrt(2) - 1][:d]))
        ph = random_series(rng, n, d, components=n, vmax=vmax, pmax=2,
                           nterms=6, min_vdeg=2, scale=1e-3)
        pv = random_series(rng, n, d, components=d, vmax=vmax, pmax=2,
                           nterms=6, min_vdeg=2, scale=1e-3)
        return DeckMap(lam=lam, mu=mu, pert_h=ph, pert_v=pv)

    @cases
    def test_matches_full_window_loop(self, n, d, vmax):
        m = self.case(n, d, vmax)
        got, want = invert_map(m), full_window_invert_map(m)
        assert coeff_bits(got.pert_h) == coeff_bits(want.pert_h)
        assert coeff_bits(got.pert_v) == coeff_bits(want.pert_v)
        assert got.pert_v.homogeneous_part(vmax).max_abs() > 0

    @cases
    def test_one_more_sweep_changes_nothing(self, n, d, vmax):
        # the inversion stops after its first full-window sweep; a further
        # sweep from its result moves no coefficient bit and no tailflag
        m = self.case(n, d, vmax)
        inv = invert_map(m)
        a_of, b_of = compose_with_maps([(m.pert_h, inv, vmax),
                                        (m.pert_v, inv, vmax)])
        again = (scale_components(a_of, 1.0 / m.lam).scale(-1.0),
                 scale_components(b_of, 1.0 / m.mu).scale(-1.0))
        for new, old in zip(again, (inv.pert_h, inv.pert_v)):
            assert coeff_bits(new) == coeff_bits(old)
            assert new.tailflag == old.tailflag

    def test_sweep_windows(self, monkeypatch):
        # sweep s works through degree s + 2; the first sweep on the full
        # window is the last.  Each sweep composes both perturbations with
        # the current inverse in one call.
        import toruslin.deckmaps as deckmaps_mod
        seen = []
        real = deckmaps_mod.compose_with_maps

        def recording(jobs):
            seen.append([vmax for _, _, vmax in jobs])
            return real(jobs)

        monkeypatch.setattr(deckmaps_mod, "compose_with_maps", recording)
        invert_map(mild_map(np.random.default_rng(3), vmax=6))
        assert seen == [[2, 2], [3, 3], [4, 4], [5, 5], [6, 6]]


class TestComposeWithMapInPlaceSums:
    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2)])
    def test_matches_chained_add(self, n, d):
        rng = np.random.default_rng(60 + 10 * n + d)
        vmax = 6
        lam = np.exp(2j * np.pi * np.array([MILD_E2, 0.2 + 0.03j][:n]))
        mu = np.exp(2j * np.pi * np.array([GOLDEN, np.sqrt(2) - 1][:d]))
        ph = random_series(rng, n, d, components=n, vmax=vmax, pmax=2,
                           nterms=6, min_vdeg=2, scale=1e-2)
        pv = random_series(rng, n, d, components=d, vmax=vmax, pmax=2,
                           nterms=6, min_vdeg=2, scale=1e-2)
        # a truncation record on pert_h reaches the u powers' discarded
        ph = TruncatedSeries(n, d, n, vmax, coeffs=term_dict(ph),
                             discarded=1e-9)
        m = DeckMap(lam=lam, mu=mu, pert_h=ph, pert_v=pv)
        f = random_series(rng, n, d, components=2, vmax=vmax, pmax=3,
                          nterms=14)
        f = f.add(TruncatedSeries.monomial(n, d, 1, (-2,) * n, (0,) * d, 0.5,
                                           components=2, vmax=vmax))
        assert (vmax - f.v_order()) // 2 >= 2 and not m.pert_h.is_zero()
        got = compose_with_maps([(f, m, None)])[0]
        want = chained_add_compose(f, m)
        assert coeff_bits(got) == coeff_bits(want)
        assert (got.tailflag, got.discarded) == (want.tailflag,
                                                 want.discarded)
        assert got.discarded > 1e-9

    @pytest.mark.parametrize("record", [False, True])
    def test_zero_pert_h(self, record):
        # a zero u_k skips its binomial series (1 + u_k)^p = 1; one that
        # carries a truncation record does not
        rng = np.random.default_rng(64)
        lam = np.exp(2j * np.pi * np.array([MILD_E2, 0.2 + 0.03j]))
        mu = np.exp(2j * np.pi * np.array([GOLDEN]))
        ph = TruncatedSeries(2, 1, 2, 6, discarded=1e-9 if record else 0.0)
        pv = random_series(rng, 2, 1, vmax=6, pmax=2, nterms=6,
                           min_vdeg=2, scale=1e-2)
        m = DeckMap(lam=lam, mu=mu, pert_h=ph, pert_v=pv)
        f = random_series(rng, 2, 1, components=2, vmax=6, pmax=3,
                          nterms=14)
        got = compose_with_maps([(f, m, None)])[0]
        want = chained_add_compose(f, m)
        assert coeff_bits(got) == coeff_bits(want)
        assert (got.tailflag, got.discarded) == (want.tailflag,
                                                 want.discarded)


def sorted_bits(f):
    """Window, truncation record and every term, exactly, of a table that
    stores its keys in sorted order."""
    assert stores_sorted(f)
    return coeff_bits(f), f.tailflag, f.discarded.hex()


class TestComposeWithMapOneScatter:
    """All groups' pieces go into the output in one scatter, each piece's
    discarded marked after its records: the table and the truncation
    record of adding the pieces one group at a time, keys stored sorted."""

    @staticmethod
    def mixed_map(rng, n, d, vmax=6):
        lam = np.exp(2j * np.pi * np.array([MILD_E2, 0.2 + 0.03j][:n]))
        mu = np.exp(2j * np.pi * np.array([GOLDEN, np.sqrt(2) - 1][:d]))
        ph = random_series(rng, n, d, components=n, vmax=vmax, pmax=2,
                           nterms=6, min_vdeg=2, scale=1e-1)
        pv = random_series(rng, n, d, components=d, vmax=vmax, pmax=2,
                           nterms=6, min_vdeg=2, scale=1e-1)
        return DeckMap(lam=lam, mu=mu, pert_h=ph, pert_v=pv)

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2)])
    def test_multi_component(self, n, d):
        rng = np.random.default_rng(70 + 10 * n + d)
        m = self.mixed_map(rng, n, d)
        f = random_series(rng, n, d, components=3, vmax=6, pmax=3,
                          nterms=24, min_vdeg=2)
        f = TruncatedSeries(n, d, 3, 6, coeffs=term_dict(f),
                            discarded=2.0 ** -40)
        assert len({(k, Q) for k, _, Q, _ in f.terms()}) > 6
        got = compose_with_maps([(f, m, None)])[0]
        assert sorted_bits(got) == sorted_bits(chained_add_compose(f, m))
        assert got.discarded > f.discarded

    def test_single_group(self):
        rng = np.random.default_rng(77)
        m = self.mixed_map(rng, 2, 1)
        f = TruncatedSeries(2, 1, 2, 6, coeffs={
            (1, (p, q), (2,)): complex(rng.standard_normal(),
                                       rng.standard_normal())
            for p, q in ((0, 0), (1, -1), (-3, 2), (2, 3))})
        got = compose_with_maps([(f, m, None)])[0]
        assert sorted_bits(got) == sorted_bits(chained_add_compose(f, m))
        assert got.tailflag and got.discarded > 0

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2)])
    def test_insertion_order_is_not_an_input(self, n, d):
        # f and both perturbations stored in shuffled orders give the same
        # result, bit for bit, stored sorted
        rng = np.random.default_rng(90 + 10 * n + d)
        m = self.mixed_map(rng, n, d)
        f = random_series(rng, n, d, components=3, vmax=6, pmax=3,
                          nterms=24, min_vdeg=2)
        want = sorted_bits(compose_with_maps([(f, m, None)])[0])
        assert want == sorted_bits(chained_add_compose(f, m))
        for seed in range(4):
            order = np.random.default_rng(seed)
            shuffled = DeckMap(lam=m.lam, mu=m.mu,
                               pert_h=shuffled_copy(m.pert_h, order),
                               pert_v=shuffled_copy(m.pert_v, order))
            got = compose_with_maps(
                [(shuffled_copy(f, order), shuffled, None)])[0]
            assert sorted_bits(got) == want

    def test_no_terms(self):
        m = self.mixed_map(np.random.default_rng(78), 1, 1)
        f = TruncatedSeries(1, 1, 2, 6, discarded=0.25)
        got = compose_with_maps([(f, m, None)])[0]
        assert sorted_bits(got) == sorted_bits(chained_add_compose(f, m))
        assert (got.nterms(), got.discarded) == (0, 0.25)


class TestComposeWithMaps:
    """Several compositions in one pass: every job bit for bit what it
    gives composed alone, and what the chained-add oracle gives."""

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_jobs_match_one_at_a_time(self, n, d):
        rng = np.random.default_rng(110 + 10 * n + d)
        m1 = TestComposeWithMapOneScatter.mixed_map(rng, n, d)
        m2 = TestComposeWithMapOneScatter.mixed_map(rng, n, d)
        f1 = random_series(rng, n, d, components=n, vmax=6, pmax=3,
                           nterms=14, min_vdeg=2)
        f2 = random_series(rng, n, d, components=d, vmax=6, pmax=3,
                           nterms=14)
        f2 = TruncatedSeries(n, d, d, 6, coeffs=term_dict(f2),
                             discarded=2.0 ** -30)
        empty = TruncatedSeries(n, d, 1, 6, discarded=1e-9)
        # m1 at several windows, each series with both maps, and jobs
        # that repeat a series, a map and a window; the oracle composes
        # series whose terms lie inside the output window, and the last
        # job's do not
        jobs = [(f1, m1, 6), (f2.cut(4), m1, 4), (f1, m2, None),
                (f2, m1, 6), (f1.cut(4), m1, 4), (empty, m2, 5),
                (f2.cut(3), m2, 3), (f1, m1, 6), (f2, m1, 4)]
        assert f2.v_order() < f1.v_order()
        got = compose_with_maps(jobs)
        assert len(got) == len(jobs)
        for i, ((f, m, vmax), out) in enumerate(zip(jobs, got)):
            assert sorted_bits(out) == sorted_bits(
                compose_with_maps([(f, m, vmax)])[0])
            if i < len(jobs) - 1:
                assert sorted_bits(out) == sorted_bits(
                    chained_add_compose(f, m, vmax))
        assert compose_with_maps([]) == []


class TestComposeWithMapByVerticalOrder:
    """Once solved degrees leave the family as exact zeros, a map's vertical
    perturbation b_j starts high or is empty: the composition still matches
    the chained oracle bit for bit for every vertical order of b_j."""

    VMAX = 6

    @classmethod
    def deck_map(cls, rng, n, d, order):
        """pert_v's component 0 of vertical order ``order`` (None: no
        terms), every other component of order 2, with a truncation
        record."""
        vmax = cls.VMAX
        lam = np.exp(2j * np.pi * np.array([MILD_E2, 0.2 + 0.03j][:n]))
        mu = np.exp(2j * np.pi * np.array([GOLDEN, np.sqrt(2) - 1][:d]))
        coeffs = {}
        for j in range(d):
            low = order if j == 0 else 2
            if low is None:
                continue
            part = random_series(rng, n, d, vmax=vmax, pmax=2, nterms=5,
                                 min_vdeg=low, scale=0.2)
            coeffs.update({(j, P, Q): c for _, P, Q, c in part.terms()})
            coeffs[(j, (1,) * n, (low,) + (0,) * (d - 1))] = 0.3 - 0.1j
        pv = TruncatedSeries(n, d, d, vmax, coeffs=coeffs,
                             discarded=2.0 ** -35)
        ph = random_series(rng, n, d, components=n, vmax=vmax, pmax=2,
                           nterms=4, min_vdeg=2, scale=0.1)
        return DeckMap(lam=lam, mu=mu, pert_h=ph, pert_v=pv)

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2)])
    @pytest.mark.parametrize("order", [2, 3, 5, None],
                             ids=["ord2", "ord3", "ord-vmax-1", "empty"])
    def test_composition_matches_the_chain(self, n, d, order):
        rng = np.random.default_rng(150 + 10 * n + d)
        m = self.deck_map(rng, n, d, order)
        vmax = self.VMAX
        assert m.pert_v.component(0).v_order() == (
            vmax + 1 if order is None else order)
        # every power of every component, through the composition
        f = TruncatedSeries(n, d, 2, vmax, coeffs={
            (q % 2, (q % 3 - 1,) * n, Q): complex(q, 1 - j)
            for j in range(d) for q in range(1, vmax + 1)
            for Q in [tuple(q if t == j else 0 for t in range(d))]})
        got = compose_with_maps([(f, m, None)])[0]
        assert sorted_bits(got) == sorted_bits(chained_add_compose(f, m))
        assert got.tailflag and got.discarded > 0


class TestComposeWithMapEdges:
    def test_no_u_power_reaches_output(self):
        # ord_v f >= vmax - 1: (1 + u)^p contributes only its constant 1
        rng = np.random.default_rng(12)
        m = mild_map(rng, vmax=6)
        lam, mu = m.lam[0], m.mu[0]
        b2 = m.pert_v.homogeneous_part(2)
        for q in (5, 6):
            c = 0.4 - 0.3j
            f = TruncatedSeries.monomial(1, 1, 0, (-2,), (q,), c, vmax=6)
            got = compose_with_maps([(f, m, None)])[0]
            # c lam^-2 h^-2 (mu^q v^q + q mu^(q-1) v^(q-1) b_2), cut at 6
            want = TruncatedSeries.monomial(1, 1, 0, (0,), (q,), mu ** q,
                                            vmax=6)
            if q == 5:
                vq = TruncatedSeries.monomial(1, 1, 0, (0,), (q - 1,),
                                              q * mu ** (q - 1), vmax=6)
                want = want.add(vq.mul(b2))
            want = want.shift_h((-2,)).scale(c * lam ** -2)
            assert got.max_coeff_diff(want) < 1e-15

    def test_zero_series(self):
        m = mild_map(np.random.default_rng(13), vmax=6)
        zero = TruncatedSeries.zero(1, 1, 1, 6)
        got = compose_with_maps([(zero, m, None)])[0]
        assert got.is_zero() and got.nterms() == 0
        assert got.vmax == 6
        assert not got.tailflag and got.discarded == 0.0

    def test_keeps_input_truncation_record(self):
        # mass f already lost bounds the error of f o m as well
        f = TruncatedSeries(1, 1, 1, 4, coeffs={(0, (1,), (2,)): 0.5 - 0.25j},
                            discarded=1.0)
        got = compose_with_maps([(f, identity_map(1, 1, 4), None)])[0]
        assert got.max_coeff_diff(f) == 0.0
        assert got.tailflag and got.discarded == 1.0


class TestCommutation:
    def lattice2(self):
        return LatticeSpec(2, 1, [[1, 0], [0, 1],
                                  [0.31 + 0.07j, 0.5 + 0.02j],
                                  [0.7 + 0.01j, 0.2 + 0.09j]])

    def family2(self, rng, fault=None):
        lat = self.lattice2()
        mu = [[np.exp(2j * np.pi * GOLDEN)],
              [np.exp(2j * np.pi * (np.sqrt(2) - 1))]]
        data = MultiplierData(lat.lam_matrix(), mu)
        psi = random_series(rng, 2, 1, components=1, vmax=5, pmax=2,
                            nterms=6, min_vdeg=2, scale=1e-2)
        maps = []
        for i in range(2):
            diag = DeckMap(lam=data.lam[i], mu=data.mu[i],
                           pert_h=TruncatedSeries.zero(2, 1, 2, 5),
                           pert_v=TruncatedSeries.zero(2, 1, 1, 5))
            maps.append(conjugate_by_vertical(diag, psi))
        if fault is not None:
            maps[0].pert_v = with_terms(maps[0].pert_v,
                                        {(0, (0, 0), (fault,)): 1e-3})
        invs = [invert_map(m) for m in maps]
        return DeckMapFamily(lattice=lat, data=data, maps=maps, inv_maps=invs,
                             eps0=0.3, r0=0.6)

    def test_commuting_model(self):
        rng = np.random.default_rng(11)
        fam = self.family2(rng)
        table = check_commutation(fam, order=5)
        assert max(table[(0, 1)].values()) < 1e-12

    def test_fault_localized(self):
        rng = np.random.default_rng(11)
        fam = self.family2(rng, fault=3)
        table = check_commutation(fam, order=4)
        per = table[(0, 1)]
        assert per[3] > 1e-8
        assert per[2] < 1e-12

    def test_commutation_preserved_by_conjugation(self):
        rng = np.random.default_rng(13)
        fam = self.family2(rng)
        before = max(check_commutation(fam, order=5)[(0, 1)].values())
        G = random_series(rng, 2, 1, components=1, vmax=5, pmax=2,
                          nterms=5, min_vdeg=2, scale=1e-3)
        conj = fam.conjugated(G, invert_vertical_map(G))
        after = max(check_commutation(conj, order=5)[(0, 1)].values())
        assert after <= before + 1e-12
