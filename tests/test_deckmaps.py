import numpy as np
import pytest

from toruslin import LatticeSpec, TruncatedSeries
from toruslin.deckmaps import (DeckMap, DeckMapError, _gen_binom,
                               compose_maps, compose_with_map,
                               conjugate_by_vertical, identity_map,
                               invert_map)
from toruslin.divisors import MultiplierData
from toruslin.linearize import check_commutation, decompose_deck_family, \
    DeckMapFamily
from toruslin.series import (invert_vertical_map, scale_components,
                             substitute_vertical)

from _oracles import random_series

GOLDEN = (np.sqrt(5) - 1) / 2

# a lattice with |lambda| close to 1 keeps inverse-map coefficients tame,
# which is what the structural composition tests need; the harsh
# |lambda| ~ 1e-3 acceptance lattice is exercised by the linearizer tests
MILD_E2 = 0.31 + 0.07j


def mild_map(rng=None, nterms=6, scale=1e-3, vmax=6, hband=16):
    lam = np.array([np.exp(2j * np.pi * MILD_E2)])
    mu = np.array([np.exp(2j * np.pi * GOLDEN)])
    if rng is None:
        ph = TruncatedSeries.zero(1, 1, 1, vmax, hband)
        pv = TruncatedSeries.zero(1, 1, 1, vmax, hband)
    else:
        ph = random_series(rng, 1, 1, components=1, vmax=vmax, hband=2,
                           nterms=nterms, min_vdeg=2, scale=scale)
        ph = ph.with_window(hband=hband)
        pv = random_series(rng, 1, 1, components=1, vmax=vmax, hband=2,
                           nterms=nterms, min_vdeg=2, scale=scale)
        pv = pv.with_window(hband=hband)
    return DeckMap(lam=lam, mu=mu, pert_h=ph, pert_v=pv)


def eval_map(m, logh, v):
    """Numerically apply the deck map at points."""
    H = m.lam[None, :] * np.exp(logh) + m.pert_h.evaluate(logh, v)
    V = m.mu[None, :] * v + m.pert_v.evaluate(logh, v)
    return np.log(H), V


class TestComposeWithMap:
    def test_identity_map_is_noop(self):
        rng = np.random.default_rng(1)
        f = random_series(rng, 1, 1, vmax=5, hband=3, nterms=10)
        ident = identity_map(1, 1, 5, 3)
        assert compose_with_map(f, ident).max_coeff_diff(f) < 1e-14

    def test_diagonal_map_scales_coefficients(self):
        rng = np.random.default_rng(2)
        f = random_series(rng, 1, 1, vmax=5, hband=3, nterms=10)
        m = mild_map()
        got = compose_with_map(f, m, hband=6)
        for (k, P, Q), c in f.coeffs.items():
            want = c * m.lam[0] ** P[0] * m.mu[0] ** Q[0]
            assert got.coeffs.get((k, P, Q), 0.0) == pytest.approx(want)

    def test_binomial_laurent_expansion(self):
        # f = h^-1 against the closed form
        # (lam h + c h v^2)^-1 = lam^-1 h^-1 sum_s (-c/lam)^s v^{2s}
        lam = np.exp(2j * np.pi * MILD_E2)
        c = 0.01
        ph = TruncatedSeries.zero(1, 1, 1, 6, 20)
        ph.coeffs[(0, (1,), (2,))] = c
        pv = TruncatedSeries.zero(1, 1, 1, 6, 20)
        m = DeckMap(lam=[lam], mu=[1.0], pert_h=ph, pert_v=pv)
        f = TruncatedSeries.monomial(1, 1, 0, (-1,), (0,), 1.0,
                                     components=1, vmax=6, hband=20)
        comp = compose_with_map(f, m, hband=20)
        for s in range(4):
            want = (1 / lam) * (-c / lam) ** s
            assert comp.get(0, (-1,), (2 * s,)) == pytest.approx(want)
        assert len(comp.coeffs) == 4

    @pytest.mark.parametrize("seed", range(3))
    def test_pointwise_evaluation_oracle(self, seed):
        # perturbations well below |lam| and small |v| keep the composite's
        # vertical tail beyond vmax negligible, so point evaluation of the
        # truncated composition must match evaluating f after the map
        rng = np.random.default_rng(40 + seed)
        f = random_series(rng, 1, 1, vmax=6, hband=2, nterms=10)
        m = mild_map(rng, vmax=6, hband=30, scale=1e-5)
        comp = compose_with_map(f.with_window(hband=30), m, hband=30)
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
        f = random_series(rng, 1, 1, vmax=6, hband=2, nterms=8, min_vdeg=2)
        m = mild_map(rng, vmax=6, hband=20)
        full = compose_with_map(f.with_window(hband=20), m, hband=20)
        low = compose_with_map(f.restrict(vmax=4).with_window(hband=20), m,
                               vmax=4, hband=20)
        assert full.restrict(vmax=4).max_coeff_diff(low) < 1e-13


class TestComposeAndInvert:
    def test_compose_maps_diagonal_parts_multiply(self):
        rng = np.random.default_rng(3)
        m1, m2 = mild_map(rng), mild_map(rng)
        both = compose_maps(m1, m2)
        assert both.lam[0] == pytest.approx(m1.lam[0] * m2.lam[0])
        assert both.mu[0] == pytest.approx(m1.mu[0] * m2.mu[0])

    def test_invert_map_roundtrip(self):
        rng = np.random.default_rng(5)
        m = mild_map(rng, vmax=5, hband=16)
        minv = invert_map(m)
        comp = compose_maps(m, minv, hband=8)
        scale = max(1.0, minv.pert_scale())
        assert comp.pert_h.max_abs() < 1e-12 * scale
        assert comp.pert_v.max_abs() < 1e-12 * scale
        assert comp.lam[0] == pytest.approx(1.0)
        assert comp.mu[0] == pytest.approx(1.0)

    def test_invert_both_orders(self):
        rng = np.random.default_rng(6)
        m = mild_map(rng, vmax=5, hband=16)
        minv = invert_map(m)
        comp = compose_maps(minv, m, hband=8)
        scale = max(1.0, minv.pert_scale())
        assert comp.pert_h.max_abs() < 1e-12 * scale
        assert comp.pert_v.max_abs() < 1e-12 * scale

    def test_conjugation_by_vertical_preserves_diagonal(self):
        rng = np.random.default_rng(7)
        m = mild_map(rng, vmax=5, hband=16)
        G = random_series(rng, 1, 1, components=1, vmax=5, hband=2,
                          nterms=5, min_vdeg=2, scale=1e-2).with_window(hband=16)
        conj = conjugate_by_vertical(m, G)
        assert conj.lam[0] == pytest.approx(m.lam[0])
        assert conj.mu[0] == pytest.approx(m.mu[0])

    def test_conjugation_undone_by_inverse_correction(self):
        rng = np.random.default_rng(8)
        m = mild_map(rng, vmax=5, hband=16)
        G = random_series(rng, 1, 1, components=1, vmax=5, hband=2,
                          nterms=5, min_vdeg=2, scale=1e-2).with_window(hband=16)
        H = invert_vertical_map(G)
        back = conjugate_by_vertical(conjugate_by_vertical(m, G), H)
        scale = max(1.0, m.pert_scale())
        assert back.pert_h.max_coeff_diff(m.pert_h) < 1e-12 * scale
        assert back.pert_v.max_coeff_diff(m.pert_v) < 1e-12 * scale


def full_window_invert_map(m):
    """The fixed-point map inversion with every sweep on the full window."""
    n, d = m.n, m.d
    vmax, hband = m.pert_h.vmax, m.pert_h.hband
    inv = DeckMap(lam=1.0 / m.lam, mu=1.0 / m.mu,
                  pert_h=TruncatedSeries.zero(n, d, n, vmax, hband),
                  pert_v=TruncatedSeries.zero(n, d, d, vmax, hband))
    for _ in range(vmax + 1):
        a_of = compose_with_map(m.pert_h, inv, vmax=vmax, hband=hband)
        b_of = compose_with_map(m.pert_v, inv, vmax=vmax, hband=hband)
        new_h = scale_components(a_of, 1.0 / m.lam).scale(-1.0)
        new_v = scale_components(b_of, 1.0 / m.mu).scale(-1.0)
        done = new_h.max_coeff_diff(inv.pert_h) == 0.0 and \
            new_v.max_coeff_diff(inv.pert_v) == 0.0
        inv = DeckMap(lam=inv.lam, mu=inv.mu, pert_h=new_h, pert_v=new_v)
        if done:
            break
    return inv


def coeff_bits(f):
    return (f.vmax, f.hband,
            [(k, P, Q, c.real.hex(), c.imag.hex()) for k, P, Q, c in f.terms()])


class TestWindowedInvertMap:
    @pytest.mark.parametrize("n,d,vmax", [(1, 1, 5), (1, 1, 7), (2, 1, 5),
                                          (1, 2, 4)])
    def test_matches_full_window_loop(self, n, d, vmax):
        rng = np.random.default_rng(40 + 10 * n + d + vmax)
        lam = np.exp(2j * np.pi * np.array([MILD_E2, 0.2 + 0.03j][:n]))
        mu = np.exp(2j * np.pi * np.array([GOLDEN, np.sqrt(2) - 1][:d]))
        ph = random_series(rng, n, d, components=n, vmax=vmax, hband=2,
                           nterms=6, min_vdeg=2, scale=1e-3)
        pv = random_series(rng, n, d, components=d, vmax=vmax, hband=2,
                           nterms=6, min_vdeg=2, scale=1e-3)
        m = DeckMap(lam=lam, mu=mu, pert_h=ph.with_window(hband=12),
                    pert_v=pv.with_window(hband=12))
        got, want = invert_map(m), full_window_invert_map(m)
        assert coeff_bits(got.pert_h) == coeff_bits(want.pert_h)
        assert coeff_bits(got.pert_v) == coeff_bits(want.pert_v)
        assert got.pert_v.homogeneous_part(vmax).max_abs() > 0

    def test_sweep_windows(self, monkeypatch):
        # sweep s works through degree s + 2, then one full sweep
        import toruslin.deckmaps as deckmaps_mod
        seen = []
        real = deckmaps_mod.compose_with_map

        def recording(f, m, vmax=None, hband=None):
            seen.append(vmax)
            return real(f, m, vmax=vmax, hband=hband)

        monkeypatch.setattr(deckmaps_mod, "compose_with_map", recording)
        invert_map(mild_map(np.random.default_rng(3), vmax=6, hband=16))
        assert seen == [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 6]


def chained_add_compose(f, m, vmax=None, hband=None):
    """compose_with_map with every sum rebuilt by a chain of ``add``.

    The binomial series and the group sums are formed as
    ``piece = piece.add(term)``, each step a new series.
    """
    vmax = f.vmax if vmax is None else vmax
    hband = f.hband if hband is None else hband
    n, d = f.n, f.d
    pw = max(m.pert_h.hband + 1, m.pert_v.hband, 1)
    work = max(hband, f.hband) + (vmax // 2) * pw
    hwin = max(vmax - f.v_order(), 0)
    smax = hwin // 2
    upow = []
    for k in range(n):
        ek = tuple(-1 if t == k else 0 for t in range(n))
        u = m.pert_h.component(k).cut(hwin).with_window(vmax=hwin, hband=work)
        u = u.shift_h(ek).scale(1.0 / m.lam[k])
        upow.append([None, u])
        for _ in range(2, smax + 1):
            upow[k].append(upow[k][-1].mul(u))
    vpow = []
    for j in range(d):
        ej = tuple(1 if t == j else 0 for t in range(d))
        w = TruncatedSeries.monomial(n, d, 0, (0,) * n, ej, m.mu[j],
                                     components=1, vmax=vmax, hband=work)
        w = w.add(m.pert_v.component(j).with_window(vmax=vmax, hband=work))
        vpow.append([None, w])
        for _ in range(2, vmax + 1):
            vpow[j].append(vpow[j][-1].mul(w))
    one = TruncatedSeries.monomial(n, d, 0, (0,) * n, (0,) * d, 1.0,
                                   components=1, vmax=hwin, hband=work)

    def binom_power_series(P):
        acc, lam_fac = one, 1.0 + 0.0j
        for k, p in enumerate(P):
            lam_fac *= m.lam[k] ** int(p)
            if p == 0 or smax == 0:
                continue
            piece = one
            for s in range(1, smax + 1):
                if _gen_binom(int(p), s):
                    piece = piece.add(upow[k][s].scale(_gen_binom(int(p), s)))
            acc = piece if acc is one else acc.mul(piece)
        return acc.shift_h(P).scale(lam_fac)

    out = TruncatedSeries(n, d, f.components, vmax, work,
                          tailflag=f.tailflag, discarded=f.discarded)
    groups, hcache = {}, {}
    for k, P, Q, c in f.terms():
        groups.setdefault((k, Q), []).append((P, c))
    for (k, Q), group in sorted(groups.items()):
        hpart = TruncatedSeries.zero(n, d, 1, hwin, work)
        for P, c in group:
            if P not in hcache:
                hcache[P] = binom_power_series(P)
            hpart = hpart.add(hcache[P].scale(c))
        piece = hpart.with_window(vmax=vmax)
        for j, q in enumerate(Q):
            if q:
                piece = piece.mul(vpow[j][q])
        out._accumulate(((k, Pn, Qn), val)
                        for _, Pn, Qn, val in piece.terms())
        out.tailflag |= piece.tailflag
        out.discarded += piece.discarded
    return out.restrict(vmax=vmax, hband=hband)


class TestComposeWithMapInPlaceSums:
    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2)])
    @pytest.mark.parametrize("hband", [None, 3])
    def test_matches_chained_add(self, n, d, hband):
        rng = np.random.default_rng(60 + 10 * n + d)
        vmax = 6
        lam = np.exp(2j * np.pi * np.array([MILD_E2, 0.2 + 0.03j][:n]))
        mu = np.exp(2j * np.pi * np.array([GOLDEN, np.sqrt(2) - 1][:d]))
        ph = random_series(rng, n, d, components=n, vmax=vmax, hband=2,
                           nterms=6, min_vdeg=2, scale=1e-2)
        pv = random_series(rng, n, d, components=d, vmax=vmax, hband=2,
                           nterms=6, min_vdeg=2, scale=1e-2)
        # a truncation record on pert_h reaches the u powers' discarded
        ph = TruncatedSeries(n, d, n, vmax, 2, dict(ph.coeffs),
                             tailflag=True, discarded=1e-9)
        m = DeckMap(lam=lam, mu=mu, pert_h=ph.with_window(hband=12),
                    pert_v=pv.with_window(hband=12))
        f = random_series(rng, n, d, components=2, vmax=vmax, hband=3,
                          nterms=14)
        f = f.add(TruncatedSeries.monomial(n, d, 1, (-2,) * n, (0,) * d, 0.5,
                                           components=2, vmax=vmax, hband=3))
        assert (vmax - f.v_order()) // 2 >= 2 and not m.pert_h.is_zero()
        got = compose_with_map(f, m, hband=hband)
        want = chained_add_compose(f, m, hband=hband)
        assert coeff_bits(got) == coeff_bits(want)
        assert (got.tailflag, got.discarded) == (want.tailflag,
                                                 want.discarded)
        assert got.discarded > 1e-9


class TestComposeWithMapEdges:
    def test_no_u_power_reaches_output(self):
        # ord_v f >= vmax - 1: (1 + u)^p contributes only its constant 1
        rng = np.random.default_rng(12)
        m = mild_map(rng, vmax=6, hband=16)
        lam, mu = m.lam[0], m.mu[0]
        b2 = m.pert_v.homogeneous_part(2)
        for q in (5, 6):
            c = 0.4 - 0.3j
            f = TruncatedSeries.monomial(1, 1, 0, (-2,), (q,), c, vmax=6,
                                         hband=16)
            got = compose_with_map(f, m)
            # c lam^-2 h^-2 (mu^q v^q + q mu^(q-1) v^(q-1) b_2), cut at 6
            want = TruncatedSeries.monomial(1, 1, 0, (0,), (q,), mu ** q,
                                            vmax=6, hband=16)
            if q == 5:
                vq = TruncatedSeries.monomial(1, 1, 0, (0,), (q - 1,),
                                              q * mu ** (q - 1), vmax=6,
                                              hband=16)
                want = want.add(vq.mul(b2))
            want = want.shift_h((-2,)).scale(c * lam ** -2)
            assert got.max_coeff_diff(want) < 1e-15

    def test_zero_series(self):
        m = mild_map(np.random.default_rng(13), vmax=6, hband=16)
        zero = TruncatedSeries.zero(1, 1, 1, 6, 8)
        got = compose_with_map(zero, m, hband=10)
        assert got.is_zero() and not got.coeffs
        assert (got.vmax, got.hband) == (6, 10)
        assert not got.tailflag and got.discarded == 0.0

    def test_keeps_input_truncation_record(self):
        # mass f already lost bounds the error of f o m as well
        f = TruncatedSeries(1, 1, 1, 4, 4, {(0, (1,), (2,)): 0.5 - 0.25j},
                            tailflag=True, discarded=1.0)
        got = compose_with_map(f, identity_map(1, 1, 4, 4))
        assert got.max_coeff_diff(f) == 0.0
        assert got.tailflag and got.discarded == 1.0


class TestDecompose:
    def lattice(self, e2=MILD_E2):
        return LatticeSpec(1, 1, [[1.0], [e2]])

    def raw_map(self, lam, mu, extra=()):
        raw = TruncatedSeries(1, 1, 2, 6, 12)
        raw.coeffs[(0, (1,), (0,))] = lam
        raw.coeffs[(1, (0,), (1,))] = mu
        for (k, P, Q, c) in extra:
            raw.coeffs[(k, P, Q)] = c
        return raw

    def test_already_linear(self):
        lat = self.lattice()
        lam = np.exp(2j * np.pi * MILD_E2)
        raw = self.raw_map(lam, np.exp(2j * np.pi * GOLDEN))
        fam = decompose_deck_family([raw], lat, eps0=0.3, r0=0.6)
        assert fam.maps[0].pert_h.is_zero()
        assert fam.maps[0].pert_v.is_zero()
        assert fam.maps[0].lam[0] == pytest.approx(lam)

    def test_direct_split(self):
        # tau = (T h + h v^2, M v + v^2): pert_h = h v^2, pert_v = v^2
        lat = self.lattice()
        lam = np.exp(2j * np.pi * MILD_E2)
        raw = self.raw_map(lam, np.exp(2j * np.pi * GOLDEN),
                           extra=[(0, (1,), (2,), 1.0),
                                  (1, (0,), (2,), 1.0)])
        fam = decompose_deck_family([raw], lat, eps0=0.3, r0=0.6)
        assert fam.maps[0].pert_h.get(0, (1,), (2,)) == pytest.approx(1.0)
        assert fam.maps[0].pert_v.get(0, (0,), (2,)) == pytest.approx(1.0)

    def test_inverse_computed(self):
        lat = self.lattice()
        lam = np.exp(2j * np.pi * MILD_E2)
        raw = self.raw_map(lam, np.exp(2j * np.pi * GOLDEN),
                           extra=[(0, (1,), (2,), 0.05),
                                  (1, (0,), (2,), -0.04)])
        fam = decompose_deck_family([raw], lat, eps0=0.3, r0=0.6)
        comp = compose_maps(fam.maps[0], fam.inv_maps[0], hband=6)
        scale = max(1.0, fam.inv_maps[0].pert_scale())
        assert comp.pert_h.max_abs() < 1e-12 * scale
        assert comp.pert_v.max_abs() < 1e-12 * scale

    def test_nondiagonal_rejected(self):
        lat = self.lattice()
        lam = np.exp(2j * np.pi * MILD_E2)
        raw = self.raw_map(lam, np.exp(2j * np.pi * GOLDEN),
                           extra=[(1, (1,), (1,), 0.3)])  # v-linear cross term
        with pytest.raises(DeckMapError):
            decompose_deck_family([raw], lat, eps0=0.3, r0=0.6)

    def test_low_order_vertical_rejected(self):
        lat = self.lattice()
        lam = np.exp(2j * np.pi * MILD_E2)
        raw = self.raw_map(lam, np.exp(2j * np.pi * GOLDEN),
                           extra=[(0, (2,), (1,), 0.3)])  # order-1 in h comp
        with pytest.raises(DeckMapError):
            decompose_deck_family([raw], lat, eps0=0.3, r0=0.6)


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
        psi = random_series(rng, 2, 1, components=1, vmax=5, hband=2,
                            nterms=6, min_vdeg=2, scale=1e-2)
        psi = psi.with_window(hband=14)
        maps = []
        for i in range(2):
            diag = DeckMap(lam=data.lam[i], mu=data.mu[i],
                           pert_h=TruncatedSeries.zero(2, 1, 2, 5, 14),
                           pert_v=TruncatedSeries.zero(2, 1, 1, 5, 14))
            maps.append(conjugate_by_vertical(diag, psi))
        if fault is not None:
            maps[0].pert_v.coeffs[(0, (0, 0), (fault,))] = 1e-3
        invs = [invert_map(m) for m in maps]
        return DeckMapFamily(lattice=lat, data=data, maps=maps, inv_maps=invs,
                             eps0=0.3, r0=0.6, hband=2)

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
        G = random_series(rng, 2, 1, components=1, vmax=5, hband=2,
                          nterms=5, min_vdeg=2, scale=1e-3).with_window(hband=14)
        conj = fam.conjugated(G, invert_vertical_map(G))
        after = max(check_commutation(conj, order=5)[(0, 1)].values())
        assert after <= before + 1e-12
