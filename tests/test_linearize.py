import functools

import numpy as np
import pytest

import toruslin
import toruslin.deckmaps as deckmaps_mod
import toruslin.linearize as linearize_mod
from toruslin import LatticeSpec, TruncatedSeries
from toruslin.deckmaps import (DeckMap, compose_map_pairs,
                               conjugate_by_vertical, invert_map)
from toruslin.divisors import MultiplierData, ResonanceError
from toruslin.linearize import (DeckMapFamily, LinearizeError, block_top,
                                build_family, conjugacy_residual, linearize,
                                linearize_step, residual_table)
from toruslin.majorant import build_state, dominance_and_radius
from toruslin.problem import parse_problem
from toruslin.series import substitute_vertical

import toruslin.series as series_mod
from _fixtures import (GOLDEN, conjugated_family, golden_data, golden_family,
                       golden_lattice, lattice2_family, perturbation_records,
                       shipped_family)
from _oracles import (chained_add_compose, coefficient_digest,
                      per_call_ledger, psi_then_invert, random_series,
                      result_digest, substitute_per_record, with_terms)


class TestLinearizeStep:
    def test_already_linear_degree(self):
        fam = golden_family()
        G, H, updated, certs, leftovers = linearize_step(fam, 2, 0.2, 0.5,
                                                         0.19, 0.45)
        assert G.is_zero()
        assert H is G
        assert certs == [None] and leftovers == [0.0]
        assert updated is fam

    def test_hand_computed_degree_two(self):
        # tau*v = c v^2 with mu = -1: G solves T(G) = -c v^2, so G = -(c/2) v^2
        lat = golden_lattice()
        data = MultiplierData(lat.lam_matrix(), [[-1.0]])
        c = 4e-4 + 1e-4j
        fam = build_family(lat, data, [(0, 1, (0,), (2,), c)], 6, 6,
                           eps0=0.3, r0=0.6)
        G, _, updated, _, _ = linearize_step(fam, 2, 0.2, 0.5, 0.19, 0.45)
        assert G.get(0, (0,), (2,)) == pytest.approx(-c / 2.0)
        assert updated.maps[0].pert_v.homogeneous_part(2).max_abs() < 1e-13

    def test_inverse_route_same_correction(self):
        lat = golden_lattice()
        data = MultiplierData(lat.lam_matrix(), [[-1.0]])
        c = 4e-4 + 1e-4j
        fam = build_family(lat, data, [(0, 1, (0,), (2,), c)], 6, 6,
                           eps0=0.3, r0=0.6)
        Gf, *_ = linearize_step(fam, 2, 0.2, 0.5, 0.19, 0.45)
        Gi, *_ = linearize_step(fam.inverse(), 2, 0.2, 0.5, 0.19, 0.45)
        assert Gf.max_coeff_diff(Gi) < 1e-12 * max(1.0, Gf.max_abs())

    def test_lower_degrees_untouched(self):
        # family linear below degree 3; the degree-3 step must not create
        # anything at degree 2 (in h or v rows)
        rng = np.random.default_rng(3)
        fam = golden_family(rng, nterms=10, qrange=(3, 4))
        m = 3
        G, _, updated, _, _ = linearize_step(fam, m, 0.2, 0.5, 0.19, 0.45)
        assert not G.is_zero()
        for old, new in ((fam.maps[0], updated.maps[0]),):
            dh = old.pert_h.homogeneous_part(2).max_coeff_diff(
                new.pert_h.homogeneous_part(2))
            dv = old.pert_v.homogeneous_part(2).max_coeff_diff(
                new.pert_v.homogeneous_part(2))
            assert max(dh, dv) < 1e-14

    def test_forward_step_derives_fresh_inverses(self):
        # the forward route conjugates only maps; the inverses of the
        # conjugated family must then come from its own maps, not the input's
        rng = np.random.default_rng(5)
        fam = golden_family(rng, nterms=8)
        assert len(fam.inv_maps) == 1  # the input's inverses, now cached
        _, _, updated, _, _ = linearize_step(fam, 2, 0.2, 0.5, 0.19, 0.45)
        comp = compose_map_pairs([(updated.maps[0], updated.inv_maps[0])])[0]
        scale = max(1.0, updated.inv_maps[0].pert_scale())
        assert comp.pert_h.max_abs() < 1e-12 * scale
        assert comp.pert_v.max_abs() < 1e-12 * scale

    def test_inverse_family_is_an_involution(self):
        rng = np.random.default_rng(6)
        fam = golden_family(rng, nterms=8)
        inv = fam.inverse()
        assert inv.maps is fam.inv_maps and inv.inv_maps is fam.maps
        assert inv.inverse().maps is fam.maps
        assert np.array_equal(inv.data.lam, 1.0 / fam.data.lam)
        assert np.array_equal(inv.data.mu, 1.0 / fam.data.mu)

    def test_precondition_guard(self):
        rng = np.random.default_rng(4)
        fam = golden_family(rng, nterms=10, qrange=(2, 2))
        with pytest.raises(LinearizeError):
            linearize_step(fam, 3, 0.2, 0.5, 0.19, 0.45)


class TestLinearize:
    def test_linear_family_trivial(self):
        fam = golden_family()
        result = linearize(fam, order=4, eps1=0.2, r1=0.5, pmax=6, qmax=6)
        assert result.phi_v.is_zero()
        for rec in result.residuals.values():
            assert max(rec["per_degree"].values()) == 0.0

    def test_recovers_known_conjugation(self):
        rng = np.random.default_rng(7)
        psi = random_series(rng, 1, 1, components=1, vmax=6, pmax=1,
                            nterms=6, min_vdeg=2, scale=1e-3)
        fam, psi_w = conjugated_family(psi, vmax=6)
        result = linearize(fam, order=6, eps1=0.2, r1=0.5, pmax=8, qmax=8)
        assert result.phi_v.max_coeff_diff(psi_w) < 1e-10

    def test_residuals_small_random_family(self):
        rng = np.random.default_rng(11)
        fam = golden_family(rng, vmax=6, nterms=8)
        result = linearize(fam, order=6, eps1=0.2, r1=0.5, pmax=8, qmax=8)
        for m, worst in residual_table(result):
            assert worst <= 1e-9, (m, worst)
        # the linearized family really is vertically linear through order 6
        for mp in result.linearized.maps:
            assert mp.pert_v.up_to_degree(6).max_abs() < 1e-9

    def test_dual_route_agreement(self):
        rng = np.random.default_rng(13)
        fam = golden_family(rng, vmax=5, nterms=6)
        fwd = linearize(fam, order=5, eps1=0.2, r1=0.5, pmax=8, qmax=8)
        inv = linearize(fam, order=5, eps1=0.2, r1=0.5, route="inverse",
                        pmax=8, qmax=8)
        assert fwd.phi_v.max_coeff_diff(inv.phi_v) < 1e-10

    def test_order_above_vmax_rejected(self):
        fam = golden_family(vmax=6)
        with pytest.raises(ValueError, match="vmax"):
            linearize(fam, order=7, eps1=0.2, r1=0.5, pmax=6, qmax=6)

    @staticmethod
    def record_calls(monkeypatch, route, name):
        """The first argument of each call of ``name`` from linearize and
        deckmaps, shipped order."""
        p = parse_problem(toruslin.reference_problem_path())
        run = p.run
        fam = build_family(p.lattice, p.data, p.pert_records, run["vmax"],
                           eps0=run["epsilon"], r0=run["radius"])
        calls = []
        for mod in (linearize_mod, deckmaps_mod):
            def counting(first, *args, real=getattr(mod, name), **kw):
                calls.append(first)
                return real(first, *args, **kw)

            monkeypatch.setattr(mod, name, counting)
        order = run["order"]
        linearize(fam, order, run["epsilon"], run["radius"], route=route,
                  pmax=12, qmax=12)
        return calls, order, fam

    @classmethod
    def count_calls(cls, monkeypatch, route, name):
        """Calls of ``name`` from linearize and deckmaps, shipped order."""
        calls, order, fam = cls.record_calls(monkeypatch, route, name)
        return len(calls), order, fam.n

    # at the shipped order 8 the degree loop conjugates once per block
    # [2], [3, 4], [5, 6], [7, 8]: 4 times, where one degree per
    # conjugation took 7, and each time it conjugates the family's maps in
    # one call

    def test_forward_conjugates_maps_once_per_degree(self, monkeypatch):
        calls, order, fam = self.record_calls(monkeypatch, "forward",
                                              "conjugate_maps")
        assert (order, [len(maps) for maps in calls]) == (8, [fam.n] * 4)
        # the first block conjugates the family's own maps
        assert all(a is b for a, b in zip(calls[0], fam.maps))

    def test_inverse_conjugates_one_list_per_degree(self, monkeypatch):
        calls, order, fam = self.record_calls(monkeypatch, "inverse",
                                              "conjugate_maps")
        assert (order, [len(maps) for maps in calls]) == (8, [fam.n] * 4)

    @pytest.mark.parametrize("route", ["forward", "inverse"])
    def test_one_vertical_inversion_per_degree(self, monkeypatch, route):
        # each block inverts its own G once; the loop never inverts an
        # accumulated series
        calls, order, _ = self.count_calls(monkeypatch, route,
                                           "invert_vertical_map")
        assert (order, calls) == (8, 4)

    def test_one_shift_table_per_series(self, monkeypatch):
        # each conjugating block substitutes both perturbations of every
        # map and phi_v into its H, and the residual substitutes every
        # perturbation into phi_v: one (v + H)^q table for each.  Every
        # build of a table is counted by its row 0, a _vertical_row call
        import toruslin.series as series_mod
        rows, steps = [], []

        def building(p, j, c, vmax, real=series_mod._vertical_row):
            rows.append((p, j))
            return real(p, j, c, vmax)

        def stepping(*args, real=linearize_mod.linearize_step, **kw):
            steps.append(real(*args, **kw))
            return steps[-1]

        monkeypatch.setattr(series_mod, "_vertical_row", building)
        monkeypatch.setattr(linearize_mod, "linearize_step", stepping)
        p = parse_problem(toruslin.reference_problem_path())
        run = p.run
        fam = build_family(p.lattice, p.data, p.pert_records, 8,
                           eps0=run["epsilon"], r0=run["radius"])
        result = linearize(fam, 8, run["epsilon"], run["radius"], pmax=12,
                           qmax=12)
        built = [p for p, j in rows if j == 0]
        Hs = [H for _, H, _, certs, _ in steps
              if any(c is not None for c in certs)]
        assert len(Hs) == 4
        assert [sum(phi is H for phi in built) for H in Hs] == [1] * 4
        assert sum(phi is result.phi_v for phi in built) == 1
        # no row goes past vmax - ord phi + 1, where (v + phi)^q holds v^q
        # alone inside the window
        for phi in built:
            for vmax, rows in (phi._shift or {}).items():
                assert max(map(len, rows)) - 1 <= vmax - phi.v_order() + 1

    @pytest.mark.parametrize("order", [8, 12])
    @pytest.mark.parametrize("route", ["forward", "inverse"])
    def test_phi_v_matches_psi_then_invert(self, order, route):
        p = parse_problem(toruslin.reference_problem_path())
        run = p.run
        fam = build_family(p.lattice, p.data, p.pert_records, order,
                           eps0=run["epsilon"], r0=run["radius"])
        result = linearize(fam, order, run["epsilon"], run["radius"],
                           route=route, pmax=12, qmax=12)
        oracle = psi_then_invert(result)
        assert result.phi_v.max_abs() > 1e-4
        assert result.phi_v.max_coeff_diff(oracle) <= 1e-18
        assert result.phi_v.tailflag is True and result.phi_v.discarded > 0

    def test_reference_phi_v_records_its_tail(self):
        # phi_v <- H + phi_v(h, v + H) drops what its power products put
        # above vmax, and the truncation record says so
        p = parse_problem(toruslin.reference_problem_path())
        run = p.run
        fam = build_family(p.lattice, p.data, p.pert_records, run["vmax"],
                           eps0=run["epsilon"], r0=run["radius"])
        result = linearize(fam, run["order"], run["epsilon"], run["radius"],
                           pmax=12, qmax=12)
        assert result.phi_v.tailflag is True
        assert 0 < result.phi_v.discarded < result.phi_v.max_abs()
        assert result.phi_v.homogeneous_part(run["order"]).max_abs() > 0

    def test_wrong_supplied_inverse_fails_cross_check(self):
        rng = np.random.default_rng(23)
        fam = golden_family(rng, vmax=4, nterms=6, qrange=(2, 2))
        invs = [invert_map(m) for m in fam.maps]
        k, P, Q, c = next(invs[0].pert_v.homogeneous_part(2).terms())
        invs[0].pert_v = with_terms(invs[0].pert_v, {(k, P, Q): 2.0 * c})
        bad = DeckMapFamily(lattice=fam.lattice, data=fam.data,
                            maps=fam.maps, inv_maps=invs,
                            eps0=fam.eps0, r0=fam.r0)
        for route in ("forward", "inverse"):
            with pytest.raises(LinearizeError, match="degree-2 forward/"
                               "inverse corrections disagree"):
                linearize(bad, order=4, eps1=0.2, r1=0.5, route=route,
                          pmax=6, qmax=6)
            # the same maps with derived inverses pass the cross-check
            linearize(fam, order=4, eps1=0.2, r1=0.5, route=route,
                      pmax=6, qmax=6)

    def test_resonance_refusal(self):
        lat = golden_lattice()
        data = MultiplierData(lat.lam_matrix(), [[1.0]])
        fam = DeckMapFamily(
            lattice=lat, data=data,
            maps=golden_family().maps, inv_maps=golden_family().inv_maps,
            eps0=0.3, r0=0.6)
        with pytest.raises(ResonanceError) as err:
            linearize(fam, order=4, eps1=0.2, r1=0.5, pmax=4, qmax=4)
        assert err.value.Q == (2,) and err.value.P == (0,)

    def test_residual_identity_case(self):
        fam = golden_family()
        zero = TruncatedSeries.zero(1, 1, 1, 6)
        res = conjugacy_residual(zero, fam, fam, 6)
        assert max(res[0]["per_degree"].values()) == 0.0

    def test_ablation_truncated_phi(self):
        rng = np.random.default_rng(17)
        fam = golden_family(rng, vmax=6, nterms=8)
        result = linearize(fam, order=6, eps1=0.2, r1=0.5, pmax=8, qmax=8)
        cut = result.phi_v.up_to_degree(4)
        res = conjugacy_residual(cut, result.original, result.linearized, 6)
        worst5 = max(rec["per_degree"][5] for rec in res.values())
        full5 = max(rec["per_degree"][5] for rec in result.residuals.values())
        assert worst5 > 10 * max(full5, 1e-12)

    def test_two_generator_family_recovers_conjugation(self):
        # full multi-generator path: commutation gate, family solve at each
        # degree, two-generator ledger; the known answer is psi itself
        lat = LatticeSpec(2, 1, [[1, 0], [0, 1],
                                 [0.31 + 0.07j, 0.5 + 0.02j],
                                 [0.7 + 0.01j, 0.2 + 0.09j]])
        mu = [[np.exp(2j * np.pi * GOLDEN)],
              [np.exp(2j * np.pi * (np.sqrt(2) - 1))]]
        data = MultiplierData(lat.lam_matrix(), mu)
        rng = np.random.default_rng(31)
        vmax = 4
        psi = random_series(rng, 2, 1, components=1, vmax=vmax, pmax=1,
                            nterms=5, min_vdeg=2, scale=1e-3)
        zero_h = TruncatedSeries.zero(2, 1, 2, vmax)
        zero_v = TruncatedSeries.zero(2, 1, 1, vmax)
        maps, invs = [], []
        for i in range(2):
            diag = DeckMap(lam=data.lam[i], mu=data.mu[i],
                           pert_h=zero_h, pert_v=zero_v)
            diag_inv = DeckMap(lam=1 / data.lam[i], mu=1 / data.mu[i],
                               pert_h=zero_h, pert_v=zero_v)
            maps.append(conjugate_by_vertical(diag, psi))
            invs.append(conjugate_by_vertical(diag_inv, psi))
        fam = DeckMapFamily(lattice=lat, data=data, maps=maps, inv_maps=invs,
                            eps0=0.3, r0=0.6)
        result = linearize(fam, order=4, eps1=0.2, r1=0.5, pmax=6, qmax=6)
        assert result.phi_v.max_coeff_diff(psi) < 1e-10
        assert max(w for _, w in residual_table(result)) < 1e-12
        assert set(result.per_degree[2]["translated"]) == \
            {(0, 1), (0, -1), (1, 1), (1, -1)}

    def test_noncommuting_family_rejected(self):
        lat = LatticeSpec(2, 1, [[1, 0], [0, 1],
                                 [0.31 + 0.07j, 0.5 + 0.02j],
                                 [0.7 + 0.01j, 0.2 + 0.09j]])
        mu = [[np.exp(2j * np.pi * GOLDEN)],
              [np.exp(2j * np.pi * (np.sqrt(2) - 1))]]
        data = MultiplierData(lat.lam_matrix(), mu)
        maps = []
        for i in range(2):
            ph = TruncatedSeries.zero(2, 1, 2, 4)
            pv = TruncatedSeries.zero(2, 1, 1, 4)
            if i == 0:  # a perturbation the other generator does not share
                pv = with_terms(pv, {(0, (0, 0), (2,)): 1e-3})
            maps.append(DeckMap(lam=data.lam[i], mu=data.mu[i],
                                pert_h=ph, pert_v=pv))
        from toruslin.deckmaps import invert_map

        fam = DeckMapFamily(lattice=lat, data=data, maps=maps,
                            inv_maps=[invert_map(m) for m in maps],
                            eps0=0.3, r0=0.6)
        with pytest.raises(LinearizeError, match="commute"):
            linearize(fam, order=3, eps1=0.2, r1=0.5, pmax=6, qmax=6)

    def test_ledger_schema(self):
        rng = np.random.default_rng(19)
        fam = golden_family(rng, vmax=5, nterms=5)
        result = linearize(fam, order=4, eps1=0.2, r1=0.5, pmax=6, qmax=6)
        for m in range(2, 5):
            rec = result.per_degree[m]
            assert {"base_norm", "goal_norm", "translated", "eps",
                    "r"} <= set(rec)
            assert rec["eps"] > 0.1 and rec["r"] > 0.5 / np.e
            assert set(rec["translated"]) == {(0, 1), (0, -1)}


def ledger_bits(ledger):
    """Every entry of a norm ledger, floats by their bits, in key order."""
    def spell(value):
        if isinstance(value, dict):
            return [(key, spell(v)) for key, v in value.items()]
        return float(value).hex()
    return spell(ledger)


class TestSharedLedgerGeometry:
    @pytest.mark.parametrize("route", ["forward", "inverse"])
    @pytest.mark.parametrize("case", ["shipped-12", "lattice2-7",
                                      "lattice2-11"])
    def test_matches_per_call_ledger(self, case, route):
        # one norm call per degree over shared domains gives the ledger of
        # one call per entry bit for bit, with 2n translated pairs and 4n
        # word norms per degree
        if case == "shipped-12":
            fam, run = shipped_family(12)
            result = linearize(fam, 12, run["epsilon"], run["radius"],
                               route=route, pmax=run["pmax"],
                               qmax=run["qmax"])
        else:
            fam, _ = lattice2_family(int(case.split("-")[1]))
            result = linearize(fam, 8, 0.2, 0.5, route=route, pmax=6, qmax=6)
        want = per_call_ledger(result.phi_v, fam.lattice, result.eps_m,
                               result.r_m, result.order, fam.n)
        assert ledger_bits(result.per_degree) == ledger_bits(want)
        assert len(result.per_degree[2]["translated"]) == 2 * fam.n
        assert len(result.per_degree[2]["word_norms"]) == 4 * fam.n
        assert result.per_degree[result.order]["base_norm"] > 0


def late_h_family(vmax):
    """The shipped family without its degree-2 ``pert_h`` records, and its
    run settings: its ``pert_h`` starts at vertical degree 3."""
    p = parse_problem(toruslin.reference_problem_path())
    records = [rec for rec in p.pert_records if rec[1] or sum(rec[3]) > 2]
    return build_family(p.lattice, p.data, records, vmax,
                        eps0=p.run["epsilon"], r0=p.run["radius"]), p.run


class TestDegreeBlocks:
    """The degree loop conjugates once per block of degrees m..block_top:
    [2], [3, 4], [5, 6], ... while ``pert_h`` starts at degree 2, and
    longer blocks when it starts later or vanishes."""

    @staticmethod
    def linearized(case, order):
        """A forward linearization at ``order`` of the shipped family, of
        ``late_h_family`` or of ``lattice2_family(7)``."""
        if case == "lattice2":
            fam, _ = lattice2_family(7, vmax=order)
            return linearize(fam, order, eps1=0.2, r1=0.5, pmax=6, qmax=6)
        fam, run = (shipped_family if case == "shipped"
                    else late_h_family)(order)
        return linearize(fam, order, run["epsilon"], run["radius"],
                         pmax=run["pmax"], qmax=run["qmax"])

    @pytest.mark.parametrize("case", ["shipped-12", "lattice2-8",
                                      "lattice2-12", "late-h-12"])
    def test_one_degree_leaves_the_next_alone(self, case):
        # the premise of the blocks, and that block_top is tight:
        # conjugating by (h, v + G_m) alone moves no vertical degree in
        # (m, block_top], so those are solved from the family before that
        # conjugation, and it moves degree block_top + 1.  late-h reaches
        # the m + ord_v a - 1 branch (block [5, 6, 7]), lattice2 the 2m - 2
        # one (block [5..8])
        name, order = case.rsplit("-", 1)
        result = self.linearized(name, int(order))
        family, eps, r = result.original, result.eps_m, result.r_m
        scale = family.pert_scale()
        for m in range(2, result.order):
            top = block_top(family, m, family.vmax)
            G, _, updated, _, _ = linearize_step(
                family, m, float(eps[m - 1]), float(r[m - 1]),
                float(eps[m]), float(r[m]), constants=result.constants)
            moved = [max(old.pert_v.homogeneous_part(q).max_coeff_diff(
                         new.pert_v.homogeneous_part(q))
                         for old, new in zip(family.maps, updated.maps))
                     / scale for q in range(m + 1, top + 2)
                     if q <= family.vmax]
            assert max(moved[:top - m], default=0.0) <= 1e-15, (m, moved)
            if top < family.vmax:
                assert moved[-1] > 1e-6, (m, top, moved)
            family = updated

    @pytest.mark.parametrize("case, order, blocks", [
        ("shipped", 7, [[2], [3, 4], [5, 6], [7]]),
        ("shipped", 8, [[2], [3, 4], [5, 6], [7, 8]]),
        ("lattice2", 8, [[2], [3, 4], [5, 6, 7, 8]]),
        ("lattice2", 12, [[2], [3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]),
        ("late-h", 12, [[2], [3, 4], [5, 6, 7], [8, 9, 10], [11, 12]]),
    ], ids=["odd", "even", "lattice2-8", "lattice2-12", "late-h-12"])
    def test_block_schedule(self, monkeypatch, case, order, blocks):
        seen, conjugations = [], []

        def stepping(family, m, *args, real=linearize_mod.linearize_step,
                     **kw):
            seen.append([m + k for k in range(
                1 + len(kw.get("next_domain") or []))])
            return real(family, m, *args, **kw)

        def conjugating(maps, *args, real=linearize_mod.conjugate_maps):
            conjugations.append((len(seen), len(maps)))
            return real(maps, *args)

        monkeypatch.setattr(linearize_mod, "linearize_step", stepping)
        monkeypatch.setattr(linearize_mod, "conjugate_maps", conjugating)
        result = self.linearized(case, order)
        assert seen == blocks
        # every block conjugates each map once, all maps in one call
        n = result.original.n
        assert conjugations == [(k, n) for k in range(1, len(blocks) + 1)]
        assert len(result.step_records) == order - 1
        for k, rec in enumerate(result.step_records):
            assert rec["m"] == k + 2
            assert rec["gain_bound"] is not None

    @pytest.mark.parametrize("m, top", [(2, 3), (3, 5), (5, 9)],
                             ids=["degree-2", "shipped", "lattice2"])
    def test_block_past_its_top_is_refused_before_solving(self, monkeypatch,
                                                          m, top):
        # one degree past block_top: [2, 3] and [3, 4, 5] on the shipped
        # family, [5..9] on the lattice family at vmax 12
        solved = []

        def solving(family, degree, *args, real=linearize_mod._solve_degree):
            solved.append(degree)
            return real(family, degree, *args)

        monkeypatch.setattr(linearize_mod, "_solve_degree", solving)
        fam = (lattice2_family(7, vmax=12)[0] if m == 5
               else shipped_family(12)[0])
        assert block_top(fam, m, fam.vmax) == top - 1
        domains = [(0.2 - 0.01 * k, 0.5 - 0.02 * k) for k in range(top - m)]
        with pytest.raises(ValueError, match="degree %d cannot share a "
                           "conjugation with degree %d" % (m, top)):
            linearize_step(fam, m, 0.21, 0.52, 0.2, 0.5,
                           next_domain=domains)
        assert solved == []

    def test_block_solves_each_degree_on_its_own_step(self):
        # degrees 3 and 4 of a family linear below 3, from one step: one
        # certificate per degree, on that degree's schedule step, and the
        # family is vertically linear through degree 4 afterwards
        rng = np.random.default_rng(3)
        fam = golden_family(rng, nterms=10, qrange=(3, 4))
        G, H, updated, certs, _ = linearize_step(
            fam, 3, 0.2, 0.5, 0.19, 0.45, next_domain=[(0.18, 0.4)])
        assert len(certs) == 2 and None not in certs
        for cert, q in zip(certs, (3, 4)):
            assert cert.G.max_coeff_diff(G.homogeneous_part(q)) == 0.0
        assert certs[0].bound.value != certs[1].bound.value
        for mp in updated.maps:
            assert mp.pert_v.up_to_degree(4).max_abs() < 1e-14
        assert G.add(substitute_vertical(H, G)).max_abs() < 1e-15

    def test_leftover_guard_checks_the_whole_block(self, monkeypatch):
        # a block that loses its second correction leaves degree 4 behind
        real = linearize_mod._solve_degree

        def losing(family, m, *args):
            G, cert = real(family, m, *args)
            return (G.scale(0.0) if m == 4 else G), cert

        monkeypatch.setattr(linearize_mod, "_solve_degree", losing)
        fam = golden_family(np.random.default_rng(3), nterms=10,
                            qrange=(3, 4))
        with pytest.raises(LinearizeError, match="degree-4 cleanup failed"):
            linearize_step(fam, 3, 0.2, 0.5, 0.19, 0.45,
                           next_domain=[(0.18, 0.4)])

    def test_leftover_guard_checks_every_degree_of_a_long_block(
            self, monkeypatch):
        # in the lattice family's block [5..8], losing the degree-6
        # correction leaves degree 6 behind: the guard reads the whole block
        # and fails it, named by its last degree
        real = linearize_mod._solve_degree

        def losing(family, m, *args):
            G, cert = real(family, m, *args)
            return (G.scale(0.0) if m == 6 else G), cert

        fam, _ = lattice2_family(7, vmax=12)
        fam = linearize(fam, 4, eps1=0.2, r1=0.5, pmax=6, qmax=6).linearized
        monkeypatch.setattr(linearize_mod, "_solve_degree", losing)
        with pytest.raises(LinearizeError, match="degree-8 cleanup failed"):
            linearize_step(fam, 5, 0.2, 0.5, 0.19, 0.45, next_domain=[
                (0.18, 0.4), (0.17, 0.35), (0.16, 0.3)])

    def test_relative_residual_at_order_16(self):
        # every degree keeps at least nine digits relative to the largest
        # coefficient of phi at that degree (4.1e-10 measured at m = 16)
        fam, run = shipped_family(16)
        result = linearize(fam, 16, run["epsilon"], run["radius"],
                           pmax=run["pmax"], qmax=run["qmax"])
        for m, worst in residual_table(result):
            size = result.phi_v.homogeneous_part(m).max_abs()
            assert size > 0 and worst <= 1e-9 * size, (m, worst / size)


def exact(f):
    """Window, truncation record and coefficients as exact bit patterns."""
    return (f.components, f.vmax, f.tailflag, f.discarded.hex(),
            [(k, P, Q, c.real.hex(), c.imag.hex()) for k, P, Q, c in f.terms()])


class TestFanOutSumsInTheLoop:
    """Every substitution and composition a linearization makes, as one
    segment sum each, against the record-by-record oracles, bit for bit."""

    @pytest.mark.parametrize("case", ["shipped-12", "lattice2-7"])
    def test_every_call_matches_per_record_oracle(self, monkeypatch, case):
        calls = {"substitute": 0, "compose": 0}
        real_sub = series_mod.substitute_verticals
        real_comp = deckmaps_mod.compose_with_maps

        def substitute(fs, phi):
            got = real_sub(fs, phi)
            assert len(got) == len(fs)
            for f, out in zip(fs, got):
                assert exact(out) == exact(substitute_per_record(f, phi))
                calls["substitute"] += 1
            return got

        def compose(jobs):
            got = real_comp(jobs)
            assert len(got) == len(jobs)
            for (f, m, vmax), out in zip(jobs, got):
                assert exact(out) == exact(chained_add_compose(f, m, vmax))
                calls["compose"] += 1
            return got

        for mod in (series_mod, deckmaps_mod, linearize_mod):
            monkeypatch.setattr(mod, "substitute_verticals", substitute)
        for mod in (deckmaps_mod, linearize_mod):
            monkeypatch.setattr(mod, "compose_with_maps", compose)
        if case == "shipped-12":
            fam, run = shipped_family(12)
            linearize(fam, 12, run["epsilon"], run["radius"], pmax=run["pmax"],
                      qmax=run["qmax"])
        else:
            fam, psi = lattice2_family(7)
            result = linearize(fam, order=8, eps1=0.2, r1=0.5, pmax=6, qmax=6)
            assert result.phi_v.max_coeff_diff(psi) < 1e-10
        # every substitution and composition of the run, as when each was
        # its own call
        assert calls == ({"substitute": 44, "compose": 9}
                         if case == "shipped-12"
                         else {"substitute": 67, "compose": 16})


def run_case(case, route="forward"):
    """The linearization of a named family: the shipped perturbation at
    order 8 or 12, or ``lattice2_family(seed)`` at order 8."""
    if case.startswith("shipped"):
        order = int(case.split("-")[1])
        fam, run = shipped_family(order)
        return linearize(fam, order, run["epsilon"], run["radius"],
                         route=route, pmax=run["pmax"], qmax=run["qmax"])
    fam, _ = lattice2_family(int(case.split("-")[1]))
    return linearize(fam, order=8, eps1=0.2, r1=0.5, route=route, pmax=6,
                     qmax=6)


class TestExactlyLinearThroughEachBlock:
    """Each block leaves the family with no vertical perturbation term
    through its last degree; the residue it drops is what the guard read,
    recorded per degree, and goes to the residual."""

    @pytest.mark.parametrize("route", ["forward", "inverse"])
    @pytest.mark.parametrize("case", ["shipped-12", "lattice2-7"])
    def test_no_term_through_the_block(self, monkeypatch, case, route):
        dropped = []

        def stepping(family, m, *args, real=linearize_mod.linearize_step,
                     **kw):
            top = m + len(kw.get("next_domain") or [])
            G, H, updated, certs, leftovers = real(family, m, *args, **kw)
            for mp in updated.maps:
                assert mp.pert_v.up_to_degree(top).nterms() == 0, (m, top)
            # what the step dropped, per degree, is what it recorded
            assert leftovers == [max(mp.pert_v.homogeneous_part(q).max_abs()
                                     for mp in dropped[-1].maps)
                                 for q in range(m, top + 1)]
            return G, H, updated, certs, leftovers

        def truncating(family, top,
                       real=DeckMapFamily.vertically_linear_through):
            dropped.append(family)
            return real(family, top)

        monkeypatch.setattr(linearize_mod, "linearize_step", stepping)
        monkeypatch.setattr(DeckMapFamily, "vertically_linear_through",
                            truncating)
        result = run_case(case, route)
        assert len(dropped) == (6 if case == "shipped-12" else 3)
        assert all(mp.pert_v.nterms() == 0 for mp in result.linearized.maps)
        leftovers = [rec["leftover"] for rec in result.step_records]
        assert len(leftovers) == result.order - 1
        scale = max(result.original.pert_scale(), 1.0)
        assert 0 < max(leftovers) <= linearize_mod.LINEARIZE_TOL * scale

    def test_residue_is_rounding(self):
        # what each block drops, and the residual that now carries it, stay
        # within a few ulps of the perturbation's size (at most 9.5e-16 of
        # it when pinned, at m = 8)
        result = run_case("shipped-8")
        scale = result.original.pert_scale()
        worst = dict(residual_table(result))
        for rec in result.step_records:
            assert rec["leftover"] <= 1e-14 * scale, rec["m"]
            assert worst[rec["m"]] <= 1e-14 * scale, rec["m"]

    def test_kernel_pairs_per_linearization(self, monkeypatch):
        # the pairs of operand terms the product kernel examines in a
        # forward order-12 shipped linearization: 616,016 when pinned
        # (616,017 while each composition formed every u power up to its
        # window, read or not), 708,202 before the u cut, 1,120,431 while
        # the solves' residue stayed in the family and every later
        # conjugation multiplied through it
        pairs = []
        real = series_mod.cauchy_products

        def counted(jobs, *args):
            pairs.extend(len(job[1]) * len(job[3]) for job in jobs)
            return real(jobs, *args)

        monkeypatch.setattr(series_mod, "cauchy_products", counted)
        run_case("shipped-12")
        assert 0 < sum(pairs) <= 616_016

    @staticmethod
    def kernel_calls(monkeypatch, case):
        """The product-kernel calls, the products they form and the segment
        sums of a forward linearization of ``case``."""
        calls = {"cauchy_products": 0, "products": 0, "segment_sum": 0}

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                if name == "cauchy_products":
                    calls["products"] += len(args[0])
                return real(*args)
            return counted

        for name in ("cauchy_products", "segment_sum"):
            monkeypatch.setattr(series_mod, name,
                                counting(name, getattr(series_mod, name)))
        run_case(case)
        return calls

    def test_kernel_calls_per_linearization(self, monkeypatch):
        # the product-kernel calls, the products they form and the segment
        # sums of a forward order-12 shipped linearization: a change that
        # makes each call cheaper keeps all three, and one that stops
        # batching independent products raises the first.  Before the
        # batched kernel, one call formed one product: 145 calls and 138
        # segment sums
        assert self.kernel_calls(monkeypatch, "shipped-12") == {
            "cauchy_products": 117, "products": 144, "segment_sum": 120}

    def test_kernel_calls_per_lattice_linearization(self, monkeypatch):
        # the same counts for the n = 2 lattice family at order 8, where
        # every round conjugates two maps and checks their commutation:
        # 275 one-product calls and 238 segment sums before the batched
        # kernel, 185 calls, 275 products and 172 segment sums while the
        # loop conjugated two degrees at a time, not [5..8] at once
        assert self.kernel_calls(monkeypatch, "lattice2-7") == {
            "cauchy_products": 178, "products": 264, "segment_sum": 159}


def test_result_digest_is_reproducible():
    # two runs from fresh families give the same digest, and it changes
    # with the route
    def digest(route):
        fam, run = shipped_family(8)
        result = linearize(fam, 8, run["epsilon"], run["radius"],
                           route=route, pmax=run["pmax"], qmax=run["qmax"])
        state = build_state(8, result.constants, 1, 1, run["epsilon"],
                            run["radius"])
        return result_digest(result, dominance_and_radius(result, state))

    first = digest("forward")
    assert len(first) == 64 and first == digest("forward")
    assert digest("inverse") != first


# result_digest of each run_case case and route.  A change that leaves the
# outputs bit for bit the same keeps these; one that moves a coefficient,
# a flag, a ``discarded`` or a certificate row by one bit does not.
PINNED_DIGESTS = {
    ("shipped-8", "forward"):
        "e2b02802be5aca48787c69d7c060ca8fe4c4c9d6d853f7442bce990eb386f7f8",
    ("shipped-8", "inverse"):
        "41b9628eb1e7ecbe13d3cce807fd56f77743bb017900ff9e87b14f7957bcced6",
    ("shipped-12", "forward"):
        "4cd9e5c188a809ff0ae0ef37bbc863cca26e80261081db6bc78e88581d5106cc",
    ("shipped-12", "inverse"):
        "d094c2e5da1cc653825c6b91f3f92b46a06e7b82637df5d8597f56e5c6cda9a5",
    ("lattice2-7", "forward"):
        "d621cccdc886d6d299f5847b44b5c8e9539088bd6ef5766ce40022dedf232a16",
    ("lattice2-7", "inverse"):
        "dcfbdfa4e9400944b69defbd744aeca715c6602c9be7a6d4d4e61bd0f449072f",
    ("lattice2-11", "forward"):
        "0fdb71a3acc9a1ddef240788eee88fb9bb62d9cbe31959847ad5ce842356fe03",
    ("lattice2-11", "inverse"):
        "ba6af3308f1afb3fe5dd8d338df610c3e3e6f8ac54c44df7fa01ee2e644e6892",
}


# coefficient_digest of the same cases: the outputs without any series'
# truncation record.  A change to what a series records as dropped above
# vmax keeps these; one that moves a coefficient or a certificate row by one
# bit does not.
PINNED_COEFFICIENT_DIGESTS = {
    ("shipped-8", "forward"):
        "dd0ad45da237cc64bdaf9df9f5114ba832f5da9cf255e61b932c89f4c69e9c12",
    ("shipped-8", "inverse"):
        "9a343b5708fa42ce650f3ad832748d90895c663cf37d968f8799155ffef5186c",
    ("shipped-12", "forward"):
        "c7ba69a1ca2e49699461b683f18bd671f5388df61b1f1da5bb02b307cf91b954",
    ("shipped-12", "inverse"):
        "5a69711e6e62243fbfa2bc07ab2bce756956835670e27bbd7b8c89656558aeae",
    ("lattice2-7", "forward"):
        "15a2a6b43bbc31238eee4c74587ef3b337c59f2c9505e57e426d9857f8e1182f",
    ("lattice2-7", "inverse"):
        "1fab79edc960372fc62927e209de6649726c8c190a5023d069dea56c20843cca",
    ("lattice2-11", "forward"):
        "92cb21dfd1f22967947a7d391d2daae87f9826caebbe8a46e43f012aaf963c20",
    ("lattice2-11", "inverse"):
        "cede9eddbb078a3e7cacd7b40ca26858058457c2dda9e3a9565f2a897814c160",
}


@functools.lru_cache(maxsize=None)
def case_digests(case, route):
    """The result_digest and coefficient_digest of a run_case case."""
    result = run_case(case, route)
    state = build_state(result.order, result.constants, result.phi_v.n,
                        result.phi_v.d, float(result.eps_m[1]),
                        float(result.r_m[1]))
    certificate = dominance_and_radius(result, state)
    return (result_digest(result, certificate),
            coefficient_digest(result, certificate))


@pytest.mark.parametrize("case,route", sorted(PINNED_DIGESTS))
def test_outputs_are_pinned(case, route):
    assert case_digests(case, route)[0] == PINNED_DIGESTS[case, route]


@pytest.mark.parametrize("case,route", sorted(PINNED_COEFFICIENT_DIGESTS))
def test_coefficients_are_pinned(case, route):
    assert case_digests(case, route)[1] == \
        PINNED_COEFFICIENT_DIGESTS[case, route]
