import numpy as np
import pytest

import toruslin
import toruslin.deckmaps as deckmaps_mod
import toruslin.linearize as linearize_mod
from toruslin import LatticeSpec, TruncatedSeries
from toruslin.deckmaps import (DeckMap, compose_maps, conjugate_by_vertical,
                               invert_map)
from toruslin.divisors import MultiplierData, ResonanceError
from toruslin.linearize import (DeckMapFamily, LinearizeError, build_family,
                                conjugacy_residual, linearize, linearize_step,
                                residual_table)
from toruslin.problem import parse_problem

from _fixtures import (GOLDEN, conjugated_family, golden_data, golden_family,
                       golden_lattice, perturbation_records)
from _oracles import psi_then_invert, random_series


class TestLinearizeStep:
    def test_already_linear_degree(self):
        fam = golden_family()
        G, H, updated, cert = linearize_step(fam, 2, 0.2, 0.5, 0.19, 0.45)
        assert G.is_zero()
        assert H is G
        assert cert is None
        assert updated is fam

    def test_hand_computed_degree_two(self):
        # tau*v = c v^2 with mu = -1: G solves T(G) = -c v^2, so G = -(c/2) v^2
        lat = golden_lattice()
        data = MultiplierData(lat.lam_matrix(), [[-1.0]])
        c = 4e-4 + 1e-4j
        fam = build_family(lat, data, [(0, 1, (0,), (2,), c)], 6, 6,
                           eps0=0.3, r0=0.6)
        G, _, updated, _ = linearize_step(fam, 2, 0.2, 0.5, 0.19, 0.45)
        assert G.get(0, (0,), (2,)) == pytest.approx(-c / 2.0)
        assert updated.maps[0].pert_v.homogeneous_part(2).max_abs() < 1e-13

    def test_inverse_route_same_correction(self):
        lat = golden_lattice()
        data = MultiplierData(lat.lam_matrix(), [[-1.0]])
        c = 4e-4 + 1e-4j
        fam = build_family(lat, data, [(0, 1, (0,), (2,), c)], 6, 6,
                           eps0=0.3, r0=0.6)
        Gf, _, _, _ = linearize_step(fam, 2, 0.2, 0.5, 0.19, 0.45)
        Gi, _, _, _ = linearize_step(fam.inverse(), 2, 0.2, 0.5, 0.19,
                                     0.45)
        assert Gf.max_coeff_diff(Gi) < 1e-12 * max(1.0, Gf.max_abs())

    def test_lower_degrees_untouched(self):
        # family linear below degree 3; the degree-3 step must not create
        # anything at degree 2 (in h or v rows)
        rng = np.random.default_rng(3)
        fam = golden_family(rng, nterms=10, qrange=(3, 4))
        m = 3
        G, _, updated, _ = linearize_step(fam, m, 0.2, 0.5, 0.19, 0.45)
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
        _, _, updated, _ = linearize_step(fam, 2, 0.2, 0.5, 0.19, 0.45)
        comp = compose_maps(updated.maps[0], updated.inv_maps[0], hband=6)
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
        psi = random_series(rng, 1, 1, components=1, vmax=6, hband=1,
                            nterms=6, min_vdeg=2, scale=1e-3)
        fam, psi_w = conjugated_family(psi, vmax=6, hband=6)
        result = linearize(fam, order=6, eps1=0.2, r1=0.5, pmax=8, qmax=8)
        assert result.phi_v.max_coeff_diff(psi_w) < 1e-10

    def test_residuals_small_random_family(self):
        rng = np.random.default_rng(11)
        fam = golden_family(rng, vmax=6, hband=6, nterms=8)
        result = linearize(fam, order=6, eps1=0.2, r1=0.5, pmax=8, qmax=8)
        for m, worst in residual_table(result):
            assert worst <= 1e-9, (m, worst)
        # the linearized family really is vertically linear through order 6
        for mp in result.linearized.maps:
            assert mp.pert_v.up_to_degree(6).max_abs() < 1e-9

    def test_dual_route_agreement(self):
        rng = np.random.default_rng(13)
        fam = golden_family(rng, vmax=5, hband=5, nterms=6)
        fwd = linearize(fam, order=5, eps1=0.2, r1=0.5, pmax=8, qmax=8)
        inv = linearize(fam, order=5, eps1=0.2, r1=0.5, route="inverse",
                        pmax=8, qmax=8)
        assert fwd.phi_v.max_coeff_diff(inv.phi_v) < 1e-10

    def test_order_above_vmax_rejected(self):
        fam = golden_family(vmax=6)
        with pytest.raises(ValueError, match="vmax"):
            linearize(fam, order=7, eps1=0.2, r1=0.5, pmax=6, qmax=6)

    @staticmethod
    def count_calls(monkeypatch, route, name):
        """Calls of ``name`` from linearize and deckmaps, shipped order."""
        p = parse_problem(toruslin.reference_problem_path())
        run = p.run
        fam = build_family(p.lattice, p.data, p.pert_records, run["vmax"],
                           run["hband"], eps0=run["epsilon"],
                           r0=run["radius"])
        calls = []
        for mod in (linearize_mod, deckmaps_mod):
            def counting(*args, real=getattr(mod, name), **kw):
                calls.append(1)
                return real(*args, **kw)

            monkeypatch.setattr(mod, name, counting)
        order = run["order"]
        linearize(fam, order, run["epsilon"], run["radius"], route=route,
                  pmax=12, qmax=12)
        return len(calls), order, fam.n

    def test_forward_conjugates_maps_once_per_degree(self, monkeypatch):
        calls, order, n = self.count_calls(monkeypatch, "forward",
                                           "conjugate_by_vertical")
        assert calls == (order - 1) * n

    def test_inverse_conjugates_one_list_per_degree(self, monkeypatch):
        calls, order, n = self.count_calls(monkeypatch, "inverse",
                                           "conjugate_by_vertical")
        assert calls == (order - 1) * n

    @pytest.mark.parametrize("route", ["forward", "inverse"])
    def test_one_vertical_inversion_per_degree(self, monkeypatch, route):
        # each conjugating degree inverts its own G_m once; the loop never
        # inverts an accumulated series
        calls, order, _ = self.count_calls(monkeypatch, route,
                                           "invert_vertical_map")
        assert calls == order - 1

    def test_one_shift_table_per_series(self, monkeypatch):
        # each conjugating degree substitutes both perturbations of every
        # map and phi_v into H_m, and the residual substitutes every
        # perturbation into phi_v: one (v + H)^q table for each
        import toruslin.series as series_mod
        built, steps = [], []

        def building(phi, *args, real=series_mod._vertical_shift_powers):
            built.append(phi)
            return real(phi, *args)

        def stepping(*args, real=linearize_mod.linearize_step, **kw):
            steps.append(real(*args, **kw))
            return steps[-1]

        monkeypatch.setattr(series_mod, "_vertical_shift_powers", building)
        monkeypatch.setattr(linearize_mod, "linearize_step", stepping)
        p = parse_problem(toruslin.reference_problem_path())
        run = p.run
        fam = build_family(p.lattice, p.data, p.pert_records, 8,
                           run["hband"], eps0=run["epsilon"],
                           r0=run["radius"])
        result = linearize(fam, 8, run["epsilon"], run["radius"], pmax=12,
                           qmax=12)
        Hs = [H for _, H, _, cert in steps if cert is not None]
        assert len(Hs) == 7
        assert [sum(phi is H for phi in built) for H in Hs] == [1] * 7
        assert sum(phi is result.phi_v for phi in built) == 1

    @pytest.mark.parametrize("order", [8, 12])
    @pytest.mark.parametrize("route", ["forward", "inverse"])
    def test_phi_v_matches_psi_then_invert(self, order, route):
        p = parse_problem(toruslin.reference_problem_path())
        run = p.run
        fam = build_family(p.lattice, p.data, p.pert_records, order,
                           run["hband"], eps0=run["epsilon"],
                           r0=run["radius"])
        result = linearize(fam, order, run["epsilon"], run["radius"],
                           route=route, pmax=12, qmax=12)
        oracle = psi_then_invert(result)
        assert result.phi_v.max_abs() > 1e-4
        assert result.phi_v.max_coeff_diff(oracle) <= 1e-18
        assert result.phi_v.tailflag is False

    def test_reference_phi_v_has_no_tail(self):
        # working windows cut inside the degree loop never flag phi_v
        p = parse_problem(toruslin.reference_problem_path())
        run = p.run
        fam = build_family(p.lattice, p.data, p.pert_records, run["vmax"],
                           run["hband"], eps0=run["epsilon"],
                           r0=run["radius"])
        result = linearize(fam, run["order"], run["epsilon"], run["radius"],
                           pmax=12, qmax=12)
        assert result.phi_v.tailflag is False
        assert result.phi_v.discarded == 0.0
        assert result.phi_v.homogeneous_part(run["order"]).max_abs() > 0

    def test_wrong_supplied_inverse_fails_cross_check(self):
        rng = np.random.default_rng(23)
        fam = golden_family(rng, vmax=4, hband=4, nterms=6, qrange=(2, 2))
        invs = [invert_map(m) for m in fam.maps]
        key = next(iter(invs[0].pert_v.homogeneous_part(2).coeffs))
        invs[0].pert_v.coeffs[key] *= 2.0
        bad = DeckMapFamily(lattice=fam.lattice, data=fam.data,
                            maps=fam.maps, inv_maps=invs,
                            eps0=fam.eps0, r0=fam.r0, hband=fam.hband)
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
            eps0=0.3, r0=0.6, hband=6)
        with pytest.raises(ResonanceError) as err:
            linearize(fam, order=4, eps1=0.2, r1=0.5, pmax=4, qmax=4)
        assert err.value.Q == (2,) and err.value.P == (0,)

    def test_residual_identity_case(self):
        fam = golden_family()
        zero = TruncatedSeries.zero(1, 1, 1, 6, 6)
        res = conjugacy_residual(zero, fam, fam, 6)
        assert max(res[0]["per_degree"].values()) == 0.0

    def test_ablation_truncated_phi(self):
        rng = np.random.default_rng(17)
        fam = golden_family(rng, vmax=6, hband=6, nterms=8)
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
        vmax, hband, work = 4, 2, 10
        psi = random_series(rng, 2, 1, components=1, vmax=vmax, hband=1,
                            nterms=5, min_vdeg=2, scale=1e-3)
        psi = psi.with_window(hband=work)
        zero_h = TruncatedSeries.zero(2, 1, 2, vmax, work)
        zero_v = TruncatedSeries.zero(2, 1, 1, vmax, work)
        maps, invs = [], []
        for i in range(2):
            diag = DeckMap(lam=data.lam[i], mu=data.mu[i],
                           pert_h=zero_h, pert_v=zero_v)
            diag_inv = DeckMap(lam=1 / data.lam[i], mu=1 / data.mu[i],
                               pert_h=zero_h, pert_v=zero_v)
            maps.append(conjugate_by_vertical(diag, psi))
            invs.append(conjugate_by_vertical(diag_inv, psi))
        fam = DeckMapFamily(lattice=lat, data=data, maps=maps, inv_maps=invs,
                            eps0=0.3, r0=0.6, hband=hband)
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
        work = 10
        maps = []
        for i in range(2):
            ph = TruncatedSeries.zero(2, 1, 2, 4, work)
            pv = TruncatedSeries.zero(2, 1, 1, 4, work)
            if i == 0:  # a perturbation the other generator does not share
                pv.coeffs[(0, (0, 0), (2,))] = 1e-3
            maps.append(DeckMap(lam=data.lam[i], mu=data.mu[i],
                                pert_h=ph, pert_v=pv))
        from toruslin.deckmaps import invert_map

        fam = DeckMapFamily(lattice=lat, data=data, maps=maps,
                            inv_maps=[invert_map(m) for m in maps],
                            eps0=0.3, r0=0.6, hband=2)
        with pytest.raises(LinearizeError, match="commute"):
            linearize(fam, order=3, eps1=0.2, r1=0.5, pmax=6, qmax=6)

    def test_ledger_schema(self):
        rng = np.random.default_rng(19)
        fam = golden_family(rng, vmax=5, hband=5, nterms=5)
        result = linearize(fam, order=4, eps1=0.2, r1=0.5, pmax=6, qmax=6)
        for m in range(2, 5):
            rec = result.per_degree[m]
            assert {"base_norm", "goal_norm", "translated", "eps",
                    "r"} <= set(rec)
            assert rec["eps"] > 0.1 and rec["r"] > 0.5 / np.e
            assert set(rec["translated"]) == {(0, 1), (0, -1)}
