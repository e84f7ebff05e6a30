"""Shared instance builders: the elliptic-golden torus and its families."""

import numpy as np

import toruslin
from toruslin import LatticeSpec, TruncatedSeries
from toruslin.deckmaps import DeckMap, conjugate_by_vertical
from toruslin.divisors import MultiplierData
from toruslin.linearize import DeckMapFamily, build_family
from toruslin.problem import parse_problem

GOLDEN = (np.sqrt(5) - 1) / 2
E2 = 0.3 + 1.1j


def golden_lattice():
    return LatticeSpec(1, 1, [[1.0], [E2]])


def golden_data(mu_angle=GOLDEN):
    lat = golden_lattice()
    return lat, MultiplierData(lat.lam_matrix(),
                               [[np.exp(2j * np.pi * mu_angle)]])


def perturbation_records(rng, nterms=8, bound=1e-3, pmax=1, qrange=(2, 3)):
    recs = []
    for _ in range(nterms):
        k = int(rng.integers(0, 2))  # h component (0) or v component (1)
        P = (int(rng.integers(-pmax, pmax + 1)),)
        Q = (int(rng.integers(qrange[0], qrange[1] + 1)),)
        c = bound * complex(rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0))
        c *= 1.0 / max(1.0, abs(c) / bound)
        recs.append((0, k, P, Q, c))
    return recs


def golden_family(rng=None, vmax=6, **kw):
    lat, data = golden_data()
    recs = [] if rng is None else perturbation_records(rng, **kw)
    return build_family(lat, data, recs, vmax, eps0=0.3, r0=0.6)


def conjugated_family(psi, vmax=6):
    """Family Psi o diag o Psi^{-1}; its unique linearization is psi itself."""
    lat, data = golden_data()
    zero_h = TruncatedSeries.zero(1, 1, 1, vmax)
    zero_v = TruncatedSeries.zero(1, 1, 1, vmax)
    maps, invs = [], []
    for i in range(1):
        diag = DeckMap(lam=data.lam[i], mu=data.mu[i],
                       pert_h=zero_h, pert_v=zero_v)
        diag_inv = DeckMap(lam=1 / data.lam[i], mu=1 / data.mu[i],
                           pert_h=zero_h, pert_v=zero_v)
        maps.append(conjugate_by_vertical(diag, psi))
        invs.append(conjugate_by_vertical(diag_inv, psi))
    return DeckMapFamily(lattice=lat, data=data, maps=maps, inv_maps=invs,
                         eps0=0.3, r0=0.6), psi


def shipped_family(vmax):
    """The shipped perturbation's family at ``vmax``, and its run settings."""
    p = parse_problem(toruslin.reference_problem_path())
    run = p.run
    return build_family(p.lattice, p.data, p.pert_records, vmax,
                        eps0=run["epsilon"], r0=run["radius"]), run


def lattice2_family(seed, vmax=8):
    """The n = 2 family psi o diag o psi^-1 on a fixed support of psi.

    One term of psi per vertical degree 2..vmax; the seed draws the
    coefficients.  Its linearization is psi itself.  This is the family of
    the ``lattice2-o8`` benchmark workload (``Lattice2`` in
    ``perfbench/workloads.py``), built the same way with the same draws;
    a change to either construction belongs in both.
    """
    lat = LatticeSpec(2, 1, [[1, 0], [0, 1],
                             [0.31 + 0.07j, 0.5 + 0.02j],
                             [0.7 + 0.01j, 0.2 + 0.09j]])
    mu = [[np.exp(2j * np.pi * GOLDEN)],
          [np.exp(2j * np.pi * (np.sqrt(2) - 1))]]
    data = MultiplierData(lat.lam_matrix(), mu)
    rng = np.random.default_rng(seed)
    coeffs = {}
    for q in range(2, vmax + 1):
        P = (q % 3 - 1, (q + 1) % 3 - 1)
        coeffs[(0, P, (q,))] = 1e-3 * rng.uniform(0.5, 1.0) \
            * complex(np.exp(2j * np.pi * rng.uniform()))
    psi = TruncatedSeries(2, 1, 1, vmax, coeffs=coeffs)
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
    return DeckMapFamily(lattice=lat, data=data, maps=maps, inv_maps=invs,
                         eps0=0.3, r0=0.6), psi
