"""Constants calibration, domain schedule, and majorant dominance checks.

The convergence certificate has three layers:

* a constants bundle assembled from the lattice geometry (decay rate kappa,
  Hartogs margin eta), the Diophantine fit (D, tau), and the perturbation
  coefficient envelope R;
* the per-degree gain sequence eta_m and the shrinking domain schedule
  (eps_m, r_m), which encode how much each small-divisor inversion can
  amplify and how much domain it costs;
* the majorant coefficients A_m and B_m^{(i,+-)} solving the functional
  system order by order; dominance of the computed solution norms by
  A_m eta_m (base domain) and B_m eta_m (translated domains) plus a
  Cauchy-Hadamard diagnostic yields the radius estimate.  The gains are
  computed in logs, and a majorant past the double range fails its row.

Every constant is explicit and recorded, so a reviewer can re-derive the
certificate line by line.
"""

import math
from dataclasses import dataclass, field
from math import comb, e as EULER_E

import numpy as np

from .lattice import DomainSpec, max_margin_eta

ETA_RATIO_CAP = 0.49


class ConstantsError(ValueError):
    pass


@dataclass
class ConstantsBundle:
    kappa: float
    nu: int
    tau: float
    tau_eff: float
    D: float
    C1: float
    C: float
    Cp: float
    Cpp: float
    R: float
    eta: float
    eta_ratio: float
    fit: object = None
    notes: list = field(default_factory=list)

    @property
    def gamma(self):
        return self.tau_eff + self.nu


def _perturbation_envelope(family, lattice, eps1, r1):
    """Smallest R with every coefficient norm below R^|Q|, on the extended
    two-step translate unions; log-linear envelope over |Q|."""
    dom_plus = DomainSpec(lattice, eps1, r1, union_ell=2)
    dom_minus = DomainSpec(lattice, eps1, r1, union_ell=-2)
    best = 0.0
    found = False
    for m in family.maps:
        for pert in (m.pert_h, m.pert_v):
            by_q = {}
            for k, P, Q, c in pert.terms():
                by_q.setdefault((k, Q), []).append((P, c))
            for (k, Q), terms in by_q.items():
                if sum(Q) < 2:
                    continue
                Ps = np.array([P for P, _ in terms], dtype=float)
                cs = np.array([abs(c) for _, c in terms])
                sups = np.maximum(dom_plus.sup_monomials(Ps),
                                  dom_minus.sup_monomials(Ps))
                norm = float((cs * sups).sum())
                if norm > 0:
                    found = True
                    best = max(best, norm ** (1.0 / sum(Q)))
    return (best if found else 1.0), found


def constants_bundle(lattice, data, fit, family, eps1, r1):
    """Assemble every constant the certificate depends on.

    kappa comes from the lattice log-geometry; nu = n + d is the
    geometric-series summation exponent; C1 collects the divisor envelope
    with the decay-sum constants (assembly recorded in the notes); eta is
    kappa times the Hartogs margin (1/n at every eps), capped below kappa/2.
    """
    if fit.resonant:
        raise ConstantsError("resonant multiplier data admits no certificate")
    n, d = lattice.n, lattice.d
    notes = []
    kappa = lattice.decay_rate()
    nu = n + d
    tau = fit.tau
    tau_eff = max(1.0, tau)
    if tau_eff != tau:
        notes.append("tau raised to 1.0 inside constants (envelope still %r)"
                     % tau)
    C1 = (2.0 ** (tau_eff + 1) / fit.D) * max((2 * tau_eff / EULER_E) ** tau_eff,
                                              1.0) * 6.0 ** nu
    notes.append("C1 = 2^(tau+1)/D * max((2 tau/e)^tau, 1) * 6^nu "
                 "(divisor envelope x decay sums)")
    margin = max_margin_eta(lattice, eps1)
    ratio = min(margin, ETA_RATIO_CAP)
    if ratio != margin:
        notes.append("margin ratio capped at %r (geometric margin %r)"
                     % (ETA_RATIO_CAP, margin))
    eta = kappa * ratio
    R, had_terms = _perturbation_envelope(family, lattice, eps1, r1)
    if not had_terms:
        notes.append("zero perturbation: R = 1 by convention")
    C = 6.0 ** nu
    basis = np.eye(n)
    base_dom = DomainSpec(lattice, eps1, r1)
    Cp = max(max(base_dom.sup_monomial(basis[i]),
                 base_dom.sup_monomial(-basis[i])) for i in range(n))
    vmax = family.maps[0].pert_h.vmax
    t_hat = r1 if R * r1 <= 1 else 1.0 / (2 * R)
    g_hat = sum(comb(q + d - 1, d - 1) * (R * t_hat) ** q
                for q in range(2, max(vmax, 2) + 1))
    Cpp = 2.0 * Cp * max(g_hat, 1e-6)
    notes.append("C'' = 2 C' g_hat with g_hat = G(t_hat, 0), t_hat = %r"
                 % t_hat)
    return ConstantsBundle(kappa=kappa, nu=nu, tau=tau, tau_eff=tau_eff,
                           D=fit.D, C1=C1, C=C, Cp=Cp, Cpp=Cpp, R=R,
                           eta=eta, eta_ratio=ratio, fit=fit, notes=notes)


def log_best_product_table(log_etas, total, max_part):
    """best[k] = log of the largest product of gains with degrees summing
    exactly to k, parts limited to 1..max_part (unbounded repetition)."""
    best = np.zeros(total + 1)
    for k in range(1, total + 1):
        best[k] = max(log_etas[j] + best[k - j]
                      for j in range(1, min(k, max_part) + 1))
    return best


def eta_sequence(M, constants):
    """Per-degree gains: eta_1 = 1 and

        eta_m = (C1 / eta^gamma) 2^(m gamma) max over products of lower
                gains whose degrees sum to at most m,

    computed in logs by a best-product table (the empty product 1 is
    admissible).  Returns (eta_m, D_env = max eta_m^(1/m), log eta_m); eta_m
    is inf where it leaves the double range.
    """
    gamma = constants.gamma
    log_beta = math.log(constants.C1) - gamma * math.log(constants.eta)
    log_etas = np.full(M + 1, -np.inf)
    log_etas[1] = 0.0
    for m in range(2, M + 1):
        best = log_best_product_table(log_etas, m, m - 1)
        log_etas[m] = log_beta + m * gamma * math.log(2.0) + best.max()
    with np.errstate(over="ignore"):
        etas = np.exp(log_etas)
    d_env = math.exp(max(log_etas[m] / m for m in range(1, M + 1)))
    return etas, d_env, log_etas


def domain_schedule(M, eps1, r1, constants):
    """eps_{m+1} = eps_m - eps1 eta/(2^m kappa), r_{m+1} = r_m e^{-1/2^m}.

    Floors eps_m > eps1/2 and r_m > r1/e hold for every m by telescoping.
    """
    # false for nan as for values out of range
    if not (0 < eps1 < math.inf and 0 < r1 < math.inf):
        raise ConstantsError("need positive finite eps1, r1")
    ratio = constants.eta / constants.kappa
    if not 0 < ratio < 0.5:
        raise ConstantsError("schedule needs eta/kappa in (0, 1/2), got %r"
                             % ratio)
    eps = np.zeros(M + 1)
    r = np.zeros(M + 1)
    eps[1], r[1] = eps1, r1
    for m in range(1, M):
        eps[m + 1] = eps[m] - eps1 * ratio / 2.0 ** m
        r[m + 1] = r[m] * float(np.exp(-1.0 / 2.0 ** m))
    # strict floors hold exactly; allow fp slack where telescoping saturates
    if not (eps[1:] > eps1 / 2).all() or \
            not (r[1:] >= r1 / np.e * (1 - 1e-12)).all():
        raise ConstantsError("schedule floors violated")  # unreachable
    return eps, r


# -- formal power series helpers (dense, nonnegative reals) -------------------


def _ser_mul(a, b, M):
    """The product of a and b to degree M: each ``out[i + j]`` adds
    ``a[i] * b[j]`` in order of increasing i, on Python floats."""
    b = b[:M + 1].tolist()
    out = [0.0] * (M + 1)
    for i, ai in enumerate(a[:M + 1].tolist()):
        if ai:
            for k, bj in enumerate(b[:M + 1 - i], i):
                out[k] += ai * bj
    return np.array(out)


def _ser_pow(a, q, M):
    out = np.zeros(M + 1)
    out[0] = 1.0
    for _ in range(q):
        out = _ser_mul(out, a, M)
    return out


def _g_of(t_plus_u, R, d, M):
    """G(t, U) = sum_{q >= 2} multiplicity(q) R^q (t + U)^q, to degree M."""
    out = np.zeros(M + 1)
    power = _ser_mul(t_plus_u, t_plus_u, M)
    for q in range(2, M + 1):
        out += comb(q + d - 1, d - 1) * R ** q * power
        power = _ser_mul(power, t_plus_u, M)
    return out


def _coupling(series_g, constants, n, M):
    """((1 / (1 - C' g / C''))^n - 1), formal to degree M; g has order 2."""
    x = (constants.Cp / constants.Cpp) * series_g
    geom = np.zeros(M + 1)
    geom[0] = 1.0
    acc = np.zeros(M + 1)
    acc[0] = 1.0
    for _ in range(M // 2 + 1):
        acc = _ser_mul(acc, x, M)
        geom += acc
    out = _ser_pow(geom, n, M)
    out[0] -= 1.0
    return out


def majorant_coefficients(M, constants, n, d):
    """A_m and B_m^{(i,+-)} from the functional system, order by order.

    Degree-m outputs depend only on degrees < m of every unknown, so one
    forward sweep suffices; all coefficients are nonnegative.  The 2n
    B^{(i,+-)} share one seed and one recursion: all keys map to one array.
    Degree m is read off series cut at m: the same sums in the same order
    as on series carried to M, whose terms past m add exact zeros below.
    """
    R = constants.R
    t = np.zeros(M + 1)
    t[1] = 1.0
    A = np.zeros(M + 1)
    b = np.zeros(M + 1)
    B = {(i, s): b for i in range(n) for s in (1, -1)}
    A[2] = b[2] = _g_of(t, R, d, 2)[2]

    def rhs(g, sumB, m):
        return g + (constants.C / constants.Cpp ** constants.nu) * \
            _ser_mul(A + sumB, _coupling(g, constants, n, m), m)
    for m in range(3, M + 1):
        sumB = sum(B.values())
        b[m] = rhs(_g_of(t + b, R, d, m), sumB, m)[m]
        A[m] = rhs(_g_of(t + A, R, d, m), sumB, m)[m]
    if (A < 0).any() or (b < 0).any():
        raise ConstantsError("majorant coefficients must be nonnegative")
    return A, B


@dataclass
class MajorantState:
    order: int
    constants: ConstantsBundle
    etas: np.ndarray
    d_env: float
    eps_m: np.ndarray
    r_m: np.ndarray
    A: np.ndarray
    B: dict
    log_etas: np.ndarray  # finite where etas overflows to inf


def build_state(M, constants, n, d, eps1, r1):
    etas, d_env, log_etas = eta_sequence(M, constants)
    eps_m, r_m = domain_schedule(M, eps1, r1, constants)
    A, B = majorant_coefficients(M, constants, n, d)
    return MajorantState(order=M, constants=constants, etas=etas, d_env=d_env,
                         eps_m=eps_m, r_m=r_m, A=A, B=B, log_etas=log_etas)


def _log(x):
    """Natural log of a nonnegative number, -inf at zero."""
    return math.log(x) if x > 0 else -math.inf


def dominance_and_radius(result, state):
    """Per-degree dominance flags plus the Cauchy-Hadamard radius diagnostic.

    A failed flag downgrades the certificate to inconclusive; it is never an
    error (the smallness hypotheses may simply not hold for the instance).
    A majorant A_m eta_m or B_m eta_m that is not a finite double fails its
    row; the radius is taken from log A_m + log eta_m.  Each row also
    carries ``log_majorant``, the natural log of its majorant taken from
    ``log_etas``, which stays finite where the majorant overflows.
    """
    M = state.order
    if result.order != M:
        raise ValueError("linearization order %d does not match state order %d"
                         % (result.order, M))
    rows = []
    all_ok = True
    for m in range(2, M + 1):
        rec = result.per_degree[m]
        # python floats: an overflowing product is inf, without a warning
        claimed = float(state.A[m]) * float(state.etas[m])
        ok = math.isfinite(claimed) and rec["base_norm"] <= claimed
        log_claimed = _log(state.A[m]) + float(state.log_etas[m])
        rows.append({"m": m, "domain": "base", "norm": rec["base_norm"],
                     "majorant": claimed, "log_majorant": log_claimed,
                     "ok": ok})
        all_ok &= ok
        goal_ok = math.isfinite(claimed) and rec["goal_norm"] <= claimed
        rows.append({"m": m, "domain": "goal-union", "norm": rec["goal_norm"],
                     "majorant": claimed, "log_majorant": log_claimed,
                     "ok": goal_ok})
        all_ok &= goal_ok
        for (i, s), norm in sorted(rec["translated"].items()):
            claimed_b = float(state.B[(i, s)][m]) * float(state.etas[m])
            ok_b = math.isfinite(claimed_b) and norm <= claimed_b
            rows.append({"m": m, "domain": "t%d^%+d-pair" % (i + 1, s),
                         "norm": norm, "majorant": claimed_b,
                         "log_majorant": (_log(state.B[(i, s)][m])
                                          + float(state.log_etas[m])),
                         "ok": ok_b})
            all_ok &= ok_b

    window = range(max(2, (M + 1) // 2), M + 1)
    # (A_m eta_m)^(1/m), taken in logs
    values = [math.exp((math.log(state.A[m]) + state.log_etas[m]) / m)
              for m in window if state.A[m] > 0]
    if values:
        radius = 1.0 / max(values)
        stabilization = (max(values) - min(values)) / min(values)
        obstruction = True
    else:
        radius = float("inf")
        stabilization = 0.0
        obstruction = False
    if not all_ok:
        status = "inconclusive at desk scale"
    elif not obstruction:
        status = "no obstruction detected"
    else:
        status = "pass" if radius > 0 else "inconclusive at desk scale"
    return {
        "rows": rows,
        "all_dominated": all_ok,
        "radius": radius,
        "stabilization": stabilization,
        "window": (min(window), M),
        "obstruction_detected": obstruction,
        "envelope_d": state.d_env,
        "status": status,
    }
