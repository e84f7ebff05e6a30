"""Small-divisor spectrum, resonance detection, and Diophantine fits.

For multiplier rows lambda_l (horizontal) and mu_l (vertical) the quantity
driving every cohomological division is d_l(P, Q, j) = |lambda_l^P mu_l^Q -
mu_{l,j}|.  The weak condition asks max_l d_l to decay no faster than
D / (|P|+|Q|)^tau; the strong condition asks the same of every single l, and
the inverse condition replaces the multipliers by their inverses.  A fit
here is a desk-scale certificate over the scanned index range only: the
report always states the range.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from ._kernels import modulus, multiply

TAU_FLOOR = 1e-9
FORMS = ("weak", "strong", "inverse")
# Rounding bound on a computed divisor, per unit of |P|_1 + |Q|_1.  Each of
# the |P|_1 + |Q|_1 factors of lambda^P mu^Q is a multiplier exp(2 pi i z)
# rounded from its turn z (relative error about (4 pi |z| + 2) units of
# 2^-52) and multiplied in once more; near a zero the product has the
# target's unit modulus.  64 units per factor cover turns up to |z| = 4.
RESONANCE_TOL = 64 * 2.0 ** -52


class ResonanceError(ArithmeticError):
    """A divisor that rounding cannot tell from zero, where one is divided by."""

    def __init__(self, P, Q, j, l=None):
        self.P, self.Q, self.j, self.l = tuple(P), tuple(Q), int(j), l
        where = "(P=%s, Q=%s, j=%d%s)" % (
            self.P, self.Q, self.j + 1,
            "" if l is None else ", l=%d" % (l + 1))
        super().__init__("resonant small divisor at %s" % where)


class MultiplierData:
    """Diagonal deck multipliers: lam is n x n, mu is n x d (rows per generator)."""

    def __init__(self, lam, mu, require_unitary=True):
        self.lam = np.asarray(lam, dtype=np.complex128)
        self.mu = np.asarray(mu, dtype=np.complex128)
        if self.lam.ndim != 2 or self.lam.shape[0] != self.lam.shape[1]:
            raise ValueError("lam must be a square n x n table")
        if self.mu.ndim != 2 or self.mu.shape[0] != self.lam.shape[0]:
            raise ValueError("mu must have one row per generator")
        if np.any(self.lam == 0) or np.any(self.mu == 0):
            raise ValueError("multipliers must be nonzero")
        self.unitary = bool(np.allclose(np.abs(self.mu), 1.0, atol=1e-12))
        if require_unitary and not self.unitary:
            raise ValueError("vertical multipliers must be unitary "
                             "(|mu| = 1); got moduli %s" % np.abs(self.mu))

    @property
    def n(self):
        return self.lam.shape[0]

    @property
    def d(self):
        return self.mu.shape[1]

    def inverse(self):
        """The multipliers of the inverse maps: 1/lam and 1/mu."""
        return MultiplierData(1.0 / self.lam, 1.0 / self.mu,
                              require_unitary=False)


def is_resonant(value, size):
    """Whether a divisor modulus (or an array of them) is zero to rounding.

    True where ``value <= RESONANCE_TOL * size`` with size = |P|_1 + |Q|_1:
    a resonance in the multipliers' turns that float arithmetic did not
    land exactly on.  Real small divisors sit many orders above the bound.
    """
    return value <= RESONANCE_TOL * size


def monomials(data, P, Q):
    """lambda_l^P mu_l^Q for index rows P (N, n), Q (N, d).

    Returns an (N, n) array, one column per generator l.  The product of
    the two factors is rounded as scalar complex arithmetic rounds it
    (``multiply``).
    """
    P, Q = np.asarray(P, dtype=np.int64), np.asarray(Q, dtype=np.int64)
    a = np.prod(data.lam[None] ** P[:, None, :], axis=2)
    b = np.prod(data.mu[None] ** Q[:, None, :], axis=2)
    return multiply(a, b)


def small_divisors(data, P, Q, form="weak"):
    """Every divisor lambda_l^P mu_l^Q - mu_{l,j}, indexed [index, j, l].

    P (N, n) and Q (N, d) are index rows with |Q|_1 >= 2; the result is an
    (N, d, n) complex array.  The inverse form is lambda_l^-P mu_l^-Q -
    1/mu_{l,j}; weak and strong differ only in how a scan reduces over l.
    """
    if form not in FORMS:
        raise ValueError("unknown form %r" % (form,))
    P = np.asarray(P, dtype=np.int64).reshape(-1, data.n)
    Q = np.asarray(Q, dtype=np.int64).reshape(-1, data.d)
    if np.any(Q.sum(axis=1) < 2):
        raise ValueError("divisors are defined for |Q| >= 2")
    if form == "inverse":
        return monomials(data, -P, -Q)[:, None, :] - (1.0 / data.mu).T
    return monomials(data, P, Q)[:, None, :] - data.mu.T


def _moduli_mp(data, P, Q, form, dps):
    """``abs(small_divisors(...))`` with products and moduli in mpmath."""
    import mpmath

    sign = -1 if form == "inverse" else 1
    out = np.empty((len(P), data.d, data.n))
    with mpmath.workdps(dps):
        for i, (Pi, Qi) in enumerate(zip(P.tolist(), Q.tolist())):
            for l in range(data.n):
                acc = mpmath.mpc(1)
                for k, p in enumerate(Pi):
                    acc *= mpmath.mpc(data.lam[l, k]) ** (sign * p)
                for k, q in enumerate(Qi):
                    acc *= mpmath.mpc(data.mu[l, k]) ** (sign * q)
                for j in range(data.d):
                    target = mpmath.mpc(data.mu[l, j])
                    if sign < 0:
                        target = 1 / target
                    out[i, j, l] = float(abs(acc - target))
    return out


def scan_indices(n, d, pmax, qmax):
    """Index rows P (N, n), Q (N, d) with |P|_1 <= pmax, 2 <= |Q|_1 <= qmax.

    The rows run through (P, Q) in lexicographic order.
    """
    P = np.array(list(product(range(-pmax, pmax + 1), repeat=n)),
                 dtype=np.int64).reshape(-1, n)
    P = P[np.abs(P).sum(axis=1) <= pmax]
    Q = np.array(list(product(range(qmax + 1), repeat=d)),
                 dtype=np.int64).reshape(-1, d)
    Q = Q[(Q.sum(axis=1) >= 2) & (Q.sum(axis=1) <= qmax)]
    return np.repeat(P, len(Q), axis=0), np.tile(Q, (len(P), 1))


@dataclass
class DivisorTable:
    """One row per scanned (P, Q, j), with the moduli over generators l."""

    P: np.ndarray
    Q: np.ndarray
    j: np.ndarray
    perl: np.ndarray

    @property
    def size(self):
        return np.abs(self.P).sum(axis=1) + self.Q.sum(axis=1)

    @property
    def maxval(self):
        return self.perl.max(axis=1)

    @property
    def argmax(self):
        return self.perl.argmax(axis=1)  # the smallest l on ties

    def to_csv(self):
        n, d = self.P.shape[1], self.Q.shape[1]
        head = [*("p_%d" % (i + 1) for i in range(n)),
                *("q_%d" % (i + 1) for i in range(d)), "j", "value", "argmax"]
        # formatted a column at a time: tolist() gives Python ints and floats
        columns = [*(map(str, col) for col in self.P.T.tolist()),
                   *(map(str, col) for col in self.Q.T.tolist()),
                   map(str, (self.j + 1).tolist()),
                   map(repr, self.maxval.tolist()),
                   map(str, (self.argmax + 1).tolist())]
        lines = [",".join(head), *map(",".join, zip(*columns))]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DiophantineFit:
    form: str
    D: float
    tau: float
    pmax: int
    qmax: int
    resonances: tuple
    resonant: bool
    n_points: int
    anchor_size: int


def scan_and_fit(data, pmax, qmax, form="weak", dps=None):
    """Enumerate the divisor spectrum and fit envelope constants (D, tau).

    tau is the smallest slope whose log-log line through the smallest-size
    envelope point stays below every non-resonant scanned point; D is the
    corresponding intercept, shaved by 1e-9 so the envelope inequality is
    strict.  Divisors zero to rounding (``is_resonant``) are reported as
    resonances, never fitted.  With ``dps`` set, products and moduli run in
    mpmath at that many digits.
    """
    if pmax < 2 or qmax < 2:
        raise ValueError("need pmax, qmax >= 2")
    if form not in FORMS:
        raise ValueError("unknown form %r" % (form,))
    P, Q = scan_indices(data.n, data.d, pmax, qmax)
    perl = modulus(small_divisors(data, P, Q, form)) if dps is None \
        else _moduli_mp(data, P, Q, form, dps)
    table = DivisorTable(P=np.repeat(P, data.d, axis=0),
                         Q=np.repeat(Q, data.d, axis=0),
                         j=np.tile(np.arange(data.d), len(P)),
                         perl=perl.reshape(-1, data.n))
    size = table.size
    if form == "strong":
        zero = is_resonant(table.perl, size[:, None])
        resonant, binding = zero.any(axis=1), table.perl.min(axis=1)
    else:
        resonant, binding = is_resonant(table.maxval, size), table.maxval
    # each resonance names its first resonant l under the strong form
    resonances = [(tuple(table.P[r].tolist()), tuple(table.Q[r].tolist()),
                   int(table.j[r]),
                   int(zero[r].argmax()) if form == "strong" else None)
                  for r in np.nonzero(resonant)[0]]
    sizes = size[~resonant].astype(float)
    vals = binding[~resonant]
    smin = sizes.min() if len(sizes) else 2.0
    anchor = vals[sizes == smin].min() if len(sizes) else 1.0
    rest = sizes > smin
    if rest.any():
        slopes = (np.log(anchor) - np.log(vals[rest])) / \
            (np.log(sizes[rest]) - np.log(smin))
        tau = max(float(slopes.max()), TAU_FLOOR)
    else:
        tau = TAU_FLOOR
    D = anchor * smin ** tau * (1.0 - 1e-9)
    fit = DiophantineFit(form=form, D=float(D), tau=float(tau),
                         pmax=pmax, qmax=qmax,
                         resonances=tuple(resonances),
                         resonant=bool(resonances), n_points=len(vals),
                         anchor_size=int(smin))
    return table, fit


def enhanced_bound_check(data, fit, pmax, qmax):
    """Check the multiplier-weighted divisor bound on the scanned range.

    Splits on B = 2 max |mu|: where max_k |lambda_k^P mu_k^Q| < B the
    envelope constant D' = D/B applies; otherwise the reverse triangle
    inequality gives half the leading modulus directly.
    """
    B = 2.0 * float(modulus(data.mu).max())
    d_prime_envelope = fit.D / B
    P, Q = scan_indices(data.n, data.d, pmax, qmax)
    s = np.abs(P).sum(axis=1) + Q.sum(axis=1)
    # Python's float power: numpy's array power may differ in the last ulp
    s_tau = np.array([float(k) ** fit.tau
                      for k in range(s.max(initial=0) + 1)])[s]
    t = modulus(monomials(data, P, Q)).max(axis=1)
    maxval = modulus(small_divisors(data, P, Q)).max(axis=2)
    kept = ~is_resonant(maxval, s[:, None])
    small = (t < B)[:, None]
    ok = np.where(small, maxval >= (d_prime_envelope * t / s_tau)[:, None],
                  maxval >= (t / 2.0)[:, None])
    empirical = maxval * s_tau[:, None] / t[:, None]
    failures = [(tuple(P[i].tolist()), tuple(Q[i].tolist()), int(j),
                 "small-modulus" if small[i, 0] else "large-modulus")
                for i, j in zip(*np.nonzero(kept & ~ok))]
    checked = int(kept.sum())
    return {
        "B": B,
        "d_prime_envelope": d_prime_envelope,
        "d_prime_empirical": float(empirical[kept].min() if checked else 0.0),
        "checked": checked,
        "failures": failures,
        "all_pass": not failures,
    }
