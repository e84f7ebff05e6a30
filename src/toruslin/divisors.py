"""Small-divisor spectrum, resonance detection, and Diophantine fits.

For multiplier rows lambda_l (horizontal) and mu_l (vertical) the quantity
driving every cohomological division is d_l(P, Q, j) = |lambda_l^P mu_l^Q -
mu_{l,j}|.  The weak condition asks max_l d_l to decay no faster than
D / (|P|+|Q|)^tau; the strong condition asks the same of every single l, and
the inverse condition replaces the multipliers by their inverses.  A fit
here is a desk-scale certificate over the scanned index range only: the
report always states the range.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

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

    def lam_pow(self, P):
        """lambda_l^P for every row l."""
        return np.prod(self.lam ** np.asarray(P, dtype=np.int64)[None, :], axis=1)

    def mu_pow(self, Q):
        return np.prod(self.mu ** np.asarray(Q, dtype=np.int64)[None, :], axis=1)


def is_resonant(value, size):
    """Whether a divisor modulus (or an array of them) is zero to rounding.

    True where ``value <= RESONANCE_TOL * size`` with size = |P|_1 + |Q|_1:
    a resonance in the multipliers' turns that float arithmetic did not
    land exactly on.  Real small divisors sit many orders above the bound.
    """
    return value <= RESONANCE_TOL * size


@dataclass(frozen=True)
class DivisorRecord:
    P: tuple
    Q: tuple
    j: int
    perl: np.ndarray
    maxval: float
    argmax: int

    @property
    def size(self):
        return sum(abs(p) for p in self.P) + sum(self.Q)


def divisor_values(data, P, Q, j, form="weak", dps=None):
    """Per-generator divisor moduli with max and smallest-index argmax.

    With ``dps`` set, the complex arithmetic runs in mpmath at that many
    digits (used for divisor-sensitive reruns); values return as floats.
    """
    P, Q = tuple(int(p) for p in P), tuple(int(q) for q in Q)
    if sum(Q) < 2:
        raise ValueError("divisors are defined for |Q| >= 2, got Q=%s" % (Q,))
    if not 0 <= j < data.d:
        raise ValueError("component index out of range")
    if form not in FORMS:
        raise ValueError("unknown form %r" % (form,))
    if dps is not None:
        perl = _divisor_values_mp(data, P, Q, j, form, dps)
    else:
        if form == "inverse":
            prod_l = data.lam_pow([-p for p in P]) * data.mu_pow([-q for q in Q])
            target = 1.0 / data.mu[:, j]
        else:
            prod_l = data.lam_pow(P) * data.mu_pow(Q)
            target = data.mu[:, j]
        perl = np.abs(prod_l - target)
    maxval = float(perl.max())
    argmax = int(perl.argmax())  # numpy argmax takes the smallest on ties
    return DivisorRecord(P=P, Q=Q, j=j, perl=perl, maxval=maxval, argmax=argmax)


def _divisor_values_mp(data, P, Q, j, form, dps):
    import mpmath

    with mpmath.workdps(dps):
        out = []
        for l in range(data.n):
            acc = mpmath.mpc(1)
            for k, p in enumerate(P):
                acc *= mpmath.mpc(data.lam[l, k]) ** int(-p if form == "inverse" else p)
            for k, q in enumerate(Q):
                acc *= mpmath.mpc(data.mu[l, k]) ** int(-q if form == "inverse" else q)
            target = mpmath.mpc(data.mu[l, j])
            if form == "inverse":
                target = 1 / target
            out.append(float(abs(acc - target)))
    return np.array(out)


def iter_indices(n, d, pmax, qmax):
    """All (P, Q) with |P|_1 <= pmax and 2 <= |Q|_1 <= qmax, lexicographic."""
    for P in product(range(-pmax, pmax + 1), repeat=n):
        if sum(abs(p) for p in P) > pmax:
            continue
        for Q in product(range(qmax + 1), repeat=d):
            if 2 <= sum(Q) <= qmax:
                yield P, Q


@dataclass
class DivisorTable:
    form: str
    pmax: int
    qmax: int
    records: list = field(default_factory=list)

    def to_csv(self):
        if not self.records:
            return "value,argmax\n"
        n = len(self.records[0].P)
        d = len(self.records[0].Q)
        head = [*("p_%d" % (i + 1) for i in range(n)),
                *("q_%d" % (i + 1) for i in range(d)), "j", "value", "argmax"]
        lines = [",".join(head)]
        for rec in self.records:
            row = [*map(str, rec.P), *map(str, rec.Q), str(rec.j + 1),
                   repr(rec.maxval), str(rec.argmax + 1)]
            lines.append(",".join(row))
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

    def lower_bound(self, size):
        return self.D / float(size) ** self.tau


def _binding_value(rec, form):
    if form == "strong":
        return float(rec.perl.min())
    return rec.maxval


def scan_and_fit(data, pmax, qmax, form="weak", dps=None):
    """Enumerate the divisor spectrum and fit envelope constants (D, tau).

    tau is the smallest slope whose log-log line through the smallest-size
    envelope point stays below every non-resonant scanned point; D is the
    corresponding intercept, shaved by 1e-9 so the envelope inequality is
    strict.  Divisors zero to rounding (``is_resonant``) are reported as
    resonances, never fitted.
    """
    if pmax < 2 or qmax < 2:
        raise ValueError("need pmax, qmax >= 2")
    if form not in FORMS:
        raise ValueError("unknown form %r" % (form,))
    table = DivisorTable(form=form, pmax=pmax, qmax=qmax)
    resonances = []
    points = []
    for P, Q in iter_indices(data.n, data.d, pmax, qmax):
        size = sum(map(abs, P)) + sum(Q)
        for j in range(data.d):
            rec = divisor_values(data, P, Q, j, form=form, dps=dps)
            table.records.append(rec)
            if form == "strong":
                zeros = np.nonzero(is_resonant(rec.perl, size))[0]
                if len(zeros):
                    resonances.append((P, Q, j, int(zeros[0])))
                    continue
            elif is_resonant(rec.maxval, size):
                resonances.append((P, Q, j, None))
                continue
            points.append((size, _binding_value(rec, form)))

    sizes = np.array([s for s, _ in points], dtype=float)
    vals = np.array([v for _, v in points], dtype=float)
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
                         resonant=bool(resonances), n_points=len(points),
                         anchor_size=int(smin))
    return table, fit


def enhanced_bound_check(data, fit, pmax, qmax):
    """Check the multiplier-weighted divisor bound on the scanned range.

    Splits on B = 2 max |mu|: where max_k |lambda_k^P mu_k^Q| < B the
    envelope constant D' = D/B applies; otherwise the reverse triangle
    inequality gives half the leading modulus directly.
    """
    B = 2.0 * float(np.abs(data.mu).max())
    d_prime_envelope = fit.D / B
    empirical = np.inf
    failures = []
    checked = 0
    for P, Q in iter_indices(data.n, data.d, pmax, qmax):
        prods = np.abs(data.lam_pow(P) * data.mu_pow(Q))
        t = float(prods.max())
        s = sum(map(abs, P)) + sum(Q)
        for j in range(data.d):
            rec = divisor_values(data, P, Q, j)
            if is_resonant(rec.maxval, s):
                continue
            checked += 1
            empirical = min(empirical, rec.maxval * s ** fit.tau / t)
            if t < B:
                ok = rec.maxval >= d_prime_envelope * t / s ** fit.tau
                branch = "small-modulus"
            else:
                ok = rec.maxval >= t / 2.0
                branch = "large-modulus"
            if not ok:
                failures.append((P, Q, j, branch))
    return {
        "B": B,
        "d_prime_envelope": d_prime_envelope,
        "d_prime_empirical": float(empirical if checked else 0.0),
        "checked": checked,
        "failures": failures,
        "all_pass": not failures,
    }
