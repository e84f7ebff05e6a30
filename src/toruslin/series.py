"""Sparse truncated Taylor-Laurent series in (h, v).

A series is a finite coefficient table
``f(h, v) = sum_{P in Z^n, Q in N^d} f[k, P, Q] h^P v^Q`` per output
component k, truncated to vertical order ``|Q|_1 <= vmax``.  The vertical
cut is the only truncation: every input is a Laurent polynomial in h, and
products, compositions and the binomial series ``(1 + u)^p`` stay finite in
P because ``u`` has positive vertical order.  Operations that push mass
above ``vmax`` drop it, set ``tailflag`` and add to ``discarded`` an upper
bound on the dropped absolute mass: products never form the pairs that land
above ``vmax`` and count them by the triangle bound ``sum |a_i| |b_j|``.

Values are complex doubles.  Series are immutable: every operation
returns a new instance, and nothing may change a series once another
operation has read it.  What an operation returns is stored as its kept
arrays (``_sorted``): every term sorted by (k, P, Q), the one order in
which the kernels and the bulk sums read a series, sliced per component,
with the ``table_data`` products read.  ``mul`` keeps the kernel's
output, selections and ``scale`` are masks, and every sum or re-truncation
is one ``_scatter``: its records are tested against ``vmax``, summed per
key in record order and pruned, keys sorted.  ``substitute_vertical(f,
phi)`` keeps the powers ``(v_j + phi_j)^q`` with ``phi`` for later use.

The coefficient dict is a view known to this module alone: other modules
read terms through ``terms()``, ``get()`` (which keeps the dict beside the
arrays once built) and ``nterms()``.  The public ``coeffs`` is the
writable handle: reading it drops the kept arrays and powers, so the dict
is the store again and a write is seen by every later read.  Constructors,
``from_text``, ``partial_h`` and ``compose_diagonal`` fill a dict,
constructors and ``partial_h`` through ``_accumulate``, the
record-by-record loop that applies the window and the pruning.
"""

from itertools import repeat
from math import fsum

import numpy as np

from ._kernels import cauchy_product, evaluate as _kernel_evaluate, \
    modulus, multiply, segment_sum, table_data

# values of modulus at most PRUNE are dropped instead of stored
PRUNE = 1e-300


class SeriesError(ValueError):
    pass


class TruncatedSeries:
    __slots__ = ("n", "d", "components", "vmax", "tailflag", "discarded",
                 "_shift", "_store", "_table")

    def __init__(self, n, d, components=1, vmax=8, hband=None, coeffs=None,
                 tailflag=False, discarded=0.0):
        """``hband``, the retired horizontal band, is accepted and ignored:
        the benchmark under ``perfbench/`` still passes it."""
        self.n = int(n)
        self.d = int(d)
        self.components = int(components)
        self.vmax = int(vmax)
        self.tailflag = bool(tailflag)
        self.discarded = float(discarded)
        # the coefficient dict, filled by the constructors; a series that an
        # operation returns holds None here until _lookup builds the dict
        self._table = {}
        # powers of (v_j + self_j) per working window; see substitute_vertical
        self._shift = None
        # kernel arrays per component; see _sorted
        self._store = None
        if coeffs:
            records = [((k, tuple(P), tuple(Q)), complex(c))
                       for (k, P, Q), c in coeffs.items()]
            for key, _ in records:
                self._check_key(*key)
            self._accumulate(records)

    # -- construction helpers -------------------------------------------------

    def _check_key(self, k, P, Q):
        if not (0 <= k < self.components):
            raise SeriesError("component index %d out of range" % k)
        if len(P) != self.n or len(Q) != self.d:
            raise SeriesError("multi-index arity mismatch")
        if any(q < 0 for q in Q):
            raise SeriesError("vertical exponents must be nonnegative")
        if sum(Q) > self.vmax:
            raise SeriesError("index outside truncation window")

    @property
    def coeffs(self):
        """The coefficient dict {(k, P, Q): value}, handed out for writing:
        it drops the kept arrays and powers, so every later read sees it."""
        table = self._lookup()
        self._store = self._shift = None
        return table

    def _lookup(self):
        """The coefficient dict, read-only: built from the kept arrays on
        first need and kept beside them."""
        if self._table is None:
            ks, exps, vals = self._store["sorted"]
            self._table = dict(zip(_keys(ks, exps, self.n), vals.tolist()))
        return self._table

    def _accumulate(self, records):
        """Add ``((k, P, Q), value)`` records to the table, in order.

        A record above ``vmax`` is not stored: it sets ``tailflag`` and adds
        its modulus to ``discarded``.  A record inside is added to the
        running sum at its key, and a sum of modulus PRUNE or less is
        removed.  The kept kernel arrays are dropped.
        """
        coeffs, vmax = self._lookup(), self.vmax
        self._store = None
        for key, c in records:
            if sum(key[2]) > vmax:
                self.tailflag = True
                self.discarded += abs(c)
                continue
            new = coeffs.get(key, 0j) + c
            if abs(new) > PRUNE:
                coeffs[key] = new
            elif key in coeffs:
                del coeffs[key]

    @classmethod
    def zero(cls, n, d, components=1, vmax=8, hband=None):
        """The zero series.  ``hband`` is accepted and ignored, as by the
        constructor: the benchmark under ``perfbench/`` still passes it."""
        return cls(n, d, components, vmax)

    @classmethod
    def monomial(cls, n, d, k, P, Q, c=1.0, components=None, vmax=8):
        components = components if components is not None else k + 1
        return cls(n, d, components, vmax,
                   coeffs={(k, tuple(P), tuple(Q)): c})

    def _like(self, components=None, vmax=None):
        return TruncatedSeries(
            self.n, self.d,
            self.components if components is None else components,
            self.vmax if vmax is None else vmax)

    def _rows(self, keep=None, vmax=None):
        """The rows ``keep`` of ``_sorted()`` (a mask, or None: all, sharing
        what is kept) as a series on the given window, flags clear."""
        ks, exps, vals = self._sorted()
        out = self._like(vmax=vmax)
        if keep is None:
            out._store, out._table = self._store, None
        else:
            out._keep_sorted(None if ks is None else ks[keep], exps[keep],
                             vals[keep])
        return out

    # -- inspection -----------------------------------------------------------

    def terms(self):
        """Sorted (k, P, Q, value) records."""
        ks, exps, vals = self._sorted()
        for (k, P, Q), c in zip(_keys(ks, exps, self.n), vals.tolist()):
            yield k, P, Q, c

    def get(self, k, P, Q):
        return self._lookup().get((k, tuple(P), tuple(Q)), 0.0 + 0.0j)

    def nterms(self):
        """Number of stored coefficients."""
        return len(self._sorted()[2])

    def max_abs(self):
        vals = self._sorted()[2]
        return float(modulus(vals).max()) if len(vals) else 0.0

    def _degrees(self):
        return self._sorted()[1][:, self.n:].sum(axis=1)

    def v_order(self):
        """Smallest |Q| carrying a coefficient (vmax+1 for the zero series)."""
        deg = self._degrees()
        return int(deg.min()) if len(deg) else self.vmax + 1

    def is_zero(self):
        return not self._sorted()[2].any()

    def component(self, k):
        out = self._like(components=1)
        out._keep_sorted(None, *self._arrays(k))
        out.tailflag, out.discarded = self.tailflag, self.discarded
        return out

    def __repr__(self):
        return ("TruncatedSeries(n=%d, d=%d, components=%d, vmax=%d, "
                "terms=%d%s)" % (
                    self.n, self.d, self.components, self.vmax,
                    self.nterms(), ", tail" if self.tailflag else ""))

    # -- ring operations ------------------------------------------------------

    def _check_compat(self, other):
        if (self.n, self.d) != (other.n, other.d):
            raise SeriesError("series dimension mismatch: (%d,%d) vs (%d,%d)"
                              % (self.n, self.d, other.n, other.d))

    def add(self, other):
        """``_accumulate`` of self's records, then other's, as one write."""
        self._check_compat(other)
        if self.components != other.components:
            raise SeriesError("component count mismatch in add")
        out = self._like(vmax=min(self.vmax, other.vmax))
        out.tailflag = self.tailflag or other.tailflag
        out.discarded = self.discarded + other.discarded
        ka, ea, va = self._sorted()
        kb, eb, vb = other._sorted()
        # _accumulate drops a first record of modulus PRUNE or less inside
        # the window before the other's record at its key arrives
        keep = modulus(va) > PRUNE
        if not keep.all():
            keep |= _outside(ea, self.n, out.vmax)
        _scatter([out], None, None if ka is None else
                 np.concatenate((ka[keep], kb)),
                 np.concatenate((ea[keep], eb)),
                 np.concatenate((va[keep], vb)), [[]])
        return out

    def scale(self, c):
        c = complex(c)
        ks, exps, vals = self._sorted()
        vals = multiply(vals, c)
        # products of c = 0 are zero (or nan) and fail the test
        keep = modulus(vals) > PRUNE
        out = self._like()
        out._keep_sorted(None if ks is None else ks[keep], exps[keep],
                         vals[keep])
        out.tailflag = self.tailflag
        out.discarded = self.discarded * abs(c)
        return out

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def __neg__(self):
        return self.scale(-1.0)

    def _sorted(self):
        """Every term as (ks, exps, vals) arrays sorted by (k, P, Q); ``ks``
        is None for a single component.

        The store of record of every series an operation returns, and the
        one order in which the kernels and the bulk sums read a series.
        Built from the dict once, when the dict is the store, and kept,
        read-only, with the components' ``_arrays``, until ``_accumulate``
        or the ``coeffs`` handle drops them.
        """
        if self._store is None:
            keys = list(self._table)
            exps = np.array([key[1] + key[2] for key in keys],
                            dtype=np.int64).reshape(len(keys), self.n + self.d)
            vals = np.array(list(self._table.values()), dtype=np.complex128)
            ks = None
            if self.components > 1:
                ks = np.array([key[0] for key in keys], dtype=np.int64)
            # lexsort's last key is the primary one
            order = np.lexsort([*exps.T[::-1]] + ([] if ks is None else [ks]))
            self._keep_sorted(None if ks is None else ks[order], exps[order],
                              vals[order], self._table)
        return self._store["sorted"]

    def _arrays(self, k):
        """Component k as kernel input: its (exps, vals) slice of
        ``_sorted``, sorted by (P, Q)."""
        self._sorted()
        return self._store[k]

    def _operand(self, k):
        """Component k as a ``cauchy_product`` operand: its ``_arrays`` and
        their ``table_data``, built once and kept with them."""
        exps, vals = self._arrays(k)
        data = self._store.get(("data", k))
        if data is None:
            data = self._store[("data", k)] = table_data(exps, vals, self.n)
        return exps, vals, data

    def _keep_sorted(self, ks, exps, vals, table=None):
        """Keep every term, sorted by (k, P, Q), as ``_sorted`` and the
        components' ``_arrays`` (``ks`` is None for a single component),
        with ``table`` as the dict (None: built on demand)."""
        for array in (ks, exps, vals):
            if array is not None:
                array.flags.writeable = False
        self._table = table
        self._store = {"sorted": (ks, exps, vals)}
        if ks is None:
            self._store[0] = (exps, vals)
            return
        cuts = np.searchsorted(ks, range(self.components + 1)).tolist()
        for j in range(self.components):
            self._store[j] = (exps[cuts[j]:cuts[j + 1]],
                              vals[cuts[j]:cuts[j + 1]])

    def mul(self, other):
        """Cauchy product on (P, Q); componentwise with scalar broadcast."""
        self._check_compat(other)
        ca, cb = self.components, other.components
        if ca != cb and 1 not in (ca, cb):
            raise SeriesError("component counts incompatible for product")
        comps = max(ca, cb)
        out = self._like(components=comps,
                         vmax=min(self.vmax, other.vmax))
        out.tailflag = self.tailflag or other.tailflag
        out.discarded = self.discarded + other.discarded
        parts = []
        for k in range(comps):
            ea, va, da = self._operand(k if ca > 1 else 0)
            eb, vb, db = other._operand(k if cb > 1 else 0)
            exps, vals, dropped = cauchy_product(
                ea, va, eb, vb, self.n, self.d, out.vmax, PRUNE, da, db)
            if dropped:
                out.tailflag = True
                out.discarded += dropped
            parts.append((exps, vals))
        if comps == 1:
            (exps, vals), ks = parts[0], None
        else:
            ks = np.repeat(np.arange(comps), [len(v) for _, v in parts])
            exps = np.concatenate([e for e, _ in parts])
            vals = np.concatenate([v for _, v in parts])
        # the kernel output is sorted by packed key, i.e. by (P, Q)
        out._keep_sorted(ks, exps, vals)
        return out

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.mul(other)
        return self.scale(other)

    __rmul__ = __mul__

    # -- structure maps -------------------------------------------------------

    def homogeneous_part(self, m):
        """Terms of vertical degree exactly m."""
        return self._rows(self._degrees() == m)

    def up_to_degree(self, m):
        return self._rows(self._degrees() <= m)

    def above_degree(self, m):
        """Terms of vertical degree above m, the complement of
        ``up_to_degree``, with the truncation record kept."""
        out = self._rows(self._degrees() > m)
        out.tailflag, out.discarded = self.tailflag, self.discarded
        return out

    def restrict(self, vmax=None):
        """Re-truncate to a smaller window, flagging discarded mass."""
        out = self._like(vmax=vmax)
        out.tailflag = self.tailflag
        out.discarded = self.discarded
        _scatter([out], None, *self._sorted(), [[]], one_per_key=True)
        return out

    def cut(self, vmax):
        """Working copy on the smaller vertical window ``vmax``, unflagged.

        Unlike ``restrict`` the terms above ``vmax`` leave no trace in
        ``tailflag`` or ``discarded``: a caller cuts a series only where
        those terms are recomputed later or cannot reach its output.
        """
        keep = None if vmax >= self.vmax else self._degrees() <= vmax
        out = self._rows(keep, vmax=min(vmax, self.vmax))
        out.tailflag, out.discarded = self.tailflag, self.discarded
        return out

    def with_window(self, vmax=None, hband=None):
        """Widen the truncation window (no coefficients change).

        ``hband`` is accepted and ignored: the benchmark under
        ``perfbench/`` still passes it."""
        vmax = self.vmax if vmax is None else max(self.vmax, vmax)
        out = self._rows(vmax=vmax)
        out.tailflag, out.discarded = self.tailflag, self.discarded
        return out

    def shift_h(self, P0):
        """Multiply by the monomial h^{P0} (exponent translation)."""
        ks, exps, vals = self._sorted()
        out = self._like()
        _scatter([out], None, ks, exps + np.array([*P0] + [0] * self.d,
                                                  dtype=np.int64),
                 vals, [[]], one_per_key=True)
        out.tailflag |= self.tailflag
        out.discarded += self.discarded
        return out

    def max_coeff_diff(self, other):
        """The largest ``abs(a - b)`` over the keys of either series, a
        missing coefficient read as 0, 0.0 when both are empty.

        One ``segment_sum`` over self's records, then other's negated: each
        sum is ``0.0 + a + (-b)``, which is ``a - b`` up to the sign of a
        zero part, so the moduli are bit for bit those of the differences.
        """
        self._check_compat(other)
        mine, theirs = self._sorted(), other._sorted()
        rows = np.concatenate([np.column_stack((
            np.zeros(len(vals), dtype=np.int64) if ks is None else ks, exps))
            for ks, exps, vals in (mine, theirs)])
        _, sums = segment_sum(rows, np.concatenate((mine[2], -theirs[2])))
        return float(modulus(sums).max()) if len(sums) else 0.0

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, logh, v):
        """Evaluate at points; logh (M, n) complex, v (M, d) complex.

        Returns an (M, components) complex array.  h coordinates are passed
        logarithmically so Laurent powers stay stable far from |h| = 1.
        """
        logh = np.atleast_2d(np.asarray(logh, dtype=np.complex128))
        v = np.atleast_2d(np.asarray(v, dtype=np.complex128))
        out = np.empty((logh.shape[0], self.components), dtype=np.complex128)
        for k in range(self.components):
            exps, vals = self._arrays(k)
            out[:, k] = _kernel_evaluate(exps, vals, logh, v)
        return out

    # -- serialization (TLS format) -------------------------------------------

    def to_text(self):
        """The TLS text: a header ``TLS n d components vmax pmax``, with
        ``pmax`` the largest ``|P|_inf`` of a term (0 without terms), then
        one record per term in sorted order."""
        pmax = int(np.abs(self._sorted()[1][:, :self.n]).max(initial=0))
        lines = ["TLS %d %d %d %d %d" % (self.n, self.d, self.components,
                                         self.vmax, pmax)]
        for k, P, Q, c in self.terms():
            fields = [str(k)] + [str(p) for p in P] + [str(q) for q in Q]
            # plain floats: repr of a numpy scalar is "np.float64(...)"
            fields.append(repr(float(c.real)))
            fields.append(repr(float(c.imag)))
            lines.append(" ".join(fields))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Read a TLS text, keeping every value exactly as written.

        The header's fifth field must be a nonnegative int and is otherwise
        ignored: ``to_text`` writes the terms' largest ``|P|_inf`` there,
        and older writers wrote the retired horizontal band."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise SeriesError("empty TLS text")
        head = lines[0].split()
        try:
            n, d, components, vmax, pmax = map(int, head[1:])
            if head[0] != "TLS" or min(n, d, components, vmax, pmax) < 0:
                raise ValueError
        except ValueError:
            raise SeriesError("bad TLS header: %r" % lines[0]) from None
        out = cls(n, d, components, vmax)
        for ln in lines[1:]:
            parts = ln.split()
            try:
                if len(parts) != 1 + n + d + 2:
                    raise ValueError
                k = int(parts[0])
                P = tuple(int(x) for x in parts[1:1 + n])
                Q = tuple(int(x) for x in parts[1 + n:1 + n + d])
                c = complex(float(parts[-2]), float(parts[-1]))
            except ValueError:
                raise SeriesError("bad TLS record: %r" % ln) from None
            out._check_key(k, P, Q)
            if (k, P, Q) in out._table:
                raise SeriesError("duplicate TLS record: %r" % ln)
            out._table[(k, P, Q)] = c
        return out


# -- free functions over series ----------------------------------------------


def _keys(ks, exps, n):
    """Table keys (k, P, Q) of Python ints from components (None for
    component 0 throughout) and exponent rows."""
    return zip(repeat(0) if ks is None else ks.tolist(),
               map(tuple, exps[:, :n].tolist()),
               map(tuple, exps[:, n:].tolist()))


def scale_components(f, factors):
    """Multiply component k by factors[k] (diagonal matrix action on values)."""
    factors = np.asarray(factors, dtype=np.complex128).reshape(-1)
    if len(factors) != f.components:
        raise SeriesError("need one factor per component")
    ks, exps, vals = f._sorted()
    out = f._like()
    out.tailflag, out.discarded = f.tailflag, f.discarded
    _scatter([out], None, ks, exps,
             multiply(vals, factors[0] if ks is None else factors[ks]), [[]],
             one_per_key=True)
    return out


def _outside(exps, n, vmax):
    """Rows above ``vmax``, which may be a per-row array."""
    return exps[:, n:].sum(axis=1) > vmax


def compose_diagonal(f, lam, mu, sign=1):
    """Compose with the diagonal map (h, v) -> (lam h, mu v), or its inverse.

    Coefficient at (P, Q) picks up the factor (lam^P mu^Q)^sign; exact
    coefficient-wise scaling, no truncation loss.  A product of modulus
    PRUNE or less is dropped, as ``scale`` drops it.
    """
    if sign not in (1, -1):
        raise SeriesError("sign must be +1 or -1")
    lam = np.asarray(lam, dtype=np.complex128)
    mu = np.asarray(mu, dtype=np.complex128)
    if lam.shape != (f.n,) or mu.shape != (f.d,):
        raise SeriesError("multiplier arity mismatch")
    out = f._like()
    cache = {}
    for k, P, Q, c in f.terms():
        factor = cache.get((P, Q))
        if factor is None:
            factor = 1.0 + 0.0j
            for lj, p in zip(lam, P):
                factor *= complex(lj) ** int(p)
            for mj, q in zip(mu, Q):
                factor *= complex(mj) ** int(q)
            if sign < 0:
                factor = 1.0 / factor
            cache[(P, Q)] = factor
        val = c * factor
        if abs(val) > PRUNE:
            out._table[(k, P, Q)] = val
    out.tailflag, out.discarded = f.tailflag, f.discarded
    return out


def _vertical_shift_powers(phi, vmax):
    """A new table of the powers (v_j + phi_j)^q on the window ``vmax``.

    Row j holds ``[None, v_j + phi_j]``; ``substitute_vertical`` extends it
    on demand as ``row[q] = row[q - 1].mul(row[1])``.
    """
    rows = []
    for j in range(phi.d):
        ej = tuple(1 if l == j else 0 for l in range(phi.d))
        w = TruncatedSeries.monomial(phi.n, phi.d, 0, (0,) * phi.n, ej,
                                     components=1, vmax=vmax)
        w = w.add(phi.component(j).restrict(vmax=vmax))
        rows.append([None, w])
    return rows


def substitute_vertical(f, phi):
    """Substitute v <- v + phi(h, v) with ord_v phi >= 2.

    The substitution is filtered by vertical degree: the degree-m part of
    the result only involves parts of phi of degree < m.  Dropping
    |Q| > vmax mass early is safe because vertical degrees only grow under
    products.

    W_Q = prod_j (v_j + phi_j)^q_j is v^Q plus terms of degree >= |Q| +
    ord_v phi - 1, so a term with |Q| > vmax - ord_v phi + 1 is its own
    record, as a pure h-monomial term is (above the output vmax it goes to
    ``discarded``), and no power past that degree is formed.

    The mass the substitution drops above vmax is carried: a term c h^P v^Q
    adds ``|c| * W_Q.discarded`` to ``discarded`` and W_Q's ``tailflag`` to
    the result's, and a term past vmax - ord_v phi + 1, whose row is not
    formed, adds the triangle bound of that row,
    ``|c| * (prod_j (1 + |phi_j|_1)^q_j - 1)`` with ``|phi_j|_1`` the sum
    of phi_j's moduli.  Each term's amount goes into ``discarded`` just
    before its records, in sorted term order.  phi's own truncation record
    is added only where f has a term of positive degree, the only terms
    that read phi: substituting into an f without such terms and without a
    record is exact.

    The powers (v_j + phi_j)^q are kept with ``phi``, one table per output
    ``vmax``, built on the first substitution into ``phi`` and extended as
    later ones need higher powers.  Every series substituted into the same
    ``phi`` (a deck map's two perturbations and ``phi_v`` at each degree of
    the linearization) reuses them, and each power is the same product in
    the same order as when it was first formed.  A ``phi`` without terms
    substitutes v for v: ``f`` is re-truncated to the output window, its
    terms in sorted order (the order the scatter reads them in), and no
    powers are formed.
    """
    if phi.components != f.d:
        raise SeriesError("phi must have d components")
    order = phi.v_order()
    if order < 2:
        raise SeriesError("phi must vanish to order >= 2 in v")
    vmax = min(f.vmax, phi.vmax)
    out = f._like(vmax=vmax)
    # phi reaches the result only through f's terms of positive degree
    reads_phi = bool((f._degrees() > 0).any())
    out.tailflag = f.tailflag or (reads_phi and phi.tailflag)
    out.discarded = f.discarded + (phi.discarded if reads_phi else 0.0)
    if not phi.nterms():
        _scatter([out], None, *f._sorted(), [[]], one_per_key=True)
        return out

    if phi._shift is None:
        phi._shift = {}
    rows = phi._shift.get(vmax)
    if rows is None:
        rows = phi._shift[vmax] = _vertical_shift_powers(phi, vmax)

    def power(j, q):
        row = rows[j]
        while len(row) <= q:
            row.append(row[-1].mul(row[1]))
        return row[q]

    # f's terms, each followed by the records of its W_Q = prod_j (v_j +
    # phi_j)^q_j, both in sorted order, gathered by index arithmetic
    if not f.nterms():
        return out
    fk, fexps, fvals = f._sorted()
    n = f.n
    limit = vmax - order + 1
    # the distinct Q, as rows packed into one integer each
    qkeys = fexps[:, n:] @ (f.vmax + 1) ** np.arange(f.d, dtype=np.int64)
    _, firsts, which = np.unique(qkeys, return_index=True, return_inverse=True)
    norms = [fsum(modulus(phi._arrays(j)[1]).tolist()) for j in range(f.d)]
    tables, lost = [], []
    for Q in fexps[firsts, n:].tolist():
        W = None
        if sum(Q) <= limit:
            for j, q in enumerate(Q):
                if q:
                    Wj = power(j, q)
                    W = Wj if W is None else W.mul(Wj)
        if W is not None:
            tables.append(W._arrays(0))
            lost.append(W.discarded)
            out.tailflag |= W.tailflag
            continue
        # a pure h-monomial term, or one past limit: its value is set below
        tables.append((np.array([[0] * n + Q], dtype=np.int64),
                       np.ones(1, dtype=np.complex128)))
        grow = 1.0
        for norm, q in zip(norms, Q):
            grow *= (1.0 + norm) ** q
        lost.append(grow - 1.0)
        out.tailflag |= grow > 1.0
    lens = np.array([len(vals) for _, vals in tables])
    wexps = np.concatenate([exps for exps, _ in tables])
    wvals = np.concatenate([vals for _, vals in tables])
    count = lens[which]
    term = np.repeat(np.arange(len(fvals)), count)
    ends = np.cumsum(count)
    widx = np.arange(ends[-1]) + np.repeat(
        np.cumsum(lens)[which] - lens[which] - ends + count, count)
    exps = wexps[widx]
    exps[:, :n] += fexps[term, :n]
    vals = multiply(fvals[term], wvals[widx])
    degree = fexps[:, n:].sum(axis=1)
    direct = ((degree == 0) | (degree > limit))[term]
    vals[direct] = fvals[term[direct]]
    amounts = modulus(fvals) * np.array(lost)[which]
    _scatter([out], None, None if fk is None else fk[term], exps, vals,
             [list(zip((ends - count).tolist(), amounts.tolist()))])
    return out


def linear_combinations(sums):
    """One series sum_i c_i s_i per list of summands in ``sums``.

    A summand is ``(s_i, c_i)``, or ``(s_i, c_i, P_i, p_i)``, which stands
    for ``s_i.shift_h(P_i).scale(p_i)`` in place of ``s_i``.  Each sum is
    bit for bit the sum a loop builds by adding ``s_i.scale(c_i)`` to a
    running total in turn (see ``_scatter`` for the one exception), with
    the terms of each ``s_i`` stored sorted: the records of each ``s_i``
    times ``c_i``, in sorted order, those of modulus PRUNE or less left
    out as ``scale`` leaves them out, are summed per key in the order of
    the pairs.  Each result has the smallest window among its ``s_i``,
    ``tailflag`` if any of them has it, and ``discarded`` summed in the
    same order, each ``s_i.discarded * |c_i|`` before the mass its own
    records lose to the window.  All the sums share one segment sum.

    A shifted summand is formed on the concatenated records, not as a
    series: its exponents move by ``P_i``; a record of modulus PRUNE or
    less drops out as ``shift_h`` would not store it; the rest are
    multiplied by ``p_i``, pruned as ``scale`` prunes, then multiplied by
    ``c_i``.  Its mark is ``s_i.discarded * |p_i| * |c_i|``, the
    ``discarded`` of ``shift_h`` and ``scale`` times ``|c_i|``.
    """
    outs, summands, scales, owner, folds = [], [], [], [], []
    for pairs in sums:
        first = pairs[0][0]
        for s, *_ in pairs:
            first._check_compat(s)
            if s.components != first.components:
                raise SeriesError("component count mismatch in add")
        out = first._like(vmax=min(s.vmax for s, *_ in pairs))
        out.tailflag = any(s.tailflag for s, *_ in pairs)
        owner += [len(outs)] * len(pairs)
        outs.append(out)
        for s, c, *fold in pairs:
            summands.append(s)
            scales.append(complex(c))
            folds.append((fold[0], complex(fold[1])) if fold else None)
    if not outs:
        return outs
    parts = [s._sorted() for s in summands]
    counts = [len(vals) for _, _, vals in parts]
    exps = np.concatenate([exps for _, exps, _ in parts])
    vals = np.concatenate([vals for _, _, vals in parts])
    keep = np.ones(len(vals), dtype=bool)
    if any(folds):
        n = summands[0].n
        shifted = np.repeat([fold is not None for fold in folds], counts)
        exps[:, :n] += np.repeat(
            np.array([fold[0] if fold else (0,) * n for fold in folds],
                     dtype=np.int64), counts, axis=0)
        keep &= ~shifted | (modulus(vals) > PRUNE)
        pre = np.repeat([fold[1] if fold else 1.0 for fold in folds], counts)
        vals[shifted] = multiply(vals[shifted], pre[shifted])
        keep &= ~shifted | (modulus(vals) > PRUNE)
    vals = multiply(vals, np.repeat(np.array(scales), counts))
    # products of c = 0 are zero (or nan) and fail the test, as in scale
    keep &= modulus(vals) > PRUNE
    # each summand's mark goes before its first kept record
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    starts = kept_before[np.cumsum(counts) - counts].tolist()
    marks = [[] for _ in outs]
    for o, i, s, c, fold in zip(owner, starts, summands, scales, folds):
        own = s.discarded if fold is None else s.discarded * abs(fold[1])
        marks[o].append((i, own * abs(c)))
    if keep.all():
        keep = slice(None)
    ids = np.repeat(owner, counts)[keep] if len(outs) > 1 else None
    ks = None
    if max(s.components for s in summands) > 1:
        ks = np.concatenate([np.zeros(len(v), dtype=np.int64) if k is None
                             else k for k, _, v in parts])[keep]
    _scatter(outs, ids, ks, exps[keep], vals[keep], marks)
    return outs


def _scatter(outs, ids, ks, exps, vals, marks, one_per_key=False):
    """Add records ``ids[i]: (ks[i], exps[i]) -> vals[i]`` to empty
    tables: the one write of every sum and every re-truncation.

    The bulk form of ``outs[ids[i]]._accumulate`` on the records in order,
    with ``ids`` nondecreasing (None for one table, and ``ks`` None for
    component 0 throughout): a record outside its table's window sets
    ``tailflag`` and adds its modulus to ``discarded``, in record order,
    and each ``(i, amount)`` in ``marks[o]`` adds ``amount`` to
    ``outs[o].discarded`` just before record i.  The records inside are
    summed per table and key by ``segment_sum``, in record order, and the
    sums of modulus above PRUNE are stored in sorted key order, without
    testing their window again, and kept as the tables' ``_sorted``
    arrays.  The one difference from the record-by-record loop, besides
    the order of the keys: that loop drops a running sum whose modulus
    falls to PRUNE or below before the key's last record.  A sum that
    cancels to exactly zero restarts from the same 0.0 either way.  Records
    ``one_per_key``, sorted, have nothing to sum: each is ``0j + c``.
    """
    n = outs[0].n
    vmax = outs[0].vmax if ids is None else \
        np.array([o.vmax for o in outs])[ids]
    outside = _outside(exps, n, vmax)
    # each table's lost records and marks, in record order: a mark before
    # record i comes first (marks of 0.0 leave discarded as it is)
    events = {}
    for o, mine in enumerate(marks):
        for i, amount in mine:
            if amount:
                events.setdefault(o, []).append((i, 0, amount))
    if outside.any():
        at = np.flatnonzero(outside)
        for i, o, amount in zip(at.tolist(),
                                repeat(0) if ids is None else ids[at].tolist(),
                                modulus(vals[at]).tolist()):
            events.setdefault(o, []).append((i, 1, amount))
            outs[o].tailflag = True
        inside = ~outside
        ids = None if ids is None else ids[inside]
        ks = None if ks is None else ks[inside]
        exps, vals = exps[inside], vals[inside]
    for o, mine in events.items():
        total = outs[o].discarded
        # a stable sort: marks at the same record keep their order
        for _, _, amount in sorted(mine, key=lambda event: event[:2]):
            total += amount
        outs[o].discarded = total
    if one_per_key:
        first, sums = np.arange(len(vals)), vals + 0j
    else:
        columns = [col for col in (ids, ks) if col is not None]
        rows = np.column_stack((*columns, exps)) if columns else exps
        first, sums = segment_sum(rows, vals)
    # a sum starts from +0.0, so it is never -0.0, and adding it to an
    # empty slot (0j + sum) would change no bit
    live = modulus(sums) > PRUNE
    if not live.all():
        first, sums = first[live], sums[live]
    # the sums come in ascending key order, the table index first, so each
    # table's keys are one sorted run
    ids = None if ids is None else ids[first]
    ks = None if ks is None else ks[first]
    exps = exps[first]
    cuts = [0, len(sums)] if ids is None else \
        np.searchsorted(ids, np.arange(len(outs) + 1)).tolist()
    for out, lo, hi in zip(outs, cuts, cuts[1:]):
        out._keep_sorted(None if ks is None or out.components == 1
                         else ks[lo:hi], exps[lo:hi], sums[lo:hi])


def partial_h(f, P0):
    """Derivative d^{P0}/dh^{P0}; falling-factorial weights, exponents shift."""
    P0 = tuple(int(p) for p in P0)
    if len(P0) != f.n or any(p < 0 for p in P0):
        raise SeriesError("P0 must be a nonnegative n-multi-index")
    out = f._like()
    out.tailflag, out.discarded = f.tailflag, f.discarded
    records = []
    for k, P, Q, c in f.terms():
        w = 1
        for j in range(f.n):
            for i in range(P0[j]):
                w *= P[j] - i
        if w:
            records.append(((k, tuple(p - p0 for p, p0 in zip(P, P0)), Q),
                            c * w))
    out._accumulate(records)
    return out


def invert_vertical_map(G):
    """Series H with H + G(h, v + H) = 0, i.e. the inverse of (h, v + G).

    Fixed-point iteration from H = 0.  With r = ord_v G, the degree-m part
    of G(h, v + H) reads H only below degree m - r + 2, so each sweep
    settles r - 1 more degrees: sweep s = 1, 2, ... is exact through degree
    (s + 1)(r - 1) and is computed only that far, on G and H cut there.
    The terms it leaves out are exactly the ones the next, wider sweep
    would recompute, and every coefficient it does form is the same sum in
    the same order as in a full-window sweep.  The first sweep on the full
    vmax window is the last: it reads H only through degree vmax - settle,
    which the sweep before it has settled (the start H = 0 is exact below
    degree r), so a further sweep would give the same coefficients bit for
    bit; its truncation record would add what it drops above vmax.
    """
    if G.components != G.d:
        raise SeriesError("vertical map must have d components")
    if G.v_order() < 2:
        raise SeriesError("vertical map must vanish to order >= 2 in v")
    settle = G.v_order() - 1
    H = G._like(components=G.d)
    for sweep in range(1, G.vmax + 2):
        window = min(G.vmax, (sweep + 1) * settle)
        H = substitute_vertical(G.cut(window), H.cut(window)).scale(-1.0) \
            .with_window(vmax=G.vmax)
        if window == G.vmax:
            break
    return H
