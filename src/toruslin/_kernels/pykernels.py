"""The hot kernels, in numpy.

Coefficient tables are (exps, vals) pairs with ``exps`` an int64 array of
shape (N, n+d) holding the h-exponents first and the v-exponents last, and
``vals`` a complex128 array of shape (N,).  Outputs are sorted by packed
exponent key.

``cauchy_product`` forms only the pairs that can land inside the vertical
window, so the ``discarded`` it returns is an upper bound on the absolute
mass its truncation drops, not that mass itself (see its docstring).

``evaluate`` splits each monomial ``h^P v^Q`` into a modulus, one real
``exp(P . log|h|)`` per term and point, and a phase gathered from small
per-variable power tables of ``exp(i arg h_j)`` and ``v_j``.  It does not
tabulate ``h_j`` itself, whose powers can overflow at an intermediate step
where the monomial is finite (see its docstring).
"""

import numpy as np

BACKEND = "py"

_CHUNK = 2048


def _pack(exps, lo, strides):
    return (exps - lo) @ strides


def _packing(exps_a, exps_b):
    """Common packing grid for all pairwise exponent sums."""
    lo = exps_a.min(axis=0) + exps_b.min(axis=0)
    hi = exps_a.max(axis=0) + exps_b.max(axis=0)
    sizes = hi - lo + 1
    if np.log2(sizes.astype(float)).sum() > 62:
        raise OverflowError("exponent grid too large to pack into int64")
    strides = np.ones(len(sizes), dtype=np.int64)
    for j in range(len(sizes) - 2, -1, -1):
        strides[j] = strides[j + 1] * sizes[j + 1]
    return lo, sizes, strides


def cauchy_product(exps_a, vals_a, exps_b, vals_b, n, d, vmax, hband, prune):
    """Convolution of two coefficient tables truncated to (vmax, hband).

    Returns (exps, vals, discarded).  Only the pairs whose vertical degrees
    sum to at most ``vmax`` are formed, in the row-major order of the full
    outer product, so every kept coefficient is the same sum of the same
    products in the same order as in the full convolution.  ``discarded``
    is the exact absolute mass of the formed coefficients that fall
    outside ``hband``, plus ``sum |a_i| |b_j|`` over the pairs not formed:
    by the triangle inequality an upper bound on the mass those pairs would
    have put above ``vmax``.
    """
    if len(vals_a) == 0 or len(vals_b) == 0:
        return (
            np.zeros((0, n + d), dtype=np.int64),
            np.zeros(0, dtype=np.complex128),
            0.0,
        )
    lo, sizes, strides = _packing(exps_a, exps_b)
    keys_a = _pack(exps_a, 0, strides)
    keys_b = _pack(exps_b, 0, strides)
    base = lo @ strides

    deg_a = exps_a[:, n:].sum(axis=1)
    deg_b = exps_b[:, n:].sum(axis=1)
    inside = deg_a[:, None] + deg_b[None, :] <= vmax
    rows, cols = np.nonzero(inside)  # row-major, like the full outer product
    bound = float(np.abs(vals_a) @ (~inside @ np.abs(vals_b)))

    keys = keys_a[rows] + keys_b[cols] - base
    vals = vals_a[rows] * vals_b[cols]

    uniq, inv = np.unique(keys, return_inverse=True)
    acc = np.bincount(inv, weights=vals.real, minlength=len(uniq)) + 1j * np.bincount(
        inv, weights=vals.imag, minlength=len(uniq)
    )

    exps = np.empty((len(uniq), n + d), dtype=np.int64)
    rem = uniq.copy()
    for j in range(n + d):
        exps[:, j] = rem // strides[j]
        rem -= exps[:, j] * strides[j]
    exps += lo

    live = np.abs(acc) > prune
    keep = live.copy()
    if n:
        keep &= np.abs(exps[:, :n]).max(axis=1) <= hband
    discarded = float(np.abs(acc[live & ~keep]).sum()) + bound
    return exps[keep], acc[keep], discarded


def _power_table(z, lo, hi):
    """Rows z**lo .. z**hi of each point's z, for lo <= 0 <= hi.

    Built by repeated multiplication from the row of ones; negative powers
    are powers of the reciprocal, which is formed only when ``lo < 0``.
    """
    table = np.empty((hi - lo + 1, len(z)), dtype=np.complex128)
    table[-lo] = 1.0
    for k in range(1, hi + 1):
        np.multiply(table[-lo + k - 1], z, out=table[-lo + k])
    if lo < 0:
        inv = 1.0 / z
        for k in range(1, -lo + 1):
            np.multiply(table[-lo - k + 1], inv, out=table[-lo - k])
    return table


def evaluate(exps, vals, logh, v):
    """Evaluate sum_t vals[t] * exp(P_t . logh) * v^Q_t at many points.

    logh: (M, n) complex log of the h coordinates; v: (M, d) complex.

    Each monomial is split into a modulus and a phase.  The modulus
    ``exp(P_t . Re(logh))`` is one real ``exp`` per term and point.  The
    phase is a product of gathers from per-variable power tables: one of
    ``exp(i Im(logh_j))`` for each h variable and one of ``v_j`` for each
    vertical variable, each built by repeated multiplication.  ``h_j``
    itself is not tabulated: on a domain far from ``|h| = 1`` a power
    ``h_j^k`` can overflow (or underflow) at an intermediate step although
    ``exp(P_t . log|h|)`` is finite, and the table would carry ``inf`` or
    ``nan`` into the sum.  The unit-modulus phase tables cannot overflow,
    and the v tables hold powers of ``|v_j| <= r`` with nonnegative
    exponents in every series this package builds.
    """
    m_pts, n = logh.shape
    out = np.zeros(m_pts, dtype=np.complex128)
    if len(vals) == 0:
        return out
    pexp = exps[:, :n].astype(np.float64)
    lo = np.minimum(exps.min(axis=0), 0)
    hi = np.maximum(exps.max(axis=0), 0)
    for start in range(0, m_pts, _CHUNK):
        pts = slice(start, start + _CHUNK)
        lh = logh[pts]
        mono = np.exp(pexp @ lh.real.T)
        for j in range(exps.shape[1]):
            z = np.exp(1j * lh[:, j].imag) if j < n else v[pts, j - n]
            # the gather is a fresh array, so the product can go in place
            factor = _power_table(z, lo[j], hi[j])[exps[:, j] - lo[j]]
            factor *= mono
            mono = factor
        out[pts] = vals @ mono
    return out
