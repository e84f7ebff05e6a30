"""The numpy kernels against all-pairs references written here."""

import numpy as np
import pytest

from toruslin._kernels import cauchy_product, evaluate
from toruslin._kernels.pykernels import _CHUNK


def random_table(rng, nterms, n, d, hband, vmax):
    exps = np.column_stack([
        rng.integers(-hband, hband + 1, size=(nterms, n)),
        rng.integers(0, vmax + 1, size=(nterms, d)),
    ]).astype(np.int64)
    exps = np.unique(exps, axis=0)
    vals = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
    return exps, vals


def all_pairs_product(exps_a, vals_a, exps_b, vals_b, n, d, vmax, hband,
                      prune):
    """Every pair, row-major, summed per exponent; then cut to the window.

    Returns (exps, vals, dropped): the surviving coefficients sorted by
    exponent, and the exact absolute mass of the live coefficients that
    fall outside (vmax, hband).
    """
    prods = (vals_a[:, None] * vals_b[None, :]).ravel()
    acc = {}
    for t, val in enumerate(prods):
        i, j = divmod(t, len(vals_b))
        key = tuple(int(x) for x in exps_a[i] + exps_b[j])
        acc[key] = acc.get(key, 0.0) + complex(val)
    kept, dropped = [], 0.0
    for key in sorted(acc):
        c = acc[key]
        if not abs(c) > prune:
            continue
        if sum(key[n:]) > vmax or (n and max(map(abs, key[:n])) > hband):
            dropped += abs(c)
        else:
            kept.append((key, c))
    exps = np.array([k for k, _ in kept], dtype=np.int64).reshape(-1, n + d)
    vals = np.array([c for _, c in kept], dtype=np.complex128)
    return exps, vals, dropped


CASES = [(1, 1), (2, 1), (1, 2), (2, 2), (1, 0)]


@pytest.mark.parametrize("seed", range(10))
def test_banded_product_matches_all_pairs(seed):
    rng = np.random.default_rng(seed)
    n, d = CASES[seed % len(CASES)]
    vmax = 5 if seed < 5 else int(rng.integers(0, 4))
    ea, va = random_table(rng, 40, n, d, 4, 6)
    eb, vb = random_table(rng, 35, n, d, 4, 6)
    want_e, want_v, dropped = all_pairs_product(ea, va, eb, vb, n, d, vmax, 6,
                                                1e-300)
    got_e, got_v, discarded = cauchy_product(ea, va, eb, vb, n, d, vmax, 6,
                                             1e-300)
    # same keys in the same order, bit for bit the same sums
    assert np.array_equal(got_e, want_e)
    assert np.array_equal(got_v.view(np.float64), want_v.view(np.float64))
    # an upper bound on the dropped mass (up to rounding in the bound)
    assert discarded >= dropped * (1 - 1e-12)


def test_single_pair_above_vmax_discards_its_mass():
    # |(3+4i)(-5+12i)| = |-63+16i| = 65 = 5 * 13, exactly
    ea = np.array([[1, 2]], dtype=np.int64)
    eb = np.array([[-1, 3]], dtype=np.int64)
    va, vb = np.array([3 + 4j]), np.array([-5 + 12j])
    exps, vals, discarded = cauchy_product(ea, va, eb, vb, 1, 1, 4, 6, 1e-300)
    assert len(vals) == 0 and exps.shape == (0, 2)
    assert discarded == abs(va[0] * vb[0]) == 65.0


def test_single_pair_outside_hband_discards_its_mass():
    ea = np.array([[5, 1]], dtype=np.int64)
    eb = np.array([[4, 1]], dtype=np.int64)
    va, vb = np.array([0.3 - 0.1j]), np.array([-2.0 + 0.7j])
    exps, vals, discarded = cauchy_product(ea, va, eb, vb, 1, 1, 4, 6, 1e-300)
    assert len(vals) == 0
    assert discarded == abs(va[0] * vb[0])


def test_no_discard_inside_window():
    rng = np.random.default_rng(77)
    ea, va = random_table(rng, 20, 1, 1, 2, 2)
    eb, vb = random_table(rng, 20, 1, 1, 2, 2)
    _, _, discarded = cauchy_product(ea, va, eb, vb, 1, 1, 4, 4, 1e-300)
    assert discarded == 0.0


@pytest.mark.parametrize("seed", range(3))
def test_evaluate_matches_termwise_sum(seed):
    rng = np.random.default_rng(100 + seed)
    n, d = (1, 2) if seed != 1 else (2, 1)
    exps, vals = random_table(rng, 30, n, d, 4, 5)
    logh = rng.uniform(-0.3, 0.3, (16, n)) + 1j * rng.uniform(0, 6.28, (16, n))
    v = 0.4 * np.exp(1j * rng.uniform(0, 6.28, (16, d)))
    got = evaluate(exps, vals, logh, v)
    want = np.zeros(len(logh), dtype=np.complex128)
    for e, c in zip(exps, vals):
        want += c * np.exp(logh @ e[:n]) * np.prod(v ** e[n:], axis=1)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def longdouble_termwise(exps, vals, logh, v):
    """sum_t vals[t] exp(P_t . logh) v^Q_t, term by term in clongdouble."""
    n = logh.shape[1]
    logh = logh.astype(np.clongdouble)
    v = v.astype(np.clongdouble)
    want = np.zeros(len(logh), dtype=np.clongdouble)
    for e, c in zip(exps, vals):
        term = np.exp(logh @ e[:n].astype(np.clongdouble))
        for j, q in enumerate(e[n:]):
            term *= v[:, j] ** int(q)
        want += np.clongdouble(c) * term
    return want


@pytest.mark.parametrize("zero_column", [False, True])
@pytest.mark.parametrize("n, d", CASES)
def test_evaluate_matches_longdouble_reference(n, d, zero_column):
    rng = np.random.default_rng(10 * n + d + 100 * zero_column)
    # Laurent exponents of both signs in every variable
    exps = rng.integers(-4, 5, size=(25, n + d)).astype(np.int64)
    if zero_column:
        exps[:, -1] = 0
    exps = np.unique(exps, axis=0)
    vals = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
    m_pts = 2 * _CHUNK + 5  # crosses two chunk boundaries
    logh = (rng.uniform(-0.4, 0.4, (m_pts, n))
            + 1j * rng.uniform(0, 2 * np.pi, (m_pts, n)))
    v = rng.uniform(0.3, 0.6, (m_pts, d)) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, (m_pts, d)))
    got = evaluate(exps, vals, logh, v)
    want = longdouble_termwise(exps, vals, logh, v)
    assert got.shape == (m_pts,) and got.dtype == np.complex128
    assert np.abs(got - want).max() <= 4e-15 * np.abs(want).max()


@pytest.mark.parametrize("n, d", CASES)
def test_evaluate_empty_table(n, d):
    rng = np.random.default_rng(7)
    logh = rng.standard_normal((2 * _CHUNK + 5, n)) + 0j
    v = np.full((2 * _CHUNK + 5, d), 0.5 + 0j)
    got = evaluate(np.zeros((0, n + d), dtype=np.int64),
                   np.zeros(0, dtype=np.complex128), logh, v)
    assert np.array_equal(got, np.zeros(2 * _CHUNK + 5, dtype=np.complex128))
