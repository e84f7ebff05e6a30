"""The numpy kernels against all-pairs references written here."""

import inspect
from itertools import product

import numpy as np
import pytest

from toruslin._kernels import _CHUNK, cauchy_product, evaluate, modulus, \
    segment_sum, table_data, vertical_degrees


def random_table(rng, nterms, n, d, pmax, vmax):
    exps = np.column_stack([
        rng.integers(-pmax, pmax + 1, size=(nterms, n)),
        rng.integers(0, vmax + 1, size=(nterms, d)),
    ]).astype(np.int64)
    exps = np.unique(exps, axis=0)
    vals = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
    return exps, vals


def all_pairs_product(exps_a, vals_a, exps_b, vals_b, n, d, vmax, prune):
    """Every pair, row-major, summed per exponent; then cut at vmax.

    A loop of Python scalar products, sums and ``abs``.  Returns (exps,
    vals, dropped): the surviving coefficients sorted by exponent, and the
    moduli of the live coefficients above vmax, in the same order.
    """
    a, b = vals_a.tolist(), vals_b.tolist()
    acc = {}
    for i, j in product(range(len(a)), range(len(b))):
        key = tuple(int(x) for x in exps_a[i] + exps_b[j])
        acc[key] = acc.get(key, 0.0) + a[i] * b[j]
    kept, dropped = [], []
    for key in sorted(acc):
        c = acc[key]
        if not abs(c) > prune:
            continue
        if sum(key[n:]) > vmax:
            dropped.append(abs(c))
        else:
            kept.append((key, c))
    exps = np.array([k for k, _ in kept], dtype=np.int64).reshape(-1, n + d)
    vals = np.array([c for _, c in kept], dtype=np.complex128)
    return exps, vals, dropped


def kernel_product(exps_a, vals_a, exps_b, vals_b, n, d, vmax, prune):
    """``cauchy_product`` with each operand's ``table_data``."""
    return cauchy_product(exps_a, vals_a, exps_b, vals_b, n, d, vmax, prune,
                          table_data(exps_a, vals_a,
                                     vertical_degrees(exps_a, n)),
                          table_data(exps_b, vals_b,
                                     vertical_degrees(exps_b, n)))


CASES = [(1, 1), (2, 1), (1, 2), (2, 2), (1, 0)]


@pytest.mark.parametrize("seed", range(10))
def test_banded_product_matches_all_pairs(seed):
    rng = np.random.default_rng(seed)
    n, d = CASES[seed % len(CASES)]
    vmax = 5 if seed < 5 else int(rng.integers(0, 4))
    ea, va = random_table(rng, 40, n, d, 4, 6)
    eb, vb = random_table(rng, 35, n, d, 4, 6)
    want_e, want_v, dropped = all_pairs_product(ea, va, eb, vb, n, d, vmax,
                                                1e-300)
    got_e, got_v, discarded = kernel_product(ea, va, eb, vb, n, d, vmax,
                                             1e-300)
    # same keys in the same order, bit for bit the same sums
    assert np.array_equal(got_e, want_e)
    assert np.array_equal(got_v.view(np.float64), want_v.view(np.float64))
    # an upper bound on the dropped mass (up to rounding in the bound)
    assert discarded >= sum(dropped) * (1 - 1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_product_bits_do_not_depend_on_the_cpu(seed):
    # numpy's complex multiply fuses into FMA where the CPU has it, and its
    # complex abs may round differently from libm's hypot; the kernel's
    # products and prune test are those of the scalar loop
    rng = np.random.default_rng(200 + seed)
    n, d = CASES[seed]
    ea, va = random_table(rng, 60, n, d, 3, 4)
    eb, vb = random_table(rng, 60, n, d, 3, 4)
    vmax = 8 * d  # every pair formed
    _, sums, _ = all_pairs_product(ea, va, eb, vb, n, d, vmax, 0.0)
    # the scalar modulus of one sum: that sum ties with the prune threshold
    prune = sorted(abs(c) for c in sums.tolist())[len(sums) // 2]
    want_e, want_v, dropped = all_pairs_product(ea, va, eb, vb, n, d, vmax,
                                                prune)
    got_e, got_v, discarded = kernel_product(ea, va, eb, vb, n, d, vmax,
                                             prune)
    assert len(va) * len(vb) > 500 and len(want_v) < len(sums)
    assert np.array_equal(got_e, want_e)
    assert np.array_equal(got_v.view(np.float64), want_v.view(np.float64))
    assert not dropped and discarded == 0.0


def test_single_pair_above_vmax_discards_its_mass():
    # |(3+4i)(-5+12i)| = |-63+16i| = 65 = 5 * 13, exactly
    ea = np.array([[1, 2]], dtype=np.int64)
    eb = np.array([[-1, 3]], dtype=np.int64)
    va, vb = np.array([3 + 4j]), np.array([-5 + 12j])
    exps, vals, discarded = kernel_product(ea, va, eb, vb, 1, 1, 4, 1e-300)
    assert len(vals) == 0 and exps.shape == (0, 2)
    assert discarded == abs(va[0] * vb[0]) == 65.0


def test_no_discard_inside_window():
    rng = np.random.default_rng(77)
    ea, va = random_table(rng, 20, 1, 1, 2, 2)
    eb, vb = random_table(rng, 20, 1, 1, 2, 2)
    _, _, discarded = kernel_product(ea, va, eb, vb, 1, 1, 4, 1e-300)
    assert discarded == 0.0


def test_signature_read_by_the_benchmark_trace():
    # perfbench/tracing.py's _count_cauchy hook wraps cauchy_product by name
    # and counts len(args[1]) * len(args[3]) pairs and len(result[1]) kept
    # terms: the first eight parameters stay positional, in this order, and
    # the result stays (exps, vals, discarded)
    names = list(inspect.signature(cauchy_product).parameters)
    assert names[:8] == ["exps_a", "vals_a", "exps_b", "vals_b", "n", "d",
                         "vmax", "prune"]
    rng = np.random.default_rng(5)
    ea, va = random_table(rng, 6, 1, 1, 2, 2)
    eb, vb = random_table(rng, 5, 1, 1, 2, 2)
    result = kernel_product(ea, va, eb, vb, 1, 1, 4, 1e-300)
    assert type(result) is tuple and len(result) == 3
    exps, vals, discarded = result
    assert exps.shape == (len(vals), 2) and type(discarded) is float


def test_no_pair_inside_vmax_returns_the_bound():
    # every pair lands above vmax = 4, so none is formed, and discarded is
    # the triangle bound sum |a_i| |b_j| over all of them; the moduli are
    # whole numbers, so the bound is exact in any order
    ea = np.array([[0, 2], [1, 3], [-1, 4]], dtype=np.int64)
    va = np.array([3 + 4j, 5 - 12j, -8 + 15j])  # moduli 5, 13, 17
    eb = np.array([[2, 3], [0, 5]], dtype=np.int64)
    vb = np.array([6 + 8j, 7 - 24j])  # moduli 10, 25
    exps, vals, discarded = kernel_product(ea, va, eb, vb, 1, 1, 4, 1e-300)
    assert exps.shape == (0, 2) and exps.dtype == np.int64
    assert vals.shape == (0,) and vals.dtype == np.complex128
    assert discarded == (5 + 13 + 17) * (10 + 25)
    assert discarded == sum(modulus(va).tolist()) * sum(modulus(vb).tolist())


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


@pytest.mark.parametrize("zero_column", [False, True])
@pytest.mark.parametrize("n, d", CASES)
def test_evaluate_does_not_depend_on_the_other_points(n, d, zero_column):
    # each point's value has the same bits whichever points share the
    # call, in whatever order: no matrix product, no chunk boundary and no
    # SIMD loop's tail changes a point's rounding
    rng = np.random.default_rng(40 + 10 * n + d + 100 * zero_column)
    exps = rng.integers(-4, 5, size=(25, n + d)).astype(np.int64)
    if zero_column:
        exps[:, -1] = 0
    exps = np.unique(exps, axis=0)
    vals = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
    m_pts = 3 * _CHUNK + 11
    logh = (rng.uniform(-0.4, 0.4, (m_pts, n))
            + 1j * rng.uniform(0, 2 * np.pi, (m_pts, n)))
    v = rng.uniform(0.3, 0.6, (m_pts, d)) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, (m_pts, d)))
    full = evaluate(exps, vals, logh, v)
    for size in (1, 7, 333, 5000):
        idx = rng.choice(m_pts, size, replace=False)
        got = evaluate(exps, vals, logh[idx], v[idx])
        assert bit_pairs(got) == bit_pairs(full[idx])


@pytest.mark.parametrize("n, d", CASES)
def test_evaluate_empty_table(n, d):
    rng = np.random.default_rng(7)
    logh = rng.standard_normal((2 * _CHUNK + 5, n)) + 0j
    v = np.full((2 * _CHUNK + 5, d), 0.5 + 0j)
    got = evaluate(np.zeros((0, n + d), dtype=np.int64),
                   np.zeros(0, dtype=np.complex128), logh, v)
    assert np.array_equal(got, np.zeros(2 * _CHUNK + 5, dtype=np.complex128))


def loop_sums(rows, vals):
    """{row: sum} of each distinct row's values, added one at a time in
    input order to a Python complex 0j."""
    acc = {}
    for row, c in zip(map(tuple, rows.tolist()), vals.tolist()):
        acc[row] = acc.get(row, 0j) + c
    return acc


def bit_pairs(values):
    return [(c.real.hex(), c.imag.hex()) for c in values]


def check_segment_sum(rows, vals):
    """segment_sum against ``loop_sums``: every distinct row once, in
    ascending order, at its first occurrence, with the loop's sum."""
    first, sums = segment_sum(rows, vals)
    keys = [tuple(row) for row in rows[first].tolist()]
    want = loop_sums(rows, vals)
    assert keys == sorted(want)
    assert first.tolist() == [list(map(tuple, rows.tolist())).index(key)
                              for key in keys]
    assert bit_pairs(sums.tolist()) == bit_pairs(want[key] for key in keys)
    return keys, sums


@pytest.mark.parametrize("seed", range(3))
def test_segment_sum_matches_a_scalar_loop(seed):
    # few distinct rows, many records each, magnitudes over 16 decades:
    # the sums depend on the order their records are added in
    rng = np.random.default_rng(seed)
    rows = rng.integers(-2, 3, size=(300, 3))
    vals = (rng.standard_normal(300) + 1j * rng.standard_normal(300)) \
        * 10.0 ** rng.integers(-8, 9, size=300)
    check_segment_sum(rows, vals)
    backwards = loop_sums(rows[::-1], vals[::-1])
    assert any(bit_pairs([c]) != bit_pairs([backwards[key]])
               for key, c in loop_sums(rows, vals).items())


def test_segment_sum_cancellation_and_negative_zero():
    # row 5 cancels to exactly 0.0 and is hit again; row -1 holds only
    # -0.0 parts, which sum to +0.0 from the +0.0 start; row 2 keeps a
    # -0.0 imaginary part of each record
    rows = np.array([[5], [2], [5], [-1], [2], [5], [-1]], dtype=np.int64)
    vals = np.array([1.5 + 0.25j, complex(-2.0, -0.0), -1.5 - 0.25j,
                     complex(-0.0, -0.0), complex(0.5, -0.0), 0.125j,
                     complex(-0.0, 0.0)])
    keys, sums = check_segment_sum(rows, vals)
    assert keys == [(-1,), (2,), (5,)]
    assert bit_pairs(sums.tolist()) == bit_pairs(
        [0j, complex(-1.5, 0.0), 0.125j])


def test_segment_sum_empty():
    first, sums = segment_sum(np.zeros((0, 2), dtype=np.int64),
                              np.zeros(0, dtype=np.complex128))
    assert first.shape == (0,) and sums.shape == (0,)
    assert sums.dtype == np.complex128


def test_segment_sum_packs_columns_of_their_own_widths():
    # negative entries, a column of one value and columns whose ranges
    # need 1, 20 and 40 bits: each packs in a field of its own width, and
    # the keys keep the rows' lexicographic order
    rng = np.random.default_rng(11)
    distinct = np.column_stack([
        rng.integers(-1, 1, size=40),
        np.full(40, -7),
        rng.integers(-2 ** 19, 2 ** 19, size=40),
        rng.integers(-2 ** 39, 2 ** 39, size=40),
    ])
    # rows that differ only in a low column, and only in a high one
    distinct[1, 2:] = distinct[0, 2:]
    distinct[3, :3] = distinct[2, :3]
    rows = distinct[rng.integers(0, 40, size=300)]
    vals = (rng.standard_normal(300) + 1j * rng.standard_normal(300)) \
        * 10.0 ** rng.integers(-8, 9, size=300)
    keys, _ = check_segment_sum(rows, vals)
    assert len(keys) > 30


def test_segment_sum_rows_too_wide_to_pack():
    # three columns that need 22 bits each: 66 bits in all
    rows = np.array([[0, 0, 0], [2 ** 21, 2 ** 21, 2 ** 21]], dtype=np.int64)
    with pytest.raises(OverflowError):
        segment_sum(rows, np.ones(2, dtype=np.complex128))


# the product key layout's exponent limit, 2^(62 // (n + d) - 2), per (n, d)
LIMITS = {(1, 1): 2 ** 29, (2, 1): 2 ** 18, (1, 2): 2 ** 18, (2, 2): 2 ** 13}


@pytest.mark.parametrize("n, d, window", [
    pytest.param(n, d, window, id="%d-%d%s" % (
        n, d, "" if window is None else "-vmax%d" % window))
    for n, d in sorted(LIMITS) for window in (None, 0, 2, 4, 3)])
def test_product_with_exponents_just_under_the_limit(n, d, window):
    # h exponents of both signs up to one under the limit, and, where the
    # degree table stays small, v exponents up to it too: no field of a
    # pair's key carries into the next, on the widest window the tables
    # reach (None) and on narrow ones
    limit = LIMITS[n, d]
    rng = np.random.default_rng(n + 10 * d)
    hs = [-(limit - 1), -(limit - 2), -1, 0, 1, limit - 2, limit - 1]
    vs = [0, 1, 2, 3] if limit > 2 ** 18 else [0, 1, limit - 2, limit - 1]
    vmax = 4 if limit > 2 ** 18 else limit + 2
    if window is not None:
        vmax = window

    def table(nterms):
        exps = np.unique(np.column_stack(
            [rng.choice(hs, size=nterms) for _ in range(n)]
            + [rng.choice(vs, size=nterms) for _ in range(d)]), axis=0)
        return exps, rng.standard_normal(len(exps)) \
            + 1j * rng.standard_normal(len(exps))

    ea, va = table(40)
    eb, vb = table(35)
    assert np.abs(ea).max() == limit - 1
    want_e, want_v, dropped = all_pairs_product(ea, va, eb, vb, n, d, vmax,
                                                1e-300)
    got_e, got_v, discarded = kernel_product(ea, va, eb, vb, n, d, vmax,
                                             1e-300)
    assert len(want_v) > (50 if window is None else 0)
    assert np.array_equal(got_e, want_e)
    assert np.array_equal(got_v.view(np.float64), want_v.view(np.float64))
    assert discarded >= sum(dropped) * (1 - 1e-12)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n, d", sorted(LIMITS))
def test_product_key_limit(n, d, sign):
    # an exponent of magnitude at the limit, in an h or a v column, cannot
    # be packed; the message names the limit
    limit = LIMITS[n, d]
    vals = np.ones(2, dtype=np.complex128)
    for col in range(n + d) if sign > 0 else range(n):
        exps = np.zeros((2, n + d), dtype=np.int64)
        exps[1, col] = sign * limit
        with pytest.raises(OverflowError,
                           match=r"2\^%d " % (limit.bit_length() - 1)):
            table_data(exps, vals, vertical_degrees(exps, n))
        exps[1, col] = sign * (limit - 1)
        if col < n:  # a v exponent under the limit: a large degree table
            assert table_data(exps, vals,
                              vertical_degrees(exps, n)) is not None


@pytest.mark.parametrize("n, d", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
def test_products_match_all_pairs(n, d):
    # empty and one-term operands, products that form no pair, and a vmax
    # of its own per product: bit for bit the sums of the all-pairs loop
    rng = np.random.default_rng(90 + 10 * n + d)
    tables = [random_table(rng, size, n, d, 3, 5)
              for size in (0, 1, 1, 3, 12, 40, 40, 160, 170)]
    formed = 0
    for _ in range(24):
        a, b = (tables[int(j)] for j in rng.integers(0, len(tables), 2))
        vmax = int(rng.integers(0, 6 * d + 2))
        got_e, got_v, discarded = kernel_product(*a, *b, n, d, vmax, 1e-300)
        want_e, want_v, dropped = all_pairs_product(*a, *b, n, d, vmax,
                                                    1e-300)
        assert got_e.dtype == np.int64 and got_e.shape == (len(got_v), n + d)
        assert np.array_equal(got_e, want_e)
        assert np.array_equal(got_v.view(np.float64), want_v.view(np.float64))
        assert type(discarded) is float
        assert discarded >= sum(dropped) * (1 - 1e-12)
        formed += len(got_v) > 0
    assert formed > 4
