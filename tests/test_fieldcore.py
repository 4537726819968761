import numpy as np
import pytest

from bipoly.errors import (
    BipolyError,
    DimensionMismatchError,
    NonPrimeModulusError,
    ZeroInverseError,
)
from bipoly.fieldcore import (
    PrimeField,
    _digits,
    exact_terms,
    is_prime,
    limb_plan,
    mat_mul_mod,
    mul_mod,
    prime_field,
)

BIG_PRIME = 4611686018427387847  # largest prime below 2**62
Q31 = 2**31 - 1


def naive_mat_mul(a, b, q):
    rows, inner = a.shape
    cols = b.shape[1]
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for k in range(inner):
                acc += int(a[i, k]) * int(b[k, j])
            out[i][j] = acc % q
    return np.array(out, dtype=object)


def python_int_mat_mul(a, b, q):
    """Reference product with Python-int accumulation, for larger shapes."""
    return np.asarray(a).astype(object).dot(np.asarray(b).astype(object)) % q


KERNEL_PRIMES = [2, 3, 65537, 2**31 - 1]


def test_is_prime_known_values():
    for p in (2, 3, 5, 7, 101, 2**31 - 1, BIG_PRIME):
        assert is_prime(p)
    # 561 and 1105 are Carmichael numbers; 3215031751 is a strong
    # pseudoprime to bases 2, 3, 5, 7.
    for n in (0, 1, 4, 9, 561, 1105, 2047, 3215031751, 2**31 + 1):
        assert not is_prime(n)


def test_field_rejects_bad_modulus():
    with pytest.raises(NonPrimeModulusError):
        PrimeField(15)
    with pytest.raises(NonPrimeModulusError):
        PrimeField(1 << 62)


def test_dtype_selection():
    # One array dtype: int64 at every supported q, big primes included.
    rng = np.random.default_rng(0)
    for q in (101, 2**31 - 1, BIG_PRIME):
        f = prime_field(q)
        assert not hasattr(f, "dtype")
        made = [f.zeros(2, 3), f.identity(3), f.random_matrix(rng, 2, 3),
                f.asarray([[q - 1, -1]])]
        assert all(arr.dtype == np.int64 for arr in made)


def test_scalar_mul():
    assert mul_mod(3, 4, 7) == 5
    assert mul_mod(1, 6, 7) == 6
    assert mul_mod(6, 6, 7) == 1  # (-1)^2
    top = np.array([BIG_PRIME - 1], dtype=np.int64)
    assert mul_mod(top, top, BIG_PRIME).tolist() == [1]


def test_scalar_inv():
    f = prime_field(7)
    assert f.inv(1) == 1
    assert f.inv(2) == 4
    assert f.inv(3) == 5
    with pytest.raises(ZeroInverseError):
        f.inv(0)


def test_inverse_equals_fermat_at_the_largest_prime():
    f = prime_field(BIG_PRIME)
    rng = np.random.default_rng(17)
    values = [int(v) for v in rng.integers(1, BIG_PRIME, size=2000)]
    assert [f.inv(a) for a in values] == [pow(a, BIG_PRIME - 2, BIG_PRIME) for a in values]
    with pytest.raises(ZeroInverseError, match="zero has no multiplicative inverse"):
        f.inv(BIG_PRIME)


@pytest.mark.parametrize("q", [101, 2**31 - 1, BIG_PRIME])
def test_inverse_property(q):
    f = prime_field(q)
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = int(rng.integers(1, min(q, 2**62)))
        assert a * f.inv(a) % q == 1


def test_mat_mul_identity_and_zero():
    f = prime_field(101)
    rng = np.random.default_rng(0)
    b = f.random_matrix(rng, 4, 5)
    assert np.array_equal(f.mat_mul(f.identity(4), b), b)
    assert np.array_equal(f.mat_mul(f.zeros(3, 4), b), f.zeros(3, 5))


def test_mat_mul_hand_example():
    f = prime_field(7)
    a = f.asarray([[1, 2], [3, 4]])
    b = f.asarray([[5, 6], [0, 1]])
    assert np.array_equal(f.mat_mul(a, b), f.asarray([[5, 1], [1, 1]]))


def test_mat_mul_shape_error():
    f = prime_field(7)
    with pytest.raises(DimensionMismatchError):
        f.mat_mul(f.zeros(2, 3), f.zeros(2, 3))


@pytest.mark.parametrize("q", [101, 2**31 - 1, BIG_PRIME])
def test_mat_mul_matches_naive(q):
    f = prime_field(q)
    rng = np.random.default_rng(q % 97)
    a = f.random_matrix(rng, 3, 4)
    b = f.random_matrix(rng, 4, 2)
    assert np.array_equal(np.asarray(f.mat_mul(a, b), dtype=object),
                          naive_mat_mul(a, b, q))


def test_mat_mul_associativity_and_distributivity():
    f = prime_field(101)
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = f.random_matrix(rng, 3, 3)
        b = f.random_matrix(rng, 3, 3)
        c = f.random_matrix(rng, 3, 3)
        assert np.array_equal(
            f.mat_mul(f.mat_mul(a, b), c), f.mat_mul(a, f.mat_mul(b, c))
        )
        assert np.array_equal(
            f.mat_mul(a, (b + c) % 101),
            (f.mat_mul(a, b) + f.mat_mul(a, c)) % 101,
        )


def test_solve_identity_and_singular():
    f = prime_field(101)
    rng = np.random.default_rng(2)
    rhs = f.random_matrix(rng, 4, 3)
    assert np.array_equal(f.solve_linear(f.identity(4), rhs), rhs)
    m = f.random_matrix(rng, 4, 4)
    m[2] = m[0]  # rank deficient
    assert f.solve_linear(m, rhs) is None


@pytest.mark.parametrize("q", [101, 2**31 - 1, BIG_PRIME])
def test_solve_round_trip(q):
    f = prime_field(q)
    rng = np.random.default_rng(q % 89)
    trials = 0
    while trials < 8:
        m = f.random_matrix(rng, 5, 5)
        if f.rank(m) < 5:
            continue
        x = f.random_matrix(rng, 5, 2)
        sol = f.solve_linear(m, f.mat_mul(m, x))
        assert np.array_equal(sol, x)
        trials += 1


def test_rank_row_permutation_invariance():
    f = prime_field(101)
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = f.random_matrix(rng, 5, 4)
        m[3] = m[1]
        perm = rng.permutation(5)
        assert f.rank(m) == f.rank(m[perm])


@pytest.mark.parametrize("shape", [(), (4,), (2, 3, 3)])
def test_rank_rejects_an_array_that_is_not_2d(shape):
    with pytest.raises(DimensionMismatchError, match="2-D"):
        prime_field(101).rank(np.zeros(shape, dtype=np.int64))


def test_batched_nonsingular_matches_rank():
    f = prime_field(101)
    rng = np.random.default_rng(4)
    mats = np.stack([f.random_matrix(rng, 4, 4) for _ in range(40)])
    mats[7, 2] = mats[7, 0]  # plant one singular matrix
    mats[19] = 0
    flags = f.batched_nonsingular(mats)
    for i in range(40):
        assert flags[i] == (f.rank(mats[i]) == 4)


def test_batched_nonsingular_matches_rank_at_big_prime():
    q = BIG_PRIME
    f = prime_field(q)
    rng = np.random.default_rng(6)
    mats = np.stack([f.random_matrix(rng, 4, 4) for _ in range(12)])
    mats[1, 3] = mats[1, 0]
    # Row 2 = row 0 + (q-1) * row 1, formed in Python ints.
    mats[2, 2] = (mats[2, 0].astype(object) + (q - 1) * mats[2, 1].astype(object)) % q
    mats[3] = q - 1  # rank 1, and the widest products
    mats[4] = 0
    mats[5] = f.identity(4) * (q - 1)
    flags = f.batched_nonsingular(mats)
    assert flags.tolist() == [f.rank(mat) == 4 for mat in mats]
    assert flags[:6].tolist() == [True, False, False, False, False, True]


def test_batched_nonsingular_of_empty_stacks():
    f = prime_field(101)
    none = f.batched_nonsingular(np.zeros((0, 3, 3), dtype=np.int64))
    assert none.dtype == bool and none.shape == (0,)
    # A 0 x 0 matrix has full rank 0, so it is non-singular.
    assert f.batched_nonsingular(np.zeros((4, 0, 0), dtype=np.int64)).tolist() == [True] * 4


def test_solve_linear_takes_list_operands():
    f = prime_field(101)
    m, rhs = [[2, 1], [1, 1]], [[3, 0], [2, 1]]
    assert f.solve_linear(m, rhs).tolist() == [[1, 100], [1, 2]]
    assert f.solve_linear([[1, 1], [1, 1]], rhs) is None
    with pytest.raises(DimensionMismatchError, match="not square"):
        f.solve_linear([[1, 2, 3]], [[1]])
    with pytest.raises(DimensionMismatchError, match="does not match system size 2"):
        f.solve_linear(m, [[1, 2, 3]])


def test_canonicalisation():
    f = prime_field(7)
    arr = f.asarray([[-1, 8], [14, 6]])
    assert arr.min() >= 0 and arr.max() < 7
    assert np.array_equal(arr, f.asarray([[6, 1], [0, 6]]))
    words = f.asarray(np.array([[2**64 - 1, 2**63]], dtype=np.uint64))
    assert words.tolist() == [[(2**64 - 1) % 7, 2**63 % 7]]


def test_asarray_reduces_object_input_to_int64():
    arr = prime_field(101).asarray(np.array([[2**70, -1], [5, 2**63]], dtype=object))
    assert arr.dtype == np.int64
    assert arr.tolist() == [[2**70 % 101, 100], [5, 2**63 % 101]]
    big = prime_field(BIG_PRIME).asarray(np.array([[2**70]], dtype=object))
    assert big.dtype == np.int64 and big[0, 0] == 2**70 % BIG_PRIME


# -- the float64-BLAS kernel ------------------------------------------------


@pytest.mark.parametrize("q", KERNEL_PRIMES)
@pytest.mark.parametrize(
    "shape", [(1, 1, 1), (3, 4, 5), (48, 240, 48), (5, 20, 300), (7, 70, 3)]
)
def test_kernel_matches_python_ints(q, shape):
    r, s, c = shape
    f = prime_field(q)
    rng = np.random.default_rng(r * s + c)
    a = f.random_matrix(rng, r, s)
    b = f.random_matrix(rng, s, c)
    out = f.mat_mul(a, b)
    assert out.dtype == np.int64
    assert np.array_equal(out, python_int_mat_mul(a, b, q))
    top_a = np.full((r, s), q - 1, dtype=np.int64)
    top_b = np.full((s, c), q - 1, dtype=np.int64)
    assert np.array_equal(f.mat_mul(top_a, top_b), python_int_mat_mul(top_a, top_b, q))


def _constant_product(rows, inner, value, right, q):
    """rows x inner entries `value` times an inner x 1 column of `right`."""
    a = np.full((rows, inner), value, dtype=np.int64)
    b = np.full((inner, 1), right, dtype=np.int64)
    want = inner * value * right % q  # Python-int reference
    return mat_mul_mod(a, b, q).tolist() == [[want]] * rows


def _widest_lefts(q, w, k):
    """Left entries at the digit bound, and the top digit they share.

    One has every low digit at -2**(w-1) under the largest top digit;
    q - 1 has the top digit at its maximum.
    """
    offset = sum((1 << (w - 1)) << (w * j) for j in range(k - 1))
    top = (q - 1 + offset) >> (w * (k - 1))
    lowest = (top << (w * (k - 1))) - offset
    assert lowest < q
    digits = _digits(np.array([lowest, q - 1]), w, k)
    assert all(int(d[0]) == -(1 << (w - 1)) for d in digits[1:])
    assert int(digits[0][1]) == top
    return {lowest, q - 1}


@pytest.mark.parametrize("q", [65537, 2**31 - 1])
def test_kernel_exact_at_the_inner_limit_and_beyond(q):
    # Left entries at the digit bound against right operands of all 0
    # (b - h = -h) and all q - 1 (b - h = q - 1 - h): each digit block's
    # sum reaches the bound in both signs.  At the limit one product per
    # chunk is exact; one past it the kernel must take the chunked path.
    # A 1-row output is the Horner form (rows <= inner).
    _, w, k, limit = limb_plan(q, 1, 1 << 40)
    assert limit == exact_terms(q, w) and k == -(-(q - 1).bit_length() // w)
    for value in _widest_lefts(q, w, k):
        for right in (0, q - 1):
            for inner in (limit, limit + 1):
                assert _constant_product(1, inner, value, right, q)
    # The folded form (rows > inner) splits its chunk's exact sum across
    # its k digits, against uncentred residues.  With one digit
    # (q = 65537) its limit needs > 2**21 rows.
    fold, w, k, limit = limb_plan(q, 1 << 40, 1 << 39)
    assert fold and limit == exact_terms(q, w, centred=False) // k
    if k == 1:
        return
    for value in _widest_lefts(q, w, k):
        for inner in (limit, limit + 1):
            assert _constant_product(inner + 1, inner, value, q - 1, q)


def test_kernel_limits_are_derived_from_q():
    for q in KERNEL_PRIMES:
        bits = (q - 1).bit_length()
        h = (q - 1) // 2
        for w in range(1, bits + 1):
            k = -(-bits // w)
            # The widest digit is a low one, -2**(w-1), or the top digit
            # of q - 1.  A term is that digit times b - h in the Horner
            # form, or times b in the folded form.  The Horner step adds
            # the previous residue shifted by w bits, and the row
            # correction one more residue.
            digit = max(1 << (w - 1), int(_digits(np.array([q - 1]), w, k)[0][0]))
            budget = 2**53 - (q - 1) * 2**w - (q - 1)
            for centred, right in ((True, q - 1 - h), (False, q - 1)):
                widest = digit * right
                limit = exact_terms(q, w, centred)
                assert limit * widest <= budget < (limit + 1) * widest
        for rows, inner in [(1, 1), (48, 240), (255, 20), (25, 79), (2, 1), (1, 10**7)]:
            fold, w, k, chunk = limb_plan(q, rows, inner)
            assert fold == (rows > inner)
            assert k == -(-bits // w)  # k digits of w bits hold every residue
            width = min(inner, chunk)  # inner columns of one exact product
            assert (k * width if fold else width) <= exact_terms(q, w, not fold)
            if k > 1:  # one digit fewer would not reach the same length
                fewer = -(-bits // (k - 1))
                need = min((k - 1) * inner if fold else inner, 1 << 10)
                assert exact_terms(q, fewer, not fold) < need
    # q = 2**31 - 1 at the paper default: a worker product (48 x 240 by
    # 240 x 240) takes two 16-bit digits in one product (11-bit limbs,
    # three of them, without centring), and the B-side generator product
    # (255 x 20) one folded product of two digits.
    assert limb_plan(2**31 - 1, 48, 240) == (False, 16, 2, 251)
    assert limb_plan(2**31 - 1, 255, 20) == (True, 16, 2, 62)
    assert limb_plan(101, 48, 240)[2] == limb_plan(65537, 48, 240)[2] == 1


def test_digits_are_balanced_and_recombine():
    rng = np.random.default_rng(5)
    for q in KERNEL_PRIMES:
        bits = (q - 1).bit_length()
        a = np.concatenate([np.arange(min(q, 4096)), rng.integers(0, q, 4096)])
        for w in range(1, bits + 1):
            k = -(-bits // w)
            digits = _digits(a, w, k)  # top digit first
            assert digits.shape == (k,) + a.shape and digits.dtype == np.float64
            ints = digits[::-1].astype(np.int64).astype(object)
            whole = sum(d << (w * j) for j, d in enumerate(ints))
            assert whole.tolist() == a.tolist()
            for low in digits[1:]:
                assert low.min() >= -(1 << (w - 1)) and low.max() < 1 << (w - 1)
            assert digits[0].min() >= 0


@pytest.mark.parametrize("q", [101, 2**31 - 1, BIG_PRIME])
@pytest.mark.parametrize("rows, inner", [(2, 3), (4, 3)])
def test_kernel_column_tiles(q, rows, inner):
    # Tiles hold about 2**15 output words: 2**15 // rows columns.  Both
    # forms at 1 column, one tile, one tile + 1 and a non-multiple.
    f = prime_field(q)
    rng = np.random.default_rng(rows * 10 + q % 7)
    tile = (1 << 15) // rows
    a = f.random_matrix(rng, rows, inner)
    for cols in (1, tile, tile + 1, 2 * tile + tile // 3):
        b = f.random_matrix(rng, inner, cols)
        assert np.array_equal(mat_mul_mod(a, b, q), python_int_mat_mul(a, b, q))


OUT_PRIMES = [101, 65537, 2**31 - 1, BIG_PRIME]


@pytest.mark.parametrize("q", OUT_PRIMES)
@pytest.mark.parametrize("rows, inner", [(6, 20), (24, 5)])  # Horner, folded
def test_kernel_writes_into_strided_and_3d_destinations(q, rows, inner):
    # Destinations are record-strided views of larger buffers, as encode
    # passes; the words around them stay untouched.
    f = prime_field(q)
    rng = np.random.default_rng(rows + q % 11)
    a = f.random_matrix(rng, rows, inner)
    tile = (1 << 15) // rows
    for cols in (7, tile, 2 * tile + 3):  # one tile, one full tile, three tiles
        b = f.random_matrix(rng, inner, cols)
        want = mat_mul_mod(a, b, q)
        assert np.array_equal(want, python_int_mat_mul(a, b, q))
        flat = np.full((rows, 3 + cols + 2), -1, dtype=np.int64)
        dest = flat[:, 3 : 3 + cols]
        assert mat_mul_mod(a, b, q, out=dest) is dest
        assert np.array_equal(dest, want)
        assert (flat[:, :3] == -1).all() and (flat[:, 3 + cols :] == -1).all()
        # (N, m, cols): rows n*m .. n*m + m - 1 of the product in record n.
        records = np.full((rows // 2, 4 + 2 * cols), -1, dtype=np.int64)
        dest = records[:, 4:].reshape(rows // 2, 2, cols)
        assert np.shares_memory(dest, records)
        assert mat_mul_mod(a, b, q, out=dest) is dest
        assert np.array_equal(dest.reshape(rows, cols), want)
        assert (records[:, :4] == -1).all()


@pytest.mark.parametrize("q", OUT_PRIMES)
@pytest.mark.parametrize("rows, blocks, width", [(64, 7, 100), (32, 2, 1100)])
def test_kernel_writes_side_by_side_blocks_into_separate_records(q, rows, blocks, width):
    # A rows x (blocks * width) product into a (rows, blocks, width) view:
    # block j lands in record j, as compute_all writes a worker's m
    # products.  Tiles hold whole blocks: five 100-wide blocks to a tile
    # of 512 columns, or one 1100-wide block past a 1024-column tile.
    f = prime_field(q)
    rng = np.random.default_rng(rows + q % 13)
    a = f.random_matrix(rng, rows, 5)
    b = f.random_matrix(rng, 5, blocks * width)
    want = python_int_mat_mul(a, b, q)
    records = np.full((blocks, 4 + rows * width), -1, dtype=np.int64)
    dest = records[:, 4:].reshape(blocks, rows, width).transpose(1, 0, 2)
    assert np.shares_memory(dest, records)
    assert f.mat_mul(a, b, out=dest) is dest
    for j in range(blocks):
        got = records[j, 4:].reshape(rows, width)
        assert np.array_equal(got, want[:, j * width : (j + 1) * width])
    assert (records[:, :4] == -1).all()
    with pytest.raises(DimensionMismatchError, match="destination"):
        mat_mul_mod(a, b, q, out=np.zeros((rows, blocks + 1, width), dtype=np.int64))


def test_asarray_returns_a_fresh_array_reduced_only_where_needed():
    f = prime_field(101)
    canonical = np.array([[0, 100], [5, 7]], dtype=np.int64)
    out = f.asarray(canonical)
    assert out.dtype == np.int64 and not np.shares_memory(out, canonical)
    out[0, 0] = 9
    assert canonical[0, 0] == 0
    wide = np.array([[101, -1], [202, 3]], dtype=np.int32)
    assert f.asarray(wide).tolist() == [[0, 100], [0, 3]]
    assert f.asarray(np.array([[True, False]])).tolist() == [[1, 0]]
    assert f.asarray(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)


def test_asarray_names_a_dtype_that_is_not_an_integer():
    f = prime_field(101)
    assert f.asarray(np.array([[2**64 - 1]], dtype=np.uint64)).tolist() == [[2**64 % 101 - 1]]
    assert f.asarray(np.array([[2**70, -1]], dtype=object)).tolist() == [[2**70 % 101, 100]]
    for bad in (np.array([["12"]]), np.array([[b"12"]]), np.array([[1.0]]), np.array([[1j]]),
                np.array([[1.5, 2]], dtype=object)):
        with pytest.raises(BipolyError, match=f"must be integers, got {bad.dtype} input"):
            f.asarray(bad)


def test_asarray_and_rank_name_a_ragged_input():
    f = prime_field(101)
    with pytest.raises(DimensionMismatchError, match="must form a rectangular array"):
        f.asarray([[1, 2], [1]])
    with pytest.raises(DimensionMismatchError, match="must form a rectangular array"):
        f.rank([[1, 2], [1]])


@pytest.mark.parametrize("q", [Q31, BIG_PRIME])
def test_mat_mul_reduces_integer_operands_first(q):
    # Non-canonical int64 words broke the kernel's exactness bound: at
    # 2**31 - 1 this product came out as 2147475455, not 122880.
    f = prime_field(q)
    a = np.full((2, 240), 2**40, dtype=np.int64)
    a[1, 0] = -3
    b = np.ones((240, 2), dtype=np.int64)
    want = [[2**40 * 240 % q] * 2, [(2**40 * 239 - 3) % q] * 2]
    assert f.mat_mul(a, b).tolist() == want
    assert f.mat_mul(b.T, np.array(a.T, dtype=object)).tolist() == [list(r) for r in zip(*want)]


def test_mat_mul_refuses_operands_that_are_not_integers():
    f = prime_field(101)
    a, b = np.array([[1, 2]]), np.array([[3], [4]])
    for bad in (a + 0.5, a.astype(float), a.astype(str)):
        with pytest.raises(BipolyError, match="must be integers"):
            f.mat_mul(bad, b)
        with pytest.raises(BipolyError, match="must be integers"):
            f.mat_mul(b.T, bad.T)


def test_mat_mul_takes_list_operands_and_names_a_bad_shape():
    f = prime_field(101)
    assert f.mat_mul([[1, 2]], [[3], [100]]).tolist() == [[(3 + 200) % 101]]
    for a, b in (([[1, 2]], [[3]]), ([1, 2], [[3], [4]])):
        with pytest.raises(DimensionMismatchError, match="cannot multiply shapes"):
            f.mat_mul(a, b)


@pytest.mark.parametrize("q", OUT_PRIMES)
@pytest.mark.parametrize("rows, inner", [(6, 20), (24, 5)])
def test_kernel_rejects_a_destination_of_the_wrong_shape_or_dtype(q, rows, inner):
    f = prime_field(q)
    rng = np.random.default_rng(3)
    a, b = f.random_matrix(rng, rows, inner), f.random_matrix(rng, inner, 9)
    frozen = np.zeros((rows, 9), dtype=np.int64)
    frozen.flags.writeable = False
    bad = [
        np.zeros((rows, 10), dtype=np.int64),
        np.zeros((rows + 1, 9), dtype=np.int64),
        np.zeros((rows // 2, 3, 9), dtype=np.int64),
        np.zeros(rows * 9, dtype=np.int64),
        np.zeros((rows, 9), dtype=np.float64),
        np.zeros((rows, 9), dtype=np.uint64),
        np.zeros((rows, 9), dtype=np.int32),
        frozen,
    ]
    for out in bad:
        with pytest.raises(DimensionMismatchError, match="destination"):
            mat_mul_mod(a, b, q, out=out)


@pytest.mark.parametrize("q", KERNEL_PRIMES + [BIG_PRIME])
@pytest.mark.parametrize("shape", [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0)])
def test_kernel_zero_size_dimensions(q, shape):
    r, s, c = shape
    f = prime_field(q)
    out = f.mat_mul(f.zeros(r, s), f.zeros(s, c))
    assert out.shape == (r, c)
    assert not np.asarray(out, dtype=object).any()


@pytest.mark.parametrize("q", KERNEL_PRIMES)
def test_kernel_transposed_and_strided_inputs(q):
    f = prime_field(q)
    rng = np.random.default_rng(q % 1000)
    big = f.random_matrix(rng, 90, 120)
    cases = [
        (big.T[:30], big[:, ::3]),  # transposed, column-strided
        (big[::2, 1::4], big[5:35, ::7]),  # strided both ways
        (np.asfortranarray(big[:20, :90]), big.T[:90, :9]),
    ]
    for a, b in cases:
        assert not (a.flags.c_contiguous and b.flags.c_contiguous)
        assert np.array_equal(f.mat_mul(a, b), python_int_mat_mul(a, b, q))


def test_kernel_returns_int64_at_every_q():
    for q in KERNEL_PRIMES + [BIG_PRIME]:
        f = prime_field(q)
        a = np.array([[q - 1, 1], [0, q - 1]], dtype=object)  # object input
        out = f.mat_mul(a, f.asarray([[1], [q - 1]]))
        assert out.dtype == np.int64
        assert np.array_equal(out, python_int_mat_mul(a, [[1], [q - 1]], q))
