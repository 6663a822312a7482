"""Finite-field arithmetic, elimination and span membership."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from span_oracle import in_span_reference, rref

from netcode_unicast.gf import Vectors, _reduce, in_span, is_prime

PRIMES = [2, 3, 5, 7]


@pytest.mark.parametrize("q", PRIMES)
def test_field_axioms_exhaustive(q):
    # one-coordinate vectors are the field's scalars
    V = Vectors(q, 1)
    elems = range(q)
    for a, b in itertools.product(elems, repeat=2):
        assert V.add((a,), (b,)) == ((a + b) % q,)
        assert V.combine((a,), [(b,)]) == ((a * b) % q,)


@pytest.mark.parametrize("q", [1, 4, 6, 9, 100])
def test_nonprime_rejected(q):
    with pytest.raises(ValueError):
        Vectors(q, 1)
    assert not is_prime(q)


def test_field_order_bounded_before_primality_test():
    assert Vectors(2**31 - 1, 1).q == 2**31 - 1  # the largest, a prime
    # a prime far past the bound, which trial division would take ages on
    with pytest.raises(ValueError, match="at most"):
        Vectors(2**61 - 1, 1)


def test_vector_helpers():
    # every pair of vectors and of coefficients over GF(q)^2
    for q in PRIMES:
        V = Vectors(q, 2)
        assert V.zero == (0, 0)
        assert (V.unit(0), V.unit(1)) == ((1, 0), (0, 1))
        vectors = list(itertools.product(range(q), repeat=2))
        for u, v in itertools.product(vectors, repeat=2):
            assert V.add(u, v) == tuple((a + b) % q for a, b in zip(u, v))
            for c, d in itertools.product(range(q), repeat=2):
                want = tuple((c * a + d * b) % q for a, b in zip(u, v))
                assert V.combine((c, d), (u, v)) == want
        # coefficients reduce mod q, and no pair at all gives zero
        assert V.combine((q + 1, -1), (V.unit(0), V.unit(1))) == (1, q - 1)
        assert V.combine((), ()) == V.zero
        for k in (-1, 2):
            with pytest.raises(IndexError):
                V.unit(k)
        with pytest.raises(ValueError):
            V.add((1,), (1, 2))
    assert Vectors(3, 4).unit(2) == (0, 0, 1, 0)


# Hand-checked ranks over GF(2) and GF(3).
RANK_CASES = [
    (2, [(1, 0, 1), (0, 1, 1), (1, 1, 0)], 2),
    (2, [(1, 0, 1), (0, 1, 1), (1, 1, 1)], 3),
    (3, [(1, 2, 0), (2, 1, 0), (0, 0, 0)], 1),  # (2,1,0) = 2*(1,2,0) mod 3
    (3, [(1, 2, 0), (2, 2, 0), (0, 0, 0)], 2),
    (3, [(1, 1), (2, 2)], 1),
    (5, [], 0),
    (5, [(0, 0)], 0),
]


def rank(rows, q):
    """Rank as the number of rows that stay nonzero when each is reduced
    against the echelon basis of those before it."""
    basis = []
    for r in rows:
        row = list(r)
        col = _reduce(row, basis, len(row), q)
        if col >= 0:
            basis.append((col, row))
    return len(basis)


@pytest.mark.parametrize("q,rows,expected", RANK_CASES)
def test_rank_oracle(q, rows, expected):
    assert rank(rows, q) == expected


def test_in_span_reports_coefficients():
    q = 5
    rows = [(1, 0, 2), (0, 1, 3)]
    target = (2, 4, 1)  # 2*row0 + 4*row1 = (2, 4, 4+12 mod 5 = 1)
    coeffs, outside = in_span([target, (0, 0, 1)], rows, q)
    assert coeffs is not None
    assert Vectors(q, 3).combine(coeffs, rows) == target
    assert outside is None
    assert in_span([], rows, q) == []


def test_in_span_zero_target():
    assert in_span([(0, 0)], [(1, 1)], 3) == [(0,)]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_in_span_matches_brute_force(q, n, m):
    # every row matrix while there are at most 729, else 200 seeded draws;
    # every target against the span enumerated from all q**m combinations
    vectors = list(itertools.product(range(q), repeat=n))
    if q ** (n * m) <= 729:
        matrices = list(itertools.product(vectors, repeat=m))
    else:
        rng = random.Random(q * 100 + n * 10 + m)
        matrices = [tuple(rng.choice(vectors) for _ in range(m)) for _ in range(200)]

    def combine(coeffs, rows):
        return tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % q for i in range(n))

    for rows in matrices:
        span = {combine(c, rows) for c in itertools.product(range(q), repeat=m)}
        # one elimination answers every target
        for target, got in zip(vectors, in_span(vectors, rows, q), strict=True):
            if target not in span:
                assert got is None
            else:
                assert got is not None and len(got) == m
                assert all(0 <= c < q for c in got)
                assert combine(got, rows) == target


@settings(max_examples=80, derandomize=True)
@given(
    q=st.sampled_from(PRIMES),
    n=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_in_span_roundtrip(q, n, data):
    V = Vectors(q, n)
    vec = st.tuples(*[st.integers(min_value=0, max_value=q - 1)] * n)
    rows = data.draw(st.lists(vec, min_size=0, max_size=4))
    coeffs = data.draw(
        st.tuples(*[st.integers(min_value=0, max_value=q - 1)] * len(rows))
    )
    target = V.combine(coeffs, rows)
    [got] = in_span([target], rows, q)
    assert got is not None
    assert V.combine(got, rows) == target


@settings(max_examples=80, derandomize=True)
@given(
    q=st.sampled_from(PRIMES),
    n=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_rank_invariant_under_row_ops(q, n, data):
    vec = st.tuples(*[st.integers(min_value=0, max_value=q - 1)] * n)
    rows = data.draw(st.lists(vec, min_size=1, max_size=4))
    V = Vectors(q, n)
    base = rank(rows, q)
    # Adding a multiple of one row to another must not change the rank.
    i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    c = data.draw(st.integers(min_value=0, max_value=q - 1))
    if i != j:
        mutated = list(rows)
        mutated[i] = V.combine((1, c), (rows[i], rows[j]))
        assert rank(mutated, q) == base
    # The span never grows beyond min(#rows, n).
    assert base <= min(len(rows), n)


@st.composite
def rows_with_structure(draw):
    """A field, a row length, and rows mixing random, zero, duplicate and
    dependent ones (a combination of two earlier rows)."""
    q = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=0, max_value=q - 1)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["random", "zero", "duplicate", "dependent"]))
        if kind == "zero":
            rows.append((0,) * n)
        elif kind == "duplicate" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "dependent" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, d = draw(entry), draw(entry)
            rows.append(tuple((c * x + d * y) % q for x, y in zip(a, b)))
        else:
            rows.append(tuple(draw(entry) for _ in range(n)))
    return q, n, rows


@settings(max_examples=300, derandomize=True)
@given(rows_with_structure(), st.data())
def test_in_span_matches_the_transposed_elimination(case, data):
    q, n, rows = case
    entry = st.integers(min_value=0, max_value=q - 1)
    # a target in the span, one drawn freely, and the zero vector
    coeffs = [data.draw(entry) for _ in rows]
    targets = [
        Vectors(q, n).combine(coeffs, rows),
        tuple(data.draw(entry) for _ in range(n)),
        (0,) * n,
    ]
    assert in_span(targets, rows, q) == [in_span_reference(t, rows, q) for t in targets]


@pytest.mark.parametrize("q", PRIMES)
@pytest.mark.parametrize("shape", ["more rows than columns", "zero rows", "full rank"])
def test_batched_in_span_matches_the_reference_per_target(q, shape):
    # the shapes in which a tag table sized by rank can run out of columns:
    # a row read after the basis is full, one that reduces to nothing, and
    # every column taken
    rng = random.Random(f"{q} {shape}")
    for _ in range(60):
        n = rng.randint(1, 5)
        V = Vectors(q, n)
        if shape == "more rows than columns":
            rows = [V.combine([rng.randrange(q)], [V.unit(rng.randrange(n))])
                    for _ in range(n + rng.randint(1, 6))]
            rows += [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        elif shape == "zero rows":
            rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(0, n))]
            for _ in range(rng.randint(1, 3)):
                rows.insert(rng.randint(0, len(rows)), V.zero)
        else:
            rows = [V.unit(k) for k in rng.sample(range(n), n)]
            rows = [V.add(r, V.combine([rng.randrange(q)], [rows[0]])) if k else r
                    for k, r in enumerate(rows)]
            rows += [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(0, 2))]
        targets = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(4)]
        targets += [V.unit(k) for k in range(n)] + [V.zero]
        expected = [in_span_reference(t, rows, q) for t in targets]
        assert in_span(targets, rows, q) == expected
        if shape == "full rank":
            assert None not in expected


@settings(max_examples=200, derandomize=True)
@given(rows_with_structure())
def test_tuple_spans_are_the_reduced_row_echelon_basis(case):
    q, n, rows = case
    arith = Vectors(q, n)
    basis = arith.zero_span
    for k, v in enumerate(rows):
        basis = arith.extend(basis, v)
        assert basis == rref(rows[: k + 1], q)


def test_in_span_length_check():
    with pytest.raises(ValueError):
        in_span([(1, 0)], [(1, 0), (1,)], 3)
    with pytest.raises(ValueError):
        in_span([(1, 0), (1,)], [(1, 0)], 3)
