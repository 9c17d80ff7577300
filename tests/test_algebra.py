"""Field arithmetic, canonical enumerations, kernel surjections."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltcforge.algebra import (
    Field,
    VecSpace,
    enumerate_linear_maps,
    kernel_complement_surjection,
    row_reduce,
    span_vectors,
)
from ltcforge.errors import CapacityError, DomainError, MismatchError


def enumerate_vectors(space: VecSpace) -> list[tuple[int, ...]]:
    """All p^dim vectors in index order; index 0 is the zero vector."""
    return [space.vector(i) for i in range(space.size)]


@pytest.mark.parametrize("bad", [1, 4, 6, 9, 15, 17])
def test_field_rejects_unsupported(bad):
    with pytest.raises(DomainError):
        Field(bad)


def test_vectors_gf2_dim1():
    assert enumerate_vectors(VecSpace(Field(2), 1)) == [(0,), (1,)]


def test_vectors_gf2_dim2_least_significant_first():
    assert enumerate_vectors(VecSpace(Field(2), 2)) == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_vectors_gf3_dim2_matches_digit_oracle():
    # oracle: direct base-3 digit expansion, least-significant digit first
    oracle = [((i % 3), (i // 3) % 3) for i in range(9)]
    got = enumerate_vectors(VecSpace(Field(3), 2))
    assert got == oracle
    assert got[:3] == [(0, 0), (1, 0), (2, 0)]


@given(st.sampled_from([2, 3, 5]), st.integers(min_value=0, max_value=3))
def test_vectors_distinct_and_zero_first(p, dim):
    vecs = enumerate_vectors(VecSpace(Field(p), dim))
    assert len(vecs) == p**dim
    assert len(set(vecs)) == len(vecs)
    assert vecs[0] == (0,) * dim


def test_linear_maps_gf2_to_gf2():
    v = VecSpace(Field(2), 1)
    maps = enumerate_linear_maps(v, v)
    assert len(maps) == 2
    assert maps[0].apply((1,)) == (0,)  # zero map
    assert maps[1].apply((1,)) == (1,)  # identity


def test_linear_maps_gf2_into_plane():
    # oracle: images of 1 must run through the codomain enumeration
    dom, cod = VecSpace(Field(2), 1), VecSpace(Field(2), 2)
    maps = enumerate_linear_maps(dom, cod)
    assert [m.apply((1,)) for m in maps] == enumerate_vectors(cod)


def test_linear_maps_gf3_scalars():
    v = VecSpace(Field(3), 1)
    maps = enumerate_linear_maps(v, v)
    assert [m.apply((1,))[0] for m in maps] == [0, 1, 2]


@pytest.mark.parametrize("dims", [(1, 2), (2, 1), (2, 2)])
def test_linear_map_axioms_exhaustive(dims):
    dom = VecSpace(Field(2), dims[0])
    cod = VecSpace(Field(2), dims[1])
    maps = enumerate_linear_maps(dom, cod)
    assert len(maps) == 2 ** (dims[0] * dims[1])
    tables = set()
    for m in maps:
        assert m.apply((0,) * dom.dim) == (0,) * cod.dim
        for u, v in itertools.product(enumerate_vectors(dom), repeat=2):
            uv = tuple((a + b) % 2 for a, b in zip(u, v))
            assert m.apply(uv) == tuple((a + b) % 2 for a, b in zip(m.apply(u), m.apply(v)))
        tables.add(tuple(m.apply(u) for u in enumerate_vectors(dom)))
    assert len(tables) == len(maps)


def test_linear_maps_field_mismatch():
    with pytest.raises(MismatchError):
        enumerate_linear_maps(VecSpace(Field(2), 1), VecSpace(Field(3), 1))


def test_linear_maps_budget():
    with pytest.raises(CapacityError) as err:
        enumerate_linear_maps(VecSpace(Field(2), 3), VecSpace(Field(2), 3), budget=100)
    assert err.value.required == 2**9


def test_kernel_surjection_zero_kernel_is_identity():
    v = VecSpace(Field(2), 2)
    h = kernel_complement_surjection(v, [], v)
    assert h.matrix == ((1, 0), (0, 1))


def test_kernel_surjection_full_kernel_is_zero_map():
    v = VecSpace(Field(2), 2)
    h = kernel_complement_surjection(v, [(1, 0), (0, 1)], v)
    assert all(h.apply(u) == (0, 0) for u in enumerate_vectors(v))


def test_kernel_surjection_explicit_diagonal():
    v = VecSpace(Field(2), 2)
    h = kernel_complement_surjection(v, [(1, 1)], v)
    kernel = [u for u in enumerate_vectors(v) if h.apply(u) == (0, 0)]
    assert kernel == [(0, 0), (1, 1)]


def test_kernel_surjection_randomized_small_instances():
    rng = random.Random(20240817)
    for _ in range(40):
        p = rng.choice([2, 3])
        dim = rng.randrange(1, 4)
        space = VecSpace(Field(p), dim)
        vecs = enumerate_vectors(space)
        count = rng.randrange(0, dim + 1)
        basis = []
        while len(basis) < count:
            cand = rng.choice(vecs)
            if len(row_reduce(basis + [cand], p)[0]) > len(basis):
                basis.append(cand)
        target = VecSpace(Field(p), rng.randrange(dim - len(basis), dim + 2))
        h = kernel_complement_surjection(space, basis, target)
        expected = {tuple(v) for v in span_vectors(basis, dim, p)}
        got = {u for u in vecs if all(x == 0 for x in h.apply(u))}
        assert got == expected


def test_kernel_surjection_dependent_basis():
    v = VecSpace(Field(2), 2)
    with pytest.raises(DomainError):
        kernel_complement_surjection(v, [(1, 1), (1, 1)], v)


def test_kernel_surjection_dimension_too_small():
    v = VecSpace(Field(2), 3)
    with pytest.raises(DomainError):
        kernel_complement_surjection(v, [(1, 0, 0)], VecSpace(Field(2), 1))


def test_row_reduce_and_rank():
    rows = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    rref, pivots = row_reduce(rows, 2)
    assert len(rref) == 2 and pivots == [0, 1]
