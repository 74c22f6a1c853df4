"""The binary covers of the group families (NaryGroup.cover).

The cover law is checked exhaustively: projecting the ambient product of
the embedded letters gives the group word, for every admissible word, with
ell_g = 1 and 2.  The antidiagonal family's ambient product is audited
against the 2x2 matrix model, the carrier test against the behaviour of
the binary products it replaced, the translation quer relies on
(BinaryCover.translation) against its defining identity, and the kernel
codes the product adds up (BinaryCover.encode / decode) against the group
word, exhaustively on small groups and at the carry edge on large ones.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

import matrix_oracle as oracle
from pgr import AdiagGroup, DerivedCyclicGroup, DomainError
from pgr.arity import admissible_length, word_function

GROUPS = [
    *(AdiagGroup(k) for k in (2, 3, 4, 5)),
    DerivedCyclicGroup(4, 3),
    DerivedCyclicGroup(5, 4),
]
IDS = [g.name for g in GROUPS]


def ambient(group) -> list:
    """Every element of the group's ambient."""
    k = group.k
    if isinstance(group, AdiagGroup):
        return [(s, a, b) for s in (0, 1) for a in range(k) for b in range(k)]
    return list(range(k))


def fold(cover, word):
    acc = cover.embed(word[0])
    for g in word[1:]:
        acc = cover.mul(acc, cover.embed(g))
    return acc


def as_matrix(x) -> oracle.Matrix:
    s, a, b = x
    return ((None, a), (b, None)) if s else ((a, None), (None, b))


def prefixes(group, length: int) -> set:
    """Every ambient product of `length` embedded letters."""
    cover = group.cover()
    out = {cover.embed(g) for g in group.elements()}
    for _ in range(length - 1):
        out = {cover.mul(x, cover.embed(g)) for x in out for g in group.elements()}
    return out


def kernel(group) -> set:
    """The subgroup generated by the quotients embed(g) * embed(h)^-1: the
    kernel of the cover's coset map."""
    cover = group.cover()
    gens = {
        cover.mul(cover.embed(g), cover.inverse(cover.embed(h)))
        for g, h in product(group.elements(), repeat=2)
    }
    out = set(gens)
    while True:
        grown = out | {cover.mul(x, y) for x in out for y in gens}
        if grown == out:
            return out
        out = grown


@pytest.mark.parametrize("group", GROUPS, ids=IDS)
@pytest.mark.parametrize("ell", [1, 2])
def test_projected_fold_is_the_group_word(group, ell):
    """Exhaustive over every word of admissible_length(n, ell) letters.

    The word function nests to the left (arity.left_fold): the first n
    letters, then the accumulator with the next n - 1.  A word is checked
    through its state (ambient prefix product, group word so far) after
    each application, and every distinct state is extended by every next
    block, so each word is covered without enumerating |G|**L of them.
    """
    cover = group.cover()
    n = group.arity
    states = {
        (fold(cover, w), group.mul(w))
        for w in product(group.elements(), repeat=n)
    }
    for _ in range(ell - 1):
        states = {
            (cover.mul(amb, fold(cover, block)), group.mul((acc, *block)))
            for amb, acc in states
            for block in product(group.elements(), repeat=n - 1)
        }
    for amb, acc in states:
        assert cover.in_carrier(amb)
        assert cover.project(amb) == acc


@pytest.mark.parametrize("group", GROUPS, ids=IDS)
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_projected_fold_matches_word_function_on_sampled_words(group, ell):
    compose = word_function(group.mul, group.arity, ell)
    length = admissible_length(group.arity, ell)
    cover = group.cover()
    rng = random.Random(f"{group.name}:{ell}")
    for _ in range(300):
        word = tuple(rng.choices(group.elements(), k=length))
        assert cover.project(fold(cover, word)) == compose(word)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_adiag_ambient_product_is_the_matrix_product(k):
    cover = AdiagGroup(k).cover()
    elems = ambient(AdiagGroup(k))
    for x, y in product(elems, repeat=2):
        assert as_matrix(cover.mul(x, y)) == oracle.mat_mul(
            as_matrix(x), as_matrix(y), k
        )
    identity = (0, 0, 0)
    for x in elems:
        assert cover.mul(x, cover.inverse(x)) == identity
        assert cover.mul(cover.inverse(x), x) == identity
    for g in AdiagGroup(k).elements():
        assert as_matrix(cover.embed(g)) == oracle.antidiag_matrix(g)


@pytest.mark.parametrize("group", GROUPS, ids=IDS)
def test_carrier_test_on_binary_products(group):
    """Two embedded adiag elements multiply to a diagonal matrix, outside
    the carrier; a derived group's binary products are sums mod k, inside
    it."""
    cover = group.cover()
    for x, y in product(group.elements(), repeat=2):
        p = cover.mul(cover.embed(x), cover.embed(y))
        if isinstance(group, AdiagGroup):
            (m1, n1), (m2, n2) = x, y
            assert p == (0, (m1 + n2) % group.k, (n1 + m2) % group.k)
            assert not cover.in_carrier(p)
            with pytest.raises(DomainError):
                cover.project(p)
        else:
            assert p == (x + y) % group.k
            assert cover.in_carrier(p)
    for g in group.elements():
        assert cover.in_carrier(cover.embed(g))
        assert cover.project(cover.embed(g)) == g


@pytest.mark.parametrize("group", GROUPS, ids=IDS)
def test_kernel_of_the_coset_map_is_abelian_and_normal(group):
    cover = group.cover()
    ker = kernel(group)
    for x, y in product(ker, repeat=2):
        assert cover.mul(x, y) == cover.mul(y, x)
    for x, a in product(ker, ambient(group)):
        assert cover.mul(cover.mul(a, x), cover.inverse(a)) in ker
    if isinstance(group, AdiagGroup):
        assert ker == {x for x in ambient(group) if x[0] == 0}


@pytest.mark.parametrize("group", GROUPS, ids=IDS)
def test_translation_moves_the_reference_letter(group):
    """L * e(h) == t * L * e(h0) for every product L of p embedded letters,
    p up to a five-letter word, so any right factor R follows."""
    cover = group.cover()
    keys = group.elements()
    for p in range(5):
        lefts = prefixes(group, p) if p else [None]
        for h0, h in product(keys[:2], keys):
            t = cover.translation(p, h, h0)
            for left in lefts:
                e, e0 = cover.embed(h), cover.embed(h0)
                if left is not None:
                    e, e0 = cover.mul(left, e), cover.mul(left, e0)
                assert e == cover.mul(t, e0)


CODEC_GROUPS = [
    *(AdiagGroup(k) for k in (2, 3, 4, 5)),
    *(DerivedCyclicGroup(k, n) for n in (2, 3, 4, 5) for k in range(1, 7)),
]


def decoded(cover, word) -> object:
    """The key decoded from the sum of the letters' codes, letter p coded
    for a slot of parity p % 2."""
    total = sum(cover.encode(p % 2, [g])[0] for p, g in enumerate(word))
    (g,) = cover.decode([total])
    return g


@pytest.mark.parametrize("group", CODEC_GROUPS, ids=[g.name for g in CODEC_GROUPS])
def test_summed_codes_decode_to_the_group_word(group):
    """Exhaustive over every n-letter word; the columns are coded once and
    each word's codes summed, as the product's stages do."""
    cover = group.cover()
    keys = group.elements()
    n = group.arity
    columns = [cover.encode(p % 2, keys) for p in range(n)]
    words = list(product(keys, repeat=n))
    sums = [sum(codes) for codes in product(*columns)]
    assert cover.decode(sums) == [group.mul(w) for w in words]


@pytest.mark.parametrize("k", [2, 7, 10**5])
def test_codes_do_not_carry_at_the_largest_exponents(k):
    """Every exponent k - 1, the largest sum of each axis: no axis spills
    into the other, and the codes of a ternary word of adiag(C_k) stay
    below radix**2."""
    group = AdiagGroup(k)
    cover = group.cover()
    top = (k - 1, k - 1)
    word = (top, top, top)
    assert decoded(cover, word) == group.mul(word) == ((3 * k - 3) % k,) * 2
    assert sum(cover.encode(p % 2, [top])[0] for p in range(3)) < cover.radix**2
    mixed = ((k - 1, 0), (k - 1, 0), (k - 1, 0))  # odd slot swaps the axes
    assert decoded(cover, mixed) == group.mul(mixed)
    for n in (2, 5):
        derived = DerivedCyclicGroup(k, n)
        word = (k - 1,) * n
        assert decoded(derived.cover(), word) == derived.mul(word)
