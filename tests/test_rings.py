from __future__ import annotations

import random
import sys
from itertools import permutations, product

import pytest

from jroot_evidence import binary_product, binary_product_in_carrier
from pgr import (
    ADJOINED_ZERO,
    ArityMismatch,
    DomainError,
    InfiniteUniverse,
    JRootRing,
    NotClosed,
    OddJRootSemigroup,
    adjoin_zero,
)


class TestConstructors:
    @pytest.mark.parametrize(
        ("build", "message"),
        [
            (lambda: JRootRing(True), "root order must be an integer >= 1"),
            (lambda: JRootRing(False), "root order must be an integer >= 1"),
            (lambda: JRootRing(2, True), "modulus must be an integer >= 2"),
            (lambda: JRootRing(2, False), "modulus must be an integer >= 2"),
            (lambda: OddJRootSemigroup(True), "root order must be an integer >= 2"),
        ],
        ids=["q-true", "q-false", "modulus-true", "modulus-false", "odd-q-true"],
    )
    def test_bool_arguments_rejected(self, build, message):
        with pytest.raises(DomainError, match=message):
            build()


class TestAddition:
    def test_worked_sum(self, jz):
        assert jz.add((2, -7)) == -5

    def test_zero_neutral(self, jz):
        for x in (-3, 0, 11):
            assert jz.add((x, 0)) == x

    def test_modular(self):
        assert JRootRing(2, 5).add((3, 4)) == 2

    def test_arity(self, jz):
        with pytest.raises(ArityMismatch):
            jz.add((1, 2, 3))


class TestMultiplication:
    def test_worked_triple(self, jz):
        assert jz.mul((5, 2, -4)) == 40

    def test_cube_of_j(self, jz):
        assert jz.mul((1, 1, 1)) == -1

    def test_fourth_root_family(self):
        ring = JRootRing(4)
        assert ring.mul((1, 1, 1, 1, 1)) == -1

    def test_plain_integers(self):
        # q = 1 is ordinary Z: plain binary product
        ring = JRootRing(1)
        assert ring.mul((3, 2)) == 6

    def test_arity(self, jz):
        with pytest.raises(ArityMismatch):
            jz.mul((1, 1))


class TestZero:
    def test_jz_zero(self, jz):
        assert jz.zero() == 0
        assert jz.has_zero

    def test_modular_zero(self):
        assert JRootRing(2, 5).zero() == 0

    def test_absorption_and_neutrality(self, jz):
        assert jz.mul((4, 0, -7)) == 0
        assert jz.add((0, 9)) == 9


class TestIdentitySearch:
    def test_jz_is_unitless(self, jz):
        assert jz.identity_search() == []

    def test_mod5(self):
        # e**2 = -1 mod 5 has the roots 2 and 3
        assert JRootRing(2, 5).identity_search() == [2, 3]

    def test_mod3(self):
        assert JRootRing(2, 3).identity_search() == []

    def test_plain_integers(self):
        assert JRootRing(1).identity_search() == [1]

    def test_odd_root_order(self):
        ring = JRootRing(3)
        (e,) = ring.identity_search()
        assert e == -1
        for r in range(-5, 6):
            assert ring.mul((r, e, e, e)) == r


class TestQuerelement:
    def test_unit_coefficients(self, jz):
        assert jz.quer(1) == -1
        assert jz.quer(-1) == 1

    def test_non_unit(self, jz):
        assert jz.quer(2) is None

    def test_zero_excluded(self, jz):
        assert jz.quer(0) is None

    def test_all_positions(self, jz):
        for r in (1, -1):
            q = jz.quer(r)
            for p in range(3):
                word = [r, r]
                word.insert(p, q)
                assert jz.mul(word) == r

    def test_binary_ring_has_no_quer_notion(self):
        with pytest.raises(DomainError):
            JRootRing(1).quer(1)


class TestUnits:
    def test_jz(self, jz):
        assert set(jz.units()) == {-1, 1}

    def test_mod5(self):
        assert JRootRing(2, 5).units() == [1, 2, 3, 4]

    def test_mod4(self):
        assert JRootRing(2, 4).units() == [1, 3]


class TestAdjoinZero:
    def test_ring_with_zero_unchanged(self, jz):
        assert adjoin_zero(jz) is jz

    def test_odd_family_gains_absorbing_zero(self):
        odd = OddJRootSemigroup()
        assert not odd.has_zero
        ext = adjoin_zero(odd)
        z = ext.zero()
        assert z is ADJOINED_ZERO
        for p in range(3):
            word = [3, -5]
            word.insert(p, z)
            assert ext.mul(word) is z

    def test_adjoined_zero_is_additively_neutral(self):
        ext = adjoin_zero(OddJRootSemigroup())
        z = ext.zero()
        assert ext.add((7, z)) == 7
        assert ext.add((z, 7)) == 7
        assert ext.add((z, z)) is z

    def test_base_addition_still_not_closed(self):
        ext = adjoin_zero(OddJRootSemigroup())
        with pytest.raises(NotClosed):
            ext.add((3, 5))


class TestNilpotence:
    def test_zero_is_nilpotent(self, jz):
        assert jz.is_nilpotent(0, 1)

    def test_j_is_not(self, jz):
        assert not jz.is_nilpotent(1, 1)  # j**3 = -j != 0

    def test_mod8(self):
        assert JRootRing(2, 8).is_nilpotent(2, 1)  # -8 = 0 mod 8


class TestLaws:
    def test_commutativity_exhaustive_mod5(self):
        ring = JRootRing(2, 5)
        elems = ring.elements()
        for word in product(elems, repeat=2):
            assert len({ring.add(p) for p in permutations(word)}) == 1
        for word in product(elems, repeat=3):
            assert len({ring.mul(p) for p in permutations(word)}) == 1

    def test_commutativity_sampled_over_z(self, jz):
        rng = random.Random(7)
        for _ in range(1000):
            word = [jz.sample(rng) for _ in range(3)]
            assert len({jz.mul(p) for p in permutations(word)}) == 1

    def test_associativity_exhaustive_mod3(self):
        ring = JRootRing(2, 3)
        for word in product(ring.elements(), repeat=5):
            results = {
                ring.mul((*word[:p], ring.mul(word[p : p + 3]), *word[p + 3 :]))
                for p in range(3)
            }
            assert len(results) == 1

    def test_distributivity_sampled_over_z(self, jz):
        rng = random.Random(11)
        for _ in range(1000):
            xs = [jz.sample(rng) for _ in range(2)]
            ys = [jz.sample(rng) for _ in range(2)]
            total = jz.add(xs)
            for p in range(3):
                lhs = jz.mul((*ys[:p], total, *ys[p:]))
                rhs = jz.add([jz.mul((*ys[:p], x, *ys[p:])) for x in xs])
                assert lhs == rhs

    def test_binary_products_leave_the_carrier(self, jz):
        # the ambient product of two j-multiples is real: nonderived family
        for a, b in product([-3, -1, 1, 2, 5], repeat=2):
            assert not binary_product_in_carrier(jz, binary_product(jz, a, b))
        assert binary_product_in_carrier(
            JRootRing(1), binary_product(JRootRing(1), 3, 4)
        )

    def test_even_subring_smoke(self):
        # the q = 1 family restricted to even integers stays closed
        ring = JRootRing(1)
        for a, b in product(range(-6, 7, 2), repeat=2):
            assert ring.add((a, b)) % 2 == 0
            assert ring.mul((a, b)) % 2 == 0


class TestMisc:
    def test_enumeration(self):
        assert JRootRing(2, 4).elements() == [0, 1, 2, 3]
        with pytest.raises(InfiniteUniverse):
            JRootRing(2).elements()

    def test_format(self, jz):
        assert jz.format_scalar(-5) == "-5j"
        assert jz.format_scalar(0) == "0"
        assert JRootRing(4).format_scalar(7) == "7j4"
        assert JRootRing(1).format_scalar(7) == "7"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter converts integers of any length",
    )
    @pytest.mark.parametrize("offset", [-1, 0, 1, 250])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_format_names_the_digit_count_past_the_limit(self, offset, sign):
        limit = sys.get_int_max_str_digits()
        d = limit + offset
        for r, digits in ((10**d - 1, d), (10**d, d + 1), (7 * 10**d, d + 1)):
            if digits <= limit:
                assert JRootRing(2).format_scalar(sign * r) == f"{sign * r}j"
                continue
            with pytest.raises(DomainError) as exc:
                JRootRing(2).format_scalar(sign * r)
            assert str(exc.value) == (
                f"a coefficient of {digits} digits is over the limit of "
                f"{limit} digits for integer output"
            )

    def test_names(self):
        assert JRootRing(2).name == "jZ"
        assert JRootRing(2, 5).name == "jZ mod 5"
        assert JRootRing(1).name == "Z"
        assert JRootRing(4).name == "j4Z"

    def test_normalization(self):
        ring = JRootRing(2, 5)
        assert ring.normalize(7) == 2
        assert ring.normalize(-1) == 4
