from __future__ import annotations

from itertools import product

import pytest

import matrix_oracle as oracle
from pgr import (
    AdiagGroup,
    ArityMismatch,
    DerivedCyclicGroup,
    DomainError,
    JRootRing,
    KeyRangeError,
    NaryGroup,
    cli,
    make_group_ring,
)
from pgr.dsl import parse_basis_label


class TestAdiagProduct:
    def test_worked_triple(self, adiag3):
        assert adiag3.mul(((1, 1), (0, 2), (1, 0))) == (1, 1)
        assert oracle.product_key(3, (1, 1), (0, 2), (1, 0)) == (1, 1)

    def test_identity_prefix(self, adiag3):
        for x in adiag3.elements():
            assert adiag3.mul(((0, 0), (0, 0), x)) == x

    def test_triple_the_oracle_relabels(self, adiag3):
        # the matrix model puts this product at index 8, not 9
        got = adiag3.mul(((1, 1), (1, 2), (1, 0)))
        assert got == (1, 2)
        assert oracle.product_key(3, (1, 1), (1, 2), (1, 0)) == (1, 2)
        assert adiag3.position(got) + 1 == 8

    def test_arity_mismatch(self, adiag3):
        with pytest.raises(ArityMismatch):
            adiag3.mul(((0, 0), (1, 1)))

    def test_matches_matrix_oracle_everywhere(self, adiag3):
        for word in product(adiag3.elements(), repeat=3):
            assert adiag3.mul(word) == oracle.product_key(3, *word)


class TestConstructors:
    @pytest.mark.parametrize(
        ("build", "message"),
        [
            (lambda: AdiagGroup(True), "cyclic order must be an integer >= 2"),
            (lambda: DerivedCyclicGroup(True, 3),
             "cyclic order must be an integer >= 1"),
            (lambda: DerivedCyclicGroup(3, True),
             "group arity must be an integer >= 2"),
        ],
        ids=["adiag-k", "derived-k", "derived-arity"],
    )
    def test_bool_arguments_rejected(self, build, message):
        with pytest.raises(DomainError, match=message):
            build()

    def test_integer_one_accepted(self):
        # True == 1, but the trivial cyclic group is built from the int
        assert DerivedCyclicGroup(1, 3).elements() == [0]


class _Pair(tuple):
    pass


class TestMembership:
    @pytest.mark.parametrize("g", [(True, 0), (0, False)])
    def test_adiag_rejects_bool_exponents(self, adiag3, g):
        assert not adiag3.contains(g)
        assert adiag3.contains((1, 0))

    @pytest.mark.parametrize(
        "g",
        [(1, 0), (2, 2), _Pair((1, 2)), (3, 0), (0, 3), (-1, 0), (0, -1),
         (0,), (0, 0, 0), (), [0, 0], (1.0, 0), (0, "1"), (None, 0), 5, None,
         "g1", (True, True)],
    )
    def test_adiag_membership_is_the_componentwise_test(self, adiag3, g):
        expected = (
            isinstance(g, tuple) and len(g) == 2 and all(
                isinstance(c, int) and not isinstance(c, bool) and 0 <= c < 3
                for c in g
            )
        )
        assert adiag3.contains(g) is expected


class TestQuerelement:
    def test_self_quer(self, adiag3):
        assert adiag3.quer((1, 2)) == (1, 2)

    def test_identity_self_quer(self, adiag3):
        assert adiag3.quer((0, 0)) == (0, 0)

    def test_exponent_flip(self, adiag3):
        assert adiag3.quer((1, 0)) == (0, 2)

    def test_law_at_all_positions(self, adiag3):
        for g in adiag3.elements():
            q = adiag3.quer(g)
            rest = (g, g)
            for p in range(3):
                assert adiag3.mul((*rest[:p], q, *rest[p:])) == g

    def test_closed_form_equals_exhaustive_search(self, adiag3):
        for g in adiag3.elements():
            assert NaryGroup.quer(adiag3, g) == adiag3.quer(g)

    def test_foreign_element(self, adiag3):
        with pytest.raises(DomainError):
            adiag3.quer((5, 5))


class TestIdentities:
    def test_adiag3_has_three(self, adiag3):
        assert adiag3.identities() == [(0, 0), (2, 1), (1, 2)]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_closed_form_for_any_k(self, k):
        group = AdiagGroup(k)
        expected = {(t, (k - t) % k) for t in range(k)}
        assert set(group.identities()) == expected

    def test_derived_ternary_c3(self):
        # e must satisfy e*e = binary identity
        group = DerivedCyclicGroup(3, 3)
        assert group.identities() == [0]

    @pytest.mark.parametrize("k", range(2, 13))
    def test_closed_forms_equal_the_search(self, k):
        groups = [AdiagGroup(k)] + [DerivedCyclicGroup(k, n) for n in range(2, 6)]
        for group in groups:
            assert group.identities() == NaryGroup.identities(group)


class TestNeutralPolyads:
    def test_adiag3_pairs_each_element_with_its_quer(self, adiag3):
        got = set(adiag3.neutral_polyads())
        assert got == {(g, adiag3.quer(g)) for g in adiag3.elements()}
        assert len(got) == 9

    def test_constant_pairs_are_the_identities(self, adiag3):
        constant = {t[0] for t in adiag3.neutral_polyads() if t[0] == t[1]}
        assert constant == set(adiag3.identities())

    def test_derived_ternary_c2(self):
        group = DerivedCyclicGroup(2, 3)
        assert set(group.neutral_polyads()) == {(0, 0), (1, 1)}


class TestIdempotence:
    def test_every_adiag3_element_at_power_three(self, adiag3):
        for g in adiag3.elements():
            assert adiag3.idempotent(g, 3)

    def test_power_one_counterexample(self, adiag3):
        assert not adiag3.idempotent((1, 0), 1)

    def test_identity_power_one(self, adiag3):
        assert adiag3.idempotent((0, 0), 1)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_power_k_for_adiag_k(self, k):
        group = AdiagGroup(k)
        for g in group.elements():
            assert group.idempotent(g, k)


class TestEnumeration:
    def test_adiag3_cardinality(self, adiag3):
        assert adiag3.size() == 9
        assert len(adiag3.elements()) == 9

    def test_adiag2_cardinality(self):
        assert AdiagGroup(2).size() == 4

    def test_derived_ternary_c3(self):
        assert DerivedCyclicGroup(3, 3).elements() == [0, 1, 2]

    def test_legacy_index_order(self, adiag3):
        elems = adiag3.elements()
        assert [adiag3.position(g) + 1 for g in elems] == list(range(1, 10))
        assert elems[4] == (1, 1)  # g5
        assert adiag3.key(8 - 1) == (1, 2)
        # position and key are inverse bijections with 0..size()-1, in
        # elements() order, and g<position + 1> parses back to the key
        for group in (
            AdiagGroup(2), adiag3, AdiagGroup(5), DerivedCyclicGroup(1, 3),
            DerivedCyclicGroup(4, 3), DerivedCyclicGroup(7, 5),
        ):
            ctx = make_group_ring(JRootRing(group.arity - 1), group)
            elems = group.elements()
            assert len(elems) == group.size()
            for i in range(group.size()):
                assert group.position(group.key(i)) == i
                assert elems[i] == group.key(i)
            for g in elems:
                assert parse_basis_label(ctx, f"g{group.position(g) + 1}") == g
            for i in (-1, group.size()):
                with pytest.raises(DomainError):
                    group.key(i)
            with pytest.raises(KeyRangeError):
                parse_basis_label(ctx, f"g{group.size() + 1}")
            flags = (
                ["--k", str(group.k)] if isinstance(group, AdiagGroup) else
                ["--group", "derived", "--base", f"cyclic:{group.k}",
                 "--arity", str(group.arity), "--q", str(group.arity - 1)]
            )
            label = f"1{ctx.ring.symbol}*g{group.size() + 1}"
            assert cli.main(["eval", *flags, label]) == 1  # KeyRangeError

    def test_large_k_is_arithmetic(self):
        k = 10**6
        group = AdiagGroup(k)
        assert group.size() == 10**12
        assert group.key(0) == (0, 0)
        assert group.key(k - 1) == (k - 1, 0)
        assert group.key(k) == (0, 1)
        assert group.key(k * k - 1) == (k - 1, k - 1)
        assert group.position((k - 1, k - 1)) == k * k - 1
        assert group.label(group.key(k * k - 1)) == f"g({k - 1},{k - 1})"
        with pytest.raises(DomainError):
            group.key(k * k)

    def test_labels(self, adiag3):
        assert adiag3.label((1, 2)) == "g(1,2)"
        assert DerivedCyclicGroup(3, 3).label(0) == "g1"


class TestNonderivedness:
    def test_all_binary_matrix_products_leave_the_carrier(self, adiag3):
        cover = adiag3.cover()
        for x, y in product(adiag3.elements(), repeat=2):
            mat = oracle.binary_product_matrix(3, x, y)
            assert not oracle.is_antidiagonal(mat)
            assert not cover.in_carrier(cover.mul(cover.embed(x), cover.embed(y)))

    def test_derived_binary_products_stay_inside(self):
        group = DerivedCyclicGroup(3, 3)
        cover = group.cover()
        for x, y in product(group.elements(), repeat=2):
            assert cover.in_carrier(cover.mul(cover.embed(x), cover.embed(y)))


class TestDerivedGroupBasics:
    def test_product_is_iterated_binary(self):
        group = DerivedCyclicGroup(5, 4)
        assert group.mul((1, 2, 3, 4)) == 0

    def test_quer_by_search(self):
        group = DerivedCyclicGroup(3, 3)
        for g in group.elements():
            q = group.quer(g)
            assert group.mul((q, g, g)) == g
            assert group.mul((g, q, g)) == g
            assert group.mul((g, g, q)) == g
