from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_oracle as oracle
from pgr import (
    AdiagGroup,
    AdjoinedZeroRing,
    ArityMismatch,
    BudgetExceeded,
    DerivedCyclicGroup,
    DomainError,
    GroupRing,
    InfiniteUniverse,
    JRootRing,
    NotClosed,
    OddJRootSemigroup,
    PolyadicRing,
    QuantizationMismatch,
    adjoin_zero,
    make_group_ring,
)
from pgr import groupring
from pgr.linsolve import solve

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestNormalization:
    def test_zero_coefficients_dropped(self, ctx1):
        x = ctx1.element({(0, 0): 0, (1, 1): 5})
        assert x.terms == (((1, 1), 5),)

    def test_empty_is_zero(self, ctx1):
        assert ctx1.element({}) == ctx1.zero()
        assert ctx1.zero().is_zero()

    def test_key_ordering(self, ctx1):
        x = ctx1.element({(1, 1): 40, (2, 0): -105})
        assert x.support() == ((2, 0), (1, 1))  # legacy indices 3 then 5

    def test_duplicate_keys_gathered(self, ctx1):
        x = ctx1.element([((1, 1), 2), ((1, 1), 3)])
        assert x == ctx1.element({(1, 1): 5})

    def test_foreign_key_rejected(self, ctx1):
        with pytest.raises(DomainError):
            ctx1.element({(7, 0): 1})

    def test_modular_coefficients_normalized(self):
        ctx = make_group_ring(JRootRing(2, 5), AdiagGroup(3))
        assert ctx.element({(1, 1): 7}) == ctx.element({(1, 1): 2})

    def test_coefficient_outside_the_carrier_rejected(self):
        ctx = make_group_ring(adjoin_zero(OddJRootSemigroup(2)), AdiagGroup(3))
        assert ctx.element({(0, 0): 3}).terms == (((0, 0), 3),)
        with pytest.raises(DomainError):
            ctx.element({(0, 0): 2})


class TestAddition:
    def test_componentwise_with_cancellation(self, ctx1):
        a = ctx1.element({(0, 2): 2, (1, 2): -7})
        b = ctx1.element({(0, 2): -2})
        assert ctx1.add([a, b]) == ctx1.element({(1, 2): -7})

    def test_zero_neutral(self, ctx1):
        a = ctx1.element({(1, 1): 5})
        assert ctx1.add([a, ctx1.zero()]) == a

    def test_higher_power_addition(self, jz, adiag3):
        ctx = make_group_ring(jz, adiag3, ell_m=2)
        assert ctx.profile.gr_add_arity == 3
        one = ctx.element({(0, 0): 1})
        assert ctx.add([one, one, one]) == ctx.element({(0, 0): 3})

    def test_arity_mismatch(self, ctx1):
        with pytest.raises(ArityMismatch):
            ctx1.add([ctx1.zero()])


class TestMultiplication:
    def test_monomials(self, ctx1):
        out = ctx1.mul(
            [
                ctx1.element({(1, 1): 5}),
                ctx1.element({(0, 2): 2}),
                ctx1.element({(1, 0): -4}),
            ]
        )
        assert out == ctx1.element({(1, 1): 40})

    def test_zero_operand_absorbs(self, ctx1, worked_elements):
        r1, r2, _ = worked_elements
        assert ctx1.mul([r1, r2, ctx1.zero()]) == ctx1.zero()

    def test_worked_product_terms(self, ctx1, worked_elements):
        terms = ctx1.mul_terms(list(worked_elements))
        assert [c for c, _ in terms] == [40, -70, 30, -140, 245, -105]
        for (_, got), combo in zip(
            terms,
            [
                ((1, 1), (0, 2), (1, 0)),
                ((1, 1), (0, 2), (2, 0)),
                ((1, 1), (0, 2), (2, 1)),
                ((1, 1), (1, 2), (1, 0)),
                ((1, 1), (1, 2), (2, 0)),
                ((1, 1), (1, 2), (2, 1)),
            ],
        ):
            assert got == oracle.product_key(3, *combo)

    def test_worked_product_total(self, ctx1, worked_elements):
        out = ctx1.mul(list(worked_elements))
        assert out == ctx1.element(
            {(2, 0): -105, (1, 1): 40, (2, 1): -70, (1, 2): -140, (2, 2): 275}
        )

    def test_budget(self, jz, adiag3):
        ctx = GroupRing(jz, adiag3, mul_budget=3)
        two = ctx.element({(0, 0): 1, (1, 1): 1})
        with pytest.raises(BudgetExceeded):
            ctx.mul([two, two, two])

    def test_noncommutative(self, ctx1):
        a = ctx1.element({(1, 0): 1})
        b = ctx1.element({(0, 1): 1})
        c = ctx1.element({(2, 2): 1})
        assert ctx1.mul([a, b, c]) != ctx1.mul([b, a, c])


class TestNaiveCrossCheck:
    """Recompute the operations along a fully independent route: matrix-model
    group products and plain dictionary accumulation."""

    def _random_element(self, ctx, rng, keys):
        support = rng.sample(keys, rng.randint(0, 3))
        return ctx.element({g: rng.randint(-20, 20) for g in support})

    def test_convolution_matches_naive_model(self, ctx1):
        rng = random.Random(99)
        keys = ctx1.group.elements()
        for _ in range(300):
            ops = [self._random_element(ctx1, rng, keys) for _ in range(3)]
            expected: dict = {}
            for g1, c1 in ops[0].terms:
                for g2, c2 in ops[1].terms:
                    for g3, c3 in ops[2].terms:
                        key = oracle.product_key(3, g1, g2, g3)
                        expected[key] = expected.get(key, 0) - c1 * c2 * c3
            expected = {k: v for k, v in expected.items() if v != 0}
            assert ctx1.mul(ops).as_dict() == expected

    def test_addition_matches_naive_model(self, ctx1):
        rng = random.Random(100)
        keys = ctx1.group.elements()
        for _ in range(300):
            a = self._random_element(ctx1, rng, keys)
            b = self._random_element(ctx1, rng, keys)
            expected: dict = {}
            for x in (a, b):
                for g, c in x.terms:
                    expected[g] = expected.get(g, 0) + c
            expected = {k: v for k, v in expected.items() if v != 0}
            assert ctx1.add([a, b]).as_dict() == expected

    def test_augmentation_is_the_coefficient_sum(self, ctx1):
        rng = random.Random(101)
        keys = ctx1.group.elements()
        for _ in range(300):
            x = self._random_element(ctx1, rng, keys)
            assert ctx1.augmentation(x) == sum(x.coefficients())


class TestHigherPowerMultiplication:
    def test_five_operands_equal_nested_ternary(self, jz, adiag3, ctx1):
        ctx5 = make_group_ring(jz, adiag3, ell_n=2, ell_g=2)
        assert ctx5.profile.gr_mul_arity == 5
        rng = random.Random(5)
        keys = adiag3.elements()
        for _ in range(25):
            ops = []
            for _ in range(5):
                support = rng.sample(keys, rng.randint(1, 2))
                ops.append(
                    ctx1.element({g: rng.randint(-50, 50) for g in support})
                )
            nested = ctx1.mul([ctx1.mul(ops[:3]), ops[3], ops[4]])
            assert ctx5.mul(ops) == nested

    def test_five_fold_group_power_formula(self, jz, adiag3):
        # (m1+n2+m3+n4+m5, n1+m2+n3+m4+n5), the second-power ternary product
        ctx5 = make_group_ring(jz, adiag3, ell_n=2, ell_g=2)
        ops = [ctx5.element({(m, n): 1}) for m, n in
               [(0, 1), (1, 1), (2, 0), (0, 2), (1, 0)]]
        ((key, coeff),) = ctx5.mul(ops).terms
        assert key == ((0 + 1 + 2 + 2 + 1) % 3, (1 + 1 + 0 + 0 + 0) % 3)
        assert coeff == 1  # five j factors: j**5 = j

    def test_fourth_root_five_ary_context(self, adiag3):
        # (2,5)-ring against the ternary group at its second power:
        # one 5-ary ring product paired with two nested group products
        ctx = make_group_ring(JRootRing(4), adiag3, ell_n=1, ell_g=2)
        assert ctx.profile.gr_mul_arity == 5
        keys = [(1, 1), (0, 2), (1, 0), (2, 2), (0, 1)]
        coeffs = [1, 2, 3, 1, 2]
        ops = [ctx.element({k: c}) for k, c in zip(keys, coeffs)]
        ((key, coeff),) = ctx.mul(ops).terms
        assert coeff == -12  # j4**5 = -j4, so the sign flips once
        assert key == oracle.product_key(3, *keys)
        assert key == ((1 + 2 + 1 + 2 + 0) % 3, (1 + 0 + 0 + 2 + 1) % 3)


class TestScalarAction:
    def test_classical_binary_case(self):
        ctx = make_group_ring(JRootRing(1), DerivedCyclicGroup(3, 2))
        x = ctx.element({1: 2})
        assert ctx.scalar_action([3], x) == ctx.element({1: 6})

    def test_two_slot_action(self, ctx1):
        x = ctx1.element({(1, 1): 5})
        assert ctx1.scalar_action([1, 1], x) == ctx1.element({(1, 1): -5})

    def test_opposite_units_fix_everything(self, ctx1, worked_elements):
        # -(1 * -1 * k) = k: acting with (j, -j) is the identity map
        _, r2, _ = worked_elements
        assert ctx1.scalar_action([1, -1], r2) == r2

    def test_arity(self, ctx1):
        with pytest.raises(ArityMismatch):
            ctx1.scalar_action([1], ctx1.zero())

    def test_scalar_outside_carrier(self):
        # 2 and 4 are not odd: acting with them would give the coefficient
        # -24, which is not in the carrier either
        ctx = make_group_ring(adjoin_zero(OddJRootSemigroup(2)), AdiagGroup(3))
        x = ctx.element({(0, 0): 3})
        with pytest.raises(DomainError, match="2 is not an element"):
            ctx.scalar_action((2, 4), x)
        assert ctx.scalar_action((1, 3), x) == ctx.element({(0, 0): -9})

    def test_scalars_normalized(self):
        ctx = make_group_ring(JRootRing(2, 5), AdiagGroup(3))
        x = ctx.element({(1, 1): 1})
        assert ctx.scalar_action((6, 1), x) == ctx.scalar_action((1, 1), x)


class TestZeroLaws:
    def test_add_neutral_every_slot(self, ctx1, worked_elements):
        r1, _, _ = worked_elements
        assert ctx1.add([r1, ctx1.zero()]) == r1
        assert ctx1.add([ctx1.zero(), r1]) == r1

    def test_mul_absorbing_every_slot(self, ctx1, worked_elements):
        r1, r2, _ = worked_elements
        z = ctx1.zero()
        assert ctx1.mul([z, r1, r2]) == z
        assert ctx1.mul([r1, z, r2]) == z
        assert ctx1.mul([r1, r2, z]) == z


class TestTrivialIdentities:
    def test_unitless_ring_gives_none(self, ctx1):
        assert ctx1.trivial_identities() == []

    def test_mod5_candidates_all_pass(self, adiag3):
        ctx = make_group_ring(JRootRing(2, 5), adiag3)
        got = ctx.trivial_identities()
        expected = [
            ctx.element({eg: er})
            for er in (2, 3)
            for eg in [(0, 0), (2, 1), (1, 2)]
        ]
        assert got == expected

    def test_classical_group_ring_identity(self):
        ctx = make_group_ring(JRootRing(1), DerivedCyclicGroup(3, 2))
        assert ctx.trivial_identities() == [ctx.element({0: 1})]


class TestQuerelement:
    def test_unit_monomial_fast_path(self, ctx1):
        x = ctx1.element({(1, 1): 1})  # j * g5
        q = ctx1.quer(x)
        assert q == ctx1.element({(2, 2): -1})  # -j * g9
        for p in range(3):
            word = [x, x]
            word.insert(p, q)
            assert ctx1.mul(word) == x

    def test_non_unit_coefficient(self, ctx1):
        assert ctx1.quer(ctx1.element({(1, 1): 2})) is None

    def test_zero_has_no_quer(self, ctx1):
        assert ctx1.quer(ctx1.zero()) is None

    @pytest.mark.parametrize(
        "ring, group, ell",
        [
            (JRootRing(2, 4), DerivedCyclicGroup(2, 3), 1),
            (JRootRing(2, 6), DerivedCyclicGroup(2, 3), 1),
            (JRootRing(3, 4), DerivedCyclicGroup(2, 4), 1),
            (JRootRing(2, 2), AdiagGroup(2), 2),
            (JRootRing(2, 3), DerivedCyclicGroup(3, 3), 1),
        ],
        ids=["mod4", "mod6", "q3-mod4", "ell2-adiag2", "mod3-derived3"],
    )
    def test_none_exactly_when_exhaustive_search_finds_none(
        self, ring, group, ell
    ):
        ctx = make_group_ring(ring, group, ell_n=ell, ell_g=ell)
        elems = ctx.elements()
        for x in elems[1:]:  # elems[0] is the zero
            got = ctx.quer(x)
            if got is None:
                assert not any(ctx._is_quer(c, x) for c in elems), x
            else:
                assert ctx._is_quer(got, x)

    def test_rational_answers_agree_with_sympy(self, ctx1):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(4)
        keys = ctx1.group.elements()
        seen = set()
        for _ in range(40):
            size = rng.randint(1, 3)
            x = ctx1.element(
                {g: rng.choice((-2, -1, 1, 2)) for g in rng.sample(keys, size)}
            )
            rows, coords = oracle_quer_system(ctx1, x)
            a, b = sympy.Matrix(rows), sympy.Matrix(coords)
            q = ctx1.quer(x)
            try:
                solution, params = a.gauss_jordan_solve(b)
            except ValueError:  # inconsistent over Q
                seen.add("inconsistent")
                assert q is None
                continue
            if params.shape[0]:
                seen.add("underdetermined")
                continue
            integral = all(v.is_integer for v in solution)
            seen.add("integral" if integral else "fractional")
            if integral:
                assert q == ctx1.element(zip(keys, map(int, solution)))
            else:
                assert q is None
        assert {"inconsistent", "integral", "fractional"} <= seen

    def test_answer_does_not_depend_on_hash_seed(self):
        script = (
            "from pgr import JRootRing, AdiagGroup, make_group_ring\n"
            "for mod in (None, 5):\n"
            "    ctx = make_group_ring(JRootRing(2, mod), AdiagGroup(2))\n"
            "    for c in range(1, 5):\n"
            "        x = ctx.element({(0, 0): c, (1, 0): 2, (0, 1): 1})\n"
            "        print(ctx.quer(x))\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": SRC},
            ).stdout
            for seed in ("0", "1", "4242")
        }
        assert len(outputs) == 1
        assert "GroupRingElement" in outputs.pop()

    def test_dense_elements_stay_fast_and_correct(self):
        rng = random.Random(6)
        for ring, size in ((JRootRing(2), 36), (JRootRing(2, 12), 5)):
            ctx = make_group_ring(ring, AdiagGroup(6))
            keys = rng.sample(ctx.group.elements(), size)
            x = ctx.element({g: rng.choice((-3, -2, -1, 1, 2, 3)) for g in keys})
            q = ctx.quer(x)
            assert q is None or ctx._is_quer(q, x)

    def test_non_linear_ring_is_a_domain_error(self, adiag3):
        ctx = make_group_ring(adjoin_zero(OddJRootSemigroup(2)), adiag3)
        with pytest.raises(DomainError, match="odd jZ"):
            ctx.quer(ctx.element({(1, 1): 1}))
        with pytest.raises(DomainError, match="odd jZ"):
            ctx.trivial_identities()


def oracle_quer_system(ctx: GroupRing, x):
    """The querelement system built column by column: one full product
    with 1*h in slot p for every slot and key, n*|G| products in all."""
    keys = ctx.group.elements()
    size = len(keys)
    n = ctx.profile.gr_mul_arity
    row_of = {g: i for i, g in enumerate(keys)}
    rest = [x] * (n - 1)
    a = [[0] * size for _ in range(n * size)]
    for j, h in enumerate(keys):
        unit = ctx.element({h: 1})
        for p in range(n):
            for g, c in ctx.mul([*rest[:p], unit, *rest[p:]]).terms:
                a[p * size + row_of[g]][j] = c
    coords = x.as_dict()
    return a, [coords.get(g, 0) for g in keys] * n


SMALL_QUER_CONTEXTS = pytest.mark.parametrize(
    "ring, group, ell_n, ell_g, coeffs",
    [
        (JRootRing(2, 4), DerivedCyclicGroup(2, 3), 1, 1, range(4)),
        (JRootRing(2, 4), AdiagGroup(2), 1, 1, range(4)),
        (JRootRing(2, 6), AdiagGroup(2), 1, 1, range(6)),
        (JRootRing(2), AdiagGroup(2), 1, 1, (-1, 0, 1)),
        (JRootRing(2, 2), AdiagGroup(2), 2, 2, range(2)),
        (JRootRing(2, 3), AdiagGroup(2), 3, 3, range(3)),
        (JRootRing(4, 3), AdiagGroup(2), 1, 2, range(3)),
        (JRootRing(3, 4), DerivedCyclicGroup(2, 4), 1, 1, range(4)),
        (JRootRing(3, 3), DerivedCyclicGroup(3, 4), 1, 1, range(3)),
        (JRootRing(3), DerivedCyclicGroup(3, 4), 2, 2, (-1, 0, 1)),
    ],
    ids=["mod4-derived3", "mod4", "mod6", "Z", "ell2", "ell3",
         "j4-ell_g2", "derived4-mod4", "derived4-mod3", "derived4-Z-ell2"],
)


def nonzero_elements(ctx, coeffs):
    keys = ctx.group.elements()
    for combo in product(coeffs, repeat=len(keys)):
        x = ctx.element(zip(keys, combo))
        if not x.is_zero():
            yield combo, x


def slot_class(group, p: int) -> int:
    """The slot class the cover gives slot p: adiag's e(h0) is
    antidiagonal, so conjugating by it swaps the diagonal kernel's entries
    and slots of equal parity agree; a derived group's cover is abelian,
    so every slot agrees."""
    return p % 2 if isinstance(group, AdiagGroup) else 0


def assert_merged_system(ctx: GroupRing, x) -> None:
    """The merged system against the n-block oracle, every oracle entry
    checked: each slot's oracle block and right-hand side equal those of
    its class in the merged system, and the merged system holds exactly
    the class representatives' oracle blocks, in slot order."""
    a, b = ctx._quer_system(x)
    rows, coords = oracle_quer_system(ctx, x)
    size = ctx.group.size()
    reps = [p for p, _ in ctx._quer_moves()]

    def block(m, i):
        return m[i * size : (i + 1) * size]

    for p in range(ctx.profile.gr_mul_arity):
        c = slot_class(ctx.group, p)
        assert block(rows, p) == block(a, c), p
        assert block(coords, p) == block(b, c), p
    assert a == [row for p in reps for row in block(rows, p)]
    assert b == [v for p in reps for v in block(coords, p)]


class TestQuerSystem:
    """_quer_system (one product and one block per slot class of the
    cover) against the column-by-column n-block oracle, so quer's answers
    are those of the n*|G|-product builder."""

    def test_recorded_inputs(self, workloads):
        checked = 0
        for name, rows in workloads.load_quer_reference().items():
            spec = workloads.CONTEXTS[name]
            kind, k, *rest = spec["group"]
            group = AdiagGroup(k) if kind == "adiag" else DerivedCyclicGroup(k, *rest)
            ell_m, ell_n, ell_g = spec.get("ell", (1, 1, 1))
            ctx = make_group_ring(
                JRootRing(spec["q"], spec["mod"]), group,
                ell_m=ell_m, ell_n=ell_n, ell_g=ell_g,
            )
            for data, answer in rows:
                x = ctx.element(data)
                assert_merged_system(ctx, x)
                # the recording found some querelement, not always the one
                # the solve picks; it found none exactly where none exists
                q = ctx.quer(x)
                assert (q is None) == (answer is None), data
                assert q is None or ctx._is_quer(q, x)
                checked += 1
        assert checked == 2040

    @SMALL_QUER_CONTEXTS
    def test_every_element_of_small_contexts(self, ring, group, ell_n, ell_g, coeffs):
        ctx = make_group_ring(ring, group, ell_n=ell_n, ell_g=ell_g)
        for _, x in nonzero_elements(ctx, coeffs):
            assert_merged_system(ctx, x)
            q = ctx.quer(x)
            assert q is None or ctx._is_quer(q, x)

    @SMALL_QUER_CONTEXTS
    def test_merged_solve_equals_full_solve(self, ring, group, ell_n, ell_g, coeffs):
        # dropping the copied blocks changes neither the answer nor the
        # pick of free coordinates, None included
        ctx = make_group_ring(ring, group, ell_n=ell_n, ell_g=ell_g)
        modulus = ring.coordinate_modulus
        for combo, x in nonzero_elements(ctx, coeffs):
            assert solve(*ctx._quer_system(x), modulus) == solve(
                *oracle_quer_system(ctx, x), modulus
            ), combo

    def test_dense_elements(self):
        rng = random.Random(9)
        for ring, group in ((JRootRing(2), AdiagGroup(4)),
                            (JRootRing(2, 12), AdiagGroup(3)),
                            (JRootRing(2), DerivedCyclicGroup(7, 3))):
            ctx = make_group_ring(ring, group)
            for _ in range(3):
                x = ctx.element(
                    {g: rng.randint(-4, 4) for g in group.elements()}
                )
                assert_merged_system(ctx, x)


class TestQuerSlotClasses:
    """The slot classes come from the cover's translations: slot parity
    for adiag at every ell, one class for a derived group."""

    @staticmethod
    def translations(ctx, p):
        cover = ctx.group.cover()
        keys = ctx.group.elements()
        return [cover.translation(p, h, keys[0]) for h in keys]

    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_adiag_slots_split_by_parity(self, k, ell):
        ctx = make_group_ring(JRootRing(2), AdiagGroup(k), ell_n=ell, ell_g=ell)
        n = ctx.profile.gr_mul_arity
        assert n == 2 * ell + 1
        assert [p for p, _ in ctx._quer_moves()] == [0, 1]
        even, odd = self.translations(ctx, 0), self.translations(ctx, 1)
        assert even != odd
        for p in range(n):
            assert self.translations(ctx, p) == (odd if p % 2 else even)
        x = ctx.element({(0, 0): 2, (1, 0): -1, (1, 1): 3})
        assert_merged_system(ctx, x)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_derived_group_is_one_class(self, n):
        # ell = 2 keeps the multiplication arity at least 3 for n = 2
        ctx = make_group_ring(
            JRootRing(n - 1), DerivedCyclicGroup(5, n), ell_n=2, ell_g=2
        )
        assert [p for p, _ in ctx._quer_moves()] == [0]
        first = self.translations(ctx, 0)
        for p in range(ctx.profile.gr_mul_arity):
            assert self.translations(ctx, p) == first
        x = ctx.element({0: 2, 1: -1, 3: 4})
        assert_merged_system(ctx, x)


class TestAugmentation:
    def test_worked_values(self, ctx1, worked_elements):
        r1, r2, r3 = worked_elements
        assert ctx1.augmentation(r1) == 5
        assert ctx1.augmentation(r2) == -5
        assert ctx1.augmentation(r3) == 0
        assert ctx1.augmentation(ctx1.mul([r1, r2, r3])) == 0

    def test_zero_element(self, ctx1):
        assert ctx1.augmentation(ctx1.zero()) == 0

    def test_ideal_membership(self, ctx1, worked_elements):
        r1, _, r3 = worked_elements
        assert ctx1.in_augmentation_ideal(r3)
        assert ctx1.in_augmentation_ideal(ctx1.mul(list(worked_elements)))
        assert not ctx1.in_augmentation_ideal(r1)


class TestEnumeration:
    def test_small_derived_context(self):
        ctx = make_group_ring(JRootRing(2, 2), DerivedCyclicGroup(3, 3))
        elems = ctx.elements()
        assert len(elems) == 8
        assert len(set(elems)) == 8

    def test_adiag2_context(self):
        ctx = make_group_ring(JRootRing(2, 2), AdiagGroup(2))
        assert len(ctx.elements()) == 16

    def test_infinite_ring(self, ctx1):
        with pytest.raises(InfiniteUniverse):
            ctx1.elements()

    def test_budget_is_exact_and_checked_before_listing_keys(self):
        ctx = make_group_ring(JRootRing(2, 2), AdiagGroup(2))
        assert len(ctx.elements(budget=16)) == 16
        with pytest.raises(BudgetExceeded, match=r"2\*\*4 elements"):
            ctx.elements(budget=15)
        # 5**6400 has more digits than an int prints by default
        wide = make_group_ring(JRootRing(2, 5), AdiagGroup(80))
        with pytest.raises(BudgetExceeded, match=r"5\*\*6400 elements"):
            wide.elements()
        huge = make_group_ring(JRootRing(2, 3), AdiagGroup(10**6))
        with pytest.raises(BudgetExceeded, match=rf"3\*\*{10**12} elements"):
            huge.elements()

    def test_mismatching_profile_not_constructible(self, jz):
        # ternary ring multiplication against a binary derived group at
        # unit powers: 1*(3-1) != 1*(2-1)
        with pytest.raises(QuantizationMismatch):
            make_group_ring(jz, DerivedCyclicGroup(2, 2))

    def test_hand_built_inconsistent_profile_rejected(self, jz, adiag3):
        from pgr import ArityProfile

        forged = ArityProfile(
            m_r=2, n_r=3, n_g=3, ell_m=1, ell_n=1, ell_g=1,
            gr_add_arity=2, gr_mul_arity=4,
        )
        with pytest.raises(DomainError):
            GroupRing(jz, adiag3, forged)


class TestRendering:
    def test_worked_product(self, ctx1, worked_elements):
        out = ctx1.mul(list(worked_elements))
        assert ctx1.render(out) == (
            "-105j*g(2,0) + 40j*g(1,1) + -70j*g(2,1) + -140j*g(1,2) "
            "+ 275j*g(2,2)"
        )

    def test_zero(self, ctx1):
        assert ctx1.render(ctx1.zero()) == "0"

    def test_recorded_total(self, ctx1):
        x = ctx1.element({(2, 0): -105, (1, 1): 40, (2, 1): -70, (2, 2): 135})
        assert ctx1.render(x) == (
            "-105j*g(2,0) + 40j*g(1,1) + -70j*g(2,1) + 135j*g(2,2)"
        )


class _TernaryAdditionRing(PolyadicRing):
    """Minimal (3,3)-ring over Z: exercises the zero-padding paths that the
    binary-addition families never reach."""

    m_r = 3
    n_r = 3
    name = "sum3/prod3 Z"
    symbol = ""
    has_zero = True
    is_finite = False

    def add(self, coeffs):
        self._check_add_arity(coeffs)
        return sum(coeffs)

    def mul(self, coeffs):
        self._check_mul_arity(coeffs)
        p = 1
        for c in coeffs:
            p *= c
        return p

    def zero(self):
        return 0

    def contains(self, r):
        return isinstance(r, int)

    def normalize(self, r):
        return r

    def sample(self, rng):
        return rng.randint(-9, 9)

    def format_scalar(self, r):
        return str(r)


class TestZeroPadding:
    @pytest.fixture
    def ctx3(self):
        return make_group_ring(_TernaryAdditionRing(), DerivedCyclicGroup(3, 3))

    def test_augmentation_pads_two_terms_to_three(self, ctx3):
        x = ctx3.element({0: 4, 1: 7})
        assert ctx3.augmentation(x) == 11

    def test_augmentation_pads_four_terms_to_five(self, ctx3):
        # needs two ternary additions, i.e. an admissible word of length 5
        x = ctx3.element({0: 1, 1: 2, 2: 3})
        assert ctx3.augmentation(x) == 6
        y = ctx3.element({0: -1, 1: -2})
        assert ctx3.augmentation(ctx3.add([x, y, ctx3.zero()])) == 3

    def test_product_gathering_pads(self, ctx3):
        x = ctx3.element({0: 1, 1: 1})
        y = ctx3.element({0: 1, 2: 1})
        z = ctx3.element({0: 1})
        # the (0,0,0) and (1,2,0) combinations both land on key 0
        assert ctx3.mul([x, y, z]) == ctx3.element({0: 2, 1: 1, 2: 1})


def _equivalence_contexts() -> list:
    """Linear contexts over moduli 4, 5, 6, 9, 101 and Z with q = 1 to 4
    and ell = 1, 2, 3, n_r == n_g and n_r != n_g profiles over both group
    families (ring-word constants 1, -1, N - 1 and 5 mod 6), and the
    non-linear rings that gather with _accumulate."""
    return [
        make_group_ring(JRootRing(2, 4), AdiagGroup(2)),
        make_group_ring(JRootRing(2, 6), DerivedCyclicGroup(3, 3)),
        make_group_ring(JRootRing(2, 101), AdiagGroup(3)),
        make_group_ring(JRootRing(1), DerivedCyclicGroup(3, 2)),
        make_group_ring(JRootRing(1, 6), DerivedCyclicGroup(2, 2), ell_n=3, ell_g=3),
        make_group_ring(JRootRing(3), DerivedCyclicGroup(4, 4)),
        make_group_ring(JRootRing(3, 4), DerivedCyclicGroup(2, 4), ell_n=2, ell_g=2),
        make_group_ring(JRootRing(2), AdiagGroup(3), ell_n=2, ell_g=2),
        make_group_ring(JRootRing(2, 6), AdiagGroup(2), ell_n=3, ell_g=3),
        make_group_ring(JRootRing(4), AdiagGroup(3), ell_g=2),
        make_group_ring(JRootRing(2), DerivedCyclicGroup(3, 5), ell_n=2),
        make_group_ring(JRootRing(1, 4), DerivedCyclicGroup(2, 3), ell_n=2),
        make_group_ring(JRootRing(4, 6), DerivedCyclicGroup(3, 3), ell_g=2),
        make_group_ring(JRootRing(3), AdiagGroup(2), ell_n=2, ell_g=3),
        make_group_ring(JRootRing(2, 9), DerivedCyclicGroup(2, 4), ell_n=3, ell_g=2),
        make_group_ring(JRootRing(1, 5), AdiagGroup(3), ell_n=2),
        make_group_ring(adjoin_zero(OddJRootSemigroup(2)), AdiagGroup(2)),
        make_group_ring(_TernaryAdditionRing(), DerivedCyclicGroup(3, 3)),
    ]


EQUIVALENCE_CONTEXTS = _equivalence_contexts()


def _outcome(compute):
    try:
        return ("value", compute())
    except (BudgetExceeded, NotClosed) as exc:
        return ("raises", type(exc))


@st.composite
def _product_case(draw):
    ctx = draw(st.sampled_from(EQUIVALENCE_CONTEXTS))
    keys = ctx.group.elements()
    arity = ctx.profile.gr_mul_arity
    # the odd semigroup's carrier holds odd coefficients only
    odd = isinstance(ctx.ring, AdjoinedZeroRing)
    coeffs = st.sampled_from([1, 3, 5, -7]) if odd else st.integers(-9, 9)
    term = st.tuples(st.sampled_from(keys), coeffs)
    # zero-term pools give zero operands; drawing operands from a small pool
    # repeats them
    size = 3 if arity <= 5 else 2
    element = st.lists(term, max_size=size, unique_by=lambda t: t[0])
    pool = draw(st.lists(element, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=arity, max_size=arity))
    return ctx, [ctx.element(pool[i]) for i in picks]


class TestMulEqualsGatheredTerms:
    @settings(max_examples=300, deadline=None)
    @given(_product_case())
    def test_mul_equals_gathered_mul_terms(self, case):
        ctx, ops = case
        expected = _outcome(
            lambda: ctx.element([(g, c) for c, g in ctx.mul_terms(ops)])
        )
        assert _outcome(lambda: ctx.mul(ops)) == expected
        combos = 1
        for x in ops:
            combos *= len(x.terms)
        if combos:
            p = ctx.profile
            tight = GroupRing(
                ctx.ring, ctx.group, p.ell_m, p.ell_n, p.ell_g,
                mul_budget=combos - 1,
            )
            with pytest.raises(BudgetExceeded):
                tight.mul(ops)
            with pytest.raises(BudgetExceeded):
                tight.mul_terms(ops)

    @staticmethod
    def _counted_stages(monkeypatch, ring, group, **powers):
        """A context on ring and group that counts their mul calls and
        records the combinations each stage of the linear product walks,
        and five dense seeded operands; nothing counted yet."""
        calls = {"ring.mul": 0, "group.mul": 0}

        def counted(name, op):
            def run(word):
                calls[name] += 1
                return op(word)
            return run

        group.mul = counted("group.mul", group.mul)
        ring.mul = counted("ring.mul", ring.mul)
        stages = []
        walk = groupring._stage

        def stage(codes, coeffs):
            stages.append(prod(map(len, codes)))
            return walk(codes, coeffs)

        monkeypatch.setattr(groupring, "_stage", stage)
        ctx = make_group_ring(ring, group, **powers)
        rng = random.Random(7)
        ops = [
            ctx.element({g: rng.randint(1, 9) for g in ctx.group.elements()})
            for _ in range(5)
        ]
        calls.update(dict.fromkeys(calls, 0))  # the context took _unit
        return ctx, ops, calls, stages

    def test_power_runs_as_stages(self, monkeypatch):
        # the ell = 2 product over adiag(C3) on dense operands: 9**5
        # combinations expanded with two group products each, against two
        # stages of 9**3 combinations and no ring or group product at all
        ctx, ops, calls, stages = self._counted_stages(
            monkeypatch, JRootRing(2), AdiagGroup(3), ell_n=2, ell_g=2
        )
        gathered = ctx.element([(g, c) for c, g in ctx.mul_terms(ops)])
        assert calls["group.mul"] == 2 * 9**5
        calls.update(dict.fromkeys(calls, 0))
        assert ctx.mul(ops) == gathered
        assert calls == {"ring.mul": 0, "group.mul": 0}
        assert stages == [9**3, 9**3]

    def test_unequal_arities_run_as_stages(self, monkeypatch):
        # j4Z[adiag(C3)] with ell_g = 2: n_r = 5 != n_g = 3, and the ring
        # word still folds into the group stages
        ctx, ops, calls, stages = self._counted_stages(
            monkeypatch, JRootRing(4), AdiagGroup(3), ell_g=2
        )
        product = ctx.mul(ops)
        assert calls == {"ring.mul": 0, "group.mul": 0}
        assert stages == [9**3, 9**3]
        assert product == ctx.element([(g, c) for c, g in ctx.mul_terms(ops)])

    def test_an_operand_shared_by_contexts_is_coded_for_each(self):
        # the codes an operand keeps belong to one context's cover: the
        # same elements alternate between adiag(C3) and adiag(C4) products,
        # in even and odd slots
        c3 = make_group_ring(JRootRing(2), AdiagGroup(3))
        c4 = make_group_ring(JRootRing(2), AdiagGroup(4))
        x = c3.element({(1, 2): 2, (0, 1): -1})
        y = c3.element({(2, 2): 3})
        for ctx in (c3, c4, c3, c4):
            for ops in ([x, y, x], [y, x, y]):
                assert ctx.mul(ops) == ctx.element(
                    [(g, c) for c, g in ctx.mul_terms(ops)]
                )

    def test_adjoined_zero_absorbs_and_sums_leave_the_carrier(self):
        ctx = make_group_ring(adjoin_zero(OddJRootSemigroup(2)), AdiagGroup(3))
        x = ctx.element({(1, 1): 3})
        y = ctx.element({(0, 0): 1, (1, 0): 5})
        assert ctx.mul([x, ctx.zero(), x]) == ctx.zero()
        assert ctx.mul([x, x, x]).terms == (((0, 0), -27),)
        # (0,0) and (1,0) as the middle factor land on distinct keys; two
        # contributions on one key need an odd + odd sum
        assert len(ctx.mul([x, y, x]).terms) == 2
        with pytest.raises(NotClosed):
            ctx.mul([y, y, y])


class _BucketRing:
    """A ring seen through a wrapper that declares no linearity
    (coordinate_modulus None) and delegates everything else, so a context
    on it gathers with _accumulate and _canonical where a context on the
    ring itself gathers in integer coordinates."""

    coordinate_modulus = None

    def __init__(self, base):
        self.base = base

    def __getattr__(self, name):
        return getattr(self.base, name)


def _gather_contexts() -> list:
    """(linear, bucket) context pairs over Z and mod 4, 6 and 101, on
    adiag(C2..C4), derived[3](C4) and derived[4](C3), with ell_m = ell_g =
    ell for ell 1 to 3; the ring is j_q with n_r = n_g, or Z with binary
    multiplication (n_r = 2 != n_g)."""
    groups = [
        AdiagGroup(2), AdiagGroup(3), AdiagGroup(4),
        DerivedCyclicGroup(4, 3), DerivedCyclicGroup(3, 4),
    ]
    pairs = []
    for modulus in (None, 4, 6, 101):
        for group in groups:
            q = group.arity - 1
            for ell in (1, 2, 3):
                for ring_q, ell_n in ((q, ell), (1, ell * q)):
                    ring = JRootRing(ring_q, modulus)
                    powers = {"ell_m": ell, "ell_n": ell_n, "ell_g": ell}
                    pairs.append((
                        make_group_ring(ring, group, **powers),
                        make_group_ring(_BucketRing(ring), group, **powers),
                    ))
    return pairs


GATHER_CONTEXTS = _gather_contexts()
# entries outside the carrier, for either group family and any j-root ring
BAD_KEYS = [(9, 0), (0,), (0, 0, 0), (True, 0), -1, 9, True, 1.0, "g1", [0, 0], None]
BAD_COEFFICIENTS = [1.5, True, False, "3", None, 2j]


def _result(compute):
    """A value, or the type and message of the DomainError it raises."""
    try:
        return ("value", compute())
    except DomainError as exc:
        return ("raises", type(exc), str(exc))


@st.composite
def _gather_case(draw):
    linear, bucket = draw(st.sampled_from(GATHER_CONTEXTS))
    keys = linear.group.elements()
    n = linear.ring.coordinate_modulus
    size = 3 if linear.profile.gr_mul_arity <= 4 else 2

    def entries():
        """Raw entries over at most `size` keys, with duplicate keys and,
        sometimes, one key whose entries cancel to 0 mod N."""
        out = draw(st.lists(
            st.tuples(st.sampled_from(keys), st.integers(-300, 300)),
            max_size=2 * size,
        ).filter(lambda es: len({g for g, _ in es}) <= size))
        if out and draw(st.booleans()):
            g = draw(st.sampled_from([g for g, _ in out]))
            total = sum(c for h, c in out if h == g)
            c = -total + draw(st.integers(-2, 2)) * n
            out.insert(draw(st.integers(0, len(out))), (g, c))
        return out

    raw = entries()
    bad = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(BAD_KEYS), st.integers(-9, 9)),
        st.tuples(st.sampled_from(keys), st.sampled_from(BAD_COEFFICIENTS)),
    ), max_size=2))
    for entry in bad:
        raw.insert(draw(st.integers(0, len(raw))), entry)
    pool = [linear.element(entries()) for _ in range(draw(st.integers(1, 3)))]
    pool.append(linear.element([(g, -c) for g, c in pool[0].terms]))

    def operands(count):
        return [draw(st.sampled_from(pool)) for _ in range(count)]

    scalars = draw(st.lists(
        st.one_of(st.integers(-300, 300), st.sampled_from(BAD_COEFFICIENTS)),
        min_size=linear.ring.n_r - 1, max_size=linear.ring.n_r - 1,
    ))
    return (
        linear, bucket, raw, operands(linear.profile.gr_add_arity),
        operands(linear.profile.gr_mul_arity), scalars,
    )


@st.composite
def _large_group_case(draw):
    """A (linear, bucket) context pair on adiag(C_k) for k up to 10**5,
    over Z or Z_N, with ell = 1 to 3 as in _gather_contexts, and
    gr_mul_arity sparse operands: 1 to 3 terms, exponents anywhere in
    0..k-1 (often k - 1, where codes add up the most), and negative and
    multi-digit coefficients."""
    k = draw(st.one_of(st.sampled_from([2, 3, 10**5]), st.integers(2, 10**5)))
    modulus = draw(st.sampled_from([None, 4, 7, 10**9 + 7]))
    ell = draw(st.integers(1, 3))
    ring_q, ell_n = draw(st.sampled_from([(2, ell), (1, 2 * ell)]))
    ring = JRootRing(ring_q, modulus)
    group = AdiagGroup(k)
    powers = {"ell_m": ell, "ell_n": ell_n, "ell_g": ell}
    linear = make_group_ring(ring, group, **powers)
    bucket = make_group_ring(_BucketRing(ring), group, **powers)
    exponent = st.one_of(st.just(k - 1), st.integers(0, k - 1))
    term = st.tuples(
        st.tuples(exponent, exponent),
        st.integers(-10**6, 10**6).filter(bool),
    )
    element = st.lists(term, min_size=1, max_size=3, unique_by=lambda t: t[0])
    count = linear.profile.gr_mul_arity
    return linear, bucket, [linear.element(draw(element)) for _ in range(count)]


class TestLinearGatherEqualsBucketPath:
    """Over a j-root ring, element, add, mul and augmentation gather in
    integer coordinates (GroupRing._gathered); a wrapper ring that declares
    no linearity runs the same data through the bucket path."""

    @settings(max_examples=300, deadline=None)
    @given(_gather_case())
    def test_both_paths_agree(self, case):
        linear, bucket, raw, summands, factors, scalars = case
        built = _result(lambda: linear.element(raw))
        assert built == _result(lambda: bucket.element(raw))
        if built[0] == "value":
            assert linear.element(dict(raw)) == bucket.element(dict(raw))
        for x in {*summands, *factors}:
            assert bucket.element(x.terms) == x
            assert linear.augmentation(x) == bucket.augmentation(x)
        total = linear.add(summands)
        assert total == bucket.add(summands)
        assert linear.augmentation(total) == bucket.augmentation(total)
        product = linear.mul(factors)
        assert product == bucket.mul(factors)
        assert linear.augmentation(product) == bucket.augmentation(product)
        for x in (summands[0], total, product):
            assert _result(lambda: linear.scalar_action(scalars, x)) == _result(
                lambda: bucket.scalar_action(scalars, x)
            )

    @settings(max_examples=200, deadline=None)
    @given(_large_group_case())
    def test_sparse_products_on_large_groups(self, case):
        # codes of exponents up to k - 1 = 99999 add up in the stages; the
        # group is never listed
        linear, bucket, factors = case
        product = linear.mul(factors)
        assert product == linear.element(
            [(g, c) for c, g in linear.mul_terms(factors)]
        )
        assert product == bucket.mul(factors)

    def test_bad_entries_raise_in_input_order(self):
        linear, bucket = GATHER_CONTEXTS[0]
        raw = [((0, 0), 1), ((0, 0), 1.5), ((9, 0), 1)]
        for ctx in (linear, bucket):
            with pytest.raises(DomainError, match="got 1.5"):
                ctx.element(raw)
            with pytest.raises(DomainError, match=r"\(9, 0\) is not"):
                ctx.element(raw[::-1])

    def test_cancelling_entries_leave_no_term(self):
        for linear, bucket in GATHER_CONTEXTS:
            g = linear.group.elements()[-1]
            n = linear.ring.coordinate_modulus
            raw = [(g, 5), (g, -5 + 3 * n)]
            assert linear.element(raw).is_zero() and bucket.element(raw).is_zero()
