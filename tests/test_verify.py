from __future__ import annotations

import json
from functools import partial
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import controls
from jroot_evidence import binary_product, binary_product_in_carrier
from pgr import (
    AdiagGroup,
    BudgetExceeded,
    DerivedCyclicGroup,
    DomainError,
    JRootRing,
    make_group_ring,
)
from pgr.cli import VERIFY_AXIOMS
from pgr.verify import (
    EXHAUSTIVE_BUDGET,
    TARGETS,
    Law,
    associativity,
    augmentation_homomorphism,
    check_closure_nonderived,
    check_law,
    commutativity,
    distributivity,
    element_sampler,
    identity_law,
    quer_law,
    target_reports,
    zero_law,
)


def int_sampler(rng):
    return rng.randint(-50, 50)


class TestTotalAssociativity:
    def test_adiag2_exhaustive(self):
        group = AdiagGroup(2)
        report = check_law(
            associativity(group.mul, 3), universe=group.elements(),
            structure=group.name,
        )
        assert report.holds
        assert report.mode == "exhaustive"
        assert report.cases == 4**5

    def test_jz_multiplication_sampled(self, jz):
        report = check_law(
            associativity(jz.mul, 3), sampler=jz.sample, samples=1000, seed=3,
            structure=jz.name,
        )
        assert report.holds
        assert report.mode == "sampled"
        assert report.cases == 1000
        assert report.seed == 3

    def test_skew_op_fails_with_reusable_counterexample(self):
        report = check_law(
            associativity(controls.skew_ternary, 3), sampler=int_sampler,
            samples=100, seed=0, structure="skew",
        )
        assert not report.holds
        ce = report.counterexample
        assert ce is not None
        # re-evaluate the two bracketings independently
        word = ce.word
        placements = [
            controls.skew_ternary(
                (*word[:p], controls.skew_ternary(word[p : p + 3]), *word[p + 3 :])
            )
            for p in range(3)
        ]
        assert len(set(placements)) > 1

    def test_reproducible_given_seed(self, jz):
        runs = [
            check_law(
                associativity(jz.mul, 3), sampler=jz.sample, samples=50,
                seed=42, structure="x",
            ).to_text()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_auto_degrades_to_sampling_with_note(self):
        group = AdiagGroup(3)
        report = check_law(
            associativity(group.mul, 3), universe=group.elements(), budget=100,
            samples=20, structure=group.name,
        )
        assert report.holds
        assert report.mode == "sampled"
        assert "over budget" in report.note


def per_word(law):
    """The same law without its scan: check_law tests word by word."""
    return Law(law.name, law.width, law.test)


def outcome(law, universe):
    """A check's report as text and JSON, or the type of what it raised."""
    try:
        report = check_law(law, universe=universe, structure="t")
    except Exception as exc:
        return type(exc)
    return report.to_text(), report.to_json()


class TestAssociativityScan:
    def test_tabulates_the_operation_once(self, adiag3):
        calls = []

        def op(word):
            calls.append(word)
            return adiag3.mul(word)

        report = check_law(associativity(op, 3), universe=adiag3.elements())
        assert report.holds and report.cases == 9**5
        assert len(calls) == 9**3

    @pytest.mark.parametrize(
        "op",
        [
            controls.skew_adiag3,
            controls.OneWrongProduct(
                AdiagGroup(3), ((0, 0), (0, 0), (2, 2)), (0, 0)
            ).mul,
        ],
        ids=["skew", "one-wrong-entry"],
    )
    def test_controls_fail_as_word_by_word(self, adiag3, op):
        law = associativity(op, 3)
        report = check_law(law, universe=adiag3.elements(), structure="c")
        loop = check_law(per_word(law), universe=adiag3.elements(), structure="c")
        assert not report.holds and report.mode == "exhaustive"
        assert report.to_text() == loop.to_text()
        assert report.to_json() == loop.to_json()

    def test_unhashable_universe_runs_word_by_word(self):
        def op(word):
            return [sum(x[0] for x in word) % 2]

        law = associativity(op, 3)
        universe = [[0], [1]]
        assert outcome(law, universe) == outcome(per_word(law), universe)
        assert check_law(law, universe=universe).holds


@st.composite
def finite_operations(draw):
    """(universe, op, arity): a table on up to four values, associative or
    not, that may raise or leave the universe, over a universe that may
    repeat a value."""
    size = draw(st.integers(1, 4))
    n = draw(st.integers(2, 4 if size <= 2 else 3))
    universe = list(range(size))
    if draw(st.booleans()):
        universe.append(draw(st.integers(0, size - 1)))
    words = list(product(range(size), repeat=n))
    if draw(st.booleans()):
        values = [sum(w) % size for w in words]
    else:
        values = draw(
            st.lists(st.integers(0, size - 1), min_size=len(words),
                     max_size=len(words))
        )
    fault = draw(st.sampled_from([None, "raise", "leave"]))
    if fault is not None:
        values[draw(st.integers(0, len(words) - 1))] = fault
    table = dict(zip(words, values))

    def op(word):
        if -1 in word:
            return -1  # absorbing value outside the universe
        value = table[tuple(word)]
        if value == "raise":
            raise ArithmeticError("no product")
        return -1 if value == "leave" else value

    return universe, op, n


@settings(max_examples=300, deadline=None)
@given(finite_operations())
def test_scan_reports_as_word_by_word(case):
    universe, op, n = case
    law = associativity(op, n)
    assert outcome(law, universe) == outcome(per_word(law), universe)


class TestDistributivity:
    def test_mod3_exhaustive(self):
        ring = JRootRing(2, 3)
        report = check_law(
            distributivity(ring.add, ring.mul, 2, 3), universe=ring.elements(),
            structure=ring.name,
        )
        assert report.holds
        assert report.mode == "exhaustive"
        assert report.cases == 3**4

    def test_jz_sampled(self, jz):
        report = check_law(
            distributivity(jz.add, jz.mul, 2, 3), sampler=jz.sample,
            samples=1000, seed=1, structure=jz.name,
        )
        assert report.holds

    def test_sign_dropping_mul_fails(self, jz):
        def bad_mul(word):
            return abs(jz.mul(word))

        report = check_law(
            distributivity(jz.add, bad_mul, 2, 3), sampler=jz.sample,
            samples=200, seed=1, structure="corrupted",
        )
        assert not report.holds
        ce = report.counterexample
        xs, ys = ce.word[:2], ce.word[2:]
        slot = int(ce.detail.rsplit(" ", 1)[1])
        lhs = bad_mul((*ys[:slot], jz.add(xs), *ys[slot:]))
        rhs = jz.add(tuple(bad_mul((*ys[:slot], x, *ys[slot:])) for x in xs))
        assert lhs == ce.lhs and rhs == ce.rhs and lhs != rhs


class TestNamedAxioms:
    def test_zero_law_mod3(self):
        ring = JRootRing(2, 3)
        report = check_law(
            zero_law(ring.add, ring.mul, ring.zero(), ring.m_r, ring.n_r),
            universe=ring.elements(), structure=ring.name,
        )
        assert report.holds and report.mode == "exhaustive"

    def test_zero_law_rejects_fake_zero(self, jz):
        report = check_law(
            zero_law(jz.add, jz.mul, 1, jz.m_r, jz.n_r), sampler=jz.sample,
            samples=50, structure=jz.name,
        )
        assert not report.holds

    def test_identity_law_adiag(self, adiag3):
        report = check_law(
            identity_law(adiag3.mul, 3, (1, 2)), universe=adiag3.elements(),
            structure=adiag3.name,
        )
        assert report.holds
        assert report.cases == 9

    def test_identity_law_rejects_non_identity(self, adiag3):
        report = check_law(
            identity_law(adiag3.mul, 3, (1, 0)), universe=adiag3.elements(),
            structure=adiag3.name,
        )
        assert not report.holds
        assert report.counterexample is not None

    def test_quer_law_all_pairs(self, adiag3):
        report = check_law(
            quer_law(adiag3.mul, 3),
            universe=[(g, adiag3.quer(g)) for g in adiag3.elements()],
            structure=adiag3.name,
        )
        assert report.holds
        assert report.cases == 9

    def test_additive_commutativity(self, jz):
        report = check_law(
            commutativity(jz.add, jz.m_r, "additive-commutativity"),
            sampler=jz.sample, samples=200, structure=jz.name,
        )
        assert report.holds

    def test_unknown_axiom(self, ctx1):
        with pytest.raises(DomainError):
            target_reports(ctx1, "no-such-law")


class TestTargets:
    def test_all_is_every_target_in_table_order(self):
        ctx = make_group_ring(JRootRing(2, 3), DerivedCyclicGroup(3, 3))
        singles = [r for name in TARGETS for r in target_reports(ctx, name, 5)]
        assert target_reports(ctx, "all", 5) == singles

    def test_cli_targets_are_the_table(self):
        assert VERIFY_AXIOMS == (*TARGETS, "all")

    def test_all_over_the_nonderived_budget_runs_no_target(self, monkeypatch):
        # adiag(C100): 10**8 binary products; "all" is refused with the
        # nonderived target's own error before the first target runs
        ctx = make_group_ring(JRootRing(2), AdiagGroup(100))
        with pytest.raises(BudgetExceeded) as single:
            target_reports(ctx, "nonderived")
        ran = []
        monkeypatch.setattr("pgr.verify.TARGETS", {
            name: (lambda ctx, seed, name=name: ran.append(name) or [])
            for name in TARGETS
        })
        with pytest.raises(BudgetExceeded) as every:
            target_reports(ctx, "all")
        assert str(every.value) == str(single.value)
        assert ran == []


class TestClosureNonderived:
    def test_adiag3_all_products_leave(self, adiag3):
        cover = adiag3.cover()
        report = check_closure_nonderived(
            lambda x, y: cover.mul(cover.embed(x), cover.embed(y)),
            adiag3.elements(), cover.in_carrier, structure=adiag3.name,
        )
        assert report.holds
        assert report.cases == 81
        assert report.note == "81 of 81 binary products leave the carrier"

    def test_derived_group_fails(self):
        group = DerivedCyclicGroup(3, 3)
        cover = group.cover()
        report = check_closure_nonderived(
            lambda x, y: cover.mul(cover.embed(x), cover.embed(y)),
            group.elements(), cover.in_carrier, structure=group.name,
        )
        assert not report.holds
        x, y = report.counterexample.word
        assert cover.in_carrier(cover.mul(cover.embed(x), cover.embed(y)))

    def test_over_budget_raises_before_any_product(self):
        side = isqrt(EXHAUSTIVE_BUDGET) + 1  # just over: 1001**2 pairs
        calls = []

        def binary_op(x, y):
            calls.append((x, y))
            return x

        with pytest.raises(BudgetExceeded, match=str(side * side)):
            check_closure_nonderived(binary_op, range(side), lambda p: True)
        assert calls == []

    def test_at_budget_runs(self):
        side = isqrt(EXHAUSTIVE_BUDGET)
        report = check_closure_nonderived(
            lambda x, y: x, range(side), lambda p: False
        )
        assert report.holds and report.cases == side * side

    def test_jroot_scalars(self, jz):
        probe = [k for k in range(-5, 6) if k != 0]
        report = check_closure_nonderived(
            partial(binary_product, jz), probe,
            partial(binary_product_in_carrier, jz), structure=jz.name,
        )
        assert report.holds


class TestGroupRingChecks:
    def test_lifted_laws_hold(self, ctx1):
        sampler = element_sampler(ctx1, max_support=2)
        p = ctx1.profile
        assert check_law(
            associativity(ctx1.mul, p.gr_mul_arity), sampler=sampler,
            samples=100, seed=0, structure=ctx1.name,
        ).holds
        assert check_law(
            distributivity(ctx1.add, ctx1.mul, p.gr_add_arity, p.gr_mul_arity),
            sampler=sampler, samples=100, seed=0, structure=ctx1.name,
        ).holds
        assert check_law(
            zero_law(
                ctx1.add, ctx1.mul, ctx1.zero(), p.gr_add_arity, p.gr_mul_arity
            ),
            sampler=sampler, samples=100, seed=0, structure=ctx1.name,
        ).holds
        assert check_law(
            commutativity(ctx1.add, p.gr_add_arity), sampler=sampler,
            samples=100, seed=0, structure=ctx1.name,
        ).holds

    def test_multiplicative_associativity_over_finite_ring(self):
        # equal arities everywhere: the product of formal sums is totally
        # associative; 500 words of 5 operands with supports <= 2
        from pgr import AdiagGroup, make_group_ring

        ctx = make_group_ring(JRootRing(2, 3), AdiagGroup(3))
        report = check_law(
            associativity(ctx.mul, 3), sampler=element_sampler(ctx, max_support=2),
            samples=500, seed=12, structure=ctx.name,
        )
        assert report.holds
        assert report.cases == 500

    def test_augmentation_homomorphism(self, ctx1):
        report = check_law(
            augmentation_homomorphism(ctx1), sampler=element_sampler(ctx1),
            samples=100, seed=0, structure=ctx1.name,
        )
        assert report.holds

    def test_corrupted_augmentation_fails(self, ctx1):
        wrapped = controls.CorruptedAugmentation(ctx1)
        report = check_law(
            augmentation_homomorphism(wrapped), sampler=element_sampler(wrapped),
            samples=100, seed=0, structure=wrapped.name,
        )
        assert not report.holds

    def test_sampler_is_deterministic(self, ctx1):
        import random

        draws1 = [element_sampler(ctx1)(random.Random(9)) for _ in range(3)]
        draws2 = [element_sampler(ctx1)(random.Random(9)) for _ in range(3)]
        assert draws1 == draws2


class TestReportSerialization:
    def test_text_and_json(self, adiag3):
        report = check_law(
            quer_law(adiag3.mul, 3),
            universe=[(g, adiag3.quer(g)) for g in adiag3.elements()],
            structure=adiag3.name,
        )
        text = report.to_text()
        assert "axiom=quer-law" in text and "status=holds" in text
        payload = json.loads(report.to_json())
        assert payload["cases"] == 9
        assert payload["counterexample"] is None

    def test_failure_payload_carries_counterexample(self):
        report = check_law(
            associativity(controls.skew_ternary, 3), sampler=int_sampler,
            samples=50, seed=2, structure="skew",
        )
        payload = json.loads(report.to_json())
        assert payload["status"] == "fails"
        assert payload["counterexample"]["word"]
        assert payload["seed"] == 2
