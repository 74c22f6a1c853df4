"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line and enforcing its runtime bound.

Where the recorded worked values disagree with the brute-force matrix
model, the matrix model is authoritative and the divergence is printed as
a reconciliation note, never hidden.  Run with `pytest -s` to see the
per-criterion lines.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import permutations, product

import pytest

import controls
import matrix_oracle as oracle
from pgr import (
    AdiagGroup,
    DerivedCyclicGroup,
    JRootRing,
    NaryGroup,
    QuantizationMismatch,
    iterate_op,
    make_group_ring,
    validate_profile,
)
from pgr.cli import main
from pgr.dsl import parse_to_element
from pgr.verify import (
    associativity,
    augmentation_homomorphism,
    check_law,
    commutativity,
    distributivity,
    element_sampler,
    zero_law,
)


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} [{description}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} finished correct but took {elapsed:.2f}s "
        f"(limit {limit_seconds}s)"
    )
    print(f"criterion {number} [{description}]: PASS ({elapsed:.3f}s)")


@pytest.fixture(scope="module")
def ctx():
    return make_group_ring(JRootRing(2), AdiagGroup(3))


@pytest.fixture(scope="module")
def worked(ctx):
    r1 = ctx.element({(1, 1): 5})
    r2 = ctx.element({(0, 2): 2, (1, 2): -7})
    r3 = ctx.element({(1, 0): -4, (2, 0): 7, (2, 1): -3})
    return r1, r2, r3


# The recorded worked expansion: coefficients and group keys term by term,
# plus the gathered total, exactly as recorded in the reference computation.
WORKED_COEFFS = [40, -70, 30, -140, 245, -105]
WORKED_KEYS = [(1, 1), (2, 1), (2, 2), (2, 2), (2, 2), (2, 0)]
WORKED_TOTAL = {(2, 0): -105, (1, 1): 40, (2, 1): -70, (2, 2): 135}


def test_criterion_1_worked_pipeline(ctx, worked):
    with criterion(1, "worked product expansion", 1.0):
        r1, r2, r3 = worked
        terms = ctx.mul_terms([r1, r2, r3])
        assert len(terms) == 6

        assert sorted(c for c, _ in terms) == sorted(WORKED_COEFFS)
        assert [c for c, _ in terms] == WORKED_COEFFS  # same expansion order

        combos = list(product(r1.support(), r2.support(), r3.support()))
        for (coeff, got), combo in zip(terms, combos):
            assert got == oracle.product_key(3, *combo)

        mismatches = []
        for i, ((coeff, got), recorded) in enumerate(zip(terms, WORKED_KEYS)):
            if got != recorded:
                mismatches.append(i)
                print(
                    f"  reconciliation: term {i + 1} "
                    f"(coefficient {ctx.ring.format_scalar(coeff)}): computed "
                    f"key {ctx.group.label(got)} "
                    f"[g{ctx.group.position(got) + 1}], recorded worked value "
                    f"{ctx.group.label(recorded)} "
                    f"[g{ctx.group.position(recorded) + 1}]"
                )
        assert mismatches == [3]
        assert terms[3] == (-140, (1, 2))  # computed g8 where g9 was recorded


def test_criterion_2_augmentation_values(ctx, worked):
    with criterion(2, "augmentation values and kernel membership", 1.0):
        r1, r2, r3 = worked
        assert ctx.augmentation(r1) == 5
        assert ctx.augmentation(r2) == -5
        assert ctx.augmentation(r3) == 0

        computed_total = ctx.mul([r1, r2, r3])
        recorded_total = ctx.element(WORKED_TOTAL)
        assert ctx.augmentation(computed_total) == 0
        assert ctx.augmentation(recorded_total) == 0
        assert ctx.in_augmentation_ideal(r3)
        assert ctx.in_augmentation_ideal(computed_total)
        assert ctx.in_augmentation_ideal(recorded_total)
        assert not ctx.in_augmentation_ideal(r1)


def test_criterion_3_adiag_structure_facts(ctx):
    with criterion(3, "adiag(C3) structure facts", 5.0):
        group = ctx.group

        assert set(group.identities()) == {(t, (3 - t) % 3) for t in range(3)}
        assert len(group.identities()) == 3

        for g in group.elements():
            closed_form = group.quer(g)
            assert closed_form == NaryGroup.quer(group, g)  # exhaustive search
            for p in range(3):
                word = [g, g]
                word.insert(p, closed_form)
                assert group.mul(word) == g

        for g in group.elements():
            assert group.idempotent(g, 3)

        for x, y in product(group.elements(), repeat=2):
            assert not oracle.is_antidiagonal(oracle.binary_product_matrix(3, x, y))


def test_criterion_4_exhaustive_ternary_associativity(ctx):
    with criterion(4, "total associativity over 59049 words", 30.0):
        group = ctx.group
        report = check_law(
            associativity(group.mul, 3), universe=group.elements(),
            structure=group.name,
        )
        assert report.holds
        assert report.mode == "exhaustive"
        assert report.cases == 59049


def test_criterion_5_arity_quantization():
    with criterion(5, "arity quantization", 1.0):
        p1 = validate_profile(2, 3, 3, 1, 1, 1)
        assert (p1.gr_add_arity, p1.gr_mul_arity) == (2, 3)
        p2 = validate_profile(2, 5, 3, 1, 1, 2)
        assert (p2.gr_add_arity, p2.gr_mul_arity) == (2, 5)

        mismatching = [
            (2, 3, 4, 1, 1, 1),
            (2, 3, 3, 1, 1, 2),
            (2, 3, 3, 1, 2, 1),
            (2, 5, 3, 1, 1, 1),
            (2, 5, 3, 1, 1, 3),
            (2, 5, 5, 1, 1, 2),
            (2, 2, 3, 1, 1, 1),
            (2, 4, 3, 1, 1, 1),
            (2, 3, 2, 1, 1, 1),
            (3, 3, 3, 2, 1, 2),
            (2, 6, 4, 1, 2, 3),
            (2, 3, 3, 5, 3, 2),
        ]
        assert len(mismatching) >= 10
        for profile in mismatching:
            with pytest.raises(QuantizationMismatch):
                validate_profile(*profile)


def test_criterion_6_higher_power_bracketing(ctx):
    with criterion(6, "5-operand product vs nested ternary", 10.0):
        ctx5 = make_group_ring(ctx.ring, ctx.group, ell_m=1, ell_n=2, ell_g=2)
        assert ctx5.profile.gr_mul_arity == 5
        rng = random.Random(2026)
        keys = ctx.group.elements()
        for _ in range(200):
            ops = []
            for _ in range(5):
                support = rng.sample(keys, rng.randint(1, 2))
                ops.append(
                    ctx.element({g: rng.randint(-50, 50) for g in support})
                )
            nested = ctx.mul([ctx.mul(ops[:3]), ops[3], ops[4]])
            assert ctx5.mul(ops) == nested


def revalidate_distributivity(add, mul, m, ce):
    xs, ys = ce.word[:m], ce.word[m:]
    slot = int(ce.detail.rsplit(" ", 1)[1])
    lhs = mul((*ys[:slot], add(xs), *ys[slot:]))
    rhs = add(tuple(mul((*ys[:slot], x, *ys[slot:])) for x in xs))
    return lhs == ce.lhs and rhs == ce.rhs and lhs != rhs


def revalidate_commutativity(op, ce):
    return len({op(p) for p in permutations(ce.word)}) > 1


def revalidate_zero_law(add, mul, zero, m, ce):
    slot = int(ce.detail.rsplit(" ", 1)[1])
    if "neutrality" in ce.detail:
        r = ce.word[0]
        return add((*(zero,) * slot, r, *(zero,) * (m - 1 - slot))) != r
    return mul((*ce.word[:slot], zero, *ce.word[slot:])) != zero


def revalidate_augmentation(wrapped, ce):
    p = wrapped.profile
    xs = list(ce.word)
    if ce.detail == "additive side":
        lhs = wrapped.augmentation(wrapped.add(xs))
        rhs = iterate_op(
            wrapped.ring.add, p.m_r, p.ell_m,
            [wrapped.augmentation(x) for x in xs],
        )
    else:
        lhs = wrapped.augmentation(wrapped.mul(xs))
        rhs = iterate_op(
            wrapped.ring.mul, p.n_r, p.ell_n,
            [wrapped.augmentation(x) for x in xs],
        )
    return lhs == ce.lhs and rhs == ce.rhs and lhs != rhs


def test_criterion_7_lifted_ring_laws(ctx):
    with criterion(7, "lifted laws, 500 samples each, plus negative controls", 30.0):
        sampler = element_sampler(ctx, max_support=3)
        p = ctx.profile
        add_n, mul_n = p.gr_add_arity, p.gr_mul_arity

        assert check_law(
            distributivity(ctx.add, ctx.mul, add_n, mul_n), sampler=sampler,
            samples=500, seed=70, structure=ctx.name,
        ).holds
        assert check_law(
            commutativity(ctx.add, add_n, "additive-commutativity"),
            sampler=sampler, samples=500, seed=71, structure=ctx.name,
        ).holds
        assert check_law(
            associativity(ctx.add, add_n), sampler=sampler, samples=500,
            seed=72, structure=ctx.name,
        ).holds
        assert check_law(
            zero_law(ctx.add, ctx.mul, ctx.zero(), add_n, mul_n),
            sampler=sampler, samples=500, seed=73, structure=ctx.name,
        ).holds
        assert check_law(
            augmentation_homomorphism(ctx), sampler=sampler, samples=500,
            seed=74, structure=ctx.name,
        ).holds

        # negative controls: each corruption must be caught, and its
        # counterexample must reproduce the inequality when re-evaluated
        bad_mul = controls.AbsCoefficientMul(ctx)
        report = check_law(
            distributivity(ctx.add, bad_mul.mul, add_n, mul_n),
            sampler=sampler, samples=500, seed=75, structure="corrupted-mul",
        )
        assert not report.holds
        assert revalidate_distributivity(
            ctx.add, bad_mul.mul, add_n, report.counterexample
        )

        bad_add = controls.SkewAdd(ctx)
        report = check_law(
            commutativity(bad_add.add, add_n, "additive-commutativity"),
            sampler=sampler, samples=500, seed=76, structure="corrupted-add",
        )
        assert not report.holds
        assert revalidate_commutativity(bad_add.add, report.counterexample)

        report = check_law(
            zero_law(ctx.add, ctx.mul, controls.fake_zero(ctx), add_n, mul_n),
            sampler=sampler, samples=500, seed=77, structure="corrupted-zero",
        )
        assert not report.holds
        assert revalidate_zero_law(
            ctx.add, ctx.mul, controls.fake_zero(ctx), add_n,
            report.counterexample,
        )

        wrapped = controls.CorruptedAugmentation(ctx)
        report = check_law(
            augmentation_homomorphism(wrapped), sampler=sampler, samples=500,
            seed=78, structure=wrapped.name,
        )
        assert not report.holds
        assert revalidate_augmentation(wrapped, report.counterexample)


def test_criterion_8_cardinality():
    with criterion(8, "2**3 elements over jZ mod 2 x derived ternary C3", 1.0):
        small = make_group_ring(JRootRing(2, 2), DerivedCyclicGroup(3, 3))
        elems = small.elements()
        assert len(elems) == 8
        assert len(set(elems)) == 8


def test_criterion_9_cli_and_parser(ctx, worked, capsys):
    with criterion(9, "CLI pipeline, round-trip and exit codes", 5.0):
        # legacy-form elements multiply to the criterion-1 output
        status = main(
            ["mul", "5j*g5 ; 2j*g7 + -7j*g8 ; -4j*g2 + 7j*g3 + -3j*g6"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert out == (
            "-105j*g(2,0) + 40j*g(1,1) + -70j*g(2,1) + -140j*g(1,2) "
            "+ 275j*g(2,2)\n"
        )
        assert parse_to_element(ctx, out.strip()) == ctx.mul(list(worked))

        rng = random.Random(90)
        keys = ctx.group.elements()
        for _ in range(500):
            support = rng.sample(keys, rng.randint(0, 5))
            x = ctx.element({g: rng.randint(-500, 500) for g in support})
            assert parse_to_element(ctx, ctx.render(x)) == x

        assert main(["eval", "5j*g5"]) == 0
        assert main(["eval", "5x*g5"]) == 1
        assert main(["eval", "5j*g(3,0)"]) == 1
        assert main(["mul", "5j*g5 ; 1j*g1"]) == 2
        assert main(["arity", "--ell-g", "3"]) == 2
        assert main(
            ["verify", "nonderived", "--group", "derived", "--base",
             "cyclic:3", "--arity", "3"]
        ) == 3
        assert main(["verify", "nonderived"]) == 0
        capsys.readouterr()
