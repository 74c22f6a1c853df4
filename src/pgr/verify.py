"""Axiom-certification engine.

A law is a name, a word width and a test that returns the violation a
word shows, or None.  Constructors build the laws (associativity,
commutativity, distributivity, zero_law, identity_law, quer_law,
augmentation_homomorphism) and one runner, check_law, checks any of them:
it enumerates the words exhaustively over a finite carrier (within a case
budget) or samples them from a seeded generator, and returns a
machine-readable report.  check_closure_nonderived is the one aggregate
check: it asks whether every binary product stays inside the carrier (the
nonderived target takes them from the group's binary cover), and refuses
a carrier of more than EXHAUSTIVE_BUDGET pairs before the first one.  A
failing report always carries the offending word together with the two
unequal evaluations, so it can be re-checked independently.

Exhaustive associativity does not call the operation twice per placement
on every word: its scan tabulates the operation once (u**n calls over a
universe of u elements) and compares the placements as lists of table
indices, and only the first failing word is then run through the law's
test, so the report is the one a word-by-word run gives.  When the
operation raises while it is tabulated, returns a value outside the
universe, or the universe is not hashable, check_law tests the words one
by one instead.

TARGETS names the checks the CLI runs on a context, and target_reports
runs one of them, or all of them in table order; when the nonderived
target would be over its budget, "all" is refused before any target runs.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import chain, permutations, product

from .arity import word_function
from .errors import BudgetExceeded, DomainError
from .groupring import GroupRing
from .groups import NaryGroup
from .rings import PolyadicRing

EXHAUSTIVE_BUDGET = 10**6  # evaluated words per check
DEFAULT_SAMPLES = 1000


@dataclass(frozen=True)
class Counterexample:
    word: tuple
    lhs: object
    rhs: object
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    structure: str
    axiom: str
    mode: str  # "exhaustive" | "sampled"
    cases: int
    status: str  # "holds" | "fails"
    seed: int | None = None
    note: str | None = None
    counterexample: Counterexample | None = field(default=None)

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def to_text(self) -> str:
        parts = [
            f"structure={self.structure}",
            f"axiom={self.axiom}",
            f"mode={self.mode}",
        ]
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        parts.append(f"cases={self.cases}")
        parts.append(f"status={self.status}")
        if self.note:
            parts.append(f"note={self.note!r}")
        if self.counterexample is not None:
            ce = self.counterexample
            parts.append(
                f"counterexample(word={ce.word!r}, lhs={ce.lhs!r}, "
                f"rhs={ce.rhs!r}, detail={ce.detail!r})"
            )
        return " ".join(parts)

    def to_dict(self) -> dict:
        """The report's fields, keys in sorted order at every level, as
        the CLI's JSON prints them."""
        return {
            "axiom": self.axiom,
            "cases": self.cases,
            "counterexample": None
            if self.counterexample is None
            else {
                "detail": self.counterexample.detail,
                "lhs": repr(self.counterexample.lhs),
                "rhs": repr(self.counterexample.rhs),
                "word": [repr(w) for w in self.counterexample.word],
            },
            "mode": self.mode,
            "note": self.note,
            "seed": self.seed,
            "status": self.status,
            "structure": self.structure,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class Law:
    """One law over words of `width` operands: `test` returns the first
    violation a word shows, or None when the word satisfies the law.

    `scan`, when a law has one, checks every word over a finite universe
    at once: it returns the product-order index of the first failing word,
    None when every word passes, or NotImplemented when it cannot run on
    that universe, and check_law then tests the words one by one."""

    name: str
    width: int
    test: Callable[[tuple], Counterexample | None]
    scan: Callable[[list], int | None] | None = None


def associativity(op: Callable[[Sequence], object], n: int) -> Law:
    """All n placements of an inner product inside a word of length 2n-1
    must agree."""

    def test(word):
        first = None
        for p in range(n):
            inner = op(word[p : p + n])
            value = op((*word[:p], inner, *word[p + n :]))
            if p == 0:
                first = value
            elif value != first:
                return Counterexample(
                    tuple(word), first, value,
                    f"inner product at position 0 vs position {p}",
                )
        return None

    def scan(universe):
        # table[i] is the universe index of op on the i-th n-word in product
        # order; it is only valid when op stays inside a hashable universe
        u = len(universe)
        try:
            index: dict = {}
            for i, x in enumerate(universe):
                index.setdefault(x, i)
            table = [index[op(w)] for w in product(universe, repeat=n)]
        except Exception:
            # the word-by-word run then raises the same exception, or stops
            # at a failing word before it reaches the input that raises
            return NotImplemented
        k = u ** (n - 1)

        def blocks(base, size):
            # the u runs of `size` table entries that follow a fixed prefix
            return [table[base + t * size : base + t * size + size] for t in range(u)]

        head = blocks(0, k)
        for x in range(u):
            # each list holds the values of the words (x, a_1, ..., a_2n-2)
            # in product order, with the inner product at one placement p;
            # the first failing word is the earliest difference over all p
            first = [v for t in table[x * k : x * k + k] for v in head[t]]
            diff = len(first)
            for p in range(1, n):
                size = u ** (n - 1 - p)
                values = [
                    v
                    for pre in range(u ** (p - 1))
                    for runs in (blocks(x * k + pre * u * size, size),)
                    for t in table
                    for v in runs[t]
                ]
                if values != first:
                    diff = min(diff, next(
                        i for i, (a, b) in enumerate(zip(first, values)) if a != b
                    ))
            if diff < len(first):
                return x * len(first) + diff
        return None

    return Law("total-associativity", 2 * n - 1, test, scan)


def commutativity(
    op: Callable[[Sequence], object], n: int, name: str = "commutativity"
) -> Law:
    """The operation is invariant under every permutation of its operands."""

    def test(word):
        base = op(word)
        for perm in permutations(word):
            if op(perm) != base:
                return Counterexample(
                    tuple(word), base, op(perm), f"permutation {perm!r}"
                )
        return None

    return Law(name, n, test)


def distributivity(
    add: Callable[[Sequence], object],
    mul: Callable[[Sequence], object],
    m: int,
    n: int,
) -> Law:
    """An m-ary sum placed in any of the n multiplication slots expands to
    the sum of the slot-wise products."""

    def test(word):
        xs, ys = word[:m], word[m:]
        total = add(xs)
        for p in range(n):
            lhs = mul((*ys[:p], total, *ys[p:]))
            rhs = add(tuple(mul((*ys[:p], x, *ys[p:])) for x in xs))
            if lhs != rhs:
                return Counterexample(
                    tuple(word), lhs, rhs, f"sum in multiplication slot {p}"
                )
        return None

    return Law("distributivity", m + n - 1, test)


def zero_law(
    add: Callable[[Sequence], object],
    mul: Callable[[Sequence], object],
    zero,
    m: int,
    n: int,
) -> Law:
    """Additive neutrality and multiplicative absorption of the zero, with
    the probe and the zero in every admissible position."""

    def test(word):
        r = word[0]
        for p in range(m):
            got = add((*(zero,) * p, r, *(zero,) * (m - 1 - p)))
            if got != r:
                return Counterexample(
                    (r,), got, r, f"additive neutrality, probe slot {p}"
                )
        fill = word[: n - 1]
        for p in range(n):
            got = mul((*fill[:p], zero, *fill[p:]))
            if got != zero:
                return Counterexample(
                    tuple(fill), got, zero, f"absorption, zero slot {p}"
                )
        return None

    return Law("zero-law", max(n - 1, 1), test)


def identity_law(op: Callable[[Sequence], object], n: int, e) -> Law:
    """Neutrality of the constant polyad of e, probed from both ends."""
    pad = (e,) * (n - 1)

    def test(word):
        (x,) = word
        lead = op((x, *pad))
        trail = op((*pad, x))
        if lead != x:
            return Counterexample((x,), lead, x, "leading probe")
        if trail != x:
            return Counterexample((x,), trail, x, "trailing probe")
        return None

    return Law("identity-law", 1, test)


def quer_law(op: Callable[[Sequence], object], n: int) -> Law:
    """Each (x, x̄) pair satisfies op(x̄, x, ..., x) = x with x̄ in every
    position; the words are single pairs, so the universe is the pairs."""

    def test(word):
        ((x, q),) = word
        rest = (x,) * (n - 1)
        for p in range(n):
            got = op((*rest[:p], q, *rest[p:]))
            if got != x:
                return Counterexample((x, q), got, x, f"querelement in slot {p}")
        return None

    return Law("quer-law", 1, test)


def check_law(
    law: Law,
    *,
    universe: Sequence | None = None,
    sampler: Callable[[random.Random], object] | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    budget: int = EXHAUSTIVE_BUDGET,
    structure: str = "",
) -> AxiomReport:
    """Run `law` over words of its width and report the first violation.

    Words come from `universe` or, without one, from `sampler`.  A
    universe whose words fit the budget is exhausted; a larger one is
    sampled with an explicit note.  Sampled words are drawn operand by
    operand from Random(seed)."""
    mode, count, note = "sampled", samples, None
    if universe is not None:
        universe = list(universe)
        total = len(universe) ** law.width
        if total <= budget:
            mode, count, seed = "exhaustive", total, None
            words = product(universe, repeat=law.width)
            first = NotImplemented if law.scan is None else law.scan(universe)
            if first is None:
                words = ()
            elif first is not NotImplemented:
                # the scan's word first; should its test pass after all,
                # the full word loop follows
                words = chain((_word_at(universe, law.width, first),), words)
        else:
            note = f"universe of {total} cases over budget; sampled"

            def sampler(rng):
                return rng.choice(universe)

    elif sampler is None:
        raise DomainError("need a universe or a sampler")
    if mode == "sampled":
        rng = random.Random(seed)
        words = (
            tuple(sampler(rng) for _ in range(law.width)) for _ in range(samples)
        )
    for word in words:
        ce = law.test(word)
        if ce is not None:
            return AxiomReport(
                structure, law.name, mode, count, "fails", seed, note, ce
            )
    return AxiomReport(structure, law.name, mode, count, "holds", seed, note)


def _word_at(universe: list, width: int, index: int) -> tuple:
    """The word at `index` in the product order of `width` operands."""
    word = []
    for _ in range(width):
        index, digit = divmod(index, len(universe))
        word.append(universe[digit])
    return tuple(reversed(word))


def check_closure_nonderived(
    binary_op: Callable[[object, object], object],
    universe: Sequence,
    contains: Callable[[object], bool],
    *,
    structure: str = "",
) -> AxiomReport:
    """Evidence that the n-ary product is not an iterated binary one: the
    would-be binary products must leave the carrier.  Fails (with the
    witness pair) when every binary product stays inside, i.e. the
    operation is derived.  Over EXHAUSTIVE_BUDGET pairs, BudgetExceeded
    names the pair count before the first product."""
    universe = list(universe)
    if not universe:
        raise DomainError("nonderivedness needs a nonempty carrier")
    total = len(universe) ** 2
    _pair_budget(total)
    stayed: tuple | None = None
    left = 0
    for x, y in product(universe, repeat=2):
        p = binary_op(x, y)
        if contains(p):
            if stayed is None:
                stayed = (x, y, p)
        else:
            left += 1
    note = f"{left} of {total} binary products leave the carrier"
    if left == 0:
        x, y, p = stayed
        return AxiomReport(
            structure, "nonderived-closure", "exhaustive", total, "fails",
            None, note,
            Counterexample((x, y), p, None, "binary product stays inside"),
        )
    return AxiomReport(
        structure, "nonderived-closure", "exhaustive", total, "holds", None, note
    )


def _pair_budget(total: int) -> None:
    """BudgetExceeded when a nonderivedness check of total binary products
    is over EXHAUSTIVE_BUDGET."""
    if total > EXHAUSTIVE_BUDGET:
        raise BudgetExceeded(
            f"{total} binary products exceed the exhaustive budget "
            f"{EXHAUSTIVE_BUDGET}"
        )


def _nonderived(group: NaryGroup) -> AxiomReport:
    """check_closure_nonderived on the binary products of the group's
    cover: the ambient product of two embedded carrier elements."""
    cover = group.cover()
    return check_closure_nonderived(
        lambda x, y: cover.mul(cover.embed(x), cover.embed(y)),
        group.elements(), cover.in_carrier, structure=group.name,
    )


# group-ring level checks ----------------------------------------------------


def element_sampler(ctx: GroupRing, max_support: int = 3):
    """Random canonical elements with bounded support, coefficients drawn by
    the ring's own sampler.  Deterministic for a fixed Random instance.

    Supports are mostly nonempty: an all-uniform size would make almost
    every multi-operand word contain the zero element and collapse the
    sampled law checks into the absorption case.  The zero still appears
    in about one draw out of ten."""
    keys = ctx.group.elements()

    def sample(rng: random.Random):
        if rng.random() < 0.1:
            return ctx.element({})
        support = rng.sample(keys, rng.randint(1, min(max_support, len(keys))))
        return ctx.element({g: ctx.ring.sample(rng) for g in support})

    return sample


def augmentation_homomorphism(ctx: GroupRing) -> Law:
    """The coefficient-total map preserves both operations at unchanged
    arities: aug(add(xs)) equals the iterated ring sum of the totals, and
    aug(mul(ys)) the iterated ring product of the totals.  A word is the
    summands xs followed by the factors ys.  The ring-side words are
    composed by word functions validated once, when the law is built."""
    p = ctx.profile
    ring_sum = word_function(ctx.ring.add, p.m_r, p.ell_m)
    ring_product = word_function(ctx.ring.mul, p.n_r, p.ell_n)

    def test(word):
        xs, ys = word[: p.gr_add_arity], word[p.gr_add_arity :]
        lhs = ctx.augmentation(ctx.add(xs))
        rhs = ring_sum(tuple([ctx.augmentation(x) for x in xs]))
        if lhs != rhs:
            return Counterexample(tuple(xs), lhs, rhs, "additive side")
        lhs = ctx.augmentation(ctx.mul(ys))
        rhs = ring_product(tuple([ctx.augmentation(y) for y in ys]))
        if lhs != rhs:
            return Counterexample(tuple(ys), lhs, rhs, "multiplicative side")
        return None

    return Law("augmentation-homomorphism", p.gr_add_arity + p.gr_mul_arity, test)


# the verify targets ------------------------------------------------------------

GR_SAMPLES = 500  # sampled cases for lifted group-ring laws


def _on_ring(law: Callable[[PolyadicRing], Law]):
    """A scalar-ring law, exhausted over a finite ring and sampled over an
    infinite one."""

    def run(ctx: GroupRing, seed: int) -> list[AxiomReport]:
        ring = ctx.ring
        cases = (
            {"universe": ring.elements()} if ring.is_finite
            else {"sampler": ring.sample}
        )
        return [check_law(law(ring), **cases, seed=seed, structure=ring.name)]

    return run


def _identity_reports(ctx: GroupRing, seed: int) -> list[AxiomReport]:
    group = ctx.group
    found = group.identities()
    if not found:
        return [
            AxiomReport(
                group.name, "identity-law", "exhaustive", 0, "holds",
                note="no identity candidates",
            )
        ]
    return [
        check_law(
            identity_law(group.mul, group.arity, e), universe=group.elements(),
            seed=seed, structure=group.name,
        )
        for e in found
    ]


def _lifted(law: Callable[[GroupRing], Law], max_support: int = 2):
    """A group-ring law sampled over elements with bounded support."""

    def run(ctx: GroupRing, seed: int) -> list[AxiomReport]:
        return [
            check_law(
                law(ctx), sampler=element_sampler(ctx, max_support),
                samples=GR_SAMPLES, seed=seed, structure=ctx.name,
            )
        ]

    return run


# name -> (ctx, seed) -> reports, in the order `all` runs them
TARGETS: dict[str, Callable[[GroupRing, int], list[AxiomReport]]] = {
    "assoc": lambda ctx, seed: [
        check_law(
            associativity(ctx.group.mul, ctx.group.arity),
            universe=ctx.group.elements(), seed=seed, structure=ctx.group.name,
        )
    ],
    "ring-assoc": _on_ring(lambda r: associativity(r.mul, r.n_r)),
    "distrib": _on_ring(lambda r: distributivity(r.add, r.mul, r.m_r, r.n_r)),
    "comm": _on_ring(
        lambda r: commutativity(r.add, r.m_r, "additive-commutativity")
    ),
    "zero": _on_ring(lambda r: zero_law(r.add, r.mul, r.zero(), r.m_r, r.n_r)),
    "identity": _identity_reports,
    "quer": lambda ctx, seed: [
        check_law(
            quer_law(ctx.group.mul, ctx.group.arity),
            universe=[(g, ctx.group.quer(g)) for g in ctx.group.elements()],
            seed=seed, structure=ctx.group.name,
        )
    ],
    "nonderived": lambda ctx, seed: [_nonderived(ctx.group)],
    "gr-assoc": _lifted(
        lambda ctx: associativity(ctx.mul, ctx.profile.gr_mul_arity)
    ),
    "gr-distrib": _lifted(
        lambda ctx: distributivity(
            ctx.add, ctx.mul, ctx.profile.gr_add_arity, ctx.profile.gr_mul_arity
        )
    ),
    "gr-zero": _lifted(
        lambda ctx: zero_law(
            ctx.add, ctx.mul, ctx.zero(), ctx.profile.gr_add_arity,
            ctx.profile.gr_mul_arity,
        )
    ),
    "aug-hom": _lifted(augmentation_homomorphism, max_support=3),
}


def target_reports(ctx: GroupRing, target: str, seed: int = 0) -> list[AxiomReport]:
    """Run one named target of TARGETS, or every target in table order for
    "all".  "all" is refused before any target runs when the nonderived
    target would be over its budget, with that target's BudgetExceeded."""
    if target == "all":
        _pair_budget(ctx.group.size() ** 2)
        return [r for run in TARGETS.values() for r in run(ctx, seed)]
    if target not in TARGETS:
        raise DomainError(
            f"unknown verify target {target!r}; one of "
            f"{', '.join((*TARGETS, 'all'))}"
        )
    return TARGETS[target](ctx, seed)
