"""Deliberately corrupted structures: negative controls that the
verification engine is required to catch."""

from __future__ import annotations


def skew_ternary(word):
    """Non-associative 3-ary operation on integers: (a, b, c) -> a - b + 2c."""
    a, b, c = word
    return a - b + 2 * c


def skew_adiag3(word):
    """Non-associative 3-ary operation on the adiag(C3) keys: the adiag
    product with the middle operand's exponents unswapped and the third's
    swapped, ((m1 + m2 + n3) % 3, (n1 + m2 + m3) % 3)."""
    (m1, n1), (m2, _), (m3, n3) = word
    return ((m1 + m2 + n3) % 3, (n1 + m2 + m3) % 3)


class OneWrongProduct:
    """A group's product with one table entry replaced: associativity then
    fails only on the words whose evaluation reaches that entry."""

    def __init__(self, group, word, value):
        self.group, self.word, self.value = group, tuple(word), value

    def mul(self, word):
        return self.value if tuple(word) == self.word else self.group.mul(word)


class AbsCoefficientMul:
    """Group-ring product that drops the sign of every contribution:
    breaks distributivity over signed coefficients."""

    def __init__(self, ctx):
        self.ctx = ctx

    def mul(self, operands):
        buckets: dict = {}
        for c, g in self.ctx.mul_terms(operands):
            buckets.setdefault(g, []).append(abs(c))
        return self.ctx.element([(g, sum(cs)) for g, cs in buckets.items()])


class SkewAdd:
    """Group-ring addition that negates every operand after the first:
    breaks commutativity (and neutrality of the true zero stays intact,
    so the failure is attributable to the operand order)."""

    def __init__(self, ctx):
        self.ctx = ctx

    def _neg(self, x):
        return self.ctx.element([(g, -c) for g, c in x.terms])

    def add(self, operands):
        first, *rest = operands
        return self.ctx.add([first, *map(self._neg, rest)])


def fake_zero(ctx):
    """A nonzero monomial masquerading as the zero element."""
    first = ctx.group.elements()[0]
    return ctx.element({first: 1})


class CorruptedAugmentation:
    """Context wrapper whose coefficient total is off by one: breaks the
    homomorphism property on the additive side."""

    def __init__(self, ctx):
        self._ctx = ctx

    def __getattr__(self, item):
        return getattr(self._ctx, item)

    def augmentation(self, x):
        return self._ctx.ring.add((self._ctx.augmentation(x), 1))
