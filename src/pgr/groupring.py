"""The polyadic group ring: finite formal sums of group elements with ring
coefficients.

Addition acts coefficient-wise with the iterated ring addition; the
product runs over the Cartesian product of the operand supports, feeding
the iterated ring multiplication on the coefficient side and the iterated
group product on the basis side, then gathers contributions that land on
the same group element.

A context validates its arity profile once, when it is built, and keeps
the word functions (arity.word_function) that compose the iterated
operations; no per-call arity bookkeeping remains in the product.  How an
operation gathers depends on the ring's declared linearity
(PolyadicRing.coordinate_modulus):

- over a linear ring (coordinates in Z or Z_N) R[G] is a free module on
  the group, and every operation ends in one integer-coordinate gather:
  element, add and augmentation add plain ints per key, and a ring word
  of any length is its value on ones times the product of its
  coordinates.  The product runs as ell_g stages of the n_g-ary group
  product without calling the group: the group's binary cover
  (groups.BinaryCover) gives each key an integer code per slot parity,
  a stage word's key is the sum of its letters' codes, and each stage
  keeps one running integer sum per distinct code sum, decoded once.
  The gather (_reduced) reduces each coordinate mod N once, drops zeros
  and orders the keys by group.position; no ring addition or
  multiplication is called, whatever m_r and n_r are;
- any other ring (an adjoined zero, a zeroless semigroup) keeps every
  contribution and folds each key's bag with the ring addition
  (_accumulate), zero-padding it to an admissible length.

mul_terms is the plain expansion, kept as the reference for both.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import product
from math import prod

from .arity import iterate_op, left_fold, validate_profile, word_function
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    DomainError,
    NoZero,
)
from .groups import NaryGroup
from .linsolve import solve
from .rings import PolyadicRing

MUL_BUDGET = 10**7  # default cap on support-product combinations
ENUMERATE_BUDGET = 10**6


def _stage(codes: Sequence[tuple], coeffs: Sequence[tuple]) -> dict:
    """One n_g-ary group product over a linear ring, from each slot's
    codes and coefficients: a running integer sum of coefficient products
    per code sum, one per support combination."""
    sums: dict = {}
    get = sums.get
    for s, c in zip(map(sum, product(*codes)), map(prod, product(*coeffs))):
        sums[s] = get(s, 0) + c
    return sums


def _merged(pairs: Iterable[tuple]) -> dict:
    """The integers paired with each key, added up per key."""
    sums: dict = {}
    get = sums.get
    for g, c in pairs:
        sums[g] = get(g, 0) + c
    return sums


class GroupRingElement:
    """A formal sum in canonical form: group-key-sorted terms, no zero
    coefficients.  Construct through GroupRing.element / monomial / zero."""

    __slots__ = ("terms", "_cover", "_keys", "_coeffs", "_codes")

    def __init__(self, terms: tuple):
        self.terms = terms
        # the columns GroupRing.mul reads, kept from its first use on: the
        # terms never change, so an operand is transposed once and coded
        # once per slot parity for the context's cover
        self._cover = None

    def support(self) -> tuple:
        return tuple(g for g, _ in self.terms)

    def coefficients(self) -> tuple:
        return tuple(c for _, c in self.terms)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"GroupRingElement({self.terms!r})"


class GroupRing:
    """Context tying together a ring, a group and the polyadic powers
    ell_m, ell_n, ell_g.  The constructor derives the arity profile from
    the ring's and group's arities (validate_profile, which raises
    QuantizationMismatch for incompatible combinations); it is the one
    place a profile is checked."""

    def __init__(
        self,
        ring: PolyadicRing,
        group: NaryGroup,
        ell_m: int = 1,
        ell_n: int = 1,
        ell_g: int = 1,
        mul_budget: int = MUL_BUDGET,
    ):
        profile = validate_profile(
            ring.m_r, ring.n_r, group.arity, ell_m, ell_n, ell_g
        )
        self.ring = ring
        self.group = group
        self.profile = profile
        self.mul_budget = mul_budget
        self.name = f"{ring.name}[{group.name}]"
        self._sum = left_fold(ring.add, profile.m_r)
        self._ring_word = word_function(ring.mul, profile.n_r, profile.ell_n)
        self._group_word = word_function(group.mul, profile.n_g, profile.ell_g)
        self._modulus = ring.coordinate_modulus
        self._linear = self._modulus is not None
        if self._linear:
            # a linear ring word is its value on ones times c1 * ... * cL
            self._unit = self._ring_word((1,) * profile.gr_mul_arity)
            self._cover = group.cover()
            # the parity of each operand's slot in its stage word: the
            # first n_g fill slots 0..n_g-1, each later block slots 1..n_g-1
            n = profile.n_g
            self._parities = [
                (p if p < n else (p - n) % (n - 1) + 1) % 2
                for p in range(profile.gr_mul_arity)
            ]
        self._moves: list | None = None  # _quer_moves, built on first use

    # construction ----------------------------------------------------------

    def element(self, data: Mapping | Iterable[tuple]) -> GroupRingElement:
        """Normalize raw (group key -> coefficient) data: validate entries
        in input order, gather duplicate keys by ring addition, drop zero
        coefficients and sort by group key."""
        items = data.items() if isinstance(data, Mapping) else data
        contains = self.group.contains
        pairs = []
        for g, c in items:
            if not contains(g):
                raise DomainError(
                    f"{g!r} is not an element of {self.group.name}"
                )
            pairs.append((g, self._scalar(c)))
        if self._linear:
            return self._reduced(_merged(pairs))
        buckets: dict = {}
        for g, c in pairs:
            buckets.setdefault(g, []).append(c)
        return self._canonical(
            [(g, self._accumulate(cs)) for g, cs in buckets.items()]
        )

    def _scalar(self, c):
        """A coefficient or scalar normalized into the ring's carrier;
        DomainError when it falls outside."""
        c = self.ring.normalize(c)
        if not self.ring.contains(c):
            raise DomainError(f"{c!r} is not an element of {self.ring.name}")
        return c

    def monomial(self, coeff, g) -> GroupRingElement:
        return self.element({g: coeff})

    def zero(self) -> GroupRingElement:
        """The unique zero: the empty support (every coefficient is the ring
        zero, and zero coefficients are never stored)."""
        if not self.ring.has_zero:
            raise NoZero(f"{self.ring.name} has no zero element")
        return GroupRingElement(())

    def _reduced(self, sums: dict, scale: int = 1) -> GroupRingElement:
        """The element over a linear ring with coordinate scale * sums[g]
        at each key g: reduced mod N once (PolyadicRing.coordinate_modulus),
        zeros dropped, keys ordered by group.position."""
        n = self._modulus
        terms = []
        for g in sorted(sums, key=self.group.position):
            c = scale * sums[g] % n if n else scale * sums[g]
            if c:
                terms.append((g, c))
        return GroupRingElement(tuple(terms))

    def _canonical(self, pairs: Iterable[tuple]) -> GroupRingElement:
        zero = self.ring.zero() if self.ring.has_zero else None
        kept = [(g, c) for g, c in pairs if not (self.ring.has_zero and c == zero)]
        kept.sort(key=lambda t: self.group.position(t[0]))
        return GroupRingElement(tuple(kept))

    def _accumulate(self, coeffs: Sequence):
        """Fold a bag of coefficient contributions with the m_r-ary ring
        addition, padding with the ring zero up to the next admissible
        word length when the count itself is not composable."""
        t = len(coeffs)
        if t == 1:
            return coeffs[0]
        m = self.ring.m_r
        if t == 0:
            target = 1  # an empty gather is the zero itself
        else:
            over = (t - 1) % (m - 1)
            target = t if over == 0 else t + (m - 1 - over)
        if target != t or t == 0:
            if not self.ring.has_zero:
                raise NoZero(
                    f"gathering {t} contribution(s) needs zero padding, and "
                    f"{self.ring.name} has no zero"
                )
            if t == 0:
                return self.ring.zero()
            coeffs = list(coeffs) + [self.ring.zero()] * (target - t)
        return self._sum(coeffs)

    # ring-like operations ----------------------------------------------------

    def _check_operands(self, operands: Sequence, count: int, what: str) -> None:
        if len(operands) != count:
            raise ArityMismatch(
                f"{self.name} {what} takes {count} elements, got {len(operands)}"
            )
        for x in operands:
            if not isinstance(x, GroupRingElement):
                raise DomainError(f"operand {x!r} is not a group-ring element")

    def _combinations(self, operands: Sequence) -> int:
        """Check a product's operands and return the number of support
        combinations its expansion walks; BudgetExceeded over mul_budget."""
        self._check_operands(
            operands, self.profile.gr_mul_arity, "multiplication"
        )
        combos = 1
        for x in operands:
            combos *= len(x.terms)
        if combos > self.mul_budget:
            raise BudgetExceeded(
                f"product expansion needs {combos} combinations, over the "
                f"budget of {self.mul_budget}"
            )
        return combos

    def add(self, operands: Sequence[GroupRingElement]) -> GroupRingElement:
        """Coefficient-wise iterated ring addition of gr_add_arity operands;
        over a linear ring, the coordinate sum of the operands' terms."""
        self._check_operands(operands, self.profile.gr_add_arity, "addition")
        if self._linear:
            return self._reduced(_merged([t for x in operands for t in x.terms]))
        keys: set = set()
        for x in operands:
            keys.update(x.support())
        supports = [x.as_dict() for x in operands]
        pairs = []
        for g in keys:
            coeffs = []
            for support in supports:
                c = support.get(g)
                if c is None:
                    if not self.ring.has_zero:
                        raise NoZero(
                            f"operand misses {self.group.label(g)} and "
                            f"{self.ring.name} has no zero to fill in"
                        )
                    c = self.ring.zero()
                coeffs.append(c)
            pairs.append((g, self._sum(coeffs)))
        return self._canonical(pairs)

    def mul_terms(self, operands: Sequence[GroupRingElement]) -> list[tuple]:
        """The raw product expansion: one (coefficient, group key) contribution
        per combination of operand terms, in operand-term order, before any
        gathering of equal keys."""
        p = self.profile
        self._combinations(operands)
        out = []
        for combo in product(*(x.terms for x in operands)):
            keys = tuple(g for g, _ in combo)
            coeffs = tuple(c for _, c in combo)
            c = iterate_op(self.ring.mul, p.n_r, p.ell_n, coeffs)
            g = iterate_op(self.group.mul, p.n_g, p.ell_g, keys)
            out.append((c, g))
        return out

    def mul(self, operands: Sequence[GroupRingElement]) -> GroupRingElement:
        """Convolution product of gr_mul_arity operands: expand over the
        support combinations, then gather coefficients at equal keys.

        Equal to gathering mul_terms.  Over a linear ring the ring word is
        the constant _unit (its value on ones) times math.prod of the
        coordinates, and a group word's key is decoded from the sum of its
        letters' kernel codes (groups.BinaryCover.encode, by slot parity),
        so the product runs as ell_g stages of n_g slots with no ring or
        group call.  Each stage adds one coefficient product per support
        combination into a running sum per code sum (_stage) and decodes
        each distinct sum once; the next stage takes the running product,
        gathered per key, in slot 0, and the last ends in one _reduced.
        An operand's columns and codes are kept on it from its first
        product on, so reusing it costs no transposition or encoding.
        An ell_g = 2 product over adiag(C3) walks 2 * 9**3 combinations
        instead of 9**5, for any n_r.  Any other ring gathers each key's
        contributions in expansion order with _accumulate.  BudgetExceeded
        is raised for the same operands as mul_terms.
        """
        combos = self._combinations(operands)
        if not combos:
            return GroupRingElement(())  # a zero operand empties the product
        if not self._linear:
            buckets: dict = {}
            for ks, cs in zip(
                product(*(x.support() for x in operands)),
                product(*(x.coefficients() for x in operands)),
            ):
                buckets.setdefault(self._group_word(ks), []).append(
                    self._ring_word(cs)
                )
            return self._canonical(
                [(g, self._accumulate(cs)) for g, cs in buckets.items()]
            )
        cover = self._cover
        encode, decode = cover.encode, cover.decode
        codes, coeffs = [], []
        for x, parity in zip(operands, self._parities):
            if x._cover is not cover:
                x._cover, x._codes = cover, [None, None]
                x._keys, x._coeffs = zip(*x.terms)
            c = x._codes[parity]
            if c is None:
                c = x._codes[parity] = encode(parity, x._keys)
            codes.append(c)
            coeffs.append(x._coeffs)
        width = self.profile.n_g
        sums = _stage(codes[:width], coeffs[:width])
        for i in range(width, len(operands), width - 1):
            # the running product, gathered per key, takes slot 0
            acc = _merged(zip(encode(0, decode(sums)), sums.values()))
            sums = _stage(
                [tuple(acc), *codes[i : i + width - 1]],
                [tuple(acc.values()), *coeffs[i : i + width - 1]],
            )
        out = _merged(zip(decode(sums), sums.values()))
        return self._reduced(out, self._unit)

    def scalar_action(
        self, scalars: Sequence, x: GroupRingElement
    ) -> GroupRingElement:
        """Act with n_r - 1 ring scalars on every coefficient through one
        ring multiplication; the basis keys are untouched."""
        n = self.ring.n_r
        if len(scalars) != n - 1:
            raise ArityMismatch(
                f"action takes {n - 1} scalar(s), got {len(scalars)}"
            )
        lams = tuple(self._scalar(s) for s in scalars)
        return self._canonical(
            [(g, self.ring.mul((*lams, c))) for g, c in x.terms]
        )

    # distinguished elements ---------------------------------------------------

    def trivial_identities(self) -> list[GroupRingElement]:
        """Monomial identity candidates e_R * e_G built from a ring identity
        and a group identity, kept when genuinely neutral.

        The convolution is linear in each operand over the ring's
        coordinates, so neutrality checked on the unit basis monomials 1*g,
        with the candidate block leading or trailing, holds on every
        element: the answer is exact over Z as well as over Z_N.
        """
        self._coordinate_modulus("trivial identities")
        ring_ids = self.ring.identity_search()
        if not ring_ids:
            return []
        out = []
        for er in sorted(ring_ids):
            for eg in self.group.identities():
                cand = self.element({eg: er})
                if self._is_neutral(cand):
                    out.append(cand)
        return out

    def _coordinate_modulus(self, what: str) -> int:
        modulus = self.ring.coordinate_modulus
        if modulus is None:
            raise DomainError(
                f"{what} need a ring that is linear over Z or Z_N, and "
                f"{self.ring.name} is not"
            )
        return modulus

    def _is_neutral(self, e: GroupRingElement) -> bool:
        pad = [e] * (self.profile.gr_mul_arity - 1)
        for g in self.group.elements():
            x = self.element({g: 1})
            if self.mul([x, *pad]) != x or self.mul([*pad, x]) != x:
                return False
        return True

    def quer(self, x: GroupRingElement) -> GroupRingElement | None:
        """Multiplicative querelement of x: an element x̄ with
        mul(x, ..., x̄, ..., x) = x for x̄ in every slot, or None when x
        has none.  None is a proof of absence.

        The zero has none by convention (absorption makes the defining
        relation vacuous).  For a monomial r*g whose coefficient has a ring
        querelement r̄, the closed form r̄*ḡ is tried first.  Otherwise
        x̄ solves one exact linear system (_quer_system): the product is
        linear in the querelement slot over the ring's coordinates (Z, or
        Z_N mod N), so there is one unknown coefficient per group element
        and one equation per group element and slot class of the group's
        cover (linsolve.solve).  Slots of one class give the same
        equations, so the system costs one product per class (2 for adiag,
        1 for a derived group) plus moves of its terms.  Where the system
        is underdetermined, free coordinates are set to zero wherever that
        gives a solution, so the answer is deterministic.  _is_quer checks
        every answer in all n slots.
        """
        modulus = self._coordinate_modulus("querelements")
        if self.profile.gr_mul_arity < 3:
            raise DomainError(
                "querelements are defined for multiplication arity >= 3"
            )
        if x.is_zero():
            return None  # absorption makes the defining relation vacuous
        if len(x.terms) == 1 and self.ring.n_r >= 3:
            ((g, c),) = x.terms
            cq = self.ring.quer(c)
            if cq is not None:
                cand = self.element({self.group.quer(g): cq})
                if self._is_quer(cand, x):
                    return cand
        a, b = self._quer_system(x)
        y = solve(a, b, modulus)
        if y is None:
            return None
        cand = self.element(zip(self.group.elements(), y))
        if not self._is_quer(cand, x):
            raise ArithmeticError(
                f"the linear solve gave {self.render(cand)}, which is not a "
                f"querelement of {self.render(x)}"
            )
        return cand

    def _quer_system(self, x: GroupRingElement) -> tuple[list, list]:
        """The querelement system A y = b of x over the keys in
        group.elements() order, with one block of |G| rows per slot class
        (_quer_moves): column j of a class's block is the product with
        1*keys[j] in its representative slot p and x in the other n - 1
        slots, and b is x's coordinates, once per class.

        One product per class is run, with 1*h0 (h0 = keys[0]) in slot p;
        the block's other columns are its terms moved to other keys.  In
        the group's binary cover, a word with h in slot p is t times the
        same word with h0 there, for one translation t =
        cover.translation(p, h, h0) whatever the other letters are: it
        exists because the kernel of the cover's coset map is abelian.
        Over a linear ring a term's coefficient does not depend on the key
        in the slot, so each column is a relabelling of the first.

        Merging the slots of a class is exact.  Writing each letter as a
        kernel element times e(h0), a word's value is e(h0)**n times the
        kernel product of its letters' parts, the part in slot p moved by
        the same conjugation as cover.translation(p, ., h0).  The kernel
        is abelian, so that product does not depend on the order of the
        letters, and two slots whose translations agree for every h give
        the same h0 product, the same moves and the same right-hand side:
        a block per slot would only repeat the class's block.

        The budget still counts the n-block system's n * |G|**2 cells, so
        the same operands as before are refused: over ENUMERATE_BUDGET,
        BudgetExceeded names the count before anything is built.
        """
        size = self.group.size()
        n = self.profile.gr_mul_arity
        if n * size * size > ENUMERATE_BUDGET:
            raise BudgetExceeded(
                f"the querelement system needs {n * size * size} cells, over "
                f"the budget of {ENUMERATE_BUDGET}"
            )
        keys = self.group.elements()
        rest = [x] * (n - 1)
        unit = self.element({keys[0]: 1})
        classes = self._quer_moves()
        a = [[0] * size for _ in range(len(classes) * size)]
        for i, (p, moves) in enumerate(classes):
            block = a[i * size : (i + 1) * size]
            for g, c in self.mul([*rest[:p], unit, *rest[p:]]).terms:
                for j, row in enumerate(moves[g]):
                    block[row][j] = c
        coords = x.as_dict()
        return a, [coords.get(g, 0) for g in keys] * len(classes)

    def _quer_moves(self) -> list[tuple[int, dict]]:
        """One (p, moves) pair per slot class, in order of p: the slots
        whose translations cover.translation(slot, h, h0) agree for every
        key h form a class, and p is its first slot.  moves[g][j] is the
        row that key g of the h0 product lands on in column j of the
        class's block, the row of g moved by cover.translation(p,
        keys[j], h0).  Built once per context."""
        if self._moves is None:
            cover = self._cover
            keys = self.group.elements()
            position = self.group.position
            classes: dict = {}  # translations -> first slot, in slot order
            for p in range(self.profile.gr_mul_arity):
                ts = tuple(cover.translation(p, h, keys[0]) for h in keys)
                classes.setdefault(ts, p)
            self._moves = [
                (p, {
                    g: [position(cover.project(cover.mul(t, cover.embed(g))))
                        for t in ts]
                    for g in keys
                })
                for ts, p in classes.items()
            ]
        return self._moves

    def _is_quer(self, cand: GroupRingElement, x: GroupRingElement) -> bool:
        n = self.profile.gr_mul_arity
        rest = [x] * (n - 1)
        return all(
            self.mul([*rest[:p], cand, *rest[p:]]) == x for p in range(n)
        )

    # augmentation -------------------------------------------------------------

    def augmentation(self, x: GroupRingElement):
        """Collapse a formal sum onto its coefficient total: the iterated
        ring addition of all coefficients, zero-padded up to the next
        admissible word length (no padding ever occurs for binary addition
        of two or more terms); over a linear ring, the coordinate total
        mod N."""
        if self._linear:
            total = sum([c for _, c in x.terms])
            return total % self._modulus if self._modulus else total
        return self._accumulate(x.coefficients())

    def in_augmentation_ideal(self, x: GroupRingElement) -> bool:
        if not self.ring.has_zero:
            raise NoZero(f"{self.ring.name} has no zero, no kernel to test")
        return self.augmentation(x) == self.ring.zero()

    # enumeration ----------------------------------------------------------------

    def elements(self, budget: int = ENUMERATE_BUDGET) -> list[GroupRingElement]:
        """All canonical elements of a finite context: |R| ** |G| of them."""
        coeffs = self.ring.elements()  # raises InfiniteUniverse over Z
        size = self.group.size()
        # 2 ** budget.bit_length() > budget, so for |R| >= 2 the power
        # capped there is over budget exactly when the full one is, and it
        # stays small however large the group is
        if len(coeffs) ** min(size, budget.bit_length()) > budget:
            raise BudgetExceeded(
                f"enumerating {len(coeffs)}**{size} elements is over budget {budget}"
            )
        keys = self.group.elements()
        out = []
        for combo in product(coeffs, repeat=size):
            out.append(self._canonical(list(zip(keys, combo))))
        return out

    # rendering ------------------------------------------------------------------

    def render(self, x: GroupRingElement) -> str:
        """Canonical text form: key-sorted terms joined by ' + ', each as
        <coefficient><ring symbol>*<group label>; the zero prints as 0."""
        if x.is_zero():
            return "0"
        return " + ".join(
            f"{self.ring.format_scalar(c)}*{self.group.label(g)}"
            for g, c in x.terms
        )


# the public builder name; the constructor validates the profile
make_group_ring = GroupRing
