"""Independent reference model of the contexts the benchmark drives.

Nothing here imports pgr.  The model follows the definitions directly:

- the j-root ring j_q*Z (optionally mod N): a product of q+1 scalars is
  -(k_1*...*k_{q+1}) for q >= 2 and the plain product for q = 1, so a
  left-nested word of ell_n applications has the sign (-1)**ell_n;
- adiag(C_k): g(m1,n1) g(m2,n2) g(m3,n3) = g(m1+n2+m3, n1+m2+n3), so in a
  left-nested word of ell_g applications every operand at an odd position
  contributes its exponents swapped;
- derived[a](C_k): the sum of the exponents mod k.

The product is the full expansion over the operand supports, gathered at
equal keys.  It checks the library's answers and renders the CLI's text
form, so a faster wrong answer counts as a failed op.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product


def digest(value) -> str:
    """Short stable digest of a JSON-able value (tuples read as lists)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


class Model:
    """Reference arithmetic of one context spec (see workloads.CONTEXTS)."""

    def __init__(self, spec: dict):
        self.q = spec["q"]
        self.mod = spec.get("mod")
        self.kind, self.k, *rest = spec["group"]
        self.n_g = rest[0] if self.kind == "derived" else 3
        self.ell_m, self.ell_n, self.ell_g = spec.get("ell", (1, 1, 1))
        self.n_r = self.q + 1
        self.gr_add_arity = self.ell_m + 1
        self.gr_mul_arity = self.ell_n * self.q + 1
        if self.gr_mul_arity != self.ell_g * (self.n_g - 1) + 1:
            raise ValueError(f"spec {spec} violates the quantization condition")
        self.symbol = "" if self.q == 1 else ("j" if self.q == 2 else f"j{self.q}")
        base = "Z" if self.q == 1 else f"{self.symbol}Z"
        self.ring_name = base if self.mod is None else f"{base} mod {self.mod}"
        if self.kind == "adiag":
            self.group_name = f"adiag(C{self.k})"
        else:
            self.group_name = f"derived[{self.n_g}](C{self.k})"
        self.name = f"{self.ring_name}[{self.group_name}]"

    # scalars and keys ---------------------------------------------------------

    def norm(self, c: int) -> int:
        return c % self.mod if self.mod is not None else c

    def keys(self) -> list:
        if self.kind == "adiag":
            return [(m, n) for n in range(self.k) for m in range(self.k)]
        return list(range(self.k))

    def sort_key(self, g):
        return (g[1], g[0]) if self.kind == "adiag" else g

    def label(self, g) -> str:
        if self.kind == "adiag":
            return f"g({g[0]},{g[1]})"
        return f"g{g + 1}"

    def index_label(self, g) -> str:
        """Legacy single-index label g<i>, i = k*n + m + 1 for adiag."""
        if self.kind == "adiag":
            return f"g{self.k * g[1] + g[0] + 1}"
        return f"g{g + 1}"

    def group_word(self, word) -> object:
        """Left-nested product of an admissible word of group keys."""
        if self.kind == "adiag":
            a = sum(g[i % 2] for i, g in enumerate(word))
            b = sum(g[1 - i % 2] for i, g in enumerate(word))
            return (a % self.k, b % self.k)
        return sum(word) % self.k

    def ring_word(self, coeffs) -> int:
        """Left-nested product of an admissible word of scalars: each of its
        (len - 1) / q ring multiplications negates when q >= 2."""
        p = 1
        for c in coeffs:
            p *= c
        if self.q > 1 and (len(coeffs) - 1) // self.q % 2 == 1:
            p = -p
        return self.norm(p)

    # group-ring arithmetic ----------------------------------------------------

    def canonical(self, pairs) -> tuple:
        """Gather (key, coefficient) pairs into canonical terms."""
        acc: dict = {}
        for g, c in pairs:
            acc[g] = acc.get(g, 0) + c
        kept = [(g, self.norm(c)) for g, c in acc.items() if self.norm(c) != 0]
        kept.sort(key=lambda t: self.sort_key(t[0]))
        return tuple(kept)

    def mul(self, operands) -> tuple:
        """Product of gr_mul_arity canonical term tuples: every combination
        of operand terms contributes, then equal keys are gathered."""
        if len(operands) != self.gr_mul_arity:
            raise ValueError("wrong operand count")
        if self.kind == "adiag":
            # (coefficient, exponent sums) per combination prefix
            parts = [(1, 0, 0)]
            for i, x in enumerate(operands):
                s = i % 2
                parts = [
                    (c * cx, a + g[s], b + g[1 - s])
                    for c, a, b in parts
                    for g, cx in x
                ]
            pairs = (((a % self.k, b % self.k), c) for c, a, b in parts)
        else:
            parts = [(1, 0)]
            for x in operands:
                parts = [(c * cx, a + g) for c, a in parts for g, cx in x]
            pairs = ((a % self.k, c) for c, a in parts)
        sign = -1 if self.q > 1 and self.ell_n % 2 == 1 else 1
        return self.canonical((g, sign * c) for g, c in pairs)

    def add(self, operands) -> tuple:
        return self.canonical(t for x in operands for t in x)

    def augmentation(self, x) -> int:
        return self.norm(sum(c for _, c in x))

    def is_quer(self, cand, x) -> bool:
        n = self.gr_mul_arity
        return all(
            self.mul([x] * p + [cand] + [x] * (n - 1 - p)) == x for p in range(n)
        )

    def ring_quer(self, r: int) -> int | None:
        r = self.norm(r)
        if r == 0:
            return None
        window = range(self.mod) if self.mod is not None else (-1, 1)
        for cand in window:
            if all(
                self.ring_word([r] * p + [cand] + [r] * (self.q - p)) == r
                for p in range(self.q + 1)
            ):
                return cand
        return None

    def group_quer(self, g):
        rest = [g] * (self.n_g - 1)
        for cand in self.keys():
            if all(
                self.group_word(rest[:p] + [cand] + rest[p:]) == g
                for p in range(self.n_g)
            ):
                return cand
        return None

    def group_identities(self) -> list:
        keys = self.keys()
        out = []
        for e in keys:
            pad = [e] * (self.n_g - 1)
            if all(
                self.group_word([x, *pad]) == x and self.group_word([*pad, x]) == x
                for x in keys
            ):
                out.append(e)
        return out

    def trivial_identities(self) -> list:
        """Neutral monomials e_R*e_G of a finite context, in the library's
        order (ring identity, then group identity by sort key)."""
        scalars = range(self.mod)
        ring_ids = [
            e
            for e in scalars
            if all(
                self.ring_word([e] * p + [r] + [e] * (self.q - p)) == r
                for r in scalars
                for p in range(self.q + 1)
            )
        ]
        pad_n = self.gr_mul_arity - 1
        out = []
        for er in sorted(ring_ids):
            for eg in sorted(self.group_identities(), key=self.sort_key):
                cand = self.canonical([(eg, er)])
                if all(
                    self.mul([x, *[cand] * pad_n]) == x
                    and self.mul([*[cand] * pad_n, x]) == x
                    for g in self.keys()
                    for r in scalars
                    for x in [self.canonical([(g, r)])]
                ):
                    out.append(cand)
        return out

    # CLI text ----------------------------------------------------------------

    def scalar_text(self, r: int) -> str:
        return "0" if r == 0 else f"{r}{self.symbol}"

    def render(self, x) -> str:
        if not x:
            return "0"
        return " + ".join(f"{self.scalar_text(c)}*{self.label(g)}" for g, c in x)

    def profile(self) -> dict:
        return {
            "m_r": 2,
            "n_r": self.n_r,
            "n_g": self.n_g,
            "ell_m": self.ell_m,
            "ell_n": self.ell_n,
            "ell_g": self.ell_g,
            "gr_add_arity": self.gr_add_arity,
            "gr_mul_arity": self.gr_mul_arity,
        }

    def table_rows(self, gens) -> list:
        return [
            [*map(self.label, word), self.label(self.group_word(word))]
            for word in product(gens, repeat=self.n_g)
        ]


def expected_cli(model: Model, op: dict):
    """The exact output run_command must give for a cli-session op: a text
    string, or the decoded object when the op asks for JSON."""
    verb, as_json = op["verb"], op["json"]
    if verb in ("eval", "mul", "add"):
        xs = [model.canonical(x) for x in op["data"]]
        if verb == "eval":
            value = xs[0]
        else:
            value = model.mul(xs) if verb == "mul" else model.add(xs)
        text = model.render(value)
        return {"result": text} if as_json else text
    if verb == "aug":
        value = model.augmentation(model.canonical(op["data"][0]))
        text = model.scalar_text(value)
        return {"result": text, "coefficient": value} if as_json else text
    if verb == "quer":
        ((g, r),) = model.canonical(op["data"][0])
        cand = ((model.group_quer(g), model.ring_quer(r)),)
        if not model.is_quer(cand, ((g, r),)):
            raise ValueError(f"generated quer op without a querelement: {op}")
        text = model.render(cand)
        return {"found": True, "result": text} if as_json else text
    if verb == "identities":
        labels = [model.label(e) for e in model.group_identities()]
        if as_json:
            return {"identities": labels}
        return "\n".join(labels) if labels else "(none)"
    if verb == "table":
        rows = model.table_rows(op["data"])
        if as_json:
            return {"rows": rows}
        return "\n".join(" ".join(r[:-1]) + " -> " + r[-1] for r in rows)
    if verb == "arity":
        fields = model.profile()
        if as_json:
            return fields
        return f"{model.name}: " + " ".join(f"{k}={v}" for k, v in fields.items())
    raise ValueError(f"unknown verb {verb!r}")
