"""Exact solution of integer linear systems over Z and over Z_N.

``solve(a, b, modulus)`` returns an integer vector y with a·y = b, exactly
when the modulus is 0 and modulo N when it is N >= 1, or None when no such
y exists.  None is a proof of absence.  Entries stay bounded:

* Over Z_N every entry is reduced mod N.  Elimination uses unimodular gcd
  row operations, and each pivot row r with pivot d adds the row (N/g)·r,
  g = gcd(d, N), which has a zero in the pivot column.  That keeps the row
  span in Howell form (Storjohann and Mulders, "Fast algorithms for linear
  algebra modulo N", 1998): the rows with zeros in the first k columns span
  every combination of the equations with zeros there.  So zero divisors
  (N = 4, 6, ...) are handled and back substitution never gets stuck.
* Over Z, fraction-free (Bareiss) elimination gives the rank, rational
  consistency and D = |det B| for a maximal nonsingular minor B of r
  independent rows.  B·adj(B) = det(B)·I, so D·Z^r lies in the column
  lattice of those rows, and the integer system is solvable exactly when it
  is solvable mod D (Domich, Kannan and Trotter, 1987).  A solution mod D
  fixes the free variables, and back substitution then lands on integers.

Free variables are set to zero wherever that gives a solution, so the
answer is deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd


def solve(
    a: Sequence[Sequence[int]], b: Sequence[int], modulus: int
) -> list[int] | None:
    """An integer y with a·y = b (modulus 0) or a·y ≡ b mod N (modulus N),
    or None when the system has no such solution.  ``a`` is a list of rows
    of equal length; the result has one entry per column, reduced to
    [0, N) over Z_N."""
    width = len(a[0]) if a else 0
    if modulus == 0:
        return _solve_z(a, b, width)
    return _solve_mod(a, b, modulus, width)


def _xgcd(p: int, q: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(p, q) = s*p + t*q, for p, q > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while q:
        k, r = divmod(p, q)
        p, q = q, r
        s0, s1, t0, t1 = s1, s0 - k * s1, t1, t0 - k * t1
    return p, s0, t0


def _solve_mod(a, b, n: int, width: int) -> list[int] | None:
    rows = [[v % n for v in row] + [c % n] for row, c in zip(a, b)]
    rows = [row for row in rows if any(row)]
    echelon = []  # (pivot column, pivot row), left to right
    for j in range(width + 1):
        live = [row for row in rows if row[j]]
        if not live:
            continue
        if j == width:
            return None  # 0 = c with c != 0 mod N is in the row span
        rest = [row for row in rows if not row[j]]
        pivot = live[0]
        for row in live[1:]:
            g, s, t = _xgcd(pivot[j], row[j])
            u, v = pivot[j] // g, row[j] // g
            pivot, row = (
                [(s * p + t * q) % n for p, q in zip(pivot, row)],
                [(u * q - v * p) % n for p, q in zip(pivot, row)],
            )
            rest.append(row)
        echelon.append((j, pivot))
        annihilator = n // gcd(pivot[j], n)
        rest.append([annihilator * v % n for v in pivot])
        rows = [row for row in rest if any(row)]
    y = [0] * width
    for j, row in reversed(echelon):
        rhs = (row[width] - sum(row[k] * y[k] for k in range(j + 1, width))) % n
        g = gcd(row[j], n)
        # the Howell span property makes g divide rhs
        y[j] = rhs // g * pow(row[j] // g, -1, n // g) % (n // g)
    return y


def _bareiss(rows: list[list[int]], width: int):
    """Fraction-free row echelon form over the first ``width`` columns.

    Returns (echelon rows, pivot columns, original indices of the echelon
    rows, remaining rows, which are zero in the first ``width`` columns).
    The pivot of echelon row k is the determinant of the minor on the
    first k+1 selected rows and pivot columns."""
    rows = [list(row) for row in rows]
    order = list(range(len(rows)))
    pivots: list[int] = []
    prev = 1
    for j in range(width):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        order[r], order[k] = order[k], order[r]
        top = rows[r]
        p = top[j]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[j]
            rows[i] = [(p * v - f * w) // prev for v, w in zip(row, top)]
        prev = p
        pivots.append(j)
    r = len(pivots)
    return rows[:r], pivots, order[:r], rows[r:]


def _back_substitute(echelon, pivots, free: list[int], width: int, det: int):
    """det times the rational solution of the echelon system whose
    non-pivot variables take the values in ``free``.  By Cramer's rule det
    times the solution is integral, so every division is exact."""
    y = [det * v for v in free]
    for row, j in zip(reversed(echelon), reversed(pivots)):
        rhs = det * row[width] - sum(row[k] * y[k] for k in range(j + 1, width))
        y[j] = rhs // row[j]
    return y


def _solve_z(a, b, width: int) -> list[int] | None:
    echelon, pivots, order, rest = _bareiss(
        [[*row, c] for row, c in zip(a, b)], width
    )
    if any(row[width] for row in rest):
        return None  # inconsistent over Q
    det = abs(echelon[-1][pivots[-1]]) if pivots else 1
    y = _back_substitute(echelon, pivots, [0] * width, width, det)
    if all(v % det == 0 for v in y):
        return [v // det for v in y]
    if len(pivots) == width:
        return None  # the unique rational solution is not integral
    free = _solve_mod([a[i] for i in order], [b[i] for i in order], det, width)
    if free is None:
        return None
    y = _back_substitute(echelon, pivots, free, width, det)
    if any(v % det for v in y):
        raise ArithmeticError("lifting a solution mod det left a fraction")
    return [v // det for v in y]
