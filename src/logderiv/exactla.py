"""Exact linear algebra over the rationals on sparse dict-vectors.

Rows come in and go out as dicts mapping a hashable column label to a
nonzero rational (`Fraction` or int).  Column precedence is given by a key
function: the pivot of a row is its column with the largest key.  Inside,
`RowBasis` keeps each pivot row as a primitive integer row (content 1,
positive pivot entry): denominators are cleared once, on entry, and
elimination is fraction-free (Bareiss 1968), so no `Fraction` is built
until a caller reads a residue or a normalized row out.  The reduced
row-echelon form is unique, so the pivots, residues and normalized rows are
those of elimination over the rationals.  Used by the Artin-quotient
reduction, the graded Der(-log D) and the jet oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integer_row(row):
    """(r, scale): the nonzero entries of row times the least common
    denominator `scale`, as ints."""
    scale = 1
    for v in row.values():
        if scale % v.denominator:
            scale = lcm(scale, v.denominator)
    return {col: v.numerator * (scale // v.denominator) for col, v in row.items() if v}, scale


def _content(values, g=0):
    """gcd(g, *values), stopping at 1."""
    for v in values:
        g = gcd(g, v)
        if g == 1:
            break
    return g


class RowBasis:
    """A fully reduced row-echelon set of sparse rows (RREF), stored as
    primitive integer rows: row / row[pivot] is the RREF row."""

    def __init__(self, colkey):
        self.colkey = colkey
        self._rows = {}  # pivot column -> int row dict (primitive, pivot > 0, reduced)

    @property
    def pivot_columns(self):
        """The pivot columns, as a set-like view."""
        return self._rows.keys()

    def row(self, piv):
        """The RREF row of pivot column piv: pivot entry 1, as Fractions."""
        r = self._rows[piv]
        p = r[piv]
        return {col: Fraction(v, p) for col, v in r.items()}

    def _eliminate(self, row):
        """(r, scale): the integer row r = scale * (row minus its pivot part).

        A pivot row holds no other pivot column, so one pass over the pivot
        columns of `row` eliminates them all and brings none back.  Each step
        is r <- p*r - c*P with the common factor of p and c taken out; when r
        had to be scaled, the factor it shares with the scale is divided out,
        so r never outgrows the denominators of the residue.
        """
        r, scale = _integer_row(row)
        rows = self._rows
        for hit in [col for col in r if col in rows]:
            prow = rows[hit]
            c = r.pop(hit)
            p = prow[hit]
            g = gcd(p, c)
            p //= g
            c //= g
            if p != 1:
                r = {col: p * v for col, v in r.items()}
                scale *= p
            for col2, v in prow.items():
                if col2 == hit:
                    continue
                s = r.get(col2, 0) - c * v
                if s:
                    r[col2] = s
                elif col2 in r:
                    del r[col2]
            if p != 1:
                h = _content(r.values(), scale)
                if h != 1:
                    r = {col: v // h for col, v in r.items()}
                    scale //= h
        return r, scale

    def reduce(self, row):
        """The canonical residue of row: row minus the combination of pivot
        rows that clears its pivot columns; a new dict of Fractions."""
        r, scale = self._eliminate(row)
        return {col: Fraction(v, scale) for col, v in r.items()}

    def insert(self, row):
        """Reduce row and, if nonzero, add it as a new pivot row.

        Returns the new pivot column, or None if the row was dependent.
        """
        r, _ = self._eliminate(row)
        if not r:
            return None
        piv = max(r, key=self.colkey)
        g = _content(r.values())
        if r[piv] < 0:
            g = -g
        if g != 1:
            r = {col: v // g for col, v in r.items()}
        p = r[piv]
        # back-substitute into existing rows to stay fully reduced: the new
        # row holds no pivot column, so each pivot entry keeps its sign
        for prow in self._rows.values():
            c = prow.get(piv)
            if c is None:
                continue
            h = gcd(p, c)
            a, c = p // h, c // h
            if a != 1:
                for col2 in prow:
                    prow[col2] *= a
            for col2, v in r.items():
                s = prow.get(col2, 0) - c * v
                if s:
                    prow[col2] = s
                elif col2 in prow:
                    del prow[col2]
            h = _content(prow.values())
            if h != 1:
                for col2 in prow:
                    prow[col2] //= h
        self._rows[piv] = r
        return piv

    def extend(self, rows):
        for row in rows:
            self.insert(row)

    def cut(self, keep):
        """Keep the rows whose pivot column passes `keep`, each cut to the
        columns that pass it.

        Meant for a key under which every column that fails lies below every
        column that passes, so a kept row keeps its pivot and the cut rows
        stay in reduced row-echelon form.
        """
        cut = {}
        for piv, r in self._rows.items():
            if keep(piv):
                r = {col: v for col, v in r.items() if keep(col)}
                g = _content(r.values())
                cut[piv] = r if g == 1 else {col: v // g for col, v in r.items()}
        self._rows = cut

    @property
    def rank(self):
        return len(self._rows)

    def contains(self, row):
        return not self._eliminate(row)[0]


def nullspace(rows, columns, colkey):
    """Basis of {x : sum_col x[col] * row[col] = 0 for each row}.

    `rows` are sparse dicts over `columns`; the nullspace vectors are
    returned as dicts of Fractions over the same column labels.  Classic
    RREF + free variable construction, all exact.
    """
    rb = RowBasis(colkey)
    rb.extend(rows)
    pivrows = rb._rows
    basis = []
    for f in columns:
        if f in pivrows:
            continue
        vec = {f: Fraction(1)}
        for pcol, prow in pivrows.items():
            c = prow.get(f)
            if c:
                vec[pcol] = Fraction(-c, prow[pcol])
        basis.append(vec)
    return basis
