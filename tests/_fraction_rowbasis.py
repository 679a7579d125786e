"""The row basis on `Fraction` rows that `logderiv.exactla` kept before its
rows became primitive integer rows: the reference of the differential tests
in test_exactla.py.  `RowBasis` and `nullspace` verbatim but for their names,
plus the cut that `LocalArtinReducer` made on the pivot rows.
"""

from __future__ import annotations

from fractions import Fraction


class FractionRowBasis:
    """A fully reduced row-echelon set of sparse rows (RREF)."""

    def __init__(self, colkey):
        self.colkey = colkey
        self.pivots = {}  # pivot column -> row dict (pivot coeff 1, reduced)

    def reduce(self, row):
        """Eliminate all pivot columns from row; returns a new dict.

        A pivot row holds no other pivot column, so one pass over the pivot
        columns of `row` eliminates them all and brings none back.
        """
        r = dict(row)
        for hit in [col for col in row if col in self.pivots]:
            c = r.pop(hit)
            for col2, v in self.pivots[hit].items():
                if col2 == hit:
                    continue
                s = r.get(col2, Fraction(0)) - c * v
                if s:
                    r[col2] = s
                elif col2 in r:
                    del r[col2]
        return r

    def insert(self, row):
        """Reduce row and, if nonzero, add it as a new pivot row.

        Returns the new pivot column, or None if the row was dependent.
        """
        r = self.reduce(row)
        if not r:
            return None
        piv = max(r, key=self.colkey)
        inv = Fraction(1) / r[piv]
        r = {col: v * inv for col, v in r.items()}
        # back-substitute into existing rows to stay fully reduced
        for pcol, prow in self.pivots.items():
            c = prow.get(piv)
            if c is None:
                continue
            for col2, v in r.items():
                s = prow.get(col2, Fraction(0)) - c * v
                if s:
                    prow[col2] = s
                elif col2 in prow:
                    del prow[col2]
        self.pivots[piv] = r
        return piv

    def extend(self, rows):
        for row in rows:
            self.insert(row)

    @property
    def rank(self):
        return len(self.pivots)

    def contains(self, row):
        return not self.reduce(row)


def fraction_nullspace(rows, columns, colkey):
    """Basis of {x : sum_col x[col] * row[col] = 0 for each row}.

    `rows` are sparse dicts over `columns`; the nullspace vectors are
    returned as dicts over the same column labels.  Classic RREF + free
    variable construction, all exact.
    """
    rb = FractionRowBasis(colkey)
    rb.extend(rows)
    pivcols = set(rb.pivots)
    free = [c for c in columns if c not in pivcols]
    basis = []
    for f in free:
        vec = {f: Fraction(1)}
        for pcol, prow in rb.pivots.items():
            c = prow.get(f)
            if c:
                vec[pcol] = -c
        basis.append(vec)
    return basis


def fraction_cut(rb, keep):
    """The cut `LocalArtinReducer` made by assigning to `pivots`."""
    rb.pivots = {
        p: {e: c for e, c in row.items() if keep(e)}
        for p, row in rb.pivots.items()
        if keep(p)
    }
