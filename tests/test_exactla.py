"""The integer-row `RowBasis` against the `Fraction` rows it replaced."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from _fraction_rowbasis import FractionRowBasis, fraction_cut, fraction_nullspace
from logderiv.exactla import RowBasis, nullspace
from logderiv.ideals import monomials_below
from logderiv.orders import LOCAL

COLUMNS = monomials_below(2, 5)  # 15 monomials in two variables, degree <= 4

values = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)
sparse_rows = st.dictionaries(st.sampled_from(COLUMNS), values, min_size=1, max_size=6)


@st.composite
def row_lists(draw):
    """Sparse rows, some of them rational combinations of earlier ones."""
    rows = []
    for _ in range(draw(st.integers(1, 22))):
        if len(rows) >= 2 and draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2))
            a, b = draw(values), draw(values)
            row = {c: a * rows[i].get(c, 0) + b * rows[j].get(c, 0) for c in COLUMNS}
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
        else:
            rows.append(draw(sparse_rows))
    return rows


def _both(rows):
    rb, ref = RowBasis(LOCAL.key), FractionRowBasis(LOCAL.key)
    for row in rows:
        assert rb.insert(row) == ref.insert(row)
    return rb, ref


def _same_rows(rb, ref):
    assert set(rb.pivot_columns) == set(ref.pivots)
    assert rb.rank == ref.rank
    for piv, row in ref.pivots.items():
        assert rb.row(piv) == row
        stored = rb._rows[piv]
        assert all(isinstance(v, int) for v in stored.values())
        assert stored[piv] > 0
        assert gcd(*stored.values()) == 1


@settings(max_examples=30, deadline=None)
@given(row_lists(), st.lists(sparse_rows, max_size=4))
def test_same_rref_and_residues(rows, probes):
    rb, ref = _both(rows)
    _same_rows(rb, ref)
    for probe in probes + rows:
        residue = rb.reduce(probe)
        assert residue == ref.reduce(probe)
        assert all(isinstance(v, Fraction) for v in residue.values())
        assert rb.contains(probe) == ref.contains(probe)


@settings(max_examples=30, deadline=None)
@given(row_lists())
def test_same_nullspace(rows):
    assert nullspace(rows, COLUMNS, LOCAL.key) == fraction_nullspace(rows, COLUMNS, LOCAL.key)


@settings(max_examples=30, deadline=None)
@given(row_lists(), st.integers(1, 5), st.lists(sparse_rows, max_size=4))
def test_same_rows_after_the_cut(rows, cutoff, probes):
    rb, ref = _both(rows)

    def keep(e):
        return sum(e) < cutoff

    rb.cut(keep)
    fraction_cut(ref, keep)
    _same_rows(rb, ref)
    for probe in probes:
        below = {e: c for e, c in probe.items() if keep(e)}
        assert rb.reduce(below) == ref.reduce(below)


def test_pivot_of_a_scaled_row_is_positive():
    rb = RowBasis(LOCAL.key)
    # -4/3 x + 2/9 y: times 9, content 2 out, sign turned to the pivot x
    assert rb.insert({(1, 0): Fraction(-4, 3), (0, 1): Fraction(2, 9)}) == (1, 0)
    assert rb._rows[(1, 0)] == {(1, 0): 6, (0, 1): -1}
    assert rb.row((1, 0)) == {(1, 0): Fraction(1), (0, 1): Fraction(-1, 6)}
    assert rb.reduce({(1, 0): Fraction(1, 2)}) == {(0, 1): Fraction(1, 12)}
