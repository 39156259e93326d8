"""The worst-case mismatch norm of ``transfer._mismatch_norm``, taken from a
compressed matrix when few responses move, against ``operator_norm`` of the
whole mismatch ``C = Q o (a_i - b_j)``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_transfer import transfer
from spectral_transfer.graphs import operator_norm
from spectral_transfer.transfer import _mismatch_norm


def _responses(rng, size, flat_fraction, flat):
    values = rng.standard_normal(size)
    values[rng.random(size) < flat_fraction] = flat
    return values


def _mismatch(q, a, b):
    with np.errstate(invalid="ignore", over="ignore"):
        return q * (a[:, None] - b)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.one_of(st.none(), st.integers(1, 40)),  # None: as many as rows
    orthonormal=st.booleans(),
    row_flat=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    col_flat=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    flat=st.sampled_from([0.0, 1.0, -2.5]),
    scale=st.sampled_from([1.0, 1.0, 1e300, 1e-300]),
    poison=st.sampled_from([None, None, None, "a", "b", "q"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_compressed_norm_equals_the_dense_one(rows, cols, orthonormal, row_flat, col_flat,
                                                   flat, scale, poison, seed):
    rng = np.random.default_rng(seed)
    cols = rows if cols is None else cols
    q = rng.standard_normal((rows, cols))
    if orthonormal:
        # orthonormal columns, or rows when there are more columns than rows
        q = np.linalg.qr(q)[0] if rows >= cols else np.linalg.qr(q.T)[0].T
    a = _responses(rng, rows, row_flat, flat)
    b = _responses(rng, cols, col_flat, flat)
    if poison is not None:
        # a non-finite response, or a non-finite entry of Q where a and b may be flat
        {"a": a, "b": b, "q": q[0]}[poison][0] = np.inf if seed % 2 else np.nan
    mismatch = _mismatch(q * scale, a, b)
    if poison is not None:
        for norm in (operator_norm, lambda c: _mismatch_norm(c, a[:, None], b)):
            with pytest.raises(np.linalg.LinAlgError):
                norm(mismatch)
        return
    want = operator_norm(mismatch)
    got = _mismatch_norm(mismatch, a[:, None], b)
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("rows, cols", [(7, 7), (9, 4), (3, 11)])
def test_all_entries_flat_give_zero(rows, cols):
    q = np.random.default_rng(0).standard_normal((rows, cols))
    a, b = np.full(rows, 0.25), np.full(cols, 0.25)
    assert _mismatch_norm(_mismatch(q, a, b), a, b) == 0.0


@pytest.mark.parametrize("moving, route", [
    (5, "compressed"),   # 2 (|R| + |T|) = 20 <= min(n, m) = 20
    (6, "dense"),        # 2 (|R| + |T|) = 24 >  20
    (20, "dense"),       # every row moves
])
def test_the_size_rule_picks_the_route(monkeypatch, moving, route):
    # n = 20 rows and m = 30 columns; the first ``moving`` rows and columns
    # leave the flat value 0, the rest stay on it
    rng = np.random.default_rng(1)
    q = rng.standard_normal((20, 30))
    a, b = np.zeros(20), np.zeros(30)
    a[:moving] = rng.uniform(1.0, 2.0, moving)
    b[:moving] = rng.uniform(1.0, 2.0, moving)
    mismatch = _mismatch(q, a, b)
    shapes = []  # of each matrix whose norm is taken

    def spy(mat):
        shapes.append(np.shape(mat))
        return operator_norm(mat)

    monkeypatch.setattr(transfer, "operator_norm", spy)
    got = _mismatch_norm(mismatch, a, b)
    assert shapes == ([(2 * moving, 2 * moving)] if route == "compressed" else [(20, 30)])
    assert abs(got - operator_norm(mismatch)) <= 1e-13 * got
