import numpy as np
import pytest

from difftrap import parse_expr
from difftrap.errors import InternalError
from difftrap.linalg import (
    Echelon,
    FFMatrix,
    dependence_witness,
    kernel,
    kernel_mod_p,
    rank,
)
from difftrap.rational import RationalElement

from conftest import random_element
from gf import GF


def E(p, text):
    return parse_expr(text, p)


def sparse(entries):
    """The {column: entry} row of a list of entries, zeros left out."""
    return {j: e for j, e in enumerate(entries) if not e.is_zero()}


def dense(p, row, ncols):
    return [row.get(j, RationalElement.zero(p)) for j in range(ncols)]


def M(p, rows):
    """Matrix of expression strings; a "0" entry is left out of its row."""
    return FFMatrix(
        p,
        [{j: E(p, t) for j, t in enumerate(row) if t != "0"} for row in rows],
        len(rows[0]),
    )


def test_rank_spec_example():
    # oracle: the last two rows are combinations of the first two
    r1 = {0: E(2, "1")}
    r2 = {1: E(2, "1")}
    r3 = {0: E(2, "y"), 1: E(2, "1")}
    r4 = {0: E(2, "x"), 1: E(2, "y")}
    d1, d2 = dense(2, r1, 2), dense(2, r2, 2)
    assert [a * E(2, "y") + b for a, b in zip(d1, d2)] == dense(2, r3, 2)
    assert [a * E(2, "x") + b * E(2, "y") for a, b in zip(d1, d2)] == dense(2, r4, 2)
    assert rank(FFMatrix(2, [r1, r2, r3, r4], 2)) == 2


def test_rank_trivial():
    assert rank(M(3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])) == 3
    assert rank(M(3, [["0", "0"], ["0", "0"]])) == 0
    for nrows, ncols in ((0, 0), (0, 3), (3, 0), (2, 3), (3, 2)):
        m = FFMatrix(3, [{} for _ in range(nrows)], ncols)
        assert (m.nrows, m.ncols) == (nrows, ncols)
        assert rank(m) == 0
        assert rank(m) + len(kernel(m)) == ncols


def test_rank_bernoulli_shaped_diagonal():
    # the constants matrix of bernoulli-pair(7,1,1): 48 x 49, one nonzero per
    # row, the column of the monomial 1 unconstrained
    p = 7
    rows = [{i + 1: E(p, f"{i % 6 + 1}*a^{i % 7}*b^{i // 7}")} for i in range(48)]
    m = FFMatrix(p, rows, 49)
    assert rank(m) == 48
    assert kernel(m) == [[E(p, "1")] + [E(p, "0")] * 48]


def test_kernel_examples():
    basis = kernel(M(2, [["0", "1"]]))
    assert basis == [[E(2, "1"), E(2, "0")]]
    basis = kernel(M(2, [["1", "1"]]))
    assert basis == [[E(2, "1"), E(2, "1")]]
    assert kernel(M(2, [["1", "0"], ["0", "1"]])) == []


def test_kernel_rational_entries():
    m = M(2, [["x", "x^2"], ["1/(x+1)", "x/(x+1)"]])
    basis = kernel(m)
    assert len(basis) == 1
    v = basis[0]
    for row in m.rows:
        s = sum((e * v[j] for j, e in row.items()), RationalElement.zero(2))
        assert s.is_zero()


def test_dependence_witness():
    rows = [{0: E(2, "1")}, {1: E(2, "1")}, {0: E(2, "y"), 1: E(2, "1")}]
    w = dependence_witness(FFMatrix(2, rows, 2))
    assert w is not None
    total = [RationalElement.zero(2), RationalElement.zero(2)]
    for c, row in zip(w, rows):
        for j, e in row.items():
            total[j] = total[j] + c * e
    assert all(t.is_zero() for t in total)
    assert dependence_witness(FFMatrix(2, [{0: E(2, "1")}, {1: E(2, "1")}], 2)) is None
    assert dependence_witness(FFMatrix(2, [{}], 0)) == [E(2, "1")]


def test_wrong_kernel_vectors_fail_reverification(monkeypatch):
    # rows that leave their zero entries out must still be checked in full:
    # a vector that is not in the kernel is an internal error, not a result
    x = E(3, "x")
    monkeypatch.setattr(
        Echelon, "kernel", lambda self: [[x] + [E(3, "0")] * (self.ncols - 1)]
    )
    with pytest.raises(InternalError, match="kernel vector"):
        kernel(FFMatrix(3, [{0: x}, {2: x + 1}], 3))
    with pytest.raises(InternalError, match="dependence witness"):
        dependence_witness(FFMatrix(3, [{1: x}, {0: E(3, "1")}], 2))


def test_rank_nullity(rng):
    for p in (2, 3, 5):
        for _ in range(8):
            nrows = rng.randint(1, 3)
            ncols = rng.randint(1, 3)
            m = FFMatrix(
                p,
                [
                    sparse([random_element(rng, p, ["x", "y"], 1) for _ in range(ncols)])
                    for _ in range(nrows)
                ],
                ncols,
            )
            basis = kernel(m)
            assert rank(m) + len(basis) == ncols
            span = Echelon(p, ncols)
            for i, row in enumerate(m.rows):
                grew = rank(FFMatrix(p, m.rows[: i + 1], ncols)) > rank(
                    FFMatrix(p, m.rows[:i], ncols)
                )
                assert span.add_row(row) == grew
            # free columns: those not in the span of the columns before them
            def prefix(k):
                return FFMatrix(
                    p, [{j: e for j, e in row.items() if j < k} for row in m.rows], k
                )

            free = [j for j in range(ncols) if rank(prefix(j + 1)) == rank(prefix(j))]
            assert len(free) == len(basis)
            for f, v in zip(free, basis):
                assert [v[j] for j in free] == [E(p, "1" if j == f else "0") for j in free]


def test_specialization_rank_crosscheck(rng):
    """Substituting random points from a big extension field can only drop
    the rank, and almost never does."""
    cases = 0
    hits = 0
    fields = {2: GF(2, 20), 3: GF(3, 13), 5: GF(5, 9)}
    for p, gf in fields.items():
        for _ in range(34):
            nrows, ncols = rng.randint(2, 3), rng.randint(2, 3)
            m = FFMatrix(
                p,
                [
                    sparse(
                        [
                            random_element(rng, p, ["x", "y"], 2, allow_denominator=False)
                            for _ in range(ncols)
                        ]
                    )
                    for _ in range(nrows)
                ],
                ncols,
            )
            symbolic = rank(m)
            assignment = {v: gf.rand(rng) for v in ("x", "y")}
            numeric_rows = []
            ok = True
            for row in m.rows:
                out = []
                for e in dense(p, row, ncols):
                    val = gf.eval_rational(e, assignment)
                    if val is None:
                        ok = False
                        break
                    out.append(val)
                if not ok:
                    break
                numeric_rows.append(out)
            if not ok:
                continue
            numeric = gf.matrix_rank(numeric_rows)
            assert numeric <= symbolic
            cases += 1
            if numeric == symbolic:
                hits += 1
    assert cases >= 90
    assert hits / cases >= 0.99


def test_rank_on_constructed_rank_matrices(rng):
    # build matrices of known rank r as (full-rank-ish rows) * (r x ncols)
    for p in (2, 3):
        for _ in range(10):
            r = rng.randint(0, 2)
            nrows, ncols = rng.randint(r, 3), rng.randint(max(r, 1), 3)
            seed_rows = [
                [random_element(rng, p, ["x", "y"], 2) for _ in range(ncols)]
                for _ in range(r)
            ]
            if rank(FFMatrix(p, [sparse(s) for s in seed_rows], ncols)) != r if r else False:
                continue  # unlucky degenerate seed, skip
            rows = []
            for _ in range(nrows):
                acc = [RationalElement.zero(p) for _ in range(ncols)]
                for s in seed_rows:
                    c = random_element(rng, p, ["x"], 1)
                    acc = [a + c * e for a, e in zip(acc, s)]
                rows.append(acc)
            m = FFMatrix(p, [sparse(a) for a in rows], ncols)
            assert rank(m) <= r
            assert rank(m) + len(kernel(m)) == ncols


def test_kernel_mod_p():
    basis = kernel_mod_p([[1, 1, 0], [0, 0, 1]], 2)
    assert len(basis) == 1
    assert list(basis[0]) == [1, 1, 0]
    a = np.array([[2, 1], [4, 2]])
    basis = kernel_mod_p(a, 5)
    assert len(basis) == 1
    v = basis[0]
    assert ((a @ v) % 5 == 0).all()
    assert kernel_mod_p([[1, 0], [0, 1]], 3) == []
