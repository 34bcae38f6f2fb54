import pytest

from difftrap import (
    SubfieldDecl,
    constants,
    constants_at_stage,
    derive,
    kolchin_crosscheck,
    p_basis_of_constants_root,
    trap_up_to,
)
from difftrap.errors import AmbientTooSmallError, DepthExceededError, SizeCapError
from difftrap.independence import EngineConfig
from difftrap.pdecomp import p_decompose

from conftest import presentation


def d1_free_ambient():
    return presentation(
        "E",
        2,
        {"a": "1", "lam": "lam1", "lam1": "lam2", "lam2": "lam3", "lam3": None},
    )


def compositum_decl(amb):
    M = presentation("M", 2, {"u": "1", "w": "1"})
    return SubfieldDecl("M", M, {"u": amb.parse("a"), "w": amb.parse("a + lam^2")})


def test_constants_line_is_perfect():
    for p in (2, 3, 5):
        res = constants(presentation("P", p, {"x": "1"}))
        assert res.perfect and res.dim == 1
        assert res.basis_strings() == ["1"]


def test_constants_dim_two():
    res = constants(presentation("P", 2, {"x": "1", "y": "0"}))
    assert res.dim == 2 and not res.perfect
    assert sorted(res.basis_strings()) == ["1", "y"]
    for c in res.kernel_basis:
        assert derive(c, 0, res.presentation).is_zero()


def test_constants_bernoulli_pair_perfect():
    res = constants(presentation("P", 2, {"a": "a^3", "b": "b^5"}))
    assert res.perfect and res.dim == 1


def test_constants_requires_defined_images():
    with pytest.raises(DepthExceededError):
        constants(presentation("P", 2, {"x": None}))
    with pytest.raises(SizeCapError):
        constants(
            presentation("P", 2, {v: "0" for v in "abcde"}),
            EngineConfig(pmonomial_cap_exponent=4),
        )


def test_p_basis_root_extraction():
    amb = d1_free_ambient()
    sub = compositum_decl(amb)
    res = constants(sub.pres)
    assert res.dim == 2 and sorted(res.basis_strings()) == ["1", "u + w"]
    pairs = p_basis_of_constants_root(sub.pres, sub, amb)
    assert [(str(b), str(a)) for b, a in pairs] == [("u + w", "lam")]


def test_p_basis_root_empty_for_perfect():
    amb = presentation("E", 2, {"a": "1"})
    M = presentation("M", 2, {"u": "1"})
    sub = SubfieldDecl("M", M, {"u": amb.parse("a")})
    assert p_basis_of_constants_root(M, sub, amb) == []


def test_ambient_too_small():
    amb = presentation("E", 2, {"x": "1", "y": "0"})
    M = presentation("M", 2, {"u": "1", "w": "0"})
    sub = SubfieldDecl("M", M, {"u": amb.parse("x"), "w": amb.parse("y")})
    with pytest.raises(AmbientTooSmallError):
        p_basis_of_constants_root(M, sub, amb)


def test_trap_true_on_free_tower():
    amb = d1_free_ambient()
    sub = compositum_decl(amb)
    verdict, cert = trap_up_to(sub.pres, sub, amb, 2)
    assert verdict.is_true
    assert [str(e) for e in cert.derivative_family] == ["lam1", "lam2"]
    assert cert.order == 2


def test_trap_false_on_constant_root():
    amb = presentation("E", 2, {"a": "1", "lam": "0"})
    sub = compositum_decl(amb)
    verdict, cert = trap_up_to(sub.pres, sub, amb, 2)
    assert verdict.is_false
    assert "scalar 0" in verdict.certificate["witness"].get("note", "")


def test_trap_empty_family_true_for_perfect():
    amb = presentation("E", 2, {"a": "1"})
    M = presentation("M", 2, {"u": "1"})
    sub = SubfieldDecl("M", M, {"u": amb.parse("a")})
    verdict, cert = trap_up_to(M, sub, amb, 3)
    assert verdict.is_true and cert.p_basis == []


def test_trap_depth_exceeded():
    amb = presentation("E", 2, {"a": "1", "lam": "lam1", "lam1": None})
    sub = compositum_decl(amb)
    with pytest.raises(DepthExceededError):
        trap_up_to(sub.pres, sub, amb, 2)


def test_lemma_stage_perfect_after_adjoining_derivatives():
    # adjoin the root and its first derivative; the stage is perfect
    stage = presentation("stage", 2, {"a": "1", "lam": "lam1", "lam1": None})
    res = constants_at_stage(stage)
    assert res.perfect and res.dim == 1


def test_extracted_basis_spans_kernel():
    # p-monomials of the extracted set are independent over M^p and span
    # the constants: kernel dimension equals p^|B|
    amb = d1_free_ambient()
    sub = compositum_decl(amb)
    res = constants(sub.pres)
    pairs = p_basis_of_constants_root(sub.pres, sub, amb)
    assert res.dim == sub.pres.p ** len(pairs)
    perfect = constants(presentation("P", 3, {"x": "1"}))
    assert perfect.dim == 3**0


def test_derivative_orders_flag():
    from difftrap.constants import derivative_orders

    mixed = derivative_orders(2, 2, mixed=True)
    pure = derivative_orders(2, 2, mixed=False)
    assert len(mixed) == 5 and (1, 1) in mixed
    assert len(pure) == 4 and (1, 1) not in pure
    # single derivation: both conventions coincide
    assert derivative_orders(1, 3, mixed=True) == derivative_orders(1, 3, mixed=False)


def test_kolchin_crosscheck_examples():
    base1 = presentation("B1", 2, {"x": "1"})
    v = kolchin_crosscheck(base1, ["lam"])
    assert v.is_true and v.certificate["stage_dim"] == 1
    base2 = presentation("B2", 2, {"x": "1", "y": "0"})
    v = kolchin_crosscheck(base2, ["lam"])
    assert v.is_true and v.certificate["stage_dim"] == 2
    assert sorted(v.certificate["stage_basis"]) == ["1", "y"]
    assert kolchin_crosscheck(base1, []).is_true


def test_stage_decomposition_consistency():
    # sanity for the frontier construction: fresh names do not collide
    stage = presentation("S", 2, {"lam": None, "lam__d1": "0"})
    res = constants_at_stage(stage)
    assert res.dim >= 1


def test_kolchin_crosscheck_two_derivations():
    # the depth-1 tower adds one fresh symbol per derivation, pushing the
    # stage to five generators; lift the row cap accordingly
    base = presentation(
        "B", 2, [{"x": "1", "y": "0"}, {"x": "0", "y": "0"}], m=2
    )
    assert constants(base).dim == 2
    v = kolchin_crosscheck(base, ["lam"], EngineConfig(pmonomial_cap_exponent=5))
    assert v.is_true and v.certificate["stage_dim"] == 2
