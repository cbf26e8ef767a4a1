import random
from fractions import Fraction

import pytest

from wittkit import glueing
from wittkit.glueing import (GlueDatum, birkhoff_factor, det_witt,
                             fully_faithful_probe, glue_datum_from_json,
                             glue_to_free, graded_image,
                             graded_lattice_basis, mat_identity,
                             mat_inverse, mat_is_zero, mat_mul, mat_sub,
                             transfer_generators_check, valuation_lattice_dim)
from wittkit.hahn import HahnSeries
from wittkit.values import Zp1
from wittkit.witt import (WittVec, ring_membership, teichmuller,
                          witt_equal_at_precision, witt_mul)

from conftest import rand_witt


def tpow(q, p=2):
    return HahnSeries.t_pow(p, Zp1(Fraction(q), p))


def simple_datum(factors, d=2, N=4):
    return GlueDatum(p=2, group="Zp1", rank=d, factors=tuple(factors),
                     prec_n=N, gamma_max=Fraction(8))


# -- matrix helpers ---------------------------------------------------------


def test_mat_inverse_round_trip():
    m = [[teichmuller(tpow(0), 5), teichmuller(tpow(1), 5)],
         [teichmuller(tpow(-1), 5), teichmuller(tpow(2), 5)]]
    inv = mat_inverse(m)
    ident = mat_identity(2, "Zp1", 2, 3)
    assert mat_is_zero(mat_sub(mat_mul(m, inv), ident))


def test_det_of_identity_is_one():
    ident = mat_identity(2, "Zp1", 3, 4)
    det = det_witt(ident).normalized()
    assert det.p_min == 0 and det.coords[0] == tpow(0)


# -- graded series ----------------------------------------------------------


def test_graded_image_reads_residues():
    h = WittVec(2, "Zp1", -1, (tpow(0), tpow(1), tpow(0)))
    img = graded_image(h, 5)
    # only the t^0 coordinates survive reduction to the residue field, and
    # the image is known below pbar^N(h) = pbar^2
    assert img == HahnSeries(2, "Zp1", ((Zp1(-1, 2), 1), (Zp1(1, 2), 1)),
                             Zp1(2, 2))
    assert graded_image(h, 1).prec == Zp1(1, 2)


def test_graded_lattice_basis_keeps_the_cap_of_a_zero_product():
    # column 1 minus pbar * column 0 leaves 1 + O(pbar) in row 1: the
    # product pbar * (0 mod pbar^0) is 0 mod pbar^1, not mod pbar^0
    one = HahnSeries.one(2, "Zp1")
    zero = HahnSeries.zero(2, "Zp1")
    w = [[WittVec(2, "Zp1", 0, (one,)), WittVec(2, "Zp1", 1, (one, zero))],
         [WittVec(2, "Zp1", 0, ()), WittVec(2, "Zp1", 0, (one,))]]
    gens = [[w[i][k] for i in range(2)] for k in range(2)]
    out = graded_lattice_basis(gens, w, simple_datum([], d=2, N=4))
    assert (out.indices, out.defect) == ([0, 1], 0)


def test_wmul_keeps_the_cap_of_a_capped_zero():
    z = HahnSeries.zero(2, "Zp1", Zp1(3, 2))
    a = WittVec(2, "Zp1", 0, (z, z))
    b = WittVec(2, "Zp1", 0, (tpow(0), tpow(0)))
    out, want = glueing._wmul(a, b), witt_mul(a, b)
    assert (out.p_min, out.coords) == (want.p_min, want.coords)
    assert [c.prec for c in out.coords] == [Zp1(3, 2), Zp1(3, 2)]
    # an exactly zero operand still gives exact zeros over the window
    exact = glueing._wmul(WittVec.zero(2, "Zp1", 2), b)
    assert exact.is_zero() and all(c.is_exact() for c in exact.coords)


def test_valuation_lattice_dim():
    full = [[tpow(0), tpow(1)], [tpow(2), tpow(0)]]
    dim, free, basis = valuation_lattice_dim(full)
    assert dim == 2 and free and len(basis) == 2
    dep = [[tpow(0), tpow(1)], [tpow(1), tpow(2)]]
    dim2, free2, _ = valuation_lattice_dim(dep)
    assert dim2 == 1 and not free2


# -- glue data --------------------------------------------------------------


def test_glue_datum_json_round_trip():
    mu = WittVec(2, "Zp1", -1, (tpow(Fraction(-1, 2)), tpow(1)))
    d = simple_datum([("diag", ((1, Fraction(2)), (-1, Fraction(-1)))),
                      ("perm", (1, 0)),
                      ("elem", 0, 1, mu)])
    back = glue_datum_from_json(d.to_json())
    # diag exponents normalize to group elements, so compare serialized forms
    assert back.to_json() == d.to_json()
    assert back.rank == d.rank and back.prec_n == d.prec_n


def test_datum_matrix_pads_negative_powers():
    d = simple_datum([("diag", ((-1, Fraction(0)), (2, Fraction(1))))])
    t = d.matrix()
    assert t[0][0].normalized().p_min == -1
    assert t[1][1].normalized().p_min == 2
    # the p^2 entry still shows a nonzero coordinate inside the window
    assert t[1][1].normalized().coords[0] == tpow(1)


# -- factorization on worked shapes -----------------------------------------


def test_birkhoff_on_diagonal_twist():
    d = simple_datum([("diag", ((1, Fraction(1)), (-1, Fraction(-2))))])
    u, q = birkhoff_factor(d)
    t = d.matrix()
    assert mat_is_zero(mat_sub(mat_mul(t, q), u))
    assert all(ring_membership(e, "A[1/p]") is True for row in u for e in row)
    assert all(ring_membership(e, "W(K)") is True for row in q for e in row)


def test_birkhoff_on_permutation():
    d = simple_datum([("perm", (1, 0))])
    cert = glue_to_free(d)
    assert cert.ok


def test_shear_with_negative_pole():
    # I + mu E_01 with mu = p^-1 [t^-2] + [t^(1/2)]: the debugged stall shape
    mu = WittVec(2, "Zp1", -1, (tpow(-2), tpow(Fraction(1, 2))))
    d = simple_datum([("elem", 0, 1, mu)])
    cert = glue_to_free(d)
    assert cert.ok


def test_shear_then_twist():
    mu = WittVec(2, "Zp1", 0, (tpow(Fraction(-3, 2)), tpow(0), tpow(1)))
    d = simple_datum([("elem", 1, 0, mu),
                      ("diag", ((1, Fraction(-1)), (0, Fraction(1))))])
    cert = glue_to_free(d)
    assert cert.ok
    assert cert.residual_zero and cert.transfer.ok


def test_rank_three_mixed():
    mu = WittVec(2, "Zp1", 0, (tpow(-1),))
    d = GlueDatum(p=2, group="Zp1", rank=3,
                  factors=(("elem", 2, 0, mu), ("perm", (1, 2, 0))),
                  prec_n=4, gamma_max=Fraction(8))
    cert = glue_to_free(d)
    assert cert.ok


def test_glue_to_free_inverts_q_once(monkeypatch):
    # one cofactor inverse of Q and one factorization per certificate: the
    # graded basis and the transfer check read Q^-1 Q instead
    calls = {"mat_inverse": 0, "birkhoff_factor": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(glueing, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(glueing, name, counted)
    mu = WittVec(2, "Zp1", 0, (tpow(Fraction(-3, 2)), tpow(0), tpow(1)))
    cert = glue_to_free(simple_datum([("elem", 1, 0, mu), ("perm", (1, 0))]))
    assert cert.ok
    assert calls == {"mat_inverse": 1, "birkhoff_factor": 1}


def test_transfer_expressions_follow_the_basis_order():
    # with the basis v = (gens[1], gens[0]), generator k is sum_i r_i v_i
    d = simple_datum([("diag", ((1, Fraction(1)), (-1, Fraction(-2))))])
    _, q = birkhoff_factor(d)
    w = mat_mul(mat_inverse(q), q)
    indices = [1, 0]
    cert = transfer_generators_check(w, indices, d)
    assert cert.ok
    # generator k of H0 is column k of Q
    basis = [[q[j][i] for i in indices] for j in range(2)]
    for k, r in enumerate(cert.expressions):
        combo = mat_mul(basis, [[x] for x in r])
        assert all(witt_equal_at_precision(combo[j][0], q[j][k])
                   for j in range(2))


def test_transfer_check_is_three_valued():
    # column k of w holds generator k's coefficients; a capped zero hides
    # one coefficient's membership in A, t^-1 is certainly outside A
    hidden = WittVec(2, "Zp1", 0, (HahnSeries.zero(2, "Zp1", Zp1(-1, 2)),))
    one, zero = teichmuller(tpow(0), 1), WittVec.zero(2, "Zp1", 1)
    outside = teichmuller(tpow(-1), 1)
    d = simple_datum([("perm", (0, 1))])
    undecided = transfer_generators_check([[hidden, zero], [zero, one]],
                                          [0, 1], d)
    assert undecided.ok is None
    assert undecided.detail == "coefficient membership indeterminate"
    # a certified failure dominates an earlier undecided coefficient
    failed = transfer_generators_check([[hidden, outside], [zero, one]],
                                       [0, 1], d)
    assert failed.ok is False
    assert failed.detail == "coefficient outside A at precision"


@pytest.mark.parametrize("pole", [1, 2])
def test_transfer_check_rejects_a_p_pole(pole):
    # a coefficient with a p-pole of any order fails the basis modulo p,
    # even after an undecided coefficient of an earlier generator
    hidden = WittVec(2, "Zp1", 0, (HahnSeries.zero(2, "Zp1", Zp1(-1, 2)),))
    one, zero = teichmuller(tpow(0), 2), WittVec.zero(2, "Zp1", 2)
    poled = teichmuller(tpow(1), 2).pshift(-pole)
    d = simple_datum([("perm", (0, 1))])
    cert = transfer_generators_check([[hidden, zero], [zero, poled]],
                                     [0, 1], d)
    assert cert.ok is False
    assert cert.detail == ("coefficients not divisible: candidate basis "
                           "fails modulo p")
    assert cert.expressions == [[hidden, zero], [zero, poled]]


def test_transfer_check_capped_zero_below_level_zero_is_undecided():
    # the only coordinate below level 0 is a capped zero: it may be 0, so
    # the coefficient may lie in A, and the check cannot fail it
    hidden_pole = WittVec(2, "Zp1", -1, (HahnSeries.zero(2, "Zp1", Zp1(3, 2)),
                                         tpow(0)))
    assert ring_membership(hidden_pole, "A") is None
    one, zero = teichmuller(tpow(0), 1), WittVec.zero(2, "Zp1", 1)
    d = simple_datum([("perm", (0, 1))])
    cert = transfer_generators_check([[hidden_pole, zero], [zero, one]],
                                     [0, 1], d)
    assert cert.ok is None
    assert cert.detail == "coefficient membership indeterminate"
    # a term below level 0 under the capped zero is a pole all the same
    poled = WittVec(2, "Zp1", -2, hidden_pole.coords[:1] + (tpow(0), tpow(0)))
    cert = transfer_generators_check([[poled, zero], [zero, one]], [0, 1], d)
    assert cert.ok is False
    assert cert.detail == ("coefficients not divisible: candidate basis "
                           "fails modulo p")


def test_h0_sections_certificates():
    # the generators of H0 are the columns of Q: each lies in W(K)^d and its
    # T-image, the matching column of U, in A[1/p]^d
    d = simple_datum([("diag", ((0, Fraction(1)), (1, Fraction(0))))])
    cert = glue_to_free(d)
    assert len(cert.q) == len(cert.q[0]) == 2
    assert cert.q_in_wk is True and cert.u_in_a1p is True


def test_trivial_datum_round_trips_to_standard_basis():
    # T in GL_d(A): H0 is A^d, and the recovered basis must be an
    # A-invertible change of the standard one
    mu = WittVec(2, "Zp1", 0, (tpow(1), tpow(2)))
    d = simple_datum([("elem", 0, 1, mu), ("perm", (1, 0))])
    cert = glue_to_free(d)
    assert cert.ok
    b = [[cert.basis[k][i] for k in range(2)] for i in range(2)]
    assert all(ring_membership(e, "A") is True for row in b for e in row)
    det = det_witt(b).normalized()
    assert det.p_min == 0 and det.coords[0].valuation().sign() == 0


def test_fully_faithful_probe_random(rng):
    for _ in range(200):
        x = rand_witt(rng, p_min=rng.randint(-2, 1))
        assert fully_faithful_probe(x)


# -- random structured family (small smoke copy of the acceptance run) -------


def _rand_mu(rng, N):
    p_min = rng.randint(-1, 1)
    ncoords = min(4, N + 1 - p_min)
    coords = []
    neg_budget = 2
    for i in range(ncoords):
        if rng.random() < 0.35 and i > 0:
            coords.append(HahnSeries.zero(2, "Zp1"))
            continue
        q = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
        if q < 0:
            if neg_budget == 0:
                q = -q
            else:
                neg_budget -= 1
        coords.append(tpow(q))
    if coords[0].is_zero():
        coords[0] = tpow(0)
    return WittVec(2, "Zp1", p_min, tuple(coords))


def rand_structured_datum(rng, d, N=4):
    atoms = []
    kind = rng.choice(["diag", "elem", "elem"]) if d > 1 else "diag"
    if kind == "diag":
        atoms.append(("diag", tuple(
            (rng.randint(-1, 2), Fraction(rng.randint(-2, 2)))
            for _ in range(d))))
    else:
        i = rng.randrange(d)
        j = rng.randrange(d)
        while j == i:
            j = rng.randrange(d)
        atoms.append(("elem", i, j, _rand_mu(rng, N)))
    if rng.random() < 0.5:
        second = rng.choice(["diag", "perm"]) if d > 1 else "diag"
        if second == "diag":
            atoms.append(("diag", tuple(
                (rng.randint(0, 1), Fraction(rng.randint(-1, 1)))
                for _ in range(d))))
        else:
            perm = list(range(d))
            rng.shuffle(perm)
            atoms.append(("perm", tuple(perm)))
    return GlueDatum(p=2, group="Zp1", rank=d, factors=tuple(atoms),
                     prec_n=N, gamma_max=Fraction(8))


def test_random_structured_family_smoke():
    rng = random.Random(11)
    for _ in range(12):
        d = rng.choice([1, 2, 2, 3])
        datum = rand_structured_datum(rng, d)
        assert glue_to_free(datum).ok
