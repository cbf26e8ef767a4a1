"""Constructive two-chart glueing over A = W(o_K), B = W(K).

A rank-d bundle on the punctured spectrum is free data on the charts
Spec A[1/p] and Spec B, glued over B[1/p] by a transition matrix T.  The
pipeline factors T = U * Q^(-1) with U invertible over A[1/p] and Q
invertible over W(K); the columns of Q then generate the global sections
H0 = Q * A^d, and the certificate T*Q - U == 0 is checkable by direct Witt
arithmetic at precision.

The factorization runs a small Birkhoff-style elimination: right column
operations over W(K) triangularize T (every nonzero element of W(K)[1/p]
is a p-power times a unit), and the leftover entries blocking A[1/p]
membership are removed by an atomic two-column move built around the
identity
    [[1, 0], [p^-a [c], 1]] * [[p^a, [c^-1]], [-[c], 0]] = [[p^a, [c^-1]], [0, p^-a]]
whose right factor has determinant 1 over W(K) and whose product has
entries in A[1/p].
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import (NotAFactorizationError, PrecisionError,
                     UnsupportedFormError, required)
from .hahn import HahnSeries
from .values import (Frozen, Rat, Zp1, gamma_from_fraction,
                     gamma_from_json, gamma_zero, is_prime)
from .witt import (WittVec, _and3, ring_membership, teichmuller, witt_add,
                   witt_mul, witt_neg, witt_unit_inverse)

Matrix = List[List[WittVec]]

_MAX_ELIM_STEPS = 120


# Working coordinate length for matrix arithmetic: one below the table
# cap, since per-operation cost grows steeply with the level.
_WORK_LEN = 5


# -- matrices of Witt vectors ----------------------------------------------


def mat_identity(p: int, group: str, d: int, prec_n: int) -> Matrix:
    return [[WittVec.one(p, group, prec_n) if i == j
             else WittVec.zero(p, group, prec_n)
             for j in range(d)] for i in range(d)]


def _trunc_len(v: WittVec, maxlen: int) -> WittVec:
    v = v.normalized()
    if len(v.coords) <= maxlen:
        return v
    return WittVec._of(v.p, v.group, v.p_min, v.coords[:maxlen])


def _wmul(a: WittVec, b: WittVec) -> WittVec:
    # Only an operand with no coordinate left after normalized() is exactly
    # zero; a zero under a cap goes through witt_mul, which keeps the cap.
    if not a.normalized().coords or not b.normalized().coords:
        n = min(a.prec_n + b.p_min, b.prec_n + a.p_min) - (a.p_min + b.p_min)
        return WittVec._of(a.p, a.group, a.p_min + b.p_min,
                           (HahnSeries.zero(a.p, a.group),) * max(n, 1))
    return witt_mul(_trunc_len(a, _WORK_LEN), _trunc_len(b, _WORK_LEN))


def _wadd(a: WittVec, b: WittVec) -> WittVec:
    """witt_add with the aligned window truncated to the working length."""
    a, b = a.normalized(), b.normalized()
    if not a.coords or not b.coords:
        # one side is zero up to its window: the sum is the other side,
        # truncated to the common precision
        z, x = (a, b) if not a.coords else (b, a)
        prec = min(z.prec_n, x.prec_n)
        keep = prec - x.p_min
        if keep <= 0:
            return WittVec._of(x.p, x.group, prec, ())
        return WittVec._of(x.p, x.group, x.p_min, x.coords[:keep])
    allowed = min(a.p_min, b.p_min) + _WORK_LEN

    def trunc(v: WittVec) -> WittVec:
        keep = allowed - v.p_min
        if keep >= len(v.coords):
            return v
        if keep <= 0:
            raise PrecisionError("p-adic windows too far apart for the table cap")
        return WittVec._of(v.p, v.group, v.p_min, v.coords[:keep])

    return witt_add(trunc(a), trunc(b))


def _wsub(a: WittVec, b: WittVec) -> WittVec:
    return _wadd(a, witt_neg(b))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    d, e, f = len(a), len(b), len(b[0])
    out = []
    for i in range(d):
        row = []
        for j in range(f):
            acc = _wmul(a[i][0], b[0][j])
            for k in range(1, e):
                acc = _wadd(acc, _wmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[_wsub(x, y) for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def det_witt(m: Matrix) -> WittVec:
    d = len(m)
    if d == 1:
        return m[0][0]
    acc: Optional[WittVec] = None
    for j in range(d):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = _wmul(m[0][j], det_witt(minor))
        if j % 2:
            term = witt_neg(term)
        acc = term if acc is None else _wadd(acc, term)
    return acc


def mat_adjugate(m: Matrix) -> Matrix:
    d = len(m)
    if d == 1:
        return [[WittVec.one(m[0][0].p, m[0][0].group, m[0][0].prec_n)]]
    adj = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [row[:i] + row[i + 1:]
                     for k, row in enumerate(m) if k != j]
            c = det_witt(minor)
            if (i + j) % 2:
                c = witt_neg(c)
            adj[i][j] = c
    return adj


def mat_inverse(m: Matrix) -> Matrix:
    """Inverse over the fraction field W(K)[1/p] at precision (d <= 3 in tests)."""
    det = det_witt(m)
    det_inv = witt_unit_inverse(det)
    adj = mat_adjugate(m)
    return [[_wmul(x, det_inv) for x in row] for row in adj]


def mat_is_zero(m: Matrix) -> bool:
    return all(e.is_zero() for row in m for e in row)


# -- glue data --------------------------------------------------------------


class GlueDatum(Frozen):
    """Transition matrix given as a product of structured atoms.

    Atoms (applied left to right):
      ("diag", ((a_1, gamma_1), ..., (a_d, gamma_d)))   diag(p^a_i [t^gamma_i])
      ("perm", (s_0, ..., s_{d-1}))                     column permutation
      ("elem", i, j, mu)                                I + mu * E_{ij}, mu a WittVec
    """
    p: int
    group: str
    rank: int
    factors: Tuple[tuple, ...]
    prec_n: int
    gamma_max: Fraction

    def matrix(self) -> Matrix:
        """Assemble T, padding internal precision so that negative p-levels
        in the atoms do not starve the product of its p^N window."""
        pad = 1
        for atom in self.factors:
            if atom[0] == "diag":
                pad += sum(abs(a) for a, _ in atom[1])
            elif atom[0] == "elem":
                pad += max(0, -atom[3].p_min)
        n = self.prec_n + pad
        m = mat_identity(self.p, self.group, self.rank, n)
        for atom in self.factors:
            m = mat_mul(m, self._atom_matrix(atom, n))
        return m

    def _atom_matrix(self, atom: tuple, n: int) -> Matrix:
        kind = atom[0]
        d, p, group = self.rank, self.p, self.group
        if kind == "diag":
            m = mat_identity(p, group, d, n)
            for i, (a, gamma) in enumerate(atom[1]):
                g = _as_gamma(gamma, group, p)
                m[i][i] = teichmuller(HahnSeries.t_pow(p, g), n).pshift(a)
            return m
        if kind == "perm":
            perm = atom[1]
            m = [[WittVec.zero(p, group, n) for _ in range(d)] for _ in range(d)]
            for j, i in enumerate(perm):
                m[i][j] = WittVec.one(p, group, n)
            return m
        if kind == "elem":
            _, i, j, mu = atom
            if i == j:
                raise UnsupportedFormError("elementary atom needs i != j")
            m = mat_identity(p, group, d, n)
            m[i][j] = mu
            return m
        raise UnsupportedFormError(f"unknown atom kind {kind!r}")

    def to_json(self):
        atoms = []
        for atom in self.factors:
            if atom[0] == "diag":
                atoms.append({"kind": "diag",
                              "entries": [[a, _as_gamma(g, self.group, self.p).to_json()]
                                          for a, g in atom[1]]})
            elif atom[0] == "perm":
                atoms.append({"kind": "perm", "perm": list(atom[1])})
            else:
                atoms.append({"kind": "elem", "i": atom[1], "j": atom[2],
                              "mu": atom[3].to_json()})
        return {"p": self.p, "group": self.group, "rank": self.rank,
                "N": self.prec_n,
                "gamma_max": {"num": self.gamma_max.numerator,
                              "den": self.gamma_max.denominator},
                "factors": atoms}


def _as_gamma(g, group, p):
    """A diag atom's gamma as a group element (atoms may carry rationals)."""
    return gamma_from_fraction(g, group, p) if isinstance(g, (Fraction, int)) else g


def glue_datum_from_json(obj) -> GlueDatum:
    """Parse ``to_json`` output; malformed input raises ``ValueError``."""
    from .witt import witt_from_json
    if not isinstance(obj, dict):
        raise ValueError(f"expected a glue datum object, got {obj!r}")
    p, group, rank, prec_n = (required(obj, key, "glue datum")
                              for key in ("p", "group", "rank", "N"))
    if not (is_prime(p) and type(rank) is int and rank >= 1
            and type(prec_n) is int and prec_n >= 1):
        raise ValueError(f"glue datum needs a prime p, an int rank >= 1 and "
                         f"an int N >= 1, got p={p!r}, rank={rank!r}, N={prec_n!r}")
    gamma_max = Rat.from_json(required(obj, "gamma_max", "glue datum"), p).value
    atoms = required(obj, "factors", "glue datum")
    if not isinstance(atoms, list):
        raise ValueError(f"glue datum needs a list of factors, got {atoms!r}")
    factors = []
    for n, atom in enumerate(atoms):
        if not (isinstance(atom, dict)
                and atom.get("kind") in ("diag", "perm", "elem")):
            raise ValueError(f"factor {atom!r} is not an object of kind "
                             f"diag, perm or elem")
        owner = f"{atom['kind']} atom {n}"
        if atom["kind"] == "diag":
            entries = required(atom, "entries", owner)
            if not (isinstance(entries, list) and len(entries) == rank
                    and all(isinstance(e, list) and len(e) == 2
                            and type(e[0]) is int for e in entries)):
                raise ValueError(f"diag atom needs {rank} entries [a, gamma] "
                                 f"with integer a, got {entries!r}")
            factors.append(("diag", tuple(
                (a, gamma_from_json(g, group, p)) for a, g in entries)))
        elif atom["kind"] == "perm":
            perm = required(atom, "perm", owner)
            if not (isinstance(perm, list)
                    and all(type(s) is int for s in perm)
                    and sorted(perm) == list(range(rank))):
                raise ValueError(f"perm atom {perm!r} is not a permutation "
                                 f"of 0..{rank - 1}")
            factors.append(("perm", tuple(perm)))
        else:
            i, j, mu = (required(atom, key, owner) for key in ("i", "j", "mu"))
            if not (type(i) is int and type(j) is int
                    and i != j and 0 <= i < rank and 0 <= j < rank):
                raise ValueError(f"elem atom needs distinct indices in "
                                 f"0..{rank - 1}, got i={i!r}, j={j!r}")
            mu = witt_from_json(mu)
            if (mu.p, mu.group) != (p, group):
                raise ValueError(f"{owner}: mu is over p={mu.p}, group "
                                 f"{mu.group!r}, but the datum's p and group "
                                 f"are p={p}, group {group!r}")
            factors.append(("elem", i, j, mu))
    return GlueDatum(p, group, rank, tuple(factors), prec_n, gamma_max)


# -- Birkhoff-style elimination --------------------------------------------


def _col_addmul(m: Matrix, q: Matrix, dst: int, src: int, coeff: WittVec) -> None:
    """col_dst += coeff * col_src, mirrored on the op accumulator q."""
    for mat in (m, q):
        for row in mat:
            row[dst] = _wadd(row[dst], _wmul(coeff, row[src]))


def _col_scale(m: Matrix, q: Matrix, k: int, coeff: WittVec) -> None:
    for mat in (m, q):
        for row in mat:
            row[k] = _wmul(row[k], coeff)


def _col_swap(m: Matrix, q: Matrix, i: int, j: int) -> None:
    for mat in (m, q):
        for row in mat:
            row[i], row[j] = row[j], row[i]


def _col_pair_move(m: Matrix, q: Matrix, j: int, i: int,
                   q11: WittVec, q12: WittVec, q21: WittVec, q22: WittVec) -> None:
    """(col_j, col_i) <- (q11*col_j + q21*col_i, q12*col_j + q22*col_i)."""
    for mat in (m, q):
        for row in mat:
            cj, ci = row[j], row[i]
            row[j] = _wadd(_wmul(q11, cj), _wmul(q21, ci))
            row[i] = _wadd(_wmul(q12, cj), _wmul(q22, ci))


def _clip_to_wk(coeff: WittVec, msg: str) -> Optional[WittVec]:
    """Drop negative p-levels of coeff that carry no certain content (they are
    exactly zero whenever the op divides evenly; caps can hide that).  Raises
    if a negative level certainly has content; returns None when nothing at
    level >= 0 is known."""
    cn = coeff.normalized()
    if cn.p_min >= 0:
        return cn
    drop = min(-cn.p_min, len(cn.coords))
    if any(c.terms for c in cn.coords[:drop]):
        raise NotAFactorizationError(msg)
    coords = cn.coords[drop:]
    if not coords:
        return None
    return WittVec._of(cn.p, cn.group, 0, coords)


def _low_truncation(x: WittVec, m: int) -> WittVec:
    """The levels-below-m prefix of the Teichmuller expansion (an element)."""
    xn = x.normalized()
    keep = max(0, m - xn.p_min)
    length = max(x.prec_n - xn.p_min, keep, 1)
    zero = HahnSeries.zero(x.p, x.group)
    coords = xn.coords[:keep] + tuple(zero for _ in range(length - keep))
    return WittVec._of(x.p, x.group, xn.p_min, coords)


def _first_bad_term(x: WittVec, below_level: int):
    """Lowest level n < below_level whose coordinate has negative valuation."""
    xn = x.normalized()
    for i, c in enumerate(xn.coords):
        level = xn.p_min + i
        if level >= below_level:
            break
        if c.terms and c.valuation().sign() < 0:
            return level, c
        if not c.terms and not c.is_exact() and c.prec.sign() < 0:
            raise PrecisionError("coordinate sign hidden by t-precision cap")
    return None


def _triangularize(m: Matrix, q: Matrix) -> None:
    """Right W(K) column ops bringing m to lower-triangular form."""
    d = len(m)
    for r in range(d):
        # pivot: remaining column whose row-r entry has minimal p-valuation
        best, best_m = None, None
        for j in range(r, d):
            e = m[r][j].normalized()
            if e.coords and not e.coords[0].is_zero():
                if best is None or e.p_min < best_m:
                    best, best_m = j, e.p_min
        if best is None:
            raise NotAFactorizationError(
                f"transition matrix singular at precision (row {r})")
        if best != r:
            _col_swap(m, q, r, best)
        pivot_inv = witt_unit_inverse(m[r][r])
        for j in range(r + 1, d):
            e = m[r][j]
            if e.is_zero():
                continue
            coeff = _clip_to_wk(witt_neg(_wmul(e, pivot_inv)),
                                "pivot was not minimal")
            if coeff is None:
                continue
            _col_addmul(m, q, j, r, coeff)


def _beta_clear(m: Matrix, q: Matrix) -> None:
    """Remove, by right ops, the parts of below-diagonal entries at p-levels
    >= the column diagonal level whenever they block A[1/p] membership."""
    d = len(m)
    for j in range(d):
        for i in range(j + 1, d):
            entry = m[i][j]
            if entry.is_zero() or ring_membership(entry, "A[1/p]") is True:
                continue
            mi = m[i][i].normalized().p_min
            high = _wsub(entry, _low_truncation(entry, mi))
            hn = high.normalized()
            if not hn.coords or hn.p_min >= entry.prec_n:
                continue
            if ring_membership(high, "A[1/p]") is True:
                continue
            diag_inv = witt_unit_inverse(m[i][i])
            coeff = _clip_to_wk(witt_neg(_wmul(high, diag_inv)),
                                "high part not divisible by diagonal")
            if coeff is None:
                continue
            _col_addmul(m, q, j, i, coeff)


def _atomic_move(m: Matrix, q: Matrix, j: int, i: int, n: int, c: HahnSeries) -> None:
    """Clear the term p^n[c] (v(c) < 0, n below the diagonal level) of entry
    (i, j) with a determinant-unit column-pair move over W(K)."""
    prec = m[i][j].prec_n - m[i][j].p_min + 4
    diag = m[i][i].normalized()
    mi = diag.p_min
    a = mi - n
    if a <= 0:
        raise NotAFactorizationError("atomic move needs a level deficit")
    unit = WittVec._of(diag.p, diag.group, 0, diag.coords)
    unit_inv = witt_unit_inverse(unit)
    c_w = teichmuller(c, prec)
    c_inv = teichmuller(c.invert(), prec)
    q11 = WittVec.p_power(m[i][j].p, m[i][j].group, a, prec)
    q12 = c_inv
    q21 = witt_neg(_wmul(c_w, unit_inv))
    q22 = WittVec.zero(m[i][j].p, m[i][j].group, prec)
    _col_pair_move(m, q, j, i, q11, q12, q21, q22)


def _det_is_a_unit(m: Matrix) -> Optional[bool]:
    det = det_witt(m).normalized()
    if not det.coords or det.coords[0].is_zero():
        return False if det.coords and det.coords[0].is_exact() else None
    lead = det.coords[0].valuation()
    return lead.sign() == 0


def birkhoff_factor(datum: GlueDatum,
                    t: Optional[Matrix] = None) -> Tuple[Matrix, Matrix]:
    """T = U * Q^(-1): returns (U, Q) with U over A[1/p], Q over GL_d(W(K)).

    ``t`` is T as ``datum.matrix()`` assembles it, when the caller
    already has it; it is not modified.
    """
    if t is None:
        t = datum.matrix()
    d = datum.rank
    m = [row[:] for row in t]
    q = mat_identity(datum.p, datum.group, d, datum.prec_n)
    seen = {}  # matrix at the start of a step -> that step
    for step in range(_MAX_ELIM_STEPS):
        # a step reads only m, so a matrix seen before means a cycle
        key = tuple((e.p_min, tuple((c.terms, c.prec) for c in e.coords))
                    for row in m for e in row)
        if key in seen:
            raise NotAFactorizationError(
                f"elimination cycles: step {step} repeats the matrix of "
                f"step {seen[key]}")
        seen[key] = step
        entries_ok = all(ring_membership(e, "A[1/p]") is True for row in m for e in row)
        if entries_ok:
            du = _det_is_a_unit(m)
            if du is True:
                return m, q
            if du is None:
                raise PrecisionError("determinant unit status hidden by caps")
        _triangularize(m, q)
        _beta_clear(m, q)
        worst = None
        for j in range(d):
            for i in range(j + 1, d):
                mi = m[i][i].normalized().p_min
                bad = _first_bad_term(m[i][j], mi)
                if bad is not None and (worst is None or bad[0] < worst[2]):
                    worst = (j, i, bad[0], bad[1])
        if worst is not None:
            j, i, n, c = worst
            _atomic_move(m, q, j, i, n, c)
            continue
        # entries clean up to diagonal units: strip a Teichmuller leading
        # unit, or normalize a diagonal whose higher coordinates block
        # A[1/p] membership, one column at a time
        moved = False
        for k in range(d):
            dk = m[k][k].normalized()
            if dk.coords and dk.coords[0].terms:
                # a diagonal blocking A[1/p] membership sheds its whole
                # W(K)-unit part; one in A[1/p] whose leading Teichmuller
                # still blocks the determinant sheds just that factor
                if ring_membership(m[k][k], "A[1/p]") is not True:
                    coeff = witt_unit_inverse(m[k][k]).pshift(dk.p_min)
                    _col_scale(m, q, k, coeff)
                    moved = True
                    break
                if dk.coords[0].valuation().sign() != 0:
                    c_inv = teichmuller(dk.coords[0].invert(), _WORK_LEN)
                    _col_scale(m, q, k, c_inv)
                    moved = True
                    break
        if not moved and not all(ring_membership(e, "A[1/p]") is True
                                 for row in m for e in row):
            raise NotAFactorizationError("elimination stalled")
    raise NotAFactorizationError("elimination exceeded the step budget")


# -- column reduction over a valuation ring -----------------------------------


def _column_reduce(cols: Sequence[Sequence[HahnSeries]]):
    """Column reduction over a valuation ring.  The pivot is the first
    least-valuation entry, in column-then-row order, among unused rows; its
    row is cleared in the other columns by the product with its
    ``invert()``.  Returns the pivot column indices and the pivot columns as
    reduced when chosen, both in pivot order."""
    work = [(k, list(col)) for k, col in enumerate(cols)]
    d = len(work[0][1]) if work else 0
    indices, pivots, used_rows = [], [], []
    while len(used_rows) < d:
        pivot = None  # (work position, row, valuation)
        for wi, (_, col) in enumerate(work):
            for r in range(d):
                if r in used_rows or col[r].is_zero():
                    continue
                v = col[r].valuation()
                if pivot is None or v < pivot[2]:
                    pivot = (wi, r, v)
        if pivot is None:
            break
        wi, r, _ = pivot
        k, pcol = work.pop(wi)
        pe_inv = pcol[r].invert()
        for _, col in work:
            if not col[r].is_zero():
                ratio = col[r] * pe_inv
                col[:] = [a - ratio * b for a, b in zip(col, pcol)]
        indices.append(k)
        pivots.append(pcol)
        used_rows.append(r)
    return indices, pivots


def valuation_lattice_dim(gens: Sequence[Sequence[HahnSeries]]):
    """dim of (o_K-span of gens) tensor kappa, by column reduction over o_K.

    Returns (dim, free_rank_d, basis): dim <= d always; the pivot columns are
    an o_K-basis of the span (free of rank dim), and free_rank_d iff dim == d.
    """
    if not gens:
        return 0, False, []
    _, basis = _column_reduce(gens)
    dim = len(basis)
    return dim, dim == len(gens[0]), basis


# -- graded lattice over kappa((pbar)) -------------------------------------


def graded_image(v: WittVec, prec_n: int) -> HahnSeries:
    """Image in kappa((pbar)), a Hahn series with integer exponents capped at
    pbar^min(prec_n, N(v)): the level-n coefficient is the residue (t^0
    coefficient) of the n-th Teichmuller coordinate."""
    zero = gamma_zero(v.group, v.p)
    terms = tuple((Zp1(v.p_min + i, v.p), a)
                  for i, coord in enumerate(v.coords)
                  for g, a in coord.terms if g == zero)
    return HahnSeries(v.p, "Zp1", terms, Zp1(min(prec_n, v.prec_n), v.p))


class GradedBasisResult(Frozen):
    indices: List[int]
    defect: int  # d - achieved lattice rank
    basis: List[List[WittVec]]


def graded_lattice_basis(gens: List[List[WittVec]], w: Matrix,
                         datum: GlueDatum) -> GradedBasisResult:
    """Select d generators whose graded images form a kappa[[pbar]]-lattice
    basis, by ``_column_reduce`` over the discrete valuation ring F_p[[pbar]].

    Column k of ``w`` is generator k in the Q-chart coordinates
    (Q^-1 * gens[k]), where the graded module of H0 is free; the images are
    the residues of its entries (``graded_image``).  Every image is capped,
    so a pivot inverts at its relative precision.
    """
    d = datum.rank
    chosen, _ = _column_reduce([[graded_image(w[i][k], datum.prec_n)
                                 for i in range(d)] for k in range(len(gens))])
    return GradedBasisResult(chosen, d - len(chosen), [gens[i] for i in chosen])


# -- transfer of generators -------------------------------------------------


class TransferCertificate(Frozen):
    ok: Optional[bool]  # None: a coefficient's A-membership is undecided
    expressions: List[List[WittVec]]  # row per generator: coefficients r_i
    detail: str = ""


def transfer_generators_check(w: Matrix, indices: List[int],
                              datum: GlueDatum) -> TransferCertificate:
    """Express each generator as sum r_i v_i over the selected basis
    v_i = gens[indices[i]] and certify r_i in A.  The basis is a basis
    modulo p, so a p-pole in any r_i means it fails modulo p.  In the
    Q-chart coordinates of ``w`` (column k is Q^-1 times generator k) the
    basis is the standard one reordered, so r_i for generator k is entry
    (indices[i], k).  A p-pole is a coordinate below level 0 with terms;
    a capped zero there may be 0, so it leaves membership undecided."""
    d = datum.rank
    exprs = [[w[indices[i]][k] for i in range(d)] for k in range(d)]
    undecided = False  # a certified failure of a later coefficient dominates
    for r in exprs:
        if any(c.terms for x in r for c in x.coords[:max(0, -x.p_min)]):
            return TransferCertificate(
                False, exprs,
                "coefficients not divisible: candidate basis fails modulo p")
        for x in r:
            mem = ring_membership(x, "A")
            if mem is False:
                return TransferCertificate(
                    False, exprs, "coefficient outside A at precision")
            undecided |= mem is None
    if undecided:
        return TransferCertificate(
            None, exprs, "coefficient membership indeterminate")
    return TransferCertificate(True, exprs)


# -- full pipeline ----------------------------------------------------------


class GlueCertificate(Frozen):
    datum: GlueDatum
    basis: List[List[WittVec]]
    u: Matrix
    q: Matrix
    residual_zero: bool
    u_in_a1p: Optional[bool]
    q_in_wk: Optional[bool]
    transfer: TransferCertificate

    @property
    def ok(self) -> Optional[bool]:
        return _and3(self.residual_zero, self.u_in_a1p, self.q_in_wk,
                     self.transfer.ok)

    def to_json(self):
        return {
            "rank": self.datum.rank,
            "basis": [[x.to_json() for x in col] for col in self.basis],
            "U": [[x.to_json() for x in row] for row in self.u],
            "Q": [[x.to_json() for x in row] for row in self.q],
            "residual": "zero" if self.residual_zero else "nonzero",
            "U_in_A[1/p]": self.u_in_a1p,
            "Q_in_W(K)": self.q_in_wk,
            "transfer_ok": self.transfer.ok,
        }


def glue_to_free(datum: GlueDatum, table=None) -> GlueCertificate:
    """birkhoff_factor -> graded_lattice_basis -> transfer_generators_check,
    returning the two-chart factorization certificate.  The generators of
    H0 at precision are the columns of Q."""
    # ``table`` is ignored: bench/glue_cert.py still passes get_table(p)
    t = datum.matrix()
    u, q = birkhoff_factor(datum, t)
    d = datum.rank
    gens = [[q[i][k] for i in range(d)] for k in range(d)]
    # column k: generator k (column k of Q) in the Q-chart coordinates
    w = mat_mul(mat_inverse(q), q)
    graded = graded_lattice_basis(gens, w, datum)
    if graded.defect:
        raise NotAFactorizationError(
            f"graded lattice rank defect {graded.defect} at precision")
    transfer = transfer_generators_check(w, graded.indices, datum)
    residual = mat_sub(mat_mul(t, q), u)
    u_ok = _and3(*(ring_membership(x, "A[1/p]") for row in u for x in row))
    q_ok = _and3(*(ring_membership(x, "W(K)") for row in q for x in row))
    return GlueCertificate(datum, graded.basis, u, q,
                           mat_is_zero(residual), u_ok, q_ok, transfer)


def fully_faithful_probe(x: WittVec) -> bool:
    """A[1/p] and W(K) membership jointly imply A membership (vacuous when
    either fails or is indeterminate)."""
    a1p = ring_membership(x, "A[1/p]")
    wk = ring_membership(x, "W(K)")
    if a1p is True and wk is True:
        return ring_membership(x, "A") is True
    return True
