"""Integer ghost-component oracle for Witt vectors with F_p coordinates.

Independent of the structure-polynomial tables in ``wittkit.wittpoly``: a
Witt vector (x_0, ..., x_{n-1}) over F_p maps to its ghost components
w_k = sum_{i<=k} p^i x_i^(p^(k-i)) over the integers, ring operations act
componentwise on ghost vectors, and coordinates are read back by the ghost
recursion.  Exact over Z, so no modular bookkeeping can hide an error.
"""


def ghost(xs, p):
    return tuple(sum(p ** i * xs[i] ** (p ** (k - i)) for i in range(k + 1))
                 for k in range(len(xs)))


def unghost(ws, p):
    """Coordinates mod p of the Witt vector whose ghost vector is ws."""
    xs = []
    for k, w in enumerate(ws):
        acc = w - sum(p ** i * xs[i] ** (p ** (k - i)) for i in range(k))
        q, r = divmod(acc, p ** k)
        if r:
            raise ValueError("not a ghost vector")
        xs.append(q % p)
    return tuple(xs)


def add(xs, ys, p):
    return unghost(tuple(a + b for a, b in zip(ghost(xs, p), ghost(ys, p))), p)


def mul(xs, ys, p):
    return unghost(tuple(a * b for a, b in zip(ghost(xs, p), ghost(ys, p))), p)


def neg(xs, p):
    return unghost(tuple(-a for a in ghost(xs, p)), p)


def sub(xs, ys, p):
    return add(xs, neg(ys, p), p)
