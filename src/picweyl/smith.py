"""Smith normal form over the integers, with both transform matrices, and
the exact integer routines beside it: primality and factoring.

Plain Python ints throughout, so nothing overflows.  The algorithm is the
classical one: drag a small pivot to the corner, clear its row and column by
euclidean steps, patch up the divisibility chain, recurse on the rest.
A caller carries only the part of U and V it reads: integer kernels and the
torsion relation form read V alone, a residue submodule's membership form
reads all of U and V's generator rows, and its free basis alone needs no U.
"""

from __future__ import annotations

from math import gcd, isqrt

from .lattice import mat_mul


def smith_normal_form(
    a: list[list[int]], v_rows: int | None = None, u_cols: int | None = None,
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (u, d, v) with u @ a @ v == d, u and v unimodular.

    d is diagonal (rectangular allowed) with nonnegative entries satisfying
    d[0] | d[1] | ... Input is not modified.  Given v_rows, only v's leading
    v_rows rows are carried: column operations change each row on its own.
    Likewise, given u_cols, only u's leading u_cols columns are carried.
    """
    m = [row[:] for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    for name, k, top in (("v_rows", v_rows, ncols), ("u_cols", u_cols, nrows)):
        if k is not None and not 0 <= k <= top:
            raise ValueError(f"{name}={k} outside 0..{top}")
    u = _identity(nrows, nrows if u_cols is None else u_cols)
    v = _identity(ncols if v_rows is None else v_rows, ncols)

    t = 0
    while t < min(nrows, ncols):
        pivot = _find_pivot(m, t)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            m[t], m[pi], u[t], u[pi] = m[pi], m[t], u[pi], u[t]
            if pj != t:
                for row in m[t:] + v:
                    row[t], row[pj] = row[pj], row[t]

            # One sweep of balanced reduction.  Rounded quotients leave
            # remainders of at most half the pivot, and re-picking the pivot
            # after every sweep halves it each round, so the entries never
            # build on each other.  (Floor quotients with in-place swaps look
            # similar but let far columns feed back into the pivot column and
            # blow up without bound.)  Row t is fixed while the rows below
            # it are reduced, and column t while the columns right of it
            # are, so each operation touches only the nonzero entries of the
            # fixed line.
            rt, ut, p = m[t], u[t], m[t][t]
            ap = abs(p)
            changed = False
            rcols = [j for j in range(t, ncols) if rt[j]]
            ucols = [j for j, x in enumerate(ut) if x]
            for i in range(t + 1, nrows):
                ri = m[i]
                if ri[t]:
                    q, r = divmod(ri[t], p)
                    if 2 * abs(r) > ap:
                        q += 1
                    if q:
                        for j in rcols:
                            ri[j] -= q * rt[j]
                        ui = u[i]
                        for j in ucols:
                            ui[j] -= q * ut[j]
                    changed = changed or ri[t] != 0
            live = [row for row in m[t:] + v if row[t]]
            for j in range(t + 1, ncols):
                if rt[j]:
                    q, r = divmod(rt[j], p)
                    if 2 * abs(r) > ap:
                        q += 1
                    if q:
                        for row in live:
                            row[j] -= q * row[t]
                    changed = changed or rt[j] != 0
            if changed:
                pivot = _find_pivot(m, t)
                continue

            # pivot must divide every remaining entry; if not, fold the
            # offending row into row t, which plants a smaller remainder for
            # the next sweep to pick up
            if (offender := _offender(m, t)) is None:
                break
            m[t] = [x + y for x, y in zip(m[t], m[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
            pivot = (t, t)

        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    d = [[0] * ncols for _ in range(nrows)]
    for i in range(min(nrows, ncols)):
        d[i][i] = m[i][i]
    return u, d, v


def diagonal_of(d: list[list[int]]) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def integer_kernel(a: list[list[int]]) -> list[tuple[int, ...]]:
    """Basis of {x : a @ x == 0} over Z.  The basis is saturated (primitive)."""
    _, d, v = smith_normal_form(a, u_cols=0)
    diag = diagonal_of(d)
    rank = sum(1 for x in diag if x != 0)
    ncols = len(v)
    return [tuple(v[i][j] for i in range(ncols)) for j in range(rank, ncols)]


def integer_left_inverse(a: list[list[int]]) -> list[list[int]]:
    """Left inverse of an integer matrix whose columns are a primitive basis
    (all invariant factors 1).  Raises if no integral left inverse exists."""
    u, d, v = smith_normal_form(a)
    diag = diagonal_of(d)
    ncols = len(a[0])
    if len(diag) < ncols or any(x != 1 for x in diag[:ncols]):
        raise ValueError("columns are not a primitive (unimodular) system")
    # a = u^-1 d v^-1, so  (v [I 0] u) a = v [I 0] d v^-1 = identity
    nrows = len(a)
    proj = [[1 if i == j else 0 for j in range(nrows)] for i in range(ncols)]
    return [list(row) for row in mat_mul(mat_mul(v, proj), u)]


def solve_integer(a: list[list[int]], b: list[int]) -> list[int] | None:
    """One integral solution x of a @ x == b, or None."""
    u, d, v = smith_normal_form(a)
    diag = diagonal_of(d)
    ub = [sum(u[i][k] * b[k] for k in range(len(b))) for i in range(len(u))]
    ncols = len(v)
    y = [0] * ncols
    for i in range(len(ub)):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
    return [sum(v[i][k] * y[k] for k in range(ncols)) for i in range(ncols)]


# -- primality and factoring -------------------------------------------------

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97,
)


def is_prime(n: int) -> bool:
    """Baillie-PSW: trial division by the primes below 100, then a strong
    base-2 Miller-Rabin test and a strong Lucas-Selfridge test.  Exact below
    2^64; no composite passing both tests is known above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _SMALL_PRIMES[-1] ** 2:
        return True
    return _strong_base2(n) and _strong_lucas(n)


def factor(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, keys ascending: trial division
    by the primes below 100, then Pollard rho on what is left."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            rest += [d, m // d]
    return dict(sorted(out.items()))


def _strong_base2(n: int) -> bool:
    """Strong probable-prime test to base 2, n odd."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters: D the
    first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1, P = 1 and
    Q = (1 - D)/4; n odd, coprime to 30 and not below 100."""
    if isqrt(n) ** 2 == n:
        return False  # no such D exists for a square
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0:
            return False  # |d| < n shares a factor with n
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    # n + 1 = k * 2^s with k odd; walk U_k, V_k, Q^k up the bits of k
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, d * u + v
            u = (u + n if u % 2 else u) // 2 % n
            v = (v + n if v % 2 else v) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n), n odd and positive."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _pollard_rho(n: int) -> int:
    """A proper divisor of the composite n, which has no prime factor below
    100: Floyd's cycle search on x -> x^2 + c, with c = 1, 2, ... until the
    cycle mod a prime factor closes before the one mod n."""
    for c in range(1, n):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
        if g != n:
            return g
    raise AssertionError(f"{n} is prime")


# -- helpers of smith_normal_form --------------------------------------------


def _identity(rows: int, cols: int) -> list[list[int]]:
    """The leading rows x cols block of an identity matrix."""
    out = [[0] * cols for _ in range(rows)]
    for i in range(min(rows, cols)):
        out[i][i] = 1
    return out


def _find_pivot(m, t):
    """The first nonzero entry of least absolute value in row order, at or
    below and right of (t, t); the scan stops at the first unit, since no
    later entry can be strictly smaller."""
    best = None
    least = 0
    for i in range(t, len(m)):
        row = m[i]
        for j in range(t, len(row)):
            x = row[j]
            if x:
                ax = abs(x)
                if best is None or ax < least:
                    best, least = (i, j), ax
                    if ax == 1:
                        return best
    return best


def _offender(m, t):
    """The first row below t with an entry right of column t that the pivot
    m[t][t] does not divide, or None; a unit pivot divides every entry."""
    p = m[t][t]
    if p in (1, -1):
        return None
    return next((i for i in range(t + 1, len(m)) if any(x % p for x in m[i][t + 1:])), None)
