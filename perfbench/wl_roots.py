"""roots: root searches mod m and Weyl-word arithmetic (residue, smith,
weyl, lattice, catalog), with no field arithmetic at all.

Searches run both methods on seeded submodules of (Z/m)^10 spanned by
eight vectors that are independent mod every prime dividing m, so the
free rank is exactly 8.  The moduli spread over primes, prime powers and
CRT composites; at 25 and 27 most searches come back inconclusive.
Noether round trips reduce roots built by seeded degree-raising words.
Classification takes random words of length 10 to 40, which are nearly
always elliptic, and Coxeter elements (every letter once, in a seeded
order), which are hyperbolic; the latter keep the library's lazy numpy
import inside every run (and inside warm-up), so peak memory does not
depend on the seed.
"""

from __future__ import annotations

from picweyl import LatticeVector, ResidueModule, residue, weyl

from . import arith

NAME = "roots"
MODULI = {
    "prime": (3, 5, 7, 11, 13),
    "prime-power": (4, 8, 9, 25, 27),
    "composite": (6, 10, 12, 15, 30),
}
FAMILY = {m: family for family, ms in MODULI.items() for m in ms}
# one cycle of 47 operations: each modulus once per search method; the
# seven random-word classifications, the top 15 percent, hold p90
CYCLE = (
    tuple(f"{method}:{m}" for method in ("theory", "orbit-bfs") for m in sorted(FAMILY))
    + ("noether",) * 6 + ("classify:random",) * 7 + ("classify:coxeter",) * 4
)
MIN_OPS = 100
WHOLE_CYCLES = True
CENSUS_OPS = 141
TRACE_KINDS = CYCLE * 2
WARM_KINDS = ("theory:6", "orbit-bfs:25", "noether", "classify:random", "classify:coxeter")
N = 10


def _generators(rng, m: int) -> list[tuple[int, ...]]:
    primes = arith.prime_factors(m)
    while True:
        gens = [tuple(rng.randrange(m) for _ in range(N)) for _ in range(8)]
        if all(arith.independent_mod(gens, q) for q in primes):
            return gens


def _raised_root(rng) -> tuple[int, ...]:
    """A root of degree 10 to 60: alternate random transpositions with the
    Cremona letter whenever it raises the degree."""
    v = arith.simple_root(rng.randrange(1, N), N)
    target = rng.randrange(10, 61)
    while v[0] < target:
        v = arith.apply_word(v, [rng.randrange(1, N) for _ in range(3)], N)
        raised = arith.reflect(arith.simple_root(0, N), v)
        if raised[0] > v[0]:
            v = raised
    return v


def make(slot: str, rng) -> dict:
    kind, _, m = slot.partition(":")
    if kind in ("theory", "orbit-bfs"):
        m = int(m)
        return {"kind": kind, "m": m, "family": FAMILY[m], "gens": _generators(rng, m)}
    if kind == "noether":
        return {"kind": kind, "root": _raised_root(rng)}
    if m == "coxeter":  # every letter once, in a seeded order
        word = rng.sample(range(N), N)
    else:
        word = [rng.randrange(N) for _ in range(rng.randrange(10, 41))]
    return {"kind": kind, "word": word}


def run(op: dict):
    kind = op["kind"]
    if kind in ("theory", "orbit-bfs"):
        sub = ResidueModule(op["m"]).submodule(op["gens"])
        return residue.find_root_in_submodule(sub, kind)
    if kind == "noether":
        return weyl.noether_reduce(LatticeVector(op["root"]))
    return weyl.classify_isometry(weyl.word_to_isometry(op["word"], N))


def outcome(op: dict, res) -> tuple[bool | None, dict]:
    kind = op["kind"]
    if kind in ("theory", "orbit-bfs"):
        return res.status == "found", {
            "search": f"{kind} {res.status}",
            "modulus": op["family"],
        }
    if kind == "classify":
        return None, {"isometry": res.kind}
    return None, {"op": kind}


# -- the oracle ---------------------------------------------------------------


def _matrix_of_word(word) -> list[list[int]]:
    cols = []
    for i in range(N + 1):
        e = tuple(1 if j == i else 0 for j in range(N + 1))
        cols.append(arith.apply_word(e, word, N))
    return [[cols[j][i] for j in range(N + 1)] for i in range(N + 1)]


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def check(op: dict, res, rng) -> str | None:
    kind = op["kind"]
    if kind in ("theory", "orbit-bfs"):
        if res.status != "found":
            return None if res.status == "inconclusive" else f"status {res.status!r}"
        r = res.root.coords
        if not arith.is_root(r, N):
            return f"found vector {r} is not a root"
        coords = arith.simple_root_coordinates(r)
        if not arith.in_submodule(coords, op["gens"], op["m"]):
            return f"residue of {r} is outside the submodule"
        if arith.noether_terminal(r) is None:
            return f"{r} does not reduce to a simple root"
        if kind == "theory" and arith.apply_word(arith.simple_root(1, N), res.certificate["word"], N) != r:
            return "certificate word does not replay from alpha_1"
        return None
    if kind == "noether":
        terminal, word = res
        t = terminal.coords
        if arith.apply_word(t, word, N) != op["root"]:
            return "Noether word does not replay to the input root"
        if not any(t in (arith.simple_root(i, N), tuple(-c for c in arith.simple_root(i, N))) for i in range(N)):
            return f"terminal {t} is not +-(a simple root)"
        return None
    g = _matrix_of_word(op["word"])
    if res.kind == "Hyperbolic":
        import numpy  # only here: the benchmark must not import it ahead of the library

        rho = max(abs(numpy.linalg.eigvals(numpy.array(g, dtype=float))))
        return None if abs(rho - res.spectral_radius) < 1e-6 and rho > 1 + 1e-6 else (
            f"spectral radius {res.spectral_radius}, oracle {rho}")
    w = res.witness.coords
    gw = tuple(sum(a * b for a, b in zip(row, w)) for row in g)
    if gw != w:
        return "witness is not fixed"
    if res.kind == "Elliptic":
        power = [[int(i == j) for j in range(N + 1)] for i in range(N + 1)]
        for _ in range(res.order):
            power = _mat_mul(power, g)
        ident = [[int(i == j) for j in range(N + 1)] for i in range(N + 1)]
        return None if power == ident else f"g^{res.order} is not the identity"
    return None if arith.inner(w, w) == 0 else "parabolic witness is not isotropic"
