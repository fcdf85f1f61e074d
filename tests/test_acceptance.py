"""Release gate: one test per advertised behavior, at full stated scale.

Each test times its own core computation and asserts the budget, so a speed
regression fails the same way a wrong value would.  Randomized panels run on
fixed seeds (Python's generator is platform-stable, so the panels are
reproducible bit for bit).  Every frozen constant here was recomputed by an
offline script before being pinned; see the test suites per module for the
finer-grained versions of these checks.
"""

import itertools
import random
import time

import numpy as np

from picweyl import (
    PrimeField,
    ExtensionField,
    PointConfiguration,
    Poly3,
    ProjectivePoint,
    ReflectionProduct,
    ResidueModule,
    act_by_word,
    apply_word,
    canonical_vector,
    classify_cubic,
    classify_isometry,
    coble_conditions,
    configuration,
    cremona_quadratic,
    effectivity_test,
    find_root_in_submodule,
    gram_matrix,
    halphen_index_check,
    harbourne_check,
    inner,
    iota,
    iota_isometry,
    is_unnodal_halphen,
    noether_reduce,
    projectively_equivalent,
    q2_value,
    represent_unit,
    residue_counts_mod2,
    restriction_hom,
    root_basis_coordinates,
    simple_reflection,
    simple_roots,
    spinor_norm,
    square_class,
    translation_isometry,
    unnodal_by_kernel,
    vector,
    witt_extend,
    word_to_isometry,
)
from picweyl.cubic import image_order

F101 = PrimeField(101)

# nine collinearity-free points on y^2 z = x^3 - x^2 z + x z^2 - 6 z^3,
# the multiples [1..8, 14] of the order-100 point (0 : 14 : 1)
NINE = [(0, 14), (22, 79), (76, 92), (6, 33), (92, 65), (87, 75), (85, 75),
        (99, 92), (66, 81)]
SMOOTH = {"021": 1, "300": -1, "201": 1, "102": -1, "003": 6}
CUSPIDAL = {"021": 1, "300": -1}


def random_span_vector(rng, top):
    roots = simple_roots(9)
    while True:
        coeffs = [rng.randint(-5, 5) for _ in range(top)]
        if any(coeffs):
            break
    w = roots[0] * coeffs[0]
    for c, a in zip(coeffs[1:], roots[1:]):
        w = w + a * c
    return w


def random_rank8_submodule(module, rng):
    while True:
        gens = [tuple(rng.randrange(module.m) for _ in range(10))
                for _ in range(8)]
        sub = module.submodule(gens)
        if sub.free_rank == 8:
            return sub


def best_of_three(check):
    # sub-millisecond budgets are asserted on the fastest of three runs so a
    # stray garbage-collection pause cannot fail an exact-arithmetic check
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        check()
        runs.append(time.perf_counter() - t0)
    return min(runs)


def test_c01_gram_of_simple_roots_matches_diagram():
    basis = {n: simple_roots(n) for n in (9, 10, 11)}

    def check():
        for n, roots in basis.items():
            g = gram_matrix(roots)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        want = -2
                    elif {i, j} == {0, 3} or (
                        0 not in {i, j} and abs(i - j) == 1
                    ):
                        want = 1
                    else:
                        want = 0
                    assert g[i][j] == want, (n, i, j)

    elapsed = best_of_three(check)
    assert elapsed < 0.001, f"took {elapsed:.6f}s, budget 1 ms"


def test_c02_mod2_residue_counts():
    t0 = time.perf_counter()
    assert residue_counts_mod2(10) == (528, 496)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1 s"


def test_c03_coble_conditions_exhaust_norm_one_residues():
    t0 = time.perf_counter()
    families = coble_conditions()
    by_label = {}
    for fam in families:
        by_label[fam.label] = by_label.get(fam.label, 0) + 1
    assert by_label == {
        "coincident_pair": 45,
        "collinear_triple": 120,
        "conic_six": 210,
        "singular_cubic_eight": 120,
        "triple_point_quartic": 1,
    }
    residues = {fam.residue for fam in families}
    assert len(residues) == len(families) == 496
    norm_one = {
        t for t in itertools.product(range(2), repeat=10) if q2_value(t) == 1
    }
    assert residues == norm_one
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1 s"


def test_c04_iota_is_a_homomorphism_into_the_stabilizer():
    rng = random.Random(4)
    k9 = canonical_vector(9)
    alphas = simple_roots(9)
    t0 = time.perf_counter()
    for _ in range(100):
        w1 = random_span_vector(rng, 8)
        w2 = random_span_vector(rng, 8)
        g1, g2 = iota_isometry(w1), iota_isometry(w2)
        assert iota_isometry(w1 + w2) == g1 @ g2
        assert g1.apply(k9) == k9
        for a in alphas:
            for b in alphas:
                assert inner(g1.apply(a), g1.apply(b)) == inner(a, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1 s"


def test_c05_translation_restricts_to_iota_on_the_complement():
    rng = random.Random(5)
    basis = simple_roots(9)  # spans the canonical complement
    t0 = time.perf_counter()
    for _ in range(50):
        a = random_span_vector(rng, 9)
        m = rng.choice((1, 2, 3))
        t = translation_isometry(a, m)
        for b in basis:
            assert t.apply(b) == iota(a * m, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1 s"


def test_c06_thousand_random_roots_reduce_and_replay():
    rng = random.Random(6)
    base = simple_roots(10)[1]
    terminals = set()
    for s in simple_roots(10):
        terminals.add(s.coords)
        terminals.add((-s).coords)
    t0 = time.perf_counter()
    for _ in range(1000):
        word = [rng.randrange(10) for _ in range(rng.randint(0, 40))]
        r = apply_word(base, word)
        flip = r.degree < 0
        terminal, back = noether_reduce(-r if flip else r)
        assert terminal.coords in terminals
        replay = apply_word(-terminal if flip else terminal, back)
        assert replay == r
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30 s"


def test_c07_isometry_trichotomy_with_derived_radius():
    t0 = time.perf_counter()
    ell = classify_isometry(simple_reflection(1, 10))
    assert ell.kind == "Elliptic" and ell.order == 2

    k9 = canonical_vector(9)
    par = classify_isometry(iota_isometry(simple_roots(9)[1]))
    assert par.kind == "Parabolic"
    # the invariant isotropic line is canonical; either generator names it
    assert par.witness in (k9, -k9)

    cox = word_to_isometry(list(range(10)), 10)
    hyp = classify_isometry(cox)
    assert hyp.kind == "Hyperbolic"
    coeffs = np.poly(np.array(cox.rows, dtype=float))
    derived = max(abs(z) for z in np.roots(coeffs))
    assert abs(hyp.spectral_radius - derived) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1 s"


def test_c08_halphen_nine_point_fixture_and_perturbation():
    t0 = time.perf_counter()
    model = classify_cubic(Poly3.from_coeff_map(F101, SMOOTH))
    g = model.smooth_point(ProjectivePoint(F101, (0, 14, 1)))
    pts = [model.scalar(i, g).point for i in (1, 2, 3, 4, 5, 6, 7, 8, 14)]
    assert pts == [ProjectivePoint(F101, (x, y, 1)) for x, y in NINE]

    # 3h - sum(p_i) restricts to a class of exact order 2
    eps = restriction_hom(model, pts, -canonical_vector(9))
    assert image_order(eps) == 2
    assert halphen_index_check(model, pts, 2) is True
    assert halphen_index_check(model, pts, 1) is False

    cfg = configuration(F101, [(x, y, 1) for x, y in NINE])
    assert is_unnodal_halphen(cfg, 2) == (True, None)

    p1, p2 = cfg.point(1), cfg.point(2)
    on_line = ProjectivePoint(
        F101, tuple(a + b for a, b in zip(p1.coords, p2.coords))
    )
    moved = PointConfiguration(F101, cfg.points[:8] + (on_line,))
    verdict, witness = is_unnodal_halphen(moved, 2)
    assert verdict is False
    assert witness == vector(1, -1, -1, 0, 0, 0, 0, 0, 0, -1)
    # the witness is a degree-one root: the orbit type of the first simple root
    assert inner(witness, witness) == -2
    assert inner(witness, canonical_vector(9)) == 0
    assert witness.degree == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10 s"


def test_c09_harbourne_ten_point_fixture_and_degeneration():
    t0 = time.perf_counter()
    K = ExtensionField(5, 12)
    model = classify_cubic(Poly3.from_coeff_map(K, CUSPIDAL))
    x = K.element((0, 1) + (0,) * 10)
    params = [x ** i for i in range(10)]
    pts = [model.point_from_parameter(t).point for t in params]

    ok, desc = harbourne_check(model, pts)
    assert ok
    # rank 10 of the generator-image matrix over F_5 is exactly the statement
    # that the restriction kernel is 5 times the canonical complement: the
    # complement has rank 10 and its 5-multiple part always dies in a group
    # of exponent 5, so exactness is injectivity of the induced mod-5 map.
    assert desc["rank"] == 10
    assert desc["kernel"] == "5 * (canonical complement)"

    ok2, witness, cert = unnodal_by_kernel(model, pts)
    assert ok2 and witness is None
    assert cert == {"certificate": "kernel-trivial", "modulus": 5,
                    "complete": True}

    collapsed = list(params)
    collapsed[1] = collapsed[0]
    bad = [model.point_from_parameter(t).point for t in collapsed]
    ok3, desc3 = harbourne_check(model, bad)
    assert not ok3 and desc3["rank"] < 10
    ok4, witness4, cert4 = unnodal_by_kernel(model, bad)
    assert not ok4
    assert witness4 == vector(0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert cert4["certificate"] == "catalog-root"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10 s"


def test_c10_quadratic_module_suite():
    rng = random.Random(0)
    t0 = time.perf_counter()

    # every unit is represented, on the full module and on random corank-2
    # pieces, across all nine prime-power moduli
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            m = p ** k
            M = ResidueModule(m)
            units = [a for a in range(1, m) if M.is_unit(a)]
            subs = [M.submodule([M.simple_residue(i) for i in range(M.rank)])]
            subs += [random_rank8_submodule(M, rng) for _ in range(10)]
            for sub in subs:
                for a in units:
                    v = represent_unit(sub, a)
                    assert M.quadratic(v) == a % m
                    assert sub.contains(v)

    # isometry extension, checked by applying the product it returns
    for m in (2, 3, 4, 5, 8, 9, 25, 27, 125):
        M = ResidueModule(m)
        for _ in range(5):
            fs = [M.simple_residue(i) for i in range(rng.randint(1, 3))]
            prod = ReflectionProduct(M)
            for _ in range(3):
                while True:
                    h = M.reduce(tuple(rng.randrange(m) for _ in range(10)))
                    if M.is_unit(M.quadratic(h)):
                        break
                prod = prod.then(h)
            gs = [prod.apply(f) for f in fs]
            carried = witt_extend(fs, gs, M)
            assert all(carried.apply(f) == g for f, g in zip(fs, gs))

    # spinor norm is multiplicative across concatenation
    M25 = ResidueModule(25)

    def random_product():
        prod = ReflectionProduct(M25)
        for _ in range(rng.randint(1, 4)):
            while True:
                h = M25.reduce(tuple(rng.randrange(25) for _ in range(10)))
                if M25.is_unit(M25.quadratic(h)):
                    break
            prod = prod.then(h)
        return prod

    for _ in range(100):
        a, b = random_product(), random_product()
        assert spinor_norm(ReflectionProduct(M25, a.vectors + b.vectors)) == square_class(
            spinor_norm(a) * spinor_norm(b), 5, 2
        )

    # root search: both methods, every returned root checked for membership
    k10 = canonical_vector(10)
    theory_runs = 0
    theory_misses = 0
    orbit_depth = 0
    for m in (2, 3, 4, 5, 6):
        M = ResidueModule(m)
        for _ in range(20):
            sub = random_rank8_submodule(M, rng)
            for method in ("theory", "orbit-bfs"):
                out = find_root_in_submodule(sub, method)
                if method == "theory":
                    theory_runs += 1
                    if out.status == "inconclusive":
                        theory_misses += 1
                        continue
                else:
                    assert out.status == "found"
                    word = out.certificate["word"]
                    assert len(word) <= 16
                    orbit_depth = max(orbit_depth, len(word))
                r = out.root
                assert inner(r, r) == -2 and inner(r, k10) == 0
                res = tuple(c % m for c in root_basis_coordinates(r))
                assert sub.contains(res)

    print(f"theory method inconclusive rate: {theory_misses}/{theory_runs}")
    print(f"orbit search max depth: {orbit_depth}")
    # the fixed seed makes the panel reproducible; on it the theory method
    # never comes back empty
    assert theory_misses == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 5 min"


def test_c11_cremona_action_on_plane_configurations():
    rng = random.Random(11)
    t0 = time.perf_counter()

    # the unit point is fixed by the involution based at the triangle
    cfg = configuration(
        F101, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (3, 7, 1)]
    )
    image = cremona_quadratic(cfg, 1, 2, 3)
    assert image.point(4) == ProjectivePoint(F101, (1, 1, 1))

    # applying the map twice lands back in the same projective class
    done = 0
    attempts = 0
    while done < 50:
        attempts += 1
        assert attempts < 2000, "rejection sampling stalled"
        coords = [
            (rng.randrange(101), rng.randrange(101), rng.randrange(101))
            for _ in range(8)
        ]
        try:
            candidate = configuration(F101, coords)
            twice = cremona_quadratic(
                cremona_quadratic(candidate, 1, 2, 3), 1, 2, 3
            )
        except ValueError:
            continue  # degenerate draw: repeated point or base-line hit
        same, _ = projectively_equivalent(candidate, twice)
        assert same
        done += 1

    # the induced basis change transports effectivity dimensions
    nine = configuration(F101, [(x, y, 1) for x, y in NINE])
    word = [0, 2, 0, 5]
    moved = act_by_word(nine, word)
    g = word_to_isometry(word, 9)

    def cls(d, *mults):
        m = list(mults) + [0] * (9 - len(mults))
        return vector(d, *[-x for x in m])

    panel = [
        cls(1, 1, 1),
        cls(1, 0, 0, 1, 1),
        cls(1, 0, 0, 0, 0, 1, 1),
        cls(2, 1, 1, 1, 1, 1),
        cls(2, 1, 1, 1, 1),
        cls(3, 1, 1, 1, 1, 1, 1, 1, 1, 1),
        cls(3, 1, 1, 1, 1, 1, 1, 1, 1),
        cls(1, 1),
        cls(0),
        cls(4, 2, 1, 1, 1, 1, 1, 1, 1),
    ]
    for c in panel:
        assert effectivity_test(nine, c) == effectivity_test(moved, g.apply(c))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30 s"


def test_c12_intersection_identities():
    def check():
        fs = [
            vector(3, *[0 if j == i else -1 for j in range(1, 11)])
            for i in range(1, 11)
        ]
        for i, fi in enumerate(fs):
            for j, fj in enumerate(fs):
                assert inner(fi, fj) == 1 - (i == j)

        k10 = canonical_vector(10)
        delta = vector(10, *[-3] * 10)
        assert inner(delta, delta) == 10
        assert inner(delta, k10) == 0

        classes = []
        for i in range(9):
            coords = [0] * 11
            window = [(i + t) % 10 + 1 for t in range(4)]
            for idx in window[:3]:
                coords[idx] = -1
            coords[window[3]] = 1
            classes.append(vector(*coords))
        assert len(set(c.coords for c in classes)) == 9
        for r in classes:
            assert inner(r, r) == -4
            assert inner(k10, r) == 2
        total = 14 + sum(inner(k10, r) for r in classes)
        total += sum(inner(r, r) for r in classes)
        assert total == 14 + 2 * 9 - 4 * 9 == -4

    elapsed = best_of_three(check)
    assert elapsed < 0.001, f"took {elapsed:.6f}s, budget 1 ms"
