"""Point configurations, interpolation with multiplicities, nodal-class
verdicts, and the quadratic Cremona action.

Fixture: nine points on the smooth cubic y^2 z = x^3 - x^2 z + x z^2 - 6 z^3
over F_101, namely the multiples 1..8 and 14 of the generator (0:14:1).  An
offline Weierstrass-law script confirmed the curve has exactly 100 points,
the generator has order 100, and none of the subset conditions below (six
on a conic, three on a line and so on) holds for the chosen indices.
"""

import itertools
from collections import Counter
from random import Random

import pytest

from picweyl import (
    DomainError,
    ExtensionField,
    Poly3,
    PointConfiguration,
    PrimeField,
    ProjectivePoint,
    RationalField,
    act_by_word,
    canonical_vector,
    coble_conditions,
    configuration,
    cremona_quadratic,
    effective_curves_basis,
    effectivity_test,
    halphen_prohibited_classes,
    is_coble_set,
    is_unnodal_halphen,
    projectively_equivalent,
    vector,
    word_to_isometry,
)
from picweyl.fields import FieldElement
from picweyl.plane import (
    _answers,
    _coble_runs,
    _condition_rows,
    _halphen_runs,
    _hasse_row,
    _route,
    _runs,
    _value_kernels,
)
from picweyl.projgeom import cross, extend_echelon, frame_with_last_column, monomial_exponents

F = PrimeField(101)

NINE = [(0, 14), (22, 79), (76, 92), (6, 33), (92, 65), (87, 75), (85, 75),
        (99, 92), (66, 81)]
# indices 1..8 and 9, 11 of the same generator: swap the last multiple out
TEN = NINE[:8] + [(9, 34), (28, 9)]


def cfg_nine():
    return configuration(F, [(x, y, 1) for x, y in NINE])


def cfg_ten():
    return configuration(F, [(x, y, 1) for x, y in TEN])


def replaced(cfg, i, p):
    """cfg with its i-th point (1-based) moved to p."""
    return PointConfiguration(cfg.field, cfg.points[: i - 1] + (p,) + cfg.points[i:])


class TestConfiguration:
    def test_one_based_access(self):
        cfg = cfg_nine()
        assert cfg.point(1) == ProjectivePoint(F, (0, 14, 1))
        with pytest.raises(IndexError):
            cfg.point(0)
        with pytest.raises(IndexError):
            cfg.point(10)

    def test_json_round_trip(self):
        cfg = cfg_nine()
        assert PointConfiguration.from_json(cfg.to_json()) == cfg


class TestEffectivity:
    def test_line_through_two_points(self):
        cfg = cfg_nine()
        # lines through two assigned points: a pencil minus two conditions
        cls = vector(1, -1, -1, 0, 0, 0, 0, 0, 0, 0)
        eff, dim = effectivity_test(cfg, cls)
        assert eff and dim == 0

    def test_conic_through_five(self):
        cfg = cfg_nine()
        cls = vector(2, -1, -1, -1, -1, -1, 0, 0, 0, 0)
        eff, dim = effectivity_test(cfg, cls)
        assert eff and dim == 0

    def test_cubic_through_all_nine(self):
        cfg = cfg_nine()
        cls = vector(3, *([-1] * 9))
        eff, dim = effectivity_test(cfg, cls)
        assert eff and dim == 0  # the fixture cubic itself, and only it

    def test_conic_through_six_generic_is_empty(self):
        cfg = cfg_nine()
        cls = vector(2, -1, -1, -1, -1, -1, -1, 0, 0, 0)
        eff, dim = effectivity_test(cfg, cls)
        assert not eff and dim == -1

    def test_negative_multiplicities_are_peeled(self):
        cfg = cfg_nine()
        with_neg = vector(1, -1, -1, 0, 0, 0, 0, 0, 0, 1)
        plain = vector(1, -1, -1, 0, 0, 0, 0, 0, 0, 0)
        assert effectivity_test(cfg, with_neg) == effectivity_test(cfg, plain)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            effectivity_test(cfg_nine(), vector(1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0))

    def test_effective_curves_basis_vanishes_correctly(self):
        cfg = cfg_nine()
        cls = vector(3, *([-1] * 9))
        basis = effective_curves_basis(cfg, cls)
        assert len(basis) == 1
        f = basis[0]
        assert f.degree() == 3
        for i in range(1, 10):
            assert f.evaluate(cfg.point(i).coords) == F.zero()

    def test_double_point_conditions(self):
        # conics with a double point at p1 through p2, p3: the two lines
        cfg = cfg_nine()
        cls = vector(2, -2, -1, -1, 0, 0, 0, 0, 0, 0)
        eff, dim = effectivity_test(cfg, cls)
        assert eff and dim == 0
        f = effective_curves_basis(cfg, cls)[0]
        # a curve singular at p1 kills all three partials there
        p = cfg.point(1)
        assert all(f.partial(i).evaluate(p.coords) == F.zero() for i in range(3))


def composed_monomials(p, d):
    """Reference for the condition rows: the degree-d monomials composed
    with the frame moving p to (0:0:1), by Poly3 products.  The row for
    (a, b) is their coefficients of x^a y^b z^(d-a-b)."""
    field = p.field
    powers = []
    for row in frame_with_last_column(p):
        cache = [Poly3.monomial(field, (0, 0, 0))]
        for _ in range(d):
            form = Poly3.from_raw(field, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), row)))
            cache.append(cache[-1] * form)
        powers.append(cache)
    return [powers[0][a] * powers[1][b] * powers[2][c] for a, b, c in monomial_exponents(d)]


@pytest.mark.parametrize(
    "field",
    [PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(10007),
     ExtensionField(3, 3), ExtensionField(2, 4), RationalField()],
    ids=repr,
)
def test_hasse_rows_match_poly3_composition(field):
    # all three charts: z != 0; z = 0, y != 0; and (1:0:0)
    rng = Random(7)
    coords = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    for _ in range(2):
        coords += [(field.random_element(rng), field.random_element(rng), 1),
                   (field.random_element(rng), 1, 0)]
    for p in (ProjectivePoint(field, c) for c in coords):
        for d in range(8):
            monos = composed_monomials(p, d)
            # a + b = d + 1 too: multiplicities above the degree give zero rows
            for a in range(d + 2):
                for b in range(d + 2 - a):
                    ref = [t.coefficient((a, b, d - a - b)).raw for t in monos]
                    assert _hasse_row(p, d, a, b) == ref, (p, d, a, b)


class TestHalphenVerdict:
    def test_fixture_is_unnodal(self):
        assert is_unnodal_halphen(cfg_nine(), 2) == (True, None)
        assert is_unnodal_halphen(cfg_nine(), 1) == (True, None)

    def test_collinear_perturbation_flips_with_witness(self):
        cfg = cfg_nine()
        p1, p2 = cfg.point(1), cfg.point(2)
        on_line = tuple(a + b for a, b in zip(p1.coords, p2.coords))
        bad = replaced(cfg, 9, ProjectivePoint(F, on_line))
        verdict, witness = is_unnodal_halphen(bad, 2)
        assert not verdict
        assert witness == vector(1, -1, -1, 0, 0, 0, 0, 0, 0, -1)

    def test_wrong_point_count(self):
        with pytest.raises(DomainError):
            is_unnodal_halphen(cfg_ten(), 2)

    def test_verdict_boxes_no_field_element(self, monkeypatch):
        # integers enter the interpolation rows as raws (binomial
        # coefficients, exponents), never through a boxed element
        cfg, made = cfg_nine(), []
        init = FieldElement.__init__
        monkeypatch.setattr(
            FieldElement, "__init__", lambda self, *args: made.append(1) or init(self, *args)
        )
        assert is_unnodal_halphen(cfg, 4)[0]
        assert not made


class TestCallOrder:
    """Condition rows are memoised per configuration: results must not
    depend on which configurations were queried before, nor leak into
    equality or serialisation."""

    @staticmethod
    def pair():
        cfg = cfg_nine()
        p1, p2 = cfg.point(1), cfg.point(2)
        on_line = tuple(a + b for a, b in zip(p1.coords, p2.coords))
        # shares points 1..8 with cfg; the ninth point spoils the fixture
        return cfg, replaced(cfg, 9, ProjectivePoint(F, on_line))

    @staticmethod
    def answers(cfg):
        return [effectivity_test(cfg, cls) for cls in halphen_prohibited_classes(2)]

    def test_effectivity_independent_of_order(self):
        a, b = self.pair()
        first_a, then_b = self.answers(a), self.answers(b)
        a, b = self.pair()
        first_b, then_a = self.answers(b), self.answers(a)
        assert first_a == then_a
        assert then_b == first_b
        assert first_a != first_b

    def test_queried_configuration_equals_fresh(self):
        queried, _ = self.pair()
        self.answers(queried)
        effective_curves_basis(queried, vector(3, *([-1] * 9)))
        fresh = cfg_nine()
        assert queried == fresh and fresh == queried
        assert queried.to_json() == fresh.to_json()
        assert PointConfiguration.from_json(queried.to_json()) == fresh


def from_scratch(points, cls):
    """(effective, dimension) of cls by one elimination on a fresh configuration."""
    fresh = PointConfiguration(points[0].field, points)
    d = cls.degree
    rows = _condition_rows(fresh, d, [max(m, 0) for m in cls.multiplicities])
    dim = len(monomial_exponents(d)) - len(extend_echelon([], rows, fresh.field)) - 1
    return dim >= 0, dim


def resumed_queries(rng, n):
    """Classes on n points in the order one configuration is asked them:
    runs of one degree whose multiplicities change from a random point on,
    shuffled so that degrees interleave, then some of them again.  Every
    run starts from one multiplicity vector, so classes of different
    degrees share prefixes too."""
    base = [rng.randint(-1, 2) for _ in range(n)]
    runs = []
    for d in range(6):
        for _ in range(3):
            mults = base[:]
            run = []
            for _ in range(rng.randint(2, 4)):
                j = rng.randrange(n)
                mults[j:] = [rng.randint(-1, 2) for _ in range(n - j)]
                run.append(vector(d, *(-m for m in mults)))
            runs.append(run)
    rng.shuffle(runs)
    queries = [cls for run in runs for cls in run]
    return queries + rng.sample(queries, 12)


@pytest.mark.parametrize(
    "field",
    [PrimeField(2), PrimeField(7), PrimeField(10007), ExtensionField(3, 2), RationalField()],
    ids=repr,
)
def test_effectivity_resumed_from_shared_prefix(field):
    # one configuration answers every class, resuming from the previous
    # class's echelon bases; each answer must be the one computed afresh
    rng = Random(11)
    affine = set()
    while len(affine) < 4:
        affine.add((field.random_element(rng), field.random_element(rng)))
    x, y, z, w = sorted(affine, key=repr)
    coords = [(*x, 1), (1, 0, 0), (*y, 1), (field.random_element(rng), 1, 0), (*z, 1), (*w, 1)]
    queried = configuration(field, coords)
    points = list(queried.points)
    for cls in resumed_queries(rng, len(coords)):
        fresh = PointConfiguration(field, points)
        answer = effectivity_test(queried, cls)
        assert answer == effectivity_test(fresh, cls) == from_scratch(points, cls), cls


def shape_queries(rng, n):
    """Classes on n points in the shapes of the prohibited families: a
    common multiplicity c with c - 1 at one point, c + 1 at one, both, or
    c + 1 at three; Coble's cubic through all but two points, singular at
    one, and quartic through all with a triple point.  Degrees interleave
    and some classes come again."""
    queries = []
    for c in range(3):
        for d in sorted({2 * c, 3 * c, 3 * c + 1, max(c - 1, 0)}):
            for _ in range(2):
                i, j, k, l = rng.sample(range(n), 4)
                for changes in ({i: -1}, {j: 1}, {i: -1, j: 1}, {j: 1, k: 1, l: 1}):
                    queries.append(vector(d, *(-c - changes.get(t, 0) for t in range(n))))
    for j, a, b in (rng.sample(range(n), 3) for _ in range(3)):
        cubic = [0 if t in (a, b) else -2 if t == j else -1 for t in range(n)]
        queries += [vector(3, *cubic), vector(4, *(-3 if t == j else -1 for t in range(n)))]
    rng.shuffle(queries)
    return queries + rng.sample(queries, 12)


@pytest.mark.parametrize(
    "field",
    [PrimeField(2), PrimeField(7), PrimeField(10007), ExtensionField(3, 2), RationalField()],
    ids=repr,
)
def test_effectivity_of_family_shapes(field):
    # classes one multiplicity off a shared floor are tested on its kernel;
    # each answer must be the one a fresh elimination gives
    rng = Random(13)
    n = 7 if field.order == 2 else 10  # GF(2) has seven points
    points = []
    while len(points) < n:
        c = [field.random_element(rng) for _ in range(3)]
        if any(c) and ProjectivePoint(field, c) not in points:
            points.append(ProjectivePoint(field, c))
    queried = PointConfiguration(field, points)
    for cls in shape_queries(rng, n):
        assert effectivity_test(queried, cls) == from_scratch(points, cls), cls


def test_effectivity_on_kernels_larger_than_the_count():
    # the fixture is a Halphen set of index 2: sextics double at all nine
    # points form a pencil, one more than the count of conditions allows,
    # and the classes one multiplicity above are tested on that kernel
    cfg = cfg_nine()
    points = list(cfg.points)
    sextic = vector(6, *([-2] * 9))
    assert effectivity_test(cfg, sextic) == from_scratch(points, sextic) == (True, 1)
    assert is_unnodal_halphen(cfg, 4) == (True, None)
    on_pencil = [vector(6, *(-3 if t in s else -2 for t in range(9))) for s in ((0,), (3, 7))]
    for cls in halphen_prohibited_classes(4) + tuple(on_pencil):
        assert effectivity_test(cfg, cls) == from_scratch(points, cls), cls
    # nine points on a conic: every floor kernel of degree 2, 3 or 6 holds
    # the conic's multiples, and the classes above them move
    points = [ProjectivePoint(F, (t, t * t, 1)) for t in range(1, 10)]
    cfg = PointConfiguration(F, points)
    above = [(2, -2), (3, -2), (4, -2, -2), (4, -3), (5, -2, -2, -2, -2), (6, -3, -2)]
    expected = [(False, -1), (True, 1), (True, 3), (True, 2), (True, 5), (True, 4)]
    for (d, *head), answer in zip(above, expected):
        rest = -2 if d == 6 else -1
        cls = vector(d, *head, *([rest] * (9 - len(head))))
        assert effectivity_test(cfg, cls) == from_scratch(points, cls) == answer, cls


def special_configurations(field, rng):
    """Point sets whose value rows have more relations than their number
    forces in some degree: over GF(2) the seven points of the plane;
    elsewhere nine points on the conic xz = y^2 (all eight and one more
    over GF(7)), and ten points: three collinear on the line z = 0 and
    seven on the conic, which a cubic contains."""
    if field.order == 2:
        return [[ProjectivePoint(field, c) for c in itertools.product((0, 1), repeat=3) if any(c)]]
    ts = set()
    while len(ts) < min(9, field.order or 9):
        ts.add(field.random_element(rng))
    conic = [ProjectivePoint(field, (t * t, t, 1)) for t in sorted(ts, key=repr)]
    nine = (conic + [ProjectivePoint(field, c) for c in ((1, 0, 0), (0, 1, 0))])[:9]
    line: set = set()
    while len(line) < 3:
        line.add(ProjectivePoint(field, (1, field.random_element(rng) or 1, 0)))
    return [nine, sorted(line, key=repr) + conic[:7]]


def value_kernel_queries(rng, n):
    """Classes for the multiplicity bound and the value-row kernel: 0/1
    classes with fewer 0s than 1s (some 0s written as -1) in degrees 1 to
    4, and classes with one multiplicity from the degree to two above it
    in degrees 0 to 4, shuffled so that degrees interleave, then some of
    them again."""
    queries = []
    for d in range(1, 5):
        for size in range(n // 2 + 1, n + 1):
            ones = rng.sample(range(n), size)
            queries.append(vector(d, *(-1 if t in ones else rng.choice((0, 1)) for t in range(n))))
    for d in range(5):
        for _ in range(2):
            j = rng.randrange(n)
            top = [-rng.randint(d, d + 2) if t == j else -rng.randint(0, 1) for t in range(n)]
            queries.append(vector(d, *top))
    rng.shuffle(queries)
    return queries + rng.sample(queries, 8)


def pencil_base_points(field, rng):
    """Nine points where three lines meet three others: the base locus of
    the cubic pencil that the two products of three lines span."""
    while True:
        lines = [[field.random_element(rng).raw for _ in range(3)] for _ in range(6)]
        meets = [cross(a, b, field) for a in lines[:3] for b in lines[3:]]
        if all(any(c != field._zero for c in m) for m in meets):
            points = [ProjectivePoint.from_raw(field, m) for m in meets]
            if len(set(points)) == 9:
                return points


def value_elimination_queries(rng, n):
    """Classes for the routes that read the one elimination of the value
    rows per degree: 0/1 classes with at most half their multiplicities 1
    (every triple in degree 1, random ones in degrees 1 to 4 with some 0s
    written as negatives, d e0 with no positive multiplicity in degrees 0
    to 4), and classes over a floor of 1s with at most one 0 (the shape of
    -K + e_i - e_j in degrees 1 to 4, 2 at one to three points over 1s)."""
    queries = [vector(1, *(-1 if t in s else 0 for t in range(n)))
               for s in itertools.combinations(range(n), 3)]
    for d in range(1, 5):
        for size in range(n // 2 + 1):
            ones = rng.sample(range(n), size)
            queries.append(vector(d, *(-1 if t in ones else rng.choice((0, 1)) for t in range(n))))
        for i, j in rng.sample(list(itertools.permutations(range(n), 2)), 10):
            queries.append(vector(d, *(0 if t == i else -2 if t == j else -1 for t in range(n))))
        for size in (1, 2, 3):
            twos = rng.sample(range(n), size)
            queries.append(vector(d, *(-2 if t in twos else -1 for t in range(n))))
    queries += [vector(d, *(rng.choice((0, 1, 2)) for _ in range(n))) for d in range(5)]
    rng.shuffle(queries)
    return queries + rng.sample(queries, 8)


@pytest.mark.parametrize(
    "field",
    [PrimeField(2), PrimeField(7), PrimeField(10007), ExtensionField(3, 2), RationalField()],
    ids=repr,
)
def test_effectivity_by_multiplicity_bound_and_value_kernel(field):
    # one configuration answers classes of every degree from its kept
    # elimination of the value rows per degree; each answer must be the one
    # a fresh elimination gives, also where the points' value rows have
    # extra relations and some point has no v_i with R v_i = e_i
    rng, extra = Random(17), Random(19)
    configs = special_configurations(field, rng)
    if field.order != 2:
        configs.append(pencil_base_points(field, extra))
    for points in configs:
        queried = PointConfiguration(field, points)
        n = len(points)
        for cls in value_kernel_queries(rng, n) + value_elimination_queries(extra, n):
            assert effectivity_test(queried, cls) == from_scratch(points, cls), cls
        assert any(None in _value_kernels(queried, d)[2] for d in range(1, 5))
    if field.order != 2:  # the conic through the first eight points, the cubic through all ten
        nine, ten, pencil = (PointConfiguration(field, points) for points in configs)
        assert effectivity_test(nine, vector(2, *([-1] * 8), 0)) == (True, 0)
        assert effectivity_test(ten, vector(3, *([-1] * 10))) == (True, 0)
        # a pencil of cubics through the base points, no member double at one
        assert effectivity_test(pencil, vector(3, *([-1] * 9))) == (True, 1)
        assert effectivity_test(pencil, vector(3, 0, -2, *([-1] * 7))) == (False, -1)


def test_route_of_each_halphen_family():
    # every family of the index-3 scan keeps its route: sent to the prefix
    # walk it would give the same answers, only slower
    routes = Counter()
    for cls in halphen_prohibited_classes(3):
        mults = [max(m, 0) for m in cls.multiplicities]
        route, d, ncols, *plan = _route(cls.coords)
        assert (d, ncols) == (cls.degree, len(monomial_exponents(d)))
        ones, zeros = (tuple(t for t, m in enumerate(mults) if m == k) for k in (1, 0))
        above = tuple((t, 1, 2) for t, m in enumerate(mults) if m == 2)
        if d == 0:  # e_i - e_j: 1 at j over degree 0
            expected = "bound", []
        elif d == 1:  # lines through three points
            expected = "values", [ones]
        elif d == 2:  # -K - line, conics through six points
            expected = "left", [6, zeros]
        elif d == 3:  # -K + e_i - e_j: 2 at j over the floor K + v_i, 0 at i
            expected = "floor", [tuple(min(m, 1) for m in mults), zeros, above]
            assert len(zeros) == len(above) == 1
        else:  # -K + line, the quartics double at three points, over K
            expected = "floor", [(1,) * 9, (), above]
            assert len(above) == 3
        assert (route, plan) == expected, cls
        routes[route] += 1
    assert routes == {"bound": 72, "values": 84, "left": 84, "floor": 156}


def test_route_of_each_coble_family():
    # the Coble scan's families keep their routes; on ten general points the
    # 360 singular cubics, 0 at a and b, take the floor kernel K + v_a + v_b
    routes = Counter()
    for fam in coble_conditions():
        for cls in fam.representatives:
            mults = [max(m, 0) for m in cls.multiplicities]
            route, d, ncols, *plan = _route(cls.coords)
            zeros = tuple(t for t, m in enumerate(mults) if m == 0)
            above = tuple((t, 1, m) for t, m in enumerate(mults) if m > 1)
            expected = {
                "coincident_pair": ("bound", []),
                "collinear_triple": ("values", [tuple(t for t, m in enumerate(mults) if m)]),
                "conic_six": ("left", [6, zeros]),
                "singular_cubic_eight": ("floor", [tuple(min(m, 1) for m in mults), zeros, above]),
                "triple_point_quartic": ("floor", [(1,) * 10, (), above]),
            }[fam.label]
            assert (route, plan) == expected, cls
            routes[route] += 1
    assert routes == {"bound": 45, "values": 120, "left": 210, "floor": 370}
    cfg = configuration(F, [(x, y, 1) for x, y in NINE[:8] + [(1, 2), (3, 5)]])
    reps = [rep for fam in coble_conditions() for rep in fam.representatives]
    points = list(cfg.points)
    answers = [answer[1:] for answer in _answers(cfg, _runs(reps))]
    assert answers == [from_scratch(points, rep) for rep in reps]
    kernel, _, solutions, _ = _value_kernels(cfg, 3)
    assert None not in solutions
    for a, b in itertools.combinations(range(10), 2):
        floor = tuple(0 if t in (a, b) else 1 for t in range(10))
        assert cfg._floors[3, floor][0] == kernel + [solutions[a], solutions[b]]


def scan_configurations(field, rng):
    """Nine and ten points where the scans' shortcuts do not apply: nine
    points on a conic, whose degree-2 left kernel has more vectors than a
    conic class has 0s; three points off a line and six on it, whose
    left kernel is 0 at the first three, so their columns have a zero
    cross product; the base points of a cubic pencil, where no degree-3 v_i
    exists; ten points on the fixture cubic, which have no degree-3 v_i
    either; those base points and one more, whose v_i exists only at the
    tenth point, so that one of two 0s of a floor has no v_i; and ten
    points on a conic."""
    ts = set()
    while len(ts) < 10:
        ts.add(field.random_element(rng))
    conic = [ProjectivePoint(field, (t * t, t, 1)) for t in sorted(ts, key=repr)]
    pencil = pencil_base_points(field, rng)
    extras = (ProjectivePoint(field, (x, 1, 1)) for x in range(2, 50))
    extra = next(p for p in extras if p not in pencil)
    line = [ProjectivePoint(field, c) for c in ((2, 3, 1), (5, 7, 1), (11, 13, 1))]
    line += [ProjectivePoint(field, (t, 0, 1)) for t in range(1, 7)]
    return [conic[:9], line, pencil], [list(cfg_ten().points), pencil + [extra], conic]


def test_scans_match_a_fresh_elimination_where_no_shortcut_applies():
    # every class of both scans, decided run by run, against one fresh
    # elimination per class; then the witness at m = 1..4 and the Coble
    # report against those answers
    nines, tens = scan_configurations(F, Random(23))
    for points in nines:
        cfg = PointConfiguration(F, points)
        for m in range(1, 5):
            classes = halphen_prohibited_classes(m)
            fresh = [from_scratch(points, cls) for cls in classes]
            answers = _answers(PointConfiguration(F, points), _halphen_runs(m))
            assert [answer[1:] for answer in answers] == fresh, m
            witness = next((cls for cls, (eff, _) in zip(classes, fresh) if eff), None)
            assert is_unnodal_halphen(cfg, m) == (witness is None, witness)
    shapes = Counter()
    conditions, runs = _coble_runs()
    for points in tens:
        cfg = PointConfiguration(F, points)
        fresh = [from_scratch(points, rep) for _, _, rep in conditions]
        answers = sorted(_answers(PointConfiguration(F, points), runs))
        assert [answer[1:] for answer in answers] == fresh
        sextic = from_scratch(points, vector(6, *([-2] * 10)))
        violations = [
            {"label": label, "index_set": list(index_set), "class": rep.to_json(),
             "dimension": dim}
            for (label, index_set, rep), (eff, dim) in zip(conditions, fresh) if eff
        ]
        ok, report = is_coble_set(cfg)
        assert report == {"sextic_effective": sextic[0], "sextic_dimension": sextic[1],
                          "violations": violations}
        assert ok == (sextic == (True, 0) and not violations)
        nones = [v is None for v in _value_kernels(cfg, 3)[2]]
        shapes[sum(nones)] += 1
    # at degree 3: no v_i on the cubic and the conic, v_i at the tenth point alone
    assert shapes == {10: 2, 9: 1}


def test_effectivity_independent_of_the_route_cache():
    # _route keeps one plan per coordinate tuple for the whole process, so
    # no answer may depend on which classes were planned before: two passes
    # in opposite orders on fresh configurations, the first on an empty
    # cache, must agree with each other and with a fresh elimination
    nine, ten = TestCallOrder.pair()[1], cfg_ten()
    p1, p2 = ten.point(1), ten.point(2)
    ten = replaced(ten, 10, ProjectivePoint(F, tuple(a + b for a, b in zip(p1.coords, p2.coords))))
    queries = [(nine, cls) for cls in halphen_prohibited_classes(3)]
    queries += [(ten, rep) for fam in coble_conditions() for rep in fam.representatives]
    _route.cache_clear()
    passes = []
    for order in (1, -1):
        fresh = {len(cfg): PointConfiguration(F, cfg.points) for cfg in (nine, ten)}
        answers = {cls: effectivity_test(fresh[len(cfg)], cls) for cfg, cls in queries[::order]}
        passes.append([answers[cls] for _, cls in queries])
    assert passes[0] == passes[1]
    assert passes[0] == [from_scratch(list(cfg.points), cls) for cfg, cls in queries]
    assert any(effective for effective, _ in passes[0])


def fixture_multiples(ks):
    """The multiples k (0:14:1), k in ks, on the fixture cubic
    y^2 = x^3 - x^2 + x - 6 over F_101, by the chord-tangent law with the
    flex at infinity as origin (the generator has order 100): nine of
    them carry a pencil of index m when their multipliers sum to an
    element of order m mod 100."""
    def add(a, b):
        (x1, y1), (x2, y2) = a, b
        if a == b:
            slope = (3 * x1 * x1 - 2 * x1 + 1) * pow(2 * y1, -1, 101)
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, 101)
        x3 = (slope * slope + 1 - x1 - x2) % 101
        return x3, (-y1 - slope * (x3 - x1)) % 101
    multiples = [(0, 14)]
    while len(multiples) < max(ks):
        multiples.append(add(multiples[-1], multiples[0]))
    return [multiples[k - 1] for k in ks]


def test_degree_six_floors_of_index_four():
    # the 72 classes -2K + e_i - e_j sit 3 at j over the floor 2 everywhere
    # but 1 at i, whose kernel is K + v_r for the two order-1 rows r at i in
    # the elimination of all rows of orders below 2: on an index-4 set the
    # 27 rows are independent; on the index-2 fixture the sextic pencil
    # makes one relation that involves every row, so no v_r exists and the
    # floors take their prefix walk; and on a perturbed index-4 set
    assert fixture_multiples([*range(1, 9), 14]) == NINE
    index4 = [*range(1, 9), 89]  # multipliers summing to 25: order 4
    perturbed = [1, 2, 97, *range(4, 9), 95]  # 97 = -(1 + 2): collinear with 1 and 2
    degree6 = [cls for cls in halphen_prohibited_classes(4) if cls.degree == 6]
    assert len(degree6) == 72
    for ks, shape in ((index4, (0, 0)), ([*range(1, 9), 14], (1, 27)), (perturbed, (0, 0))):
        cfg = configuration(F, [(x, y, 1) for x, y in fixture_multiples(ks)])
        points = list(cfg.points)
        answers = [answer[1:] for answer in _answers(cfg, _runs(degree6))]
        assert answers == [from_scratch(points, cls) for cls in degree6], ks
        _, left, solutions, _ = _value_kernels(cfg, 6, 2)
        assert (len(left), solutions.count(None)) == shape


def test_cached_plans_hold_every_class_once_in_catalog_order():
    # the scans walk runs planned once per process: every class once, with
    # its own plan, in catalog order for the Halphen scans and in catalog
    # order within each run, one run per key, for the Coble scan
    for m in range(1, 6):
        classes = halphen_prohibited_classes(m)
        runs = _halphen_runs(m)
        assert runs is _halphen_runs(m)
        members = [member for _, run in runs for member in run]
        assert [i for i, _ in members] == list(range(len(classes)))
        assert all(plan == _route(classes[i].coords) for i, plan in members)
        assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
    conditions, runs = _coble_runs()
    reps = [rep for fam in coble_conditions() for rep in fam.representatives]
    assert [rep for _, _, rep in conditions] == [vector(3, *([-1] * 10))] + reps
    positions = [i for _, run in runs for i, _ in run]
    assert sorted(positions) == list(range(len(conditions)))
    assert all(list(run) == sorted(run) for _, run in runs)
    assert len({key for key, _ in runs}) == len(runs) == 50
    for key, run in runs:
        for i, plan in run:
            assert plan == _route(conditions[i][2].coords) and plan[: len(key)] == key


def test_coble_report_lists_every_family_in_catalog_order():
    # three points on a line and seven on a conic lie on a cubic, and
    # violate conditions of several families; the report must be the one
    # built from effectivity_test class by class, in catalog order
    points = special_configurations(F, Random(29))[1]
    cfg = PointConfiguration(F, points)
    cubic = vector(3, *([-1] * 10))
    conditions = [("anticanonical_cubic", tuple(range(1, 11)), cubic)]
    conditions += [(f.label, f.index_set, rep) for f in coble_conditions() for rep in f.representatives]
    expected = []
    for label, index_set, rep in conditions:
        effective, dim = effectivity_test(PointConfiguration(F, points), rep)
        if effective:
            expected.append({"label": label, "index_set": list(index_set),
                             "class": rep.to_json(), "dimension": dim})
    ok, report = is_coble_set(cfg)
    assert not ok and report["violations"] == expected
    labels = Counter(v["label"] for v in expected)
    assert labels["anticanonical_cubic"] == 1 and len(labels) >= 3


class TestCobleVerdict:
    def test_fixture_ten_points(self):
        # the ten points lie on the fixture cubic, so -K is effective and
        # the unique double sextic is that cubic counted twice: not Coble
        ok, report = is_coble_set(cfg_ten())
        assert not ok
        assert report["sextic_effective"] and report["sextic_dimension"] == 0
        cubic = vector(3, *([-1] * 10))
        assert report["violations"] == [{"label": "anticanonical_cubic",
                                         "index_set": list(range(1, 11)),
                                         "class": cubic.to_json(), "dimension": 0}]

    def test_coincident_pair_rejected_at_construction(self):
        pts = [(x, y, 1) for x, y in TEN[:9]] + [(TEN[0][0], TEN[0][1], 1)]
        with pytest.raises(DomainError):
            configuration(F, pts)

    def test_collinear_triple_violation(self):
        cfg = cfg_ten()
        p1, p2 = cfg.point(1), cfg.point(2)
        on_line = tuple(a + b for a, b in zip(p1.coords, p2.coords))
        bad = replaced(cfg, 10, ProjectivePoint(F, on_line))
        ok, report = is_coble_set(bad)
        assert not ok
        assert any(v["label"] == "collinear_triple" for v in report["violations"])

    def test_wrong_point_count(self):
        with pytest.raises(DomainError):
            is_coble_set(cfg_nine())


class TestCremona:
    def test_fixes_unit_point_on_coordinate_triangle(self):
        cfg = configuration(F, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (3, 7, 1)])
        out = cremona_quadratic(cfg, 1, 2, 3)
        assert out.point(4) == cfg.point(4)
        # (3:7:1) maps to (7*1 : 3*1 : 3*7)
        assert out.point(5) == ProjectivePoint(F, (7, 3, 21))

    def test_involution_on_generic_configuration(self):
        cfg = configuration(F, [(1, 2, 3), (1, 1, 0), (0, 1, 1), (2, 1, 1), (5, 9, 1)])
        twice = cremona_quadratic(cremona_quadratic(cfg, 1, 2, 3), 1, 2, 3)
        same, _ = projectively_equivalent(cfg, twice)
        assert same

    def test_collinear_base_rejected(self):
        cfg = configuration(F, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (3, 7, 1)])
        with pytest.raises(DomainError):
            cremona_quadratic(cfg, 1, 2, 3)

    def test_point_on_base_line_rejected(self):
        # fifth point on the line through base points 1 and 2
        cfg = configuration(F, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 5, 0)])
        with pytest.raises(DomainError) as err:
            cremona_quadratic(cfg, 1, 2, 3)
        assert "point 5" in str(err.value)

    def test_base_index_validation(self):
        cfg = configuration(F, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        with pytest.raises(DomainError):
            cremona_quadratic(cfg, 1, 1, 2)
        with pytest.raises(DomainError):
            cremona_quadratic(cfg, 0, 1, 2)


class TestWordAction:
    def test_swap_letters(self):
        cfg = cfg_nine()
        out = act_by_word(cfg, [4])
        assert out.point(4) == cfg.point(5) and out.point(5) == cfg.point(4)
        assert act_by_word(out, [4]) == cfg

    def test_step_reported_on_failure(self):
        cfg = configuration(F, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 5, 0)])
        with pytest.raises(DomainError) as err:
            act_by_word(cfg, [1, 0])
        assert str(err.value).startswith("step 1:")

    def test_letter_out_of_range(self):
        with pytest.raises(DomainError):
            act_by_word(cfg_nine(), [9])

    def test_effectivity_transported_by_word(self):
        # dimensions of linear systems are preserved when the class is
        # moved by the same word that moves the points
        cfg = cfg_nine()
        word = [0, 2, 0, 5]
        moved = act_by_word(cfg, word)
        g = word_to_isometry(word, 9)
        for cls in [
            vector(1, -1, -1, 0, 0, 0, 0, 0, 0, 0),
            vector(3, *([-1] * 9)),
            vector(2, -1, -1, -1, -1, -1, 0, 0, 0, 0),
        ]:
            before = effectivity_test(cfg, cls)
            after = effectivity_test(moved, g.apply(cls))
            assert before == after


class TestProjectiveEquivalence:
    def test_detects_transformed_copy(self):
        from picweyl.projgeom import mat3_apply

        cfg = cfg_nine()
        m = ((1, 2, 0), (0, 1, 5), (3, 0, 1))  # raws of F
        moved = PointConfiguration(
            F, [ProjectivePoint.from_raw(F, mat3_apply(m, p.raw, F)) for p in cfg.points]
        )
        same, transform = projectively_equivalent(cfg, moved)
        assert same and transform is not None

    def test_rejects_unrelated(self):
        cfg = cfg_nine()
        other = replaced(cfg, 9, ProjectivePoint(F, (1, 2, 1)))
        same, transform = projectively_equivalent(cfg, other)
        assert not same and transform is None
