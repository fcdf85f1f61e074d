"""Quadratic-form arithmetic mod m in simple-root coordinates, reflections,
spinor bookkeeping, Witt extension, and the two root searches.

Brute-force cross checks run against tiny moduli where full enumeration of
the module is affordable.
"""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from picweyl import (
    BudgetError,
    DomainError,
    ReflectionProduct,
    ResidueModule,
    adjust_to_spin,
    apply_reflection,
    canonical_vector,
    enumerate_roots,
    find_root_in_submodule,
    inner,
    integer_left_inverse,
    represent_unit,
    residue,
    residue_mod2,
    root_basis_coordinates,
    simple_roots,
    smith_normal_form,
    spinor_norm,
    square_class,
    vector,
    witt_extend,
)

coords10 = st.tuples(*[st.integers(0, 5) for _ in range(10)])

# eight generators mod 16 on which the theory target's Witt connector runs
# out of trials, while a root exists
GENS16 = [
    [11, 12, 11, 5, 2, 11, 15, 1, 14, 15], [12, 5, 15, 5, 3, 8, 10, 10, 11, 11],
    [10, 11, 9, 7, 11, 8, 0, 14, 5, 6], [7, 8, 10, 11, 11, 4, 9, 10, 11, 12],
    [2, 6, 14, 7, 5, 6, 9, 9, 2, 2], [9, 12, 11, 14, 13, 7, 5, 5, 15, 5],
    [12, 0, 12, 7, 7, 15, 0, 2, 14, 12], [15, 10, 1, 13, 9, 15, 13, 5, 1, 7],
]


def _smul(module, c, x):
    """c x in the module, coordinate by coordinate."""
    return module.reduce([c * a for a in x])


def _full(module):
    """The whole module, spanned by the simple residues."""
    return module.submodule([module.simple_residue(i) for i in range(module.rank)])


def _span_is_isotropic(module, gens):
    """Reference for is_totally_singular: enumerate the span, test every q."""
    span = {(0,) * module.rank}
    for g in gens:
        span = {module.add(v, _smul(module, c, g)) for v in span for c in range(module.m)}
    return all(module.quadratic(v) == 0 for v in span)


class TestFormForEveryN:
    @pytest.mark.parametrize("n", [9, 10, 11])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_quadratic_and_bilinear_match_the_lattice(self, n, data):
        # x.G.y computed in Z^{1,n} from x = sum x_i alpha_i
        m = data.draw(st.integers(2, 12))
        xs = [data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)) for _ in "xy"]
        alpha = simple_roots(n)
        x, y = (sum((a * c for a, c in zip(alpha, v)), vector(*[0] * (n + 1))) for v in xs)
        M = ResidueModule(m, n)
        assert M.quadratic(xs[0]) == (inner(x, x) // 2) % m
        assert M.bilinear(*xs) == inner(x, y) % m

    @pytest.mark.parametrize("n, m", [(9, 2), (10, 2), (11, 2), (10, 3), (4, 2)])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_totally_singular_matches_enumerated_span(self, n, m, data):
        k = data.draw(st.integers(0, 3))
        coords = st.lists(st.integers(0, m - 1), min_size=n, max_size=n)
        gens = [tuple(data.draw(coords)) for _ in range(k)]
        M = ResidueModule(m, n)
        assert M.is_totally_singular(gens) == _span_is_isotropic(M, gens)

    def test_canonical_vector_spans_the_radical_for_n9(self):
        kc = root_basis_coordinates(-canonical_vector(9))
        for m in (2, 3, 4):
            M = ResidueModule(m, 9)
            assert M.is_totally_singular([kc])
            assert not M.is_totally_singular([kc, M.simple_residue(0)])


class TestModuleArithmetic:
    def test_reduce_and_ops(self):
        M = ResidueModule(6)
        x = M.reduce((7, -1, 0, 0, 0, 0, 0, 0, 0, 12))
        assert x == (1, 5, 0, 0, 0, 0, 0, 0, 0, 0)
        y = M.simple_residue(3)
        assert M.add(x, y)[3] == 1
        assert M.sub(x, x) == (0,) * 10
        assert M.sub(M.reduce((0,) * 10), x) == _smul(M, 5, x)

    def test_quadratic_of_simple_residue(self):
        # q(alpha_i) = -1, so mod m the value is m - 1
        for m in (2, 3, 4, 5, 9):
            M = ResidueModule(m)
            for i in range(10):
                assert M.quadratic(M.simple_residue(i)) == m - 1

    @given(coords10, coords10)
    @settings(max_examples=80, deadline=None)
    def test_polarization_identity(self, x, y):
        M = ResidueModule(6)
        x, y = M.reduce(x), M.reduce(y)
        lhs = (M.quadratic(M.add(x, y)) - M.quadratic(x) - M.quadratic(y)) % 6
        assert lhs == M.bilinear(x, y)

    def test_unit_helpers(self):
        M = ResidueModule(9)
        assert M.is_unit(2) and not M.is_unit(3) and not M.is_unit(0)
        assert (M.inverse(2) * 2) % 9 == 1
        with pytest.raises((DomainError, ValueError)):
            M.inverse(3)

    def test_prime_power_decomposition(self):
        assert ResidueModule(8).prime_power() == (2, 3)
        assert ResidueModule(5).prime_power() == (5, 1)
        # composite moduli exist as modules but have no single prime power
        with pytest.raises(DomainError):
            ResidueModule(6).prime_power()

    def test_rejects_bad_modulus(self):
        with pytest.raises((DomainError, ValueError)):
            ResidueModule(1)
        with pytest.raises((DomainError, ValueError)):
            ResidueModule(0)


class TestSubmodule:
    def test_full_module(self):
        M = ResidueModule(4)
        sub = _full(M)
        assert sub.free_rank == 10
        assert sub.contains((1, 2, 3, 0, 0, 0, 0, 0, 1, 3))

    def test_membership_matches_brute_force(self):
        M = ResidueModule(3)
        gens = [(1, 0, 2, 0, 0, 0, 1, 0, 0, 0), (0, 1, 1, 0, 2, 0, 0, 0, 0, 1)]
        sub = M.submodule(gens)
        # brute force: all F_3 combinations of the generators
        span = set()
        for c1, c2 in product(range(3), repeat=2):
            span.add(M.add(_smul(M, c1, gens[0]), _smul(M, c2, gens[1])))
        for x in span:
            assert sub.contains(x)
        rng = random.Random(0)
        for _ in range(60):
            v = M.reduce(tuple(rng.randrange(3) for _ in range(10)))
            assert sub.contains(v) == (v in span)

    @given(
        st.sampled_from([2, 3]),
        st.lists(st.tuples(*[st.integers(-4, 4) for _ in range(10)]), min_size=1, max_size=4),
        st.lists(st.integers(0, 2), min_size=4, max_size=4),
        st.tuples(*[st.integers(-4, 4) for _ in range(10)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_membership_matches_span_enumeration(self, m, gens, coeffs, x):
        # the syndrome rows against every combination of the generators
        M = ResidueModule(m)
        sub = M.submodule(gens)
        span = {
            M.reduce([sum(c * g[i] for c, g in zip(cs, gens)) for i in range(10)])
            for cs in product(range(m), repeat=len(gens))
        }
        assert sub.contains(x) == (M.reduce(x) in span)
        member = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(10)]
        assert sub.contains(member)

    def test_invariant_factors_of_scaled_lattice(self):
        M = ResidueModule(6)
        gens = [_smul(M, 2, M.simple_residue(i)) for i in range(10)]
        sub = M.submodule(gens)
        # 2 * (full module) mod 6: every factor 3, free rank 0
        assert sub.free_rank == 0
        assert all(f in (1, 2, 3, 6) for f in sub.invariant_factors)

    def test_free_basis_matches_left_inverse_columns(self):
        # the columns of A.V with factor 1 are those of U^-1 (U.A.V = D)
        panel = _syndrome_panel()
        assert {sub.free_rank for sub in panel} == {8, 9, 10}
        assert {sub.module.m for sub in panel} == set(range(2, 31))
        shapes = {(sub.module.m, sub.invariant_factors[8:]) for sub in panel}
        assert {(6, (3, 6)), (8, (2, 2))} <= shapes
        for sub in panel:
            assert sub.free_basis() == _left_inverse_free_basis(sub)

    def test_free_basis_spans_contained_vectors(self):
        M = ResidueModule(5)
        rng = random.Random(4)
        gens = [tuple(rng.randrange(5) for _ in range(10)) for _ in range(8)]
        sub = M.submodule(gens)
        for b in sub.free_basis():
            assert sub.contains(b)


class TestRepresentUnit:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9, 25, 27])
    def test_all_units_on_full_module(self, m):
        M = ResidueModule(m)
        sub = _full(M)
        for a in range(1, m):
            if M.is_unit(a):
                v = represent_unit(sub, a)
                assert M.quadratic(v) == a
                assert sub.contains(v)

    def test_on_a_random_rank8_submodule(self):
        rng = random.Random(17)
        M = ResidueModule(9)
        while True:
            gens = [tuple(rng.randrange(9) for _ in range(10)) for _ in range(8)]
            sub = M.submodule(gens)
            if sub.free_rank == 8:
                break
        for a in (1, 2, 4, 5, 7, 8):
            v = represent_unit(sub, a)
            assert M.quadratic(v) == a and sub.contains(v)

    def test_non_unit_rejected(self):
        M = ResidueModule(9)
        with pytest.raises(DomainError):
            represent_unit(_full(M), 3)

    def test_tiny_submodule_rejected(self):
        M = ResidueModule(3)
        sub = M.submodule([M.simple_residue(0)])
        with pytest.raises(DomainError):
            represent_unit(sub, 1)


class TestReflections:
    @given(coords10, coords10)
    @settings(max_examples=60, deadline=None)
    def test_reflection_involution_and_isometry(self, h, x):
        M = ResidueModule(7)
        h, x = M.reduce(h), M.reduce(x)
        if not M.is_unit(M.quadratic(h)):
            return
        y = apply_reflection(M, h, x)
        assert apply_reflection(M, h, y) == x
        assert M.quadratic(y) == M.quadratic(x)

    def test_reflection_requires_unit_norm(self):
        M = ResidueModule(4)
        h = M.simple_residue(0)
        two_h = _smul(M, 2, h)  # q = -4 = 0 mod 4
        with pytest.raises(DomainError):
            apply_reflection(M, two_h, h)

    def test_product_application_order(self):
        M = ResidueModule(5)
        h1, h2 = M.simple_residue(0), M.simple_residue(4)
        prod = ReflectionProduct(M).then(h1).then(h2)
        x = M.reduce((1, 1, 1, 1, 1, 0, 0, 0, 0, 0))
        manual = apply_reflection(M, h2, apply_reflection(M, h1, x))
        assert prod.apply(x) == manual
        assert len(prod) == 2


class TestSquareClassAndSpinor:
    def test_odd_prime_labels(self):
        # mod 5: squares {1, 4}, non-squares {2, 3}; least non-residue is 2
        assert square_class(1, 5, 1) == 1
        assert square_class(4, 5, 2) == 1
        assert square_class(2, 5, 1) == 2
        assert square_class(3, 5, 3) == 2

    def test_two_adic_labels(self):
        assert square_class(3, 2, 1) == 1  # everything collapses mod 2
        assert square_class(3, 2, 2) == 3
        assert square_class(7, 2, 3) == 7
        assert square_class(9, 2, 3) == 1
        assert square_class(17, 2, 3) == 1  # 17 = 1 mod 8

    def test_spinor_norm_of_empty_product(self):
        M = ResidueModule(9)
        assert spinor_norm(ReflectionProduct(M)) == 1

    def test_spinor_norm_multiplicative(self):
        rng = random.Random(23)
        M = ResidueModule(25)
        p, k = M.prime_power()

        def random_product():
            prod = ReflectionProduct(M)
            for _ in range(rng.randint(1, 4)):
                while True:
                    h = M.reduce(tuple(rng.randrange(25) for _ in range(10)))
                    if M.is_unit(M.quadratic(h)):
                        break
                prod = prod.then(h)
            return prod

        for _ in range(100):
            a, b = random_product(), random_product()
            lhs = spinor_norm(ReflectionProduct(M, a.vectors + b.vectors))
            rhs = square_class(
                spinor_norm(a) * spinor_norm(b), p, k
            )
            assert lhs == rhs


class TestWittExtend:
    @pytest.mark.parametrize("m", [3, 4, 5, 9])
    def test_random_pairs_verified_by_application(self, m):
        rng = random.Random(m)
        M = ResidueModule(m)
        full = _full(M)
        done = 0
        while done < 8:
            # build an isometric pair by pushing a frame through reflections
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
            for f, g in zip(fs, gs):
                assert carried.apply(f) == g
            done += 1

    def test_rejects_non_isometric_data(self):
        M = ResidueModule(5)
        f = M.simple_residue(0)  # q = 4
        g = _smul(M, 2, M.simple_residue(0))  # q = 16 = 1 mod 5
        with pytest.raises(DomainError):
            witt_extend([f], [g], M)

    def test_rejects_mismatched_lengths(self):
        M = ResidueModule(5)
        with pytest.raises(DomainError):
            witt_extend([M.simple_residue(0)], [], M)


def _left_inverse_free_basis(sub):
    """The columns of U^-1 with invariant factor 1, reduced mod m, where
    U.[generators | m.I].V = D."""
    m, n = sub.module.m, sub.module.rank
    a = [[g[i] for g in sub.generators] + [m * (i == j) for j in range(n)] for i in range(n)]
    u, d, _ = smith_normal_form(a)
    uinv = integer_left_inverse(u)
    return [tuple(uinv[i][j] % m for i in range(n)) for j in range(n) if d[j][j] == 1]


def _vector_by_vector_connector(module, matched, f, g, d):
    """The connector scan that builds every candidate vector and tests it."""
    m = module.m
    basis = residue._orthogonal_basis(module, matched)
    trials = 0
    for support in range(1, len(basis) + 1):
        for idxs in combinations(range(len(basis)), support):
            for coeffs in product(range(1, m), repeat=support):
                trials += 1
                if trials > residue._WITT_TRIALS:
                    raise BudgetError("no Witt connector found within the search budget")
                w = module.reduce(
                    [sum(c * basis[t][i] for c, t in zip(coeffs, idxs)) for i in range(10)]
                )
                qw = module.quadratic(w)
                if not module.is_unit(qw) or module.bilinear(g, w) != (-qw) % m:
                    continue
                if not module.is_unit(module.quadratic(module.sub(d, w))):
                    continue
                return w
    raise BudgetError("no Witt connector found in the orthogonal complement")


def _connector_outcome(connector, args):
    try:
        return connector(*args)
    except BudgetError as err:
        return str(err)


def _power_of_two_cases(seed):
    """Random connector inputs mod 2, 4, 8 and 16, where q(d) often fails
    to be a unit."""
    rng = random.Random(seed)
    for m in (2, 4, 8, 16):
        M = ResidueModule(m)
        for _ in range(6):
            matched = [M.reduce([rng.randrange(m) for _ in range(10)])
                       for _ in range(rng.randrange(3))]
            f, g = (M.reduce([rng.randrange(m) for _ in range(10)]) for _ in range(2))
            yield M, matched, f, g, M.sub(f, g)


def _accepting_trial(case, cap):
    """The trial at which the scan of vectors accepts a candidate, when that
    is within cap trials; None otherwise."""
    saved = residue._WITT_TRIALS
    try:
        lo, hi = 1, cap
        residue._WITT_TRIALS = cap
        if not isinstance(_connector_outcome(_vector_by_vector_connector, case), tuple):
            return None
        while lo < hi:  # the least budget under which the scan accepts
            residue._WITT_TRIALS = (lo + hi) // 2
            if isinstance(_connector_outcome(_vector_by_vector_connector, case), tuple):
                hi = residue._WITT_TRIALS
            else:
                lo = residue._WITT_TRIALS + 1
        return lo
    finally:
        residue._WITT_TRIALS = saved


class TestWittConnector:
    def test_gram_scores_match_building_every_vector(self):
        rng = random.Random("witt-connector")
        cases = []
        for m in (2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27, 30):
            M = ResidueModule(m)
            for _ in range(4):
                matched = [M.reduce([rng.randrange(m) for _ in range(10)])
                           for _ in range(rng.randrange(3))]
                f, g = (M.reduce([rng.randrange(m) for _ in range(10)]) for _ in range(2))
                cases.append((M, matched, f, g, M.sub(f, g)))
        # a unimodular form: nothing but 0 is orthogonal to every simple root
        M = ResidueModule(3)
        f, g = M.simple_residue(0), M.simple_residue(2)
        cases.append((M, [M.simple_residue(i) for i in range(10)], f, g, M.sub(f, g)))
        outcomes = [_connector_outcome(residue._witt_connector, c) for c in cases]
        assert outcomes == [_connector_outcome(_vector_by_vector_connector, c) for c in cases]
        assert any(isinstance(o, tuple) for o in outcomes)
        assert "no Witt connector found in the orthogonal complement" in outcomes

    @pytest.mark.parametrize("cap", [1, 7, 60, 500])
    def test_trial_cap_ends_both_scans_at_the_same_trial(self, monkeypatch, cap):
        monkeypatch.setattr(residue, "_WITT_TRIALS", cap)
        outcomes = []
        for case in _power_of_two_cases(f"witt-cap-{cap}"):
            expected = _connector_outcome(_vector_by_vector_connector, case)
            assert _connector_outcome(residue._witt_connector, case) == expected
            outcomes.append(expected)
        assert "no Witt connector found within the search budget" in outcomes
        assert any(isinstance(o, tuple) for o in outcomes)

    def test_cap_just_below_the_accepting_trial_raises_in_both_scans(self, monkeypatch):
        late = 0
        for case in _power_of_two_cases("witt-boundary"):
            hit = _accepting_trial(case, 500)
            if hit is None:
                continue
            late += hit > 15  # past the first support-1 block mod 16
            for cap in (hit - 1, hit):
                monkeypatch.setattr(residue, "_WITT_TRIALS", cap)
                expected = _connector_outcome(_vector_by_vector_connector, case)
                assert isinstance(expected, tuple) == (cap == hit)
                assert _connector_outcome(residue._witt_connector, case) == expected
        assert late

    def test_theory_targets_connectors_match_building_every_vector(self, monkeypatch):
        # the connector calls of real targets, the trial cap mod 16 among them
        calls = []
        connector = residue._witt_connector

        def spy(*args):
            calls.append(args)
            return connector(*args)

        monkeypatch.setattr(residue, "_witt_connector", spy)
        rng = random.Random("witt-targets")
        subs = [ResidueModule(16).submodule(GENS16)]
        subs += [random_rank8_submodule(ResidueModule(m), rng) for m in (4, 8, 12, 16)]
        for sub in subs:
            find_root_in_submodule(sub, "theory", max_depth=0)
        outcomes = [_connector_outcome(connector, c) for c in calls]
        assert outcomes == [_connector_outcome(_vector_by_vector_connector, c) for c in calls]
        assert "no Witt connector found within the search budget" in outcomes
        assert any(isinstance(o, tuple) for o in outcomes)


class TestAdjustToSpin:
    def test_postconditions(self):
        rng = random.Random(31)
        M = ResidueModule(9)
        sub = _full(M)
        for trial in range(20):
            prod = ReflectionProduct(M)
            for _ in range(rng.randint(0, 3)):
                while True:
                    h = M.reduce(tuple(rng.randrange(9) for _ in range(10)))
                    if M.is_unit(M.quadratic(h)):
                        break
                prod = prod.then(h)
            fixed = adjust_to_spin(prod, sub)
            assert len(fixed) % 2 == 0
            assert spinor_norm(fixed) == 1
            # the adjustment only appends reflections
            assert fixed.vectors[: len(prod)] == prod.vectors

    def test_module_mismatch(self):
        M9, M3 = ResidueModule(9), ResidueModule(3)
        with pytest.raises(DomainError):
            adjust_to_spin(ReflectionProduct(M9), _full(M3))


def random_rank8_submodule(module, rng):
    while True:
        gens = [
            tuple(rng.randrange(module.m) for _ in range(10)) for _ in range(8)
        ]
        sub = module.submodule(gens)
        if sub.free_rank == 8:
            return sub


def _reference_word_search(starts, sub, depth, cap):
    """The word search with no syndromes: each level is built whole, then
    its roots are tested one by one with sub.contains."""
    gram = sub.module.gram
    nodes = list(starts)
    parents = [None] * len(nodes)
    seen = set(nodes)
    lo = 0
    for level in range(depth + 1):
        if level:
            children = []
            for idx in range(lo, len(nodes)):
                x = nodes[idx]
                for letter in range(len(x)):
                    child = list(x)
                    child[letter] += sum(g * c for g, c in zip(gram[letter], x))
                    child = tuple(child)
                    if child not in seen:
                        seen.add(child)
                        children.append((child, idx, letter))
            if len(nodes) + len(children) > cap:
                return f"orbit capped at {len(nodes)} roots before level {level}"
            lo = len(nodes)
            for child, idx, letter in children:
                nodes.append(child)
                parents.append((idx, letter))
        for idx in range(lo, len(nodes)):
            if sub.contains(nodes[idx]):
                word = []
                start = idx
                while parents[start] is not None:
                    start, letter = parents[start]
                    word.append(letter)
                return start, word[::-1], nodes[idx]
    return None


def _reference_levels(starts, depth):
    """The breadth-first walk from starts built from scratch, with one set of
    every root seen: per level, its roots and (parent, letter, delta) steps."""
    gram = ResidueModule(2).gram
    seen = set(starts)
    levels = [(tuple(starts), ())]
    first = 0
    for _ in range(depth):
        parents = levels[-1][0]
        roots, steps = [], []
        for idx, x in enumerate(parents, first):
            for letter in range(len(x)):
                delta = sum(g * c for g, c in zip(gram[letter], x))
                child = x[:letter] + (x[letter] + delta,) + x[letter + 1:]
                if child not in seen:
                    seen.add(child)
                    roots.append(child)
                    steps.append((idx, letter, delta))
        first += len(parents)
        levels.append((tuple(roots), tuple(steps)))
    return levels


def _capped_search(monkeypatch, sub, method, cap, depth=None):
    """A root search with the visited-roots cap set to cap."""
    with monkeypatch.context() as patch:
        patch.setattr(residue, "_VISITED_CAP", cap)
        return find_root_in_submodule(sub, method, max_depth=depth)


def _search_outcome(monkeypatch, sub, method, cap=residue._VISITED_CAP):
    try:
        out = _capped_search(monkeypatch, sub, method, cap)
    except (BudgetError, DomainError) as err:
        return type(err).__name__, str(err)
    return out.status, out.certificate


def _twisted(module, gens, rng):
    """The generators moved by a random Weyl word, an automorphism of the
    module: the invariant factors stay, the coordinates get mixed."""
    gens = [list(g) for g in gens]
    for _ in range(30):
        i = rng.randrange(module.rank)
        for g in gens:
            g[i] += sum(a * b for a, b in zip(module.gram[i], g))
    return [module.reduce(g) for g in gens]


def _syndrome_panel():
    """Submodules of free rank 8, 9 and 10 for every m from 2 to 30, and
    free rank 8 with torsion factors other than m where m has them."""
    rng = random.Random("syndrome-panel")
    panel = []
    for m in range(2, 31):
        M = ResidueModule(m)
        for rank in (8, 9, 10):
            while True:
                sub = M.submodule(
                    [tuple(rng.randrange(m) for _ in range(10)) for _ in range(rank)]
                )
                if sub.free_rank == rank:
                    panel.append(sub)
                    break
        divisors = [d for d in range(2, m) if m % d == 0]
        if divisors:
            free = list(random_rank8_submodule(M, rng).generators)
            extra = [
                tuple(rng.choice(divisors) * rng.randrange(m) % m for _ in range(10))
                for _ in range(2)
            ]
            panel.append(M.submodule(free + extra))
    e = [tuple(int(i == j) for j in range(10)) for i in range(10)]
    for m, torsion, factors in ((6, [(3, 8)], (3, 6)), (8, [(2, 8), (2, 9)], (2, 2))):
        M = ResidueModule(m)
        gens = e[:8] + [_smul(M, c, e[i]) for c, i in torsion]
        sub = M.submodule(_twisted(M, gens, rng))
        assert sub.invariant_factors == (1,) * 8 + factors
        panel.append(sub)
    return panel


class TestRootSearch:
    @pytest.mark.parametrize("method", ["theory", "orbit-bfs"])
    def test_finds_roots_small_moduli(self, method):
        rng = random.Random(1)
        k10 = canonical_vector(10)
        for m in (2, 3, 4):
            M = ResidueModule(m)
            for _ in range(3):
                sub = random_rank8_submodule(M, rng)
                out = find_root_in_submodule(sub, method)
                assert out.status == "found"
                r = out.root
                assert inner(r, r) == -2 and inner(r, k10) == 0
                res = tuple(c % m for c in root_basis_coordinates(r))
                assert sub.contains(res)
                assert out.certificate["method"] in ("Theory", "OrbitBFS")
                assert out.certificate["modulus"] == m

    def test_certificate_word_replays(self):
        from picweyl import apply_word

        rng = random.Random(5)
        for m in (2, 3, 5, 6):
            sub = random_rank8_submodule(ResidueModule(m), rng)
            for method in ("theory", "orbit-bfs"):
                out = find_root_in_submodule(sub, method)
                assert out.status == "found"
                cert = out.certificate
                # the word carries the recorded simple root onto the root
                base = simple_roots(10)[cert["base"]]
                assert apply_word(base, cert["word"]) == out.root

    def test_theory_accepts_the_whole_submodule(self):
        # the search takes any root whose residue lies in the submodule, not
        # only in the free rank-8 piece the target is built in: with a ninth
        # free generator mod 25 a short word reaches the submodule
        rng = random.Random("rank9/25")
        gens = [tuple(rng.randrange(25) for _ in range(10)) for _ in range(9)]
        sub = ResidueModule(25).submodule(gens)
        out = find_root_in_submodule(sub, "theory")
        assert sub.free_rank == 9 and out.status == "found"
        assert out.certificate["base"] == 1 and len(out.certificate["word"]) == 4
        assert sub.contains(out.certificate["target"])

    def test_theory_searches_when_its_target_runs_out_of_budget(self):
        sub = ResidueModule(16).submodule(GENS16)
        with pytest.raises(BudgetError):
            residue._theory_target(sub)
        out = find_root_in_submodule(sub, "theory")
        assert out.status == "found"
        assert out.certificate["target"] is None
        assert out.certificate["base"] == 1
        assert out.certificate["word"] == [2, 3, 0, 4, 3, 2, 5, 4, 3, 6, 7]
        assert sub.contains(out.certificate["residue"])
        out = find_root_in_submodule(sub, "theory", max_depth=0)
        assert out.status == "inconclusive" and out.certificate["residue"] is None

    def test_zero_budget_is_inconclusive(self):
        M = ResidueModule(5)
        rng = random.Random(9)
        sub = random_rank8_submodule(M, rng)
        out = find_root_in_submodule(sub, "theory", max_depth=0)
        # depth 0 leaves only the start residue; usually not in the piece
        assert out.status in ("found", "inconclusive")
        out2 = find_root_in_submodule(sub, "orbit-bfs", max_depth=0)
        assert out2.status in ("found", "inconclusive")

    def test_visited_cap_reports_inconclusive(self, monkeypatch):
        M = ResidueModule(5)
        rng = random.Random(1)  # this seed needs a depth-1 word
        sub = random_rank8_submodule(M, rng)
        unrestricted = find_root_in_submodule(sub, "orbit-bfs")
        assert unrestricted.status == "found"
        assert len(unrestricted.certificate["word"]) >= 1
        # a cap at the seed level forbids growing even one level
        out = _capped_search(monkeypatch, sub, "orbit-bfs", 10)
        assert out.status == "inconclusive"
        assert "capped" in out.certificate["reason"]

    def test_searches_keep_no_state_between_calls(self, monkeypatch):
        # a capped search answers the same before and after an uncapped one
        sub = random_rank8_submodule(ResidueModule(5), random.Random(1))
        fresh = _capped_search(monkeypatch, sub, "orbit-bfs", 10)
        find_root_in_submodule(sub, "orbit-bfs")
        again = _capped_search(monkeypatch, sub, "orbit-bfs", 10)
        assert fresh.status == again.status == "inconclusive"
        assert fresh.certificate == again.certificate
        assert "capped" in fresh.certificate["reason"]
        # the orbit memo answers alike whether a search finds it empty or
        # already deeper than it needs: shallow searches first, then deep
        # ones first
        subs = [random_rank8_submodule(ResidueModule(m), random.Random(seed))
                for m, seed in ((5, 1), (7, 3), (25, 1), (27, 1))]

        def outcome(*run):
            out = _capped_search(monkeypatch, *run)
            return out.status, out.certificate

        runs = [(sub, method, cap, depth)
                for cap, depth in ((10, None), (295, None), (2**24, 3),
                                   (2**24, None), (2**24, 30))
                for sub in subs for method in ("orbit-bfs", "theory")]
        residue._orbit_level.cache_clear()
        forward = [outcome(*run) for run in runs]
        residue._orbit_level.cache_clear()
        backward = [outcome(*run) for run in runs[::-1]]
        assert forward == backward[::-1]
        assert {"found", "inconclusive"} == {status for status, _ in forward}
        reasons = [cert.get("reason", "") for _, cert in forward]
        assert any("capped at 10 " in r for r in reasons)
        assert any("capped at 295 " in r for r in reasons)

    def test_orbit_memo_matches_a_walk_from_scratch(self):
        e = [tuple(int(i == j) for j in range(10)) for i in range(10)]
        for starts in ((e[1],), tuple(e)):
            residue._orbit_level.cache_clear()
            end = 0
            for level, (roots, steps) in enumerate(_reference_levels(starts, 30)):
                end += len(roots)
                assert residue._orbit_level(starts, level) == (roots, steps, end)
        # both start sets reach the same 626 roots by depth 24
        walked = [{x for lv in range(25) for x in residue._orbit_level(s, lv)[0]}
                  for s in ((e[1],), tuple(e))]
        assert walked[0] == walked[1] and len(walked[0]) == 626

    def test_orbit_memo_is_only_as_deep_as_the_searches(self, monkeypatch):
        # a search that stops at level L has built levels 0..L and no more
        sub = random_rank8_submodule(ResidueModule(7), random.Random(3))
        for method, cap, depth, level in (("theory", 2**24, None, 6),
                                          ("orbit-bfs", 2**24, None, 6),
                                          ("orbit-bfs", 2**24, 3, 3),
                                          ("orbit-bfs", 100, None, 5)):
            residue._orbit_level.cache_clear()
            out = _capped_search(monkeypatch, sub, method, cap, depth)
            if out.status == "found":
                assert len(out.certificate["word"]) == level
            assert residue._orbit_level.cache_info().currsize == level + 1

    def test_syndrome_search_matches_member_by_member_search(self, monkeypatch):
        panel = _syndrome_panel()
        shapes = {(sub.module.m, sub.invariant_factors[8:]) for sub in panel}
        assert {(6, (3, 6)), (8, (2, 2))} <= shapes
        assert any(f not in (1, sub.module.m) for sub in panel for f in sub.invariant_factors)
        # theory's target costs far more than its search: a third of the panel
        # and the two named shapes are enough to pin its certificates
        runs = [(sub, "theory") for sub in panel[::3] + panel[-2:]]
        runs += [(sub, "orbit-bfs") for sub in panel]
        # orbit-bfs holds 295 roots after level 14: a cap met exactly
        runs += [(sub, "orbit-bfs", 295) for sub in panel[::7]]
        fast = [_search_outcome(monkeypatch, *run) for run in runs]
        monkeypatch.setattr(residue, "_word_search", _reference_word_search)
        slow = [_search_outcome(monkeypatch, *run) for run in runs]
        assert fast == slow
        statuses = {outcome[0] for outcome in fast}
        assert {"found", "inconclusive"} <= statuses
        assert any("capped" in str(outcome[1]) for outcome in fast)

    def test_other_ranks_rejected(self):
        for n in (9, 11):
            with pytest.raises(DomainError):
                find_root_in_submodule(_full(ResidueModule(3, n)))

    def test_small_rank_rejected(self):
        M = ResidueModule(3)
        sub = M.submodule([M.simple_residue(0)])
        with pytest.raises(DomainError):
            find_root_in_submodule(sub)

    def test_unknown_method(self):
        # exactly "theory" and "orbit-bfs"; the CLI maps --method bfs itself
        M = ResidueModule(3)
        for method in ("dowsing", "bfs", "orbit_bfs", " Theory"):
            with pytest.raises(ValueError):
                find_root_in_submodule(_full(M), method)


def test_error_hierarchy():
    # library misuse surfaces as ValueError kinds; exhausted searches as
    # RuntimeError kinds, so callers can tell the two apart
    assert issubclass(DomainError, ValueError)
    assert issubclass(BudgetError, RuntimeError)


def test_mod2_root_residues_hit_every_norm_one_class():
    # the 496 mod-2 classes of q = 1 are exactly the root residues
    seen = {residue_mod2(r) for r in enumerate_roots(10, 4)}
    assert len(seen) == 496
    M = ResidueModule(2)
    assert all(M.quadratic(res) == 1 for res in seen)
