"""Tests for Smith normal form, lattices and lattice cohomology."""

import json
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snf_oracle
import tate_oracle
from galpairs import exact_linalg as el
from galpairs import cli, linalg


# (m, U, D, V) recorded from the pivot rule: one case for each of its steps
SNF_GOLDEN = json.loads(Path(__file__).with_name("snf_golden.json").read_text(encoding="utf-8"))


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


class TestSmithNormalForm:
    def test_determinantal_divisor_oracle(self):
        # invariant factors of [[2,4],[6,8]] from gcds of minors: d1 = 2,
        # d1*d2 = |det| = 8, so the diagonal is (2, 4)
        u, d, v = el.smith_normal_form([[2, 4], [6, 8]])
        assert el.diagonal_of(d) == [2, 4]

    def test_transform_is_exact(self):
        m = [[2, 4], [6, 8]]
        u, d, v = el.smith_normal_form(m)
        assert _matmul(_matmul(u, m), v) == d
        assert abs(_det(u)) == 1
        assert abs(_det(v)) == 1

    def test_zero_and_rectangular(self):
        u, d, v = el.smith_normal_form([[0, 0, 0], [0, 0, 0]])
        assert el.diagonal_of(d) == [0, 0]
        u, d, v = el.smith_normal_form([[1, 2, 3]])
        assert el.diagonal_of(d) == [1]

    @pytest.mark.parametrize("m", [[[1, 2], [3]], [[1], [2, 3]], [[1, 2], [3, 4], []]])
    def test_ragged_matrix_is_refused(self, m):
        # the bordered elimination would misread a short row instead of failing
        with pytest.raises(ValueError, match="unequal length"):
            el.smith_normal_form(m)
        with pytest.raises(ValueError, match="unequal length"):
            el.cokernel_structure(m, len(m))

    @pytest.mark.parametrize("case", SNF_GOLDEN, ids=[c["name"] for c in SNF_GOLDEN])
    def test_pivot_rule_golden(self, case):
        # the smallest |entry|, then the uppermost, then the leftmost; a new search
        # after a remainder; the fix-up adds the first row with a non-multiple
        assert el.smith_normal_form(case["m"]) == (case["u"], case["d"], case["v"])

    def test_deterministic(self):
        m = [[12, 8, 3], [-4, 7, 9], [0, 5, -11]]
        assert el.smith_normal_form(m) == el.smith_normal_form(m)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-20, 20), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_round_trip_property(self, rows):
        u, d, v = el.smith_normal_form(rows)
        assert _matmul(_matmul(u, rows), v) == d
        assert abs(_det(u)) == 1
        assert abs(_det(v)) == 1
        diag = el.diagonal_of(d)
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        # off-diagonal entries vanish
        for i, row in enumerate(d):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0


_SIZES = st.tuples(st.integers(0, 6), st.integers(0, 6))


def _rectangular(entries):
    return _SIZES.flatmap(
        lambda nk: st.lists(st.lists(entries, min_size=nk[1], max_size=nk[1]), min_size=nk[0], max_size=nk[0])
    )


def _diagonal(entries):
    return st.lists(entries, max_size=7).map(lambda d: [[x * (i == j) for j in range(len(d))] for i, x in enumerate(d)])


# random rectangular matrices, sparse or dense, diagonal ones (-2 * I_n among them), zero and negative ones
SNF_INPUTS = st.one_of(
    _rectangular(st.integers(-30, 30)),
    _rectangular(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 6))),
    _diagonal(st.integers(-12, 12)),
    st.integers(0, 7).map(lambda n: [[-2 * (i == j) for j in range(n)] for i in range(n)]),
    _SIZES.map(lambda nk: [[0] * nk[1] for _ in range(nk[0])]),
    _rectangular(st.integers(-9, 0)),
)


class TestSnfDifferential:
    """The library's Smith normal form against the whole-block elimination of
    ``tests/snf_oracle.py``: the same pivot rule, so the same (U, D, V) entry for entry."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(SNF_INPUTS)
    def test_same_transforms_as_the_whole_block_elimination(self, m):
        assert el.smith_normal_form(m) == snf_oracle.smith_normal_form(m)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_minus_two_identity(self, n):
        m = [[-2 * (i == j) for j in range(n)] for i in range(n)]
        u, d, v = el.smith_normal_form(m)
        assert (u, d, v) == snf_oracle.smith_normal_form(m)
        assert el.diagonal_of(d) == [2] * n

    @pytest.mark.parametrize("case", SNF_GOLDEN, ids=[c["name"] for c in SNF_GOLDEN])
    def test_oracle_reproduces_the_golden_record(self, case):
        assert snf_oracle.smith_normal_form(case["m"]) == (case["u"], case["d"], case["v"])


class TestFiniteAbelianGroup:
    def test_rejects_non_chain(self):
        with pytest.raises(ValueError):
            el.FiniteAbelianGroup((4, 6))
        with pytest.raises(ValueError):
            el.FiniteAbelianGroup((1, 2))

    def test_normalization(self):
        # Z/6 + Z/4 = Z/2 + Z/12: direct_sum normalizes to invariant factors
        g = el.FiniteAbelianGroup((6,)).direct_sum(el.FiniteAbelianGroup((4,)))
        assert g.invariant_factors == (2, 12)
        assert g.order == 24

    def test_direct_sum(self):
        a = el.FiniteAbelianGroup((2,))
        b = el.FiniteAbelianGroup((2, 4))
        assert a.direct_sum(b).invariant_factors == (2, 2, 4)


def _quotient(sup, sub):
    """sup / sub, from the integer coordinates of sub's basis in sup's basis."""
    m = el._integer_coordinate_matrix(sup.basis, sub.basis, "sub is not a sublattice of sup")
    return el.cokernel_structure(m, sup.rank)


class TestQuotientGroup:
    def test_index_two(self):
        sup = el.IntLattice.standard(2)
        sub = el.IntLattice(2, ((2, 0), (0, 1)))
        assert _quotient(sup, sub).invariant_factors == (2,)

    def test_trivial_quotient(self):
        sup = el.IntLattice.standard(2)
        assert _quotient(sup, sup).is_trivial

    def test_infinite_index_rejected(self):
        sup = el.IntLattice.standard(2)
        sub = el.IntLattice(2, ((1, 0),))
        with pytest.raises(ValueError, match="quotient is infinite"):
            _quotient(sup, sub)

    def test_not_a_sublattice_rejected(self):
        sup = el.IntLattice(2, ((2, 0), (0, 2)))
        sub = el.IntLattice(2, ((1, 0), (0, 1)))
        with pytest.raises(ValueError, match="not a sublattice"):
            _quotient(sup, sub)


class TestIntegerCoordinateMatrix:
    """One elimination of [basis | vectors] against one solve per vector."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_vector_coordinates(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            n = rng.randint(1, 5)
            k = rng.randint(1, n)
            basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
            if linalg.rank(basis) < k:
                continue
            if rng.random() < 0.5:  # rational entries, as lattice images arrive
                basis = [[Fraction(x, 3) for x in b] for b in basis]
            coeffs = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(rng.randint(0, 6))]
            vectors = [linalg.combination(c, basis, n) for c in coeffs]
            m = el._integer_coordinate_matrix(basis, vectors, "bad")
            solved = [linalg.coordinates_in_basis(basis, v) for v in vectors]
            assert m == [[int(col[i]) for col in solved] for i in range(k)]
            assert m == [[c[i] for c in coeffs] for i in range(k)]

    def test_vector_outside_the_span_is_rejected(self):
        basis = [(1, 2, 0), (0, 1, 1)]
        assert el._integer_coordinate_matrix(basis, [(2, 3, -1)], "bad") == [[2], [-1]]
        with pytest.raises(ValueError, match="bad"):
            el._integer_coordinate_matrix(basis, [(2, 3, -1), (0, 0, 1)], "bad")

    def test_non_integral_coordinate_is_rejected(self):
        basis = [(2, 0), (1, 3)]
        assert el._integer_coordinate_matrix(basis, [(3, 3)], "bad") == [[1], [1]]
        with pytest.raises(ValueError, match="bad"):
            el._integer_coordinate_matrix(basis, [(3, 3), (1, 0)], "bad")

    def test_empty_basis(self):
        assert el._integer_coordinate_matrix([], [], "bad") == []
        assert el._integer_coordinate_matrix([], [(0, 0)], "bad") == []
        with pytest.raises(ValueError, match="bad"):
            el._integer_coordinate_matrix([], [(0, 1)], "bad")


class TestCoordinateMatrix:
    """Rational coordinates of many vectors from one elimination."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_vector_solve(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(30):
            n = rng.randint(1, 4)
            k = rng.randint(1, n)
            basis = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(k)]
            if linalg.rank(basis) < k:
                continue
            coeffs = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)] for _ in range(rng.randint(0, 5))]
            vectors = [linalg.combination(c, basis, n) for c in coeffs]
            cols, d = linalg.coordinate_matrix(basis, vectors)
            assert d > 0
            coords = [tuple(Fraction(x, d) for x in col) for col in zip(*cols)]
            assert coords == [linalg.coordinates_in_basis(basis, v) for v in vectors]
            assert coords == [tuple(c) for c in coeffs]

    def test_dependent_basis_or_vector_outside_the_span(self):
        assert linalg.coordinate_matrix([(1, 2), (2, 4)], [(1, 2)]) is None
        assert linalg.coordinate_matrix([(1, 2, 0)], [(2, 4, 0), (0, 0, 1)]) is None
        assert linalg.coordinate_matrix([(1, 2, 0)], [(2, 4, 0)]) == ([[2]], 1)


def _fraction_dot(a, b):
    """The dot product with every entry made a Fraction."""
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


class TestTypePreservingPrimitives:
    """dot, matvec, vecmat, matmul and identity keep int input int."""

    def test_int_input_gives_ints(self):
        m = ((1, 2), (3, 4))
        assert linalg.dot((1, 2), (3, 4)) == 11
        assert type(linalg.dot((1, 2), (3, 4))) is int
        for got, want in [
            (linalg.matvec(m, (1, -1)), (-1, -1)),
            (linalg.vecmat((1, -1), m), (-2, -2)),
        ]:
            assert got == want
            assert all(type(x) is int for x in got)
        for got, want in [
            (linalg.matmul(m, m), ((7, 10), (15, 22))),
            (linalg.identity(3), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        ]:
            assert got == want
            assert all(type(x) is int for row in got for x in row)

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_input_gives_fractions(self, seed):
        rng = random.Random(seed)

        def entry():
            return rng.randint(-5, 5) if rng.random() < 0.6 else Fraction(rng.randint(-5, 5), rng.randint(1, 4))

        for _ in range(20):
            n, k = rng.randint(1, 4), rng.randint(1, 4)
            a = tuple(tuple(entry() for _ in range(n)) for _ in range(k))
            b = tuple(tuple(entry() for _ in range(k)) for _ in range(n))
            v = tuple(entry() for _ in range(n))
            cols = tuple(zip(*a))
            checks = [(linalg.dot(row, v), row, v) for row in a]
            checks += [(x, row, v) for x, row in zip(linalg.matvec(a, v), a)]
            checks += [(x, v, col) for x, col in zip(linalg.vecmat(v, b), tuple(zip(*b)))]
            checks += [
                (x, row, col)
                for got_row, row in zip(linalg.matmul(b, a), b)
                for x, col in zip(got_row, cols)
            ]
            for got, left, right in checks:
                assert got == _fraction_dot(left, right)
                mixed = any(type(x) is Fraction for x in left + right)
                assert type(got) is (Fraction if mixed else int)

    def test_vec_keeps_fractions_and_converts_the_rest(self):
        f = Fraction(2, 3)
        v = linalg.vec([f, 1, "-1/2"])
        assert v[0] is f
        assert v == (Fraction(2, 3), Fraction(1), Fraction(-1, 2))
        assert all(type(x) is Fraction for x in v)


@pytest.mark.parametrize("m", [[[1, 2, 3], [4, 5, 6]], [[1, 2, 3], [0, 1, 0]], [[1], [2]], [[1, 2], [3]]])
def test_det_and_invert_reject_a_non_square_matrix(m):
    with pytest.raises(ValueError, match="not square"):
        linalg.det(m)
    with pytest.raises(ValueError, match="not square"):
        linalg.invert(m)


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def klein_table():
    return [[i ^ j for j in range(4)] for i in range(4)]


def symmetric3_table():
    perms = sorted(permutations(range(3)), key=lambda p: (p != tuple(range(3)), p))
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(p[q[k]] for k in range(3))] for q in perms]
        for p in perms
    ]


def table_of(elements, mul):
    """Multiplication table of a group listed identity first, elements hashable."""
    index = {g: i for i, g in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements]


def product_table(orders):
    """The direct product of cyclic groups of the given orders."""
    elements = [()]
    for n in orders:
        elements = [g + (k,) for g in elements for k in range(n)]
    return table_of(elements, lambda a, b: tuple((x + y) % n for x, y, n in zip(a, b, orders)))


def dihedral8_table():
    """The symmetries of a square as 2 x 2 signed permutation matrices."""
    rot, flip = ((0, -1), (1, 0)), ((1, 0), (0, -1))
    elements = [linalg.identity(2)]
    for g in (rot, rot, rot):
        elements.append(linalg.matmul(g, elements[-1]))
    elements += [linalg.matmul(g, flip) for g in elements]
    return table_of(elements, linalg.matmul)


def quaternion8_table():
    """The units +-1, +-i, +-j, +-k of the Hamilton quaternions."""

    def mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    units = [tuple(s * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
    return table_of(units, mul)


# the groups of order 8 past the first five need two or three generators
ALL_SMALL_GROUPS = [
    ("C1", cyclic_table(1)),
    ("C2", cyclic_table(2)),
    ("C3", cyclic_table(3)),
    ("C4", cyclic_table(4)),
    ("C5", cyclic_table(5)),
    ("C6", cyclic_table(6)),
    ("V4", klein_table()),
    ("S3", symmetric3_table()),
    ("C2^3", product_table((2, 2, 2))),
    ("C2xC4", product_table((2, 4))),
    ("D4", dihedral8_table()),
    ("Q8", quaternion8_table()),
]


def permutation_modules(table):
    """Split, norm-one and regular modules of one group, and direct sums of pairs.

    The norm-one module is the cocharacter lattice of the norm-one torus: the
    kernel of the augmentation Z[G] -> Z, spanned by e_g - e_1.  All share the
    element order of the regular representation.
    """
    reg = el.regular_representation(table)
    n = len(table)
    e = linalg.identity(n)
    kernel = tuple(tuple(a - b for a, b in zip(e[i], e[0])) for i in range(1, n))
    modules = {
        "split": el.split_torus(1, group_order=n),
        "norm-one": el.LatticeWithAction(el.IntLattice(n, kernel), reg.actions),
        "regular": reg,
    }
    for a, b in (("split", "norm-one"), ("norm-one", "norm-one"), ("norm-one", "regular")):
        modules[f"{a}+{b}"] = el.direct_sum_action(modules[a], modules[b])
    return modules


def c4_rotation():
    """Z^2 with the rotation by a quarter turn and its powers."""
    rot = ((0, -1), (1, 0))
    powers = [linalg.identity(2)]
    for _ in range(3):
        powers.append(linalg.matmul(rot, powers[-1]))
    return el.LatticeWithAction(el.IntLattice.standard(2), tuple(powers), label="C4-rotation")


def in_random_basis(x, rng):
    """The same module, its lattice written in a seeded random basis."""
    r = x.lattice.rank
    u = [list(row) for row in linalg.identity(r)]
    for _ in range(4 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            u[i] = [-a for a in u[i]]
        else:
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    basis = tuple(map(tuple, linalg.matmul(u, x.lattice.basis))) if r else ()
    return el.LatticeWithAction(el.IntLattice(x.lattice.ambient_dim, basis), x.actions)


def tate_cases(seeds):
    """Every permutation module of every small group and the C4 rotation, each
    in one random basis per seed, as pytest params named after the case."""
    modules = [("C4-rotation", c4_rotation())]
    for name, table in ALL_SMALL_GROUPS:
        modules += [(f"{name}/{label}", x) for label, x in permutation_modules(table).items()]
    return [
        pytest.param(in_random_basis(x, random.Random(f"{case}/{seed}")), id=f"{case}/{seed}")
        for case, x in modules
        for seed in seeds
    ]


class TestTateCohomology:
    def test_norm_one_torus(self):
        assert el.tate_h_minus1(el.norm_one_torus(1)).invariant_factors == (2,)

    def test_norm_one_products(self):
        for k in range(1, 7):
            g = el.tate_h_minus1(el.norm_one_torus(k))
            assert g.invariant_factors == (2,) * k

    def test_split_torus_trivial(self):
        for r in range(0, 4):
            assert el.tate_h_minus1(el.split_torus(r, group_order=2)).is_trivial

    @pytest.mark.parametrize("name,table", ALL_SMALL_GROUPS)
    def test_regular_representation_vanishes(self, name, table):
        # induced modules have trivial cohomology, for every small group
        assert el.tate_h_minus1(el.regular_representation(table)).is_trivial

    @pytest.mark.parametrize("name,table", ALL_SMALL_GROUPS[1:4])
    def test_additivity_over_direct_sums(self, name, table):
        reg = el.regular_representation(table)
        split = el.split_torus(2, group_order=len(table))
        combined = el.direct_sum_action(reg, split)
        assert el.tate_h_minus1(combined).is_trivial

    def test_additivity_with_norm_one(self):
        t = el.norm_one_torus(2)
        s = el.split_torus(1, group_order=2)
        combined = el.direct_sum_action(t, s)
        expect = el.tate_h_minus1(t).direct_sum(el.tate_h_minus1(s))
        assert el.tate_h_minus1(combined) == expect
        assert el.tate_h_minus1(combined).invariant_factors == (2, 2)

    def test_committed_torus_fixture(self):
        # Z[G] + sign + trivial in a basis whose (s - 1) columns are not diagonal:
        # only the sign summand contributes, Z/2
        path = Path(__file__).with_name("fixtures") / "torus_z2_rank4.json"
        x = el.lattice_with_action_from_json(str(path))
        assert el.tate_h_minus1(x) == tate_oracle.tate_h_minus1(x) == el.FiniteAbelianGroup((2,))

    @pytest.mark.parametrize("x", tate_cases(range(3)))
    def test_matches_the_literal_quotient(self, x):
        assert el.tate_h_minus1(x) == tate_oracle.tate_h_minus1(x)

    @pytest.mark.parametrize(
        "name, table, abelianization",
        [
            (name, table, ab)
            for (name, table), ab in zip(
                ALL_SMALL_GROUPS,
                [(), (2,), (3,), (4,), (5,), (6,), (2, 2), (2,), (2, 2, 2), (2, 4), (2, 2), (2, 2)],
            )
        ],
        ids=[name for name, _ in ALL_SMALL_GROUPS],
    )
    def test_norm_one_module_gives_the_abelianization(self, name, table, abelianization):
        # H^-1(G, I_G) = H^-2(G, Z) = H_1(G, Z), the abelianization of G
        x = in_random_basis(permutation_modules(table)["norm-one"], random.Random(name))
        assert el.tate_h_minus1(x).invariant_factors == abelianization

    def test_c4_rotation(self):
        # N = 0 and R - 1 has determinant 2
        assert el.tate_h_minus1(c4_rotation()).invariant_factors == (2,)

    def test_action_validation(self):
        ident = ((1, 0), (0, 1))
        flip = ((0, 1), (1, 0))
        with pytest.raises(ValueError):
            # missing identity
            el.LatticeWithAction(el.IntLattice.standard(2), (flip,))
        with pytest.raises(ValueError):
            # not closed: order-4 rotation without its powers
            rot = ((0, -1), (1, 0))
            el.LatticeWithAction(el.IntLattice.standard(2), (ident, rot))

    @pytest.mark.parametrize("name,table", ALL_SMALL_GROUPS)
    def test_element_order_and_repeats_do_not_matter(self, name, table):
        rng = random.Random(name)
        for label, x in permutation_modules(table).items():
            acts = list(x.actions) + rng.choices(x.actions, k=3)
            rng.shuffle(acts)
            y = el.LatticeWithAction(x.lattice, tuple(acts))
            assert el.tate_h_minus1(y) == el.tate_h_minus1(x), label
            # at most log2 |G| generators, each one r x r block of the Smith normal form input
            r = x.lattice.rank
            assert r == 0 or len(y._generator_columns[0]) <= r * (len(table).bit_length() - 1)

    def test_identity_and_repeats_add_no_columns(self):
        assert el.split_torus(3, group_order=4)._generator_columns == [[], [], []]
        assert el.tate_h_minus1(el.split_torus(3, group_order=4)).is_trivial

    @pytest.mark.parametrize("name,table", ALL_SMALL_GROUPS[2:])
    def test_group_without_one_element_is_not_closed(self, name, table):
        # some pair of the other elements multiplies to the one left out, once |G| >= 3
        # (removing C2's non-identity element leaves the trivial group, which is closed)
        acts = el.regular_representation(table).actions
        for i in range(1, len(acts)):
            with pytest.raises(ValueError, match="not closed under multiplication"):
                el.LatticeWithAction(el.IntLattice.standard(len(table)), acts[:i] + acts[i + 1 :])

    @pytest.mark.parametrize("name,table", ALL_SMALL_GROUPS[1:])
    def test_group_with_a_foreign_element_is_not_closed(self, name, table):
        # -1 times a permutation g != 1 is -g, which is not in the set
        # (with C1, -1 would make the group {1, -1})
        n = len(table)
        minus = tuple(tuple(-x for x in row) for row in linalg.identity(n))
        acts = el.regular_representation(table).actions
        for i in range(n + 1):
            with pytest.raises(ValueError, match="not closed under multiplication"):
                el.LatticeWithAction(el.IntLattice.standard(n), acts[:i] + (minus,) + acts[i:])

    def test_lattice_not_preserved_by_one_generator(self):
        # the signed permutations of Z^2, listed so the generators are the two sign
        # changes, which keep Z(2, 0) + Z(0, 1), and then the swap, which does not
        d4 = [((1, 0), (0, 1)), ((1, 0), (0, -1)), ((-1, 0), (0, 1)), ((-1, 0), (0, -1))]
        d4 += [linalg.matmul(((0, 1), (1, 0)), g) for g in d4]
        lattice = el.IntLattice(2, ((2, 0), (0, 1)))
        el.LatticeWithAction(lattice, tuple(d4[:4]))
        with pytest.raises(ValueError, match="a group element does not preserve the lattice"):
            el.LatticeWithAction(lattice, tuple(d4))

    def test_basis_matrices_solved_once(self):
        x = el.norm_one_torus(2)
        assert x.in_basis_matrices() is x.in_basis_matrices()
        assert x.in_basis_matrices() == [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]
        assert x == el.norm_one_torus(2) and hash(x) == hash(el.norm_one_torus(2))

    @pytest.mark.parametrize(
        "actions, message",
        [([[[1]]], "every action must be a 10+ x 10+ matrix"), ([], "does not contain the identity")],
    )
    def test_fixture_rank_is_checked_before_the_lattice_is_built(self, monkeypatch, actions, message):
        def refuse(n):
            raise AssertionError(f"built the standard lattice of rank {n}")

        monkeypatch.setattr(el.IntLattice, "standard", staticmethod(refuse))
        data = {"ambient_rank": 10**18, "actions": actions}
        with pytest.raises(ValueError, match=message):
            el.lattice_with_action_from_dict(data)

    def test_fixture_round_trip(self):
        data = {
            "ambient_rank": 1,
            "actions": [[[1]], [[-1]]],
            "label": "norm-one",
        }
        x = el.lattice_with_action_from_dict(data)
        assert el.tate_h_minus1(x).invariant_factors == (2,)


def _generators(actions):
    """The generating set the library takes: each action not in the monoid the earlier ones generate."""
    gens, reached = [], {linalg.identity(len(actions[0]))}
    for a in actions:
        if a not in reached:
            gens.append(a)
            grown = True
            while grown:
                new = {linalg.matmul(x, g) for x in reached for g in gens} - reached
                reached |= new
                grown = bool(new)
    return gens


def _parity_basis(n):
    """A basis of {x in Z^n : sum of x even}, of index 2: 2 e_0 and e_i - e_0."""
    e = linalg.identity(n)
    return (tuple(2 * x for x in e[0]),) + tuple(tuple(a - b for a, b in zip(e[i], e[0])) for i in range(1, n))


def _padded(x, extra):
    """x inside Z^(n + extra), the extra coordinates fixed: a lattice of rank n < n + extra."""
    n = x.lattice.ambient_dim
    basis = tuple(tuple(b) + (0,) * extra for b in x.lattice.basis)
    acts = tuple(tuple(tuple(row) + (0,) * extra for row in g) + linalg.identity(n + extra)[n:] for g in x.actions)
    return el.LatticeWithAction(el.IntLattice(n + extra, basis), acts)


def reader_cases():
    """Regular modules of the small groups in three kinds of random basis: of Z^n, of an
    index-2 sublattice, and of a lattice of rank n inside Z^(n + 2)."""
    cases = []
    for name, table in ALL_SMALL_GROUPS:
        reg, rng = el.regular_representation(table), random.Random(f"reader/{name}")
        index2 = el.LatticeWithAction(el.IntLattice(len(table), _parity_basis(len(table))), reg.actions)
        for kind, x in (("unimodular", reg), ("index-2", index2), ("rank<n", _padded(reg, 2))):
            cases.append(pytest.param(in_random_basis(x, rng), id=f"{name}/{kind}"))
    path = Path(__file__).with_name("fixtures") / "torus_z2_index2.json"
    cases.append(pytest.param(el.lattice_with_action_from_json(str(path)), id="torus_z2_index2"))
    return cases


I2, ROT, SWAP = [[1, 0], [0, 1]], [[0, -1], [1, 0]], [[0, 1], [1, 0]]


class TestLatticeReader:
    """The lattice's one elimination of [B^T | I] against a fresh elimination of
    [basis | images] for every reading, and the order of the reader's messages."""

    @pytest.mark.parametrize("x", reader_cases())
    def test_coordinates_match_one_elimination_of_basis_and_images(self, x):
        basis, r = x.lattice.basis, x.lattice.rank
        gens = _generators(x.actions)
        images = [linalg.matvec(g, b) for g in gens for b in basis]
        assert x._generator_columns == el._integer_coordinate_matrix(basis, images, "outside")
        images = [linalg.matvec(g, b) for g in x.actions for b in basis]
        cols = el._integer_coordinate_matrix(basis, images, "outside")
        assert x.in_basis_matrices() == [[row[k * r : (k + 1) * r] for row in cols] for k in range(x.order)]

    def test_index_two_fixture_is_not_unimodular(self):
        path = Path(__file__).with_name("fixtures") / "torus_z2_index2.json"
        x = el.lattice_with_action_from_json(str(path))
        assert abs(linalg.det(x.lattice.basis)) == 2
        assert el.tate_h_minus1(x) == tate_oracle.tate_h_minus1(x) == el.FiniteAbelianGroup((2, 2))

    @pytest.mark.parametrize(
        "basis, actions, message",
        [
            ([[1, 0], [0]], [I2], "basis vector has wrong length"),
            ([[1, 2], [2, 4]], [I2], "basis vectors are dependent"),
            ([[1, 0], [0, 1]], [I2, [[1, 0]]], "every action must be a 2 x 2 matrix"),
            ([[1, 0], [0, 1]], [[[0, 1], [1, 0]]], "does not contain the identity"),
            ([[1, 0], [0, 1]], [I2, ROT], "not closed under multiplication"),
            ([[2, 0], [0, 1]], [I2, SWAP], "does not preserve the lattice"),
            ([[1, 0], [0, 1]], [I2, [[0, 1], [1, Fraction(1, 2)]]], "non-integer entry"),
            ([[Fraction(1, 2), 0], [0, 1]], [I2], "non-integer entry"),
            ([[1, 0], [0, 1]], [I2, [[0, 1], [1, True]]], "non-integer entry"),
            # two faults at once: the first check made names its own
            ([[1, 2], [2, 4]], [I2, ROT], "basis vectors are dependent"),
            ([[2, 0], [0, 1]], [I2, ROT], "not closed under multiplication"),
            ([[2, 0], [0, 1]], [ROT, SWAP], "does not contain the identity"),
            ([[1, 2], [2, 4]], [I2, [[1, 0]]], "every action must be a 2 x 2 matrix"),
        ],
    )
    def test_validation_message(self, basis, actions, message):
        with pytest.raises(ValueError, match=message):
            el.lattice_with_action_from_dict({"ambient_rank": 2, "basis": basis, "actions": actions})

    def test_lattice_of_rank_below_its_dimension_solves_only_inside_its_span(self):
        # the line Z(1, 1) in Z^2 is kept by the swap, which moves (1, 0) off it
        line = el.IntLattice(2, ((1, 1),))
        assert line.coordinates([(1, 3), (1, 3)], "outside") == [[1, 3]]
        with pytest.raises(ValueError, match="outside"):
            line.coordinates([(1,), (0,)], "outside")
        with pytest.raises(ValueError, match="outside"):
            el.IntLattice(2, ((2, 2),)).coordinates([(1,), (1,)], "outside")
        x = el.LatticeWithAction(line, (linalg.identity(2), ((0, 1), (1, 0))))
        assert x.in_basis_matrices() == [[[1]], [[1]]]


def _literal_h0(x):
    """L^G / N L as it is defined: a basis of L^G is the kernel of the stacked (g - 1) from a
    Smith normal form, and N L is written in it (the library reads the torsion of L / N L)."""
    mats, r = x.in_basis_matrices(), x.lattice.rank
    stacked = [[g[i][j] - (i == j) for j in range(r)] for g in mats for i in range(r)]
    _, d, v = el.smith_normal_form(stacked)
    diag = el.diagonal_of(d)
    kernel = [[v[i][j] for i in range(r)] for j in range(r) if j >= len(diag) or diag[j] == 0]
    if not kernel:
        return el.TRIVIAL_GROUP, 0
    norm = [[sum(g[i][j] for g in mats) for j in range(r)] for i in range(r)]
    images = [[norm[i][j] for i in range(r)] for j in range(r)]
    m = el._integer_coordinate_matrix(kernel, images, "N L is not inside L^G")
    return el.cokernel_structure(m, len(kernel)), len(kernel)


def _cyclotomic(p):
    """Z[zeta_p] with zeta acting by the companion matrix of 1 + t + ... + t^(p-1), and its powers."""
    c = tuple(tuple(1 if i == j + 1 else 0 for j in range(p - 1)) for i in range(p - 1))
    c = tuple(row[:-1] + (-1,) for row in c)
    powers = [linalg.identity(p - 1)]
    for _ in range(p - 1):
        powers.append(linalg.matmul(c, powers[-1]))
    return el.LatticeWithAction(el.IntLattice.standard(p - 1), tuple(powers))


def herbrand_cases():
    """Lattices for the groups of prime order p: direct sums of Z, Z[zeta_p] and Z[C_p], the
    indecomposables up to ideal classes, and the prime-order permutation modules, each in a
    random basis."""
    cases = []
    for p in (2, 3, 5):
        reg = el.regular_representation(cyclic_table(p))
        blocks = {"trivial": el.split_torus(1, group_order=p), "cyclotomic": _cyclotomic(p), "regular": reg}
        rng = random.Random(f"herbrand/{p}")
        for i in range(8):
            names = rng.choices(sorted(blocks), k=rng.randint(1, 3))
            x = blocks[names[0]]
            for name in names[1:]:
                x = el.direct_sum_action(x, blocks[name])
            cases.append(pytest.param(in_random_basis(x, rng), id=f"C{p}/{'+'.join(names)}/{i}"))
    cases += [
        pytest.param(x, id=f"{name}/{label}")
        for name, table in ALL_SMALL_GROUPS
        if len(table) in (2, 3, 5)
        for label, x in permutation_modules(table).items()
    ]
    return cases


class TestHerbrandQuotient:
    """|H^0| / |H^-1| = p^((p r0 - r) / (p - 1)) for a group of prime order p, L of rank r
    and L^G of rank r0: the identity by which h1 and fibers can fail."""

    @pytest.mark.parametrize("x", herbrand_cases())
    def test_identity_holds(self, x):
        p, r = x.order, x.lattice.rank
        h0, r0 = el.tate_h_zero(x)
        assert (h0, r0) == _literal_h0(x)
        h1 = el.tate_h_minus1(x)
        assert Fraction(h0.order, h1.order) == Fraction(p) ** Fraction(p * r0 - r, p - 1)
        assert cli._cohomology_holds(x, h1)

    @pytest.mark.parametrize("x", herbrand_cases())
    def test_one_factor_more_or_less_fails(self, x):
        h1, p = el.tate_h_minus1(x), x.order
        assert not cli._cohomology_holds(x, el.FiniteAbelianGroup((p,) + h1.invariant_factors))
        if h1.invariant_factors:
            assert not cli._cohomology_holds(x, el.FiniteAbelianGroup(h1.invariant_factors[1:]))

    @pytest.mark.parametrize("name, table", [(n, t) for n, t in ALL_SMALL_GROUPS if n in ("C4", "C6", "V4")])
    def test_composite_order_keeps_the_order_test(self, name, table):
        # |G| = 4 or 6 is not prime: only the order test applies, so one factor more passes
        x = permutation_modules(table)["norm-one"]
        h1 = el.tate_h_minus1(x)
        assert cli._cohomology_holds(x, h1)
        assert cli._cohomology_holds(x, h1.direct_sum(el.FiniteAbelianGroup((len(table),))))
        assert not cli._cohomology_holds(x, el.FiniteAbelianGroup((len(table) * 2,)))
