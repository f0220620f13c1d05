"""The fan read off the Weyl group's permutations of the roots, against the
Fraction-matrix build it replaced (``root_oracle.fraction_fan``).

Every table must be equal, numbering included: the cones (index, signs,
dimension), the chambers and the base chamber, the Weyl elements in their
order, and per chamber its Weyl element and that element's inverse, its faces
by type, its simple (root, coroot) pairs, and per cone the least chamber below
it.  The per-cone Levi data, read off each cone's signs and one Cartan-block
dual, must equal the literal nullspace and projection-matrix build of
``root_oracle`` on every cone and every pair of a cone and a face of its
closure.
"""

import json
import time

import pytest

import root_oracle
from galpairs import families, linalg, root_data, sampling
from galpairs.cli import EXIT_USAGE, MAX_SAMPLE_CONES, MAX_SAMPLES, run
from galpairs.root_data import BUILTIN_NAMES
from kernel_oracle import parabolic_leq
from root_oracle import fraction_fan

# entries <a_i, a_j^vee>, as in tests/test_volume_rows.py
_CARTAN = {
    **root_data._CARTAN,
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "B4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
}
# rank one in dimension two: a system with a center
_CENTERED = {"ambient_dim": 2, "roots": [[1, 0], [-1, 0]], "coroots": [[2, 0], [-2, 0]], "simple_indices": [0]}


def _build(name):
    if name == "centered":
        return root_data.system_from_dict(_CENTERED)
    if name.startswith("BC"):
        return root_data._bc_system(int(name[2:]), name)
    return root_data._from_cartan(_CARTAN[name], name)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("BC3", "centered", "B3", "C3", "A4", "D4", "B4"))
def test_permutation_fan_matches_fraction_fan(name):
    sys = _build(name)
    want = fraction_fan(sys)
    assert sys.hyperplanes == want["hyperplanes"]
    assert root_oracle.weyl_elements(sys) == want["weyl_elements"]
    assert sys.cones == want["cones"]
    assert sys.chambers == want["chambers"]
    assert sys.base_chamber == want["base_chamber"]
    for p in sys.chambers:
        assert root_oracle.chamber_weyl(sys, p) == want["chamber_weyl"][p]
        assert root_oracle.chamber_weyl_inverse(sys, p) == linalg.invert(want["chamber_weyl"][p])
        assert list(sys.chamber_faces(p).items()) == list(want["chamber_faces"][p].items())
        assert sys.chamber_simple_pairs(p) == want["chamber_simple_pairs"][p]
    assert {c: sys.chamber_below(c) for c in range(len(sys.cones))} == want["chamber_below"]


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("BC3", "centered", "B3", "C3"))
def test_levi_data_matches_literal_projection(name):
    """Per cone p: the simple pairs of ``chamber_below(p)`` that pair nonzero with p's
    span basis, moved by the literal projection; per face q of the closure of p: those
    of them that vanish on q's span basis, and their inverse Cartan block times their
    roots."""
    sys = _build(name)
    spans = [root_oracle.span_basis(sys, c) for c in range(len(sys.cones))]
    for p, span in enumerate(spans):
        proj = root_oracle.levi_projection(sys, p)
        assert sys.levi_projection(p) == proj
        pairs = [
            (linalg.vecmat(a, proj), linalg.matvec(proj, av))
            for a, av in sys.chamber_simple_pairs(sys.chamber_below(p))
            if any(linalg.dot(a, b) != 0 for b in span)
        ]
        assert sys.cone_simple_pairs(p) == pairs
        for q in range(len(sys.cones)):
            if not parabolic_leq(sys, p, q):
                continue
            zero = [i for i, (a, _) in enumerate(pairs) if all(linalg.dot(a, b) == 0 for b in spans[q])]
            assert sys.vanishing_indices(p, q) == zero
            roots, coroots = [pairs[i][0] for i in zero], [pairs[i][1] for i in zero]
            inverse = linalg.invert([[linalg.dot(a, av) for av in coroots] for a in roots])
            assert sys.dual_basis(p, q) == [linalg.combination(row, roots, sys.ambient_dim) for row in inverse]


def _a1_power(k: int, dim: int = root_data.MAX_AMBIENT_DIM) -> dict:
    """A1^k in dimension dim: roots +-e_i and coroots +-2e_i for i < k, 3^k cones."""
    e = lambda i, s: [s * int(j == i) for j in range(dim)]
    signs = [(i, s) for i in range(k) for s in (1, -1)]
    return {
        "ambient_dim": dim,
        "roots": [e(i, s) for i, s in signs],
        "coroots": [e(i, 2 * s) for i, s in signs],
        "simple_indices": list(range(0, 2 * k, 2)),
    }


def test_fan_limit_admits_every_system_above_and_a1_to_the_8():
    # B4 is the largest system above: 384 * 2^4 = 6,144 face visits; A1^8 makes 65,536
    for name in BUILTIN_NAMES + ("BC3", "centered", "B3", "C3", "A4", "D4", "B4"):
        sys = _build(name)
        assert len(sys.chambers) << sys.rank <= root_data.MAX_FACE_VISITS
    assert len(root_data.system_from_dict(_a1_power(8)).cones) == 3**8


def test_fan_over_the_face_limit_is_refused_before_any_face(tmp_path):
    # A1^10: |W| = 1,024 and 59,049 cones, about 41 s to build without the limit
    fixture = _a1_power(10)
    message = (
        "the fan would visit 1048576 faces (1024 Weyl elements times 2^10), "
        f"more than the limit of {root_data.MAX_FACE_VISITS}"
    )
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        root_data.system_from_dict(fixture)
    assert time.perf_counter() - start < 1
    assert str(exc.value) == message
    path = tmp_path / "a1_10.json"
    path.write_text(json.dumps(fixture))
    start = time.perf_counter()
    assert run(["ortho", "check", "--system", str(path)]) == (EXIT_USAGE, f"error: {message}\n")
    assert time.perf_counter() - start < 1


def test_kernel_limit_admits_every_system_above_and_a1_to_the_6():
    # B4 moves 384 * 3^4 = 31,104 face pairs (about 0.5 s), A1^6 46,656 (about 2 s)
    for name in BUILTIN_NAMES + ("BC3", "centered", "B3", "C3", "A4", "D4", "B4"):
        sys = _build(name)
        assert len(sys.chambers) * 3**sys.rank <= families.MAX_KERNEL_MOVES
    sys = root_data.system_from_dict(_a1_power(6))
    assert len(sys.chambers) * 3**sys.rank <= families.MAX_KERNEL_MOVES


def test_kernel_over_the_limit_is_refused_before_any_term(tmp_path, monkeypatch):
    # A1^7: 128 * 3^7 = 279,936 face pairs, about 10 s to compile without the limit
    def refuse(*args):
        raise AssertionError("compiled a kernel term")

    monkeypatch.setattr(root_data.RestrictedRootSystem, "chamber_faces", refuse)
    path = tmp_path / "a1_7.json"
    path.write_text(json.dumps(_a1_power(7)))
    message = (
        "the kernel compile would move 279936 face pairs (128 Weyl elements times 3^7), "
        f"more than the limit of {families.MAX_KERNEL_MOVES}"
    )
    assert run(["ortho", "check", "--system", str(path), "--samples", "1"]) == (EXIT_USAGE, f"error: {message}\n")


class _Sampled(Exception):
    pass


def test_sample_limit_per_system(tmp_path, monkeypatch):
    # A3 keeps its 1,000 points (75 cones); A1^4 (81 cones) is refused past 925 points,
    # before any set or point is drawn
    def sampled(*args, **kwargs):
        raise _Sampled

    monkeypatch.setattr(sampling, "random_positive_set", sampled)
    assert MAX_SAMPLES * len(root_data.builtin_system("A3").cones) == MAX_SAMPLE_CONES
    with pytest.raises(_Sampled):
        run(["ortho", "check", "--system", "A3", "--samples", str(MAX_SAMPLES)])
    path = tmp_path / "a1_4.json"
    path.write_text(json.dumps(_a1_power(4, dim=4)))
    with pytest.raises(_Sampled):
        run(["ortho", "check", "--system", str(path), "--samples", "925"])
    message = (
        "the check would make 75006 point-cone tests (926 points times 81 cones), "
        f"more than the limit of {MAX_SAMPLE_CONES}"
    )
    assert run(["ortho", "check", "--system", str(path), "--samples", "926"]) == (EXIT_USAGE, f"error: {message}\n")
