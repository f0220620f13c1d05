"""The fan read off the Weyl group's permutations of the roots, against the
Fraction-matrix build it replaced (``root_oracle.fraction_fan``).

Every table must be equal, numbering included: the cones (index, signs,
dimension), the chambers and the base chamber, the Weyl elements in their
order, and per chamber its Weyl element and that element's inverse, its faces
by type, its simple (root, coroot) pairs, and per cone the least chamber below
it.  The kernel's standard terms, read off Cartan blocks in simple-root
coordinates, must equal the literal nullspace and projection-matrix Levi data
of ``root_oracle`` at every pair of standard faces.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

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
# B2 with its short roots halved: e_1 / 2 = a_1 / 2 + a_2, so simple coordinates are not integral
_B2_HALF = json.loads((Path(__file__).parent / "fixtures" / "b2_half.json").read_text())


def _build(name):
    """The system built anew, so no test sees another's caches."""
    if name == "centered":
        return root_data.system_from_dict(_CENTERED)
    if name == "B2-half":
        return root_data.system_from_dict(_B2_HALF)
    if name == "A1^4":  # in dimension 16
        return root_data.system_from_dict(_a1_power(4))
    if name.startswith("BC"):
        return root_data._bc_system(int(name[2:]), name)
    return root_data._from_cartan(_CARTAN[name], name)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("BC3", "centered", "B3", "C3", "A4", "D4", "B4", "B2-half"))
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
        simple = sys.chamber_simple_indices(p)
        assert [(sys.roots[k], sys.coroots[k]) for k in simple] == want["chamber_simple_pairs"][p]
    assert {c: sys.chamber_below(c) for c in range(len(sys.cones))} == want["chamber_below"]


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("BC3", "centered", "B3", "C3", "B2-half", "A1^4"))
def test_levi_data_matches_literal_projection(name):
    """At each pair of standard faces F_I <= F_J, the Cartan-block covectors of tau^J_I and
    tau_hat^J_I, taken to the ambient space through the simple roots, against the literal
    Levi data: the simple pairs of the least chamber below F_I that pair nonzero with its
    span, moved by the projection-matrix Levi projection, those of them vanishing on the
    span of F_J, and their inverse Cartan block times their roots."""
    sys = _build(name)
    tau, tau_hat = families._standard_covectors(sys)
    simple = [sys.roots[i] for i in sys.simple_indices]
    ambient = lambda rows: sorted(linalg.scale_to_integers(linalg.vecmat(x, simple)) for x in rows)
    literal = lambda covectors: sorted(map(linalg.scale_to_integers, covectors))
    std = sys.chamber_faces(sys.base_chamber)
    pairs = 0
    for i, p in std.items():
        for j, q in std.items():
            if i <= j:
                assert parabolic_leq(sys, p, q)
                roots = [a for a, _ in root_oracle.cone_simple_pairs(sys, p)]
                assert ambient(tau(i, j)) == literal(roots[k] for k in root_oracle.vanishing_indices(sys, p, q))
                assert ambient(tau_hat(i, j)) == literal(root_oracle.dual_basis(sys, p, q))
                pairs += 1
    assert pairs == 3**sys.rank


@pytest.mark.parametrize("name", ["B2-half", "A1^4", "BC2", "G2"])
def test_simple_coordinates_give_the_roots(name):
    sys = _build(name)
    coords, d = sys.simple_coordinates
    simple = [sys.roots[i] for i in sys.simple_indices]
    for a in sys.roots:
        assert linalg.combination([Fraction(x, d) for x in coords[a]], simple, sys.ambient_dim) == a
    assert (d > 1) == (name == "B2-half")


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


def test_a1_4_fixture_checks_in_dimension_16():
    """The committed fixture that CI checks end to end is A1^4 at the dimension limit."""
    path = Path(__file__).parent / "fixtures" / "a1_4_dim16.json"
    fixture = json.loads(path.read_text())
    assert fixture.pop("name") == "A1^4 in dimension 16" and fixture == _a1_power(4)
    code, report = run(["ortho", "check", "--system", str(path), "--samples", "20", "--seed", "1"])
    assert code == 0 and report.endswith("\nOK\n") and "violations" in report


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
    # B4 moves 384 * 3^4 = 31,104 face pairs (0.15-0.2 s), A1^6 46,656 (0.3-0.5 s)
    for name in BUILTIN_NAMES + ("BC3", "centered", "B3", "C3", "A4", "D4", "B4"):
        sys = _build(name)
        assert len(sys.chambers) * 3**sys.rank <= families.MAX_KERNEL_MOVES
    sys = root_data.system_from_dict(_a1_power(6))
    assert len(sys.chambers) * 3**sys.rank <= families.MAX_KERNEL_MOVES


def test_kernel_over_the_limit_is_refused_before_any_term(tmp_path, monkeypatch):
    # A1^7: 128 * 3^7 = 279,936 face pairs, about 3 s to compile without the limit
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
