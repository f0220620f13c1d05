"""The fan read off the Weyl group's permutations of the roots, against the
Fraction-matrix build it replaced (``root_oracle.fraction_fan``).

Every table must be equal, numbering included: the cones (index, signs,
dimension, span basis), the chambers and the base chamber, the Weyl elements
in their order, and per chamber its Weyl element and that element's inverse,
its faces by type, its simple (root, coroot) pairs, and per cone the least
chamber below it.
"""

import pytest

from galpairs import linalg, root_data
from galpairs.root_data import BUILTIN_NAMES
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
    assert sys.weyl_elements == want["weyl_elements"]
    assert sys.cones == want["cones"]
    assert sys.chambers == want["chambers"]
    assert sys.base_chamber == want["base_chamber"]
    for p in sys.chambers:
        assert sys.chamber_weyl(p) == want["chamber_weyl"][p]
        assert sys.chamber_weyl_inverse(p) == linalg.invert(want["chamber_weyl"][p])
        assert list(sys.chamber_faces(p).items()) == list(want["chamber_faces"][p].items())
        assert sys.chamber_simple_pairs(p) == want["chamber_simple_pairs"][p]
    assert {c: sys.chamber_below(c) for c in range(len(sys.cones))} == want["chamber_below"]
