"""Preset combinatorial data for quasi-split symmetric pairs.

A preset records the simple-root diagram data needed by the multiplicity
formulas: the simple roots of the minimal Levi, the diagram involution, its
fixed set, a section of the non-fixed orbits, and the subgroup B of
(Z/2)^(fixed set) through which all relevant characters factor.  Subsets I of
the fixed set index the elliptic twisted Levis; each carries a sign, the size
of the relevant kernel, and the index of the abelianized image.

Built-ins cover the general linear and unitary families.  Odd orthogonal data
is accepted only through fixtures and is not validated against any reference
values here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .exact_linalg import _as_dict, _as_int, _as_ints, _as_list, _field, read_json


# the largest rank m of (Z/2)^m: the character-collapse check costs m * 2^m
# additions and a preset's elliptic Levis number 2^m
MAX_M = 16
# the largest n of "GL:n": it builds n-tuples, though its m is at most 1
MAX_GL_N = 1000


def _check_rank(m: int) -> None:
    if m > MAX_M:
        raise ValueError(f"at most {MAX_M} fixed simple roots, got {m}")


def restriction_echelon(generators: Sequence[int], mask: int) -> tuple[int, list[int]]:
    """GF(2) elimination of the generators of B restricted to the bits of mask.

    Returns the rank r of the restrictions, so the projection of B to mask has
    2^r elements, and the elements of B left over when a restriction reduces
    to zero: together they generate the elements of B that vanish on mask.
    Echelon rows are keyed by the leading bit of their restriction.
    """
    rows: dict[int, tuple[int, int]] = {}  # leading bit -> (restriction, element of B)
    vanishing = []
    for g in generators:
        r = g & mask
        while r:
            top = r.bit_length() - 1
            if top not in rows:
                rows[top] = (r, g)
                break
            row_r, row_g = rows[top]
            r ^= row_r
            g ^= row_g
        else:
            vanishing.append(g)
    return len(rows), vanishing


@dataclass(frozen=True)
class ThetaPreset:
    """Diagram data (simple roots, involution, fixed set, character subgroup)."""

    name: str
    num_simple: int
    iota: tuple[int, ...]  # involution of {0..num_simple-1}
    delta_minus: tuple[int, ...]  # fixed points of iota, sorted
    s_choice: tuple[int, ...]  # section: S with S | iota(S) = complement of fixed set
    b_generators: tuple[int, ...]  # bitmasks over delta_minus positions
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self):
        _check_rank(len(self.delta_minus))
        n = self.num_simple
        if len(self.iota) != n or sorted(self.iota) != list(range(n)):
            raise ValueError("iota is not a permutation")
        if any(self.iota[self.iota[i]] != i for i in range(n)):
            raise ValueError("iota is not an involution")
        fixed = tuple(i for i in range(n) if self.iota[i] == i)
        if self.delta_minus != fixed:
            raise ValueError(f"delta_minus must be the fixed set {fixed}")
        moved = [i for i in range(n) if self.iota[i] != i]
        s = set(self.s_choice)
        if s & {self.iota[i] for i in s}:
            raise ValueError("s_choice meets its own involution image")
        if s | {self.iota[i] for i in s} != set(moved):
            raise ValueError("s_choice and its image must partition the moved roots")
        m = len(self.delta_minus)
        for g in self.b_generators:
            if g < 0 or g >= (1 << m):
                raise ValueError("b generator out of range")

    @property
    def m(self) -> int:
        """Number of fixed simple roots (rank of the ambient two-group)."""
        return len(self.delta_minus)


class EllipticLeviDatum(NamedTuple):
    """Combinatorial invariants of the twisted Levi attached to I.

    A named tuple: immutable and hashable, equal to a tuple of its fields, and
    built by ``_make`` from one, as ``enumerate_elliptic_levis`` builds all of
    a preset's at once.
    """

    subset: tuple[int, ...]  # positions into delta_minus
    sign: int  # (-1)^(|delta_minus| - |I|)
    ker1_size: int  # 2^|I| / |projection of B to the I coordinates|
    mab_index: int  # |projection of B to the I coordinates|
    label: Optional[tuple[int, ...]] = None  # composition label for unitary presets


def enumerate_elliptic_levis(preset: ThetaPreset) -> list[EllipticLeviDatum]:
    """One datum per subset I of the fixed simple roots, in mask order.

    The subsets, their sizes, signs and labels are built by doubling: the masks
    with bit i as their top are the earlier ones with bit i added.  The index is
    2^r for the GF(2) rank r of B's generators restricted to I
    (``restriction_echelon``); the projection of every element of B, as
    written, is ``tests/prasad_oracle.py::elliptic_levis``.
    """
    m = preset.m
    subsets: list[tuple[int, ...]] = [()]
    sizes, signs = [0], [(-1) ** m]
    for i in range(m):  # the subsets of bits 0..i in mask order: bit i is the top
        subsets += [s + (i,) for s in subsets]
        sizes += [k + 1 for k in sizes]
        signs += [-x for x in signs]
    labels = [None] * len(subsets)
    if preset.metadata.get("family") == "U":
        n = preset.metadata["n"]
        labels = [(n,)]  # the composition of n cut at i + 1 for each i in I
        for i in range(m):  # a cut at i + 1, past the earlier cuts, splits the last part
            labels += [lab[:-1] + (lab[-1] - (n - i - 1), n - i - 1) for lab in labels]
    ranks = [restriction_echelon(preset.b_generators, mask)[0] for mask in range(len(subsets))]
    kers = [1 << (k - r) for k, r in zip(sizes, ranks)]
    return list(map(EllipticLeviDatum._make, zip(subsets, signs, kers, [1 << r for r in ranks], labels)))


def builtin_preset(family: str, n: int) -> ThetaPreset:
    """Presets "GL:n" (general linear over a quadratic extension) and "U:n"; "SO:n" is refused."""
    if n < 1:
        raise ValueError("n must be positive")
    num = n - 1
    if family == "GL":
        if n > MAX_GL_N:  # reject before building n-tuples
            raise ValueError(f"GL:n needs n at most {MAX_GL_N}, got {n}")
        iota = tuple(num - 1 - i for i in range(num))
        fixed = tuple(i for i in range(num) if iota[i] == i)
        s = tuple(i for i in range(num) if i < iota[i])
        m = len(fixed)
        b_gens = tuple(1 << i for i in range(m))  # B is everything
        return ThetaPreset(
            name=f"GL:{n}",
            num_simple=num,
            iota=iota,
            delta_minus=fixed,
            s_choice=s,
            b_generators=b_gens,
            metadata={"family": "GL", "n": n},
        )
    if family == "U":
        _check_rank(num)  # every simple root is fixed: reject before building n-tuples
        iota = tuple(range(num))
        fixed = tuple(range(num))
        return ThetaPreset(
            name=f"U:{n}",
            num_simple=num,
            iota=iota,
            delta_minus=fixed,
            s_choice=(),
            b_generators=(),  # B is trivial
            metadata={"family": "U", "n": n},
        )
    if family == "SO":
        raise ValueError(
            "odd orthogonal data is only accepted through a fixture "
            "(it is not validated against reference values)"
        )
    raise ValueError(f"unknown preset family {family!r}")


def preset_from_dict(data: dict) -> ThetaPreset:
    """Fixture schema: name, num_simple, iota, delta_minus, s_choice,
    b_generators (bitmasks over delta_minus positions), metadata.

    Every field but name and metadata takes JSON integers, and so does metadata's
    n when its family is "U", an n larger than the number m of fixed roots."""
    data = _as_dict(data)
    metadata = dict(_as_dict(data.get("metadata", {})))
    if metadata.get("family") == "U":  # the unitary labels are compositions of n, cut at m places
        if "n" not in metadata:
            raise ValueError("metadata: a unitary preset (family \"U\") needs an integer n")
        metadata["n"] = n = _as_int(metadata["n"])
        if n <= (m := len(_as_list(_field(data, "delta_minus")))):
            raise ValueError(f"metadata: a unitary preset's n must exceed its {m} fixed roots, got n = {n}")
    return ThetaPreset(
        name=str(_field(data, "name")),
        num_simple=_as_int(_field(data, "num_simple")),
        iota=_as_ints(_field(data, "iota")),
        delta_minus=_as_ints(_field(data, "delta_minus")),
        s_choice=_as_ints(data.get("s_choice", ())),
        b_generators=_as_ints(data.get("b_generators", ())),
        metadata=metadata,
    )


def preset_from_json(path: str) -> ThetaPreset:
    return preset_from_dict(read_json(path))


def resolve_preset(spec: str) -> ThetaPreset:
    """Accept "GL:n" / "U:n" / "SO:n" or a path to a JSON fixture."""
    if ":" in spec:
        family, _, num = spec.partition(":")
        if family in ("GL", "U", "SO"):
            return builtin_preset(family, int(num))
    return preset_from_json(spec)


def inner_form_fiber_count(torus_h1_order: int, h1_g_order: int) -> int:
    """|H1(torus)| / |H1(G)|; errors when the ratio is not an integer."""
    if h1_g_order <= 0:
        raise ValueError("group cohomology order must be positive")
    if torus_h1_order % h1_g_order != 0:
        raise ValueError(
            f"fiber count {torus_h1_order}/{h1_g_order} is not an integer"
        )
    return torus_h1_order // h1_g_order
