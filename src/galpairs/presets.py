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

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .exact_linalg import _as_dict, _as_int, _as_ints


# the largest rank m of (Z/2)^m: the character-collapse check costs 3^m steps
# and a preset's elliptic Levis number 2^m
MAX_M = 16
# the largest n of "GL:n": it builds n-tuples, though its m is at most 1
MAX_GL_N = 1000


def _check_rank(m: int) -> None:
    if m > MAX_M:
        raise ValueError(f"at most {MAX_M} fixed simple roots, got {m}")


def _span_masks(generators: Sequence[int]) -> set[int]:
    span = {0}
    for g in generators:
        span |= {x ^ g for x in span}
    return span


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

    def b_subgroup(self) -> set[int]:
        """All elements of B as bitmasks over the fixed simple roots."""
        return _span_masks(self.b_generators)


@dataclass(frozen=True)
class EllipticLeviDatum:
    """Combinatorial invariants of the twisted Levi attached to I."""

    subset: tuple[int, ...]  # positions into delta_minus
    sign: int  # (-1)^(|delta_minus| - |I|)
    ker1_size: int  # 2^|I| / |projection of B to the I coordinates|
    mab_index: int  # |projection of B to the I coordinates|
    label: Optional[tuple[int, ...]] = None  # composition label for unitary presets

    @property
    def product_invariant(self) -> int:
        return self.ker1_size * self.mab_index


def enumerate_elliptic_levis(preset: ThetaPreset) -> list[EllipticLeviDatum]:
    """One datum per subset I of the fixed simple roots, in mask order."""
    m = preset.m
    b = preset.b_subgroup()
    out = []
    for mask in range(1 << m):
        subset = tuple(i for i in range(m) if mask >> i & 1)
        # the projection of B is a subgroup of (Z/2)^|I|, so its size divides 2^|I|
        mab = len({x & mask for x in b})
        ker1 = (1 << len(subset)) // mab
        label = None
        if preset.metadata.get("family") == "U":
            n = preset.metadata["n"]
            cuts = [i + 1 for i in subset]
            bounds = [0] + cuts + [n]
            label = tuple(b2 - b1 for b1, b2 in zip(bounds, bounds[1:]))
        out.append(
            EllipticLeviDatum(
                subset=subset,
                sign=(-1) ** (m - len(subset)),
                ker1_size=ker1,
                mab_index=mab,
                label=label,
            )
        )
    return out


def builtin_preset(family: str, n: int) -> ThetaPreset:
    """Presets "GL:n" (general linear over a quadratic extension) and "U:n"."""
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

    Every field but name and metadata takes JSON integers."""
    data = _as_dict(data)
    return ThetaPreset(
        name=str(data["name"]),
        num_simple=_as_int(data["num_simple"]),
        iota=_as_ints(data["iota"]),
        delta_minus=_as_ints(data["delta_minus"]),
        s_choice=_as_ints(data.get("s_choice", ())),
        b_generators=_as_ints(data.get("b_generators", ())),
        metadata=dict(_as_dict(data.get("metadata", {}))),
    )


def preset_from_json(path: str) -> ThetaPreset:
    with open(path, "r", encoding="utf-8") as fh:
        return preset_from_dict(json.load(fh))


def resolve_preset(spec: str) -> ThetaPreset:
    """Accept "GL:n" / "U:n" or a path to a JSON fixture."""
    if ":" in spec:
        family, _, num = spec.partition(":")
        if family in ("GL", "U"):
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
