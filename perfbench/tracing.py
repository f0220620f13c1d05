"""In-memory spans around calls into the galpairs modules, for the traced run.

The library is not edited: ``Tracer.install`` replaces module attributes (and
a few class attributes) with wrappers that record a span per call, and
``uninstall`` puts the originals back.  A span is [name, start, end, parent
index].  Names bound by ``from ... import`` are looked up in the importing
module, so they are wrapped there as well: ``multiplicity`` calls
``presets.enumerate_elliptic_levis`` through its own binding, and
``sampling`` and ``families`` construct ``OrthogonalSet``, which is covered by
wrapping the class's ``__init__``.  ``root_data._parse_vec`` (bound into
``families``) and the small vector helpers of ``linalg`` (``dot``, ``vadd``,
``matvec``...) are called millions of times per run and are left unwrapped:
their time is self time of the calling module.  So are the cached
``RestrictedRootSystem`` accessors (``levi_projection``, ``interval``,
``cone_simple_pairs``...), whose first-call work is visible through the
``linalg`` spans they open.
"""

from __future__ import annotations

import contextlib
import functools
import time

from galpairs import exact_linalg, families, linalg, multiplicity, presets, root_data, sampling

MODULES = ("root_data", "families", "linalg", "exact_linalg", "multiplicity", "presets", "sampling")


def targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every wrapped callable."""
    fam, el = families, exact_linalg
    out = [
        (root_data.RestrictedRootSystem, "__init__", "root_data.RestrictedRootSystem"),
        (root_data, "system_from_dict", "root_data.system_from_dict"),
        (fam.OrthogonalSet, "__init__", "families.OrthogonalSet"),
        (fam.Hull, "__init__", "families.Hull"),
        (fam.Hull, "classify", "families.Hull.classify"),
        (el.LatticeWithAction, "__post_init__", "exact_linalg.LatticeWithAction"),
        (el.LatticeWithAction, "in_basis_matrices", "exact_linalg.LatticeWithAction.in_basis_matrices"),
        (multiplicity, "enumerate_elliptic_levis", "presets.enumerate_elliptic_levis"),
    ]
    functions = {
        fam: ("gamma_family", "partition_of_unity_value", "v_tilde_lattice", "volume_polytope",
              "volume_analytic", "fit_exp_polynomial"),
        linalg: ("solve", "coordinates_in_basis", "rank", "nullspace", "det", "invert",
                 "independent_subset", "projection_matrix"),
        el: ("smith_normal_form", "tate_h_minus1", "cokernel_structure", "lattice_with_action_from_dict"),
        multiplicity: ("verify_prasad_identity", "steinberg_multiplicity", "steinberg_indicator"),
        presets: ("enumerate_elliptic_levis", "builtin_preset"),
        sampling: ("sample_rational_point", "sample_points", "random_dominant_point",
                   "random_positive_set", "random_nonpositive_set"),
    }
    for module, names in functions.items():
        prefix = module.__name__.rsplit(".", 1)[-1]
        out.extend((module, name, f"{prefix}.{name}") for name in names)
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        for owner, attr, name in targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds (minus child spans)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        s["calls"] += 1
        s["total"] += end - start
        s["self"] += end - start - child[i]
    return stats


def count_under(spans: list[list], name: str, ancestor: str) -> int:
    """Number of spans called ``name`` that run inside a span called ``ancestor``."""
    n = 0
    for span in spans:
        if span[0] != name:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        n += p >= 0
    return n
