"""The subset transforms of the character identities against their literal loops.

``multiplicity.verify_prasad_identity`` sums by a superset-sum transform,
``presets.enumerate_elliptic_levis`` reads each index off a GF(2) rank, and
``multiplicity.steinberg_multiplicity`` tests chi_B on generators of
B intersect A_I from the same elimination.  ``prasad_oracle`` walks every
submask and every element of B instead.  Built-in presets have a trivial or a
full B, so the seeded fixtures, whose generators repeat and depend on each
other, are what exercise the elimination.
"""

import functools
import operator
import random

import pytest

from galpairs import multiplicity as mu
from galpairs.cli import EXIT_VIOLATION, run
from galpairs.presets import (
    MAX_GL_N,
    MAX_M,
    ThetaPreset,
    builtin_preset,
    enumerate_elliptic_levis,
    restriction_echelon,
)

import prasad_oracle as oracle


def _random_preset(rng: random.Random, m: int) -> ThetaPreset:
    """A preset fixing all m simple roots whose B generators include zero,
    repeats and sums of earlier generators, shuffled; half of them carry
    unitary metadata."""
    gens = [rng.randrange(1 << m) for _ in range(rng.randrange(m + 2))]
    if gens:
        gens.append(rng.choice(gens))
        gens.append(rng.choice(gens) ^ rng.choice(gens))
    if rng.random() < 0.3:
        gens.append(0)
    rng.shuffle(gens)
    # unitary labels compose any n, not only n = m + 1
    metadata = {"family": "U", "n": rng.randrange(1, 12)} if rng.random() < 0.5 else {}
    return ThetaPreset(f"random-{m}", m, tuple(range(m)), tuple(range(m)), (), tuple(gens), metadata)


# -- the superset-sum transform ---------------------------------------------------


@pytest.mark.parametrize("m", range(0, 11))
def test_superset_sums_match_the_submask_walk_on_random_vectors(m):
    rng = random.Random(1000 + m)
    for _ in range(5):
        values = [rng.randrange(-50, 51) for _ in range(1 << m)]
        assert mu.superset_sums(values) == oracle.superset_sums(values)


def test_superset_sums_leave_their_input_alone():
    values = [3, -1, 4, 1]
    assert mu.superset_sums(values) == [7, 0, 5, 1]
    assert values == [3, -1, 4, 1]


@pytest.mark.parametrize("m", range(0, 13))
def test_prasad_coefficients_match_the_submask_walk(m):
    cert = mu.verify_prasad_identity(m)
    assert cert.coefficients == oracle.prasad_coefficients(m)
    assert cert.ok and cert.coefficients == cert.expected


def test_a_perturbed_input_fails_the_collapse(monkeypatch):
    """Flip the sign of I = {} before the transform: chi = 0 gets 2 * (-1)^m
    wrongly, so ``ok`` is False and the CLI prints FAIL."""
    transform = mu.superset_sums

    def perturbed(values):
        return transform([-values[0]] + list(values[1:]))

    monkeypatch.setattr(mu, "superset_sums", perturbed)
    for m in range(0, 6):
        cert = mu.verify_prasad_identity(m)
        assert not cert.ok
        assert cert.coefficients[0] == (1 if m == 0 else 0) - 2 * (-1) ** m
    code, text = run(["verify-prasad", "--m", "4"])
    assert code == EXIT_VIOLATION
    assert "FAIL character-collapse m=4: 16 characters, 1 wrong coefficients" in text


# -- GF(2) elimination on B's generators -----------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_restriction_echelon_reads_the_projection_and_the_vanishing_subgroup(seed):
    rng = random.Random(seed)
    m = rng.randrange(0, 8)
    gens = _random_preset(rng, m).b_generators
    b = oracle.span_masks(gens)
    for mask in range(1 << m):
        rank, vanishing = restriction_echelon(gens, mask)
        assert 1 << rank == len({x & mask for x in b})
        assert oracle.span_masks(vanishing) == {x for x in b if x & mask == 0}


@pytest.mark.parametrize("seed", range(40))
def test_random_fixtures_match_the_oracle(seed):
    rng = random.Random(seed)
    preset = _random_preset(rng, rng.randrange(0, 8))
    assert enumerate_elliptic_levis(preset) == oracle.elliptic_levis(preset)
    chars = range(1 << preset.m)
    if preset.m > 5:
        chars = rng.sample(chars, 12)
    for chi in chars:
        assert mu.steinberg_multiplicity(preset, chi) == oracle.steinberg_multiplicity(preset, chi)


# -- every built-in preset -----------------------------------------------------------


@pytest.mark.parametrize("n", range(1, MAX_M + 2))
def test_unitary_presets_match_the_oracle(n):
    preset = builtin_preset("U", n)
    assert enumerate_elliptic_levis(preset) == oracle.elliptic_levis(preset)
    for chi in mu.distinct_b_characters(preset):
        assert mu.steinberg_multiplicity(preset, chi) == oracle.steinberg_multiplicity(preset, chi)


def test_general_linear_presets_match_the_oracle():
    for n in range(1, MAX_GL_N + 1):
        preset = builtin_preset("GL", n)
        assert enumerate_elliptic_levis(preset) == oracle.elliptic_levis(preset), n
        for chi in mu.distinct_b_characters(preset):
            got = mu.steinberg_multiplicity(preset, chi)
            assert got == oracle.steinberg_multiplicity(preset, chi), (n, chi)


# -- the Steinberg sum over B's support ------------------------------------------------


def _inner_support_preset(rng: random.Random, m: int) -> ThetaPreset:
    """A preset fixing all m simple roots whose B generators have a nonempty support
    strictly inside the fixed set, so m - |support| >= 1 free bits."""
    inner = rng.sample(range(m), rng.randint(1, m - 1))
    gens = [sum(1 << i for i in inner if rng.random() < 0.6) for _ in range(rng.randint(1, m))]
    gens.append(1 << inner[0])  # the support is not empty
    return ThetaPreset(f"inner-{m}", m, tuple(range(m)), tuple(range(m)), (), tuple(gens), {})


@pytest.mark.parametrize("seed", range(6))
def test_steinberg_over_the_support_matches_the_oracle_at_every_character(seed):
    """The sum runs over the submasks of the support S of B's generators and takes the free
    bits as the factor (-1)^(m - |S|); the oracle sums over every I and all of B.  Dropping
    that factor gives (-1)^(m - |S|) times the library's value, which differs from the
    oracle's on a nonzero value at an odd m - |S|: the seeds include such a case."""
    rng = random.Random(f"steinberg-support/{seed}")
    seen_odd = False
    for m in (rng.randint(2, 5), rng.randint(6, 8)):
        preset = _inner_support_preset(rng, m)
        free = preset.m - functools.reduce(operator.or_, preset.b_generators).bit_count()
        for chi in range(1 << preset.m):
            want = oracle.steinberg_multiplicity(preset, chi)
            assert mu.steinberg_multiplicity(preset, chi) == want
            seen_odd |= free % 2 == 1 and want != 0
    assert seen_odd
