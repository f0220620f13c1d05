"""Hypothesis fuzz of the command line: ``run`` returns, never raises, and exits 0, 1 or 2.

Arguments are built from the real subcommands and flags, with small integers,
short text and presets from a fixed list.  Fixtures are arbitrary JSON of
depth at most 3, or a valid fixture with one field replaced: the README's A1
system and norm-one torus, and the built-in GL:3 preset.  Integers are small,
except that ``--samples``, ``--kmax`` and ``--max-period`` also draw values past
their work limits: those exit 1 as they are parsed, before any work, which is
asserted.  A large count admitted by its limit would only make an example slow.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from galpairs.cli import EXIT_USAGE, MAX_SAMPLES, run
from test_cli import A1_SYSTEM, NORM_ONE

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)

SMALL = st.integers(0, 6).map(str)
TEXT = st.text(max_size=4)
VALUE = SMALL | TEXT
POINT = st.lists(
    st.integers(-6, 6).map(str) | st.sampled_from(["1/2", "1/0", "x", ""]), max_size=3
).map(",".join)
PRESETS = ["GL:3", "U:4", "GL:0", "U:x", "SO:3", "missing.json"]
# the count flags with a work limit, and that limit
LIMITS = {"--samples": MAX_SAMPLES, "--kmax": 6, "--max-period": 4}
FORMAT = st.sampled_from(["text", "json", "xml"])
# ehrhart counts lattice points of ever larger sweeps, so it gets rank one only
CHEAP_SYSTEMS = ["A1", "BC1", "missing.json"]
SYSTEMS = CHEAP_SYSTEMS + ["A2", "A3", "B2", "C2", "G2", "BC2"]


def _argv(command: list[str], flags: dict) -> st.SearchStrategy:
    """The command followed by a random subset of its flags, in random order."""
    pairs = st.lists(
        st.sampled_from(sorted(flags)).flatmap(lambda f: flags[f].map(lambda v: [f, v])),
        max_size=5,
    )
    return pairs.map(lambda ps: command + [x for p in ps for x in p])


def _past(limit: int) -> st.SearchStrategy:
    return st.sampled_from([limit + 1, 10**9]).map(str)


def _ortho(action: str) -> st.SearchStrategy:
    systems = CHEAP_SYSTEMS if action == "ehrhart" else SYSTEMS
    flags = {
        "--system": st.sampled_from(systems),
        **{flag: VALUE | _past(limit) for flag, limit in LIMITS.items()},
        "--seed": VALUE,
        "--special": POINT,
        "--x0": POINT,
        "--format": FORMAT,
    }
    return st.sampled_from(systems).flatmap(
        lambda s: _argv(["ortho", action, "--system", s], flags)
    )


ARGV = st.one_of(
    _argv(
        ["verify-prasad"],
        {"--m": VALUE, "--max-m": VALUE, "--preset": st.sampled_from(PRESETS), "--format": FORMAT},
    ),
    *[_ortho(a) for a in ("check", "volume", "ehrhart", "bogus")],
    *[
        _argv([name], {"--norm-one": VALUE, "--split": VALUE, "--h1g": VALUE, "--format": FORMAT})
        for name in ("h1", "fibers")
    ],
    _argv(["list-levis"], {"--preset": st.sampled_from(PRESETS), "--format": FORMAT}),
    st.lists(VALUE | st.sampled_from(["ortho", "h1", "--help", "--fixture"]), max_size=4),
)


def _past_a_limit(argv) -> bool:
    return any(
        flag in LIMITS and value.isascii() and value.isdigit() and int(value) > LIMITS[flag]
        for flag, value in zip(argv, argv[1:])
    )


def _assert_exit_code(argv) -> None:
    code, text = run(argv)
    assert code in (0, 1, 2), (argv, code, text)
    if _past_a_limit(argv):
        assert (code, text) == (EXIT_USAGE, ""), argv


@FUZZ
@given(ARGV)
def test_argv_gives_an_exit_code(argv):
    _assert_exit_code(argv)


# -- fixtures -------------------------------------------------------------------------

GL3_PRESET = {
    "name": "GL:3", "num_simple": 2, "iota": [1, 0], "delta_minus": [],
    "s_choice": [0], "b_generators": [], "metadata": {},
}
FIELDS = sorted(set(A1_SYSTEM) | set(NORM_ONE) | set(GL3_PRESET) | {"basis", "special", "points"})

SCALAR = (
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.floats(-10, 10)
    | st.text(max_size=4)
    | st.sampled_from(["1/2", "1/0", "-2"])
)


def _json(depth: int) -> st.SearchStrategy:
    if depth == 0:
        return SCALAR
    inner = _json(depth - 1)
    keys = st.sampled_from(FIELDS) | st.text(max_size=3)
    return SCALAR | st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3)


JSON = _json(3)

# the commands that read each kind of fixture; the path is appended last
SYSTEM_COMMANDS = [
    ["ortho", "volume", "--special", "1", "--system"],
    ["ortho", "check", "--samples", "2", "--system"],
]
TORUS_COMMANDS = [["h1", "--fixture"], ["fibers", "--h1g", "1", "--fixture"]]
PRESET_COMMANDS = [["list-levis", "--preset"], ["verify-prasad", "--m", "1", "--preset"]]
SET_COMMANDS = [["ortho", "volume", "--system", "A2", "--fixture"]]


def _run_fixture(tmp_path_factory, command: list[str], data) -> None:
    path = tmp_path_factory.getbasetemp() / "fuzz_fixture.json"
    path.write_text(json.dumps(data))
    _assert_exit_code(command + [str(path)])


@FUZZ
@given(
    st.sampled_from(SYSTEM_COMMANDS + TORUS_COMMANDS + PRESET_COMMANDS + SET_COMMANDS),
    JSON,
)
def test_any_json_fixture_gives_an_exit_code(tmp_path_factory, command, data):
    _run_fixture(tmp_path_factory, command, data)


def _one_field_replaced(valid: dict, commands: list) -> st.SearchStrategy:
    return st.tuples(st.sampled_from(commands), st.sampled_from(sorted(valid)), JSON).map(
        lambda c: (c[0], {**valid, c[1]: c[2]})
    )


@FUZZ
@given(
    st.one_of(
        _one_field_replaced(A1_SYSTEM, SYSTEM_COMMANDS),
        _one_field_replaced(NORM_ONE, TORUS_COMMANDS),
        _one_field_replaced(GL3_PRESET, PRESET_COMMANDS),
    )
)
def test_valid_fixture_with_one_field_replaced_gives_an_exit_code(tmp_path_factory, case):
    command, data = case
    _run_fixture(tmp_path_factory, command, data)
