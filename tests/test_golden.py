"""The library's outputs against the golden answers in tests/golden.json.

golden.py computes each section and documents what is pinned and how the
file is regenerated.  Exact values must be equal; floats agree to
golden.REL_TOL relative.
"""

import json

import pytest

import golden

GOLDEN = json.loads(golden.PATH.read_text())


def assert_matches(got, want, where="golden"):
    """got equals want, JSON-wise: dicts by key, lists entry by entry, floats
    to golden.REL_TOL relative, everything else (ints, bools, strings)
    exactly and of the same type."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert abs(got - want) <= golden.REL_TOL * max(1.0, abs(want)), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} != {want!r}"


def plain(x):
    """x as JSON reads it back: tuples become lists, keys strings."""
    return json.loads(json.dumps(x))


@pytest.mark.parametrize("m", golden.GENERA)
def test_exponents_on_seeded_words(m):
    assert_matches(plain(golden.exponents(m)), GOLDEN["exponents"][str(m)],
                   f"exponents[{m}]")


@pytest.mark.parametrize("m", golden.GENERA)
def test_coset_tables(m):
    assert_matches(plain(golden.cosets(m)), GOLDEN["cosets"][str(m)],
                   f"cosets[{m}]")


@pytest.mark.parametrize("m", golden.IMAGE_GENERA)
def test_letter_images(m):
    assert_matches(plain(golden.letter_images(m)),
                   GOLDEN["letter_images"][str(m)], f"letter_images[{m}]")


@pytest.mark.parametrize("key", sorted(GOLDEN["laws"]))
def test_law_trials(key):
    theorem, m, seed = key.split("-")
    got = golden.law(theorem, int(m[1:]), int(seed[4:]))
    assert_matches(plain(got), GOLDEN["laws"][key], key)


def test_selftest():
    assert_matches(plain(golden.selftest()), GOLDEN["selftest"], "selftest")


def test_golden_file_is_whole():
    # every section the regen script writes is read by a test above, and
    # the file stays small
    assert GOLDEN.keys() == {"exponents", "cosets", "letter_images", "laws",
                             "selftest"}
    assert len(GOLDEN["laws"]) == 2 * len(golden.IMAGE_GENERA) * len(golden.LAW_SEEDS)
    assert golden.PATH.stat().st_size < 300_000
