"""Group algebra, generators, membership predicates, half-space action."""

import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacover import (IntegerSymplectic, SiegelPoint, enumerate_isotropic,
                        j_matrix, make_generator, mobius_act,
                        random_word_element, subgroup_membership,
                        transvection_rep)
import thetacover
from thetacover.f2cosets import _PAIR_BLOCK
from thetacover.symplectic import _exact_symplectic, _SymplecticRows

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def word(m, sub, seed, length=6):
    return random_word_element(m, sub, length=length, seed=seed)[0]


def every_generator(m):
    """Each kind at genus m: omega_S for every S, the elementary kinds for
    all i, j and t, u, u_minus and h with non-diagonal blocks, iota with
    four SL_2 blocks, iota_pair with _PAIR_BLOCK on every ordered pair."""
    idx = range(1, m + 1)
    for r in range(m + 1):
        for s in itertools.combinations(idx, r):
            yield make_generator("omega_S", m, S=set(s))
    yield make_generator("omega", m)
    for i, j in itertools.product(idx, repeat=2):
        for t in (-3, -1, 1, 2):
            yield make_generator("u_ij", m, i=i, j=j, t=t)
            yield make_generator("u_minus_ij", m, i=i, j=j, t=t)
            if i != j:
                yield make_generator("v_ij", m, i=i, j=j, t=t)
    sym = [[(r + c) % 3 - 1 for c in range(m)] for r in range(m)]
    yield make_generator("u", m, b=sym)
    yield make_generator("u_minus", m, c=sym)
    # unitriangular, so unimodular, and with det -1 once its row 0 is negated
    a = [[int(r == c) + (c == r + 1) - 2 * (c == r + 2) for c in range(m)]
         for r in range(m)]
    yield make_generator("h", m, a=a)
    yield make_generator("h", m, a=[[-x for x in a[0]]] + a[1:])
    for i in idx:
        for g in ([[1, 1], [0, 1]], [[1, 0], [-1, 1]], [[0, -1], [1, 0]],
                  [[2, 3], [1, 2]]):
            yield make_generator("iota", m, i=i, g=g)
    for jk in itertools.permutations(idx, 2):
        yield make_generator("iota_pair", m, jk=jk, g=_PAIR_BLOCK)
    yield IntegerSymplectic.identity(m)


def test_generators_are_symplectic():
    # every kind is built unchecked from its checked parameters, so this
    # is the check that the parameters make it symplectic; the rows are
    # plain tuples of ints, as the checked constructor makes them
    def plain(g):
        return (type(g.rows) is tuple and
                all(type(r) is tuple and all(type(x) is int for x in r) for r in g.rows))

    for m in (1, 2, 3, 4):
        for g in every_generator(m):
            assert g.m == m and _exact_symplectic(g.rows) and plain(g)
    for m in (1, 2, 3):
        for q in enumerate_isotropic(m):
            g = transvection_rep(q)
            assert _exact_symplectic(g.rows) and plain(g)


def out_of_range_generators(m):
    """(kind, params) with one index at 0 or m + 1, for each indexed kind."""
    unit4 = [[int(r == c) for c in range(4)] for r in range(4)]
    for bad in (0, m + 1):
        for kind in ("u_ij", "u_minus_ij"):
            yield kind, {"i": bad, "j": 1}
            yield kind, {"i": 1, "j": bad}
        yield "v_ij", {"i": bad, "j": 1}
        yield "v_ij", {"i": 1, "j": bad}
        yield "iota", {"i": bad, "g": [[1, 1], [0, 1]]}
        yield "iota_pair", {"jk": (bad, 1), "g": unit4}
        yield "iota_pair", {"jk": (1, bad), "g": unit4}
        yield "omega_S", {"S": {1, bad}}


def test_generator_validation():
    # the symplectic check refuses these too, but without naming the block
    with pytest.raises(ValueError, match=r"u\(b\) needs symmetric b"):
        make_generator("u", 2, b=[[0, 1], [2, 0]])
    with pytest.raises(ValueError, match=r"u_minus\(c\) needs symmetric c"):
        make_generator("u_minus", 2, c=[[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        make_generator("h", 2, a=[[2, 0], [0, 1]])       # not unimodular
    with pytest.raises(ValueError):
        make_generator("v_ij", 2, i=1, j=1)
    with pytest.raises(ValueError):
        make_generator("nope", 1)
    for kind, params in [("h", {"a": [[1, 0, 0], [0, 1, 0]]}),   # wrong shapes
                         ("h", {"a": [[1]]}),
                         ("h", {"a": [[1, 0], [0, 1], [0, 0]]}),
                         ("u", {"b": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
                         ("u_minus", {"c": [[1, 0]]}),
                         ("iota", {"i": 1, "g": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
                         ("iota_pair", {"jk": (1, 2), "g": [[0, -1], [1, 0]]})]:
        with pytest.raises(ValueError):
            make_generator(kind, 2, **params)
    # indices are 1-based: 0 would wrap to the last coordinate
    for m in (1, 2, 3):
        for kind, params in out_of_range_generators(m):
            with pytest.raises(ValueError, match=f"must lie in 1..{m}"):
                make_generator(kind, m, **params)


@pytest.mark.parametrize("name, build", [
    ("m", lambda x: make_generator("omega", x)),
    ("index", lambda x: make_generator("u_ij", 2, i=x, j=1)),
    ("index", lambda x: make_generator("iota", 2, i=x, g=[[1, 1], [0, 1]])),
    ("m", lambda x: random_word_element(x, "Sp", length=3, seed=1)),
    ("length", lambda x: random_word_element(2, "Sp", length=x, seed=1)),
    ("m", lambda x: repr(SiegelPoint.z0(x))),
    ("m", IntegerSymplectic.identity),
    ("seed", lambda x: random_word_element(2, "Sp", length=3, seed=x)),
])
def test_integer_arguments_follow_the_as_int_rule(name, build):
    # an integral float or numpy int builds what the int builds; 2.5 is a
    # ValueError that names the argument, not range()'s TypeError
    assert build(2.0) == build(np.int64(2)) == build(2)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        build(2.5)


def test_word_seed_follows_the_as_int_rule():
    # random.Random hashes any seed: 1.5 would draw a word, and 1.0 that of 1
    for bad in (1.5, "1", float("inf"), -float("inf"), float("nan")):
        with pytest.raises(ValueError, match="seed must be an integer"):
            random_word_element(2, "Sp", length=3, seed=bad)
    assert random_word_element(2, "Sp", length=3, seed=True) \
        == random_word_element(2, "Sp", length=3, seed=1)


def test_subgroup_name_must_be_a_string():
    g = make_generator("omega", 2)
    for bad in (12, ["Sp"], None, ("Gamma", 2)):
        with pytest.raises(ValueError, match="unknown subgroup"):
            subgroup_membership(g, bad)
        with pytest.raises(ValueError, match="unknown subgroup"):
            random_word_element(2, bad, length=3, seed=1)


def test_point_forms_z_once_read_only():
    z = SiegelPoint([[0.3, -0.1], [-0.1, 0.2]], [[1.2, 0.4], [0.4, 0.7]])
    assert z.z is z.z
    assert np.array_equal(z.z, z.X + 1j * z.Y)
    for arr in (z.X, z.Y, z.z):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0


def test_base_point_is_built_once_per_genus():
    for m in (1, 2, 3):
        z0 = SiegelPoint.z0(m)
        assert SiegelPoint.z0(float(m)) is z0 is SiegelPoint.z0(np.int64(m))
        assert np.array_equal(z0.z, 1j * np.eye(m))
    assert SiegelPoint.z0(1) is not SiegelPoint.z0(2)


def test_non_symplectic_rejected():
    with pytest.raises(ValueError):
        IntegerSymplectic(((1, 1), (1, 1)))


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_inverse_and_products(seed):
    g = word(2, "Sp", seed)
    assert g @ g.inverse() == IntegerSymplectic.identity(2)
    assert g.inverse().inverse() == g


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_theta_group_closure(seed):
    r1 = word(2, "Gamma1_2", seed)
    r2 = word(2, "Gamma1_2", seed + 1)
    assert subgroup_membership(r1, "Gamma1_2")
    assert subgroup_membership(r1 @ r2, "Gamma1_2")
    assert subgroup_membership(r1.inverse(), "Gamma1_2")


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_level_two_words_are_members(seed):
    g = word(2, "Gamma2", seed)
    assert subgroup_membership(g, "Gamma2")
    assert subgroup_membership(g, "Gamma1_2")   # level 2 sits inside


def test_membership_name_forms():
    g = make_generator("u_minus_ij", 1, i=1, j=1, t=4)   # c = -4
    assert subgroup_membership(g, "Gamma(1,2)")
    assert subgroup_membership(g, "Gamma1_2")
    assert subgroup_membership(g, "Gamma4")              # 1 mod 4
    # congruent 1 mod 4 but (g-1)/4 has an odd corner entry
    assert not subgroup_membership(g, "Gamma4_8")
    g8 = make_generator("u_minus_ij", 1, i=1, j=1, t=8)
    assert subgroup_membership(g8, "Gamma4_8")
    with pytest.raises(ValueError):
        subgroup_membership(g, "Gamma4_9")


def test_mobius_cocycle_property():
    rng = np.random.default_rng(5)
    for m in (1, 2):
        z = SiegelPoint.z0(m)
        for t in range(10):
            g1 = word(m, "Sp", int(rng.integers(2 ** 31)))
            g2 = word(m, "Sp", int(rng.integers(2 ** 31)))
            lhs = j_matrix(g1 @ g2, z)
            rhs = j_matrix(g1, mobius_act(g2, z)) @ j_matrix(g2, z)
            assert np.max(np.abs(lhs - rhs)) < 1e-9
            w1 = mobius_act(g1, mobius_act(g2, z))
            w2 = mobius_act(g1 @ g2, z)
            assert np.max(np.abs(w1.z - w2.z)) < 1e-9


@pytest.mark.parametrize("X, Y, error", [
    ([[0.0]], [[float("inf")]], "X and Y must be finite"),
    ([[0.0]], [[-float("inf")]], "X and Y must be finite"),
    ([[float("inf")]], [[1.0]], "X and Y must be finite"),
    ([[0.0, float("inf")], [float("inf"), 0.0]], np.eye(2),
     "X and Y must be finite"),
    ([[float("nan")]], [[1.0]], "X and Y must be finite"),
    ([[1j]], [[1.0]], "X must be a real matrix"),
    ([[0.0]], np.array([[1.0 + 0.5j]]), "Y must be a real matrix"),
    ([[0.0]], np.array([[1.0 + 0j]]), "Y must be a real matrix"),
    ([["x"]], [[1.0]], "X must be a real matrix"),
], ids=["inf-Y", "minus-inf-Y", "inf-X", "inf-off-diagonal", "nan-X",
        "complex-list", "complex-array", "complex-dtype-real-values",
        "not-a-number"])
def test_point_refusals_are_named_without_a_warning(X, Y, error):
    # numpy would warn on inf - inf in the symmetry residual, refuse a
    # complex list with TypeError and drop the imaginary part of a complex
    # array with a warning; each is a named ValueError instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=error):
            SiegelPoint(X, Y)


def test_point_validation():
    with pytest.raises(ValueError):
        SiegelPoint([[0.0]], [[-1.0]])
    with pytest.raises(ValueError, match="X must be symmetric"):
        SiegelPoint([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    with pytest.raises(ValueError, match="Y must be symmetric"):
        SiegelPoint(np.zeros((2, 2)), [[1.0, 0.5], [0.0, 1.0]])
    # a non-finite entry is named as such, not as an asymmetry
    inf, nan = float("inf"), float("nan")
    for X, Y in (([[0.0]], [[inf]]), ([[nan]], [[1.0]]), ([[0.0]], [[-inf]]),
                 ([[0.0, inf], [inf, 0.0]], np.eye(2)),
                 ([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, nan]])):
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="X and Y must be finite"):
            SiegelPoint(X, Y)
    # genus 0, which numpy would refuse with its own message
    for make in (lambda: SiegelPoint(np.zeros((0, 0)), np.zeros((0, 0))),
                 lambda: SiegelPoint.z0(0),
                 lambda: thetacover.sample_point(0, np.random.default_rng(0))):
        with pytest.raises(ValueError, match="at least 1 x 1"):
            make()


# every spelling the word sampler accepts, and the group it names
SAMPLER_SPELLINGS = {"Sp": "Sp", "SpZ": "Sp", "Sp(Z)": "Sp",
                     "Gamma12": "Gamma12", "Gamma1_2": "Gamma12",
                     "Gamma(1,2)": "Gamma12", "Gamma2": "Gamma2",
                     "Gamma(2)": "Gamma2"}


def test_sampler_spellings_round_trip_through_membership():
    for spelling, group in SAMPLER_SPELLINGS.items():
        for m in (1, 2):
            for seed in range(4):
                g = word(m, spelling, seed)
                assert g == word(m, group, seed)
                assert subgroup_membership(g, spelling)
                assert subgroup_membership(g, group)
    # "Gamma12" names Gamma(1,2), not the level-12 group
    g = make_generator("omega", 2)
    assert not subgroup_membership(g, "Gamma2")
    assert subgroup_membership(g, "Gamma12")
    for bad in ("Gamma4_9", "Borel"):
        with pytest.raises(ValueError):
            subgroup_membership(g, bad)
        with pytest.raises(ValueError):
            random_word_element(2, bad, length=3, seed=0)


def test_word_sampler_deterministic():
    g1, w1 = random_word_element(2, "Sp", length=5, seed=123)
    g2, w2 = random_word_element(2, "Sp", length=5, seed=123)
    assert g1 == g2 and w1 == w2
    with pytest.raises(ValueError):
        random_word_element(1, "Borel", length=3, seed=0)
    assert random_word_element(2, "Sp", length=0, seed=1)[0] \
        == IntegerSymplectic.identity(2)
    for length in (-1, -3):
        with pytest.raises(ValueError, match="word length"):
            random_word_element(2, "Sp", length=length, seed=1)


def assert_trusted(g):
    # a product or inverse, whose rows the constructor takes unchecked, is
    # what the checking constructor makes of them
    again = IntegerSymplectic(g.rows)
    assert again == g and hash(again) == hash(g) and again.m == g.m
    assert _exact_symplectic(g.rows)


def test_trusted_products_and_inverses_match_the_checked_constructor():
    # every partial product of 360 words (m = 1..4, three samplers,
    # lengths 1..30), rebuilt from freshly validated letters
    for m in (1, 2, 3, 4):
        for group in ("Sp", "Gamma(1,2)", "Gamma2"):
            for seed in range(30):
                g, word = random_word_element(m, group, length=1 + seed, seed=seed)
                h = IntegerSymplectic.identity(m)
                for kind, params in word:
                    h = h @ make_generator(kind, m, **params)
                    assert_trusted(h)
                    assert_trusted(h.inverse())
                assert h == g


# how each kind of element is made from g = omega and h = u_12(3) at
# m = 2, and the type of rows it hands to the constructor
MAKERS = {"product": (lambda g, h: g @ h, _SymplecticRows),
          "inverse": (lambda g, h: h.inverse(), _SymplecticRows),
          "generator": (lambda g, h: make_generator("v_ij", 2, i=1, j=2),
                        _SymplecticRows),
          "identity": (lambda g, h: IntegerSymplectic.identity(2),
                       _SymplecticRows),
          "transvection": (lambda g, h: transvection_rep((1, 0, 0, 1)),
                           _SymplecticRows),
          "outside_rows": (lambda g, h: IntegerSymplectic(g.rows), tuple)}


@pytest.mark.parametrize("kind", MAKERS)
def test_every_element_enters_the_one_constructor(monkeypatch, kind):
    make, rows_type = MAKERS[kind]
    g = make_generator("omega", 2)
    h = make_generator("u_ij", 2, i=1, j=2, t=3)
    entered = []
    init = IntegerSymplectic.__init__

    def counting(self, rows):
        entered.append(type(rows))
        init(self, rows)

    monkeypatch.setattr(IntegerSymplectic, "__init__", counting)
    assert isinstance(make(g, h), IntegerSymplectic)
    assert entered == [rows_type]


def test_no_element_is_made_around_the_constructor():
    # neither object.__new__(IntegerSymplectic) in the library nor a __new__
    # of the class's own may make an element that skips __init__
    assert "__new__" not in vars(IntegerSymplectic)
    src = Path(thetacover.__file__).parent
    for path in sorted(src.glob("*.py")):
        assert "__new__(IntegerSymplectic" not in path.read_text(), path.name


# recorded from the sampler before its letters were cached; the theta-m3
# bench inputs are drawn through it
PINNED_WORDS = [
    ((1, "Sp", 7, 11), [[0, -1], [1, 0]],
     [("u_ij", {"i": 1, "j": 1, "t": 1}), ("u_ij", {"i": 1, "j": 1, "t": -1}),
      ("u_ij", {"i": 1, "j": 1, "t": 1}), ("u_ij", {"i": 1, "j": 1, "t": 1}),
      ("u_ij", {"i": 1, "j": 1, "t": -1}), ("u_ij", {"i": 1, "j": 1, "t": -1}),
      ("omega_S", {"S": frozenset({1})})]),
    ((2, "Sp", 6, 0), [[0, -2, -1, 2], [-2, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, -1]],
     [("u_ij", {"i": 1, "j": 2, "t": -1}), ("u_ij", {"i": 1, "j": 2, "t": -1}),
      ("omega_S", {"S": frozenset({1, 2})}), ("u_ij", {"i": 2, "j": 2, "t": -1}),
      ("v_ij", {"i": 1, "j": 2, "t": -1}), ("v_ij", {"i": 1, "j": 2, "t": 1})]),
    ((2, "Gamma(1,2)", 5, 3), [[1, 0, -4, 1], [0, 1, 1, 2], [0, 0, 1, 0], [0, 0, 0, 1]],
     [("u_ij", {"i": 2, "j": 2, "t": 2}), ("v_ij", {"i": 1, "j": 2, "t": -1}),
      ("u_ij", {"i": 1, "j": 1, "t": -2}), ("u_ij", {"i": 1, "j": 2, "t": 1}),
      ("v_ij", {"i": 1, "j": 2, "t": 1})]),
    ((3, "Gamma2", 4, 5),
     [[1, 0, 0, 0, 0, 0], [0, -3, -4, 0, 0, 2], [0, 4, -3, 0, 2, 0],
      [0, 0, 0, 1, 0, 0], [0, 2, -2, 0, 1, 0], [0, -2, -2, 0, 0, 1]],
     [("u_ij", {"i": 2, "j": 3, "t": 2}), ("u_minus_ij", {"i": 2, "j": 2, "t": -2}),
      ("u_minus_ij", {"i": 3, "j": 3, "t": 2}), ("u_minus_ij", {"i": 2, "j": 3, "t": 2})]),
]


@pytest.mark.parametrize("args, rows, word", PINNED_WORDS)
def test_word_sampler_pinned(args, rows, word):
    m, group, length, seed = args
    for _ in range(2):                      # the second call reads cached letters
        g, w = random_word_element(m, group, length, seed=seed)
        assert g == IntegerSymplectic(rows) and w == word
