"""Block-system construction, validation, ceilings, and serialization."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnlab.steiner import (
    FANO_BLOCKS,
    PartialSteinerSystem,
    dumps_system,
    fano_system,
    greedy_generate,
    loads_system,
    max_cardinality,
    validate,
)


def cover_counts(blocks, t):
    # independent brute-force tally of t-subset coverage
    counts = {}
    for b in blocks:
        for sub in itertools.combinations(sorted(b), t):
            counts[sub] = counts.get(sub, 0) + 1
    return counts


def test_fano_covers_every_pair_exactly_once():
    counts = cover_counts(FANO_BLOCKS, 2)
    assert len(counts) == math.comb(7, 2)
    assert set(counts.values()) == {1}
    res = validate(fano_system())
    assert res.valid
    assert res.violations == ()
    assert res.structural_errors == ()


def test_pair_collision_is_reported():
    sys_bad = PartialSteinerSystem(n=5, k=3, t=2, blocks=((1, 2, 3), (1, 2, 4)))
    res = validate(sys_bad)
    assert not res.valid
    assert res.violations[0][0] == (1, 2)
    assert {res.violations[0][1], res.violations[0][2]} == {(1, 2, 3), (1, 2, 4)}


def test_structural_errors_are_not_uniqueness_violations():
    sys_bad = PartialSteinerSystem(n=5, k=3, t=2, blocks=((1, 1, 3), (2, 4, 9)))
    res = validate(sys_bad)
    assert not res.valid
    assert len(res.structural_errors) == 2
    assert res.violations == ()


def test_empty_system_is_valid():
    res = validate(PartialSteinerSystem(n=6, k=3, t=2, blocks=()))
    assert res.valid


def test_blocks_are_canonicalized():
    sys_ = PartialSteinerSystem(n=7, k=3, t=2, blocks=((3, 1, 2), (7, 6, 5)))
    assert sys_.blocks == ((1, 2, 3), (5, 6, 7))
    assert sys_.cardinality == 2


def test_greedy_matching_on_six_points_is_perfect():
    # k=2, t=1: blocks are disjoint edges; any maximal matching on an even
    # clique is perfect, so the greedy always lands exactly 3 blocks.
    for seed in range(8):
        sys_ = greedy_generate(6, 2, 1, seed)
        assert sys_.cardinality == 3
        assert validate(sys_).valid
        used = [p for b in sys_.blocks for p in b]
        assert sorted(used) == list(range(1, 7))


@pytest.mark.parametrize("n,k,t", [(7, 3, 2), (11, 3, 2), (9, 4, 3), (8, 4, 2)])
def test_greedy_valid_and_below_ceiling(n, k, t):
    for seed in (0, 1, 2):
        sys_ = greedy_generate(n, k, t, seed)
        assert validate(sys_).valid
        assert sys_.cardinality <= max_cardinality(n, k, t)


def test_greedy_is_maximal():
    # no unused k-subset can be added without breaking t-uniqueness
    sys_ = greedy_generate(9, 3, 2, 5)
    covered = set(cover_counts(sys_.blocks, 2))
    existing = set(sys_.blocks)
    for cand in itertools.combinations(range(1, 10), 3):
        if cand in existing:
            continue
        pairs = set(itertools.combinations(cand, 2))
        assert pairs & covered, cand


def test_greedy_deterministic_in_seed():
    a = greedy_generate(12, 3, 2, 99)
    b = greedy_generate(12, 3, 2, 99)
    c = greedy_generate(12, 3, 2, 100)
    assert a.blocks == b.blocks
    assert a.blocks != c.blocks


def test_greedy_accepts_generator_instance():
    rng = np.random.default_rng(7)
    sys_ = greedy_generate(8, 3, 2, rng=rng)
    assert validate(sys_).valid


def test_max_cardinality_exact_fractions():
    assert max_cardinality(7, 3, 2) == Fraction(7)
    assert max_cardinality(6, 2, 1) == Fraction(3)
    assert max_cardinality(12, 4, 3) == Fraction(math.comb(12, 3), 4)
    assert max_cardinality(10, 3, 3) == Fraction(math.comb(10, 3))


def test_max_cardinality_rejects_bad_parameters():
    with pytest.raises(ValueError):
        max_cardinality(5, 6, 2)
    with pytest.raises(ValueError):
        max_cardinality(7, 3, 0)
    with pytest.raises(ValueError):
        max_cardinality(7, 3, 4)


def test_point_degrees_and_pair_multiplicity():
    sys_ = fano_system()
    deg = sys_.point_degrees()
    assert deg.tolist() == [3] * 7
    # two blocks sharing the pair {1, 2}: valid at t = 3, a violation at t = 2
    blocks = ((1, 2, 3, 4), (1, 2, 5, 6))
    assert validate(PartialSteinerSystem(n=6, k=4, t=3, blocks=blocks)).valid
    doubled = validate(PartialSteinerSystem(n=6, k=4, t=2, blocks=blocks))
    assert doubled.violations == (((1, 2), (1, 2, 3, 4), (1, 2, 5, 6)),)


def test_serialization_roundtrip():
    for sys_ in (fano_system(), greedy_generate(11, 3, 2, 4)):
        text = dumps_system(sys_)
        back = loads_system(text)
        assert back == sys_


def test_loads_rejects_malformed_text():
    with pytest.raises(ValueError):
        loads_system("no header here\n1 2 3\n")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=12),
    k=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_greedy_property_valid_any_shape(n, k, seed):
    k = min(k, n)
    t = k - 1 if k > 1 else 1
    sys_ = greedy_generate(n, k, t, seed)
    assert validate(sys_).valid
    counts = cover_counts(sys_.blocks, t)
    assert all(c == 1 for c in counts.values())
