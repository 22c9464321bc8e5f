"""Partition enumeration and the Stiefel-Whitney monomial index set."""

from itertools import groupby
from math import prod

import pytest

from _oracles import (
    partition_count,
    partitions_by_compositions,
    partitions_by_growth,
    partitions_decreasing,
    sw_key,
)
from symchar.charclass import SW, CharNumberTable, sphere, stiefel_whitney_numbers
from symchar.errors import SymcharError, TooLargeError
from symchar.partitions import (
    MAX_WEIGHT,
    format_partition,
    parse_monomial,
    parse_partition,
    partitions_of,
    walk_runs,
)

_PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, p))]


def _sw_keys(n):
    """The keys of the SW table of S^n: every monomial of degree n."""
    return list(stiefel_whitney_numbers(sphere(n)).entries)


# walk_runs(n, run, sep, prepend) as the package calls it, with each value
# a power of the part's own prime so that a value names its partition
_WALK_MODES = {
    "append-str": (lambda k, r: (",".join([str(k)] * r), _PRIMES[k] ** r), ",", False),
    "prepend-str": (lambda k, r: (f"w{k}^{r}", _PRIMES[k] ** r), " ", True),
    "prepend-tuple": (lambda k, r: (((k, r),), _PRIMES[k] ** r), (), True),
    "value-0-runs": (
        lambda k, r: (",".join([str(k)] * r), 0 if (k + r) % 3 == 0 else _PRIMES[k] ** r),
        ",",
        False,
    ),
}


def test_counts_match_composition_oracle():
    for n in range(17):
        expected = sorted(partitions_by_compositions(n), reverse=True)
        assert partitions_of(n) == expected


def test_growth_oracle_matches_compositions_and_pentagonal_counts():
    for n in range(13):
        assert partitions_by_growth(n) == partitions_by_compositions(n)
    for n in range(31):
        assert len(partitions_by_growth(n)) == partition_count(n)


@pytest.mark.parametrize("mode", _WALK_MODES)
def test_walk_matches_the_growth_oracle(mode):
    # keys, order and values for every n <= 30, n = 0..3 included, where the
    # finished tails of 2s and 1s are the whole partition
    run, sep, prepend = _WALK_MODES[mode]
    for n in range(31):
        expected = []
        for partition in sorted(partitions_by_growth(n), reverse=True):
            runs = [run(k, len(list(group))) for k, group in groupby(partition)]
            texts = [text for text, _ in runs][:: -1 if prepend else 1]
            key = texts[0] if texts else sep[:0]
            for text in texts[1:]:
                key = key + sep + text
            expected.append((key, prod(value for _, value in runs)))
        assert list(walk_runs(n, run, sep, prepend).items()) == expected, n


def test_walks_are_capped_at_max_weight():
    # HP^26 (p(26) = 2436) is the largest table a benchmark workload builds
    assert MAX_WEIGHT >= 26
    assert partition_count(MAX_WEIGHT) == 89134
    assert len(partitions_of(MAX_WEIGHT)) == partition_count(MAX_WEIGHT)
    run, sep, _ = _WALK_MODES["append-str"]
    assert len(walk_runs(MAX_WEIGHT, run, sep)) == partition_count(MAX_WEIGHT)
    with pytest.raises(TooLargeError):
        partitions_of(MAX_WEIGHT + 1)
    with pytest.raises(TooLargeError):
        stiefel_whitney_numbers(sphere(MAX_WEIGHT + 1))


def test_count_sequence():
    counts = [len(partitions_of(n)) for n in range(10)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_partitions_of_four_in_order():
    assert partitions_of(4) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_enumeration_is_lexicographically_decreasing():
    for n in range(1, 11):
        ps = partitions_of(n)
        assert all(ps[i] > ps[i + 1] for i in range(len(ps) - 1))
        assert all(sum(p) == n for p in ps)


def test_partition_of_zero_is_empty():
    assert partitions_of(0) == [()]


def test_negative_weight_rejected():
    with pytest.raises(SymcharError):
        partitions_of(-1)


def test_format_parse_round_trip():
    for n in range(11):
        for p in partitions_of(n):
            text = format_partition(p)
            assert parse_partition(text) == p
            assert parse_partition(f"({text})") == p
    assert format_partition(()) == ""
    assert parse_partition(" ( 2 , 2 ) ") == (2, 2)


def test_parse_partition_rejects_garbage():
    for bad in ["2,x", "0", "2,0", "-1", "1,2", "2,,2"]:
        with pytest.raises(SymcharError):
            parse_partition(bad)


def test_monomials_in_bijection_with_partitions():
    for n in range(1, 10):
        keys = _sw_keys(n)
        assert len(keys) == len(set(keys)) == partition_count(n)
        assert set(keys) == {sw_key(p) for p in partitions_decreasing(n)}


def test_degree_three_monomials():
    assert set(_sw_keys(3)) == {"w3", "w1 w2", "w1^3"}


def test_degree_four_monomials():
    assert set(_sw_keys(4)) == {
        "w4",
        "w1 w3",
        "w2^2",
        "w1^2 w2",
        "w1^4",
    }


def test_degree_one_monomial():
    assert _sw_keys(1) == ["w1"]


def _read_back(key):
    table = CharNumberTable.from_json_dict({key: 1})
    assert table.kind == SW
    return (*table.entries, table.dimension)


def test_monomial_format_parse_round_trip():
    for n in range(1, 10):
        for key in _sw_keys(n):
            assert _read_back(key) == (key, n)
    assert parse_monomial("w3 w1 w1") == parse_monomial("w1^2 w3") == ((1, 2), (3, 1))
    assert _read_back(" w3 w1 w1") == ("w1^2 w3", 5)


def test_parse_monomial_rejects_garbage():
    for bad in ["", "v2", "w0", "w2^0", "w-1", "w2^"]:
        with pytest.raises(SymcharError):
            parse_monomial(bad)
