"""Acceptance suite: one test per shipping criterion.

Each test prints one line, ACCEPTANCE <n> [<name>]: PASS/FAIL, and fails
if it exceeds its time budget.  Run with -s to see the lines:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from contextlib import contextmanager
from math import lcm
from pathlib import Path

import pytest

from _oracles import (
    gl_count_enumerated,
    partitions_decreasing,
    smallest_degree_divisors,
    smallest_degree_scan,
    total_pontrjagin_plain,
    total_stiefel_whitney_plain,
)
from symchar.catalog import (
    SpaceSpec,
    VERDICT_EQUAL_RANK,
    VERDICT_PARALLELIZABLE,
    VERDICT_RANK_GAP,
    classify,
)
from symchar.charclass import (
    BOUNDS,
    CharNumberTable,
    DOES_NOT_BOUND,
    PONTRJAGIN,
    bounds_orientably,
    cayley_plane,
    complex_projective,
    pontrjagin_numbers,
    quaternionic_projective,
    sphere,
    stiefel_whitney_numbers,
    total_pontrjagin,
    total_stiefel_whitney,
)
from symchar import cli
from symchar.errors import UnsupportedClassError
from symchar.partitions import format_partition
from symchar.transfer import gl_order, mu, solve_manifold_numbers


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"ACCEPTANCE {number} [{name}]: FAIL (took {elapsed:.2f}s)")
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )
    print(f"ACCEPTANCE {number} [{name}]: PASS ({elapsed:.2f}s)")


def test_acceptance_1_cayley_plane_goldens():
    with criterion(1, "cayley-plane goldens", 1.0):
        total = total_pontrjagin(cayley_plane())
        assert total.coefficients == (1, 6, 39)
        table = pontrjagin_numbers(cayley_plane())
        assert table.entries == {
            "4": 39,
            "3,1": 0,
            "2,2": 36,
            "2,1,1": 0,
            "1,1,1,1": 0,
        }
        assert bounds_orientably(table, None) == DOES_NOT_BOUND
        solved = solve_manifold_numbers(table, 2, 3)
        assert solved.entries["2,2"] == 24 and solved.entries["4"] == 26


def test_acceptance_2_quaternionic_family():
    with criterion(2, "quaternionic projective family", 1.0):
        for n in range(1, 7):
            total = total_pontrjagin(quaternionic_projective(n))
            assert total.coefficients[1] == 2 * n - 2
            table = pontrjagin_numbers(quaternionic_projective(n))
            ones = format_partition((1,) * n)
            assert table.entries[ones] == (2 * n - 2) ** n
        assert total_pontrjagin(quaternionic_projective(2)).coefficients == (1, 2, 7)
        assert total_pontrjagin(quaternionic_projective(3)).coefficients == (1, 4, 12, 8)


def test_acceptance_3_complex_projective_dichotomy():
    with criterion(3, "complex projective dichotomy", 5.0):
        for k in range(1, 5):
            space = complex_projective(2 * k)
            table = pontrjagin_numbers(space)
            assert table.entries and all(v != 0 for v in table.entries.values())
            assert (
                bounds_orientably(table, stiefel_whitney_numbers(space))
                == DOES_NOT_BOUND
            )
        for k in range(5):
            space = complex_projective(2 * k + 1)
            p_table = pontrjagin_numbers(space)
            sw_table = stiefel_whitney_numbers(space)
            assert p_table.all_zero()
            assert sw_table.all_zero()
            assert bounds_orientably(p_table, sw_table) == BOUNDS


def test_acceptance_4_classifier_grid():
    with criterion(4, "rank classifier grid", 5.0):
        equal_rank = []
        rank_gap = []
        for p in range(1, 9):
            for q in range(1, 9):
                equal_rank.append(SpaceSpec("SU_pq", (p, q)))
                equal_rank.append(SpaceSpec("Sp_pq", (p, q)))
                target = rank_gap if (p % 2 and q % 2) else equal_rank
                target.append(SpaceSpec("SO0_pq", (p, q)))
        for n in range(1, 9):
            equal_rank.append(SpaceSpec("Sp_nR", (n,)))
        for n in range(2, 9):
            equal_rank.append(SpaceSpec("SOstar_2n", (n,)))
            rank_gap.append(SpaceSpec("SUstar_2n", (n,)))
        for n in range(3, 9):
            rank_gap.append(SpaceSpec("SL_nR", (n,)))

        for spec in equal_rank:
            cls = classify(spec)
            assert cls.verdict == VERDICT_EQUAL_RANK
            assert cls.toral_rank == 0
            assert cls.euler_char_dual > 0
            assert cls.minvol_positive
            assert cls.dim % 2 == 0
        for spec in rank_gap:
            cls = classify(spec)
            assert cls.verdict == VERDICT_RANK_GAP
            assert cls.toral_rank >= 1
            assert cls.euler_char_dual == 0
            assert not cls.minvol_positive
        for spec in equal_rank + rank_gap:
            cls = classify(spec)
            assert (cls.euler_char_dual > 0) == (cls.toral_rank == 0)
        for d in range(3, 11):
            cls = classify(SpaceSpec("TypeIV", (d,)))
            assert cls.verdict == VERDICT_PARALLELIZABLE
            assert cls.euler_char_dual == 0
            assert not cls.minvol_positive


def test_acceptance_5_mu_oracle_equivalence():
    with criterion(5, "mu against brute-force degree oracle", 30.0):
        rng = random.Random(20260816)
        nonzero = [x for x in range(-50, 51) if x]
        for _ in range(1000):
            dim = rng.choice([4, 8, 12, 16])
            pairs = []
            m_entries, mu_entries = {}, {}
            for partition in partitions_decreasing(dim // 4):
                key = format_partition(partition)
                if rng.random() < 0.3:
                    m_entries[key] = mu_entries[key] = 0
                    continue
                a, b = rng.choice(nonzero), rng.choice(nonzero)
                m_entries[key], mu_entries[key] = a, b
                pairs.append((a, b))
            report = mu(
                CharNumberTable(PONTRJAGIN, dim, m_entries),
                CharNumberTable(PONTRJAGIN, dim, mu_entries),
            )
            assert report.mu == smallest_degree_divisors(pairs)
            bound = 1
            for _, b in pairs:
                bound = lcm(bound, abs(b))
            if bound <= 3000:
                assert report.mu == smallest_degree_scan(pairs)

        # consistent covering/tangential instances: mu divides |deg_f|
        for _ in range(500):
            dim = rng.choice([4, 8, 12, 16])
            deg_f = rng.choice([d for d in range(-12, 13) if d])
            deg_t = rng.choice([d for d in range(-12, 13) if d])
            mu_entries = {}
            for partition in partitions_decreasing(dim // 4):
                key = format_partition(partition)
                x = rng.randint(-4, 4)  # zero allowed: both sides vanish there
                mu_entries[key] = deg_f * x
            dual_table = CharNumberTable(PONTRJAGIN, dim, mu_entries)
            solved = solve_manifold_numbers(dual_table, deg_t, deg_f)
            report = mu(solved, dual_table)
            assert abs(deg_f) % report.mu == 0


def test_acceptance_6_gl_orders_vs_enumeration():
    with criterion(6, "general linear orders vs enumeration", 10.0):
        for q in (2, 3):
            for n in (1, 2, 3):
                assert gl_order(n, q) == gl_count_enumerated(n, q)
        assert gl_order(3, 2) == 168
        assert gl_order(3, 3) == 11232


def test_acceptance_7_total_class_oracle_suite():
    with criterion(7, "total classes against untruncated products", 30.0):
        spaces = [sphere(n) for n in range(1, 49)]
        spaces += [complex_projective(n) for n in range(1, 46)]
        spaces += [quaternionic_projective(n) for n in range(1, 46)]
        spaces += [cayley_plane()]
        for space in spaces:
            cases = [(total_pontrjagin, total_pontrjagin_plain)]
            if space.kind in ("sphere", "complex-projective"):
                cases.append((total_stiefel_whitney, total_stiefel_whitney_plain))
            for package, oracle in cases:
                total = package(space)
                degree, coefficients = oracle(space.kind, space.n)
                assert total.generator_degree == degree, space.render()
                assert total.truncation_top == len(coefficients) - 1
                assert total.truncation_top * degree == space.real_dimension
                assert total.coefficients == tuple(coefficients), space.render()


def test_acceptance_8_low_dimensional_sw_remark():
    with criterion(8, "degree-3 monomials and 3-manifold consequence", 1.0):
        monomials = set(stiefel_whitney_numbers(sphere(3)).entries)
        assert monomials == {"w1^3", "w1 w2", "w3"}
        # orientable closed 3-manifold: w1 = 0 kills the first two
        # monomials, and w3 carries the (even) Euler characteristic mod 2
        sw_table = CharNumberTable("sw", 3, {"w1^3": 0, "w1 w2": 0, "w3": 0})
        vacuous = CharNumberTable(PONTRJAGIN, 3, {}, reason="dimension-not-multiple-of-4")
        assert bounds_orientably(vacuous, sw_table) == BOUNDS


def test_acceptance_9_scope_note():
    with criterion(9, "documented scope boundaries", 1.0):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        assert readme.exists()
        text = readme.read_text(encoding="utf-8")
        assert "Scope" in text
        # the two documented walls: SW classes of HP^n / CayP^2, and
        # characteristic numbers of higher-rank equal-rank duals
        with pytest.raises(UnsupportedClassError):
            stiefel_whitney_numbers(quaternionic_projective(2))
        with pytest.raises(UnsupportedClassError):
            total_stiefel_whitney(cayley_plane())
        args = cli.parse_args(["p-numbers", "SU_pq(2,3)"])
        with pytest.raises(UnsupportedClassError):
            args.handler(args)
