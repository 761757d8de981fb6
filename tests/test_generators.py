import random

from ordkit.generators import (
    all_preorder_rows,
    all_systems,
    quasi_orders_up_to_iso,
    random_quasi_order,
    random_system,
)

from .oracles import iso_classes_reference


def test_preorder_counts_match_known_sequences():
    # reflexive transitive relations on n labeled points, n = 0..4
    for n, expect in enumerate([1, 1, 4, 29, 355]):
        assert sum(1 for _ in all_preorder_rows(n)) == expect
    # and up to relabeling (OEIS A001930)
    for n, expect in enumerate([1, 1, 3, 9, 33, 139]):
        assert len(quasi_orders_up_to_iso(n)) == expect


def test_iso_classes_match_the_keyed_reference():
    # the first order of each class, in enumeration order
    for n in range(6):
        assert [q.up for q in quasi_orders_up_to_iso(n)] == iso_classes_reference(n)


def test_all_preorders_are_closed():
    for rows in all_preorder_rows(4):
        for i, row in enumerate(rows):
            assert row >> i & 1
            bits = row
            while bits:
                b = bits & -bits
                bits ^= b
                assert rows[b.bit_length() - 1] & ~row == 0


def test_system_count():
    assert sum(1 for _ in all_systems(2)) == 16


def test_seeded_generators_are_deterministic():
    first = [random_quasi_order(random.Random(9), 5) for _ in range(5)]
    second = [random_quasi_order(random.Random(9), 5) for _ in range(5)]
    assert first == second
    a = random_system(random.Random(11), 4, 6)
    b = random_system(random.Random(11), 4, 6)
    assert a == b
