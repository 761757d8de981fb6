import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ordkit
from ordkit import QuasiOrder, is_simulation, leaf
from ordkit.generators import (
    all_preorder_rows,
    all_systems,
    nat_atoms,
    quasi_orders_up_to_iso,
    random_quasi_order,
    random_simulation,
    random_system,
)

from .oracles import (
    is_simulation_reference,
    iso_classes_reference,
    random_simulation_reference,
    simulation_seed_pairs_reference,
)
from .simulation_stream import stream_digest


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


def test_generators_refuse_more_points_than_there_are_atoms():
    # there are ten atoms "0".."9"; asking for more once raised IndexError,
    # or quietly gave ten points (and a 14-row order on 10 elements)
    assert nat_atoms(10) == tuple(map(leaf, "0123456789"))
    with pytest.raises(ValueError, match="not 11"):
        random_system(random.Random(0), 11, 4)
    with pytest.raises(ValueError, match="not 11"):
        random_system(random.Random(1), 11, 4)
    rng = random.Random(0)
    with pytest.raises(ValueError, match="not 14"):
        random_quasi_order(rng, 14)
    assert rng.getstate() == random.Random(0).getstate()
    with pytest.raises(ValueError, match="not -1"):
        nat_atoms(-1)


def _upward(pairs, src):
    """Every (x2, y) with (x, y) in ``pairs`` and x2 above x."""
    return {(x2, y) for x, y in pairs for x2 in src.elements if src.le(x, x2)}


def _seeded_orders(seed):
    rng = random.Random(seed)
    return rng, random_quasi_order(rng, 5), random_quasi_order(rng, 5)


def test_random_simulation_repairs_the_reference_seed_pairs():
    for seed in range(300):
        rng, x, y = _seeded_orders(seed)
        ref = _seeded_orders(seed)[0]
        seeds = simulation_seed_pairs_reference(ref, x, y)
        sim = random_simulation(rng, x, y)
        # the same draws, and a repair that only adds pairs above the seeds
        assert rng.getstate() == ref.getstate()
        assert seeds <= sim.pairs <= _upward(seeds, x)
        assert is_simulation(sim) and is_simulation_reference(sim)
        other = random_simulation_reference(_seeded_orders(seed)[0], x, y)
        assert seeds <= other.pairs <= _upward(seeds, x)
    rng = random.Random(5)
    state = rng.getstate()
    empty = QuasiOrder((), ())
    assert random_simulation(rng, random_quasi_order(random.Random(1), 3), empty).pairs == set()
    assert rng.getstate() == state


def _outputs_under_hash_seeds(*args):
    """The distinct stdouts of ``python *args`` under hash seeds 0 and 1."""
    src = str(Path(ordkit.__file__).parents[1])
    outputs = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(out.stdout)
    return outputs


def test_random_simulation_stream_ignores_the_hash_seed():
    script = Path(__file__).with_name("simulation_stream.py")
    digests = _outputs_under_hash_seeds(str(script), "2000")
    assert len(digests) == 1, digests


def test_random_simulation_stream_digest_is_pinned():
    # recorded at 81662be, before simulations stored rows
    assert stream_digest(2000) == (
        "35cd3b8c4d96f9cc2710df3a9225e9a1f770683a30064a6bb9a0b5e441a13c6e"
    )


def test_random_simulation_repr_ignores_the_hash_seed():
    # the first 20 draws of the stream
    code = (
        "import random\n"
        "from ordkit.generators import random_quasi_order, random_simulation\n"
        "rng = random.Random(11)\n"
        "for _ in range(20):\n"
        "    x, y = random_quasi_order(rng, 5), random_quasi_order(rng, 5)\n"
        "    print(repr(random_simulation(rng, x, y)))\n"
    )
    reprs = _outputs_under_hash_seeds("-c", code)
    assert len(reprs) == 1, reprs
