"""Print the sha256 of a seeded stream of random simulations.

Usage: ``PYTHONPATH=src python tests/simulation_stream.py [DRAWS]``.  Each
of DRAWS draws (default 20,000) from ``random.Random(11)`` takes two random
quasi-orders of at most 5 points and a random simulation between them; the
digest covers the sorted pairs of every simulation.  A seeded stream must
give one digest whatever ``PYTHONHASHSEED`` is.
"""

import hashlib
import random
import sys

from ordkit.generators import random_quasi_order, random_simulation


def stream_digest(draws: int) -> str:
    rng = random.Random(11)
    digest = hashlib.sha256()
    for _ in range(draws):
        x = random_quasi_order(rng, 5)
        y = random_quasi_order(rng, 5)
        sim = random_simulation(rng, x, y)
        digest.update(repr(sorted(sim.pairs)).encode() + b"\n")
    return digest.hexdigest()


if __name__ == "__main__":
    print(stream_digest(int(sys.argv[1]) if len(sys.argv) > 1 else 20_000))
