"""Seeded random substitutions shared by the tests and the CI memory gates.

Stdlib only, besides `subsym`, so that it also imports under `python -S`.
"""

import math
import random

from subsym.substitution import Alphabet, Pattern, RectSubstitution, is_primitive


def random_primitive_bijective(seed):
    """A seeded random primitive bijective rule: d <= 3, n <= 5, sides 2-3."""
    rng = random.Random(seed)
    while True:
        d, n = rng.randint(1, 3), rng.randint(2, 5)
        size = tuple(rng.randint(2, 3) for _ in range(d))
        columns = [rng.sample(range(n), n) for _ in range(math.prod(size))]
        rules = tuple(Pattern((0,) * d, size, bytes(col[a] for col in columns)) for a in range(n))
        theta = RectSubstitution(Alphabet(tuple(map(str, range(n)))), size, rules)
        if is_primitive(theta).primitive:
            return theta
