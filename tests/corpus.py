"""Seeded random presentations shared by property and acceptance tests."""

from oihilbert.oicore import Monomial, ModulePresentation


def random_monomial(rng, c, width, d, summand=0, max_deg=3):
    pi = tuple(sorted(rng.sample(range(1, width + 1), d)))
    cols = [[0] * c for _ in range(width)]
    for _ in range(rng.randint(0, max_deg)):
        cols[rng.randrange(width)][rng.randrange(c)] += 1
    return Monomial(c, width, cols, pi, summand)


def random_presentation(rng, max_summands=2, max_gens=3, max_width=3,
                        max_deg=3, shifts=(0, 1, 2)):
    c = rng.randint(1, 2)
    summands = tuple((rng.randint(0, 2), rng.choice(shifts))
                     for _ in range(rng.randint(1, max_summands)))
    gens = []
    for _ in range(rng.randint(0, max_gens)):
        idx = rng.randrange(len(summands))
        d = summands[idx][0]
        width = rng.randint(max(d, 1), max_width)
        gens.append(random_monomial(rng, c, width, d, idx, max_deg))
    return ModulePresentation(c, summands, gens)


def random_single_summand(rng, max_d=2, max_gens=3, max_width=3, max_deg=3):
    """Unshifted single-summand presentation, as the decomposition needs."""
    c = rng.randint(1, 2)
    d = rng.randint(0, max_d)
    gens = []
    for _ in range(rng.randint(0, max_gens)):
        width = rng.randint(max(d, 1), max_width)
        gens.append(random_monomial(rng, c, width, d, 0, max_deg))
    return ModulePresentation(c, [(d, 0)], gens)


def decompose_cases(rng, count=30):
    """(presentation, exponent vectors) pairs for the decomposition: a
    single-summand presentation each, at the zero, all-ones and a random
    first-column exponent vector."""
    for _ in range(count):
        p = random_single_summand(rng, max_gens=4, max_width=4)
        yield p, [(0,) * p.c, (1,) * p.c,
                  tuple(rng.randint(0, 3) for _ in range(p.c))]


def random_ideal(rng, c=None, max_gens=3, max_width=3, max_deg=3,
                 category="OI"):
    if c is None:
        c = rng.randint(1, 2)
    gens = [random_monomial(rng, c, rng.randint(1, max_width), 0, 0, max_deg)
            for _ in range(rng.randint(0, max_gens))]
    return ModulePresentation(c, [(0, 0)], gens, category)
