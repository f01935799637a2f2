"""One Hypothesis profile for the whole suite: every property test draws the
same examples on every run, has no deadline and keeps no example database.
The strategies shared by several test modules live here too."""

from fractions import Fraction

from hypothesis import settings, strategies as st

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@st.composite
def mass_action_files(draw, names=()):
    '''A model file of 2-4 species whose right-hand sides are those of
    mass-action reactions with monomial rates, inflows and outflows, one
    rate constant each. With names, a drawn subset of the species and rate
    constants takes those names instead of x1, x2, ... and k1, k2, ..., and
    the file gets a values: section for a drawn subset of the constants.'''
    species = [f"x{i}" for i in range(1, draw(st.integers(2, 4)) + 1)]
    side = st.dictionaries(st.sampled_from(species), st.integers(1, 2), max_size=2)
    reactions = draw(st.lists(st.tuples(side, side), min_size=1, max_size=5))
    reactions += [({}, {v: 1}) for v in draw(st.lists(st.sampled_from(species), unique=True))]
    reactions += [({v: 1}, {}) for v in draw(st.lists(st.sampled_from(species), unique=True))]
    params = [f"k{j}" for j in range(1, len(reactions) + 1)]
    values = ""
    if names:
        chosen = draw(st.lists(st.sampled_from(species + params), unique=True,
                               max_size=len(names)))
        rename = dict(zip(chosen, draw(st.permutations(names))))
        species = [rename.get(v, v) for v in species]
        reactions = [tuple({rename.get(v, v): e for v, e in s.items()} for s in r)
                     for r in reactions]
        params = [rename.get(k, k) for k in params]
        values = "values:\n" + "".join(
            f"    {k} = {draw(st.integers(-9, 9))}/{draw(st.integers(1, 4))}\n"
            for k in draw(st.lists(st.sampled_from(params), unique=True)))
    terms: dict = {v: [] for v in species}
    for k, (lhs, rhs) in zip(params, reactions):
        rate = "*".join([k] + [v if e == 1 else f"{v}^{e}" for v, e in sorted(lhs.items())])
        for v in species:
            c = rhs.get(v, 0) - lhs.get(v, 0)
            if c:
                terms[v].append(("- " if c < 0 else "+ ") + (rate if abs(c) == 1 else f"{abs(c)}*{rate}"))
    eqs = "".join(f"    {v}' = " + (" ".join(t).removeprefix("+ ") if t else "0") + "\n"
                  for v, t in terms.items())
    return (f"model ma\nvariables: {' '.join(species)}\nparameters: {' '.join(params)}\n"
            f"equations:\n{eqs}{values}")


def kept(inst, fact) -> list:
    '''The keys that an Instance (or a Model) keeps under fact, each
    without its first item, in the order they were kept.'''
    return [key[1:] for key in inst._cache if isinstance(key, tuple) and key[0] == fact]


@st.composite
def positive_points(draw, parameters):
    '''A value p/q, p in 1..9 and q in 1..4, for each of the parameters.'''
    return {k: Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4))) for k in parameters}
