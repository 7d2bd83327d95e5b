"""Properness by wall gluing (fibration._is_proper).

The differential property compares _is_proper with the double-description
test it replaced (helpers.reference_is_proper, built on cones.covered_by)
over compatible morphisms of five kinds; the plain tests run the inputs on
which the double description blew up.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    a1,
    a2,
    a3,
    blowup_p2,
    p1,
    p112,
    p2,
    p3,
    product_fan,
    random_gl,
    random_support_point,
    reference_is_proper,
    twist_fan,
    unimodular_inverse,
)
from toricmld.bounds import example_family
from toricmld.fans import Fan, fan, point_fan, star_subdivision
from toricmld.fibration import (
    ToricMorphism,
    _compatible,
    _is_proper,
    morphism,
    validate_morphism,
)
from toricmld.intlinalg import identity, mat_mul
from toricmld.mfs import factor_mfs

KINDS = ("refinement", "projection", "rank_deficient", "point_target", "low_dim_target")


def _ray_and_cone() -> Fan:
    """A rank-2 fan whose maximal cones are a quadrant and a ray."""
    return fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (2,)])


def _subdivide(rng, f: Fan, times: int) -> Fan:
    for _ in range(times):
        f = star_subdivision(f, random_support_point(rng, f))
    return f


def _seed_fan(rng) -> Fan:
    """One of the fixture fans of rank 1-3, complete or not, after up to two
    star subdivisions."""
    seeds = [p1, a1, p2, p112, a2, blowup_p2, p3, a3]
    seeds += [lambda: product_fan(p2(), a1()), lambda: product_fan(p1(), a2())]
    return _subdivide(rng, rng.choice(seeds)(), rng.randint(0, 2))


def _source_and_matrix(rng, kind):
    """(source, target, matrix) of one kind; the source may be incomplete."""
    if kind == "refinement":
        tgt = rng.choice([p1, a1, p2, p112, a2, blowup_p2, p3, a3])()
        scale = rng.choice([1, 1, 2])
        return _subdivide(rng, tgt, rng.randint(0, 2)), tgt, tuple(
            tuple(scale * x for x in row) for row in identity(tgt.rank)
        )
    if kind == "projection":
        x = rng.choice([p1, a1, p2, a2, blowup_p2])()
        y = rng.choice([p1, a1])()
        row = (0,) * x.rank + (1,)
        return product_fan(x, y), y, (row,)
    if kind == "rank_deficient":
        tgt = rng.choice([p2, p112, blowup_p2, p3])()
        v = tuple(rng.randint(-2, 2) for _ in range(tgt.rank))
        if not any(v):
            v = (1,) + (0,) * (tgt.rank - 1)
        if rng.random() < 0.5:
            return rng.choice([p1, a1])(), tgt, tuple((c,) for c in v)
        src = product_fan(rng.choice([p1, a1])(), rng.choice([p1, a1, p2])())
        return src, tgt, tuple((c,) + (0,) * (src.rank - 1) for c in v)
    if kind == "point_target":
        return _seed_fan(rng), point_fan(), ()
    tgt = _ray_and_cone()
    branch = rng.randrange(3)
    if branch == 0:
        sub = star_subdivision(tgt, rng.choice([(1, 1), (1, 2), (2, 1)]))
        return sub, tgt, identity(2)
    if branch == 1:
        return rng.choice([p1, a1])(), tgt, ((1,), (1,))
    src = product_fan(rng.choice([p1, a1])(), star_subdivision(tgt, (1, 1)))
    return src, tgt, ((0, 1, 0), (0, 0, 1))


def random_case(rng, kind) -> ToricMorphism:
    """A compatible morphism of the given kind, with a source of rank at most
    2 in random coordinates (the reference's double description can blow up
    on rank 3 in random coordinates) and, half the time, some source maximal
    cones dropped."""
    src, tgt, matrix = _source_and_matrix(rng, kind)
    if 0 < src.rank <= 2:
        u = random_gl(rng, src.rank)
        src = twist_fan(src, u)
        if matrix:
            matrix = mat_mul(matrix, unimodular_inverse(u))
    if len(src.max_cones) > 1 and rng.random() < 0.5:
        keep = rng.sample(src.max_cones, rng.randint(1, len(src.max_cones) - 1))
        src = Fan(src.rank, src.rays, tuple(sorted(keep)))
    f = ToricMorphism(tuple(tuple(row) for row in matrix), src, tgt)
    assert _compatible(f)
    return f


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 2**32))
def test_matches_double_description_reference(kind, seed):
    f = random_case(random.Random(seed), kind)
    assert _is_proper(f) == reference_is_proper(f)


def test_every_kind_meets_both_outcomes():
    """Over fixed seeds each kind gives proper and non-proper morphisms, and
    the two tests agree on all of them."""
    rng = random.Random(7)
    seen = Counter()
    for _ in range(60):
        for kind in KINDS:
            f = random_case(rng, kind)
            got = _is_proper(f)
            assert got == reference_is_proper(f)
            seen[kind, got] += 1
    for kind in KINDS:
        assert seen[kind, True] >= 3 and seen[kind, False] >= 3, seen


def test_lower_dimensional_target_cone():
    tgt = _ray_and_cone()
    assert _is_proper(morphism(((1,), (1,)), p1(), tgt))
    assert not _is_proper(morphism(((1,), (1,)), a1(), tgt))
    sub = star_subdivision(tgt, (1, 1))
    assert _is_proper(morphism(identity(2), sub, tgt))
    ray_only = Fan(2, sub.rays, tuple(c for c in sub.max_cones if len(c) == 2))
    assert not _is_proper(morphism(identity(2), ray_only, tgt, check=False))


# Inputs the double description could not finish (perfbench/excluded.json);
# no wall-clock assertion.


def test_example_family_rank_four():
    inst = example_family(4, 2)
    diag = validate_morphism(inst.f)
    assert diag.compatible and diag.is_contraction and diag.is_proper
    assert diag.relative_dimension == 4


def test_factor_mfs_rank_three_family():
    inst = example_family(3, 2)
    res = factor_mfs(inst.f)
    assert 0 < res.a_e <= 3
    assert res.g.target.rank == 3
    assert mat_mul(res.h.matrix, res.g.matrix) == inst.f.matrix
    assert validate_morphism(res.h).relative_dimension == 2


def test_rank_three_family_after_change_of_coordinates():
    inst = example_family(3, 2)
    rng = random.Random(3)
    for _ in range(3):
        u = random_gl(rng, inst.x.rank)
        src = twist_fan(inst.x, u)
        f = morphism(mat_mul(inst.f.matrix, unimodular_inverse(u)), src, inst.z)
        assert validate_morphism(f) == validate_morphism(inst.f)
    bad = Fan(inst.x.rank, inst.x.rays, inst.x.max_cones[1:])
    assert not validate_morphism(morphism(inst.f.matrix, bad, inst.z, check=False)).is_proper
