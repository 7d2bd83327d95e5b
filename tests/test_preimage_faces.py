"""Preimages of cones under a compatible map are faces read off the rays.

A compatible f sends each maximal source cone sigma into a target cone, so
for a target cone tau, sigma ∩ f^-1(tau) is the face of sigma spanned by
its rays mapping into tau, and f(sigma) ∩ tau is spanned by their images
(Cox-Little-Schenck, Lemma 1.2.13).  ``relative_mld`` and
``generic_fiber_fan`` rely on this.  The properties here pin the lemma
against the double description (cones.intersect) and compare both callers
with the code they replaced: helpers.reference_generic_fiber_fan (every
face of every cone) and helpers.reference_relative_mld (DD cuts).
"""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    a1,
    a2,
    a3,
    blowup_p2,
    cones_of,
    outcome,
    p1,
    p112,
    p2,
    product_fan,
    random_gl,
    random_half_plane_fibration,
    reference_generic_fiber_fan,
    reference_relative_mld,
    to_a1,
    twist_fan,
    unimodular_inverse,
)
from toricmld.bounds import example_family
from toricmld.cones import contains, hrep, intersect
from toricmld.divisors import boundary_divisor, divisor
from toricmld.fibration import Exact, _pullback, generic_fiber_fan, morphism, relative_mld
from toricmld.intlinalg import identity, is_zero, mat_mul
from toricmld.singularities import MINUS_INFINITY

KINDS = ("half_plane", "product", "family", "orthant", "projection")


def random_morphism(rng, kind):
    """A compatible morphism of the given kind, in random GL_n(Z) source
    coordinates (rays U v, matrix M U^-1).  ``orthant`` maps A^2 or A^3 to
    A^1 or A^2 with random values in {0, 1, 2} on the rays, so often no ray
    lies in a nontrivial kernel; ``projection`` maps X x Y onto Y, whose
    cones have dimension up to 2."""
    if kind == "half_plane":
        f = random_half_plane_fibration(rng, rng.randint(0, 1))
    elif kind == "product":
        x = rng.choice([p1, a1, p2, a2, p112, blowup_p2])()
        f = to_a1(product_fan(x, rng.choice([a1, a2])()))
    elif kind == "family":
        f = example_family(rng.randint(1, 3), rng.randint(2, 4)).f
    elif kind == "orthant":
        src = rng.choice([a2, a3])()
        tgt = rng.choice([a1, a2])()
        # src's rays are the unit vectors, so column i is the image of ray i
        matrix = tuple(
            tuple(rng.choice([0, 1, 1, 2]) for _ in range(src.rank)) for _ in range(tgt.rank)
        )
        f = morphism(matrix, src, tgt)
    else:
        x = rng.choice([p1, a1, a2])()
        y = rng.choice([p1, a1, p2, a2, blowup_p2])()
        matrix = tuple((0,) * x.rank + row for row in identity(y.rank))
        f = morphism(matrix, product_fan(x, y), y)
    u = random_gl(rng, f.source.rank)
    return morphism(mat_mul(f.matrix, unimodular_inverse(u)), twist_fan(f.source, u), f.target)


def check_lemma(f):
    """For every nonzero target cone tau and maximal source cone sigma, the
    DD intersections equal the ray filters relative_mld uses."""
    src, nx, nz = f.source, f.source.rank, f.target.rank
    for tau in cones_of(f.target):
        tgens = f.target.cone_gens(tau)
        teq, tineq = hrep(tgens, nz)
        eq_src, ineq_src = _pullback(f, teq), _pullback(f, tineq)
        for c in src.max_cones:
            gens = src.cone_gens(c)
            face = tuple(g for g in gens if contains(tgens, nz, f.apply(g)))
            assert intersect(gens, nx, eq_src, ineq_src) == face
            images = tuple(u for u in map(f.apply, gens) if not is_zero(u))
            img = tuple(sorted({u for u in map(f.apply, face) if not is_zero(u)}))
            assert intersect(images, nz, teq, tineq) == img


def check_relative_mld(rng, f):
    """relative_mld over every nonzero target cone equals the DD reference,
    for a random boundary: some coefficients are 1, so the LP over the
    closed region runs, and half the time some are 5/4, so A is negative at
    a ray.  Rank-4 sources are skipped: there the sublevel scans of both,
    not the preimages, take seconds."""
    if f.source.rank > 3:
        return []
    nums = rng.choice([(0, 1, 1, 2, 3, 4), (0, 1, 2, 3, 4, 4, 5)])
    coeffs = [Fraction(rng.choice(nums), 4) for _ in f.source.rays]
    b = divisor(f.source, coeffs)
    results = []
    for tau in cones_of(f.target):
        eps = rng.choice([Fraction(1, 2), Fraction(1)])
        new = outcome(relative_mld, f, b, tau, eps, radius=3)
        ref = outcome(reference_relative_mld, f, b, tau, eps, radius=3)
        assert new == ref
        assert type(new) is type(ref)
        results.append(new)
    return results


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 2**32))
def test_generic_fiber_fan_matches_face_enumeration(kind, seed):
    f = random_morphism(random.Random(seed), kind)
    assert outcome(generic_fiber_fan, f) == outcome(reference_generic_fiber_fan, f)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 2**32))
def test_preimage_is_the_face_of_rays_over_tau(kind, seed):
    check_lemma(random_morphism(random.Random(seed), kind))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 2**32))
def test_relative_mld_matches_dd_reference(kind, seed):
    rng = random.Random(seed)
    check_relative_mld(rng, random_morphism(rng, kind))


def test_repeated_images_count_once():
    """Two rays of A^3 share the image (1, 0) in A^2.  The point over which
    the fiber LP lifts is the sum of the distinct image generators, (1, 1),
    so the lifted witness over the 2-cone is (0, 1, 1); counting the image
    twice would lift over (2, 1) to (0, 2, 1)."""
    f = morphism(((1, 1, 0), (0, 0, 1)), a3(), a2())
    b = boundary_divisor(f.source)
    res = relative_mld(f, b, (0, 1), Fraction(1, 2))
    assert res == Exact(Fraction(0), (0, 1, 1))
    assert res == reference_relative_mld(f, b, (0, 1), Fraction(1, 2))


def test_preimage_faces_sweep():
    """Fixed seeds through all three checks, each kind in turn.  Among the
    morphisms with a nontrivial kernel some have kernel rays and some have
    none (the generic fiber fan is then empty), and relative_mld reaches
    every outcome."""
    seen = Counter()
    for seed in range(150):
        rng = random.Random(seed)
        f = random_morphism(rng, KINDS[seed % len(KINDS)])
        ref = outcome(reference_generic_fiber_fan, f)
        assert outcome(generic_fiber_fan, f) == ref
        if ref[0]:
            seen["kernel rays" if ref[1].max_cones else "no kernel ray"] += 1
        check_lemma(f)
        for res in check_relative_mld(rng, f):
            if isinstance(res, Exact) and res.value is MINUS_INFINITY:
                seen["minus infinity"] += 1
            else:
                seen[type(res).__name__] += 1
    assert seen["kernel rays"] >= 20
    assert seen["no kernel ray"] >= 3
    for name in ("Exact", "minus infinity", "CertifiedAtLeast", "Witness", "Indeterminate"):
        assert seen[name] >= 3, name
