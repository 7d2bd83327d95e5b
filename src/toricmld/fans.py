"""Rational polyhedral fans: validation, location, completeness, star
subdivision and quotient fans.

A Fan stores the lattice rank, the primitive ray generators (sorted, so a
fan has one canonical presentation) and the maximal cones as ray-index
tuples.  Faces are never stored; they are recovered through the cone
toolkit on demand.

``validate_fan`` works from each maximal cone's own cached H-representation.
A cone with independent generators (as many as the dimension of their span,
read off the H-representation's equations) is pointed with every ray
extreme and needs no further test; other cones are tested for a line and for
generators lying in the cone of the others.  Two cones meet in a common face
iff some functional that is >= 0 on one and <= 0 on the other cuts both in
the same face (the separation lemma); facet normals of the two cones and
their differences are tried as that functional.  The values of each pointed
cone's facet normals on every ray of the fan are computed once per
validation, and each candidate's values on a pair's extreme rays are read
off them (a difference's as a difference of values).  Only a pair none of
them certifies takes the H-representation of cone(σ_a ∪ -σ_b), which
decides it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from operator import add

from . import cones
from .errors import (
    NonSimplicialCone,
    NotARay,
    OutsideSupport,
    QuotientNotAFan,
    ValidationError,
)
from .intlinalg import (
    Mat,
    Vec,
    content,
    dot,
    is_zero,
    mat_vec,
    quotient_projection,
    rank,
)


@dataclass(frozen=True)
class Fan:
    rank: int
    rays: tuple[Vec, ...]
    max_cones: tuple[tuple[int, ...], ...]

    def cone_gens(self, cone: tuple[int, ...]) -> tuple[Vec, ...]:
        return tuple(self.rays[i] for i in cone)


def point_fan() -> Fan:
    """The fan of a point (lattice rank 0)."""
    return Fan(rank=0, rays=(), max_cones=((),))


def fan(rank: int, rays, max_cones, check: bool = True) -> Fan:
    """Build a Fan in canonical form (rays sorted, cone indices remapped)."""
    rays = tuple(tuple(int(x) for x in r) for r in rays)
    order = sorted(range(len(rays)), key=lambda i: rays[i])
    sorted_rays = tuple(rays[i] for i in order)
    remap = {old: new for new, old in enumerate(order)}
    cones_out = sorted({tuple(sorted(remap[i] for i in set(cone))) for cone in max_cones})
    f = Fan(rank=rank, rays=sorted_rays, max_cones=tuple(cones_out))
    if check:
        violations = validate_fan(f)
        if violations:
            raise ValidationError(violations)
    return f


def validate_fan(f: Fan) -> tuple[tuple[str, str], ...]:
    """All fan-axiom violations, empty when the fan is valid."""
    out = []
    if f.rank < 0:
        return (("BadRank", f"rank {f.rank}"),)
    if f.rank == 0:
        if f.rays or any(c != () for c in f.max_cones):
            out.append(("BadRank", "a rank-0 fan has no rays"))
        return tuple(out)
    for i, r in enumerate(f.rays):
        if len(r) != f.rank:
            out.append(("BadDimension", f"ray {i} has length {len(r)}"))
            return tuple(out)
        if is_zero(r):
            out.append(("ZeroRay", f"ray {i}"))
        elif content(r) != 1:
            out.append(("NonPrimitiveRay", f"ray {i} = {r}"))
    seen = {}
    for i, r in enumerate(f.rays):
        if r in seen:
            out.append(("DuplicateRay", f"rays {seen[r]} and {i}"))
        seen[r] = i
    used = set()
    for cone in f.max_cones:
        for i in cone:
            if not 0 <= i < len(f.rays):
                out.append(("BadIndex", f"cone {cone} references ray {i}"))
                return tuple(out)
            used.add(i)
    if used != set(range(len(f.rays))):
        missing = sorted(set(range(len(f.rays))) - used)
        out.append(("UnusedRay", f"rays {missing} belong to no cone"))
    if out:
        return tuple(out)

    pointed = {}
    extreme = {}
    for cone in f.max_cones:
        gens = f.cone_gens(cone)
        if len(gens) + len(cones.hrep(gens, f.rank)[0]) == f.rank:
            # independent generators: the cone is pointed, every ray extreme
            pointed[cone] = True
            extreme[cone] = list(cone)
            continue
        pointed[cone] = cones.is_pointed(gens, f.rank)
        if not pointed[cone]:
            out.append(("NotPointed", f"cone {cone} contains a line"))
            continue
        extreme[cone] = []
        for i in cone:
            others = tuple(f.rays[j] for j in cone if j != i)
            if others and cones.contains(others, f.rank, f.rays[i]):
                out.append(("RedundantGenerator", f"ray {i} is not extreme in cone {cone}"))
            else:
                extreme[cone].append(i)
    ok_cones = [c for c in f.max_cones if pointed[c] and c]
    values = {
        c: [tuple(dot(m, r) for r in f.rays) for m in cones.hrep(f.cone_gens(c), f.rank)[1]]
        for c in ok_cones
    }
    for a in range(len(ok_cones)):
        for b in range(a + 1, len(ok_cones)):
            if not _meet_in_common_face(f, ok_cones[a], ok_cones[b], extreme, values):
                out.append(("BadIntersection", f"cones {ok_cones[a]} and {ok_cones[b]}"))
    return tuple(out)


def _meet_in_common_face(
    f: Fan, ca: tuple[int, ...], cb: tuple[int, ...], extreme, values
) -> bool:
    """Whether σ_a ∩ σ_b is a face of each, by the separation lemma
    (Cox–Little–Schenck, Lemma 1.2.13): it is iff some functional m with
    m >= 0 on σ_a and m <= 0 on σ_b cuts both in the same face.

    Certificates are tried first, read off the cones' own cached
    H-representations: the facet normals m_a of σ_a, the negated facet
    normals -m_b of σ_b and the differences m_a - m_b.  values[c] holds the
    values of c's facet normals on every ray of the fan, computed once per
    validation, so a candidate's values on the pair's extreme rays are read
    off those rows (those of m_a - m_b as differences of rows) and no
    candidate is built.  One that passes ``_separates_in_common_face``
    proves the pair valid.  A pair that none of them certifies (every
    invalid pair, and a valid pair whose separating functionals are none of
    these) goes to the exact test: m0, the sum of the facet normals of
    cone(σ_a ∪ -σ_b), lies in the relative interior of the functionals >= 0
    on σ_a and <= 0 on σ_b, so its hyperplane cuts each cone in the
    smallest face any such functional cuts, and the faces agree iff the
    cones meet in a common face.
    """
    ea, eb = extreme[ca], extreme[cb]
    rows_a = [([row[i] for i in ea], [row[i] for i in eb]) for row in values[ca]]
    rows_b = [([-row[i] for i in ea], [-row[i] for i in eb]) for row in values[cb]]
    candidates = chain(
        rows_a,
        rows_b,
        (
            (list(map(add, xa, ya)), list(map(add, xb, yb)))
            for (xa, xb), (ya, yb) in product(rows_a, rows_b)
        ),
    )
    if any(_separates_in_common_face(ea, eb, va, vb) for va, vb in candidates):
        return True
    k = f.cone_gens(ca) + tuple(tuple(-x for x in g) for g in f.cone_gens(cb))
    _, ineqs = cones.hrep(k, f.rank)
    m0 = tuple(sum(col) for col in zip(*ineqs)) if ineqs else (0,) * f.rank
    va = [dot(m0, f.rays[i]) for i in ea]
    vb = [dot(m0, f.rays[i]) for i in eb]
    return _separates_in_common_face(ea, eb, va, vb)


def _separates_in_common_face(ea, eb, va, vb) -> bool:
    """Given a functional m's values va on the extreme rays ea of σ_a and
    vb on those eb of σ_b (by ray index): m >= 0 on σ_a, m <= 0 on σ_b and
    σ_a ∩ m⊥ = σ_b ∩ m⊥; then σ_a ∩ σ_b is that face, since m vanishes on
    every common point.

    A pointed cone is spanned by its extreme rays and a face by the extreme
    rays lying in it; the rays are distinct, so the two faces are compared
    by index.
    """
    if min(va, default=0) < 0 or max(vb, default=0) > 0:
        return False
    return {i for i, v in zip(ea, va) if not v} == {i for i, v in zip(eb, vb) if not v}


def support_contains(f: Fan, v) -> bool:
    if f.rank == 0:
        return True
    return any(cones.contains(f.cone_gens(c), f.rank, v) for c in f.max_cones)


@dataclass(frozen=True)
class Located:
    cone: tuple[int, ...]
    simplicial: bool
    _coeffs: tuple | None

    @property
    def coefficients(self):
        if not self.simplicial:
            raise NonSimplicialCone("barycentric coefficients need a simplicial cone")
        return self._coeffs


def locate(f: Fan, v) -> Located | None:
    """Minimal cone of the fan whose relative interior holds v, or None."""
    if f.rank == 0 or is_zero(v):
        return Located(cone=(), simplicial=True, _coeffs=())
    for c in f.max_cones:
        gens = f.cone_gens(c)
        if not cones.contains(gens, f.rank, v):
            continue
        _, ineqs = cones.hrep(gens, f.rank)
        tight = [m for m in ineqs if dot(m, v) == 0]
        face = tuple(i for i in c if all(dot(m, f.rays[i]) == 0 for m in tight))
        fgens = f.cone_gens(face)
        simp = rank(fgens) == len(fgens)
        coeffs = cones.barycentric(fgens, v) if simp else None
        return Located(cone=face, simplicial=simp, _coeffs=coeffs)
    return None


def is_cone_of(f: Fan, idxs: tuple[int, ...]) -> bool:
    """True when the given ray indices span a face of some maximal cone."""
    idxs = tuple(sorted(set(idxs)))
    if idxs == ():
        return True
    if any(not 0 <= i < len(f.rays) for i in idxs):
        return False
    for c in f.max_cones:
        if not set(idxs) <= set(c):
            continue
        gens = f.cone_gens(c)
        _, ineqs = cones.hrep(gens, f.rank)
        tight = [m for m in ineqs if all(dot(m, f.rays[i]) == 0 for i in idxs)]
        face = tuple(i for i in c if all(dot(m, f.rays[i]) == 0 for m in tight))
        if face == idxs:
            return True
    return False


@lru_cache(maxsize=1024)
def _walls(f: Fan):
    """Map from wall (facet ray-index tuple) to the maximal cones using it."""
    walls: dict[tuple[int, ...], list] = {}
    for c in f.max_cones:
        gens = f.cone_gens(c)
        _, ineqs = cones.hrep(gens, f.rank)
        for m in ineqs:
            key = tuple(i for i in c if dot(m, f.rays[i]) == 0)
            walls.setdefault(key, []).append(c)
    return walls


def is_complete(f: Fan) -> bool:
    """Support equals the whole space: full-dimensional cones glued along
    walls shared by exactly two cones, with a connected wall graph."""
    if f.rank == 0:
        return bool(f.max_cones)
    if not f.max_cones:
        return False
    for c in f.max_cones:
        if rank(f.cone_gens(c)) != f.rank:
            return False
    walls = _walls(f)
    if any(len(cs) != 2 for cs in walls.values()):
        return False
    adj = {c: set() for c in f.max_cones}
    for ca, cb in walls.values():
        adj[ca].add(cb)
        adj[cb].add(ca)
    seen = set()
    stack = [f.max_cones[0]]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        stack.extend(adj[c] - seen)
    return len(seen) == len(f.max_cones)


def star_subdivision(f: Fan, v: Vec) -> Fan:
    """Refine the fan by inserting the ray through v (a no-op if present)."""
    v = tuple(int(x) for x in v)
    if is_zero(v) or content(v) != 1:
        raise NotARay(f"{v} is not a primitive lattice vector")
    if not support_contains(f, v):
        raise OutsideSupport(f"{v} lies outside the fan support")
    if v in f.rays:
        return f
    new_index = len(f.rays)
    new_cones = []
    for c in f.max_cones:
        gens = f.cone_gens(c)
        if not cones.contains(gens, f.rank, v):
            new_cones.append(c)
            continue
        if rank(gens) != len(gens):
            raise NonSimplicialCone(f"cannot star-subdivide non-simplicial cone {c}")
        coeffs = cones.barycentric(gens, v)
        for k, t in enumerate(coeffs):
            if t > 0:
                new_cones.append(tuple(j for j in c if j != c[k]) + (new_index,))
    return fan(f.rank, f.rays + (v,), new_cones)


def quotient_fan(f: Fan, v: Vec) -> tuple[Mat, Fan]:
    """Quotient by the ray through v: coordinates on N/Zv and the image fan
    of the cones containing v."""
    v = tuple(int(x) for x in v)
    if v not in f.rays:
        raise NotARay(f"{v} is not a ray of the fan")
    proj = quotient_projection(v)
    ray_idx = f.rays.index(v)
    star = [c for c in f.max_cones if ray_idx in c]
    if f.rank == 1:
        return proj, point_fan()
    image_cones = []
    for c in star:
        imgs = tuple(mat_vec(proj, g) for g in f.cone_gens(c))
        imgs = tuple(g for g in imgs if not is_zero(g))
        if imgs and not cones.is_pointed(imgs, f.rank - 1):
            raise QuotientNotAFan(f"image of cone {c} contains a line")
        image_cones.append(cones.extreme_rays(imgs, f.rank - 1))
    ray_set = sorted({r for ic in image_cones for r in ic})
    index = {r: i for i, r in enumerate(ray_set)}
    try:
        out = fan(f.rank - 1, ray_set, [tuple(index[r] for r in ic) for ic in image_cones])
    except ValidationError as exc:
        raise QuotientNotAFan(str(exc)) from exc
    return proj, out
