"""Genus-2 base surface: regular hyperbolic octagon with opposite sides glued.

The fundamental domain is the regular octagon centered at the origin with
all interior angles pi/4 (circumradius R0 with cosh R0 = cot^2(pi/8)).
Each side is identified with the opposite one by the hyperbolic translation
along the common perpendicular through the center; the eight corners fall
into a single vertex class, giving a closed orientable surface with
Euler characteristic -2 and area exactly 4 pi.

Meshes are built by fanning the octagon from its center and subdividing.
Interior edges split at Euclidean midpoints of the disk coordinates (the
stiffness assembly is conformally invariant, so Euclidean combinatorics
suffice); boundary edges split at hyperbolic midpoints so that subdivision
commutes with the side pairings and glued vertices match to round-off.
Per-triangle areas use the exact geodesic angle deficit, so the mesh areas
tile the total area exactly at every refinement level.
"""

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MeshQualityError, TopologyError
from .hyp import (
    DiskPoint,
    MobiusTransform,
    hyperbolic_midpoint,
    pair_distances,
    tri_areas,
)

GLUE_TOL = 1e-9  # spatial tolerance for matching pairing images to vertices
CURVE_SAMPLES = 2049  # default samples of the systole curve


class SidePairing(NamedTuple):
    """Identification of octagon side `source` with side `target`.

    `transform` is the deck transformation mapping the source side
    isometrically onto the target side (reversing its orientation).
    """

    target: int
    source: int
    transform: MobiusTransform


@dataclass(frozen=True)
class FundamentalDomain:
    vertices: tuple  # 8 DiskPoints, counterclockwise
    pairings: tuple  # 4 SidePairings (side k+4 -> side k)
    area: float
    circumradius: float
    in_radius: float


def build_octagon_domain() -> FundamentalDomain:
    """Regular octagon fundamental domain with opposite-side pairings."""
    cot = 1.0 / math.tan(math.pi / 8.0)
    circumradius = math.acosh(cot * cot)  # all corner angles pi/4
    in_radius = math.acosh(cot)
    rho = math.tanh(0.5 * circumradius)
    half_verts = [
        rho * complex(math.cos(k * math.pi / 4.0 - math.pi / 8.0),
                      math.sin(k * math.pi / 4.0 - math.pi / 8.0))
        for k in range(4)
    ]
    verts = half_verts + [-z for z in half_verts]  # v[k+4] = -v[k] exactly
    vertices = tuple(DiskPoint(z.real, z.imag) for z in verts)

    shift = MobiusTransform.x_translation(2.0 * in_radius)
    pairings = []
    for k in range(4):
        rot = MobiusTransform.rotation(k * math.pi / 4.0)
        T = rot.compose(shift).compose(rot.inverse())
        pairings.append(SidePairing(target=k, source=k + 4, transform=T))

    x = np.array([z.real for z in verts] + [0.0])
    y = np.array([z.imag for z in verts] + [0.0])
    fan = np.array([[8, k, (k + 1) % 8] for k in range(8)])
    area = float(np.sum(tri_areas(x, y, fan)))

    return FundamentalDomain(
        vertices=vertices,
        pairings=tuple(pairings),
        area=area,
        circumradius=circumradius,
        in_radius=in_radius,
    )


def generator_translation_lengths(domain: FundamentalDomain) -> list:
    """Translation lengths of the four side-pairing transforms.

    Raises ConstructionError if any pairing is elliptic or parabolic.
    The minimum is the systole of this gluing; half of it serves as the
    injectivity radius proxy.
    """
    return [p.transform.translation_length() for p in domain.pairings]


@dataclass
class SurfaceMesh:
    """Glued triangle mesh of the octagon surface.

    Raw vertices keep their disk coordinates (boundary copies are not
    merged); `rep` maps each raw vertex to its representative index on the
    closed surface.  Lengths and areas are exact hyperbolic quantities of
    the geodesic triangulation.
    """

    xy: np.ndarray            # (n_raw, 2) disk coordinates
    tris: np.ndarray          # (n_tri, 3) raw vertex indices
    rep: np.ndarray           # (n_raw,) representative ids in [0, n_rep)
    n_rep: int
    level: int
    edges: np.ndarray         # (n_edge_raw, 2) raw undirected edges
    edge_len_sigma: np.ndarray
    tri_area_sigma: np.ndarray
    boundary_edge_count: int
    # derived data, one entry per producing module, filled on first use;
    # dataclasses.replace starts it empty
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_raw(self):
        return self.xy.shape[0]

    @property
    def n_tri(self):
        return self.tris.shape[0]

    def euler_characteristic(self) -> int:
        E = self.edges.shape[0] - self.boundary_edge_count // 2
        return self.n_rep - E + self.n_tri

    def total_area_sigma(self) -> float:
        return float(np.sum(self.tri_area_sigma))

    def to_json(self) -> str:
        doc = {
            "version": 1,
            "level": self.level,
            "vertices": self.xy.tolist(),
            "tris": self.tris.tolist(),
            "rep": self.rep.tolist(),
            "edges": self.edges.tolist(),
            "len_sigma": self.edge_len_sigma.tolist(),
            "tri_area_sigma": self.tri_area_sigma.tolist(),
            "boundary_edge_count": int(self.boundary_edge_count),
        }
        return json.dumps(doc)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def build_mesh(domain: FundamentalDomain, level: int) -> SurfaceMesh:
    """Fan-and-subdivide triangulation of the octagon, glued along pairings."""
    if not (0 <= level <= 8):
        raise DomainError(f"refinement level must be in [0, 8], got {level}")

    verts = [0j] + [p.z for p in domain.vertices]
    tris = [(0, 1 + k, 1 + (k + 1) % 8) for k in range(8)]
    boundary_side = {frozenset((1 + k, 1 + (k + 1) % 8)): k for k in range(8)}

    for _ in range(level):
        mid_index = {}
        new_boundary = {}

        def midpoint(i, j):
            key = frozenset((i, j))
            found = mid_index.get(key)
            if found is not None:
                return found
            side = boundary_side.get(key)
            if side is None:
                z = 0.5 * (verts[i] + verts[j])
            else:
                z = hyperbolic_midpoint(verts[i], verts[j])
            verts.append(z)
            idx = len(verts) - 1
            mid_index[key] = idx
            if side is not None:
                new_boundary[frozenset((i, idx))] = side
                new_boundary[frozenset((idx, j))] = side
            return idx

        next_tris = []
        for a, b, c in tris:
            mab = midpoint(a, b)
            mbc = midpoint(b, c)
            mca = midpoint(c, a)
            next_tris.extend(
                [(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)]
            )
        tris = next_tris
        boundary_side = new_boundary

    n = len(verts)
    z_arr = np.array(verts, dtype=complex)
    xy = np.column_stack([z_arr.real, z_arr.imag])
    tris_arr = np.asarray(tris, dtype=np.int64)

    side_members = {k: set() for k in range(8)}
    for e, k in boundary_side.items():
        side_members[k].update(e)

    from scipy.spatial import cKDTree

    uf = _UnionFind(n)
    for pairing in domain.pairings:
        src_ids = sorted(side_members[pairing.source])
        tgt_ids = sorted(side_members[pairing.target])
        images = pairing.transform.apply_many(z_arr[src_ids])
        tree = cKDTree(xy[tgt_ids])
        dist, nearest = tree.query(np.column_stack([images.real, images.imag]))
        if dist.max() > GLUE_TOL:
            raise TopologyError(
                f"pairing {pairing.source}->{pairing.target}: boundary vertex "
                f"image off by {dist.max():.3e} (tolerance {GLUE_TOL})"
            )
        if len(set(nearest.tolist())) != len(src_ids):
            raise TopologyError(
                f"pairing {pairing.source}->{pairing.target} is not a bijection "
                "on boundary vertices"
            )
        for i_src, j in zip(src_ids, nearest):
            uf.union(i_src, tgt_ids[j])

    roots = [uf.find(i) for i in range(n)]
    rep = np.empty(n, dtype=np.int64)
    seen = {}
    for i, r in enumerate(roots):
        if r not in seen:
            seen[r] = len(seen)
        rep[i] = seen[r]

    edge_set = set()
    for a, b, c in tris:
        edge_set.add((min(a, b), max(a, b)))
        edge_set.add((min(b, c), max(b, c)))
        edge_set.add((min(c, a), max(c, a)))
    edges = np.array(sorted(edge_set), dtype=np.int64)

    areas = tri_areas(xy[:, 0], xy[:, 1], tris_arr)
    if not np.all(np.isfinite(areas)) or areas.min() <= 1e-14:
        raise MeshQualityError(
            f"degenerate triangle: min angle-deficit area {areas.min():.3e}"
        )
    lengths = pair_distances(
        xy[edges[:, 0], 0], xy[edges[:, 0], 1], xy[edges[:, 1], 0], xy[edges[:, 1], 1]
    )

    return SurfaceMesh(
        xy=xy,
        tris=tris_arr,
        rep=rep,
        n_rep=len(seen),
        level=level,
        edges=edges,
        edge_len_sigma=lengths,
        tri_area_sigma=areas,
        boundary_edge_count=len(boundary_side),
    )


@dataclass(frozen=True)
class SystoleGeodesic:
    """The closed geodesic along the real axis (axis of the first pairing).

    On the quotient it runs from one side midpoint to the opposite one and
    closes up; its length equals the minimal generator translation length.
    `chart` gives normal (Fermi) coordinates (r, s): r the signed distance
    from the axis, s the position along it, with s in [-half_range,
    half_range] covering one period.
    """

    length: float
    half_range: float
    chart: object  # geom.CylinderChart

    def curve(self, n: int = CURVE_SAMPLES):
        """Sampled copy of the geodesic, endpoints identified copies."""
        from .geom import Curve

        s = np.linspace(-self.half_range, self.half_range, n)
        x = np.tanh(0.5 * s)
        return Curve(samples=np.column_stack([x, np.zeros_like(x)]))


class HyperbolicSurface:
    """The closed genus-2 surface carried by the octagon domain."""

    def __init__(self, domain: FundamentalDomain = None):
        self.domain = domain if domain is not None else build_octagon_domain()
        lengths = generator_translation_lengths(self.domain)
        self.systole = min(lengths)
        self.inj_radius = 0.5 * self.systole
        self.total_area = self.domain.area
        self.euler = -2

    def systole_geodesic(self) -> SystoleGeodesic:
        from .geom import CylinderChart

        chart = CylinderChart(core_length=self.systole, half_width=0.44)
        return SystoleGeodesic(
            length=self.systole, half_range=self.domain.in_radius, chart=chart
        )


def base_spectrum(surface: HyperbolicSurface, mesh: SurfaceMesh, k: int):
    """First k+1 eigenvalues of the base metric on this mesh, cached on it."""
    from . import spectral
    from .conformal import base_metric

    cached = mesh._cache.get("base_spectrum")
    if cached is not None and len(cached.eigenvalues) >= k + 1:
        return cached
    system = spectral.assemble(base_metric(surface), mesh)
    result = spectral.eigenvalues(system, k)
    mesh._cache["base_spectrum"] = result
    return result
