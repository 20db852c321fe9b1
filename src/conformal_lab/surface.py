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
TRI_SIDES = [0, 1, 1, 2, 2, 0]  # corner pairs of the sides ab, bc, ca of (a, b, c)


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


def build_mesh(domain: FundamentalDomain, level: int) -> SurfaceMesh:
    """Fan-and-subdivide triangulation of the octagon, glued along pairings.

    Each level splits every triangle (a, b, c) into four at the midpoints
    of ab, bc and ca.  New vertices are numbered in the order their edges
    are first met, triangle by triangle, and a boundary edge splits at the
    hyperbolic midpoint of its endpoints taken in that order.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    if not isinstance(level, int) or isinstance(level, bool) or not 0 <= level <= 8:
        raise DomainError(f"refinement level must be an int in [0, 8], got {level!r}")

    z = np.array([0j] + [p.z for p in domain.vertices])
    tris = np.array([(0, 1 + k, 1 + (k + 1) % 8) for k in range(8)], dtype=np.int64)
    boundary = np.array([(1 + k, 1 + (k + 1) % 8, k) for k in range(8)])  # i, j, side
    for _ in range(level):
        n = len(z)
        ends = tris[:, TRI_SIDES].reshape(-1, 2)
        keys = ends.min(axis=1) * n + ends.max(axis=1)
        keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        new_id = np.empty_like(first)
        new_id[np.argsort(first)] = np.arange(n, n + len(first))
        split = ends[np.sort(first)]  # the edge each new vertex splits, as first met
        new_z = 0.5 * (z[split[:, 0]] + z[split[:, 1]])
        b_keys = boundary[:, :2].min(axis=1) * n + boundary[:, :2].max(axis=1)
        b_mid = new_id[np.searchsorted(keys, b_keys)]
        for m in b_mid - n:
            new_z[m] = hyperbolic_midpoint(*z[split[m]])
        z = np.concatenate([z, new_z])
        (a, b, c), (ab, bc, ca) = tris.T, new_id[inverse].reshape(-1, 3).T
        tris = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], 1).reshape(-1, 3)
        i, j, side = boundary.T
        boundary = np.column_stack([i, b_mid, side, b_mid, j, side]).reshape(-1, 3)

    xy = np.column_stack([z.real, z.imag])
    glued = []
    for pairing in domain.pairings:
        src_ids, tgt_ids = (
            np.unique(boundary[boundary[:, 2] == k, :2])
            for k in (pairing.source, pairing.target)
        )
        images = pairing.transform.apply_many(z[src_ids])
        # brute force: a side has at most 2**level + 1 boundary vertices
        gaps = np.abs(images[:, None] - z[tgt_ids][None, :])
        nearest, dist = gaps.argmin(axis=1), gaps.min(axis=1)
        if dist.max() > GLUE_TOL:
            raise TopologyError(
                f"pairing {pairing.source}->{pairing.target}: boundary vertex "
                f"image off by {dist.max():.3e} (tolerance {GLUE_TOL})"
            )
        if np.unique(nearest).size != len(src_ids):
            raise TopologyError(
                f"pairing {pairing.source}->{pairing.target} is not a bijection "
                "on boundary vertices"
            )
        glued.append(np.column_stack([src_ids, tgt_ids[nearest]]))
    src, tgt = np.concatenate(glued).T
    # labels number the glued classes in order of their lowest raw vertex
    n_rep, rep = connected_components(
        coo_matrix((np.ones(len(src)), (src, tgt)), shape=(len(z), len(z))),
        directed=False,
    )

    ends = tris[:, TRI_SIDES].reshape(-1, 2)
    n = len(z)
    keys = np.unique(ends.min(axis=1) * n + ends.max(axis=1))
    edges = np.column_stack([keys // n, keys % n])
    areas = tri_areas(xy[:, 0], xy[:, 1], tris)
    if not np.all(np.isfinite(areas)) or areas.min() <= 1e-14:
        raise MeshQualityError(
            f"degenerate triangle: min angle-deficit area {areas.min():.3e}"
        )
    lengths = pair_distances(
        xy[edges[:, 0], 0], xy[edges[:, 0], 1], xy[edges[:, 1], 0], xy[edges[:, 1], 1]
    )

    return SurfaceMesh(
        xy=xy,
        tris=tris,
        rep=rep.astype(np.int64),
        n_rep=n_rep,
        level=level,
        edges=edges,
        edge_len_sigma=lengths,
        tri_area_sigma=areas,
        boundary_edge_count=len(boundary),
    )


class HyperbolicSurface:
    """The closed genus-2 surface carried by the octagon domain.

    The real axis closes up to a systole geodesic; hyp.axis_distances and
    hyp.fermi_points chart its collar, embedded for |r| <= collar_half_width
    (the collar lemma allows arcsinh(1 / sinh(systole / 2)) = 0.4407).
    """

    collar_half_width = 0.44

    def __init__(self, domain: FundamentalDomain = None):
        self.domain = domain if domain is not None else build_octagon_domain()
        lengths = generator_translation_lengths(self.domain)
        self.systole = min(lengths)
        self.inj_radius = 0.5 * self.systole
        self.total_area = self.domain.area
        self.euler = -2


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
