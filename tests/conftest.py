import numpy as np
import pytest
from hypothesis import strategies as st

from biharmfem.geometry import (GRID_BOUND, BCType, PolygonDomain,
                                builtin_domain)
from biharmfem.mesh import initial_mesh, refine_uniform


def mesh_hierarchy(domain, levels):
    """Meshes at refinement levels 0..levels (inclusive)."""
    meshes = [initial_mesh(domain)]
    for _ in range(levels):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def unit_square(tag=BCType.DIRICHLET):
    return PolygonDomain(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        (tag,) * 4,
    )


def comb_domain(teeth, bottom=-3, top=4):
    """An all-Dirichlet comb on x in [0, 2 * teeth]: a base on
    bottom <= y <= 0 carrying ``teeth`` unit-wide teeth up to ``top``,
    one unit apart; 4 * teeth + 2 vertices."""
    verts = [(0, bottom), (2 * teeth, bottom), (2 * teeth, 0)]
    for x in range(2 * teeth - 2, -1, -2):
        verts += [(x + 1, 0), (x + 1, top), (x, top)]
        if x:
            verts.append((x, 0))
    return PolygonDomain(np.array(verts, dtype=float),
                         (BCType.DIRICHLET,) * len(verts))


def drop_straight_vertices(verts):
    """The vertices of a closed polyline without repeats and without the
    vertices where it runs straight on."""
    verts = [v for k, v in enumerate(verts) if v != verts[k - 1]]
    a, b, c = (np.array(verts, dtype=float), np.roll(verts, -1, axis=0),
               np.roll(verts, 1, axis=0))
    turn = (b - a)[:, 0] * (c - a)[:, 1] - (b - a)[:, 1] * (c - a)[:, 0]
    return [v for v, t in zip(verts, turn) if t != 0]


@st.composite
def skyline_domains(draw, max_columns=4, max_height=6):
    """A polygon on the integer grid within GRID_BOUND, with random
    Dirichlet/Neumann tags: a flat bottom and a roof of columns 1-3 cells
    wide whose tops have slope 0, 1 or -1, joined by vertical walls.  The
    slanted tops are representable on the level-0 grid only where they
    follow the diagonals of ``initial_mesh``'s cells."""
    roof = []       # (x, height) from left to right
    x = 0
    for _ in range(draw(st.integers(1, max_columns))):
        width = draw(st.integers(1, 3))
        h = draw(st.integers(1, max_height))
        slope = draw(st.sampled_from(
            [s for s in (0, 1, -1) if 1 <= h + s * width <= max_height]))
        roof += [(x, h), (x + width, h + slope * width)]
        x += width
    x0 = draw(st.one_of(st.integers(-x, 0),
                        st.integers(-GRID_BOUND, GRID_BOUND - x)))
    y0 = draw(st.one_of(st.integers(-max_height, 0),
                        st.integers(-GRID_BOUND, GRID_BOUND - max_height)))
    verts = drop_straight_vertices(
        [(x0, y0), (x0 + x, y0)]
        + [(x0 + rx, y0 + h) for rx, h in reversed(roof)])
    tags = draw(st.lists(st.sampled_from(BCType), min_size=len(verts),
                         max_size=len(verts)))
    return PolygonDomain(np.array(verts, dtype=float), tuple(tags))


@pytest.fixture(scope="session")
def lshape_b1():
    return builtin_domain("III", "B1")


@pytest.fixture(scope="session")
def lshape_b1_meshes(lshape_b1):
    return mesh_hierarchy(lshape_b1, 4)
