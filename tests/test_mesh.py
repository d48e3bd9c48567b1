import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biharmfem import fem
from biharmfem.geometry import (BC_TYPES, BUILTIN_NAMES, GRID_BOUND,
                                BCType, DomainError, PolygonDomain,
                                builtin_domain, read_domain_file)
from biharmfem.mesh import (MeshError, TriMesh, _edges, _refined_edges,
                            initial_mesh, nested_dissection, prolongate,
                            refine_uniform, restrict)
from conftest import (comb_domain, mesh_hierarchy, skyline_domains,
                      unit_square)
from refine_oracle import (dirichlet_mask_loop, find_boundary_edges_dict,
                           initial_mesh_loop, refine_uniform_dict)
from superlu_oracle import to_scipy


def node_at(m, point):
    """The index of the one node of m at ``point``."""
    (i,) = np.flatnonzero(np.linalg.norm(m.nodes - point, axis=1) <= 1e-10)
    return i


class TestInitialMesh:
    def test_domain_i_counts(self):
        m = initial_mesh(builtin_domain("I", "B3"))
        assert m.n_triangles == 16
        assert m.n_nodes == 15

    def test_domain_iii_counts_and_area(self):
        m = initial_mesh(builtin_domain("III", "B1"))
        assert m.n_triangles == 24
        assert m.areas.sum() == pytest.approx(12.0,
                                                                abs=1e-12)

    def test_areas_partition_every_builtin(self):
        for name, bc in [("I", "B3"), ("II", "B1"), ("III", "B1"), ("IV", "B1")]:
            dom = builtin_domain(name, bc)
            m = initial_mesh(dom)
            assert m.areas.sum() == pytest.approx(
                dom.area(), abs=1e-12)
            m.check_conforming()

    def test_corner_vertex_is_a_node(self):
        for name in ("I", "II", "III", "IV"):
            m = initial_mesh(builtin_domain(name, "B3"))
            assert node_at(m, (0.0, 0.0)) >= 0

    def test_cut_along_the_other_diagonal_rejected(self):
        # the edge (1, 1) -> (0, 2) crosses its cell along the diagonal the
        # cell does not have; both candidates' centroids lie on it, and the
        # one taken has an edge whose midpoint, but not its ends, lies on it
        dom = PolygonDomain(np.array([[0, 0], [2, 0], [2, 2], [1, 2], [1, 1],
                                      [0, 2]], dtype=float),
                            (BCType.DIRICHLET,) * 6)
        with pytest.raises(MeshError, match="lies on no domain edge"):
            initial_mesh(dom)

    def test_off_grid_domain_rejected(self):
        dom = PolygonDomain(0.5 * unit_square().vertices,
                            (BCType.DIRICHLET,) * 4)
        with pytest.raises(MeshError):
            initial_mesh(dom)


class TestRefinement:
    def test_triangle_count_quadruples(self, lshape_b1_meshes):
        for c, f in zip(lshape_b1_meshes, lshape_b1_meshes[1:]):
            assert f.n_triangles == 4 * c.n_triangles

    def test_node_count_bookkeeping(self, lshape_b1_meshes):
        for c, f in zip(lshape_b1_meshes, lshape_b1_meshes[1:]):
            edges = {tuple(sorted((t[i], t[(i + 1) % 3])))
                     for t in c.triangles for i in range(3)}
            assert f.n_nodes == c.n_nodes + len(edges)

    def test_area_preserved(self, lshape_b1_meshes):
        a0 = lshape_b1_meshes[0].areas.sum()
        for m in lshape_b1_meshes[1:]:
            assert m.areas.sum() == pytest.approx(
                a0, rel=1e-13)

    def test_nested_nodes(self, lshape_b1_meshes):
        for c, f in zip(lshape_b1_meshes, lshape_b1_meshes[1:]):
            assert np.array_equal(f.nodes[: c.n_nodes], c.nodes)

    def test_max_edge_halves(self, lshape_b1_meshes):
        for c, f in zip(lshape_b1_meshes, lshape_b1_meshes[1:]):
            assert f.max_edge_length() == pytest.approx(
                0.5 * c.max_edge_length(), rel=1e-12)

    def test_max_edge_length_traced_peak(self):
        # one edge and one coordinate at a time: at most four (T,) float
        # arrays, where the (T, 3) edge vectors of both axes took 64*T bytes
        m = mesh_hierarchy(builtin_domain("IV", "B3"), 6)[-1]
        tracemalloc.start()
        try:
            m.max_edge_length()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * m.n_triangles, peak / (8 * m.n_triangles)

    def test_conforming_at_every_level(self, lshape_b1_meshes):
        for m in lshape_b1_meshes:
            m.check_conforming()

    def test_boundary_tags_inherited(self):
        dom = builtin_domain("III", "B3")
        fine = mesh_hierarchy(dom, 2)[-1]
        for a, b, j in fine.boundary_edges:
            mid = 0.5 * (fine.nodes[a] + fine.nodes[b])
            p, q = dom.vertices[[j, (j + 1) % dom.n_vertices]]
            # the midpoint must lie on the tagged domain edge
            t = np.dot(mid - p, q - p) / np.dot(q - p, q - p)
            assert -1e-12 <= t <= 1 + 1e-12
            e, d = q - p, mid - p
            assert abs(e[0] * d[1] - e[1] * d[0]) < 1e-12

    def test_corner_node_persists(self, lshape_b1_meshes):
        for m in lshape_b1_meshes:
            assert np.allclose(m.nodes[node_at(m, (0.0, 0.0))], [0.0, 0.0])


class TestDirichletFlags:
    def test_junction_nodes_constrained(self):
        # arriving edge Neumann, leaving Dirichlet: the shared corner node
        # is constrained
        m = initial_mesh(builtin_domain("III", "B3"))
        assert m.dirichlet_nodes[node_at(m, (0.0, 0.0))]

    def test_pure_neumann_has_no_constraints(self):
        m = initial_mesh(builtin_domain("III", "B5"))
        assert not m.dirichlet_nodes.any()

    def test_interior_nodes_free(self, lshape_b1_meshes):
        m = lshape_b1_meshes[2]
        assert not m.dirichlet_nodes[node_at(m, (-1.0, 1.0))]


class TestProlongation:
    def test_constants_reproduced(self, lshape_b1_meshes):
        c, f = lshape_b1_meshes[0], lshape_b1_meshes[1]
        assert np.allclose(prolongate(f, np.ones(c.n_nodes)), 1.0)

    def test_linears_reproduced_exactly(self, lshape_b1_meshes):
        c, f = lshape_b1_meshes[1], lshape_b1_meshes[2]
        lin = lambda nodes: nodes[:, 0] + 2.0 * nodes[:, 1]
        assert np.max(np.abs(prolongate(f, lin(c.nodes)) - lin(f.nodes))) == 0.0

    def test_energy_preserved_for_nested_spaces(self, lshape_b1_meshes):
        c, f = lshape_b1_meshes[1], lshape_b1_meshes[2]
        rng = np.random.default_rng(7)
        v = rng.standard_normal(c.n_nodes)
        Ac = fem.assemble_stiffness(c)
        Af = fem.assemble_stiffness(f)
        vf = prolongate(f, v)
        assert vf @ (Af @ vf) == pytest.approx(v @ (Ac @ v), rel=1e-12)

    def test_dimension_mismatch_rejected(self, lshape_b1_meshes):
        with pytest.raises(MeshError):
            prolongate(lshape_b1_meshes[1], np.ones(3))


@functools.lru_cache(maxsize=None)
def builtin_hierarchy(name):
    return mesh_hierarchy(builtin_domain(name, "B3" if name == "I" else "B1"), 3)


# a built-in domain, a fine level 1-3, a coarser level, rows per vector
# and a seed for the random vectors
hierarchy_pairs = st.tuples(
    st.sampled_from(BUILTIN_NAMES), st.integers(1, 3), st.integers(0, 2),
    st.integers(1, 3), st.integers(0, 2**32 - 1)
).filter(lambda t: t[2] < t[1])


class TestRestriction:
    """restrict is the adjoint of prolongate: coarse loads from fine ones."""

    @given(hierarchy_pairs)
    @settings(max_examples=60, deadline=None)
    def test_adjoint_of_prolongation(self, case):
        name, fine_level, coarse_level, k, seed = case
        meshes = builtin_hierarchy(name)
        fine, coarse = meshes[fine_level], meshes[coarse_level]
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((k, fine.n_nodes))
        w = rng.standard_normal(coarse.n_nodes)
        pw = w
        for m in meshes[coarse_level + 1:fine_level + 1]:
            pw = prolongate(m, pw)
        got = restrict(fine, v, coarse)
        assert got.shape == (k, coarse.n_nodes)
        for row, v_row in zip(got, v):
            scale = np.abs(pw) @ np.abs(v_row)
            assert abs(w @ row - pw @ v_row) <= 1e-13 * scale
            # the sum of the loads, which the pure-Neumann compatibility
            # check reads, is kept to rounding
            assert abs(row.sum() - v_row.sum()) <= 1e-13 * np.abs(v_row).sum()

    def test_hat_loads_add_up(self, lshape_b1_meshes):
        # the coarse hat is the fine hats weighted by the prolongation, so
        # the restricted fine mass rows are the coarse mass rows
        c, f = lshape_b1_meshes[1], lshape_b1_meshes[2]
        Mc = to_scipy(fem.assemble_mass(c)).toarray()
        Mf = fem.assemble_mass(f)
        rows = np.array([Mf @ prolongate(f, e) for e in np.eye(c.n_nodes)[:5]])
        assert np.max(np.abs(restrict(f, rows, c) - Mc[:5])) <= 1e-15

    def test_not_an_ancestor_raises(self, lshape_b1_meshes):
        m0, m1, m2 = lshape_b1_meshes[:3]
        other = mesh_hierarchy(builtin_domain("III", "B1"), 1)
        # no parent at all, a finer mesh, meshes of another hierarchy
        for fine, coarse in ((m0, None), (m1, m2), (m2, other[0]),
                             (m1, other[1])):
            with pytest.raises(MeshError, match="not an ancestor"):
                restrict(fine, np.zeros(fine.n_nodes), coarse)

    def test_dimension_mismatch_rejected(self, lshape_b1_meshes):
        with pytest.raises(MeshError):
            restrict(lshape_b1_meshes[1], np.ones(3), lshape_b1_meshes[0])


def _builds(name, bc):
    try:
        builtin_domain(name, bc)
    except DomainError:     # I has a straight angle, so one tag change
        return False
    return True


BUILTINS = [(name, bc) for name in BUILTIN_NAMES for bc in BC_TYPES
            if _builds(name, bc)]


@functools.lru_cache(maxsize=None)
def bc_hierarchy(name, bc):
    return mesh_hierarchy(builtin_domain(name, bc), 4)


class TestNestedDissection:
    """The order in which a level's Poisson factor eliminates its nodes."""

    @given(st.sampled_from(BUILTINS), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_permutation_and_grid_invariant(self, builtin, level):
        m = bc_hierarchy(*builtin)[level]
        # the nodes the level's factor orders: the free ones, or all of
        # them on an all-Neumann domain
        if m.domain.has_dirichlet():
            nodes = np.flatnonzero(~m.dirichlet_nodes)
            order = nested_dissection(m, nodes)[0] if len(nodes) else nodes
        else:
            nodes = np.arange(m.n_nodes)
            order = nested_dissection(m)[0]
        assert np.array_equal(np.sort(order), np.arange(len(nodes)))
        # every node on the grid of spacing 2^-level, and every edge at
        # most one grid step long in each coordinate, so that a grid line
        # separates its two sides
        ij = m.nodes * 2.0 ** level
        assert np.array_equal(ij, np.rint(ij))
        pairs = m.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        assert np.abs(ij[pairs[:, 0]] - ij[pairs[:, 1]]).max() <= 1

    @pytest.mark.parametrize("builtin", BUILTINS,
                             ids=[f"{n}-{b}" for n, b in BUILTINS])
    def test_separator_tree(self, builtin):
        # each box's separator is one run of the order, after every node
        # of its two halves, and a mesh edge joins a node to its own box
        # or to an ancestor box: two halves never touch
        for m in bc_hierarchy(*builtin)[:5]:
            nodes = np.flatnonzero(~m.dirichlet_nodes)
            if not len(nodes):
                continue
            order, box = nested_dissection(m, nodes)
            keys, first = np.unique(box, return_index=True)
            assert np.count_nonzero(np.diff(box)) + 1 == len(keys)
            depth = np.frexp(box.astype(float))[1] - 1
            for shift in range(1, int(depth.max()) + 1):
                up = box >> shift
                known = np.isin(up, keys)
                ancestor_first = first[np.searchsorted(keys, up[known])]
                assert np.all(ancestor_first > np.flatnonzero(known))
            pos = np.full(m.n_nodes, -1)
            pos[nodes[order]] = np.arange(len(nodes))
            a, b = pos[m.edge_table[0].T]
            both = (a >= 0) & (b >= 0)
            ka, kb = box[a[both]], box[b[both]]
            da, db = depth[a[both]], depth[b[both]]
            assert np.all(np.where(da <= db, kb >> np.maximum(db - da, 0) == ka,
                                   ka >> np.maximum(da - db, 0) == kb))

    def test_separators_after_their_halves(self):
        # the 5 x 5 grid of the unit square at level 2: the column x = 0.5
        # comes last, and the left half ends with its own separator, the
        # row y = 0.5
        m = mesh_hierarchy(unit_square(), 2)[-1]
        xy = m.nodes[nested_dissection(m)[0]]
        assert np.all(xy[-5:, 0] == 0.5)
        left = xy[:10]
        assert np.all(left[:, 0] < 0.5)
        assert np.all(left[-2:, 1] == 0.5) and np.all(left[:-2, 1] != 0.5)


MESH_FIELDS = ("nodes", "triangles", "boundary_edges", "edge_parents",
               "dirichlet_nodes")


def _file_domain(tmp_path):
    # a U shape with mixed tags, read from a domain file
    path = tmp_path / "u.txt"
    path.write_text("0 0\n3 0\n3 2\n2 2\n2 1\n1 1\n1 2\n0 2\n"
                    + "D\nN\nD\nD\nN\nD\nN\nD\n")
    return read_domain_file(path)


def assert_same_mesh(mesh, oracle):
    """Every array of the two meshes equal, dtypes included."""
    for field in MESH_FIELDS:
        got, want = getattr(mesh, field), getattr(oracle, field)
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype, (mesh.level, field)
            assert np.array_equal(got, want), (mesh.level, field)


def _square(half):
    v = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float) * half
    return PolygonDomain(v, (BCType.DIRICHLET,) * 4)


class TestRefinementOracle:
    @pytest.mark.parametrize("builtin", [("I", "B4"), ("II", "B2"),
                                         ("III", "B5"), ("IV", "B3"), None],
                             ids=["I-B4", "II-B2", "III-B5", "IV-B3", "file"])
    def test_matches_dict_refinement(self, builtin, tmp_path):
        # levels 0-5 against the per-cell grid, then the dict refinement
        dom = builtin_domain(*builtin) if builtin else _file_domain(tmp_path)
        meshes = mesh_hierarchy(dom, 5)
        oracles = [initial_mesh_loop(dom)]
        for _ in range(5):
            oracles.append(refine_uniform_dict(oracles[-1]))
        assert np.array_equal(
            meshes[0].boundary_edges,
            find_boundary_edges_dict(dom, meshes[0].nodes, meshes[0].triangles))
        for mesh, oracle in zip(meshes, oracles):
            assert np.array_equal(mesh.dirichlet_nodes,
                                  dirichlet_mask_loop(oracle))
            assert_same_mesh(mesh, oracle)


class TestInitialMeshOracle:
    """The level-0 grid built as arrays against the loop over unit cells it
    replaced (tests/refine_oracle.py)."""

    # the file domain is compared in TestRefinementOracle
    @pytest.mark.parametrize(
        "make", [functools.partial(builtin_domain, *b) for b in BUILTINS]
        + [functools.partial(_square, GRID_BOUND),
           functools.partial(comb_domain, 8)],
        ids=[f"{n}-{b}" for n, b in BUILTINS] + ["square128", "comb34"])
    def test_matches_loop(self, make):
        dom = make()
        assert_same_mesh(initial_mesh(dom), initial_mesh_loop(dom))

    @given(skyline_domains())
    @settings(max_examples=60, deadline=None)
    def test_skyline_polygons(self, dom):
        try:
            oracle = initial_mesh_loop(dom)
        except MeshError as exc:
            with pytest.raises(type(exc)) as got:
                initial_mesh(dom)
            assert str(got.value) == str(exc)
            return
        meshes = mesh_hierarchy(dom, 2)
        assert_same_mesh(meshes[0], oracle)
        for coarse, fine in zip(meshes, meshes[1:]):
            assert_same_mesh(fine, refine_uniform_dict(coarse))
        for m in meshes:
            m.check_conforming()
            assert m.areas.sum() == pytest.approx(
                dom.area(), abs=1e-12)
            # refined rows keep their orientation: compare sorted pairs
            rows = m.boundary_edges.copy()
            rows[:, :2].sort(axis=1)
            rows = rows[np.lexsort(rows.T[::-1])]
            assert np.array_equal(rows, find_boundary_edges_dict(
                dom, m.nodes, m.triangles))
            A = to_scipy(fem.assemble_stiffness(m))
            assert (A != A.T).nnz == 0
            scale = abs(A).max(axis=1).toarray().ravel()
            assert np.all(np.abs(A.sum(axis=1).A1) <= 1e-12 * scale)


def assert_same_table(got, want, level):
    for g, w, what in zip(got, want, ("edges", "tri_edges", "boundary")):
        assert g.dtype == w.dtype and g.shape == w.shape, (level, what)
        assert np.array_equal(g, w), (level, what)


class TestRefinedEdges:
    """The edge table ``refine_uniform`` numbers from the coarse one in one
    pass (``mesh._refined_edges``) against ``_edges`` of the fine
    triangles and boundary rows, which it replaces on refined meshes."""

    def check(self, meshes):
        for m in meshes[1:]:
            assert m._refined
            assert_same_table(m.edge_table,
                              _edges(m.triangles, m.boundary_edges), m.level)

    @pytest.mark.parametrize("make", [
        *(functools.partial(builtin_domain, name, "B3")
          for name in BUILTIN_NAMES),
        functools.partial(comb_domain, 3), _file_domain],
        ids=[*BUILTIN_NAMES, "comb14", "file"])
    def test_matches_sorted_numbering(self, make, tmp_path):
        dom = make(tmp_path) if make is _file_domain else make()
        self.check(mesh_hierarchy(dom, 5 if make is not _file_domain else 3))

    @given(skyline_domains())
    @settings(max_examples=60, deadline=None)
    def test_skyline_polygons(self, dom):
        try:
            meshes = mesh_hierarchy(dom, 3)
        except MeshError:       # not representable on the level-0 grid
            return
        self.check(meshes)

    def test_hand_built_mesh_numbers_its_own_edges(self):
        # a mesh with a parent that refine_uniform did not make: its
        # triangles in another order take _edges's numbering of that order
        coarse = mesh_hierarchy(builtin_domain("III", "B1"), 1)[-1]
        fine = refine_uniform(coarse)
        rev = TriMesh(fine.domain, fine.nodes, fine.triangles[::-1].copy(),
                      fine.boundary_edges, fine.level, coarse,
                      fine.edge_parents)
        assert not rev._refined
        assert_same_table(rev.edge_table,
                          _edges(rev.triangles, rev.boundary_edges), 2)
        assert not np.array_equal(rev.edge_table[0], fine.edge_table[0])

    def test_traced_peak_within_twice_the_table(self):
        # with the parent's tables at hand, the pass holds no (T, 12) node
        # table and no sort: 1.6x the bytes it returns at level 5, where
        # _edges's sort peaks at 5.6x
        fine = mesh_hierarchy(builtin_domain("III", "B1"), 5)[-1]
        fine.parent.edge_table
        tracemalloc.start()
        try:
            table = _refined_edges(fine)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(a.nbytes for a in table)
        assert peak <= 2 * size, peak / size


def _interior_triangle(m):
    # a triangle none of whose nodes is on the boundary
    on_boundary = np.isin(m.triangles, m.boundary_edges[:, :2]).any(axis=1)
    return int(np.flatnonzero(~on_boundary)[0])


def _duplicate_triangle(m):
    return np.vstack([m.triangles, m.triangles[_interior_triangle(m)]]), \
        m.boundary_edges


def _remove_interior_triangle(m):
    return np.delete(m.triangles, _interior_triangle(m), axis=0), \
        m.boundary_edges


def _phantom_boundary_edge(m):
    # node 0 and a node it shares no triangle with
    near = np.unique(m.triangles[(m.triangles == 0).any(axis=1)])
    far = np.setdiff1d(np.arange(m.n_nodes), near)[0]
    return m.triangles, np.vstack([m.boundary_edges, [0, far, 0]])


def _invert_triangle(m):
    tris = m.triangles.copy()
    tris[0] = tris[0, ::-1]
    return tris, m.boundary_edges


class TestConformityCheck:
    @pytest.mark.parametrize("defect,message", [
        (_duplicate_triangle, "shared by 3 triangles, expected 2"),
        (_remove_interior_triangle, "shared by 1 triangles, expected 2"),
        (_phantom_boundary_edge, "not present in triangulation"),
        (_invert_triangle, "non-positive area")])
    def test_defect_raises(self, defect, message, lshape_b1_meshes):
        m = lshape_b1_meshes[1]
        m.check_conforming()
        triangles, boundary_edges = defect(m)
        broken = TriMesh(m.domain, m.nodes, triangles, boundary_edges)
        with pytest.raises(MeshError, match=message):
            broken.check_conforming()
