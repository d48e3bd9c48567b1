import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biharmfem import geometry
from biharmfem.geometry import (BCType, DomainError, PolygonDomain,
                                VertexClass, builtin_domain, classify_vertex,
                                perp_dimension, read_domain_file,
                                singular_exponents)
from biharmfem.singular import corner_bases
from conftest import unit_square
from refine_oracle import check_simple_loop

D, N = BCType.DIRICHLET, BCType.NEUMANN


class TestClassifyVertex:
    def test_all_dirichlet_reentrant_corner_is_d2(self):
        dom = builtin_domain("III", "B1")
        assert classify_vertex(dom, 0) == VertexClass.D2

    def test_neumann_arriving_dirichlet_leaving_is_m_prime(self):
        dom = builtin_domain("I", "B3")
        assert classify_vertex(dom, 0) == VertexClass.M_PRIME

    def test_dirichlet_arriving_neumann_leaving_is_m_dprime(self):
        dom = builtin_domain("I", "B4")
        assert classify_vertex(dom, 0) == VertexClass.M_DPRIME

    def test_both_neumann_is_n2(self):
        dom = builtin_domain("III", "B2")
        assert classify_vertex(dom, 0) == VertexClass.N2

    def test_invariant_under_rotation(self):
        dom = builtin_domain("III", "B3")
        c, s = math.cos(0.7), math.sin(0.7)
        rot = np.array([[c, -s], [s, c]])
        rotated = PolygonDomain(dom.vertices @ rot.T, dom.tags)
        for j in range(dom.n_vertices):
            assert classify_vertex(rotated, j) == classify_vertex(dom, j)


class TestSingularExponents:
    def test_d2_three_half_pi(self):
        ex = singular_exponents(VertexClass.D2, 1.5 * math.pi)
        assert len(ex) == 1
        beta, trig = ex[0]
        assert beta == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert trig == "sin"

    def test_n2_uses_cosine(self):
        ex = singular_exponents(VertexClass.N2, 1.5 * math.pi)
        assert ex[0][1] == "cos"

    def test_m_prime_seven_quarter_pi_gives_two(self):
        ex = singular_exponents(VertexClass.M_PRIME, 1.75 * math.pi)
        assert [(b, t) for b, t in ex] == [
            (pytest.approx(2.0 / 7.0, abs=1e-14), "sin"),
            (pytest.approx(6.0 / 7.0, abs=1e-14), "sin"),
        ]

    def test_m_dprime_uses_cosine(self):
        ex = singular_exponents(VertexClass.M_DPRIME, 1.75 * math.pi)
        assert [t for _, t in ex] == ["cos", "cos"]

    def test_convex_d2_has_none(self):
        assert singular_exponents(VertexClass.D2, 0.5 * math.pi) == []

    def test_m_type_interval_closed_at_three_half_pi(self):
        ex = singular_exponents(VertexClass.M_PRIME, 1.5 * math.pi)
        assert len(ex) == 1
        assert ex[0][0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_m_type_small_angle_has_none(self):
        assert singular_exponents(VertexClass.M_PRIME, 0.4 * math.pi) == []

    @given(st.sampled_from(list(VertexClass)),
           st.floats(min_value=1e-3, max_value=2 * math.pi - 1e-3))
    @settings(max_examples=200, deadline=None)
    def test_all_exponents_in_unit_interval(self, vclass, omega):
        for beta, trig in singular_exponents(vclass, omega):
            assert 0.0 < beta < 1.0
            assert trig in ("sin", "cos")

    @pytest.mark.parametrize("vclass", [VertexClass.D2, VertexClass.N2])
    def test_one_class_corner_has_at_most_one_exponent(self, vclass):
        # an all-Neumann domain has only N2 corners, so its single singular
        # vertex gives d_perp <= 1
        for omega in np.linspace(0.0, 2 * math.pi, 2001)[1:-1]:
            assert len(singular_exponents(vclass, omega)) <= 1

    def test_min_exponent_matches_angle_formula(self):
        omega = 1.9 * math.pi
        d2 = singular_exponents(VertexClass.D2, omega)
        assert d2[0][0] == pytest.approx(math.pi / omega)
        m = singular_exponents(VertexClass.M_PRIME, omega)
        assert min(b for b, _ in m) == pytest.approx(math.pi / (2 * omega))


class TestPerpDimension:
    def test_lshape_all_dirichlet(self):
        assert perp_dimension(builtin_domain("III", "B1")) == (1, [0])

    def test_largest_builtin_angle_mixed(self):
        assert perp_dimension(builtin_domain("IV", "B3")) == (2, [0])

    def test_unit_square_all_dirichlet(self):
        assert perp_dimension(unit_square()) == (0, [])

    def test_convex_domain_zero_for_all_taggings(self):
        for tags in [(D, D, N, N), (N,) * 4, (D, N, D, N)]:
            dom = PolygonDomain(unit_square().vertices, tags)
            assert perp_dimension(dom)[0] == 0


class TestBuiltinDomains:
    def test_domain_i_is_rectangle_with_straight_vertex(self):
        dom = builtin_domain("I", "B3")
        assert dom.area() == pytest.approx(8.0)
        assert np.allclose(dom.vertices[0], [0.0, 0.0])
        assert dom.angles[0] == pytest.approx(math.pi)

    def test_domain_iii_is_lshape(self):
        dom = builtin_domain("III", "B1")
        assert dom.area() == pytest.approx(12.0)
        assert dom.angles[0] == pytest.approx(1.5 * math.pi)
        assert all(t == D for t in dom.tags)

    def test_domain_iv_angle(self):
        dom = builtin_domain("IV", "B4")
        assert dom.angles[0] == pytest.approx(1.75 * math.pi)
        assert dom.area() == pytest.approx(14.0)

    def test_domain_ii_angle(self):
        dom = builtin_domain("II", "B1")
        assert dom.angles[0] == pytest.approx(1.25 * math.pi)

    def test_straight_vertex_without_tag_change_rejected(self):
        with pytest.raises(DomainError):
            builtin_domain("I", "B1")

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            builtin_domain("V", "B1")

    def test_exterior_turning_angles_sum_to_full_turn(self):
        for name in ("II", "III", "IV"):
            dom = builtin_domain(name, "B1")
            turning = sum(math.pi - a for a in dom.angles)
            assert turning == pytest.approx(2 * math.pi, abs=1e-12)


class TestDomainValidation:
    def test_clockwise_rejected(self):
        with pytest.raises(DomainError):
            PolygonDomain(unit_square().vertices[::-1], (D,) * 4)

    def test_touching_boundary_rejected(self):
        # two unit squares sharing the point (1, 1): vertex 2 comes back as
        # vertex 6, at the end of edge 5
        pinched = np.array([[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [1, 2],
                            [1, 1], [0, 1]], dtype=float)
        with pytest.raises(DomainError, match="vertex 2 touches edge 5"):
            PolygonDomain(pinched, (D,) * 8)
        # a vertex inside another edge: the notch's tip (2, 0) on edge 0
        notched = np.array([[0, 0], [4, 0], [4, 2], [3, 2], [2, 0], [1, 2],
                            [0, 2]], dtype=float)
        with pytest.raises(DomainError, match="vertex 4 touches edge 0"):
            PolygonDomain(notched, (D,) * 7)

    def test_self_intersection_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            PolygonDomain(verts, (D,) * 4)

    def test_extent_bounded_by_level_0_grid(self):
        square = unit_square().vertices - 0.5
        PolygonDomain(128.0 * square, (D,) * 4)
        with pytest.raises(DomainError, match="extent 64.5 exceeds"):
            PolygonDomain(129.0 * square, (D,) * 4)

    def test_degenerate_edge_named_before_a_crossing(self):
        # edges 0 and 2 cross, edge 3 has length 0
        verts = np.array([[0, 0], [1, 1], [1, 0], [0, 1], [0, 1]], float)
        with pytest.raises(DomainError, match="edges 0 and 2 intersect"):
            check_simple_loop(verts)
        with pytest.raises(DomainError, match="degenerate edge 3"):
            geometry._check_simple(verts)

    def test_contains(self):
        dom = builtin_domain("III", "B1")
        pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [3.0, 0.5]])
        assert list(dom.contains(pts)) == [True, False, True, False]


def _verdict(build):
    """The message of the DomainError that ``build()`` raises, else None."""
    try:
        build()
    except DomainError as exc:
        return str(exc)
    return None


# small polygons on a half-integer lattice: repeated vertices give
# degenerate edges, and most of them cross themselves
lattice_polygons = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    min_size=3, max_size=9).map(lambda v: 0.5 * np.array(v, dtype=float))


class TestSimplePolygonOracle:
    """The simple-polygon check against the vertex-pair loop it replaced
    (tests/refine_oracle.py)."""

    @given(lattice_polygons)
    @settings(max_examples=300, deadline=None)
    def test_same_verdict(self, verts):
        want = _verdict(lambda: check_simple_loop(verts))
        got = _verdict(lambda: geometry._check_simple(verts))
        assert (got is None) == (want is None)
        if got != want:
            # both faults: the loop met a crossing of an edge before the
            # first degenerate edge, which the array check names first
            assert got.startswith("degenerate edge") and "intersect" in want
            assert int(want.split()[1]) < int(got.split()[-1])

    @given(lattice_polygons, st.lists(st.sampled_from(BCType), min_size=9,
                                      max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_same_domain_verdict(self, verts, tags):
        # counterclockwise, so that most reach the simple-polygon check
        x, y = verts.T
        if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) < 0:
            verts = verts[::-1]
        tags = tuple(tags[:len(verts)])
        got = _verdict(lambda: PolygonDomain(verts, tags))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_check_simple", check_simple_loop)
            want = _verdict(lambda: PolygonDomain(verts, tags))
        assert (got is None) == (want is None)
        if got != want:
            assert got.startswith("degenerate edge") and "intersect" in want


class TestSingularSpecFrame:
    def test_frame_aligns_leaving_edge_with_x_axis(self):
        basis = corner_bases(builtin_domain("III", "B1"), 0)[0]
        assert basis.frame_angle == pytest.approx(0.0, abs=1e-14)
        assert basis.origin == (0.0, 0.0)
        assert basis.omega == pytest.approx(1.5 * math.pi)

    def test_rotated_domain_frame_follows_edge(self):
        dom = builtin_domain("III", "B1")
        c, s = math.cos(0.3), math.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        basis = corner_bases(PolygonDomain(dom.vertices @ rot.T, dom.tags), 0)[0]
        assert basis.frame_angle == pytest.approx(0.3)


class TestDomainFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "dom.txt"
        path.write_text("0 0\n2 0\n2 2\n-2 2\n-2 -2\n0 -2\n"
                        + "D\nD\nD\nD\nN\nD\n")
        dom = read_domain_file(path)
        assert dom.n_vertices == 6
        assert dom.tags[4] == N
        assert dom.area() == pytest.approx(12.0)

    def test_comment_lines_are_skipped(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("0 0\n2 0\n2 2\n0 2\nD\nN\nD\nD\n")
        commented = tmp_path / "commented.txt"
        commented.write_text("# a square\n0 0\n2 0\n  # tags follow\n2 2\n"
                             "0 2\n\t#\nD\nN\n   # last two\nD\nD\n#\n")
        a, b = read_domain_file(plain), read_domain_file(commented)
        assert np.array_equal(a.vertices, b.vertices)
        assert a.tags == b.tags

    def test_comment_after_data_rejected(self, tmp_path):
        path = tmp_path / "dom.txt"
        path.write_text("0 0 # origin\n1 0\n1 1\n0 1\nD\nD\nD\nD\n")
        with pytest.raises(DomainError, match="unparsable domain line"):
            read_domain_file(path)

    def test_tag_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "dom.txt"
        path.write_text("0 0\n1 0\n1 1\n0 1\nD\nD\n")
        with pytest.raises(DomainError):
            read_domain_file(path)
