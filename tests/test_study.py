import csv
import math
import tracemalloc

import numpy as np
import pytest

from biharmfem.mesh import initial_mesh
from biharmfem.study import (RateTable, StudyConfig, StudyReport, cauchy_rate,
                             export_csv, export_field, run_study)
from conftest import unit_square


class TestCauchyRate:
    def test_exact_halving(self):
        assert cauchy_rate([0.4, 0.2, 0.1]) == pytest.approx([1.0, 1.0])

    def test_geometric_half_order(self):
        d = [2.0 ** (-0.5 * j) for j in range(5)]
        assert cauchy_rate(d) == pytest.approx([0.5] * 4)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            cauchy_rate([0.4, 0.0, 0.1])
        with pytest.raises(ValueError):
            cauchy_rate([0.4, -0.2])


class TestConfigValidation:
    def test_min_level(self):
        with pytest.raises(ValueError):
            StudyConfig(max_level=1)

    def test_unknown_formulation(self):
        with pytest.raises(ValueError):
            StudyConfig(formulation="fancy")

    def test_unknown_compare(self):
        with pytest.raises(ValueError):
            StudyConfig(compare_formulation="fancy")


@pytest.fixture(scope="module")
def small_report():
    return run_study(StudyConfig(domain="III", bc_type="B1",
                                 formulation="modified", source="const1",
                                 max_level=3, compare_formulation="naive"))


class TestRunStudy:
    def test_levels_and_nodes(self, small_report):
        t = small_report.table
        assert len(t.nodes) == 4
        assert t.nodes[0] == 21
        for a, b in zip(t.nodes, t.nodes[1:]):
            assert b > a

    def test_differences_decreasing(self, small_report):
        d = small_report.table.diff_u
        assert d[2] < d[1] and d[3] < d[2]

    def test_rates_defined_in_interior(self, small_report):
        t = small_report.table
        assert math.isnan(t.rate_u[0]) and math.isnan(t.rate_u[-1])
        assert all(not math.isnan(r) for r in t.rate_u[1:-1])

    def test_formulation_gap_recorded(self, small_report):
        gaps = small_report.table.linf_vs_other
        assert gaps[-1] > 0.1
        assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_convex_square_gap_is_solver_noise(self, tmp_path):
        # register the unit square as a domain file
        p = tmp_path / "square.txt"
        p.write_text("0 0\n2 0\n2 2\n0 2\nD\nD\nD\nD\n")
        rep = run_study(StudyConfig(domain=str(p), formulation="modified",
                                    source="square-eigen", max_level=3,
                                    compare_formulation="naive"))
        assert max(rep.table.linf_vs_other) < 1e-8


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        rep = run_study(StudyConfig(domain="III", bc_type="B1", max_level=2,
                                    source="const1"))
        path = tmp_path / "study.csv"
        export_csv(rep, str(path))
        with open(path, newline="") as fh:
            rows = [{k: math.nan if v == "" else float(v) for k, v in rec.items()}
                    for rec in csv.DictReader(fh)]
        t = rep.table
        assert len(rows) == 3
        for j, row in enumerate(rows):
            assert row["nodes"] == t.nodes[j]
            if j > 0:
                assert row["diff_h1_u"] == pytest.approx(t.diff_u[j], abs=1e-12)
                assert row["diff_h1_w"] == pytest.approx(t.diff_w[j], abs=1e-12)
            assert row["c1"] == pytest.approx(t.coefficients[j][0], abs=1e-12)

    def test_deterministic_bytes(self, tmp_path):
        cfg = dict(domain="III", bc_type="B1", max_level=2, source="const1")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(run_study(StudyConfig(**cfg)), str(p1))
        export_csv(run_study(StudyConfig(**cfg)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_report_header_only(self, tmp_path):
        table = RateTable([], [], [], [], [], [], [])
        rep = StudyReport(StudyConfig(max_level=2), table, [], [], [])
        path = tmp_path / "empty.csv"
        export_csv(rep, str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("level,nodes,diff_h1_u")

    def test_no_partial_file_left_on_failure(self, tmp_path):
        table = RateTable([0], [math.nan], [math.nan], [math.nan],
                          [math.nan], [None], [math.nan])  # bad coefficients
        rep = StudyReport(StudyConfig(max_level=2), table, [], [], [])
        path = tmp_path / "bad.csv"
        with pytest.raises(Exception):
            export_csv(rep, str(path))
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []


class TestFieldExport:
    def test_vtk_counts_match_mesh(self, tmp_path):
        m = initial_mesh(unit_square())
        path = tmp_path / "u.vtk"
        export_field(np.arange(m.n_nodes, dtype=float), m, str(path))
        text = path.read_text().splitlines()
        assert text[0].startswith("# vtk DataFile")
        assert f"POINTS {m.n_nodes} double" in text
        assert f"CELLS {m.n_triangles} {4 * m.n_triangles}" in text
        assert f"POINT_DATA {m.n_nodes}" in text
        assert "SCALARS u double 1" in text
        assert text.count("5") >= m.n_triangles

    def test_length_mismatch_rejected(self, tmp_path):
        m = initial_mesh(unit_square())
        with pytest.raises(ValueError):
            export_field(np.zeros(m.n_nodes + 1), m, str(tmp_path / "u.vtk"))


def test_traced_peak_of_a_level_5_study():
    # III/B1 naive at level 5 peaks inside the finest factor: 10.9 MiB;
    # 14.1 MiB when each depth's fronts were padded to its largest, A's
    # entries lived through the whole factor and every mesh kept its
    # (T, 3, 2) edge vectors
    config = StudyConfig(domain="III", bc_type="B1", formulation="naive",
                         source="const1", max_level=5)
    tracemalloc.start()
    try:
        run_study(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.5 * 2**20, peak / 2**20
