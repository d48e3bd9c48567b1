import csv
import os

import pytest

from biharmfem.cli import main


class TestHelp:
    @pytest.mark.parametrize("cmd", ["study", "solve", "mesh-info", "domains"])
    def test_subcommand_help_exits_zero(self, cmd, capsys):
        assert main([cmd, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--" in out or cmd == "domains"

    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for cmd in ("study", "solve", "mesh-info", "domains"):
            assert cmd in out

    def test_unknown_flag_is_config_error(self):
        assert main(["study", "--nonsense"]) == 1

    def test_missing_subcommand_is_config_error(self):
        assert main([]) == 1


class TestDomainsCommand:
    def test_lists_builtins_with_dimensions(self, capsys):
        assert main(["domains"]) == 0
        out = capsys.readouterr().out
        assert "IV B3" in out
        assert "1.75 pi" in out
        assert "d_perp = 2" in out


class TestMeshInfoCommand:
    def test_prints_counts(self, capsys):
        assert main(["mesh-info", "--domain", "III", "--bc", "B1",
                     "--level", "1"]) == 0
        out = capsys.readouterr().out
        assert "96 triangles" in out
        assert "conforming: yes" in out

    def test_bad_domain_is_config_error(self, capsys):
        assert main(["mesh-info", "--domain", "VII"]) == 1

    @pytest.mark.parametrize("cmd", ["mesh-info", "solve"])
    def test_negative_level_is_config_error(self, cmd, capsys):
        assert main([cmd, "--domain", "III", "--level", "-1"]) == 1
        assert "level must be >= 0" in capsys.readouterr().err


class TestSolveCommand:
    def test_single_solve_prints_coefficients(self, capsys):
        assert main(["solve", "--domain", "III", "--bc", "B1",
                     "--f", "const1", "--level", "2"]) == 0
        out = capsys.readouterr().out
        assert "d_perp = 1" in out
        assert "coefficients:" in out

    def test_incompatible_neumann_source_is_solver_error(self, capsys):
        code = main(["solve", "--domain", "III", "--bc", "B5",
                     "--f", "const1", "--formulation", "neumann-modified",
                     "--level", "1"])
        assert code == 2
        assert "compatib" in capsys.readouterr().err


class TestStudyCommand:
    def test_level_minimum_enforced(self, capsys):
        assert main(["study", "--domain", "III", "--levels", "1"]) == 1

    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["study", "--domain", "III", "--bc", "B1",
                     "--f", "const1", "--levels", "2",
                     "--formulation", "modified", "--out", str(out)])
        assert code == 0
        csv_path = out / "study.csv"
        assert csv_path.exists()
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert rows[0]["nodes"] == "21"
        assert not any(name.endswith(".tmp") for name in os.listdir(out))

    def test_field_dump(self, tmp_path):
        out = tmp_path / "out"
        code = main(["study", "--domain", "III", "--bc", "B1",
                     "--levels", "2", "--field-levels", "1",
                     "--out", str(out)])
        assert code == 0
        assert (out / "u_level1.vtk").exists()
