import contextlib
import csv
import io
import os
import re
import resource
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biharmfem.cli import main
from biharmfem.geometry import BC_TYPES, BUILTIN_NAMES
from biharmfem.sources import SOURCES
from biharmfem.study import FORMULATIONS
from conftest import skyline_domains


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

    def test_pinched_domain_is_config_error(self, tmp_path, capsys):
        # two unit squares sharing the point (1, 1)
        domain = tmp_path / "pinched.txt"
        domain.write_text("0 0\n1 0\n1 1\n2 1\n2 2\n1 2\n1 1\n0 1\n"
                          + "D\n" * 8)
        assert main(["mesh-info", "--domain-file", str(domain),
                     "--level", "1"]) == 1
        assert "vertex 2 touches edge 5" in capsys.readouterr().err

    def test_off_grid_vertex_is_config_error(self, tmp_path, capsys):
        # 3e-4 off the grid at y = 40, within np.allclose's default
        # relative tolerance there
        domain = tmp_path / "off_grid.txt"
        domain.write_text("0 0\n40 0\n40 40.0003\n0 40\n" + "D\n" * 4)
        assert main(["mesh-info", "--domain-file", str(domain)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: domain vertices must lie on the integer "
                              "unit grid: vertex 2 is at (40.0, 40.0003)")

    @pytest.mark.parametrize("cmd", ["mesh-info", "solve"])
    def test_negative_level_is_config_error(self, cmd, capsys):
        assert main([cmd, "--domain", "III", "--level", "-1"]) == 1
        assert "level must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, level, count", [
    (["study", "--levels", "40"], 40, "29,014,219,670,751,100,192,948,224"),
    (["solve", "--level", "40"], 40, "29,014,219,670,751,100,192,948,224"),
    (["mesh-info", "--level", "30"], 30, "27,670,116,110,564,327,424")])
def test_level_too_deep_is_config_error(argv, level, count):
    # red refinement makes T0 * 4**L triangles at level L (T0 = 24 on
    # III): a level past MAX_TRIANGLES exits 1 before refining.  Under a
    # 512 MiB address-space cap a run without the check ends in a
    # MemoryError traceback in place of exhausting the machine's memory
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "biharmfem", *argv],
                         capture_output=True, text=True, env=env,
                         preexec_fn=cap, timeout=120)
    assert run.returncode == 1, run.stderr
    assert run.stderr == (f"error: level {level} would have {count} "
                          f"triangles (24 * 4**{level}), more than the "
                          "8,388,608 a mesh may have\n")


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

    def test_incompatible_neumann_study_is_solver_error(self, capsys):
        code = main(["study", "--domain", "III", "--bc", "B5",
                     "--f", "const1", "--levels", "2"])
        assert code == 2
        assert "must integrate to 0" in capsys.readouterr().err


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

    @pytest.mark.parametrize("bc, formulation, source", [
        ("B1", "naive", "const1"),
        ("B5", "neumann-modified", "quadrant-step")])
    def test_failed_residual_check_is_solver_error(self, bc, formulation,
                                                   source, capsys):
        code = main(["study", "--domain", "III", "--bc", bc, "--f", source,
                     "--formulation", formulation, "--levels", "2",
                     "--tol", "1e-300"])
        assert code == 2
        assert "solver error:" in capsys.readouterr().err

    def test_backward_stable_solves_pass_tight_tol(self, capsys):
        # the level-5 mean-zero solves read a relative residual of about
        # 2e-12, over this tol, but a backward error near 1e-15
        code = main(["study", "--domain", "III", "--bc", "B5", "--f",
                     "quadrant-step", "--formulation", "modified",
                     "--levels", "5", "--tol", "1e-12"])
        assert code == 0, capsys.readouterr().err

    def test_zero_source_gives_empty_rates(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["study", "--domain", "III", "--bc", "B1", "--f", "zero",
                     "--levels", "2", "--out", str(out)])
        assert code == 0
        with open(out / "study.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["diff_h1_u"] for r in rows] == ["", "0.0", "0.0"]
        assert all(r["rate_u"] == r["rate_w"] == "" for r in rows)

    def test_rates_next_to_a_zero_difference_are_empty(self, tmp_path, capsys):
        # levels 0 and 1 of one triangle have no free node: the level-1
        # difference is 0, the later ones are positive
        domain = tmp_path / "tri.txt"
        domain.write_text("-1 0\n0 0\n-1 1\nD\nD\nD\n")
        out = tmp_path / "out"
        assert main(["study", "--domain-file", str(domain), "--levels", "3",
                     "--formulation", "naive", "--out", str(out)]) == 0
        with open(out / "study.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[1]["diff_h1_u"] == rows[1]["diff_h1_w"] == "0.0"
        assert rows[1]["rate_u"] == rows[1]["rate_w"] == ""
        assert float(rows[2]["rate_u"]) > 0 and float(rows[2]["rate_w"]) > 0

    def test_builtin_name_wins_over_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "III").write_text("not a domain file\n")
        assert main(["study", "--domain", "III", "--bc", "B1",
                     "--formulation", "naive", "--levels", "2"]) == 0
        assert "21" in capsys.readouterr().out

    @pytest.mark.parametrize("formulation", ["naive", "modified"])
    def test_all_dirichlet_unit_square(self, tmp_path, formulation, capsys):
        # level 0 has no free node: its fields are zero, not an error
        domain = tmp_path / "square.txt"
        domain.write_text("0 0\n1 0\n1 1\n0 1\nD\nD\nD\nD\n")
        out = tmp_path / "out"
        assert main(["study", "--domain-file", str(domain), "--f", "const1",
                     "--formulation", formulation, "--levels", "3",
                     "--out", str(out)]) == 0
        with open(out / "study.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["nodes"] for r in rows] == ["4", "9", "25", "81"]

    @pytest.mark.parametrize("flags", [
        ["--levels", "2", "--field-levels", "5", "--out", "d"],
        ["--levels", "2", "--field-levels", "-1", "--out", "d"],
        ["--levels", "2", "--field-levels", "1"],
        ["--levels", "1", "--out", "d"]],
        ids=["field-level-too-deep", "negative-field-level",
             "field-levels-without-out", "too-few-levels"])
    def test_bad_output_request_writes_nothing(self, flags, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["study", "--domain", "III", "--bc", "B1", *flags]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert os.listdir(tmp_path) == []

    def test_field_dump(self, tmp_path):
        out = tmp_path / "out"
        code = main(["study", "--domain", "III", "--bc", "B1",
                     "--levels", "2", "--field-levels", "1",
                     "--out", str(out)])
        assert code == 0
        assert (out / "u_level1.vtk").exists()


# one singular vertex each, 1 from an edge that does not end at it: the
# all-Dirichlet hexagon's (3, 1) and the pure-Neumann pentagon's (1, 1)
HEXAGON = "0 0\n5 0\n5 1\n3 1\n3 2\n0 2\n" + "D\n" * 6
PENTAGON = "0 0\n3 0\n3 3\n1 1\n0 1\n" + "N\n" * 5


class TestCutoffClearance:
    """A cutoff disk that reaches an edge not at the singular vertex is a
    configuration error, before any solve: the correction would break the
    boundary condition on that edge."""

    @pytest.mark.parametrize("cmd", ["study", "solve"])
    @pytest.mark.parametrize("text", [HEXAGON, PENTAGON],
                             ids=["hexagon", "pentagon"])
    def test_default_cutoff_past_the_clearance_is_config_error(
            self, cmd, text, tmp_path, capsys):
        domain = tmp_path / "domain.txt"
        domain.write_text(text)
        level = ["--levels", "2"] if cmd == "study" else ["--level", "1"]
        assert main([cmd, "--domain-file", str(domain), *level]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cutoff radius 1.8 reaches the "
                              "clearance 1 of singular vertex 3")
        assert "--cutoff-radius below 1" in err

    def test_cutoff_within_the_clearance_runs(self, tmp_path, capsys):
        domain = tmp_path / "hexagon.txt"
        domain.write_text(HEXAGON)
        assert main(["study", "--domain-file", str(domain), "--levels", "2",
                     "--cutoff-radius", "0.6"]) == 0, capsys.readouterr().err

    def test_small_cutoff_tau_runs(self, capsys):
        # the pair integral's two-order check used to refuse tau = 0.01
        assert main(["study", "--domain", "IV", "--bc", "B3", "--levels", "2",
                     "--cutoff-tau", "0.01"]) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["0.000999", "1e-300"])
    def test_cutoff_tau_below_its_floor_is_config_error(self, tau, capsys):
        assert main(["study", "--domain", "IV", "--bc", "B3", "--levels", "2",
                     "--cutoff-tau", tau]) == 1
        assert "tau must lie in [0.001, 1)" in capsys.readouterr().err


# a unit square: 9 nodes at level 1, against 65 for the built-in III
SQUARE = "0 0\n1 0\n1 1\n0 1\nD\nD\nD\nD\n"
LEVEL_1 = {"mesh-info": ["--level", "1"],
           "solve": ["--level", "1", "--formulation", "naive"],
           "study": ["--levels", "2", "--formulation", "naive"]}


def _level_1_nodes(out):
    found = re.search(r"level 1: (\d+) nodes", out)
    if found:
        return int(found.group(1))
    # the study table: level, nodes, ...
    return int(next(line.split()[1] for line in out.splitlines()
                    if line.split()[:1] == ["1"]))


@pytest.mark.parametrize("cmd", sorted(LEVEL_1))
class TestDomainResolution:
    """Every command resolves --domain and --domain-file the same way."""

    def _nodes(self, cmd, flags, capsys):
        assert main([cmd, *flags, *LEVEL_1[cmd]]) == 0
        return _level_1_nodes(capsys.readouterr().out)

    def test_domain_path_is_read(self, cmd, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sq.txt").write_text(SQUARE)
        assert self._nodes(cmd, ["--domain", "sq.txt"], capsys) == 9

    def test_domain_file_is_read_even_with_builtin_name(
            self, cmd, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "III").write_text(SQUARE)
        assert self._nodes(cmd, ["--domain-file", "III"], capsys) == 9

    def test_builtin_name_wins_over_file(self, cmd, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "III").write_text(SQUARE)
        assert self._nodes(cmd, ["--domain", "III"], capsys) == 65

    def test_unknown_name_is_config_error(self, cmd, capsys):
        assert main([cmd, "--domain", "VII"]) == 1
        assert "unknown domain" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["study", "solve"])
@pytest.mark.parametrize("flag, value", [
    ("--tol", "nan"), ("--tol", "inf"),
    ("--cutoff-radius", "nan"), ("--cutoff-radius", "inf"),
    ("--cutoff-tau", "nan")])
def test_non_finite_setting_is_config_error(cmd, flag, value, capsys):
    assert main([cmd, "--domain", "III", *LEVEL_1[cmd], flag, value]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("cmd", ["study", "solve"])
@pytest.mark.parametrize("tau, radius", [("0.125", "1e-300"),
                                         ("0.9999999999999999", "1")])
def test_unresolvable_cutoff_band_is_config_error(cmd, tau, radius, capsys):
    # a transition band narrower than the rounding of the coordinates;
    # R = 1e-300 overflowed the scale of chi'' with a traceback
    assert main([cmd, "--domain", "III", *LEVEL_1[cmd], "--cutoff-tau", tau,
                 "--cutoff-radius", radius]) == 1
    assert "cutoff band" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", sorted(LEVEL_1))
@pytest.mark.parametrize("coordinate, shown", [("nan", "nan"), ("1e400", "inf")])
def test_non_finite_vertex_is_config_error(cmd, coordinate, shown, tmp_path,
                                           capsys):
    domain = tmp_path / "sq.txt"
    domain.write_text(SQUARE.replace("1 1\n", f"{coordinate} 1\n"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([cmd, "--domain-file", str(domain), *LEVEL_1[cmd]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: vertex 2 has a non-finite coordinate")
    assert f"({shown}, 1.0)" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("cmd", ["mesh-info", "study"])
@pytest.mark.parametrize("size, shown", [("1e200", "1e+200"), ("1e5", "100000")])
def test_domain_beyond_grid_bound_is_config_error(cmd, size, shown, tmp_path,
                                                  capsys):
    # a 1e5 square would ask for a level-0 grid of 1e10 unit cells, and a
    # 1e200 one would overflow the polygon arithmetic
    domain = tmp_path / "sq.txt"
    domain.write_text(SQUARE.replace("1", size))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([cmd, "--domain-file", str(domain), *LEVEL_1[cmd]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: domain extent {shown} exceeds the level-0 "
                          "grid bound")
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _file_lines(dom):
    return ([f"{x:g} {y:g}" for x, y in dom.vertices]
            + [t.value for t in dom.tags])


# one line of a domain file: a small vertex, a tag, or something else
domain_lines = st.one_of(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
        lambda v: f"{v[0]} {v[1]}"),
    st.sampled_from(["D", "N", "# note", "", "D N", "1 2 3", "nan 0",
                     "0 inf", "1e400 0", "0.5 1", "70 0", "x y", "1_0 2"]),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=6))


@st.composite
def domain_texts(draw):
    """Domain-file text: a small grid polygon's file or random lines, with
    up to two lines replaced or inserted."""
    lines = draw(st.one_of(
        skyline_domains(max_columns=3, max_height=4).map(_file_lines),
        st.lists(domain_lines, max_size=12)))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines)))
        lines[k:k + draw(st.integers(0, 1))] = [draw(domain_lines)]
    return "\n".join(lines) + "\n"


@given(text=domain_texts(), command=st.sampled_from([
    ["mesh-info", "--level", "0"], ["mesh-info", "--level", "2"],
    ["study", "--levels", "2"]]))
@settings(max_examples=100, deadline=None)
def test_domain_file_fuzz_exits_with_a_code(text, command, tmp_path_factory):
    # outside input reaches the domain checks and the level-0 grid: every
    # run ends with exit code 0, 1 or 2 and no exception escapes
    path = tmp_path_factory.getbasetemp() / "fuzz_domain.txt"
    path.write_text(text, encoding="utf-8")
    assert main([*command, "--domain-file", str(path)]) in (0, 1, 2)


def _mostly(usual, odd):
    """usual about 7 times in 8, else odd."""
    return st.sampled_from([usual] * 7 + [odd]).flatmap(lambda s: s)


def _number(lo, hi, *usual):
    """A number in [lo, hi] or a usual one, else any float in [-1, 4] or
    one that is zero, negative, tiny, not finite or not a number."""
    return _mostly(
        st.one_of(st.sampled_from(usual), st.floats(lo, hi)).map(repr),
        st.one_of(st.floats(-1.0, 4.0).map(repr),
                  st.sampled_from(["0", "-1", "nan", "inf", "1e-300", "x"])))


@st.composite
def cli_argvs(draw, out_dir):
    """An argv for ``study``, ``solve`` or ``mesh-info`` at levels <= 3
    (``solve`` and ``mesh-info`` default to 3 and 0): domain,
    formulations, source, tolerance, cutoffs and, for a study, --compare,
    --out and --field-levels; each option is present half the time and
    then out of its range about one time in eight."""
    command = draw(st.sampled_from(["study", "solve", "mesh-info"]))
    argv = [command]

    def option(flag, values):
        if draw(st.booleans()):
            argv.extend([flag, draw(values)])

    def choice(valid, odd):
        return _mostly(st.sampled_from(valid), st.just(odd))

    option("--domain", choice(BUILTIN_NAMES, "V"))
    option("--bc", choice(BC_TYPES, "B9"))
    level = _mostly(st.integers(0, 3), st.just(-1)).map(str)
    if command == "mesh-info":
        option("--level", level)
        return argv
    option("--formulation", choice(FORMULATIONS, "exact"))
    option("--f", choice(sorted(SOURCES), "sine"))
    option("--tol", _number(1e-13, 1e-6, 1e-10, 1e-12))
    option("--cutoff-tau", _number(0.05, 0.95, 0.125, 0.25))
    option("--cutoff-radius", _number(0.5, 3.0, 1.8, 1.2))
    if command == "solve":
        option("--level", level)
        return argv
    levels = draw(_mostly(st.integers(2, 3), st.integers(-1, 1)))
    argv.extend(["--levels", str(levels)])      # the default is 6
    option("--compare", choice(FORMULATIONS, "exact"))
    if draw(st.booleans()):
        argv.extend(["--out", str(out_dir)])
    if draw(st.booleans()):
        fields = _mostly(st.integers(0, max(levels, 0)), st.just(levels + 1))
        argv.extend(["--field-levels",
                     *map(str, draw(st.lists(fields, max_size=3)))])
    return argv


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_argument_fuzz_exits_with_a_code(data, tmp_path_factory):
    # every combination of the options ends with exit code 0, 1 or 2,
    # with its messages on stdout/stderr and no exception escaping
    argv = data.draw(cli_argvs(tmp_path_factory.getbasetemp() / "fuzz_out"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
