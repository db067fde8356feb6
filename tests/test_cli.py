import json

import pytest

from raaggrowth import pipeline
from raaggrowth.cli import EXIT_INVARIANT, MAX_DEGREE, main
from raaggrowth.series import PowerSeries


@pytest.fixture
def z2_file(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text('{"vertices":["a","b"],"edges":[["a","b"]]}')
    return str(path)


@pytest.fixture
def f2_file(tmp_path):
    path = tmp_path / "f2.json"
    path.write_text('{"vertices":["a","b"],"edges":[]}')
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_conj_growth_z2(capsys, z2_file):
    code, out = run(capsys, "conj-growth", "--graph", z2_file, "--max-degree", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma_tilde"] == ["1", "4", "8", "12", "16", "20", "24"]
    assert "per_subset" not in doc


def test_conj_growth_invariant_failure_exit_code(capsys, monkeypatch, z2_file):
    # a rho that returns negative counts breaks the invariant on sigma~
    monkeypatch.setattr(pipeline, "rho", lambda f: PowerSeries(tuple(-c for c in f.coefficients)))
    code = main(["conj-growth", "--graph", z2_file, "--max-degree", "4"])
    captured = capsys.readouterr()
    assert code == EXIT_INVARIANT and EXIT_INVARIANT not in (0, 1, 2)
    assert captured.out == "" and "internal error" in captured.err


def test_conj_growth_per_subset(capsys, z2_file):
    code, out = run(capsys, "conj-growth", "--graph", z2_file, "--max-degree", "4", "--per-subset")
    doc = json.loads(out)
    assert code == 0
    assert doc["per_subset"]["{a}"]["rational"] == {"num": ["0", "2"], "den": ["1", "-1"]}


def test_conj_growth_part1_crosscheck(capsys, f2_file):
    code, out = run(capsys, "conj-growth", "--graph", f2_file, "--max-degree", "8",
                    "--crosscheck", "part1")
    assert code == 0
    doc = json.loads(out)
    assert doc["crosscheck"]["family"] == "free-2"
    assert doc["crosscheck"]["match"] is True


def test_conj_growth_part1_crosscheck_unknown_family(capsys, tmp_path):
    path = tmp_path / "tri.json"
    path.write_text('{"vertices":["a","b","c"],"edges":[["a","b"],["b","c"]]}')
    code, _ = run(capsys, "conj-growth", "--graph", str(path), "--crosscheck", "part1")
    assert code == 1


def test_conj_growth_oracle_crosscheck(capsys, z2_file):
    code, out = run(capsys, "conj-growth", "--graph", z2_file, "--max-degree", "6",
                    "--crosscheck", "oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["crosscheck"]["match"] is True
    assert doc["crosscheck"]["class_counts"] == ["1", "4", "8", "12", "16", "20", "24"]


def test_std_growth(capsys, z2_file):
    code, out = run(capsys, "std-growth", "--graph", z2_file, "--expand", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["standard_growth"] == {"num": ["1", "2", "1"], "den": ["1", "-2", "1"]}
    assert doc["series"] == ["1", "4", "8", "12", "16"]


def test_geo_growth(capsys, z2_file):
    code, out = run(capsys, "geo-growth", "--graph", z2_file, "--expand", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["series"] == ["1", "4", "12", "28"]


def test_conj_geo_growth_methods_agree(capsys, f2_file):
    _, out_direct = run(capsys, "conj-geo-growth", "--graph", f2_file, "--method", "direct")
    _, out_ie = run(capsys, "conj-geo-growth", "--graph", f2_file, "--method", "incl-excl")
    direct = json.loads(out_direct)["conjugacy_geodesic_growth"]
    ie = json.loads(out_ie)["conjugacy_geodesic_growth"]
    assert direct == ie


def test_oracle_subcommand(capsys, f2_file):
    code, out = run(capsys, "oracle", "--graph", f2_file, "--max-length", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["class_counts"] == ["1", "4", "8", "12", "26"]
    assert doc["element_counts"] == ["1", "4", "12", "36", "108"]


def test_rho_utility(capsys):
    code, out = run(capsys, "rho", "--series", "[0,2,2,2,2]")
    assert code == 0
    assert json.loads(out)["rho"] == ["0", "2", "2", "2", "2"]


def test_rho_rejects_bad_input(capsys):
    code, _ = run(capsys, "rho", "--series", "[1,2]")
    assert code == 1
    code, _ = run(capsys, "rho", "--series", "[0,0,1]")
    assert code == 1  # non-integral coefficient surfaced


@pytest.mark.parametrize("value", ["2.7", "2.0", '"3"', "true", "null", "[2]", '{"c": 2}'])
def test_series_rejects_non_integer_values(capsys, value):
    code = main(["rho", "--series", f"[0, {value}, 2, 2]"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("command, option, value", [
    ("conj-growth", "--max-degree", "100000000000"),
    ("std-growth", "--expand", str(MAX_DEGREE + 1)),
])
def test_degree_bound_checked_before_any_work(capsys, z2_file, command, option, value):
    code = main([command, "--graph", z2_file, option, value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err.startswith(f"error: {option}")


def test_neck_utility(capsys):
    code, out = run(capsys, "neck", "--series", "[0,1,0,0,0,0]")
    assert code == 0
    assert json.loads(out)["neck"] == ["0", "1", "1", "1", "1", "1"]


def test_missing_graph_file(capsys):
    code, _ = run(capsys, "std-growth", "--graph", "/nonexistent/g.json")
    assert code == 1


def test_malformed_graph_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices":["a","a"],"edges":[]}')
    code, _ = run(capsys, "std-growth", "--graph", str(path))
    assert code == 1


def test_pretty_output(capsys, z2_file):
    code, out = run(capsys, "std-growth", "--graph", z2_file, "--pretty")
    assert code == 0
    assert "standard_growth" in out and "{" not in out.splitlines()[0]
