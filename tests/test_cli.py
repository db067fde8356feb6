import json
import time

import pytest

from raaggrowth import cli, oracle, pipeline
from raaggrowth.cli import EXIT_INVARIANT, MAX_DEGREE, MAX_VERTICES, main
from raaggrowth.oracle import ORACLE_MAX_WORDS
from raaggrowth.series import PowerSeries, RationalFunction


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


def test_conj_growth_nonzero_decomposable_block_exit_code(capsys, monkeypatch, tmp_path):
    # the table's decomposable keys are dropped only after they are seen to be 0
    path = tmp_path / "p4.json"
    path.write_text('{"vertices":["a","b","c","d"],"edges":[["a","b"],["b","c"],["c","d"]]}')
    real = pipeline.cycsl_support_table

    def table(g, vertices):
        result = real(g, vertices)
        result[(0, 1)] = RationalFunction.make([0, 1])  # {a, b} = {a} x {b} is decomposable
        return result

    monkeypatch.setattr(pipeline, "cycsl_support_table", table)
    code = main(["conj-growth", "--graph", str(path), "--max-degree", "4"])
    captured = capsys.readouterr()
    assert code == EXIT_INVARIANT
    assert captured.out == "" and "internal error" in captured.err


def test_conj_growth_per_subset(capsys, z2_file):
    code, out = run(capsys, "conj-growth", "--graph", z2_file, "--max-degree", "4", "--per-subset")
    doc = json.loads(out)
    assert code == 0
    assert doc["per_subset"]["{a}"]["rational"] == {"num": ["0", "2"], "den": ["1", "-1"]}


def test_conj_growth_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": []}')
    code, out = run(capsys, "conj-growth", "--graph", str(path), "--max-degree", "4", "--per-subset")
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma_tilde"] == ["1", "0", "0", "0", "0"]
    assert doc["per_subset"] == {}


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


def test_conj_growth_oracle_crosscheck_lowers_refused_length(capsys, monkeypatch, f2_file):
    # F2's ball of radius 4 holds 161 elements, so a bound of 150 words
    # admits the oracle to length 3; the cross-check runs there, not fails
    monkeypatch.setattr(oracle, "ORACLE_MAX_WORDS", 150)
    code, out = run(capsys, "conj-growth", "--graph", f2_file, "--max-degree", "6",
                    "--crosscheck", "oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["crosscheck"]["oracle_degree"] == 3
    assert doc["crosscheck"]["match"] is True
    assert doc["crosscheck"]["class_counts"] == doc["sigma_tilde"][:4]


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


def test_series_type_is_checked_by_the_series_layer(capsys):
    code = main(["rho", "--series", "[0, true, 2]"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: series coefficients must be ints, got True\n"


@pytest.mark.parametrize("command, option, value", [
    ("conj-growth", "--max-degree", "100000000000"),
    ("std-growth", "--expand", str(MAX_DEGREE + 1)),
])
def test_degree_bound_checked_before_any_work(capsys, z2_file, command, option, value):
    code = main([command, "--graph", z2_file, option, value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err.startswith(f"error: {option}")


@pytest.mark.parametrize("command", ["rho", "neck"])
def test_series_length_checked_before_any_work(capsys, monkeypatch, command):
    def refuse(series):
        raise AssertionError(f"{command} ran on a series that is too long")

    monkeypatch.setattr(cli, command, refuse)
    values = "[" + ",".join(["0"] * (MAX_DEGREE + 2)) + "]"
    code = main([command, "--series", values])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err.startswith("error: --series")


@pytest.mark.parametrize("command, endpoints, extra", [
    ("conj-growth", ["spherical_conj_series"], []),
    ("std-growth", ["spherical_growth_series"], []),
    ("geo-growth", ["geodesic_series"], []),
    ("conj-geo-growth", ["conj_geodesic_series"], []),
    ("oracle", ["enumerate_classes", "element_counts"], ["--max-length", "2"]),
])
def test_vertex_bound_checked_before_any_work(capsys, monkeypatch, tmp_path, command, endpoints, extra):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} ran on a graph above the vertex bound")

    for name in endpoints:
        monkeypatch.setattr(cli, name, refuse)
    labels = [f"v{i}" for i in range(MAX_VERTICES + 1)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vertices": labels, "edges": []}))
    code = main([command, "--graph", str(path)] + extra)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err.startswith(f"error: graph has {MAX_VERTICES + 1} vertices")


def test_vertex_bound_admits_the_bound(capsys, tmp_path):
    labels = [f"v{i}" for i in range(MAX_VERTICES)]
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"vertices": labels, "edges": []}))
    code, out = run(capsys, "oracle", "--graph", str(path), "--max-length", "1")
    assert code == 0
    assert json.loads(out)["element_counts"] == ["1", str(2 * MAX_VERTICES)]


# Z^8 is abelian: every class is one element, so the class counts are the element counts
Z8_COUNTS = ["1", "16", "128", "688", "2816", "9424", "27008", "68464", "157184"]


@pytest.mark.parametrize("edges, length", [("edgeless", 8), ("complete", 8), ("bipartite", 6)],
                         ids=["edgeless", "complete", "bipartite"])
def test_oracle_word_bound_refuses_largest_graphs(capsys, tmp_path, edges, length):
    # F8 to length 8 would hold billions of elements and K4,4 to length 6 more
    # than a million, so both are refused once ORACLE_MAX_WORDS is passed.
    # Z^8 to length 8 holds 265,729 elements, and each class orbit is a subset
    # of its layer, so it is answered.
    labels = [f"v{i}" for i in range(MAX_VERTICES)]
    half = MAX_VERTICES // 2
    pairs = {
        "edgeless": [],
        "complete": [[a, b] for i, a in enumerate(labels) for b in labels[i + 1:]],
        "bipartite": [[a, b] for a in labels[:half] for b in labels[half:]],
    }[edges]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": labels, "edges": pairs}))
    start = time.perf_counter()
    code = main(["oracle", "--graph", str(path), "--max-length", str(length)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    if edges == "complete":
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["element_counts"] == Z8_COUNTS
        assert doc["class_counts"] == Z8_COUNTS
    else:
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: oracle enumeration capped at {ORACLE_MAX_WORDS} words")
    assert elapsed < 30


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


def test_graph_document_with_unknown_key_is_refused(capsys, tmp_path):
    # an "edge" typo would otherwise leave F2 where Z^2 was meant
    path = tmp_path / "typo.json"
    path.write_text('{"vertices":["a","b"],"edge":[["a","b"]]}')
    code, out = run(capsys, "std-growth", "--graph", str(path), "--pretty")
    assert code == 1 and out == ""


def test_pretty_output(capsys, z2_file):
    code, out = run(capsys, "std-growth", "--graph", z2_file, "--pretty")
    assert code == 0
    assert "standard_growth" in out and "{" not in out.splitlines()[0]
