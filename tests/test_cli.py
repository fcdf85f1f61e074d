"""Shell contract: exit codes, exact lines, JSON shapes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import picweyl
from picweyl.cli import main

NINE = [(0, 14), (22, 79), (76, 92), (6, 33), (92, 65), (87, 75), (85, 75),
        (99, 92), (66, 81)]
TEN = NINE[:8] + [(9, 34), (28, 9)]


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as stop:  # argparse-level usage errors
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def nine_points_file(tmp_path):
    path = tmp_path / "nine.json"
    path.write_text(json.dumps({"points": [[str(x), str(y), "1"] for x, y in NINE]}))
    return str(path)


@pytest.fixture()
def ten_points_file(tmp_path):
    path = tmp_path / "ten.json"
    path.write_text(json.dumps([[str(x), str(y), "1"] for x, y in TEN]))
    return str(path)


@pytest.fixture()
def params_file(tmp_path):
    # powers x^0 .. x^9 of the degree-12 generator over GF(5^12)
    path = tmp_path / "params.json"
    rows = []
    for i in range(10):
        coeffs = ["0"] * 12
        coeffs[i] = "1"
        rows.append(coeffs)
    path.write_text(json.dumps({"params": rows}))
    return str(path)


class TestExactLines:
    def test_residue_counts(self, capsys):
        code, out, _ = run(capsys, "residue-counts")
        assert code == 0
        assert out == "isotropic=528 norm_one=496\n"

    def test_harbourne_true_line(self, capsys, params_file):
        code, out, _ = run(
            capsys, "harbourne-check", "--p", "5", "--e", "12", "--params", params_file
        )
        assert code == 0
        assert out == "harbourne=true kernel=pK_perp\n"

    def test_harbourne_false_line(self, capsys, tmp_path):
        rows = []
        for i in range(10):
            coeffs = ["0"] * 12
            coeffs[i] = "1"
            rows.append(coeffs)
        rows[1] = rows[0]  # duplicate parameter collapses the kernel test
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"params": rows}))
        code, out, _ = run(
            capsys, "harbourne-check", "--p", "5", "--e", "12", "--params", str(path)
        )
        assert code == 0
        assert out == "harbourne=false kernel=strictly_larger\n"

    def test_coble_conditions_totals(self, capsys):
        code, out, _ = run(capsys, "coble-conditions")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "total: 496"
        counts = dict(l.split(": ") for l in lines[:-1])
        assert counts == {
            "coincident_pair": "45",
            "collinear_triple": "120",
            "conic_six": "210",
            "singular_cubic_eight": "120",
            "triple_point_quartic": "1",
        }


class TestLattice:
    def test_gram_plain(self, capsys):
        code, out, _ = run(capsys, "gram", "--n", "9")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 9
        assert rows[0].split() == ["-2", "0", "0", "1", "0", "0", "0", "0", "0"]

    def test_gram_json(self, capsys):
        code, out, _ = run(capsys, "gram", "--n", "10", "--json")
        data = json.loads(out)
        assert data["n"] == 10
        assert data["gram"][0][0] == -2

    def test_seed_is_rejected_where_nothing_is_random(self, capsys):
        # --trace likewise exists only where something reads it
        for flag in (["--seed", "1"], ["--trace"]):
            code, out, err = run(capsys, "gram", "--n", "10", *flag)
            assert code == 1
            assert out == ""
            assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_enumerate_roots(self, capsys):
        code, out, _ = run(capsys, "enumerate-roots", "--n", "10", "--max-degree", "2")
        assert code == 0
        assert out.splitlines() == [
            "degree 0: 45",
            "degree 1: 120",
            "degree 2: 210",
            "total: 375",
        ]

    def test_enumerate_roots_cap(self, capsys):
        code, _, err = run(capsys, "enumerate-roots", "--n", "17")
        assert code == 2
        assert "capped" in err

    def test_classify_words(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "10", "--word", "1")
        assert code == 0 and out.startswith("kind=Elliptic order=2")
        code, out, _ = run(
            capsys, "classify", "--n", "10", "--word", "0,1,2,3,4,5,6,7,8,9"
        )
        assert code == 0
        assert out.startswith("kind=Hyperbolic spectral_radius=1.1762808182599")

    def test_classify_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "9", "--word", "0", "--json")
        data = json.loads(out)
        assert data["kind"] == "Elliptic" and data["order"] == 2

    def test_reduce_with_trace(self, capsys):
        vec = json.dumps([3, -2, -1, -1, -1, -1, -1, -1, -1, 0, 0])
        code, out, _ = run(capsys, "reduce", "--n", "10", "--vector", vec, "--trace")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("step 1: apply s_")
        assert lines[-2].startswith("terminal=")
        assert lines[-1].startswith("word=")

    def test_reduce_identity_case(self, capsys):
        vec = json.dumps([0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0])
        code, out, _ = run(capsys, "reduce", "--n", "10", "--vector", vec, "--json")
        data = json.loads(out)
        assert data["terminal"] == [0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0]
        assert data["word"] == []

    def test_orbit_fixed(self, capsys):
        code, out, _ = run(capsys, "orbit-fixed", "--n", "9", "--word", "0", "--json")
        data = json.loads(out)
        assert data["fixed_rank"] == 9
        assert len(data["basis"]) == 9


class TestPointCommands:
    def test_halphen_check(self, capsys, nine_points_file):
        code, out, _ = run(
            capsys, "halphen-check", "--p", "101", "--m", "2",
            "--points", nine_points_file,
        )
        assert code == 0 and out == "halphen=true\n"

    def test_coble_check(self, capsys, ten_points_file):
        code, out, _ = run(
            capsys, "coble-check", "--p", "101", "--points", ten_points_file
        )
        # the fixture lies on a cubic, so -K is effective: not a Coble set
        assert code == 0 and out == "coble=false violations=1\n"

    def test_cremona_act_json(self, capsys, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(
            json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                        ["1", "1", "1"], ["3", "7", "1"]])
        )
        code, out, _ = run(
            capsys, "cremona-act", "--p", "101", "--word", "0",
            "--points", str(path), "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["points"][3] == ["1", "1", "1"]  # the unit point is fixed

    def test_cremona_act_domain_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps([["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"],
                        ["1", "1", "1"], ["3", "7", "1"]])
        )
        code, _, err = run(
            capsys, "cremona-act", "--p", "101", "--word", "0", "--points", str(path)
        )
        assert code == 2
        assert "collinear" in err


@pytest.fixture()
def gens_file(tmp_path):
    rng = random.Random(0)
    from picweyl import ResidueModule

    module = ResidueModule(6)
    while True:
        gens = [tuple(rng.randrange(6) for _ in range(10)) for _ in range(8)]
        if module.submodule(gens).free_rank == 8:
            break
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"generators": [list(g) for g in gens]}))
    return str(path)


class TestFindRoot:
    @pytest.mark.parametrize("method", ["theory", "bfs"])
    def test_found(self, capsys, gens_file, method):
        code, out, _ = run(
            capsys, "find-root-mod", "--m", "6", "--method", method,
            "--gens", gens_file, "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "found"
        assert data["certificate"]["modulus"] == 6

    def test_zero_budget_inconclusive(self, capsys, gens_file):
        code, out, _ = run(
            capsys, "find-root-mod", "--m", "6", "--method", "theory",
            "--budget", "0", "--gens", gens_file,
        )
        assert code == 3
        assert out.startswith("status=inconclusive")


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "find-root-mod", "--m", "6")
        assert code == 1

    def test_missing_field_flag(self, capsys, nine_points_file):
        code, _, err = run(capsys, "halphen-check", "--m", "2",
                           "--points", nine_points_file)
        assert code == 1
        assert "--p is required" in err

    @pytest.mark.parametrize("e", ["0", "-2"])
    def test_extension_degree_below_one(
        self, capsys, nine_points_file, ten_points_file, params_file, e
    ):
        # these once ran silently over the prime field
        for argv in (
            ["halphen-check", "--m", "2", "--points", nine_points_file],
            ["coble-check", "--points", ten_points_file],
            ["harbourne-check", "--params", params_file],
            ["cremona-act", "--word", "0", "--points", nine_points_file],
        ):
            code, out, err = run(capsys, *argv, "--p", "101", "--e", e)
            assert code == 1, argv
            assert out == ""
            assert "usage error: --e must be at least 1" in err

    def test_missing_word(self, capsys):
        code, _, _ = run(capsys, "classify", "--n", "10")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify", "{matrix}", "--word", "0"], "give --word or an input file, not both"),
            (["classify", "{matrix}", "--n", "9"],
             "--n 9 disagrees with the matrix, which has n = 10"),
            (["classify", "--word", "0", "{word}"], "give --word or an input file, not both"),
            (["cremona-act", "--p", "101", "--word", "0", "--points", "{five}", "{word}"],
             "give --word or an input file, not both"),
            (["orbit-fixed", "--word", "0", "{word}"], "give --word or an input file, not both"),
        ],
        ids=["classify-matrix-word", "classify-matrix-n", "classify-word-file",
             "cremona-act-word-file", "orbit-fixed-word-file"],
    )
    def test_conflicting_sources_are_usage_errors(self, capsys, pin_files, argv, message):
        # each of these once ran on one source and silently dropped the other
        code, out, err = run(capsys, *(a.format(**pin_files) for a in argv))
        assert (code, out, err) == (1, "", f"usage error: {message}\n")

    def test_reduce_outside_the_root_orbit_is_a_domain_error(self, capsys):
        # (3; 1^10, -1) is a root of k_11-perp that no Weyl word carries to a
        # simple root; it was once printed as its own terminal with word=[]
        vec = json.dumps([3] + [-1] * 10 + [1])
        for extra in ([], ["--trace"], ["--json"]):
            code, out, err = run(capsys, "reduce", "--n", "11", "--vector", vec, *extra)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "Weyl orbit" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["find-root-mod", "--m", "6", "--gens", "{gens}", "--budget", "-1"],
            ["find-root-mod", "--m", "6", "--gens", "{gens}", "--budget", "-1",
             "--method", "bfs"],
            ["enumerate-roots", "--n", "10", "--max-degree", "-3"],
        ],
        ids=["budget", "budget-bfs", "max-degree"],
    )
    def test_negative_bounds_are_usage_errors(self, capsys, gens_file, argv):
        # these once ran a search bounded by a negative depth or degree
        code, out, err = run(capsys, *(a.format(gens=gens_file) for a in argv))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbit-fixed", "--n", "-2", "--word", "0"],
            ["enumerate-roots", "--n", "-2"],
            ["enumerate-roots", "--n", "1"],
        ],
        ids=["orbit-fixed", "enumerate-roots", "enumerate-roots-1"],
    )
    def test_too_few_points_are_a_domain_error(self, capsys, argv):
        # these once printed an empty answer and exited 0
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: need n >= 3") and err.count("\n") == 1

    def test_list_params_over_a_prime_field_are_a_domain_error(self, capsys, params_file):
        # coefficient lists with the default --e 1 once escaped as a TypeError
        code, out, err = run(capsys, "harbourne-check", "--p", "5", "--params", params_file)
        assert code == 2
        assert out == ""
        assert err.startswith("error: expected a scalar in GF(5), got a list")
        assert err.count("\n") == 1

    def test_bad_json_file_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "coble-check", "--p", "101", "--points", str(path))
        assert code == 2

    def test_missing_file_is_domain_error(self, capsys):
        code, _, _ = run(capsys, "coble-check", "--p", "101",
                         "--points", "/nonexistent/nowhere.json")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, data, key",
        [
            (["find-root-mod", "--m", "6", "--gens"], {"gens": [[1] + [0] * 9]}, "generators"),
            (["halphen-check", "--p", "101", "--points"], {"pts": [[0, 14, 1]]}, "points"),
            (["harbourne-check", "--p", "5", "--e", "2", "--params"], {"param": [[1, 0]]},
             "params"),
        ],
        ids=["gens", "points", "params"],
    )
    def test_json_object_without_its_key_is_a_domain_error(self, capsys, tmp_path, argv,
                                                           data, key):
        # the KeyError once reached main's catch-all and printed a bare key name
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err == f'error: {path} has no "{key}" key\n'

    @pytest.mark.parametrize(
        "flag, data, bad",
        [
            (None, {"word": ["0", 1.2, 2]}, "1.2"),
            (None, {"matrix": [[True] + [0] * 9] + [[0] * 10] * 9}, "true"),
            ("--gens", {"generators": [[1, 0, 2.0] + [0] * 7]}, "2.0"),
        ],
        ids=["word-file", "matrix-file", "gens-file"],
    )
    def test_non_integer_json_is_a_domain_error(self, capsys, tmp_path, flag, data, bad):
        # these once classified [0.9, 1.2, true, 2] as the word [0, 1, 1, 2]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        if flag is None:
            argv = ["classify", str(path)]
        else:
            argv = ["find-root-mod", "--m", "6", flag, str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {bad} is not an integer\n"

    @pytest.mark.parametrize(
        "argv, data, bad",
        [
            (["harbourne-check", "--p", "5", "--e", "3", "--params"],
             {"params": [True, [0, 1, 0], [0, 0, 1]]}, "true"),
            (["harbourne-check", "--p", "5", "--e", "3", "--params"],
             {"params": [[[0, 1], 0, 0], [0, 1, 0]]}, "[0, 1]"),
            (["harbourne-check", "--p", "5", "--e", "3", "--params"],
             {"params": [["1", "0", "0"], ["0", "1", "0"], [2, 3, 1.5]]}, "1.5"),
            (["halphen-check", "--p", "101", "--points"],
             {"points": [[0, 14, True]] + [[x, y, 1] for x, y in NINE[1:]]}, "true"),
            (["halphen-check", "--p", "101", "--points"],
             {"points": [[x, y, 1] for x, y in NINE[:8]] + [[66, 81.0, 1]]}, "81.0"),
        ],
        ids=["bool-element", "nested-coefficient", "float-coefficient", "bool-coordinate",
             "float-coordinate"],
    )
    def test_non_integer_field_elements_are_domain_errors(self, capsys, tmp_path, argv, data,
                                                          bad):
        # over GF(p^e) the first two once crashed with a traceback, and the
        # third read 1.5 as 1 and answered harbourne=true; over GF(p) the
        # fourth read true as 1 and answered halphen=true
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {bad} is not an integer\n"

    @pytest.mark.parametrize("scalar", [1, "1"], ids=["integer", "string"])
    def test_extension_scalar_params_read_as_base_field_elements(self, capsys, tmp_path,
                                                                 params_file, scalar):
        # a bare integer once crashed with a traceback; it is the F_p
        # scalar, as a numeric string is, so x^0 = 1 may be written either way
        data = json.loads(Path(params_file).read_text())
        data["params"][0] = scalar
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps(data))
        for flags in ([], ["--json"]):
            expected = run(capsys, "harbourne-check", "--p", "5", "--e", "12", "--params",
                           params_file, *flags)
            assert run(capsys, "harbourne-check", "--p", "5", "--e", "12", "--params",
                       str(path), *flags) == expected
            assert expected[0] == 0


class TestReport:
    def test_contents(self, capsys):
        code, out, _ = run(capsys, "report", "--seed", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "picweyl report"
        assert lines[1].startswith("version=")
        assert lines[2] == "seed=7"
        assert "residue_counts: isotropic=528 norm_one=496" in lines
        assert "root_census_n10: 0:45 1:120 2:210 3:360 4:850" in lines
        assert "coble_families: shapes=5 total_classes=496" in lines
        assert any(l.startswith("lehmer_word_radius=1.1762808182599") for l in lines)
        assert any(l.startswith("field_descriptors:") for l in lines)

    def test_byte_identical_for_same_seed(self):
        cmd = [sys.executable, "-m", "picweyl.cli", "report", "--seed", "3"]
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("picweyl ")


# -- pinned output ---------------------------------------------------------------
# Exact stdout and exit code of the paths no other test runs.  A long stdout
# is pinned by its SHA-256.

PINNED = [
    ("enumerate-roots-json", 0,
     ["enumerate-roots", "--n", "10", "--max-degree", "2", "--json"],
     "sha256:005c145bbb41db6388d685abde8714b43522e7ee06d48e8245a4e79eb092d191"),
    ("coble-conditions-json", 0,
     ["coble-conditions", "--json"],
     "sha256:791a217548fc20dad65d26b72c72df0ffe2d6d8d06942b54ae5974f15b488fe6"),
    ("residue-counts-json", 0,
     ["residue-counts", "--json"],
     '{"isotropic":528,"norm_one":496}\n'),
    ("halphen-check-json", 0,
     ["halphen-check", "--p", "101", "--m", "2", "--points", "{nine}", "--json"],
     '{"halphen":true}\n'),
    ("halphen-check-json-false", 0,
     ["halphen-check", "--p", "101", "--m", "2", "--points", "{nine_collinear}", "--json"],
     '{"halphen":false,"witness":[1,-1,-1,-1,0,0,0,0,0,0]}\n'),
    ("halphen-check-false", 0,
     ["halphen-check", "--p", "101", "--m", "2", "--points", "{nine_collinear}"],
     "halphen=false witness=[1,-1,-1,-1,0,0,0,0,0,0]\n"),
    ("coble-check-json", 0,
     ["coble-check", "--p", "101", "--points", "{ten}", "--json"],
     '{"coble":false,"report":{"sextic_dimension":0,"sextic_effective":true,"violations":'
     '[{"class":["3","-1","-1","-1","-1","-1","-1","-1","-1","-1","-1"],"dimension":0,'
     '"index_set":[1,2,3,4,5,6,7,8,9,10],"label":"anticanonical_cubic"}]}}\n'),
    ("coble-check-false", 0,
     ["coble-check", "--p", "101", "--points", "{ten_collinear}"],
     "coble=false violations=6\n"),
    ("harbourne-check-json", 0,
     ["harbourne-check", "--p", "5", "--e", "12", "--params", "{params}", "--json"],
     '{"harbourne":true,"info":{"kernel":"5 * (canonical complement)","rank":10}}\n'),
    ("report-json", 0,
     ["report", "--seed", "2", "--json"],
     "sha256:eb313fa05331961bf655ae7c26117edaf467da470aaf69f3aa48f495f9a1cb3b"),
    ("find-root-mod", 0,
     ["find-root-mod", "--m", "6", "--gens", "{gens}"],
     "status=found root=[0,0,1,-1,0,0,0,0,0,0,0]\nword=[2,1]\n"),
    ("find-root-mod-trace", 0,
     ["find-root-mod", "--m", "6", "--method", "bfs", "--gens", "{gens}", "--trace"],
     "trace: search depth 0\nstatus=found root=[0,0,1,-1,0,0,0,0,0,0,0]\nword=[]\n"),
    ("find-root-mod-json-trace", 0,
     ["find-root-mod", "--m", "6", "--method", "bfs", "--gens", "{gens}", "--json", "--trace"],
     '{"certificate":{"base":2,"method":"OrbitBFS","modulus":6,"residue":[0,0,1,0,0,0,0,0,0,0],'
     '"root":["0","0","1","-1","0","0","0","0","0","0","0"],"word":[]},"status":"found",'
     '"trace":["search depth 0"]}\n'),
    ("find-root-mod-inconclusive-json-trace", 3,
     ["find-root-mod", "--m", "6", "--budget", "0", "--gens", "{gens}", "--json", "--trace"],
     '{"certificate":{"method":"Theory","modulus":6,"reason":"no word of length <= 0 '
     'carries the base root into the submodule","residue":[0,0,0,4,0,0,0,4,1,2]},'
     '"status":"inconclusive","trace":[]}\n'),
    ("find-root-mod-inconclusive-json", 3,
     ["find-root-mod", "--m", "6", "--budget", "0", "--gens", "{gens}", "--json"],
     '{"certificate":{"method":"Theory","modulus":6,"reason":"no word of length <= 0 '
     'carries the base root into the submodule","residue":[0,0,0,4,0,0,0,4,1,2]},'
     '"status":"inconclusive"}\n'),
    # the theory target runs out of budget on these generators; the search still runs
    ("find-root-mod-target-budget", 0,
     ["find-root-mod", "--m", "16", "--gens", "{gens16}"],
     "status=found root=[1,0,0,0,-1,-1,0,0,-1,0,0]\nword=[2,3,0,4,3,2,5,4,3,6,7]\n"),
    ("find-root-mod-target-budget-json", 0,
     ["find-root-mod", "--m", "16", "--gens", "{gens16}", "--json"],
     '{"certificate":{"base":1,"method":"Theory","modulus":16,"residue":[1,1,2,3,2,1,1,1,0,0],'
     '"root":["1","0","0","0","-1","-1","0","0","-1","0","0"],"target":null,'
     '"word":[2,3,0,4,3,2,5,4,3,6,7]},"status":"found"}\n'),
    ("cremona-act", 0,
     ["cremona-act", "--p", "101", "--word", "0", "--points", "{five}"],
     '["1","0","0"]\n["0","1","0"]\n["0","0","1"]\n["1","1","1"]\n["34","29","1"]\n'),
    ("orbit-fixed", 0,
     ["orbit-fixed", "--n", "9", "--word", "0"],
     "fixed_rank=9\n[-1,1,0,0,0,0,0,0,0,0]\n[-1,0,1,0,0,0,0,0,0,0]\n[-1,0,0,1,0,0,0,0,0,0]\n"
     "[0,0,0,0,1,0,0,0,0,0]\n[0,0,0,0,0,1,0,0,0,0]\n[0,0,0,0,0,0,1,0,0,0]\n[0,0,0,0,0,0,0,1,"
     "0,0]\n[0,0,0,0,0,0,0,0,1,0]\n[0,0,0,0,0,0,0,0,0,1]\n"),
    ("classify-matrix", 0,
     ["classify", "{matrix}"],
     "kind=Elliptic order=6 witness=[9,-3,-3,-3,0,0,0,0,0,0,0]\n"),
    ("classify-matrix-agreeing-n", 0,
     ["classify", "--n", "10", "{matrix}"],
     "kind=Elliptic order=6 witness=[9,-3,-3,-3,0,0,0,0,0,0,0]\n"),
    ("classify-parabolic", 0,
     ["classify", "--n", "9", "--word", "0,1,2,3,4,5,6,7,8"],
     "kind=Parabolic witness=[3,-1,-1,-1,-1,-1,-1,-1,-1,-1]\n"),
    ("classify-json-hyperbolic", 0,
     ["classify", "--n", "10", "--word", "0,1,2,3,4,5,6,7,8,9", "--json"],
     '{"kind":"Hyperbolic","spectral_radius":1.1762808182599171}\n'),
    ("reduce-json-trace", 0,
     ["reduce", "--n", "10", "--vector", "[3,-2,-1,-1,-1,-1,-1,-1,-1,0,0]", "--json", "--trace"],
     "sha256:b178cb042072017e2e817c8843fc2331bd605672f93f08005bd8ad92ed8a2ac0"),
    ("reduce-no-vector", 1,
     ["reduce", "--n", "10"],
     ""),
    ("reduce-wrong-length", 2,
     ["reduce", "--n", "10", "--vector", "[1,-1,0]"],
     ""),
    ("reduce-not-a-list", 2,
     ["reduce", "--n", "10", "--vector", "3"],
     ""),
    ("classify-word-file", 0,
     ["classify", "--n", "10", "{word}"],
     "kind=Elliptic order=6 witness=[9,-3,-3,-3,0,0,0,0,0,0,0]\n"),
    ("orbit-fixed-word-file", 0,
     ["orbit-fixed", "--n", "10", "{word}", "--json"],
     '{"basis":[[-3,1,1,1,0,0,0,0,0,0,0],[0,0,0,0,1,0,0,0,0,0,0],[0,0,0,0,0,1,0,0,0,0,0],[0,'
     '0,0,0,0,0,1,0,0,0,0],[0,0,0,0,0,0,0,1,0,0,0],[0,0,0,0,0,0,0,0,1,0,0],[0,0,0,0,0,0,0,0,'
     '0,1,0],[0,0,0,0,0,0,0,0,0,0,1]],"fixed_rank":8}\n'),
    ("cremona-act-word-file", 0,
     ["cremona-act", "--p", "101", "--points", "{five}", "{word}", "--json"],
     '{"points":[["0","1","0"],["0","0","1"],["1","0","0"],["1","1","1"],["34","29","1"]]}\n'),
]


@pytest.fixture()
def pin_files(tmp_path, nine_points_file, ten_points_file, params_file, gens_file):
    from picweyl import word_to_isometry

    def points(pairs):
        return [[str(x), str(y), "1"] for x, y in pairs]

    data = {
        "nine_collinear": points([(1, 1), (2, 2), (3, 3)] + NINE[3:]),
        "ten_collinear": points([(1, 1), (2, 2), (3, 3)] + TEN[3:]),
        "five": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"],
                 ["3", "7", "1"]],
        "matrix": {"matrix": [list(r) for r in word_to_isometry([0, 1, 2], 10).rows]},
        "word": {"word": [0, 1, 2]},
        "gens16": {"generators": [
            [11, 12, 11, 5, 2, 11, 15, 1, 14, 15], [12, 5, 15, 5, 3, 8, 10, 10, 11, 11],
            [10, 11, 9, 7, 11, 8, 0, 14, 5, 6], [7, 8, 10, 11, 11, 4, 9, 10, 11, 12],
            [2, 6, 14, 7, 5, 6, 9, 9, 2, 2], [9, 12, 11, 14, 13, 7, 5, 5, 15, 5],
            [12, 0, 12, 7, 7, 15, 0, 2, 14, 12], [15, 10, 1, 13, 9, 15, 13, 5, 1, 7],
        ]},
    }
    paths = dict(nine=nine_points_file, ten=ten_points_file, params=params_file, gens=gens_file)
    for name, content in data.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(content))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("code, argv, expected", [c[1:] for c in PINNED],
                         ids=[c[0] for c in PINNED])
def test_pinned_output(capsys, pin_files, code, argv, expected):
    got_code, out, _ = run(capsys, *(a.format(**pin_files) for a in argv))
    if expected.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert (got_code, out) == (code, expected)


# One valid invocation per command, for the JSON contract below.
JSON_ARGV = {
    "gram": ["--n", "9"],
    "enumerate-roots": ["--n", "10", "--max-degree", "1"],
    "coble-conditions": [],
    "residue-counts": [],
    "classify": ["--word", "0,1,2,3,4,5,6,7,8,9"],
    "reduce": ["--vector", "[3,-2,-1,-1,-1,-1,-1,-1,-1,0,0]"],
    "halphen-check": ["--p", "101", "--m", "2", "--points", "{nine}"],
    "coble-check": ["--p", "101", "--points", "{ten}"],
    "harbourne-check": ["--p", "5", "--e", "12", "--params", "{params}"],
    "cremona-act": ["--p", "101", "--word", "0", "--points", "{five}"],
    "orbit-fixed": ["--n", "9", "--word", "0"],
    "find-root-mod": ["--m", "6", "--gens", "{gens}"],
    "report": ["--seed", "1"],
}


def test_json_output_is_one_document(capsys, pin_files):
    # --json makes stdout exactly one JSON document, with --trace folded in
    # as a "trace" key wherever a command declares that flag
    import argparse

    from picweyl.cli import _build_parser

    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(JSON_ARGV)
    for name, sub in commands.items():
        argv = [name, *(a.format(**pin_files) for a in JSON_ARGV[name]), "--json"]
        traced = "--trace" in sub._option_string_actions
        for extra in ([], ["--trace"]) if traced else ([],):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0, argv + extra
            data = json.loads(out)
            assert isinstance(data, dict)
            assert ("trace" in data) == bool(extra), argv + extra


# Runs one command in a fresh interpreter and reports which heavy modules it
# loaded: importing sympy or numpy costs more than most verdicts.
IMPORT_PROBE = """
import contextlib, io, sys
from picweyl.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "sympy" in sys.modules, "numpy" in sys.modules)
"""


class TestImportGuard:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gram", "--n", "10"],
            ["reduce", "--n", "10", "--vector", "[3,-2,-1,-1,-1,-1,-1,-1,-1,0,0]"],
            ["residue-counts"],
            ["enumerate-roots", "--n", "10", "--max-degree", "2"],
            ["halphen-check", "--p", "101", "--m", "2", "--points", "{nine}"],
            ["coble-check", "--p", "101", "--points", "{ten}"],
            ["harbourne-check", "--p", "5", "--e", "12", "--params", "{params}"],
            ["find-root-mod", "--m", "6", "--gens", "{gens}", "--json"],
            ["classify", "--n", "10", "--word", "0,1,2,3,4,5,6,7,8,9"],
            ["report", "--seed", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_commands_load_no_sympy(
        self, argv, nine_points_file, ten_points_file, params_file, gens_file
    ):
        files = dict(nine=nine_points_file, ten=ten_points_file, params=params_file,
                     gens=gens_file)
        src = str(Path(picweyl.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *(a.format(**files) for a in argv)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        code, sympy_loaded, numpy_loaded = proc.stdout.split()
        assert code == "0"
        assert sympy_loaded == "False"
        # only the hyperbolic float witness needs numpy
        if argv[0] not in ("classify", "report"):
            assert numpy_loaded == "False"


def test_import_loads_no_dataclasses():
    # dataclasses imports inspect, ast and dis: about 1 MB of memory in every
    # process, which the benchmark's peak RSS counts
    src = str(Path(picweyl.__file__).resolve().parent.parent)
    probe = "import sys, picweyl; print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_level_mutable_containers():
    # state shared by every caller in the process makes results depend on
    # call order
    import importlib
    import pkgutil

    found = []
    modules = [("__init__", picweyl)] + [
        (info.name, importlib.import_module(f"picweyl.{info.name}"))
        for info in pkgutil.iter_modules(picweyl.__path__)
    ]
    for short, module in modules:
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if isinstance(value, (list, dict, set)):
                found.append(f"{short}.{name}")
    assert found == []


def test_no_unused_imports():
    # a name imported and never read is dead weight; __init__ re-exports
    import ast

    found = []
    for path in sorted(Path(picweyl.__file__).resolve().parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.stem}.{name}")
    assert found == []


def test_no_module_mentions_mpmath():
    # the hyperbolic radius needs no high-precision fallback: Kronecker's
    # test certifies it exceeds 1, and numpy's float witness says so
    found = [
        path.name
        for path in sorted(Path(picweyl.__file__).resolve().parent.glob("*.py"))
        if "mpmath" in path.read_text(encoding="utf-8")
    ]
    assert found == []


def test_lattice_imports_no_picweyl_module():
    # lattice owns the change to the simple-root basis and every layer
    # imports it; smith imports lattice.mat_mul, so a Smith-based basis
    # change there would close an import cycle.  lattice stays a leaf.
    import ast

    path = Path(picweyl.__file__).resolve().parent / "lattice.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "picweyl":
                found.append(f"{'.' * node.level}{node.module or ''}")
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "picweyl"]
    assert found == []


def test_no_unused_private_names():
    # a module-level private function, class or constant that nothing in the
    # package reads is dead code; a refactor that drops its last caller
    # must drop it too
    import ast
    from collections import Counter

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name

    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(picweyl.__file__).resolve().parent.glob("*.py"))
    }
    refs = Counter(name for tree in trees.values() for name in names(tree))
    found = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = Counter(names(node))  # the definition itself, recursion included
            for name in defined:
                private = name.startswith("_") and not name.startswith("__")
                if private and refs[name] == own[name]:
                    found.append(f"{stem}.{name}")
    assert found == []


def test_benchmark_trace_bindings_exist():
    # perfbench/trace.py patches owner.__dict__[attr] for every binding it
    # wraps; one dropped by a refactor would fail only at benchmark time
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"
    spec = importlib.util.spec_from_file_location("perfbench_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)

    def module(name):
        return importlib.import_module(f"picweyl.{name}")

    missing = [
        f"{mod}.{attr}" for mod, attr, _ in trace.SPANS if attr not in vars(module(mod))
    ]
    if "find_root_in_submodule" not in vars(module("residue")):
        missing.append("residue.find_root_in_submodule")
    for path_, attr, _ in trace.COUNTS:
        mod, cls = path_.split(".")
        owner = vars(module(mod)).get(cls)
        if owner is None or attr not in vars(owner):
            missing.append(f"{path_}.{attr}")
    assert missing == []
