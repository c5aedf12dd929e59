"""Command-line surface: subcommands, exit codes, determinism."""

import concurrent.futures
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cdu
from cdu import cdiff, cli, construct, field, funcs, parallel
from cdu._parse import MAX_DEPTH
from cdu.cli import main
from cdu.errors import InvalidParams
from cdu.funcs import PolyFunc


def _has_peak_rss() -> bool:
    """Whether /proc/self/status gives the peak resident set size (Linux)."""
    try:
        with open("/proc/self/status") as fh:
            return "VmHWM" in fh.read()
    except OSError:
        return False


def _peak_kib(*argv) -> int:
    """The peak resident set size, in KiB, of a fresh process that runs
    cdu with argv and writes its output to a pipe."""
    src = os.path.dirname(os.path.dirname(cdu.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    peak = ("import sys, cdu.cli\n"
            "code = cdu.cli.main(sys.argv[1:])\n"
            "sys.stdout.flush()\n"
            "status = open('/proc/self/status').read()\n"
            "print(int(status.split('VmHWM:')[1].split()[0]), file=sys.stderr)\n"
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", peak, *argv], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def no_field_built(monkeypatch):
    """Fail if any field is constructed, cached or not."""
    def refuse(self, spec):
        raise AssertionError(f"built F_{spec.p}^{spec.n} before the cap check")

    monkeypatch.setattr(field, "_FIELD_CACHE", {})
    monkeypatch.setattr(field.FieldContext, "__init__", refuse)


@pytest.fixture
def fields_up_to(monkeypatch):
    """Fail if a field of order above the given bound is constructed."""
    def limit(bound):
        build = field.FieldContext.__init__

        def bounded(self, spec):
            if spec.order > bound:
                raise AssertionError(f"built F_{spec.p}^{spec.n}, above order {bound}")
            build(self, spec)

        monkeypatch.setattr(field, "_FIELD_CACHE", {})
        monkeypatch.setattr(field.FieldContext, "__init__", bounded)
    return limit


def _refused(what: str) -> str:
    return f"error: {what}; pass --force to override\n"


def _planned_rows(argv) -> int:
    """The rows an analyze or construct report counts, from its own entries:
    the directions of each representative, which is an entry without rep."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--force"]) == 0
    report = json.loads(out.getvalue())
    entries = (report.get("report") or report["classification"])["entries"]
    return sum(e["directions"] for e in entries if "rep" not in e)


@pytest.fixture
def forbid_rows(monkeypatch):
    """A function that makes counting any c-derivative row fail from then on."""
    def refuse(*args, **kwargs):
        raise AssertionError("counted a row before the cap check")

    def forbid():
        monkeypatch.setattr(cdiff, "_row_block_counts", refuse)
        monkeypatch.setattr(cdiff, "c_uniformity", refuse)
    return forbid


_PCN1 = json.dumps({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "g": "x^2", "h_or_b": 1,
                    "kind": "f1"})


class TestCaps:
    # a field above 2^20 elements is refused before it is built, and work
    # above --cap element operations before any row is counted
    def test_analyze_refuses_before_building(self, capsys, no_field_built):
        for extra in ([], ["--c-scope", "1"], ["--cap", str(2 ** 60)]):
            code, out, err = run_cli(capsys, "analyze", "--field", "3^13", "--function", "x",
                                     *extra)
            assert (code, out) == (2, "")
            assert err == _refused("field order 3^13 exceeds the limit 1048576:"
                                   " about 32 MiB of tables")

    def test_construct_refuses_before_building(self, capsys, no_field_built):
        recipe = json.dumps({"theorem": "pcn1", "q": 3, "n": 13})
        code, _, err = run_cli(capsys, "construct", "--recipe", recipe)
        assert code == 2 and err == _refused("field order 3^13 exceeds the limit 1048576:"
                                             " about 32 MiB of tables")

    def test_construct_force(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--recipe", _PCN1, "--cap", "8", "--force")
        assert code == 0
        assert json.loads(out)["properties"]["is_permutation"] is True

    def test_construct_refuses_work_just_over_the_cap(self, capsys, forbid_rows):
        rows = _planned_rows(["construct", "--recipe", _PCN1])
        code, out, _ = run_cli(capsys, "construct", "--recipe", _PCN1, "--cap", str(9 * rows))
        assert code == 0 and json.loads(out)["command"] == "construct"
        forbid_rows()
        code, out, err = run_cli(capsys, "construct", "--recipe", _PCN1,
                                 "--cap", str(9 * rows - 1))
        assert (code, out) == (2, "")
        assert err == _refused(f"work of {9 * rows} element operations exceeds the cap"
                               f" {9 * rows - 1}: {rows} c-derivative rows of 9 elements")

    # f is built as a table, and the plan and str(f) read its coefficients:
    # their interpolation, q^2 element operations, is admitted before it runs
    @pytest.mark.parametrize("recipe,cap,q", [
        (_PCN1, 80, 9),
        (json.dumps({"theorem": "pcn1", "q": 16, "n": 4, "phi": "x", "g": "x^7 + 3*x^3",
                     "h_or_b": 1}), 1 << 30, 1 << 16),
    ], ids=["f9", "f2_16"])
    def test_construct_refuses_interpolation_before_it_runs(self, capsys, monkeypatch,
                                                           recipe, cap, q):
        def refuse(*args):
            raise AssertionError("interpolated f before the cap check")

        monkeypatch.setattr(funcs, "_interpolate", refuse)
        code, out, err = run_cli(capsys, "construct", "--recipe", recipe, "--cap", str(cap))
        assert (code, out) == (2, "")
        assert err == _refused(f"work of {q * q} element operations exceeds the cap {cap}:"
                               f" interpolating the {q} values of f")

    def test_generic_report_on_f3_7_is_refused_with_its_exact_count(self, capsys,
                                                                   forbid_rows):
        forbid_rows()
        code, out, err = run_cli(capsys, "analyze", "--field", "3^7",
                                 "--function", "5*x^41 + x^5 + x")
        assert (code, out) == (2, "")
        assert err == _refused("work of 2613042909 element operations exceeds the cap"
                               " 1073741824: 1194807 c-derivative rows of 2187 elements")

    def test_x7_on_f2_16_is_admitted(self, capsys, monkeypatch):
        # admitted by its 2,069 planned rows; the rows themselves are not counted here
        monkeypatch.setattr(cdiff, "full_report", lambda f, plan: types.SimpleNamespace(
            to_dict=lambda records: {"rows": sum(map(len, plan[2].values()))}))
        code, out, err = run_cli(capsys, "analyze", "--field", "2^16", "--function", "x^7")
        assert code == 0, err
        assert json.loads(out)["report"] == {"rows": 2069}

    def test_monomial_refuses_before_building(self, capsys, no_field_built):
        # 27 + 729 elements, and d - 1 = 4 of 3 bits: 2 x 2^2 trial divisions of 32
        code, _, err = run_cli(capsys, "monomial", "--p", "3", "--h", "3",
                               "--d", "5", "--c", "g", "--rmax", "2", "--cap", "1011")
        assert code == 2 and err == _refused(
            "work of 1012 element operations exceeds the cap 1011: 756 elements of F_3^(3r),"
            " r = 1..2, and 2^2 trial divisions each of d - 1 and phi(d - 1) at 32 element"
            " operations apiece")

    def test_monomial_force(self, capsys):
        argv = ["monomial", "--p", "3", "--h", "3", "--d", "5", "--c", "g", "--rmax", "1"]
        code, out, _ = run_cli(capsys, *argv, "--cap", "3", "--force")
        assert code == 0
        _, plain, _ = run_cli(capsys, *argv)
        assert out == plain
        code, capped, _ = run_cli(capsys, *argv, "--cap", str(27 + 256))
        assert code == 0 and capped == plain

    def test_monomial_root_decided_in_the_base_field(self, capsys, fields_up_to):
        # s = 5 (the order of 3 mod 22): the root lies in F_{3^5}, but only
        # F_27 may be built, not F_{3^lcm(3,5)}
        fields_up_to(27)
        code, out, err = run_cli(capsys, "monomial", "--p", "3", "--h", "3", "--d", "23",
                                 "--c", "3", "--rmax", "1")
        assert code == 0, err
        rep = json.loads(out)["report"]
        assert rep["s"] == 5 and rep["root_in_fps"] is False

    def test_huge_field_is_refused_with_its_cost(self, capsys, no_field_built):
        # 3^10000 has more decimal digits than Python converts to text
        for n in (10000, 1000000000):
            code, _, err = run_cli(capsys, "analyze", "--field", f"3^{n}", "--function", "x")
            assert code == 2 and err == _refused(f"field order 3^{n} exceeds the limit"
                                                 " 1048576: about 32 MiB of tables")

    def test_construct_refuses_a_large_prime_q_before_factoring_it(self, capsys, monkeypatch,
                                                                  no_field_built):
        def refuse(m):
            raise AssertionError(f"factored {m} before the cap check")

        monkeypatch.setattr(field, "prime_factors", refuse)
        for q in (10000019, 2 ** 61 - 1):
            recipe = json.dumps({"theorem": "pcn1", "q": q, "n": 2})
            code, _, err = run_cli(capsys, "construct", "--recipe", recipe)
            assert code == 2 and err.startswith(f"error: field order {q}^2 exceeds the limit")

    @pytest.mark.parametrize("argv", [
        ["analyze", "--field", "3^2", "--function", "x"],
        ["construct", "--recipe", _PCN1],
        ["monomial", "--p", "3", "--h", "2", "--d", "5", "--c", "5", "--rmax", "1"],
    ], ids=["analyze", "construct", "monomial"])
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_1_is_refused(self, capsys, tmp_path, no_field_built, argv, cap):
        code, out, err = run_cli(capsys, *argv, "--cap", cap)
        assert (code, out, err) == (2, "", f"error: --cap must be at least 1, got {cap}\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"cap": int(cap), "force": True}))
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert (code, out, err) == (2, "", f"error: --cap must be at least 1, got {cap}\n")

    @pytest.mark.parametrize("q,n", [(12, 2), (1, 2), (3, 0), ("three", 2)])
    def test_construct_refuses_a_q_that_is_no_prime_power(self, capsys, q, n):
        recipe = json.dumps({"theorem": "pcn1", "q": q, "n": n})
        code, out, err = run_cli(capsys, "construct", "--recipe", recipe)
        assert code == 2 and out == "" and err.startswith("error: ")


class TestAnalyze:
    def test_planar_example(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--field", "3^2",
                               "--function", "x^2 + x^3")
        assert code == 0
        report = json.loads(out)["report"]
        by_c = {e["c"]: e for e in report["entries"]}
        assert by_c[1]["label"] == "PcN"  # planar
        for c in range(9):
            if c != 1:
                assert by_c[c]["label"] not in ("PcN", "APcN")
        assert report["field"] == "3^2/1,0,1"  # modulus embedded

    def test_square_over_f5(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--field", "5^1",
                               "--function", "x^2")
        report = json.loads(out)["report"]
        assert report["summary"]["pcn_c"] == [1]
        assert report["summary"]["apcn_c"] == [0, 2, 3, 4]

    def test_parse_error_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--field", "3^2",
                                 "--function", "x^(")
        assert code == 2
        assert "position" in err

    def test_bad_field_spec(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--field", "nine",
                               "--function", "x")
        assert code == 2
        # a modulus coefficient that is no integer names the option too
        code, out, err = run_cli(capsys, "analyze", "--field", "3^2/1,,1", "--function", "x")
        assert code == 2 and out == ""
        assert err == "error: bad field spec '3^2/1,,1'; expected 'p^n' or 'p^n/c0,c1,...,cn'\n"

    def test_cap_refusal_and_force(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--field", "2^2",
                               "--function", "x", "--cap", "2")
        assert code == 2 and "exceeds the cap 2: " in err
        # force overrides the cap
        code, out, _ = run_cli(capsys, "analyze", "--field", "2^2",
                               "--function", "x", "--cap", "2", "--force")
        assert code == 0

    def test_c_scope(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--field", "3^2",
                               "--function", "x^2 + x^3", "--c-scope", "1")
        assert code == 0
        entries = json.loads(out)["report"]["entries"]
        assert [e["c"] for e in entries] == [0, 1, 2]
        code, _, err = run_cli(capsys, "analyze", "--field", "3^2",
                               "--function", "x", "--c-scope", "3")
        assert code == 2

    def test_matrix_dump(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the report ran before the --matrix-c arguments were checked")

        def no_matrix(*args, **kwargs):
            raise AssertionError("the dump materialized the count matrix")

        expected = io.StringIO()
        cdiff.c_ddt(cdu.parse_function("x^2", field.make_field(5, 1)), 1).to_csv(expected)
        monkeypatch.setattr(cdiff, "c_ddt", no_matrix)
        path = tmp_path / "ddt.csv"
        code, out, _ = run_cli(capsys, "analyze", "--field", "5^1",
                               "--function", "x^2", "--matrix-c", "1",
                               "--matrix-out", str(path))
        assert code == 0
        assert json.loads(out)["report"]["matrix_csv"] == str(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a\\b,0,1,2,3,4"
        assert len(lines) == 6
        assert path.read_text() == expected.getvalue()
        # without --matrix-out the CSV goes to stdout, before the report
        code, out, _ = run_cli(capsys, "analyze", "--field", "5^1",
                               "--function", "x^2", "--matrix-c", "1")
        assert code == 0
        assert out.startswith(expected.getvalue())
        assert "matrix_csv" not in json.loads(out[len(expected.getvalue()):])["report"]
        # an unwritable path is a config error, found before the report
        monkeypatch.setattr(cdiff, "full_report", refuse)
        code, out, err = run_cli(capsys, "analyze", "--field", "2^4",
                                 "--function", "x^3", "--matrix-c", "5",
                                 "--matrix-out", str(tmp_path / "missing" / "x.csv"))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --matrix-out")
        code, _, err = run_cli(capsys, "analyze", "--field", "2^4", "--function", "x^3",
                               "--matrix-c", "h")
        assert code == 2 and err.startswith("error: cannot parse --matrix-c")
        # --matrix-out alone would dump nothing, so it is refused
        no_file = tmp_path / "alone.csv"
        code, out, err = run_cli(capsys, "analyze", "--field", "3^2", "--function", "x^2",
                                 "--matrix-out", str(no_file))
        assert code == 2 and out == "" and not no_file.exists()
        assert err.startswith("error: --matrix-out needs --matrix-c")

    def test_human_format(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--field", "5^1",
                               "--function", "x^2", "--format", "human")
        assert code == 0
        assert "summary" in out and "{" not in out.splitlines()[0]


class TestConstruct:
    def test_pcn1_recipe(self, capsys):
        recipe = json.dumps({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x",
                             "g": "x^2", "h_or_b": 1, "kind": "f1"})
        code, out, _ = run_cli(capsys, "construct", "--recipe", recipe)
        assert code == 0
        rep = json.loads(out)
        assert rep["properties"]["is_permutation"] is True
        # only the permutation route's items, all passed, and its one *_ok key
        assert rep["validation"]["pp_ok"] is True and "two_to_one_ok" not in rep["validation"]
        assert [(it["name"], it["passed"]) for it in rep["validation"]["items"]] == [
            ("h_image_in_base_units", True), ("kernel_meets_base_trivially", True),
            ("phi_commutes_with_psi", True), ("h_phi_permutes_j", True),
            ("composite_permutes_j", True)]
        assert 0 in rep["classification"]["summary"]["pcn_c"]
        assert 2 in rep["classification"]["summary"]["pcn_c"]

    def test_apcnagw_recipe(self, capsys):
        recipe = json.dumps({"theorem": "apcnagw", "q": 4, "n": 3,
                             "phi": "x^2 + x", "g": "x", "h_or_b": 1, "kind": "f2"})
        code, out, _ = run_cli(capsys, "construct", "--recipe", recipe)
        assert code == 0
        rep = json.loads(out)
        assert rep["properties"]["is_two_to_one"] is True
        # only the 2-to-1 route's items, all passed, and its one *_ok key
        assert rep["validation"]["two_to_one_ok"] is True and "pp_ok" not in rep["validation"]
        assert [(it["name"], it["passed"]) for it in rep["validation"]["items"]] == [
            ("h_image_in_base_units", True), ("phi_two_to_one_on_base", True),
            ("phi_commutes_with_psi", True), ("h_phi_permutes_j", True),
            ("composite_permutes_j", True)]
        apcn = set(rep["classification"]["summary"]["apcn_c"])
        assert {0, 56, 57} <= apcn  # F_4 \ {1} inside F_64

    def test_quad_recipe(self, capsys):
        # 8 lies in J = {x^5 - x} over F_25 with modulus x^2+x+1
        recipe = json.dumps({"theorem": "quad", "q": 5, "n": 2, "phi": "x",
                             "h_or_b": 2, "terms": [{"g": "x + 8", "s": 10}]})
        code, out, _ = run_cli(capsys, "construct", "--recipe", recipe)
        assert code == 0
        rep = json.loads(out)
        assert rep["properties"]["is_permutation"] is True

    @pytest.mark.parametrize("s", [-1, 0, 15])  # 15 = 3*5 has base-5 digit sum 3
    def test_exponent_not_two_p_powers_exits_2_at_once(self, capsys, s):
        recipe = json.dumps({"theorem": "quad", "q": 5, "n": 2, "phi": "x", "h_or_b": 2,
                             "terms": [{"g": "x + 8", "s": s}]})

        def expire(signum, frame):
            raise TimeoutError("construct ran for a second")

        # a digit loop that never ends on s < 0 would otherwise hang the test
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            code, _, err = run_cli(capsys, "construct", "--recipe", recipe)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        assert err == f"error: exponent {s} is not a sum of two p-powers\n"

    def test_recipe_from_file(self, capsys, tmp_path):
        path = tmp_path / "recipe.json"
        path.write_text(json.dumps({"theorem": "pcn1", "q": 3, "n": 2,
                                    "phi": "x", "g": "x^2", "h_or_b": 1}))
        code, out, _ = run_cli(capsys, "construct", "--recipe", f"@{path}")
        assert code == 0

    def test_failed_precondition_surfaces(self, capsys):
        recipe = json.dumps({"theorem": "apcnagw", "q": 4, "n": 2,
                             "phi": "x^2 + x", "g": "x", "h_or_b": 1})
        code, _, err = run_cli(capsys, "construct", "--recipe", recipe)
        assert code == 2 and err == ("error: even extension degree: F_q lies inside J, so no"
                                     " additive phi is both 2-to-1 on F_q and a permutation"
                                     " of J\n")

    def test_bad_recipe_json(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--recipe", "{nope")
        assert code == 2

    @pytest.mark.parametrize("recipe,key", [
        ({"theorem": "quad", "q": 5, "n": 2, "terms": [{"s": 10}]}, "'g'"),
        ({"theorem": "quad", "q": 5, "n": 2, "terms": [{"g": "x + 8", "s": "ten"}]}, "s "),
        ({"theorem": "quad", "q": 5, "n": 2, "h_or_b": "x",
          "terms": [{"g": "x + 8", "s": 10}]}, "h_or_b"),
        ({"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "h_or_b": "two"}, "h_or_b"),
        ({"theorem": "quad", "q": 5, "n": 2, "terms": 7}, "'terms'"),
        ({"theorem": "quad", "q": 5, "n": 2, "terms": [3]}, "'terms'"),
        ("theorem q n", "JSON object"),
        # named as analyze names an unparsable --function, not as a ParseError
        ({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x^^2"},
         "error: cannot parse the recipe's phi: "),
        ({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "g": "y"},
         "error: cannot parse the recipe's g: "),
        ({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "h_or_b": "x +"},
         "error: cannot parse the recipe's h_or_b: "),
        ({"theorem": "quad", "q": 5, "n": 2,
          "terms": [{"g": "x + 8", "s": 10}, {"g": "x +", "s": 10}]},
         "error: cannot parse the recipe's terms[1].g: "),
        ({"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + z"},
         "error: cannot parse the recipe's phi: "),
        ({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "g": "10*x"},
         "error: cannot parse the recipe's g: 10 is not a canonical element of a field of"
         " order 9 (at position 0)\n"),
        ({"theorem": "pcn2", "q": 3, "n": 2},
         "error: unknown theorem 'pcn2'; use pcn1 | quad | apcnagw\n"),
        ({"theorem": "apcnagw", "q": 4, "n": 3}, "error: recipe is missing 'phi'\n"),
    ])
    def test_malformed_recipe_is_a_config_error(self, capsys, recipe, key):
        code, _, err = run_cli(capsys, "construct", "--recipe", json.dumps(recipe))
        assert code == 2 and err.startswith("error: ") and key in err

    # int() would truncate a float and read a boolean as 0 or 1
    @pytest.mark.parametrize("recipe,message", [
        ({"theorem": "pcn1", "q": 3, "n": 2.7, "phi": "x", "g": "x^2"}, "n must be an integer"),
        ({"theorem": "pcn1", "q": 3.0, "n": 2}, "q must be an integer"),
        ({"theorem": "pcn1", "q": 3, "n": True}, "n must be an integer"),
        ({"theorem": "pcn1", "q": True, "n": 2}, "q must be an integer"),
        ({"theorem": "quad", "q": 5, "n": 2, "h_or_b": 1.9,
          "terms": [{"g": "x + 8", "s": 10}]}, "h_or_b must be an integer"),
        ({"theorem": "quad", "q": 5, "n": 2, "h_or_b": 2,
          "terms": [{"g": "x + 8", "s": 10.9}]}, "terms[0].s must be an integer"),
        ({"theorem": "quad", "q": 5, "n": 2, "h_or_b": 2,
          "terms": [{"g": "x + 8", "s": False}]}, "terms[0].s must be an integer"),
        ({"theorem": "quad", "q": 5, "n": 2, "h_or_b": 2,
          "terms": [{"g": "x + 8", "s": 10}, {"g": "x", "s": "ten"}]},
         "terms[1].s must be an integer, got 'ten'"),
        ({"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "h_or_b": 1.9},
         "h_or_b must be an integer"),
        ({"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "h_or_b": True},
         "h_or_b must be an integer"),
        ({"theorem": "pcn1", "q": 3, "n": 2, "h_or_b": True},
         "h_or_b must be an integer or polynomial text"),
        ({"theorem": "pcn1", "q": 3, "n": 2, "h_or_b": 1.9},
         "h_or_b must be an integer or polynomial text"),
        ({"theorem": "pcn1", "q": 3, "n": 2, "h_or_b": None},
         "h_or_b must be an integer or polynomial text"),
        # str() would make these the text True, 2.5, None, [1] or {}
        ({"theorem": "pcn1", "q": 3, "n": 2, "phi": True},
         "phi must be an integer or polynomial text, got True"),
        ({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "g": 2.5},
         "g must be an integer or polynomial text, got 2.5"),
        ({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "g": None},
         "g must be an integer or polynomial text, got None"),
        ({"theorem": "quad", "q": 5, "n": 2, "h_or_b": 2,
          "terms": [{"g": "x + 8", "s": 10}, {"g": None, "s": 10}]},
         "terms[1].g must be an integer or polynomial text, got None"),
        ({"theorem": "apcnagw", "q": 4, "n": 3, "phi": [1]},
         "phi must be an integer or polynomial text, got [1]"),
        ({"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": {}},
         "g must be an integer or polynomial text, got {}"),
    ], ids=["pcn1-n-float", "pcn1-q-float", "pcn1-n-bool", "pcn1-q-bool", "quad-b-float",
            "quad-s-float", "quad-s-bool", "quad-s-text", "apcnagw-b-float", "apcnagw-b-bool",
            "pcn1-h_or_b-bool", "pcn1-h_or_b-float", "pcn1-h_or_b-null",
            "pcn1-phi-bool", "pcn1-g-float", "pcn1-g-null", "quad-terms-g-null",
            "apcnagw-phi-list", "apcnagw-g-object"])
    def test_recipe_numbers_are_checked_not_truncated(self, capsys, recipe, message):
        code, out, err = run_cli(capsys, "construct", "--recipe", json.dumps(recipe))
        assert code == 2 and out == ""
        assert err.startswith("error: the recipe's ") and message in err

    @pytest.mark.parametrize("recipe", [
        {"theorem": "pcn1", "q": "3", "n": "2", "phi": "x", "g": "x^2", "h_or_b": "1"},
        {"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "g": "x^2", "h_or_b": "x^0"},
        {"theorem": "quad", "q": 5, "n": 2, "h_or_b": "2", "terms": [{"g": "x + 8", "s": "10"}]},
        {"theorem": "quad", "q": 5, "n": 2, "h_or_b": 2, "terms": [{"g": 0, "s": 10}]},
    ], ids=["pcn1-digit-text", "pcn1-polynomial", "quad-digit-text", "quad-g-integer"])
    def test_recipe_digit_and_polynomial_text(self, capsys, recipe):
        code, out, _ = run_cli(capsys, "construct", "--recipe", json.dumps(recipe))
        assert code == 0 and json.loads(out)["properties"]["is_permutation"] is True

    @pytest.mark.parametrize("recipe,failure", [
        ({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "g": "x^2"}, None),
        ({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x^3 + 2*x", "g": "x"},
         "kernel_meets_base_trivially"),
        ({"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "x"}, None),
        ({"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x", "g": "x"}, "phi_two_to_one_on_base"),
    ])
    def test_hypotheses_decided_once(self, capsys, monkeypatch, recipe, failure):
        calls = []
        validate = construct.validate_preconditions

        def counted(*args, **kwargs):
            calls.append(args)
            return validate(*args, **kwargs)

        monkeypatch.setattr(construct, "validate_preconditions", counted)
        code, _, err = run_cli(capsys, "construct", "--recipe", json.dumps(recipe))
        assert len(calls) == 1 and code == (2 if failure else 0)
        assert failure is None or failure in err


class TestMonomialCommand:
    def test_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "monomial", "--p", "3", "--h", "3",
                               "--d", "5", "--c", "g", "--rmax", "2")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["s"] == 2
        assert rep["root_in_fps"] is False
        assert rep["first_violation_r"] == 1
        witness = rep["per_extension"][0]["violation_witness"]
        assert witness["count"] >= 3

    def test_symbolic_c(self, capsys):
        code, out, _ = run_cli(capsys, "monomial", "--p", "3", "--h", "3",
                               "--d", "5", "--c", "g^2+2*g", "--rmax", "1")
        assert code == 0

    def test_c_one_rejected(self, capsys):
        code, _, err = run_cli(capsys, "monomial", "--p", "3", "--h", "3",
                               "--d", "5", "--c", "1", "--rmax", "1")
        assert code == 2 and err == "error: c must avoid 0 and 1 (c = 1 is the classical case)\n"

    def test_cap(self, capsys):
        code, _, err = run_cli(capsys, "monomial", "--p", "3", "--h", "3",
                               "--d", "5", "--c", "3", "--rmax", "9")
        assert code == 2 and err == _refused("field order 3^27 exceeds the limit 1048576:"
                                             " about 32 MiB of tables")

    def test_large_d_is_refused_before_factoring(self, capsys, monkeypatch, no_field_built):
        from cdu import monomial

        def refuse(m):
            raise AssertionError(f"factored {m} before the bound on d")

        monkeypatch.setattr(field, "prime_factors", refuse)
        monkeypatch.setattr(monomial, "prime_factors", refuse)
        # d - 1 of 54 bits under the default cap, and of 41 bits just over a lowered one:
        # 49 elements plus 2 x 2^27 or 2 x 2^21 trial divisions of 32 operations each
        for d, cap, divisions in [(10 ** 16 + 62, 2 ** 30, 27), (2 ** 40 + 1, 2 ** 27 + 48, 21)]:
            code, out, err = run_cli(capsys, "monomial", "--p", "7", "--h", "2", "--d", str(d),
                                     "--c", "7", "--rmax", "1", "--cap", str(cap))
            work = 49 + 64 * 2 ** divisions
            assert code == 2 and out == "" and err == _refused(
                f"work of {work} element operations exceeds the cap {cap}: 49 elements of"
                f" F_7^(2r), r = 1..1, and 2^{divisions} trial divisions each of d - 1 and"
                " phi(d - 1) at 32 element operations apiece")

    @pytest.mark.parametrize("d", [-2 ** 40, 1])
    def test_d_below_2_is_a_bad_exponent_at_once(self, capsys, monkeypatch, d):
        # the bound on d - 1 does not hold back a d the sweep refuses outright
        from cdu import monomial

        def refuse(m):
            raise AssertionError(f"factored {m}")

        monkeypatch.setattr(monomial, "prime_factors", refuse)
        code, out, err = run_cli(capsys, "monomial", "--p", "3", "--h", "2", "--d", str(d),
                                 "--c", "5", "--rmax", "1")
        assert code == 2 and out == "" and err == (
            f"error: need d >= 2 with p not dividing d(d-1); got p=3, d={d}\n")

    @pytest.mark.parametrize("c,rmax,error", [
        ("1", "1", "c must avoid 0 and 1 (c = 1 is the classical case)"),
        ("0", "1", "c must avoid 0 and 1 (c = 1 is the classical case)"),
        ("5", "0", "r_max must be positive, got 0")], ids=["c-1", "c-0", "rmax-0"])
    def test_bad_c_or_rmax_is_refused_before_factoring(self, capsys, monkeypatch, c, rmax, error):
        from cdu import monomial

        def refuse(p, d):
            raise AssertionError(f"factored d - 1 = {d - 1} before checking c and r_max")

        monkeypatch.setattr(monomial, "min_s", refuse)
        code, out, err = run_cli(capsys, "monomial", "--p", "3", "--h", "2",
                                 "--d", "70368744177815", "--c", c, "--rmax", rmax, "--force")
        assert code == 2 and out == "" and err == f"error: {error}\n"

    @pytest.mark.parametrize("p,d,force", [(7, 2 ** 40, []), (5, 2 ** 41 + 1, ["--force"])])
    def test_d_within_the_bound_or_forced(self, capsys, p, d, force):
        code, out, err = run_cli(capsys, "monomial", "--p", str(p), "--h", "1", "--d", str(d),
                                 "--c", "2", "--rmax", "1", *force)
        assert code == 0, err
        assert json.loads(out)["report"]["d"] == d


_NOT_IN_F9 = "10 is not a canonical element of a field of order 9 (at position 0)"
# more digits than int() reads, and one parenthesis more than the parser nests
_HUGE = "9" * 5000
_TOO_LONG = "an integer of 5000 digits is too long (at position 2)"
_NESTED = "(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1)
_TOO_DEEP = f"parentheses nest deeper than {MAX_DEPTH} levels (at position {MAX_DEPTH + 2})"


class TestRefusals:
    # each refusal is one stderr line that names the input it could not use
    @pytest.mark.parametrize("argv,line", [
        (["analyze", "--field", "3^2", "--function", "10*x"],
         f"cannot parse function: {_NOT_IN_F9}"),
        (["analyze", "--field", "3^2", "--function", "x^2", "--matrix-c", "10"],
         f"cannot parse --matrix-c: {_NOT_IN_F9}"),
        (["monomial", "--p", "3", "--h", "2", "--d", "5", "--c", "10", "--rmax", "1"],
         f"cannot parse c: {_NOT_IN_F9}"),
        (["analyze", "--field", "3^2", "--function", "(g+1"],
         "cannot parse function: expected ')' (at position 4)"),
        (["analyze", "--field", "3^2", "--function", "x^2 x"],
         "cannot parse function: trailing input (at position 4)"),
        (["monomial", "--p", "3", "--h", "2", "--d", "5", "--c", "x", "--rmax", "1"],
         "cannot parse c: 'x' not allowed in an element expression (at position 0)"),
        (["construct", "--recipe", "@missing.json"],
         "cannot read recipe file: [Errno 2] No such file or directory: 'missing.json'"),
        (["analyze", "--field", "3^2", "--function", "x", "--config", "missing.json"],
         "cannot read config file: [Errno 2] No such file or directory: 'missing.json'"),
        # a refused hypothesis is named with its detail, and only the
        # hypotheses of the builder's own route are named
        (["construct", "--recipe", json.dumps({"theorem": "pcn1", "q": 3, "n": 2,
                                               "phi": "x^3 + 2*x", "g": "x"})],
         "precondition(s) failed: kernel_meets_base_trivially"
         " (ker(phi) meets the base subfield in [0, 1, 2])"),
        (["construct", "--recipe", json.dumps({"theorem": "apcnagw", "q": 4, "n": 3,
                                               "phi": "x", "g": "x"})],
         "precondition(s) failed: phi_two_to_one_on_base"
         " (fiber sizes of phi on F_4: [1])"),
        # whichever layer refuses, the line is "error: " and the message alone
        (["analyze", "--field", "nine", "--function", "x"],
         "bad field spec 'nine'; expected 'p^n' or 'p^n/c0,c1,...,cn'"),
        (["analyze", "--field", "4^2", "--function", "x"], "4 is not prime"),
        (["monomial", "--p", "3", "--h", "3", "--d", "5", "--c", "g", "--rmax", "7"],
         "field order 3^21 exceeds the limit 1048576: about 32 MiB of tables;"
         " pass --force to override"),
        (["construct", "--recipe", json.dumps({"q": 3, "n": 2})], "recipe is missing 'theorem'"),
        (["construct", "--recipe", json.dumps({"theorem": "apcnagw", "q": 4, "n": 3,
                                               "phi": "x^8 + x", "g": "x"})],
         "precondition(s) failed: h_phi_permutes_j (h(y)*phi(y) does not permute J);"
         " composite_permutes_j (composite map does not permute J)"),
        (["monomial", "--p", "3", "--h", "2", "--d", "5", "--c", "1", "--rmax", "1"],
         "c must avoid 0 and 1 (c = 1 is the classical case)"),
        # phi with a coefficient outside F_3 passes every other item
        (["construct", "--recipe", json.dumps({"theorem": "pcn1", "q": 3, "n": 2,
                                               "phi": "4*x^3 + 3*x", "g": "x", "kind": "f2"})],
         "precondition(s) failed: phi_commutes_with_psi"
         " (phi(x^3 - x) != phi(x)^3 - phi(x) for 6 of 9 x)"),
        # a key the theorem does not read is refused, not ignored
        (["construct", "--recipe", json.dumps({"theorem": "pcn1", "q": 3, "n": 2,
                                               "hb": 2, "knd": "f2"})],
         "recipe key 'hb': theorem pcn1 reads only 'theorem', 'q', 'n', 'phi', 'g',"
         " 'h_or_b', 'kind'"),
        (["construct", "--recipe", json.dumps({"theorem": "quad", "q": 5, "n": 2, "h_or_b": 2,
                                               "terms": [{"g": "x + 8", "s": 10, "t": 1}]})],
         "recipe key 'terms[0].t': a term reads only 'g', 's'"),
        # an integer int() will not read, or parentheses nested too deep
        (["analyze", "--field", "3^2", "--function", f"x^{_HUGE}"],
         f"cannot parse function: {_TOO_LONG}"),
        (["analyze", "--field", "3^2", "--function", "x", "--matrix-c", f"g^{_HUGE}"],
         f"cannot parse --matrix-c: {_TOO_LONG}"),
        (["monomial", "--p", "3", "--h", "2", "--d", "5", "--c", f"g^{_HUGE}", "--rmax", "1"],
         f"cannot parse c: {_TOO_LONG}"),
        (["construct", "--recipe", json.dumps({"theorem": "pcn1", "q": 3, "n": 2,
                                               "g": f"g^{_HUGE}"})],
         f"cannot parse the recipe's g: {_TOO_LONG}"),
        (["construct", "--recipe", json.dumps({"theorem": "pcn1", "q": 3, "n": 2,
                                               "h_or_b": _HUGE})],
         "the recipe's h_or_b is an integer of 5000 digits, too long to read"),
        (["analyze", "--field", f"3^{_HUGE}", "--function", "x"],
         f"bad field spec '3^{_HUGE[:37]}... (5004 characters); expected 'p^n' or"
         " 'p^n/c0,c1,...,cn'"),
        (["analyze", "--field", f"{_HUGE}^2", "--function", "x"],
         f"bad field spec '{_HUGE[:39]}... (5004 characters); expected 'p^n' or"
         " 'p^n/c0,c1,...,cn'"),
        (["analyze", "--field", f"3^2/1,0,{_HUGE}", "--function", "x"],
         f"bad field spec '3^2/1,0,{_HUGE[:31]}... (5010 characters); expected 'p^n' or"
         " 'p^n/c0,c1,...,cn'"),
        (["analyze", "--field", "3^2", "--function", f"x*{_NESTED}"],
         f"cannot parse function: {_TOO_DEEP}"),
        (["analyze", "--field", "3^2", "--function", "x", "--matrix-c", f"g*{_NESTED}"],
         f"cannot parse --matrix-c: {_TOO_DEEP}"),
        # each recipe integer, and every recipe key or theorem the recipe echoes, is cut short
        (["construct", "--recipe", json.dumps({"theorem": "pcn1", "q": _HUGE, "n": 2})],
         "the recipe's q is an integer of 5000 digits, too long to read"),
        (["construct", "--recipe", json.dumps({"theorem": "pcn1", "q": 3, "n": "-" + _HUGE})],
         "the recipe's n is an integer of 5000 digits, too long to read"),
        (["construct", "--recipe", json.dumps({"theorem": "quad", "q": 5, "n": 2, "h_or_b": 2,
                                               "terms": [{"g": "x", "s": _HUGE}]})],
         "the recipe's terms[0].s is an integer of 5000 digits, too long to read"),
        (["construct", "--recipe", json.dumps({"theorem": "quad", "q": 5, "n": 2,
                                               "h_or_b": "x" * 5000,
                                               "terms": [{"g": "x", "s": 10}]})],
         f"the recipe's h_or_b must be an integer, got '{'x' * 39}... (5002 characters)"),
        (["construct", "--recipe", json.dumps({"theorem": "pcn1", "q": 3, "n": 2,
                                               "k" * 5000: 1})],
         f"recipe key '{'k' * 39}... (5002 characters): theorem pcn1 reads only 'theorem',"
         " 'q', 'n', 'phi', 'g', 'h_or_b', 'kind'"),
        (["construct", "--recipe", json.dumps({"theorem": "quad", "q": 5, "n": 2,
                                               "terms": [{"g": "x", "s": 10, "k" * 5000: 1}]})],
         f"recipe key 'terms[0].{'k' * 30}... (5011 characters): a term reads only 'g', 's'"),
        (["construct", "--recipe", json.dumps({"theorem": "t" * 5000, "q": 3, "n": 2})],
         f"unknown theorem '{'t' * 39}... (5002 characters); use pcn1 | quad | apcnagw"),
        (["construct", "--recipe", json.dumps({"theorem": "pcn1", "q": 3, "n": 2,
                                               "kind": "k" * 5000})],
         f"kind must be 'f1' or 'f2', got '{'k' * 39}... (5002 characters)"),
        (["analyze", "--field", "3^2", "--function", "z" * 5000],
         f"cannot parse function: unknown symbol '{'z' * 39}... (5002 characters)"
         " (at position 0)"),
        (["analyze", "--field", "3^2", "--function", "x", "--cap", "0"],
         "--cap must be at least 1, got 0"),
    ], ids=["function-coefficient", "matrix-c-coefficient", "monomial-c-coefficient",
            "unclosed-parenthesis", "trailing-input", "x-in-c", "missing-recipe-file",
            "missing-config-file", "pcn1-kernel", "apcnagw-two-to-one",
            "field-spec", "non-prime-p", "cap", "recipe-key", "apcnagw-permutes-j",
            "monomial-c", "pcn1-phi-commutes", "unread-recipe-key", "unread-term-key",
            "huge-exponent", "huge-matrix-c", "huge-monomial-c", "huge-recipe-g",
            "huge-h_or_b", "huge-field-degree", "huge-field-prime", "huge-field-modulus",
            "deep-function", "deep-matrix-c", "huge-q", "huge-n", "huge-terms-s",
            "long-h_or_b", "long-recipe-key", "long-term-key", "long-theorem", "long-kind",
            "long-symbol", "cap-below-1"])
    def test_refusal_is_one_line(self, capsys, monkeypatch, tmp_path, argv, line):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {line}\n")

    # a config key or value is cut short too, and the key echoed once
    @pytest.mark.parametrize("cfg,line", [
        ({"k" * 5000: 1},
         f"config key '{'k' * 39}... (5002 characters): cdu analyze takes no option of that name"),
        ({"format": "x" * 5000},
         f"config key 'format': '{'x' * 39}... (5002 characters) is not a value of --format"),
        ({"force": "y" * 5000},
         f"config key 'force': --force takes true or false, not '{'y' * 39}... (5002 characters)"),
    ], ids=["long-config-key", "long-config-value", "long-config-flag"])
    def test_long_config_entry_is_one_short_line(self, capsys, tmp_path, cfg, line):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "analyze", "--field", "3^2", "--function", "x",
                                 "--config", str(path))
        assert (code, out, err) == (2, "", f"error: {line}\n")
        assert len(err.encode()) < 200


class TestIntegerOptions:
    # argparse reads each integer option through cli._integer, which refuses
    # in one short line what int() will not read
    @pytest.mark.parametrize("argv", [
        ["monomial", "--h", "2", "--d", "5", "--c", "5", "--rmax", "1", "--p"],
        ["monomial", "--p", "3", "--d", "5", "--c", "5", "--rmax", "1", "--h"],
        ["monomial", "--p", "3", "--h", "2", "--c", "5", "--rmax", "1", "--d"],
        ["monomial", "--p", "3", "--h", "2", "--d", "5", "--c", "5", "--rmax"],
        ["analyze", "--field", "3^2", "--function", "x", "--cap"],
        ["analyze", "--field", "3^2", "--function", "x", "--c-scope"],
        ["verify-theorems", "--seed"],
    ], ids=lambda argv: f"{argv[0]}{argv[-1]}")
    @pytest.mark.parametrize("value,message", [
        (_HUGE, "is an integer of 5000 digits, too long to read"),
        ("-" + _HUGE, "is an integer of 5000 digits, too long to read"),
        ("x" * 5000, f"must be an integer, got '{'x' * 39}... (5002 characters)"),
    ], ids=["digits", "negative", "text"])
    def test_refused_in_one_short_line(self, capsys, argv, value, message):
        with pytest.raises(SystemExit) as exc:
            main([*argv, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.endswith(f"error: argument {argv[-1]}: {message}\n")
        assert len(err) < 1000

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(), st.text(max_size=6), st.booleans(), st.none(),
                     st.floats(allow_nan=False), st.integers().map(str)))
    def test_config_takes_the_integers_int_takes(self, value):
        # a config value is taken iff int() makes exactly that value of its text
        try:
            taken = int(str(value)) == value
        except ValueError:
            taken = False
        _, commands = cli.build_parser()
        for command, key in [("monomial", "d"), ("monomial", "cap"), ("analyze", "c-scope"),
                             ("verify-theorems", "seed")]:
            try:
                cli._config_argv(commands[command], {key: value})
            except InvalidParams:
                assert not taken
            else:
                assert taken


_FIELDS = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)] + [(5, 1), (5, 2),
                                                                            (7, 1), (7, 2)]


class TestPlannedWork:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_admitted_work_is_the_rows_the_report_counts(self, data):
        # the plan's rows are the directions of the report's distinct
        # representatives, plus q for a --matrix-c dump; the command runs at a
        # cap of rows x q and is refused, before any row is counted, just below
        p, n = data.draw(st.sampled_from(_FIELDS))
        q = p ** n
        terms = data.draw(st.dictionaries(st.integers(0, q), st.integers(1, q - 1),
                                          min_size=1, max_size=3))
        argv = ["analyze", "--field", f"{p}^{n}",
                "--function", " + ".join(f"{a}*x^{e}" for e, a in terms.items())]
        scope = data.draw(st.sampled_from([None, *(k for k in range(1, n + 1) if n % k == 0)]))
        if scope is not None:
            argv += ["--c-scope", str(scope)]
        matrix_c = data.draw(st.none() | st.integers(0, q - 1))
        if matrix_c is not None:
            argv += ["--matrix-c", str(matrix_c), "--matrix-out", os.devnull]
        calls, directions = [], cdiff.row_directions

        def counted(ctx, c, *rest):
            calls.append(c)
            return directions(ctx, c, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cdiff, "row_directions", counted)
            rows = _planned_rows(argv)
        ctx = field.make_field(p, n)
        f = cdu.parse_function(argv[4], ctx)
        cs = None if scope is None else ctx.subfield_elements(p ** scope)
        _, reps, planned = cdiff.report_plan(f, cs)
        assert sum(map(len, planned.values())) == rows
        # row_directions runs once per multiplicative order of a representative
        assert len(calls) == len({(q - 1) // math.gcd(ctx.log(c), q - 1) for c in reps if c})
        rows += 0 if matrix_c is None else q
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            assert main([*argv, "--cap", str(rows * q)]) == 0
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cdiff, "_row_block_counts", None)
                mp.setattr(cdiff, "c_uniformity", None)
                assert main([*argv, "--cap", str(rows * q - 1)]) == 2
        assert err.getvalue() == _refused(
            f"work of {rows * q} element operations exceeds the cap {rows * q - 1}:"
            f" {rows} c-derivative rows of {q} elements")


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify-theorems", "--suite", "planar-example")
        assert code == 0
        rep = json.loads(out)
        assert rep["passed"] is True
        assert rep["suites"]["planar-example"]["passed"] is True

    def test_multiple_suites(self, capsys):
        code, out, _ = run_cli(capsys, "verify-theorems",
                               "--suite", "planar-example",
                               "--suite", "classical-ddt")
        rep = json.loads(out)
        assert set(rep["suites"]) == {"planar-example", "classical-ddt"}

    def test_strict_flag_passes_when_green(self, capsys):
        code, _, _ = run_cli(capsys, "verify-theorems",
                             "--suite", "planar-example", "--strict")
        assert code == 0


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(alphabet=st.characters(codec="utf-8")) | st.sampled_from(
                     ["", "quote \" back \\ slash", "tab\tnew\nline", "\x00\x1f\x7f", "é ✓ 𝔽"]))
_JSON_FLAT = _JSON_SCALARS | st.just([]) | st.just({})


def _json_dicts(children, min_size=0):
    return (st.dictionaries(st.text(max_size=4), children, min_size=min_size, max_size=4)
            | st.dictionaries(st.integers(-3, 20), children, min_size=min_size, max_size=3))


def _json_containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
            | _json_dicts(children))


# every F_{p^n} with p in {2, 3, 5, 7} and q <= 81
_REPORT_FIELDS = [(p, n) for p in (2, 3, 5, 7) for n in range(1, 7) if p ** n <= 81]
_JSON_TEXT = st.text(alphabet=st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ["quote \" back \\ slash", "tab\tnew\nline", "\x00\x1f\x7f", "é ✓ 𝔽"])


@st.composite
def _entries(draw):
    """An Entries of any label and method text, with c = 1 present or
    absent and each representative c itself or another multiplier."""
    cs = sorted(draw(st.sets(st.just(1) | st.integers(0, 10 ** 6), max_size=6)))
    reps = [draw(st.just(c) | st.integers(0, 10 ** 6)) for c in cs]
    verdicts = {rep: draw(st.tuples(st.integers(0, 99), _JSON_TEXT, _JSON_TEXT,
                                    st.integers(0, 10 ** 6))) for rep in reps}
    return cdiff.Entries(cs, reps, verdicts)


# Entries, alone or in lists, as the values of dicts at any depth, beside plain values
_ENTRY_TREES = st.recursive(
    _entries() | st.lists(_entries(), max_size=2),
    lambda children: _json_dicts(children | st.recursive(_JSON_FLAT, _json_containers,
                                                         max_leaves=6), min_size=1),
    max_leaves=6)


def _written(report: dict) -> str:
    """What the JSON format writes of report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(report, "json")
    return out.getvalue()


class TestJsonEncoding:
    @settings(max_examples=400, deadline=None)
    @given(st.recursive(_JSON_FLAT, _json_containers, max_leaves=30) | _ENTRY_TREES)
    def test_indented_json_is_the_stdlib_encoding(self, obj):
        # json.dumps writes an Entries as the list it iterates
        assert "".join(cli._json_pieces(obj)) == json.dumps(obj, sort_keys=True, indent=2,
                                                            default=list)

    @pytest.mark.parametrize("argv", [
        ["analyze", "--field", "3^2", "--function", "x^2 + x^3"],
        ["construct", "--recipe", json.dumps({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x",
                                              "g": "x^2", "h_or_b": 1, "kind": "f1"})],
        ["monomial", "--p", "3", "--h", "3", "--d", "5", "--c", "g", "--rmax", "2"],
        ["verify-theorems", "--seed", "0"],
    ], ids=["analyze", "construct", "monomial", "verify-theorems"])
    def test_main_prints_the_stdlib_encoding(self, capsys, monkeypatch, argv):
        reports = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda report, fmt: (reports.append(report),
                                                               emit(report, fmt)))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        # the plain-data form: each Entries as the list of its dicts
        assert out == json.dumps(reports[0], sort_keys=True, indent=2, default=list) + "\n"
        if argv[0] == "analyze":
            entries = reports[0]["report"]["entries"]
            assert any("rep" in e for e in entries)
            assert any("note" in e for e in entries)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_REPORT_FIELDS), st.data())
    def test_written_report_is_the_stdlib_encoding_of_its_data(self, pn, data):
        ctx = field.make_field(*pn)
        q = ctx.order
        f = PolyFunc(ctx, data.draw(st.dictionaries(st.integers(0, 2 * q), st.integers(1, q - 1),
                                                    min_size=1, max_size=3)))
        cs = data.draw(st.none() | st.lists(st.integers(0, q - 1), min_size=1, unique=True))
        report = cdiff.full_report(f, cs=cs)
        assert _written({"report": report.to_dict(records=True)}) == json.dumps(
            {"report": report.to_dict()}, sort_keys=True, indent=2) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(_entries(), _JSON_TEXT, st.lists(st.integers(0, 99), max_size=3))
    def test_any_entries_are_written_as_their_dicts(self, entries, text, cs):
        report = cdiff.ClassificationReport(function=text, field=text, entries=entries,
                                            pcn_cs=cs, apcn_cs=cs[::-1])
        assert _written(report.to_dict(records=True)) == json.dumps(
            report.to_dict(), sort_keys=True, indent=2) + "\n"
        assert "".join(cli._human_lines(report.to_dict(records=True))) == "".join(
            cli._human_lines(report.to_dict()))

    def test_empty_report_is_written_as_its_data(self):
        report = cdiff.full_report(PolyFunc(field.make_field(3, 2), {2: 1}), cs=[])
        assert len(report.entries) == 0
        assert _written({"report": report.to_dict(records=True)}) == json.dumps(
            {"report": report.to_dict()}, sort_keys=True, indent=2) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_entries(), max_size=3))
    def test_entries_in_a_list_are_written_as_their_dicts(self, items):
        assert _written({"items": items}) == json.dumps(
            {"items": [list(e) for e in items]}, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("argv,shown", [
        (["analyze", "--field", "2^4", "--function", "x^3"], ["  rep: ", "  note: "]),
        (["construct", "--recipe", json.dumps({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x",
                                               "g": "x^2", "h_or_b": 1, "kind": "f1"})],
         ["items:\n", "pp_ok: True"]),
        (["construct", "--recipe", json.dumps({"theorem": "apcnagw", "q": 4, "n": 3,
                                               "phi": "x^2 + x", "g": "x", "h_or_b": 1,
                                               "kind": "f2"})],
         ["items:\n", "two_to_one_ok: True"]),
        (["monomial", "--p", "3", "--h", "3", "--d", "5", "--c", "g", "--rmax", "2"],
         ["modulus:\n", "per_extension:\n", "violation_witness:\n", "split_witness:\n"]),
        (["verify-theorems", "--suite", "monomial-sweep"],
         ["modulus:\n", "per_extension:\n", "violation_witness:\n"]),
    ], ids=["analyze", "construct-pcn1", "construct-apcnagw", "monomial", "monomial-sweep"])
    def test_human_format_renders_the_json_data(self, capsys, monkeypatch, argv, shown):
        # the JSON round trip turns tuples into lists and keeps the key order
        reports = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda report, fmt: (reports.append(report),
                                                               emit(report, fmt)))
        code, out, _ = run_cli(capsys, *argv, "--format", "human")
        assert code == 0
        data = json.loads(json.dumps(reports[0], default=list))
        assert out == "".join(cli._human_lines(data))
        assert all(text in out for text in shown)


# the options a command could take before each took only its own
_OPTION_ARGV = {
    "--format": ["--format", "human"], "--config": ["--config", "cfg.json"],
    "--seed": ["--seed", "1"], "--strict": ["--strict"], "--cap": ["--cap", "9"],
    "--force": ["--force"], "--parallel": ["--parallel", "2"],
}
_COMMAND_ARGV = {
    "analyze": ["--field", "3^2", "--function", "x"],
    "construct": ["--recipe", "{}"],
    "monomial": ["--p", "3", "--h", "1", "--d", "5", "--c", "2", "--rmax", "1"],
    "verify-theorems": [],
}
# commands cdu no longer has, with the arguments each took
_RETIRED = {"experiment": ["--probe", "pseudo-pcn"]}
_REMOVED = {
    ("analyze", "--seed"), ("construct", "--seed"), ("monomial", "--seed"),
    ("analyze", "--strict"), ("construct", "--strict"), ("monomial", "--strict"),
    ("verify-theorems", "--cap"), ("verify-theorems", "--force"),
    ("verify-theorems", "--parallel"),
    ("analyze", "--parallel"), ("construct", "--parallel"), ("monomial", "--parallel"),
}


class TestOptions:
    def test_settable_pairs(self):
        _, commands = cli.build_parser()
        assert set(commands) == set(_COMMAND_ARGV)
        kept = {(name, opt) for name, command in commands.items()
                for opt in _OPTION_ARGV if opt in command._option_string_actions}
        assert len(kept) == 16
        assert kept == {(name, opt) for name in commands for opt in _OPTION_ARGV} - _REMOVED

    @pytest.mark.parametrize("command,option", [(c, o) for c in {**_COMMAND_ARGV, **_RETIRED}
                                                for o in _OPTION_ARGV], ids=lambda v: v)
    def test_a_command_takes_only_its_own_options(self, capsys, command, option):
        if command in _RETIRED:
            # a retired command is refused as a whole, with or without an option
            for argv in ([command, *_RETIRED[command]],
                         [command, *_RETIRED[command], *_OPTION_ARGV[option]]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
                assert f"invalid choice: '{command}'" in capsys.readouterr().err
            return
        argv = [command, *_COMMAND_ARGV[command], *_OPTION_ARGV[option]]
        if (command, option) in _REMOVED:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        else:
            args = cli.build_parser()[0].parse_args(argv)
            assert args.command == command


    def test_readme_option_table_matches_the_parser(self):
        lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("| option |"))
        table = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
        # a cell may hold an escaped \|, as in `--format json\|human`
        header, _, *rows = [[cell.strip() for cell in re.split(r"(?<!\\)\|", line[1:-1])]
                            for line in table]
        _, commands = cli.build_parser()
        assert header[0] == "option" and header[1:] == list(commands)
        assert rows
        for option_cell, *marks in rows:
            options = re.findall(r"--[a-z-]+", option_cell)
            assert options and len(marks) == len(commands)
            for command, mark in zip(commands.values(), marks):
                assert mark in ("", "✓") or mark.startswith("✓ ("), mark
                for option in options:
                    assert (option in command._option_string_actions) == bool(mark), \
                        (command.prog, option)


class TestParallel:
    @pytest.fixture
    def pools(self, monkeypatch):
        """The max_workers of every pool pmap starts, on a 3-CPU machine;
        the stand-in pool maps serially and starts no thread."""
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # pmap imports the pool class when it runs, so it is patched at its source
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        return sizes

    def test_pool_is_bounded_by_the_cpu_count(self, pools):
        assert parallel.pmap(abs, range(-5000, 0), 10 ** 6) == list(range(5000, 0, -1))
        assert parallel.pmap(abs, [-1, -2], 10 ** 6) == [1, 2]
        assert parallel.pmap(abs, [-1, -2], 1) == [1, 2]
        assert pools == [3, 2]


class TestColdStart:
    def test_cli_imports_only_the_computing_core(self):
        src = os.path.dirname(os.path.dirname(cdu.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, cdu.cli; print(' '.join(sorted(m for m in sys.modules"
                " if m.startswith('cdu') or m == 'concurrent.futures')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert set(proc.stdout.split()) <= {
            "cdu", "cdu._parse", "cdu.cdiff", "cdu.cli", "cdu.construct", "cdu.errors",
            "cdu.field", "cdu.funcs", "cdu.parallel"}

    def test_commands_leave_numpy_ma_unimported(self):
        # np.unique without return_counts imports numpy.ma on first use:
        # about 20 ms and half a MiB that no command needs
        src = os.path.dirname(os.path.dirname(cdu.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        recipes = [{"theorem": "pcn1", "q": 3, "n": 2, "g": "x^2", "h_or_b": "(2)"},
                   {"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "x"},
                   {"theorem": "quad", "q": 5, "n": 2, "terms": [{"g": "x", "s": 10}]}]
        argvs = [["construct", "--recipe", json.dumps(r)] for r in recipes] + [
            ["analyze", "--field", "3^4", "--function", "x^5 + x", "--matrix-c", "2"],
            ["monomial", "--p", "3", "--h", "2", "--d", "5", "--c", "g", "--rmax", "2"]]
        code = ("import io, sys, contextlib; from cdu.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    codes = [main(argv) for argv in {argvs!r}]\n"
                f"print(codes + ['numpy.ma' in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.stdout == "[0, 0, 0, 0, 0, False]\n", proc.stderr

    def test_public_names_resolve(self):
        star = {}
        exec("from cdu import *", star)
        for name in cdu.__all__:
            value = getattr(cdu, name)
            assert star[name] is value
            assert getattr(importlib.import_module(value.__module__), name) is value
        with pytest.raises(AttributeError):
            cdu.no_such_name

    def test_suite_choices_are_the_verify_suites(self):
        from cdu import verify

        _, commands = cli.build_parser()
        suite = next(a for a in commands["verify-theorems"]._actions if a.dest == "suite")
        assert list(suite.choices) == sorted(verify.SUITES)


class TestDeterminismAndConfig:
    def test_threads_sharing_a_translate_table_print_the_same_bytes(self):
        # full_report keeps its workers for the benchmark's probe
        ctx = field.make_field(2, 10)
        cs = ctx.subfield_elements(2 ** 5)
        one, two = (cdiff.full_report(cdu.parse_function("x^43 + x^11 + x", ctx),
                                      workers=workers, cs=cs).to_dict()
                    for workers in (1, 2))
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)

    def test_config_file_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"field": "5^1", "function": "x^2"}))
        code, out, _ = run_cli(capsys, "analyze", "--field", "5^1",
                               "--function", "x^2", "--config", str(cfg))
        assert code == 0

    def test_config_sets_options_and_the_command_line_wins(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cap": 2, "force": True, "format": "human"}))
        args = ["analyze", "--field", "2^2", "--function", "x", "--config", str(cfg)]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and out.startswith("command: analyze")
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0 and json.loads(out)["command"] == "analyze"
        cfg.write_text(json.dumps({"cap": 2}))
        code, _, err = run_cli(capsys, *args)
        assert code == 2 and "exceeds the cap 2" in err

    @pytest.mark.parametrize("command,cfg,message", [
        ("analyze", {"cap": "big"}, "'big' is not a value of --cap"),
        ("analyze", {"cap": "9"}, "'9' is not a value of --cap"),
        ("analyze", {"parallel": 1}, "cdu analyze takes no option --parallel"),
        ("analyze", {"format": "xml"}, "'xml' is not a value of --format"),
        ("analyze", {"force": "yes"}, "--force takes true or false"),
        ("analyze", {"seed": 1}, "cdu analyze takes no option --seed"),
        ("monomial", {"strict": True}, "cdu monomial takes no option --strict"),
        ("verify-theorems", {"cap": 9}, "cdu verify-theorems takes no option --cap"),
        ("verify-theorems", {"suite": "nope"}, "'nope' is not a value of --suite"),
        ("verify-theorems", {"config": "other.json"}, "takes no option --config"),
    ])
    def test_bad_config_value(self, capsys, tmp_path, command, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, command, *_COMMAND_ARGV[command], "--config", str(path))
        assert code == 2 and out == ""
        assert message in err

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "analyze", "--field", "5^1",
                               "--function", "x^2", "--config", str(cfg))
        assert code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the cdu these tests import, installed or not
        src = os.path.dirname(os.path.dirname(cdu.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cdu", "analyze", "--field", "5^1",
             "--function", "x^2"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["report"]["summary"]["pcn_c"] == [1]

    def test_module_prints_what_main_prints(self, capsys):
        argv = ["analyze", "--field", "3^2", "--function", "x^2"]
        src = os.path.dirname(os.path.dirname(cdu.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "cdu", *argv], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
        code, out, _ = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")

    @pytest.mark.skipif(not _has_peak_rss(), reason="no VmHWM in /proc/self/status")
    def test_matrix_dump_memory_is_one_block(self, tmp_path):
        # the F_{2^11} matrix alone would take 16 MiB as int32
        argv = ["analyze", "--field", "2^11", "--function", "x^7"]
        csv = tmp_path / "ddt.csv"
        report = _peak_kib(*argv)
        dump = _peak_kib(*argv, "--matrix-c", "9", "--matrix-out", str(csv))
        assert csv.stat().st_size > 2048 * 2048
        assert dump - report < 4 * 1024, f"the dump added {dump - report} KiB"

    @pytest.mark.skipif(not _has_peak_rss(), reason="no VmHWM in /proc/self/status")
    def test_all_c_report_is_written_as_it_is_rendered(self):
        # 4,096 entries against 2 (c in F_2): a report held as per-entry
        # dicts and one document string would add about 5 MiB
        argv = ["analyze", "--field", "2^12", "--function", "x^7"]
        all_c = _peak_kib(*argv)
        scoped = _peak_kib(*argv, "--c-scope", "1")
        assert all_c - scoped < 2 * 1024, f"the all-c report added {all_c - scoped} KiB"

    @pytest.mark.parametrize("argv", [
        ["analyze", "--field", "2^10", "--function", "x^3"],
        ["analyze", "--field", "2^8", "--function", "x^3", "--matrix-c", "5"],
    ], ids=["report", "matrix"])
    def test_closed_stdout_ends_quietly(self, argv):
        # each writes well over a pipe's buffer, so the writer meets the
        # closed pipe rather than finishing first
        src = os.path.dirname(os.path.dirname(cdu.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "cdu", *argv], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path})
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert err == b""
