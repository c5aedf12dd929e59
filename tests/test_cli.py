"""Command-line surface: subcommands, exit codes, determinism."""

import concurrent.futures
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cdu
from cdu import cdiff, cli, construct, field, parallel
from cdu.cli import main


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


class TestCaps:
    def test_analyze_refuses_before_building(self, capsys, no_field_built):
        code, _, err = run_cli(capsys, "analyze", "--field", "3^4",
                               "--function", "x", "--cap", "80")
        assert code == 2 and "cap" in err
        assert "81 multipliers x 81 directions = 6561 c-derivative rows" in err
        assert err.count("semilinear twist") == 2 and "Frobenius" not in err
        code, _, err = run_cli(capsys, "analyze", "--field", "3^4", "--function", "x",
                               "--c-scope", "2", "--cap", "80")
        assert code == 2 and "9 multipliers x 81 directions = 729" in err

    def test_construct_refuses_before_building(self, capsys, no_field_built):
        recipe = json.dumps({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x",
                             "g": "x^2", "h_or_b": 1, "kind": "f1"})
        code, _, err = run_cli(capsys, "construct", "--recipe", recipe, "--cap", "8")
        assert code == 2 and "cap" in err
        assert "9 multipliers x 9 directions = 81 c-derivative rows" in err

    def test_construct_force(self, capsys):
        recipe = json.dumps({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x",
                             "g": "x^2", "h_or_b": 1, "kind": "f1"})
        code, out, _ = run_cli(capsys, "construct", "--recipe", recipe,
                               "--cap", "8", "--force")
        assert code == 0
        assert json.loads(out)["properties"]["is_permutation"] is True

    def test_monomial_refuses_before_building(self, capsys, no_field_built):
        code, _, err = run_cli(capsys, "monomial", "--p", "3", "--h", "3",
                               "--d", "5", "--c", "g", "--rmax", "2", "--cap", "728")
        assert code == 2 and "CapExceeded" in err and "729" in err

    def test_monomial_force(self, capsys):
        argv = ["monomial", "--p", "3", "--h", "3", "--d", "5", "--c", "g", "--rmax", "1"]
        code, out, _ = run_cli(capsys, *argv, "--cap", "3", "--force")
        assert code == 0
        _, plain, _ = run_cli(capsys, *argv)
        assert out == plain

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
        code, _, err = run_cli(capsys, "analyze", "--field", "3^10000", "--function", "x")
        assert code == 2 and "field order 3^10000 exceeds the cap 4096" in err
        assert "3^10000 multipliers x 3^10000 directions = 3^20000 c-derivative rows" in err
        code, _, err = run_cli(capsys, "analyze", "--field", "3^1000000000", "--function", "x")
        assert code == 2 and "3^1000000000 multipliers x 3^1000000000 directions" in err

    def test_construct_refuses_a_large_prime_q_before_factoring_it(self, capsys, monkeypatch,
                                                                  no_field_built):
        def refuse(m):
            raise AssertionError(f"factored {m} before the cap check")

        monkeypatch.setattr(cli, "prime_factors", refuse)
        for q, order in [(10000019, "100000380000361"), (2 ** 61 - 1, "2305843009213693951^2")]:
            recipe = json.dumps({"theorem": "pcn1", "q": q, "n": 2})
            code, _, err = run_cli(capsys, "construct", "--recipe", recipe)
            assert code == 2 and f"field order {order} exceeds the cap" in err

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

    def test_cap_refusal_and_force(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--field", "2^13",
                               "--function", "x")
        assert code == 2 and "cap" in err
        # force overrides the cap; shrink the cap so the sweep stays tiny
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

        path = tmp_path / "ddt.csv"
        code, out, _ = run_cli(capsys, "analyze", "--field", "5^1",
                               "--function", "x^2", "--matrix-c", "1",
                               "--matrix-out", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a\\b,0,1,2,3,4"
        assert len(lines) == 6
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
        assert rep["validation"]["pp_ok"] is True
        assert 0 in rep["classification"]["summary"]["pcn_c"]
        assert 2 in rep["classification"]["summary"]["pcn_c"]

    def test_apcnagw_recipe(self, capsys):
        recipe = json.dumps({"theorem": "apcnagw", "q": 4, "n": 3,
                             "phi": "x^2 + x", "g": "x", "h_or_b": 1, "kind": "f2"})
        code, out, _ = run_cli(capsys, "construct", "--recipe", recipe)
        assert code == 0
        rep = json.loads(out)
        assert rep["properties"]["is_two_to_one"] is True
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
        assert code == 2 and "EvenN" in err

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
    ])
    def test_malformed_recipe_is_a_config_error(self, capsys, recipe, key):
        code, _, err = run_cli(capsys, "construct", "--recipe", json.dumps(recipe))
        assert code == 2 and err.startswith("error: ") and key in err

    @pytest.mark.parametrize("recipe,failure", [
        ({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x", "g": "x^2"}, None),
        ({"theorem": "pcn1", "q": 3, "n": 2, "phi": "x^3 + 2*x", "g": "x"}, "PreconditionFailed"),
        ({"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x^2 + x", "g": "x"}, None),
        ({"theorem": "apcnagw", "q": 4, "n": 3, "phi": "x", "g": "x"}, "PhiNot2to1"),
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
        assert code == 2 and "BadC" in err

    def test_cap(self, capsys):
        code, _, err = run_cli(capsys, "monomial", "--p", "3", "--h", "3",
                               "--d", "5", "--c", "3", "--rmax", "9")
        assert code == 2 and "CapExceeded" in err

    def test_large_d_is_refused_before_factoring(self, capsys, monkeypatch, no_field_built):
        from cdu import monomial

        def refuse(m):
            raise AssertionError(f"factored {m} before the bound on d")

        monkeypatch.setattr(field, "prime_factors", refuse)
        monkeypatch.setattr(monomial, "prime_factors", refuse)
        for d, cost in [(10 ** 16 + 62, "54 bits, above the bound of 40: the sweep factors"
                                        " d - 1 and phi(d - 1) by trial division, about 2^27"),
                        (2 ** 40 + 1, "41 bits")]:
            code, out, err = run_cli(capsys, "monomial", "--p", "7", "--h", "2", "--d", str(d),
                                     "--c", "7", "--rmax", "1")
            assert code == 2 and out == "" and f"CapExceeded: d - 1 has {cost}" in err

    @pytest.mark.parametrize("p,d,force", [(7, 2 ** 40, []), (5, 2 ** 41 + 1, ["--force"])])
    def test_d_within_the_bound_or_forced(self, capsys, p, d, force):
        code, out, err = run_cli(capsys, "monomial", "--p", str(p), "--h", "1", "--d", str(d),
                                 "--c", "2", "--rmax", "1", *force)
        assert code == 0, err
        assert json.loads(out)["report"]["d"] == d


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


def _json_containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(st.text(max_size=4), children, max_size=4)
            | st.dictionaries(st.integers(-3, 20), children, max_size=3)
            # a list of nonempty dicts that nest nothing, like a report's entries
            | st.lists(st.dictionaries(st.text(max_size=3), _JSON_FLAT, min_size=1, max_size=4),
                       min_size=1, max_size=4))


class TestJsonEncoding:
    @settings(max_examples=400, deadline=None)
    @given(st.recursive(_JSON_FLAT, _json_containers, max_leaves=30))
    def test_indented_json_is_the_stdlib_encoding(self, obj):
        assert cli._indented_json(obj) == json.dumps(obj, sort_keys=True, indent=2)

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
        assert out == json.dumps(reports[0], sort_keys=True, indent=2) + "\n"
        if argv[0] == "analyze":
            entries = reports[0]["report"]["entries"]
            assert any("rep" in e for e in entries) and any("note" in e for e in entries)


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
