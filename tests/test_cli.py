"""Command-line interface: commands, exit codes, JSON stability."""

import contextlib
import io
import itertools
import json
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from knotgroups import cli, errors, fox, homsearch, permgroups, verification
from knotgroups.errors import InvalidParameterError
from knotgroups.laurent import parse_laurent
from knotgroups.presentations import Presentation, parse, rbg_family
from knotgroups.words import Word
from test_knot_symmetry import wirtinger_torus

FAMILY_M1 = rbg_family(1).render()
TREFOIL = "< a,b | a*b*a*b^-1*a^-1*b^-1 >\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_every_error_has_an_exit_code():
    # main maps InputError to exit 2 and ResourceError to exit 3, and
    # catches nothing else of the package
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.KnotGroupsError)]
    assert errors.BudgetExceededError in classes and errors.NotAMemberError in classes
    for cls in classes:
        if cls is not errors.KnotGroupsError:
            assert issubclass(cls, (errors.InputError, errors.ResourceError)), cls


class TestParseCommand:
    def test_echo_canonical(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, out, _ = run(capsys, "parse", path)
        assert code == 0
        assert out.strip() == FAMILY_M1.strip()

    def test_non_canonical_input_gets_canonicalized(self, tmp_path, capsys):
        path = write(tmp_path, "w.pres", "<x,y|(y*x)^2>")
        code, out, _ = run(capsys, "parse", path)
        assert code == 0
        assert out.strip() == "< x, y | y*x*y*x >"

    def test_undeclared_generator_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.pres", "< x | x*y >")
        code, _, err = run(capsys, "parse", path)
        assert code == 2
        assert "y" in err

    def test_empty_file_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "empty.pres", "")
        code, _, err = run(capsys, "parse", path)
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "parse", "/nonexistent/file.pres")
        assert code == 2

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin.pres"
        path.write_bytes(b"\xff< x | >\n")
        for argv in (["parse", str(path)], ["alex", str(path)],
                     ["count", str(path), "--group", "A5"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: cannot read {path}: 'utf-8' codec")
            assert err.count("\n") == 1

    def test_power_of_conjugate(self, tmp_path, capsys):
        path = write(tmp_path, "conj.pres", "< x, y | (x*y*x^-1)^1000000000 >")
        code, out, _ = run(capsys, "parse", path)
        assert code == 0
        assert out.strip() == "< x, y | x*y^1000000000*x^-1 >"

    def test_million_syllable_family(self, tmp_path, capsys):
        # family --m 250000 writes 10^6 syllables out in full: the text
        # parses back to itself, and alex stops at MAX_DERIVATIVE_TERMS
        text = rbg_family(250000).render()
        assert parse(text).render() == text
        path = write(tmp_path, "f250k.pres", text)
        code, out, err = run(capsys, "alex", path)
        assert (code, out) == (3, "")
        assert err == ("error: the Fox derivatives expand to 1000010 monomials, "
                       f"over the limit of {fox.MAX_DERIVATIVE_TERMS}\n")


class TestAlexCommand:
    def test_family_m1(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, out, _ = run(capsys, "alex", path)
        assert code == 0
        assert out.strip() == "1 - t + t^2"

    def test_free_rank_one(self, tmp_path, capsys):
        path = write(tmp_path, "free.pres", "< x | >\n")
        code, out, _ = run(capsys, "alex", path)
        assert code == 0
        assert out.strip() == "1"

    def test_trefoil(self, tmp_path, capsys):
        path = write(tmp_path, "tref.pres", TREFOIL)
        code, out, _ = run(capsys, "alex", path)
        assert code == 0
        assert out.strip() == "1 - t + t^2"

    def test_matrix_json(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, out, _ = run(capsys, "alex", path, "--matrix", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["alexander_polynomial"] == "1 - t + t^2"
        assert report["results"]["matrix"] == [
            ["-1 + t - t^2", "1 - t + t^2", "0"],
            ["-2*t^-1 + 1", "t^-1 - 1", "t^-1"],
        ]

    @pytest.mark.parametrize("text", [FAMILY_M1, wirtinger_torus(5).render()])
    def test_plain_alex_skips_the_deleted_column(self, tmp_path, capsys, monkeypatch, text):
        # a plain alex asks _fox_row for the kept columns only; --matrix
        # asks for the deleted one too, to print it
        asked = []
        real = fox._fox_row

        def recording(relator, column, weights):
            row = real(relator, column, weights)
            asked.append((set(column.values()), set(row)))
            return row

        monkeypatch.setattr(fox, "_fox_row", recording)
        path = write(tmp_path, "k.pres", text)
        deleted = fox.alexander_matrix(parse(text)).deleted
        asked.clear()
        assert run(capsys, "alex", path)[0] == 0
        assert asked and all(deleted not in columns | row for columns, row in asked)
        assert run(capsys, "alex", path, "--matrix")[0] == 0
        assert any(deleted in row for _, row in asked)

    def test_matrix_built_once(self, tmp_path, capsys, monkeypatch):
        # one Fox matrix and one abelianization serve both answers
        calls = {}
        for name in ("alexander_matrix", "abelianize"):
            def counted(*args, _name=name, _real=getattr(fox, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)
            monkeypatch.setattr(fox, name, counted)
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, out, _ = run(capsys, "alex", path, "--matrix", "--json")
        assert code == 0
        assert calls == {"alexander_matrix": 1, "abelianize": 1}
        assert out == json.dumps({
            "command": "alex",
            "inputs": {"file": path},
            "results": {
                "alexander_polynomial": "1 - t + t^2",
                "matrix": [["-1 + t - t^2", "1 - t + t^2", "0"],
                           ["-2*t^-1 + 1", "t^-1 - 1", "t^-1"]],
            },
        }, sort_keys=True, indent=2) + "\n"

    def test_matrix_of_deficient_presentation(self, tmp_path, capsys):
        # the deficiency is reported with or without --matrix
        path = write(tmp_path, "short.pres", "< x, y, z | x*y*x^-1*y^-1 >\n")
        plain = run(capsys, "alex", path)
        with_matrix = run(capsys, "alex", path, "--matrix")
        assert plain == with_matrix
        assert plain[0] == 2
        assert "need at least 2 relators" in plain[2]

    def test_huge_exponents_exit_3_quickly(self, tmp_path, capsys):
        path = write(tmp_path, "huge.pres", "< x, y | x^100000000*y*x^-100000001 >\n")
        started = time.perf_counter()
        code, _, err = run(capsys, "alex", path)
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert "monomials" in err

    def test_superscript_exponent_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "sup.pres", "< x | x^\u00b2 >\n")
        code, _, err = run(capsys, "alex", path)
        assert code == 2
        assert "expected an integer exponent, found '\u00b2' (line 1, column 9)" in err

    def test_exponent_past_the_digit_limit_exits_2_quickly(self, tmp_path, capsys):
        path = write(tmp_path, "long.pres", f"< x, y | x^{'9' * 5000}*y^-1 >\n")
        started = time.perf_counter()
        code, out, err = run(capsys, "alex", path)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        limit = sys.get_int_max_str_digits()
        assert err == f"error: exponent of more than {limit} digits (line 1, column 12)\n"

    def test_huge_power_exits_3_quickly(self, tmp_path, capsys):
        path = write(tmp_path, "power.pres", "< x, y | (y*x)^1000000000 >\n")
        started = time.perf_counter()
        code, _, err = run(capsys, "alex", path)
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert "syllables" in err

    def test_wide_gcd_ends_quickly(self, tmp_path, capsys):
        # weights 1001 and 1000, no column of weight 1: the one minor has
        # breadth ~10^6 and must be divided by (t^1000 - 1)/(t - 1)
        path = write(tmp_path, "wide.pres", "< x, y | x^1000*y^-1001 >\n")
        started = time.perf_counter()
        code, _, err = run(capsys, "alex", path)
        assert time.perf_counter() - started < 2.0
        assert code == 3
        assert "gcd" in err

    def test_wide_weights_with_a_unit_column_need_no_gcd(self, tmp_path, capsys):
        # weights 1, 1000, 10^6 present the free group on x: deleting x's
        # column leaves one minor, a monomial
        path = write(tmp_path, "free.pres", "< x, y, z | x^1000*y^-1, y^1000*z^-1 >\n")
        started = time.perf_counter()
        code, out, _ = run(capsys, "alex", path)
        assert time.perf_counter() - started < 2.0
        assert code == 0
        assert out.strip() == "1"

    def test_huge_divisor_exits_3_quickly(self, tmp_path, capsys):
        # T(400000, 400001): the divisor (t^400000 - 1)/(t - 1) alone is
        # past the gcd breadth limit, so it is never built densely
        path = write(tmp_path, "torus.pres", "< x, y | x^400000*y^-400001 >\n")
        started = time.perf_counter()
        code, _, err = run(capsys, "alex", path)
        assert time.perf_counter() - started < 2.0
        assert code == 3
        assert "breadth 399999" in err

    def test_monomial_pivots_make_nothing_dense(self, tmp_path, capsys):
        # weights up to 400^3 = 6.4 * 10^7 in a sparse square matrix: its
        # Bareiss pivots are +-1, and dividing by one is term by term
        path = write(tmp_path, "chain.pres", "< x, y, z, w | x^400*y^-1, y^400*z^-1, "
                                             "z^400*w^-1, w*x*w^-1*x^-1 >\n")
        started = time.perf_counter()
        code, out, _ = run(capsys, "alex", path)
        assert time.perf_counter() - started < 2.0
        assert (code, out) == (0, "1\n")

    def test_gcd_with_a_monomial_is_immediate(self, tmp_path, capsys):
        path = write(tmp_path, "mono.pres", "< x, y | x^16000*y^-1 >\n")
        started = time.perf_counter()
        code, out, _ = run(capsys, "alex", path)
        assert time.perf_counter() - started < 2.0
        assert code == 0
        assert out.strip() == "1"

    def test_many_row_sets_exit_3_quickly(self, tmp_path, capsys):
        # T(2,13) with its 13 Wirtinger relators and their conjugates by x1:
        # C(26, 12) = 9,657,700 sets of rows, refused before any minor
        base, x1 = wirtinger_torus(13), Word.generator("x1")
        conjugates = tuple(x1 * rel * ~x1 for rel in base.relators)
        pres = Presentation(base.generators, base.relators + conjugates, {})
        path = write(tmp_path, "t213.pres", pres.render())
        started = time.perf_counter()
        code, out, err = run(capsys, "alex", path)
        assert time.perf_counter() - started < 2.0
        assert (code, out) == (3, "")
        assert err == ("error: the minors run over C(26, 12) sets of rows, "
                       f"over the limit of {fox.MAX_ROW_SETS}\n")

    def test_torsion_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "tor.pres", "< x | x^2 >\n")
        code, _, err = run(capsys, "alex", path)
        assert code == 2
        assert "cyclic" in err


class TestCountCommand:
    def test_pin_x(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, out, _ = run(
            capsys, "count", path, "--group", "A5", "--pin", "x=(1,5,4,3,2)"
        )
        assert code == 0
        assert out.splitlines()[0] == "count = 6"

    def test_pin_a(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, out, _ = run(
            capsys, "count", path, "--group", "A5", "--pin", "a=(1,5,4,3,2)"
        )
        assert code == 0
        assert out.splitlines()[0] == "count = 1"

    def test_marker(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, out, _ = run(
            capsys, "count", path, "--group", "A5",
            "--marker", "meridian_G=(1,5,4,3,2)",
        )
        assert code == 0
        assert out.splitlines()[0] == "count = 1"

    def test_identity_pin_on_free_group(self, tmp_path, capsys):
        path = write(tmp_path, "free.pres", "< x | >\n")
        code, out, _ = run(capsys, "count", path, "--group", "A5", "--pin", "x=()")
        assert code == 0
        assert out.splitlines()[0] == "count = 1"

    def test_list_assignments(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, out, _ = run(
            capsys, "count", path, "--group", "A5",
            "--pin", "x=(1,5,4,3,2)", "--list", "--json",
        )
        assert code == 0
        report = json.loads(out)
        listed = report["results"]["assignments"]
        assert len(listed) == 6
        assert all(entry["x"] == "(1,5,4,3,2)" for entry in listed)

    def test_json_stable_across_runs(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        outputs = set()
        for _ in range(3):
            code, out, _ = run(
                capsys, "count", path, "--group", "A5",
                "--pin", "x=(1,5,4,3,2)", "--list", "--json",
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_naive_mode(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, out, _ = run(
            capsys, "count", path, "--group", "A5",
            "--pin", "x=(1,5,4,3,2)", "--mode", "naive",
        )
        assert code == 0
        assert out.splitlines()[0] == "count = 6"

    def test_group_too_large_exits_3(self, tmp_path, capsys):
        # S10 and A10 hold 3.6 and 1.8 * 10^7 points, over the 10^7 cap
        path = write(tmp_path, "free.pres", "< x | >\n")
        for group in ("S10", "A10"):
            code, _, err = run(capsys, "count", path, "--group", group)
            assert code == 3
            assert "cap" in err

    @pytest.mark.parametrize("args, message", [
        (("--group", "S20000"), "|S_20000| = 20000! exceeds cap 500 elements on 20000 points"),
        (("--group", "S200000"), "|S_200000| = 200000! exceeds cap 50 elements on 200000 points"),
        (("--group", "A3000"), "|A_3000| = 3000!/2 exceeds cap 3333 elements on 3000 points"),
        (("--group", "A5", "--mode", "naive"),
         "naive search space 60^3000 exceeds cap 10000000"),
    ], ids=["S20000", "S200000", "A3000", "naive-60^3000"])
    def test_huge_size_refused_quickly(self, tmp_path, capsys, args, message):
        # sizes are reported symbolically: printing 20000! or 60^3000 would
        # pass the interpreter's limit on converting an int to text
        gens = ", ".join(f"g{i}" for i in range(3000))
        path = write(tmp_path, "wide.pres", f"< {gens} | g0*g1 >\n")
        started = time.perf_counter()
        code, _, err = run(capsys, "count", path, *args)
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert err == f"error: {message}\n"

    def test_free_generators_multiply_the_count(self, tmp_path, capsys):
        # g2..g999 lie in no relator: each multiplies the count by |A5| = 60
        # without being walked, and g0*g1 leaves 60 choices for the pair
        gens = ", ".join(f"g{i}" for i in range(1000))
        path = write(tmp_path, "wide.pres", f"< {gens} | g0*g1 >\n")
        started = time.perf_counter()
        code, out, _ = run(capsys, "count", path, "--group", "A5")
        assert time.perf_counter() - started < 1.0
        assert code == 0
        assert out == f"count = {60 ** 999}\n"

    def test_count_past_the_int_to_str_limit_exits_3(self, tmp_path, capsys):
        # 60^2999 has 5333 decimal digits, more than str() converts
        gens = ", ".join(f"g{i}" for i in range(3000))
        path = write(tmp_path, "wide.pres", f"< {gens} | g0*g1 >\n")
        started = time.perf_counter()
        code, out, err = run(capsys, "count", path, "--group", "A5", "--json")
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert out == ""
        limit = sys.get_int_max_str_digits()
        assert err == f"error: count has more than {limit} decimal digits\n"

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_huge_listing_exits_3_quickly(self, tmp_path, capsys, json_flag):
        # 60^4 = 12,960,000 homomorphisms, refused once the listing passes
        # its limit
        path = write(tmp_path, "free4.pres", "< x, y, z, w | >\n")
        started = time.perf_counter()
        code, out, err = run(capsys, "count", path, "--group", "A5", "--list",
                             *json_flag)
        assert time.perf_counter() - started < 5.0
        assert (code, out) == (3, "")
        assert err == (f"error: listing exceeded the limit of "
                       f"{homsearch.MAX_LISTED_HOMS} homomorphisms\n")

    def test_text_listing_matches_json(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        argv = ("count", path, "--group", "A5", "--pin", "x=(1,5,4,3,2)", "--list")
        code, out, _ = run(capsys, *argv)
        listed = json.loads(run(capsys, *argv, "--json")[1])["results"]["assignments"]
        assert code == 0
        assert out.splitlines() == ["count = 6"] + [
            "  " + "  ".join(f"{g}={a[g]}" for g in ("x", "y", "a")) for a in listed
        ]

    def test_bad_pin_syntax_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, _, _ = run(capsys, "count", path, "--group", "A5", "--pin", "x")
        assert code == 2

    @pytest.mark.parametrize("option, binding", [
        ("--pin", "a=b=(1,2)"), ("--marker", "m=1=(1,2)"),
    ])
    def test_name_with_equals_sign(self, tmp_path, capsys, option, binding):
        # a permutation literal holds no '=', so the binding splits at the last
        text = "< a=b, y | a=b*y*a=b^-1*y^-1 >\nmeridian m=1: a=b\n"
        path = write(tmp_path, "eq.pres", text)
        s3 = permgroups.group_from_spec("S3")
        direct = homsearch.count_homs(parse(text), s3,
                                      {"a=b": permgroups.parse_permutation("(1,2)", 3)})
        assert direct.count == 2
        code, out, _ = run(capsys, "count", path, "--group", "S3", option, binding)
        assert (code, out) == (0, "count = 2\n")

    def test_generator_pinned_twice_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, out, err = run(capsys, "count", path, "--group", "A5",
                             "--pin", "x=(1,2,3)", "--pin", "x=(1,5,4,3,2)")
        assert (code, out) == (2, "")
        assert err == "error: generator 'x' is pinned twice\n"

    @pytest.mark.parametrize("spec", ["S\u00b2", "A\u00b2", "gen:\u00b2:[(1,2)]"])
    def test_superscript_group_degree_exits_2(self, tmp_path, capsys, spec):
        # '\u00b2' passes str.isdigit() but is not a decimal digit
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, out, err = run(capsys, "count", path, "--group", spec)
        assert (code, out) == (2, "")
        assert err == f"error: bad group spec {spec!r}\n"

    @pytest.mark.parametrize("spec", [
        "gen:7:[(1,2)(3,4),)]", "gen:5:[,(1,2)]", "gen:5:[(1,2),,(3,4)]",
        "gen:5:[)()]", "gen:5:[(1,2)()]", "gen:5:[(+1,2)]", "gen:5:[(1_0,2)]",
    ])
    def test_malformed_group_list_exits_2(self, tmp_path, capsys, spec):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, out, err = run(capsys, "count", path, "--group", spec)
        assert (code, out) == (2, "")
        assert err == f"error: bad group spec {spec!r}\n"

    @pytest.mark.parametrize("literal", [
        "(1,2)()", "()()", "(+1,2)", "(1_0,2)", "(1,\t2)", "(1,2",
    ])
    @pytest.mark.parametrize("option", ["--pin", "--marker"])
    def test_malformed_literal_exits_2(self, tmp_path, capsys, literal, option):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        name = "x" if option == "--pin" else "meridian_B"
        code, out, err = run(capsys, "count", path, "--group", "A5",
                             option, f"{name}={literal}")
        assert (code, out) == (2, "")
        assert err == f"error: bad permutation literal {literal!r}\n"

    @pytest.mark.parametrize("spec", ["S{}", "gen:{}:[(1,2)]"])
    def test_degree_past_the_digit_limit_exits_2_quickly(self, tmp_path, capsys, spec):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        spec = spec.format("9" * 5000)
        started = time.perf_counter()
        code, out, err = run(capsys, "count", path, "--group", spec)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        limit = sys.get_int_max_str_digits()
        assert err == f"error: a group degree has more than {limit} digits\n"

    def test_degree_past_the_point_cap_exits_3_quickly(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        started = time.perf_counter()
        code, out, err = run(capsys, "count", path, "--group", "gen:300000000:[(1,2)]")
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (3, "")
        # the identity and the generator hold a new int per point, four
        # points more each: 300000000 * (1 + 4 * 2)
        assert err == ("error: degree 300000000 exceeds the cap of 10000000 points: "
                       "the identity and generators count 2700000000\n")

    def test_wide_group_past_the_point_cap_exits_3(self, tmp_path, capsys):
        # S9 on 1000 points would hold 3.6 * 10^8 points; the walk stops at
        # 9988 elements, the 10^7 points less the 4 * 1000 * 3 points of the
        # new ints of the identity and the two generators, over 1000 points
        # each
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        started = time.perf_counter()
        code, out, err = run(capsys, "count", path, "--group",
                             "gen:1000:[(1,2,3,4,5,6,7,8,9),(1,2)]")
        assert time.perf_counter() - started < 2.0
        assert (code, out) == (3, "")
        assert err == "error: generated group exceeds cap 9988 elements on 1000 points\n"

    @pytest.mark.parametrize("text, args, count, nodes", [
        # A6, order 360: a product table of two bytes an entry
        (FAMILY_M1, ("--group", "A6", "--marker", "meridian_B=(1,2,3,4,5)"),
         31, (872, 129600)),
        # S7, order 5040, past TABLE_MAX_ORDER: each product composed when read
        ("< x, y | x^2, y^3, (x*y)^7 >\n", ("--group", "S7", "--pin", "x=(1,2)(3,4)"),
         96, (158, 5040)),
    ], ids=["A6", "S7"])
    def test_each_table_regime(self, tmp_path, capsys, text, args, count, nodes):
        path = write(tmp_path, "p.pres", text)
        for mode, mode_nodes in zip(("backtrack", "naive"), nodes):
            code, out, _ = run(capsys, "count", path, *args, "--mode", mode, "--json")
            report = json.loads(out)
            assert code == 0
            assert (report["results"]["count"], report["stats"]["nodes"]) == (count, mode_nodes)

    def test_pin_on_last_generator_lists_in_declaration_order(self, tmp_path, capsys):
        # a is declared last and walked first; the listing is the unpinned
        # listing's, restricted to a = sigma, in the same order
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        argv = ("count", path, "--group", "A4", "--list", "--json")
        full = json.loads(run(capsys, *argv)[1])["results"]["assignments"]
        for mode in ("backtrack", "naive"):
            code, out, _ = run(capsys, *argv, "--pin", "a=(1,2,3)", "--mode", mode)
            listed = json.loads(out)["results"]["assignments"]
            assert code == 0
            assert listed == [h for h in full if h["a"] == "(1,2,3)"]
            assert len(listed) > 1


PSL27 = "gen:7:[(1,2,3,4,5,6,7),(2,3,5)(4,7,6),(3,7)(5,6)]"
WORD_MARKED = "< c, y | c*y*c*y^-1*c^-1*y^-1 >\nmeridian w: c*y\n"
S9_GENERATED = "gen:9:[(1,2,3,4,5,6,7,8,9),(1,2)]"


class TestGroupIsKeys:
    """A count reads its group as packed keys and indices."""

    @pytest.mark.parametrize("group, text, args, count, made", [
        # the generators, then each pin or marker target, once each
        ("A5", FAMILY_M1, ["--marker", "meridian_B=(1,5,4,3,2)"], 6, 2 + 1),
        (PSL27, WORD_MARKED, ["--marker", "w=(2,3,5)(4,7,6)"], 22, 3 + 1),
        (S9_GENERATED, "< x | x >", ["--pin", "x=()"], 1, 2 + 1),
        ("S9", "< x | x >", ["--pin", "x=()"], 1, 2 + 1),
        # S9 and A9 hold 3.3 and 1.6 * 10^6 points, under the 10^7 cap
        ("A9", "< x | x >", ["--pin", "x=()"], 1, 2 + 1),
    ], ids=["A5", "PSL27", "gen9", "S9", "A9"])
    def test_count_makes_no_permutation_per_element(self, tmp_path, capsys, monkeypatch,
                                                    group, text, args, count, made):
        path = write(tmp_path, "p.pres", text)
        calls = []
        raw, init = permgroups.Permutation._raw, permgroups.Permutation.__init__

        def counted_raw(images):
            calls.append(images)
            return raw(images)

        def counted_init(self, images):
            calls.append(images)
            init(self, images)

        monkeypatch.setattr(permgroups.Permutation, "_raw", staticmethod(counted_raw))
        monkeypatch.setattr(permgroups.Permutation, "__init__", counted_init)
        code, out, _ = run(capsys, "count", path, "--group", group, *args, "--json")
        assert code == 0
        assert json.loads(out)["results"]["count"] == count
        assert len(calls) == made

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads ru_maxrss in kilobytes")
    def test_generated_s9_count_memory(self, tmp_path):
        # S9 by closure, 362,880 elements: its keys and their dict, with no
        # Permutation per element, peaked at 194 MB when it had them
        path = write(tmp_path, "x.pres", "< x | x >\n")
        argv = ["count", path, "--group", S9_GENERATED, "--pin", "x=()", "--json"]
        child = f"import sys; from knotgroups import cli; sys.exit(cli.main({argv!r}))"
        driver = (
            "import resource, subprocess, sys\n"
            f"code = subprocess.call([sys.executable, '-c', {child!r}])\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run([sys.executable, "-c", driver], capture_output=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["count"] == 1
        # measured at 85-86 MB on CPython 3.11
        assert int(proc.stderr.decode().splitlines()[-1]) < 100 * 1024


class TestListing:
    """``count --list`` writes its rows from the search's index tuples; the
    bytes must be those of ``json.dumps(report, sort_keys=True, indent=2)``
    with the rows as a list of dicts, and text rows in declaration order."""

    @pytest.mark.parametrize("text, args, count", [
        (FAMILY_M1, ("--group", "A5"), 480),
        (FAMILY_M1, ("--group", PSL27), 2688),
        (FAMILY_M1, ("--group", "A5", "--pin", "x=(1,5,4,3,2)"), 6),
        # w = c*y becomes a relator on a new generator c', which is not listed
        (WORD_MARKED, ("--group", "S4", "--marker", "w=(1,2,3)"), 10),
        ("< x | x^2 >\n", ("--group", "A5", "--pin", "x=(1,2,3)"), 0),
    ], ids=["A5", "PSL27", "pin", "word-marker", "zero"])
    def test_listing(self, tmp_path, capsys, text, args, count):
        path = write(tmp_path, "p.pres", text)
        generators = parse(text).generators
        argv = ("count", path, *args, "--list")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        report = json.loads(out)
        listed = report["results"]["assignments"]
        assert report["results"]["count"] == count == len(listed)
        assert len({tuple(sorted(h.items())) for h in listed}) == count
        assert all(list(h) == sorted(generators) for h in listed)
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines() == [f"count = {count}"] + [
            "  " + "  ".join(f"{g}={h[g]}" for g in generators) for h in listed
        ]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads ru_maxrss in kilobytes")
    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    def test_long_listing_streams(self, tmp_path, as_json):
        # all 316^2 = 99,856 homomorphisms of the free group of rank 2 into
        # the dihedral group of degree 158, under MAX_LISTED_HOMS; written
        # whole, they took 399 MB with --json and 170 MB as text
        path = write(tmp_path, "free2.pres", "< x, y | >\n")
        rotation = "(" + ",".join(map(str, range(1, 159))) + ")"
        reflection = "".join(f"({i},{160 - i})" for i in range(2, 80))
        argv = ["count", path, "--group", f"gen:158:[{rotation},{reflection}]",
                "--list"] + ["--json"] * as_json
        # Linux gives a process the peak RSS of the one it was started from
        # (here the test run), so the listing runs as the child of a small
        # driver, which reads the child's ru_maxrss
        child = f"import sys; from knotgroups import cli; sys.exit(cli.main({argv!r}))"
        driver = (
            "import resource, subprocess, sys\n"
            f"code = subprocess.call([sys.executable, '-c', {child!r}])\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.Popen([sys.executable, "-c", driver], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        # a JSON row opens with its own line at six spaces, a text row with x=
        row = b"      {\n" if as_json else b"  x="
        rows = sum(1 for line in proc.stdout if line.startswith(row))
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0, err
        assert rows == 99_856
        # measured at 29.6 MB (--json) and 28.2 MB (text) on CPython 3.11
        assert int(err.splitlines()[-1]) < 60 * 1024

    names = st.one_of(
        st.sampled_from(["B", "a", "\u00e9", 'q"', "b\\", "%s", "x\x01", "\u2603"]),
        st.text(min_size=1, max_size=4),
    )

    @settings(max_examples=150, deadline=None)
    @given(
        generators=st.lists(names, min_size=0, max_size=4, unique=True),
        elements=st.lists(st.text(max_size=5), min_size=1, max_size=6),
        data=st.data(),
        inputs=st.dictionaries(names, st.text(max_size=5), max_size=3),
        count=st.integers(min_value=0, max_value=10**30),
        batch=st.integers(min_value=1, max_value=4),
    )
    def test_writer_matches_json_dumps(self, generators, elements, data, inputs,
                                       count, batch):
        index = st.integers(min_value=0, max_value=len(elements) - 1)
        leaf = st.tuples(*[index] * len(generators))
        leaves = data.draw(st.lists(leaf, max_size=12))
        listing = cli.Listing([], tuple(generators), elements, leaves)

        def report(listed):
            return {"command": "count", "inputs": {"file": "p", "pins": inputs},
                    "results": {"assignments": listed, "count": count},
                    "stats": {"nodes": 1}}

        listed = [{g: elements[i] for g, i in zip(generators, leaf)} for leaf in leaves]
        written = report(listing.slot)
        rows = ["  " + "  ".join(f"{g}={h[g]}" for g in generators) for h in listed]
        with mock.patch.object(cli, "_BATCH", batch):
            for as_json, expected in (
                (True, json.dumps(report(listed), sort_keys=True, indent=2) + "\n"),
                (False, "".join(line + "\n" for line in ["count = 1"] + rows)),
            ):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    cli._emit(written, as_json, ["count = 1"], 0.0, listing)
                assert out.getvalue() == expected
                assert listing.slot == []


class TestFamilyCommand:
    def test_m1_matches_library(self, tmp_path, capsys):
        out_path = tmp_path / "fam.pres"
        code, _, _ = run(capsys, "family", "--m", "1", "--out", str(out_path))
        assert code == 0
        assert parse(out_path.read_text()) == rbg_family(1)

    def test_m1_relators_match_conventional_form(self, capsys):
        # the first relator is a cyclic rotation of x^-1 y x y x^-1 y^-1;
        # the second is literally x^-1 a x a^-1 x^-1 y a y^-1
        code, out, _ = run(capsys, "family", "--m", "1")
        assert code == 0
        pres = parse(out)
        target = Word(
            [("x", -1), ("y", 1), ("x", 1), ("y", 1), ("x", -1), ("y", -1)]
        )
        letters = [
            (g, s)
            for g, e in pres.relators[0].syllables
            for s in ([1] * e if e > 0 else [-1] * -e)
        ]
        rotations = [
            Word(letters[k:] + letters[:k]) for k in range(len(letters))
        ]
        assert target in rotations
        assert str(pres.relators[1]) == "x^-1*a*x*a^-1*x^-1*y*a*y^-1"
        assert str(pres.markers["meridian_B"]) == "x"
        assert str(pres.markers["meridian_G"]) == "a"

    def test_m0_exits_2(self, capsys):
        code, _, err = run(capsys, "family", "--m", "0")
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize("m", ["1_0", "+3", " 3", "\u0663x", "three", "-3"])
    def test_m_is_decimal_digits(self, capsys, m):
        # int() alone would read '1_0' as 10 and ' +3' as 3
        code, out, err = run(capsys, "family", "--m", m)
        assert (code, out) == (2, "")
        assert err == f"error: --m takes decimal digits, got {m!r}\n"

    def test_m_past_the_digit_limit_exits_2(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "family", "--m", "9" * (limit + 1))
        assert (code, out) == (2, "")
        assert err == f"error: --m has more than {limit} digits\n"
        # at the limit, 4m has one digit more than str() prints
        code, out, err = run(capsys, "family", "--m", "9" * limit)
        assert (code, out) == (3, "")
        assert "syllables" in err and err.count("\n") == 1

    def test_m181_matches_library(self, capsys):
        assert run(capsys, "family", "--m", "181") == (0, rbg_family(181).render(), "")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "f.pres"
        code, out, err = run(capsys, "family", "--m", "1", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert err.count("\n") == 1

    def test_m61_relator_size(self, capsys):
        code, out, _ = run(capsys, "family", "--m", "61")
        assert code == 0
        pres = parse(out)
        assert len(pres.relators[0].syllables) == 4 * 61 + 2

    def test_huge_m_exits_3_quickly(self, capsys):
        started = time.perf_counter()
        code, out, err = run(capsys, "family", "--m", "1000000000")
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (3, "")
        assert "syllables" in err and err.count("\n") == 1


@pytest.fixture
def quick_checks(monkeypatch):
    """Restrict the verify suite to its fast checks for CLI plumbing tests."""
    fast = [
        c for c in verification.CHECKS
        if c.name in ("alexander-family-formula", "explicit-homomorphism")
    ]
    monkeypatch.setattr(verification, "CHECKS", fast)
    return fast


class TestVerifyCommand:
    def test_passes_on_clean_build(self, capsys, quick_checks):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = out.splitlines()
        assert sum(line.startswith("PASS") for line in lines) == len(quick_checks)
        assert lines[-1] == "all checks passed"

    def test_json_report(self, capsys, quick_checks):
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["all_ok"] is True
        names = [c["name"] for c in report["results"]["checks"]]
        assert names == [c.name for c in quick_checks]
        for c in report["results"]["checks"]:
            assert c == {"name": c["name"], "passed": True, "detail": ""}

    def test_verdict_reads_no_clock(self, capsys, monkeypatch):
        # a clock that jumps 10^4 s a call changes no verdict and no byte of
        # stdout, only the text mode's wall time on stderr
        argvs = (("verify",), ("verify", "--json"))
        plain = [run(capsys, *argv) for argv in argvs]
        ticks = itertools.count(step=10 ** 4)
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        slow = [run(capsys, *argv) for argv in argvs]
        assert [(code, out) for code, out, _ in slow] == [(0, out) for _, out, _ in plain]
        assert [err for _, _, err in slow] == ["wall time: 10000.000s\n", ""]

    def test_json_runs_every_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["inputs"] == {"expectations_version": "1"}
        assert report["results"]["all_ok"] is True
        names = [c["name"] for c in report["results"]["checks"]]
        assert names == [c.name for c in verification.CHECKS]
        assert "representation-counts-deep" in names

    def test_tampered_family_fails_named_check(self, capsys, monkeypatch,
                                               quick_checks):
        # same generators and markers, but a tampered first relator at m = 1
        tampered = parse(
            "< x, y, a | y*x*y*x^-1*y^-1*x^-2, x^-1*a*x*a^-1*x^-1*y*a*y^-1 >\n"
            "meridian meridian_B: x\nmeridian meridian_G: a\n"
        )
        monkeypatch.setattr(verification, "rbg_family",
                            lambda m: tampered if m == 1 else rbg_family(m))
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert any(
            line.startswith("FAIL alexander-family-formula")
            for line in out.splitlines()
        )

    @pytest.mark.parametrize("table, key, wrong, name, detail", [
        ("explicit_hom", "a", "(2,5,4)", "explicit-homomorphism",
         "m=1: assignment is not a homomorphism"),
        (None, "matrix_m1_row1_rotated", ("-t^-1 + 1 + t", "t^-1 - 1 + t", "0"),
         "alexander-matrix-entries", "row 1 col 0: -1 + t - t^2 not an associate of"),
    ], ids=["explicit-homomorphism", "alexander-matrix-entries"])
    def test_wrong_expectation_fails_named_check(self, capsys, monkeypatch, table, key,
                                                 wrong, name, detail):
        expected = verification.EXPECTED
        monkeypatch.setitem(expected[table] if table else expected, key, wrong)
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 1
        failed = [c for c in json.loads(out)["results"]["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == [name]
        assert failed[0]["detail"].startswith(detail)


def parse_outcome(parse_args, argv, capsys):
    """What parsing ``argv`` gives: the namespace's fields, or the exit
    code and both streams of a usage error or of help."""
    try:
        fields = vars(parse_args(list(argv)))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err
    return dict(sorted(fields.items()))


class TestCommandParser:
    """``main`` builds the parser of the command it runs, alone, and gets
    every answer, usage error and help text the full parser gives."""

    def test_valid_calls_build_no_full_parser(self, tmp_path, capsys,
                                              monkeypatch):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("full parser built"))
        assert run(capsys, "parse", path)[:2] == (0, FAMILY_M1)
        code, out, _ = run(capsys, "alex", path, "--matrix")
        assert code == 0 and out.splitlines()[0] == "1 - t + t^2"
        code, out, _ = run(capsys, "count", path, "--group", "A5",
                           "--pin", "x=(1,5,4,3,2)")
        assert code == 0 and out.splitlines()[0] == "count = 6"
        code, out, _ = run(capsys, "count", path, "--group", "A5",
                           "--marker", "meridian_B=(1,5,4,3,2)", "--list")
        assert code == 0 and out.splitlines()[0] == "count = 6"
        assert run(capsys, "family", "--m", "1")[:2] == (0, FAMILY_M1)

    def test_each_command_parser_is_built_once(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        parser = cli._command_parser("count")
        assert cli._command_parser("count") is parser
        assert cli._command_parser("alex") is not parser
        # a usage error leaves the parser as it was for the next call
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", path, "--group", "A5", "--mode", "fast"])
        assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
        code, out, _ = run(capsys, "count", path, "--group", "A5",
                           "--pin", "x=(1,5,4,3,2)")
        assert code == 0 and out.splitlines()[0] == "count = 6"
        assert cli._command_parser("count") is parser

    def test_pins_do_not_carry_over(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, out, _ = run(capsys, "count", path, "--group", "A5", "--json",
                           "--pin", "x=(1,5,4,3,2)", "--pin", "y=(1,5,4,3,2)")
        assert code == 0
        assert sorted(json.loads(out)["inputs"]["pins"]) == ["x", "y"]
        code, out, _ = run(capsys, "count", path, "--group", "A5", "--json")
        assert code == 0
        assert json.loads(out)["inputs"]["pins"] == {}

    @pytest.mark.parametrize("argv", [
        ("alex", "f.pres", "--json"),
        ("alex", "f.pres", "--mat"),
        ("alex", "--", "f.pres"),
        ("count", "f.pres", "--group", "A5", "--pin", "x=(1,2)", "--pin", "y=(1,2)"),
        ("family", "--m", "3", "--out", "f.pres"),
        # refused by the command's own parser
        ("alex",),
        ("count", "f.pres"),
        ("count", "f.pres", "--group", "A5", "--mode", "fast"),
        ("count", "f.pres", "--group", "A5", "--pin", "x=(1,2)", "--marker", "m=(1,2)"),
        ("family", "--m", "three"),
        # words the command's parser leaves over
        ("alex", "f.pres", "g.pres"),
        ("count", "f.pres", "--group", "A5", "--no-such-option"),
        ("count", "f.pres", "--group", "A5", "--marker", "m=(1,2)", "--jobs", "2"),
        ("verify", "--deep", "--jobs", "2"),
        ("verify", "--deep"),
        ("verify", "--override", "f"),
        ("count", "f.pres", "--group", "A5", "--j", "1"),  # --j is --json
        ("--no-such-option", "alex", "f.pres"),
        # no command
        (),
        ("bogus", "f.pres"),
        ("-h",),
    ])
    def test_same_outcome_as_the_full_parser(self, capsys, argv):
        full = parse_outcome(cli.build_parser().parse_args, argv, capsys)
        assert parse_outcome(cli._parse_argv, argv, capsys) == full

    @pytest.mark.parametrize("argv", [
        ("count", "f.pres", "--group", "A5", "--jobs", "2"),
        ("verify", "--jobs", "2"),
    ])
    def test_jobs_is_refused(self, capsys, argv):
        for parse_args in (cli._parse_argv, cli.build_parser().parse_args):
            code, out, err = parse_outcome(parse_args, argv, capsys)
            assert (code, out) == (2, "")
            assert err.endswith("error: unrecognized arguments: --jobs 2\n")

    @pytest.mark.parametrize("columns", ["60", "120"])
    def test_help_matches_the_full_parser(self, capsys, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", columns)
        for command in ([], ["parse"], ["alex"], ["count"], ["family"], ["verify"]):
            helps = []
            for parse_args in (cli.main, cli.build_parser().parse_args):
                with pytest.raises(SystemExit) as exc:
                    parse_args(command + ["--help"])
                assert exc.value.code == 0
                helps.append(capsys.readouterr().out)
            assert helps[0] == helps[1]
            assert helps[0].startswith(" ".join(["usage: knotgroups"] + command))


class TestLongInputErrors:
    """A refusal that quotes user input quotes at most its first
    ``QUOTE_LIMIT`` characters, so that its error stays one short line."""

    LONG = 100_000

    @pytest.mark.parametrize("argv", [
        ("--group", "gen:5:[(1,2)" + "x" * LONG + "]"),
        ("--group", "A5", "--pin", "x" * LONG),
        ("--group", "A5", "--pin", "x=(1,2" + ",3" * LONG),
        ("--group", "A5", "--pin", "x" * LONG + "=(1,2,3)"),
        ("--group", "A5", "--pin", "x" * LONG + "=(1,2,3)", "--pin", "x" * LONG + "=()"),
        ("--group", "A5", "--marker", "m" * LONG),
        ("--group", "A5", "--marker", "meridian_B=(1,2" + "," * LONG + ")"),
        ("--group", "A5", "--marker", "m" * LONG + "=(1,2,3)"),
    ], ids=["group", "pin-binding", "pin-literal", "pinned-name", "pinned-twice",
            "marker-binding", "marker-literal", "marker-name"])
    def test_count_option(self, tmp_path, capsys, argv):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        code, out, err = run(capsys, "count", path, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 300
        assert " characters)" in err

    @pytest.mark.parametrize("text", [
        "< x | x*" + "y" * LONG + " >\n",                       # undeclared name
        "< x | x >\n" + "z" * LONG,                             # stray token
        "< x | x > " + "y" * LONG + "\n",                       # not a marker line
        "< x, " + "y" * LONG + ", " + "y" * LONG + " | x >\n",  # declared twice
        "< x | x >\nmeridian " + "m" * LONG + ": x\nmeridian " + "m" * LONG + ": x\n",
        "< x | x^" + "\u00e9" * LONG + " >\n",                 # not an exponent
        "< x | " + "\U0001d538" * LONG + " >\n",               # undeclared, 4-byte
    ], ids=["undeclared", "trailing", "marker-line", "generator-twice",
            "marker-twice", "exponent", "wide-characters"])
    def test_presentation_file(self, tmp_path, capsys, text):
        path = write(tmp_path, "long.pres", text)
        code, out, err = run(capsys, "parse", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 300
        assert f"... ({self.LONG + 2} characters)" in err  # the quotes too

    def test_laurent_text(self):
        text = "1 + t^" + "x" * self.LONG
        with pytest.raises(InvalidParameterError) as exc:
            parse_laurent(text)
        assert len(str(exc.value).encode()) < 300
        assert str(exc.value).endswith(f"... ({len(text) + 2} characters)")

    def test_short_input_is_quoted_whole(self, tmp_path, capsys):
        path = write(tmp_path, "f1.pres", FAMILY_M1)
        spec = "gen:5:[" + "x" * 71 + "]"  # 79 characters, 81 quoted
        code, _, err = run(capsys, "count", path, "--group", spec)
        assert code == 2
        assert err == "error: bad group spec " + repr(spec)[:80] + "... (81 characters)\n"
        spec = spec[:-2] + "]"  # 78 characters, 80 quoted
        code, _, err = run(capsys, "count", path, "--group", spec)
        assert code == 2
        assert err == f"error: bad group spec {spec!r}\n"
