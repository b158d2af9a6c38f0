import contextlib
import importlib.util
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oihilbert import analysis, cli, oicore
from oihilbert.errors import SchemaError
from oihilbert.oicore import Monomial, ModulePresentation
from oihilbert.polyarith import BiPoly
from oihilbert.schema import (
    MAX_WIDTH,
    load_document,
    monomial_to_obj,
    parse_document,
)
from oihilbert.series import free_series
from oihilbert.words import alphabet, word_to_str

from enumerate_small import lstd_words

INPUTS = Path(__file__).resolve().parent.parent / "inputs"
README = INPUTS.parent / "README.md"


def minimal(**over):
    doc = {
        "schema_version": 1,
        "c": 1,
        "summands": [{"d": 0, "shift": 0}],
        "generators": [
            {"summand": 0, "width": 1, "exponents": [[1]]}],
        "mode": "quotient",
    }
    doc.update(over)
    return doc


class TestSchema:
    def test_minimal_document(self):
        doc = parse_document(minimal())
        assert doc.quotient
        p = doc.effective_presentation()
        assert p.c == 1
        assert p.generators == (Monomial(1, 1, ((1,),)),)

    def test_defaults(self):
        doc = parse_document({
            "schema_version": 1, "c": 2, "summands": [{"d": 1}]})
        p = doc.presentation
        assert p.summands == ((1, 0),)
        assert p.generators == ()
        assert p.category == "OI"
        assert doc.quotient

    def test_exponents_default_to_zero(self):
        doc = parse_document(minimal(
            generators=[{"summand": 0, "width": 2}]))
        assert doc.presentation.generators[0] == Monomial(
            1, 2, ((0,), (0,)))

    @pytest.mark.parametrize("patch,fragment", [
        ({"schema_version": None}, "$.schema_version"),
        ({"schema_version": 2}, "unsupported version"),
        ({"c": 0}, "$.c"),
        ({"c": True}, "$.c"),
        ({"summands": []}, "$.summands"),
        ({"summands": [{"d": -1}]}, "$.summands[0].d"),
        ({"summands": [{"d": 0, "rank": 1}]}, "unknown keys"),
        ({"mode": "both"}, "$.mode"),
        ({"category": "SI"}, "$.category"),
        ({"nonsense": 1}, "unknown keys"),
        ({"generators": [{"width": 1, "exponents": [[1], [1]]}]},
         "$.generators[0].exponents"),
        ({"generators": [{"width": 1, "exponents": [[1, 2]]}]},
         "$.generators[0].exponents[0]"),
        ({"generators": [{"width": 1, "exponents": [[-1]]}]},
         "at least 0"),
        ({"generators": [{"width": 1, "pi": [1]}]}, "needs 0 entries"),
        ({"generators": [{"width": 1, "summand": 3}]},
         "$.generators[0].summand"),
        ({"asserted_groebner": [{"width": 1, "terms": []}]},
         "no nonzero term"),
        ({"asserted_groebner": [
            {"width": 1, "terms": [{"coeff": 0, "exponents": [[1]]}]}]},
         "no nonzero term"),
    ])
    def test_rejections(self, patch, fragment):
        with pytest.raises(SchemaError) as err:
            parse_document(minimal(**patch))
        assert fragment in str(err.value)

    def test_width_bound(self, capsys, tmp_path):
        # parse first: the command below runs only once the bound holds,
        # since the engines would allocate for every one of the columns
        wide = {"schema_version": 1, "c": 1, "summands": [{"d": 0}],
                "generators": [{"width": 100000}]}
        with pytest.raises(SchemaError):
            parse_document(wide)
        code, out, err = run(capsys, "hilbert", write_doc(tmp_path, wide))
        assert (code, out) == (2, "")
        assert err.strip() == (f"error: $.generators[0].width: must be at "
                               f"most {MAX_WIDTH}")
        with pytest.raises(SchemaError) as exc:
            parse_document(minimal(asserted_groebner=[
                {"width": MAX_WIDTH + 1, "terms": [{"coeff": 1}]}]))
        assert "$.asserted_groebner[0].width: must be at most 1000" in str(
            exc.value)
        doc = parse_document(minimal(generators=[{"width": MAX_WIDTH}]))
        assert doc.presentation.generators[0].width == MAX_WIDTH

    def test_rows_and_rank_bound(self, capsys, tmp_path):
        # c and every summand's d are bounded like a width: the largest
        # parses, one more is a schema error before any engine allocates
        doc = parse_document(minimal(c=MAX_WIDTH, generators=[]))
        assert doc.presentation.c == MAX_WIDTH
        doc = parse_document(minimal(summands=[{"d": MAX_WIDTH}],
                                     generators=[]))
        assert doc.presentation.summands == ((MAX_WIDTH, 0),)
        for over, path in ((dict(c=MAX_WIDTH + 1), "$.c"),
                           (dict(summands=[{"d": MAX_WIDTH + 1}]),
                            "$.summands[0].d")):
            bad = write_doc(tmp_path, minimal(generators=[], **over))
            code, out, err = run(capsys, "hilbert", bad)
            assert (code, out) == (2, "")
            assert err.strip() == f"error: {path}: must be at most {MAX_WIDTH}"

    def test_pi_validation_paths(self):
        base = {
            "schema_version": 1, "c": 1,
            "summands": [{"d": 2, "shift": 0}],
        }
        for pi, fragment in [
                ([2, 1], "strictly increasing"),
                ([1, 4], "at most 3"),
                ([1], "needs 2 entries")]:
            with pytest.raises(SchemaError) as err:
                parse_document(dict(base, generators=[
                    {"width": 3, "pi": pi}]))
            assert fragment in str(err.value)

    def test_fi_requires_rank_zero(self):
        with pytest.raises(SchemaError) as err:
            parse_document({
                "schema_version": 1, "c": 1,
                "summands": [{"d": 1}], "category": "FI"})
        assert "d = 0" in str(err.value)

    def test_groebner_lead_becomes_generator(self):
        doc = parse_document(minimal(
            generators=[],
            asserted_groebner=[{
                "width": 2,
                "terms": [
                    {"coeff": 1, "exponents": [[2], [0]]},
                    {"coeff": -1, "exponents": [[1], [1]]},
                ],
            }]))
        assert len(doc.groebner_leads) == 1
        p = doc.effective_presentation()
        assert doc.groebner_leads == p.generators

    def test_groebner_lead_skips_zero_terms(self):
        # x[1,2]^2 is the larger term and leads unless its coefficient is
        # 0, when x[1,1]*x[1,2] does; a zero term of another degree counts
        # neither for the lead nor for the one-degree rule
        big = [[0], [2]]
        small = [[1], [1]]
        for big_coeff, lead in ((1, big), (0, small)):
            doc = parse_document(minimal(generators=[], asserted_groebner=[{
                "width": 2,
                "terms": [{"coeff": big_coeff, "exponents": big},
                          {"coeff": 2, "exponents": small},
                          {"coeff": 0, "exponents": [[3], [0]]}]}]))
            assert doc.groebner_leads == (Monomial(1, 2, lead),)

    def test_fi_document_symmetrizes(self):
        doc = parse_document({
            "schema_version": 1, "c": 2,
            "summands": [{"d": 0}],
            "generators": [
                {"width": 2, "exponents": [[1, 0], [0, 1]]}],
            "category": "FI"})
        p = doc.effective_presentation()
        assert p.category == "OI"
        assert set(p.generators) == {
            Monomial(2, 2, ((1, 0), (0, 1))),
            Monomial(2, 2, ((0, 1), (1, 0)))}

    def test_monomial_obj_round_trip(self):
        m = Monomial(2, 3, ((1, 0), (0, 2), (0, 0)), (1, 3), 0)
        doc = parse_document({
            "schema_version": 1, "c": 2,
            "summands": [{"d": 2}],
            "generators": [monomial_to_obj(m)]})
        assert doc.presentation.generators == (m,)

    def test_load_document_errors(self, tmp_path):
        with pytest.raises(SchemaError):
            load_document(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SchemaError) as err:
            load_document(bad)
        assert "invalid JSON" in str(err.value)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_doc(tmp_path, obj, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestCommands:
    def test_hilbert_principal(self, capsys, tmp_path):
        doc = write_doc(tmp_path, minimal())
        code, out, _ = run(capsys, "hilbert", doc, "--reduce")
        assert code == 0
        assert out.splitlines()[0] == "1/(1 - s)"
        assert "conformant" in out

    def test_hilbert_free_rank_one(self, capsys, tmp_path):
        doc = write_doc(tmp_path, {
            "schema_version": 1, "c": 1,
            "summands": [{"d": 1}], "generators": []})
        code, out, _ = run(capsys, "hilbert", doc)
        assert code == 0
        assert out.splitlines()[0] == "(s - s*t)/(1 - t - s)^2"

    def test_hilbert_json(self, capsys, tmp_path):
        doc = write_doc(tmp_path, minimal())
        code, out, _ = run(capsys, "hilbert", doc, "--reduce", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["series"] == "1/(1 - s)"
        assert data["mode"] == "quotient"
        assert data["shape"]["conformant"] is True
        assert data["shape"]["factors"] == [{"t_power": 0, "growth": [1]}]

    def test_expand_free_module(self, capsys, tmp_path):
        doc = write_doc(tmp_path, {
            "schema_version": 1, "c": 1,
            "summands": [{"d": 0}], "generators": []})
        code, out, _ = run(capsys, "expand", doc, "-N", "3", "-J", "2",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert data["dims"] == [
            [1, 0, 0], [1, 1, 1], [1, 2, 3], [1, 3, 6]]

    def test_expand_table_text(self, capsys, tmp_path):
        doc = write_doc(tmp_path, minimal())
        code, out, _ = run(capsys, "expand", doc, "-N", "2", "-J", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n\\j")
        assert len(lines) == 4

    def test_oracle_ok(self, capsys, tmp_path):
        doc = write_doc(tmp_path, minimal())
        code, out, _ = run(capsys, "oracle", doc, "-N", "4", "-J", "4")
        assert (code, out.strip()) == (0, "OK")

    def test_oracle_single_cell(self, capsys, tmp_path):
        doc = write_doc(tmp_path, minimal())
        code, out, _ = run(capsys, "oracle", doc, "-N", "0", "-J", "0")
        assert (code, out.strip()) == (0, "OK")

    def test_oracle_flags_corruption(self, capsys, tmp_path, monkeypatch):
        doc = write_doc(tmp_path, minimal())
        real = cli.module_series

        def corrupted(p, quotient=True, reduce=False):
            res = real(p, quotient=quotient, reduce=reduce)
            return type(res)(res.rational + free_series(1, 0),
                             res.t_prefactor, res.mode,
                             res.column_states, False)

        monkeypatch.setattr(cli, "module_series", corrupted)
        code, out, _ = run(capsys, "oracle", doc, "-N", "3", "-J", "3")
        assert code == 3
        lines = out.splitlines()
        assert lines[0].startswith("mismatch at n=")
        assert lines[-1] == ("mismatch: column route and letter automaton "
                             "give different series")

    def test_oracle_sees_a_difference_past_the_window(self, capsys,
                                                       tmp_path,
                                                       monkeypatch):
        # s^2 t^(J+5) added to the numerator changes only cells with
        # j >= J + 5: the window agrees, the whole-series check does not
        doc = write_doc(tmp_path, minimal())
        real = cli.module_series
        J = 3

        def corrupted(p, quotient=True, reduce=False):
            res = real(p, quotient=quotient, reduce=reduce)
            r = res.rational
            return res._replace(rational=type(r)(
                r.num + BiPoly.term(2, J + 5), r.factors))

        monkeypatch.setattr(cli, "module_series", corrupted)
        code, out, _ = run(capsys, "oracle", doc, "-N", "6", "-J", str(J))
        assert code == 3
        assert out.splitlines() == [
            "mismatch: column route and letter automaton give different "
            "series"]

    def test_oracle_reports_every_mismatch(self, capsys, tmp_path,
                                           monkeypatch):
        doc = write_doc(tmp_path, minimal())
        real = cli.hilbert_widths

        def corrupted(p, n_max, quotient):
            def bumped(n, dims):
                def bumped_dims(j_max):
                    out = dims(j_max)
                    for cn, cj in [(1, 0), (3, 2)]:
                        if cn == n:
                            out[cj] += 1
                    return out
                return SimpleNamespace(dims=bumped_dims)

            return [bumped(n, ws.dims)
                    for n, ws in enumerate(real(p, n_max, quotient))]

        monkeypatch.setattr(cli, "hilbert_widths", corrupted)
        code, out, _ = run(capsys, "oracle", doc, "-N", "4", "-J", "4")
        assert code == 3
        assert out.splitlines() == [
            "mismatch at n=1 j=0: series gives 1, width-wise gives 2",
            "mismatch at n=3 j=2: series gives 0, width-wise gives 1"]

    def test_only_oracle_runs_the_width_wise_route(self, capsys,
                                                   monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("width-wise route entered")

        monkeypatch.setattr(oicore, "_image_groups", refuse)
        doc = str(INPUTS / "two_summands.json")
        for argv in (["hilbert", doc, "--json"], ["analyze", doc],
                     ["expand", doc, "-N", "3", "-J", "3"]):
            assert run(capsys, *argv)[0] == 0, argv
        code, _, err = run(capsys, "oracle", doc, "-N", "3", "-J", "3")
        assert code == 3 and "width-wise route entered" in err

    def test_analyze_text(self, capsys):
        code, out, _ = run(capsys, "analyze",
                           str(INPUTS / "principal_cubed.json"))
        assert code == 0
        assert "dimension: 0*n + 0 for n >= 0" in out
        assert "multiplicity: 3^n for n >= 0" in out
        assert "artinian: true" in out

    def test_analyze_computes_growth_once(self, capsys):
        # dimension, multiplicity and verdict share one cached _growth
        analysis._growth.cache_clear()
        code, _, _ = run(capsys, "analyze", str(INPUTS / "two_summands.json"))
        info = analysis._growth.cache_info()
        assert (code, info.misses, info.hits) == (0, 1, 2)

    def test_analyze_json_window(self, capsys, tmp_path):
        # the exact onset replaces the fits' window and window values
        doc = write_doc(tmp_path, minimal())
        code, out, _ = run(capsys, "analyze", doc, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["dimension"] == {"slope": 0, "intercept": 0, "onset": 0}
        assert data["multiplicity"] == {
            "base": 1, "poly_exponent": 0,
            "terms": [{"base": 1, "poly": ["1"]}], "onset": 0}
        assert data["artinian"] is True

    def test_negative_shift_document(self, capsys, tmp_path):
        # analyze reads the series alone; the width-wise oracle needs
        # nonnegative shifts and says so as a usage error
        doc = write_doc(tmp_path, minimal(summands=[{"d": 0, "shift": -1}]))
        code, out, _ = run(capsys, "analyze", doc)
        assert code == 0
        assert out.splitlines()[:3] == [
            "series: t^-1/(1 - s)",
            "dimension: 0*n + 0 for n >= 0",
            "multiplicity: 1 for n >= 0"]
        code, out, _ = run(capsys, "hilbert", doc, "--reduce")
        assert (code, out.splitlines()[0]) == (0, "t^-1/(1 - s)")
        code, out, err = run(capsys, "oracle", doc, "-N", "3", "-J", "3")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: oracle: the width-wise route needs nonnegative shifts"]

    def test_zero_series_with_prefactor(self, capsys, tmp_path):
        # the unit generator makes the quotient zero; no t^-1 is printed
        doc = write_doc(tmp_path, minimal(
            summands=[{"d": 0, "shift": -1}],
            generators=[{"summand": 0, "width": 0, "exponents": []}]))
        code, out, _ = run(capsys, "hilbert", doc)
        assert (code, out.splitlines()[0]) == (0, "0")
        code, out, _ = run(capsys, "analyze", doc)
        assert (code, out.splitlines()[0]) == (0, "series: 0")
        # the benchmark's own parser reads it as the zero table
        spec = importlib.util.spec_from_file_location(
            "bench_check", INPUTS.parent / "perfbench" / "check.py")
        check = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check)
        assert check.expand_text("0", 2) == [[0] * 3] * 3

    def test_closed_stdout_exits_zero(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = cli.main(["hilbert", str(INPUTS / "principal_cubed.json")])
        # later writes, and the flush at shutdown, go nowhere
        devnull = sys.stdout
        monkeypatch.undo()
        devnull.close()
        assert devnull.name == os.devnull
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_one_parser_many_commands(self, capsys):
        # the parser is built once per process; no flag of one command
        # carries over to the next
        assert cli.build_parser() is cli.build_parser()
        doc = str(INPUTS / "principal_cubed.json")
        code, out, _ = run(capsys, "hilbert", "--json", doc)
        assert code == 0 and out.startswith("{")
        code, out, _ = run(capsys, "expand", doc, "-N", "1", "-J", "1")
        assert code == 0 and out.startswith("n\\j")
        code, out, _ = run(capsys, "hilbert", doc)
        assert code == 0 and not out.startswith("{")
        with pytest.raises(SystemExit):
            run(capsys, "hilbert", "--reduce")
        code, out, _ = run(capsys, "words", "decode", "--c", "1", "--d",
                           "1", "x1 t1")
        assert code == 0 and out.strip() == "x[1,1] e(1) [width 1]"

    def test_unexpected_exception_exits_three(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_hilbert", boom)
        code, out, err = run(capsys, "hilbert",
                             str(INPUTS / "principal_cubed.json"))
        assert (code, out) == (3, "")
        assert err.splitlines() == ["error: internal: RuntimeError: boom"]

    def test_decompose_text(self, capsys):
        doc = str(INPUTS / "principal_x11.json")
        code, out, _ = run(capsys, "decompose", doc, "--e", "0")
        assert code == 0
        assert "unmarked part (rank 0):" in out
        assert "x[1,1] [width 1]" in out
        code, out, _ = run(capsys, "decompose", doc, "--e", "1")
        assert out.splitlines() == [
            "e = (1)", "marked part: absent (rank parameter is 0)",
            "unmarked part (rank 0):", "  1 [width 0]"]

    def test_decompose_prints_the_parsed_e(self, capsys):
        # padded input prints as parsed, as --json reports it
        doc = str(INPUTS / "principal_x11.json")
        code, out, _ = run(capsys, "decompose", doc, "--e", " 01")
        assert (code, out.splitlines()[0]) == (0, "e = (1)")
        code, out, _ = run(capsys, "decompose", doc, "--e", " 01", "--json")
        assert (code, json.loads(out)["e"]) == (0, [1])

    def test_decompose_json(self, capsys, tmp_path):
        doc = write_doc(tmp_path, {
            "schema_version": 1, "c": 1,
            "summands": [{"d": 1}],
            "generators": [
                {"width": 2, "pi": [2], "exponents": [[1], [0]]}]})
        code, out, _ = run(capsys, "decompose", doc, "--e", "0", "--json")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"e", "marked", "unmarked"}
        assert isinstance(data["marked"], list)
        for g in data["marked"] + data["unmarked"]:
            assert set(g) <= {"summand", "width", "pi", "exponents"}

    def test_words_round_trip(self, capsys):
        code, out, _ = run(capsys, "words", "encode", "--c", "1",
                           "--width", "2", "--exponents", "[[1],[1]]")
        assert (code, out.strip()) == (0, "x1 t0 x1 t0")
        code, out, _ = run(capsys, "words", "decode", "--c", "1",
                           "--d", "0", "x1 t0 x1 t0")
        assert code == 0
        assert out.strip() == "x[1,1]*x[1,2] [width 2]"

    def test_words_encode_width_is_bounded(self, capsys):
        # --width is bounded like a document's generator width: the
        # largest one encodes, one more is a usage error, not an
        # allocation without bound
        code, out, _ = run(capsys, "words", "encode", "--c", "1",
                           "--width", str(MAX_WIDTH))
        assert (code, out.split()) == (0, ["t0"] * MAX_WIDTH)
        with pytest.raises(SystemExit) as exc:
            cli.main(["words", "encode", "--c", "1",
                      "--width", str(MAX_WIDTH + 1)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"must be at most {MAX_WIDTH}, got {MAX_WIDTH + 1}" in err

    def test_width_like_arguments_are_bounded(self, capsys):
        # --c, --d and -N are bounded like --width: the largest runs, one
        # more is a usage error, not an allocation without bound
        code, out, _ = run(capsys, "words", "encode", "--c", str(MAX_WIDTH),
                           "--width", "1", "--exponents",
                           json.dumps([[0] * (MAX_WIDTH - 1) + [1]]))
        assert (code, out.split()) == (0, [f"x{MAX_WIDTH}", "t0"])
        pi = ",".join(map(str, range(1, MAX_WIDTH + 1)))
        code, word, _ = run(capsys, "words", "encode", "--c", "1",
                            "--width", str(MAX_WIDTH), "--pi", pi)
        code, out, _ = run(capsys, "words", "decode", "--c", "1",
                           "--d", str(MAX_WIDTH), word.strip())
        assert (code, out.strip()) == (
            0, f"1 e({pi}) [width {MAX_WIDTH}]")
        doc = str(INPUTS / "principal_cubed.json")
        code, out, _ = run(capsys, "expand", doc, "-N", str(MAX_WIDTH),
                           "-J", "0", "--json")
        assert code == 0 and len(json.loads(out)["dims"]) == MAX_WIDTH + 1
        for argv, flag in (
                (["words", "encode", "--c", "1001", "--width", "1"], "--c"),
                (["words", "decode", "--c", "1001", "--d", "0", "t0"], "--c"),
                (["words", "decode", "--c", "1", "--d", "1001", "t1"], "--d"),
                (["expand", doc, "-N", "1001", "-J", "0"], "-N"),
                (["oracle", doc, "-N", "1001", "-J", "0"], "-N")):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
            assert (f"argument {flag}: must be at most {MAX_WIDTH}, got "
                    f"{MAX_WIDTH + 1}") in capsys.readouterr().err

    def test_analyze_free_module_of_high_rank(self, capsys, tmp_path):
        # the multiplicity of a free module of rank d is C(n, d): its
        # last zero is found below a bound near 4 d^2, not 2 d!
        for d in (10, 20):
            doc = write_doc(tmp_path, minimal(summands=[{"d": d}],
                                              generators=[]))
            t0 = time.monotonic()
            code, out, _ = run(capsys, "analyze", doc)
            code_json, data, _ = run(capsys, "analyze", doc, "--json")
            assert time.monotonic() - t0 < 2.0
            assert (code, code_json) == (0, 0)
            assert f"dimension: 1*n + 0 for n >= {d}" in out.splitlines()
            growth = json.loads(data)["multiplicity"]
            assert growth["onset"] == d
            (term,) = growth["terms"]
            assert term["base"] == 1
            poly = [Fraction(v) for v in term["poly"]]
            for n in range(d, d + 21):
                assert sum(v * n ** i for i, v in enumerate(poly)) == comb(
                    n, d), (d, n)

    def test_words_decode_two_markers(self, capsys):
        code, out, _ = run(capsys, "words", "decode", "--c", "1",
                           "--d", "1", "t1 t1")
        assert code == 0
        assert out.strip() == "1 e(2) [width 2]"

    def test_exit_codes(self, capsys, tmp_path):
        bad = write_doc(tmp_path, minimal(
            summands=[{"d": 2, "shift": 0}],
            generators=[{"width": 3, "pi": [2, 1]}]), "bad.json")
        code, _, err = run(capsys, "hilbert", bad)
        assert code == 2
        assert "strictly increasing" in err
        code, _, err = run(capsys, "hilbert", str(tmp_path / "none.json"))
        assert code == 2
        # x[1,1]^2 - x[1,2] is not homogeneous: no graded module to read
        mixed = write_doc(tmp_path, minimal(generators=[], asserted_groebner=[{
            "width": 2, "terms": [{"coeff": 1, "exponents": [[2], [0]]},
                                  {"coeff": -1, "exponents": [[0], [1]]}]}]),
            "mixed.json")
        code, out, err = run(capsys, "hilbert", mixed)
        assert (code, out) == (2, "")
        assert "$.asserted_groebner[0].terms" in err
        code, _, err = run(capsys, "words", "decode", "--c", "1", "--d", "1",
                           "x1 x1")
        assert code == 2
        assert "not standard" in err
        code, _, err = run(capsys, "decompose",
                           str(INPUTS / "two_summands.json"), "--e", "0,0")
        assert code == 2

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["words", "encode", "--c", "1", "--width", "2", "--pi", "3"],
        ["words", "encode", "--c", "1", "--width", "-1"],
        ["words", "encode", "--c", "0", "--width", "1"],
        ["words", "decode", "--c", "0", "--d", "0", "t0"],
        ["words", "decode", "--c", "1", "--d", "-1", "t0"],
        ["analyze", str(INPUTS / "principal_cubed.json"), "--window", "0:2"],
        ["analyze", str(INPUTS / "principal_cubed.json"), "--window", "3:7"],
        ["decompose", str(INPUTS / "two_summands.json"), "--e", "0,0"],
        ["decompose", "SHIFTED", "--e", "0"],
        ["words", "decode", "--c", "1", "--d", "1", "xx"],
        ["words", "decode", "--c", "1", "--d", "1", "x9"],
        ["words", "decode", "--c", "1", "--d", "1", "t9"],
        ["hilbert", "NOT_UTF8"],
        ["hilbert", "DEEP"],
        ["hilbert", "LONG_SHIFT"],
        ["words", "encode", "--c", "1", "--width", "1",
         "--exponents", "[[" + "9" * 5000 + "]]"],
        ["words", "encode", "--c", "1", "--width", "1",
         "--exponents", "[" * 100000],
        # letter indices take ASCII digits only, and one too long for int
        ["words", "decode", "--c", "1", "--d", "1", "t\u00b2"],
        ["words", "decode", "--c", "1", "--d", "1", "t\u0661"],
        ["words", "decode", "--c", "1", "--d", "1", "t" + "1" * 5000],
    ])
    def test_usage_errors_exit_two(self, capsys, tmp_path, argv):
        shifted = write_doc(tmp_path, minimal(
            summands=[{"d": 0, "shift": 1}]))
        not_utf8 = tmp_path / "utf16.json"
        not_utf8.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        # nesting past the recursion limit, and an integer past the
        # interpreter's digit limit for string conversion
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        long_shift = tmp_path / "long_shift.json"
        long_shift.write_text(json.dumps(minimal()).replace(
            '"shift": 0', '"shift": ' + "9" * 5000))
        files = {"SHIFTED": shifted, "NOT_UTF8": str(not_utf8),
                 "DEEP": str(deep), "LONG_SHIFT": str(long_shift)}
        argv = [files.get(a, a) for a in argv]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert len([line for line in err.splitlines()
                    if "error:" in line]) == 1

    @pytest.mark.parametrize("command", ["expand", "oracle"])
    @pytest.mark.parametrize("n,j,bad", [
        ("-1", "3", "-N"), ("3", "-1", "-J"), ("x", "3", "-N")])
    def test_negative_table_size_exits_two(self, capsys, command, n, j, bad):
        doc = str(INPUTS / "principal_cubed.json")
        with pytest.raises(SystemExit) as err:
            cli.main([command, doc, "-N", n, "-J", j])
        assert err.value.code == 2
        assert f"argument {bad}:" in capsys.readouterr().err

    def test_shipped_documents_pass_oracle(self, capsys):
        docs = sorted(INPUTS.glob("*.json"))
        assert docs
        for doc in docs:
            code, out, _ = run(capsys, "oracle", str(doc), "-N", "5",
                               "-J", "5")
            assert (code, out.strip()) == (0, "OK"), doc.name

    def test_cold_commands_import_only_what_they_run(self):
        # a fresh interpreter per command shows what the command itself
        # imports: sympy is a test-only oracle, dataclasses drags in
        # inspect, decomposition serves decompose alone, the letter
        # automaton oracle alone, and fractions the exact solve of
        # analyze; every command solves on the column automaton, and the
        # package's decomposition names still load on first access
        src = Path(__file__).resolve().parent.parent / "src"
        doc = str(INPUTS / "squarefree_pair.json")
        watched = ["dataclasses", "fractions", "inspect", "oihilbert.automata",
                   "oihilbert.columns", "oihilbert.decomposition", "sympy"]
        script = (
            "import contextlib, io, json, sys\n"
            "from oihilbert import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(sys.argv[1:])\n"
            f"loaded = sorted(set(sys.modules) & set({watched!r}))\n"
            "from oihilbert import compute_decomposition\n"
            "print(json.dumps([code, loaded, "
            "compute_decomposition.__module__]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        for argv, loaded in [
                (["hilbert", doc], ["oihilbert.columns"]),
                (["analyze", doc], ["fractions", "oihilbert.columns"]),
                (["oracle", doc, "-N", "3", "-J", "3"],
                 ["oihilbert.automata", "oihilbert.columns"]),
                (["decompose", doc, "--e", "1"],
                 ["oihilbert.columns", "oihilbert.decomposition"])]:
            out = subprocess.run([sys.executable, "-c", script, *argv],
                                 env=env, capture_output=True, text=True,
                                 timeout=120)
            assert out.returncode == 0, out.stderr
            assert json.loads(out.stdout) == [
                0, loaded, "oihilbert.decomposition"], argv

    def test_benchmark_hooks_install(self):
        # perfbench/spans.py wraps the package's entry points by name; a
        # fresh interpreter shows that every name it looks up still exists
        # and that the wrapped commands still run, the width-wise route
        # too: oracle prints OK, and check.py's reference table, built
        # through the wrapped hilbert_width (whose parameters the wrapper
        # binds by name), equals the one built before the hooks went in;
        # an FI document and decompose reach the wrapped minimalize
        root = Path(__file__).resolve().parent.parent
        doc = str(INPUTS / "squarefree_pair.json")
        fi = str(INPUTS / "fi_pair.json")
        script = (
            "import contextlib, io, json\n"
            "import check, spans\n"
            f"obj = json.load(open({doc!r}))\n"
            "plain = check.reference_table(obj, 6)\n"
            "rec = spans.Recorder()\n"
            "spans.install(rec)\n"
            "from oihilbert import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main([c, {doc!r}]) for c in ('hilbert', 'analyze')]\n"
            f"    codes.append(cli.main(['hilbert', {fi!r}]))\n"
            f"    codes.append(cli.main(['decompose', {doc!r}, '--e', '1']))\n"
            "oracle = io.StringIO()\n"
            "with contextlib.redirect_stdout(oracle):\n"
            f"    codes.append(cli.main(['oracle', {doc!r}, '-N', '3', '-J', '3']))\n"
            "hooked = check.reference_table(obj, 6)\n"
            "print(codes, oracle.getvalue().strip(), hooked == plain,\n"
            "      len(rec.keys['oicore.hilbert_width']),\n"
            "      rec.counts['minimalize.in'] > 0)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "perfbench"),
             os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stdout.strip()) == (
            0, "[0, 0, 0, 0, 0] OK True 7 True"), out.stderr

    def test_readme_sessions(self, capsys, monkeypatch):
        # every `$ oih ...` line of README.md, run from the repository
        # root; the lines after it, up to a blank line or the end of the
        # block, are its standard output
        sessions = []
        out = None
        for line in README.read_text().splitlines():
            if line.startswith("$ oih "):
                out = []
                sessions.append((shlex.split(line[len("$ oih "):]), out))
            elif out is not None and line and not line.startswith("```"):
                out.append(line + "\n")
            else:
                out = None
        assert sessions
        monkeypatch.chdir(README.parent)
        for argv, want in sessions:
            code, got, _ = run(capsys, *argv)
            assert (code, got) == (0, "".join(want)), argv

    def test_deterministic_output(self, capsys, tmp_path):
        doc = write_doc(tmp_path, minimal())
        first = run(capsys, "hilbert", doc, "--json")
        second = run(capsys, "hilbert", doc, "--json")
        assert first == second


# any small JSON value: stands in for a document field to corrupt it
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text(max_size=3),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=6)

_COMMANDS = [
    ["hilbert"], ["hilbert", "--reduce", "--json"], ["analyze"],
    ["analyze", "--json"], ["expand", "-N", "3", "-J", "3"],
    ["oracle", "-N", "3", "-J", "3"], ["decompose", "--e", "1"],
    ["decompose", "--e", "0,1", "--json"]]


@st.composite
def _documents(draw):
    """A small document, valid or with one field replaced or dropped."""
    c = draw(st.integers(1, 2))
    summands = draw(st.lists(st.fixed_dictionaries(
        {"d": st.integers(0, 2)}, optional={"shift": st.integers(-1, 1)}),
        min_size=1, max_size=2))

    def place():
        return {"summand": draw(st.integers(0, len(summands) - 1)),
                "width": draw(st.integers(0, 3))}

    def term(summand, width):
        obj = {"pi": sorted(draw(st.permutations(range(1, width + 1)))
                            [:summands[summand]["d"]])}
        if draw(st.booleans()):
            obj["exponents"] = [[draw(st.integers(0, 2)) for _ in range(c)]
                                for _ in range(width)]
        return obj

    gens = []
    for _ in range(draw(st.integers(0, 3))):
        at = place()
        gens.append(dict(at, **term(at["summand"], at["width"])))
    fi = all(sm["d"] == 0 for sm in summands) and draw(st.booleans())
    doc = {"schema_version": 1, "c": c, "summands": summands,
           "generators": gens,
           "mode": draw(st.sampled_from(["quotient", "submodule"])),
           "category": "FI" if fi else "OI"}
    if draw(st.booleans()):
        at = place()
        at["terms"] = [dict(term(at["summand"], at["width"]),
                            coeff=draw(st.integers(-1, 2)))
                       for _ in range(draw(st.integers(1, 2)))]
        doc["asserted_groebner"] = [at]
    if draw(st.booleans()):
        slots = []

        def collect(node):
            keys = node if isinstance(node, dict) else range(len(node))
            for k in keys:
                slots.append((node, k))
                if isinstance(node[k], (dict, list)):
                    collect(node[k])

        collect(doc)
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_JSON)
    return doc


class TestExitContract:
    # every document and every byte string gives exit 0 or 2; a non-zero
    # exit prints exactly one `error:` line and never a traceback

    def check(self, path, command):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command[0], str(path), *command[1:]])
        lines = err.getvalue().splitlines()
        assert code in (0, 2), (command, err.getvalue())
        assert lines == [] if code == 0 else (
            len(lines) == 1 and lines[0].startswith("error: ")), lines

    @given(_documents())
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_documents(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for command in _COMMANDS:
            self.check(path, command)

    @given(st.binary(max_size=40), st.sampled_from(_COMMANDS))
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes(self, tmp_path, data, command):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        self.check(path, command)

    def test_words_decode(self):
        # every word of up to five letters over the alphabet and one
        # out-of-range letter of each kind: exit 0 exactly on the words
        # the standard-word enumerator builds, else exit 2 and one line
        for c, d in [(1, 0), (1, 1), (2, 1), (1, 2)]:
            standard = {w for w in lstd_words(c, d, 5, 5) if len(w) <= 5}
            letters = alphabet(c, d) + (c + 1, -(d + 1))
            for length in range(6):
                for w in itertools.product(letters, repeat=length):
                    text = word_to_str(w)
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = cli.main(["words", "decode", "--c", str(c),
                                         "--d", str(d), text])
                    if w in standard:
                        assert (code, err.getvalue()) == (0, ""), text
                    else:
                        assert (code, out.getvalue(), err.getvalue()) == (
                            2, "", f"error: words decode: word {text!r} is "
                            f"not standard for c={c}, d={d}\n"), text
