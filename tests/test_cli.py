import hashlib
import io
import json
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path

import pytest

from lrcommute import cli, commutor, verify
from lrcommute.golden import run_golden
from lrcommute.tableaux import (SkewTableau, from_json_dict, to_json_dict,
                               to_text)
from probe import counting

T_TEXT = ". . 1 1\n. 1 2\n2 3"
T = SkewTableau((4, 3, 2), (2, 1, 0), [(1, 1), (1, 2), (2, 3)])


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_tableau_both_formats():
    assert cli.parse_tableau(T_TEXT) == T
    assert cli.parse_tableau(json.dumps(to_json_dict(T))) == T
    with pytest.raises(cli.UsageError):
        cli.parse_tableau("nonsense words")


def test_parse_word_forms():
    assert cli.parse_word("12121") == (1, 2, 1, 2, 1)
    assert cli.parse_word("[1,2,12]") == (1, 2, 12)
    assert cli.parse_word("10,2") == (10, 2)


@pytest.mark.parametrize("argv, stdin, token", [
    (["lr-coeff", "1_0", "5", "5"], "", "1_0"),
    (["lr-coeff", "2,1", "1", "٢"], "", "٢"),
    (["rsk", "١٢"], "", "١"),
    (["rsk", "1,+2"], "", "+2"),
    (["insert", "-", "1"], "1 1_0", "1_0"),
    (["commute", "-"], "١", "١"),
], ids=["partition-underscore", "partition-arabic-indic", "word-arabic-indic",
        "word-plus", "tableau-underscore", "tableau-arabic-indic"])
def test_integers_are_ascii_digits(monkeypatch, capsys, argv, stdin, token):
    # int() reads '1_0' as 10 and Arabic-Indic digits as their values: the
    # parsers take ASCII digits only, and quote the token they refuse
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"invalid literal {token!r}: not ASCII digits" in err


@pytest.mark.parametrize("argv, text", [
    (["commute", "-"], json.dumps(to_json_dict(T))),
    (["commute", "-"], T_TEXT),
    (["insert", "-", "1"], json.dumps(to_json_dict(T))),
    (["commute", "-"], "[1, 2]"),
    (["insert", "-", "1"], "[1, 2]"),
], ids=["commute-json", "commute-grid", "insert-json", "commute-array",
        "insert-array"])
def test_a_bom_is_dropped_and_an_array_is_read_as_json(monkeypatch, capsys,
                                                       argv, text):
    # both once went to the grid parser, which refused them with "invalid
    # literal ...: not ASCII digits"; an input led by a BOM now reads as the
    # same input without it, and an array as JSON that is not an object
    results = []
    for stdin in (text, "\ufeff" + text):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        results.append(run(capsys, *argv))
    assert results[1] == results[0]
    if text.startswith("["):
        assert results[0] == (2, "", "error: cannot parse tableau: expected an "
                              "object with the fields outer, inner and rows, "
                              "got [1, 2]\n")
    else:
        assert results[0][0] == 0 and results[0][2] == ""


def test_lr_coeff_command(capsys):
    code, out, _ = run(capsys, "lr-coeff", "3,2,1", "2,1", "2,1")
    assert code == 0 and out.strip() == "2"


def test_lr_coeff_command_deep_row(capsys):
    code, out, _ = run(capsys, "lr-coeff", "1100", "0", "1100")
    assert code == 0 and out.strip() == "1"


def test_schur_product_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "schur-product",
                       "1", "1", "--max-rows", "2")
    assert code == 0
    assert json.loads(out) == [{"shape": [1, 1], "coeff": 1},
                               {"shape": [2], "coeff": 1}]


def test_schur_product_command_output_is_pinned(capsys):
    # the text output of the staircase product, as ballot enumeration gave it
    code, out, _ = run(capsys, "schur-product", "5,4,3,2,1", "5,4,3,2,1")
    assert code == 0 and out.count("\n") == 1433
    assert hashlib.md5(out.encode()).hexdigest() == \
        "51b0320f0089cb56554a785d85252208"


def test_schur_product_command_deep_column(capsys):
    # only shapes inside mu + nu with at most l(mu) + l(nu) rows can occur,
    # so the default --max-rows (the total size) walks one candidate here
    n = 1100
    code, out, _ = run(capsys, "--format", "json", "schur-product",
                       ",".join(["1"] * n), "0")
    assert code == 0
    assert json.loads(out) == [{"shape": [1] * n, "coeff": 1}]


def test_rsk_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "rsk", "2132313")
    assert code == 0
    d = json.loads(out)
    assert from_json_dict(d["p"]).outer == from_json_dict(d["q"]).outer
    for word in ("[0,-3]", "0"):
        code, out, err = run(capsys, "rsk", word)
        assert code == 2 and out == "" and "letter 0 < 1" in err


def test_commute_methods_agree(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text(T_TEXT)
    outputs = []
    for method in ("switching", "internal", "scratch", "infusion"):
        code, out, _ = run(capsys, "--format", "json", "commute", str(f),
                           "--method", method)
        assert code == 0
        outputs.append(out)
    assert len(set(outputs)) == 1
    skew = from_json_dict(json.loads(outputs[0])["skew"])
    assert skew.inner == (3, 2, 1)  # commutor swaps content and inner border


def test_commute_round_trips_bit_exact(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text(T_TEXT)
    code, out, _ = run(capsys, "--format", "json", "commute", str(f))
    d = json.loads(out)
    back = tmp_path / "back.json"
    back.write_text(json.dumps(d["skew"]))
    code2, out2, _ = run(capsys, "--format", "json", "commute", str(back))
    assert code2 == 0
    assert from_json_dict(json.loads(out2)["skew"]) == T


def test_commute_rejects_non_ballot(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text(". 2")
    code, _out, err = run(capsys, "commute", str(f))
    assert code == 2
    assert err == ("error: input is not a ballot pair: the skew member's "
                   "reading word is not ballot\n")


def test_commute_checks_its_input_once(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text(T_TEXT)
    for method in ("switching", "internal", "scratch", "infusion"):
        with counting("insertion.lr_violation") as calls:
            code, _out, _err = run(capsys, "commute", str(f), "--method", method)
        assert code == 0 and calls == {"insertion.lr_violation": 1}


def test_commute_propagates_internal_errors(tmp_path, capsys, monkeypatch):
    # only a failed input check is a usage error; a commutor that goes wrong
    # on valid input raises
    monkeypatch.setattr(commutor, "switching", lambda u, v, *a, **k: (v, u))
    f = tmp_path / "t.txt"
    f.write_text(T_TEXT)
    with pytest.raises(ValueError, match="did not produce the Yamanouchi"):
        cli.main(["commute", str(f)])


def test_commute_trace(tmp_path, capsys):
    fixture = resources.files("lrcommute.fixtures").joinpath("row_recursion.json")
    data = json.loads(fixture.read_text())
    f = tmp_path / "t.json"
    f.write_text(json.dumps(data["t"]))
    traces = {}
    for method in ("internal", "scratch"):
        code, out, _ = run(capsys, "commute", str(f), "--trace", "--method",
                           method)
        assert code == 0
        traces[method] = json.loads(out.strip().splitlines()[-1])
    frames = traces["internal"]
    assert frames == traces["scratch"]
    assert all("op" in fr and "state" in fr for fr in frames)
    # while row block n runs the state has n rows, so the last such frame
    # is the state after the block
    after_block = {len(fr["state"]["outer"]): fr["state"] for fr in frames}
    assert [from_json_dict(after_block[k + 1])
            for k in range(len(data["scratch_frames"]))] == \
        [from_json_dict(d) for d in data["scratch_frames"]]


def test_main_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process; each call still reads only its
    # own options
    assert cli.build_parser() is cli.build_parser()
    f = tmp_path / "t.txt"
    f.write_text(T_TEXT)
    first = run(capsys, "--format", "json", "commute", str(f), "--method",
                "internal", "--trace")
    second = run(capsys, "commute", str(f), "--method", "infusion")
    third = run(capsys, "--format", "json", "commute", str(f), "--trace")
    pair, frames = first[1].splitlines()
    skew = from_json_dict(json.loads(pair)["skew"])
    assert first[0] == 0 and all("op" in fr for fr in json.loads(frames))
    assert second == (0, to_text(skew) + "\n", "")
    pair, frames = third[1].splitlines()
    assert third[0] == 0 and from_json_dict(json.loads(pair)["skew"]) == skew
    assert all("switch" in fr for fr in json.loads(frames))
    assert run(capsys, "--format", "json", "commute", str(f), "--method",
               "internal", "--trace") == first


def test_commute_deep_column(monkeypatch, capsys):
    n = 1100
    column = {"outer": [1] * n, "inner": [0] * n,
              "rows": [[k] for k in range(1, n + 1)]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(column)))
    code, out, _ = run(capsys, "--format", "json", "commute", "-",
                       "--method", "internal")
    assert code == 0
    skew = from_json_dict(json.loads(out)["skew"])
    assert skew.size == 0 and skew.outer == (1,) * n


def test_insert_command(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text(". 1 3\n2 3")
    code, out, _ = run(capsys, "insert", str(f), "12121", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    traces = json.loads(lines[-1])
    assert len(traces) == 5
    code, _out, err = run(capsys, "insert", str(f), "9")
    assert code == 2 and "step 1" in err


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--max-size", "1",
                       "--checks", "involution,coincidence")
    assert code == 0
    assert out.count("pass") == 2
    code, _out, err = run(capsys, "verify", "--checks", "nosuch")
    assert code == 2 and "valid names" in err


def test_verify_deterministic(capsys):
    a = run(capsys, "verify", "--max-size", "3", "--checks", "confluence")
    b = run(capsys, "verify", "--max-size", "3", "--checks", "confluence")
    strip = lambda s: [l.split("time=")[0] for l in s.splitlines()]
    assert a[0] == b[0] == 0 and strip(a[1]) == strip(b[1])


def test_verify_reports_a_raising_check_as_a_failure(capsys, monkeypatch):
    # admitting every switch makes switching raise on some ballot pairs and
    # break confluence on 65 instances: both checks report FAIL (exit 1)
    # with their true failure counts, where 50 are stored
    monkeypatch.setattr(commutor, "_admissible", lambda *args: True)
    code, out, err = run(capsys, "verify", "--max-size", "4",
                         "--checks", "involution,confluence")
    lines = [line for line in out.splitlines() if not line.startswith("    ")]
    assert code == 1 and err == ""
    assert [line.split()[:2] for line in lines] == [["involution", "FAIL"],
                                                    ["confluence", "FAIL"]]
    assert "failures=65" in lines[1]
    assert "raises ValueError: switching did not produce" in out


def _raising_at_3_boxes(fn, size_of):
    def broken(*args):
        if size_of(*args) == 3:
            raise RuntimeError("broken at 3 boxes")
        return fn(*args)
    return broken


@pytest.mark.parametrize("name, size_of, checks", [
    ("enumerate_ballot", lambda shape, nu=None: shape.size,
     ["involution", "skew-rsk"]),
    # the shared Knuth/route walk, then a check that reads no packed filling
    ("packed_fillings", lambda lam, mu: sum(lam) - sum(mu),
     ["knuth-commutativity", "route-geometry", "involution"]),
], ids=["ballot-pairs", "packed-fillings"])
def test_verify_reports_a_raising_instance_generator(capsys, monkeypatch,
                                                     name, size_of, checks):
    # a generator that raises part way fails its check once, with the
    # exception, and ends it; the next check still runs (exit 1)
    monkeypatch.setattr(verify, name,
                        _raising_at_3_boxes(getattr(verify, name), size_of))
    verify._thu_sweep.cache_clear()
    try:
        code, out, err = run(capsys, "verify", "--max-size", "4",
                             "--checks", ",".join(checks))
    finally:
        verify._thu_sweep.cache_clear()
    reports = [line.split() for line in out.splitlines()
               if not line.startswith("    ")]
    assert code == 1 and err == ""
    assert [r[:2] for r in reports] == [[c, "FAIL"] for c in checks[:-1]] + [
        [checks[-1], "pass"]]
    assert all(r[3] == "failures=1" for r in reports[:-1])
    assert out.count("('instance generator', 'no exception', "
                     "'raises RuntimeError: broken at 3 boxes')") == len(checks) - 1


def test_verify_and_golden_print_json_lines(capsys, monkeypatch):
    code, out, _ = run(capsys, "--format", "json", "golden")
    results = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(results) == 7
    assert all(r["passed"] and r["messages"] == [] for r in results)
    monkeypatch.setattr(commutor, "_admissible", lambda *args: True)
    code, out, _ = run(capsys, "--format", "json", "verify", "--max-size", "4",
                       "--checks", "involution,confluence")
    reports = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and [r["name"] for r in reports] == ["involution",
                                                          "confluence"]
    confluence = reports[1]
    assert set(confluence) == {"name", "passed", "instances", "skipped",
                               "digest", "failures", "seconds",
                               "first_failures"}
    # an instance with an empty member admits no switch: it is counted and
    # reported skipped; no other check skips an instance
    assert (confluence["passed"], confluence["instances"],
            confluence["skipped"], confluence["failures"]) == (False, 341, 216, 65)
    assert reports[0]["skipped"] == 0
    # the digest pins the instances walked, which the broken switch leaves
    # as they are
    assert confluence["digest"] == "6df3b69372ed681d"
    assert len(confluence["first_failures"]) == 5
    assert set(confluence["first_failures"][0]) == {"instance", "expected",
                                                    "actual"}


def test_seed_is_not_an_option(capsys):
    code, _out, err = run(capsys, "--seed", "5", "verify")
    assert code == 2 and "usage" in err


def test_perfbench_tracer_runs_the_traced_calls(tmp_path):
    # perfbench/tracer.py passes seed= to switching and to the checks, and
    # its sweep reads packed_fillings' cache_info; its wrappers never come
    # off, so it runs in an interpreter of its own
    f = tmp_path / "t.txt"
    f.write_text(T_TEXT)
    root = Path(__file__).resolve().parents[1]
    script = textwrap.dedent(f"""
        import sys
        sys.path[:0] = [{str(root / "src")!r}, {str(root / "perfbench")!r}]
        from tracer import Tracer
        Tracer().install()
        from lrcommute import cli, verify
        for method in ("switching", "internal", "scratch", "infusion"):
            argv = ["--format", "json", "commute", {str(f)!r}, "--method", method]
            assert cli.main(argv) == 0
        assert verify.check_confluence(max_size=3, seed=1).passed
        assert verify.packed_fillings.cache_info().misses > 0
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()  # one commuted pair per method, equal
    assert len(lines) == 4 and len(set(lines)) == 1


def test_golden_command_and_subset(capsys):
    code, out, _ = run(capsys, "golden", "--only", "ballot-words,insertion-words")
    assert code == 0
    assert out.count("pass") == 2
    code, _out, err = run(capsys, "golden", "--only", "nosuch")
    assert code == 2


def test_golden_corrupted_fixture_reports_diff(monkeypatch):
    from lrcommute import golden as golden_mod
    ref = resources.files("lrcommute.fixtures").joinpath("ballot_words.json")
    data = json.loads(ref.read_text())
    data["ballot_t"] = False
    monkeypatch.setattr(golden_mod, "_load", lambda name: data)
    results = run_golden(["ballot-words"])
    assert not results[0].passed
    assert any("expected" in m for m in results[0].messages)


def test_golden_failure_exit_code(capsys, monkeypatch):
    from lrcommute import golden as golden_mod
    real = golden_mod._load

    def corrupt(name):
        data = real(name)
        if name == "ballot_words.json":
            data["ballot_t"] = False
        return data

    monkeypatch.setattr(golden_mod, "_load", corrupt)
    code, out, _ = run(capsys, "golden", "--only", "ballot-words")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("argv", [["commute", "FILE"], ["insert", "FILE", "1"],
                                  ["commute", "-"]])
def test_input_that_is_not_utf8_is_a_usage_error(tmp_path, capsys,
                                                 monkeypatch, argv):
    # a file is read as UTF-8, and so is stdin under a UTF-8 locale, whose
    # decoder is strict
    f = tmp_path / "latin1.txt"
    f.write_bytes(b"\xff 1\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(f.read_bytes()),
                                                      encoding="utf-8"))
    argv = [str(f) if a == "FILE" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"error: cannot read {argv[1]}: 'utf-8' codec can't decode "
                   "byte 0xff in position 0: invalid start byte\n")


def test_usage_error_exit_code(capsys):
    assert cli.main(["no-such-command"]) == 2
    code, out, err = run(capsys, "verify", "--max-size", "-3")
    assert code == 2 and out == "" and "max_size must be at least 0" in err


@pytest.mark.parametrize("stdin, argv, reason", [
    ('{"outer": 5, "inner": [], "rows": []}', ["commute", "-"], "outer: "),
    ('{"outer": [1], "inner": [0], "rows": [[null]]}', ["commute", "-"],
     "rows: "),
    ('{"outer": [1], "inner": [0], "rows": [5]}', ["commute", "-"], "rows: "),
    ('{"outer": [1], "inner": [0], "rows": 5}', ["commute", "-"],
     "rows: expected an array of arrays of integers, got 5"),
    ('{"outer": [1], "inner": [0]}', ["commute", "-"], "missing field 'rows'"),
    ("", ["rsk", "[null]"], ""),
    ("", ["lr-coeff", "[null]", "0", "0"], ""),
    (T_TEXT, ["insert", "-", "[null]"], ""),
    ("", ["lr-coeff", "[2.9]", "0", "[2.2]"], ""),
    ("", ["rsk", "[1.5,true]"], ""),
], ids=["outer-number", "null-entry", "number-row", "rows-number",
        "missing-rows", "rsk-null", "lr-coeff-null", "insert-null",
        "lr-coeff-floats", "rsk-float-bool"])
def test_json_input_needs_integers(monkeypatch, capsys, stdin, argv, reason):
    # null, floats and booleans are parse errors (exit 2), never a traceback
    # or a silent truncation to an integer; a tableau error names its field
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "cannot parse" in err and reason in err


DEEP = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize("argv", [
    ["commute", "-"], ["insert", "-", "1"], ["rsk", DEEP],
    ["lr-coeff", DEEP, "1", "1"], ["schur-product", DEEP, "1"],
], ids=["commute", "insert", "rsk", "lr-coeff", "schur-product"])
def test_deeply_nested_json_is_a_usage_error(monkeypatch, capsys, argv):
    # nesting too deep for the JSON decoder is a parse error (exit 2) that
    # says so, never a RecursionError (exit 1, "verification failed")
    nest = "[" * 100000 + "]" * 100000
    monkeypatch.setattr("sys.stdin", io.StringIO('{"outer": ' + nest + "}"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "cannot parse" in err and "JSON nested too deeply" in err


@pytest.mark.parametrize("argv, stdin, reason", [
    (["rsk", DEEP], "", "JSON nested too deeply"),
    (["lr-coeff", DEEP, "1", "1"], "", "JSON nested too deeply"),
    (["schur-product", "1," * 3000 + "2", "1"], "", "not weakly decreasing"),
    (["insert", "-", "1," * 5000 + "x"], T_TEXT, "invalid literal"),
    (["commute", "-"], '{"outer": ' + "[" * 500 + "]" * 500 + "}",
     "outer: expected an array of integers, got [[[["),
], ids=["rsk-deep", "lr-coeff-deep", "schur-product-long", "insert-long",
        "commute-deep-field"])
def test_usage_errors_quote_a_bounded_prefix(monkeypatch, capsys, argv, stdin,
                                             reason):
    # an error states its reason but quotes only the first characters of a
    # long or deep argument: one short line, however big the input
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "cannot parse" in err and reason in err
    assert len(err) < 200 and err.count("\n") == 1


def test_the_border_limit_admits_its_value_and_no_more():
    # the check alone, on bare borders: nothing is commuted or allocated
    at = SkewTableau((cli.MAX_BORDER,), (cli.MAX_BORDER,), [()])
    past = SkewTableau((cli.MAX_BORDER + 1,), (cli.MAX_BORDER + 1,), [()])
    assert cli.MAX_BORDER == 2 ** 22
    assert cli.check_border(at) is at
    with pytest.raises(cli.UsageError, match=f"over the limit of {2 ** 22}$"):
        cli.check_border(past)


@pytest.mark.parametrize("argv", [["commute", "-"], ["insert", "-", "1"]],
                         ids=["commute", "insert"])
def test_a_huge_inner_border_is_a_usage_error(monkeypatch, capsys, argv):
    # an eleven-digit border part once ended in a MemoryError (exit 1)
    huge = '{"outer":[99999999999],"inner":[99999999998],"rows":[[1]]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(huge))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("error: the inner border has 99999999998 cells, over the "
                   "limit of 4194304\n")
