import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import flagtutte
from flagtutte.cli import COMMANDS, build_parser, main
from flagtutte.errors import FlagTutteError
from flagtutte.fileio import load_object
from flagtutte.matroid import matroid_from_bases
from flagtutte.polyflag import flag_from_constituents

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
EMPTY_POLYMATROID = {"type": "polymatroid", "n": 0, "rank": [0]}
# rank min(|S|, 2) on 11 elements: its vertices take 11! orderings
ELEVEN_POLYMATROID = {"type": "polymatroid", "n": 11,
                      "rank": [min(bin(m).count("1"), 2)
                               for m in range(1 << 11)]}


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def run_capped(tmp_path, verb, doc, *extra, timeout=60):
    """The CLI on `doc` in a child process with 1 GiB of address space, so
    that a verb that sizes its work by n fails there instead of taking the
    memory of the test run, and killed after `timeout` seconds;
    (exit code, parsed stdout, stderr)."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(
        Path(flagtutte.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "flagtutte.cli", verb, str(path), *extra],
        env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=cap)
    return done.returncode, json.loads(done.stdout or "null"), done.stderr


HUGE_LABEL_MATROID = {"type": "matroid", "n": 10**11,
                      "bases": [[10**11 - 1]]}
# the complete flag of uniform matroids on 11 elements: 11! basis flags
ELEVEN_FULL_FLAG = {"type": "flag_matroid", "constituents": [
    {"type": "matroid", "n": 11,
     "bases": [list(b) for b in itertools.combinations(range(11), k)]}
    for k in range(1, 11)]}


class TestCheck:
    def test_k4(self, capsys):
        code, doc = run_json(capsys, "check", FIXTURES / "k4.json")
        assert code == 0
        assert doc == {"ok": True, "kind": "matroid", "n": 6, "rank": 3,
                       "bases": 16}

    def test_nonpappus_76_bases(self, capsys):
        code, doc = run_json(capsys, "check", FIXTURES / "nonpappus.json")
        assert code == 0 and doc["bases"] == 76

    def test_matrix_fixture(self, capsys):
        code, doc = run_json(capsys, "check",
                             FIXTURES / "pappus8_matrix.json")
        assert code == 0 and doc["rank"] == 3 and doc["n"] == 8

    def test_bad_input_exits_one(self, capsys):
        code, doc = run_json(capsys, "check", FIXTURES / "bad_mixed.json")
        assert code == 1
        assert doc["ok"] is False
        assert doc["error"] == "UnequalCardinality"

    def test_polymatroid(self, capsys):
        code, doc = run_json(capsys, "check",
                             FIXTURES / "subspace_polymatroid.json")
        assert code == 0 and doc["rank"] == 3

    def test_missing_file(self, capsys):
        code, doc = run_json(capsys, "check", FIXTURES / "nope.json")
        assert code == 1 and doc["error"] == "ParseError"

    def test_unknown_verb_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate", "x.json"])
        assert info.value.code == 2


class TestTutte:
    def test_k4_all_methods_agree(self, capsys):
        code, doc = run_json(capsys, "tutte", FIXTURES / "k4.json",
                             "--method=all")
        assert code == 0 and doc["agree"] is True
        assert doc["rank"]["pretty"] == \
            "x^3 + 3x^2 + 4xy + 2x + y^3 + 3y^2 + 2y"
        assert doc["rank"] == doc["delcon"] == doc["activity"]

    def test_single_method(self, capsys):
        code, doc = run_json(capsys, "tutte", FIXTURES / "u24.json",
                             "--method=activity")
        assert code == 0
        assert {(tuple(t["exp"]), t["coeff"]) for t in doc["terms"]} == {
            ((2, 0), "1"), ((1, 0), "2"), ((0, 1), "2"), ((0, 2), "1")}

    def test_vertex_count_does_not_size_the_work(self, capsys, tmp_path):
        # vertices no edge touches leave the cycle matroid as it is
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"type": "graph", "vertices": 10**9,
                                    "edges": [[0, 1], [1, 2], [0, 2]]}))
        start = time.process_time()
        code, doc = run_json(capsys, "tutte", path)
        assert time.process_time() - start < 1
        assert code == 0 and doc["agree"] is True
        assert doc["rank"]["pretty"] == "x^2 + x + y"


class TestKTutte:
    def test_flag_example(self, capsys):
        code, doc = run_json(capsys, "ktutte", FIXTURES / "flag_rank12.json")
        assert code == 0
        assert doc["pretty"] == "x^2y^2 + x^2y + x^2 + xy^2 + xy"
        assert doc["nonnegative_coefficients"] is True

    def test_matroid_input_wrapped(self, capsys):
        code, doc = run_json(capsys, "ktutte", FIXTURES / "u12.json")
        assert code == 0 and doc["pretty"] == "x + y"

    def test_uniform_flag_on_five(self, capsys):
        code, doc = run_json(capsys, "ktutte", FIXTURES / "flag_u23_5.json")
        assert code == 0
        assert doc["pretty"] == ("x^3y^3 + 2x^3y^2 + 3x^3y + 4x^3 + 2x^2y^3"
                                 " + 8x^2y^2 + 8x^2y + 2x^2 + 3xy^3 + 8xy^2"
                                 " + 4xy + 4y^3 + 2y^2")

    def test_byte_identical_across_weights(self, capsys):
        outs = set()
        for extra in ([], ["--weights=1,2,3"], ["--weights=7,11,13"],
                      ["--weights=3,1,2"]):
            code, out = run(capsys, "ktutte", FIXTURES / "flag_rank12.json",
                            *extra)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    @pytest.mark.parametrize("verb", ["ktutte", "charpoly", "yclass"])
    @pytest.mark.parametrize("fixture, weights", [
        ("flag_rank12", ["2,0,1", "-5,3,1", "0,-1,-2"]),
        ("flag_u23_5", ["4,0,3,1,2", "-3,7,0,-1,2", "10,20,30,40,50"])])
    def test_weights_do_not_change_the_bytes(self, capsys, verb, fixture,
                                             weights):
        path = FIXTURES / f"{fixture}.json"
        plain = run(capsys, verb, path)
        assert plain[0] == 0
        for w in weights:
            assert run(capsys, verb, path, f"--weights={w}") == plain, w


class TestCharpoly:
    def test_flag_example(self, capsys):
        code, doc = run_json(capsys, "charpoly",
                             FIXTURES / "flag_rank12.json")
        assert code == 0 and doc["log_concave"] is True
        assert doc["terms"] == [{"exp": [0], "coeff": "-1"},
                                {"exp": [1], "coeff": "2"},
                                {"exp": [2], "coeff": "-1"}]


class TestQprime:
    def test_subspace_poly(self, capsys):
        code, doc = run_json(capsys, "qprime",
                             FIXTURES / "subspace_polymatroid.json")
        assert code == 0
        assert doc["pretty"] == "x^2 + 2xy + x + y^2"

    def test_matroid_input(self, capsys):
        code, doc = run_json(capsys, "qprime", FIXTURES / "u12.json")
        assert code == 0 and doc["pretty"] == "x + y"


class TestPolytope:
    def test_flag_polytope_dump(self, capsys):
        code, doc = run_json(capsys, "polytope",
                             FIXTURES / "flag_rank12.json", "--kmax=3")
        assert code == 0
        assert doc["vertices"] == [[1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]]
        assert len(doc["edges"]) == 4
        assert [1, 1, 1] in doc["lattice_points"]
        assert doc["normal"] is True

    def test_matroid_polytope(self, capsys):
        code, doc = run_json(capsys, "polytope", FIXTURES / "u24.json")
        assert code == 0
        assert len(doc["vertices"]) == 6 and len(doc["edges"]) == 12
        assert doc["lattice_points"] == doc["vertices"]

    def test_kmax_past_the_dimension_adds_no_work(self, tmp_path):
        # is_normal checks k <= max(2, dim P) only, so depths far past the
        # dimension of a point and of a segment cost nothing; a loop to
        # kmax would recurse kmax levels deep in _split
        point = {"type": "matroid", "n": 2, "bases": [[0]]}
        segment = json.loads((FIXTURES / "u12.json").read_text())
        for doc, kmax in [(point, 1500), (segment, 100000)]:
            code, report, stderr = run_capped(
                tmp_path, "polytope", doc, f"--kmax={kmax}", timeout=20)
            assert code == 0, stderr
            assert report["normal"] is True


class TestYclass:
    def test_all_points(self, capsys):
        code, doc = run_json(capsys, "yclass", FIXTURES / "flag_rank12.json")
        assert code == 0 and len(doc) == 6
        by_fp = {d["fixed_point"]: d["pretty"] for d in doc}
        assert by_fp["1|01"] == "1 - t1^-1*t3"
        assert by_fp["1|12"] == "0"

    def test_single_point_query(self, capsys):
        code, doc = run_json(capsys, "yclass", FIXTURES / "flag_rank12.json",
                             "--fixed-point=1|01")
        assert code == 0 and len(doc) == 1
        assert doc[0]["value"]["terms"] == [
            {"exp": [-1, 0, 1], "coeff": "-1"},
            {"exp": [0, 0, 0], "coeff": "1"}]

    def test_bad_fixed_point(self, capsys):
        code, doc = run_json(capsys, "yclass", FIXTURES / "flag_rank12.json",
                             "--fixed-point=2|01")
        assert code == 1

    def test_empty_fixed_point_is_not_ignored(self, capsys):
        code, doc = run_json(capsys, "yclass", FIXTURES / "flag_rank12.json",
                             "--fixed-point=")
        assert code == 1 and doc["error"] == "FlagTutteError"
        assert doc["detail"] == "'' is not a fixed point of the space"

    def test_lookup_matches_the_listing_path(self, monkeypatch):
        # every flag string of up to one level more than the space has,
        # its blocks the subsets of the labels and three bad ones, on each
        # space with n <= 4; a loop at n - 1 leaves zeros in the class
        from flagtutte import ktheory
        from flagtutte.fileio import laurent_to_json
        from flagtutte.ktheory import FlagSpace
        from flagtutte.laurent import format_poly
        y_class = ktheory.y_class
        for n, s in itertools.product(range(2, 5), range(1, 4)):
            for ranks in itertools.combinations(range(1, n), s):
                flag = flag_from_constituents([matroid_from_bases(
                    n, itertools.combinations(range(n - 1), k))
                    for k in ranks])
                cls = y_class(flag)
                monkeypatch.setattr(ktheory, "y_class", lambda f: cls)
                assert cls.space == FlagSpace(n, ranks)
                items = cls.items()
                blocks = ["".join(map(str, b)) for k in range(n + 1)
                          for b in itertools.combinations(range(n), k)]
                for length in range(1, s + 2):
                    for chain in itertools.product(
                            blocks + [str(n), "00", "-1,"], repeat=length):
                        text = "|".join(chain)
                        wanted = ktheory.parse_chain(text)
                        listed = [{"fixed_point": ktheory.format_chain(fp, n),
                                   "value": laurent_to_json(v),
                                   "pretty": format_poly(v)}
                                  for fp, v in items if fp == wanted]
                        args = argparse.Namespace(weights=None,
                                                  fixed_point=text)
                        try:
                            got = COMMANDS["yclass"](flag, args)
                        except FlagTutteError as exc:
                            assert not listed
                            assert str(exc) == f"{text!r} is not a " \
                                "fixed point of the space"
                        else:
                            assert listed and got == listed

    def test_label_of_element_ten_reads_back(self, capsys, tmp_path):
        path = tmp_path / "u1_11.json"
        path.write_text(json.dumps({"type": "matroid", "n": 11,
                                    "bases": [[e] for e in range(11)]}))
        code, doc = run_json(capsys, "yclass", path)
        assert code == 0
        label = doc[-1]["fixed_point"]  # element 10, last in sorted order
        code, doc = run_json(capsys, "yclass", path, f"--fixed-point={label}")
        assert code == 0 and len(doc) == 1


class TestQuotientUnion:
    def test_pappus_quotient_pair(self, capsys):
        code, doc = run_json(capsys, "quotient",
                             FIXTURES / "pappus8_quotient_pair.json")
        assert code == 0 and doc["is_quotient"] is True

    def test_union_cover(self, capsys):
        code, doc = run_json(capsys, "union",
                             FIXTURES / "u1_counterexample_family.json")
        assert code == 0
        assert doc["union_rank"] == 2
        assert sorted(e for part in doc["cover"] for e in part) == [0, 1]


def _pair_of_polymatroids():
    p = {"type": "polymatroid", "n": 1, "rank": [0, 1]}
    return {"type": "matroid_pair", "N": p, "M": p}


class TestBadInput:
    @pytest.mark.parametrize("verb, doc, extra, error", [
        ("check", {"type": "matroid", "n": 2, "bases": "ab"}, [],
         "SchemaError"),
        ("check", {"type": "matroid", "n": 2, "bases": [["a", 1]]}, [],
         "SchemaError"),
        ("check", {"type": "matroid", "n": "3", "bases": [[0]]}, [],
         "SchemaError"),
        ("check", {"type": "flag_matroid", "constituents": [5]}, [],
         "SchemaError"),
        ("check", {"type": "graph", "edges": [[0]]}, [], "SchemaError"),
        ("check", {"type": "graph", "edges": [[-1, 0], [0, 1]]}, [],
         "OutOfRange"),
        ("check", {"type": "matrix", "rows": [["a"]]}, [], "SchemaError"),
        ("check", {"type": "polymatroid", "n": 1, "rank": [0, "1"]}, [],
         "SchemaError"),
        ("check", {"type": "polymatroid", "n": -1, "rank": []}, [],
         "OutOfRange"),
        ("quotient", _pair_of_polymatroids(), [], "SchemaError"),
        ("union", {"type": "matroid_list", "matroids": []}, [],
         "FlagTutteError"),
        ("yclass", None, ["--fixed-point=x|y"], "ParseError"),
        ("qprime", EMPTY_POLYMATROID, [], "OutOfRange"),
        ("polytope", EMPTY_POLYMATROID, [], "OutOfRange"),
        ("ktutte", None, ["--weights=1,1,2,3,4"], "BadWeights"),
        ("ktutte", None, ["--weights=1,2,3"], "BadWeights"),
        ("yclass", None, ["--weights=1,1,2,3,4"], "BadWeights"),
        ("check", {"type": "matroid", "n": True, "bases": [[0]]}, [],
         "SchemaError"),
        ("check", {"type": "matrix", "rows": [[1, False]]}, [],
         "SchemaError"),
        ("polytope", {"type": "matroid", "n": 40, "bases": [[0]]}, [],
         "OutOfRange"),
        ("polytope", ELEVEN_POLYMATROID, [], "OutOfRange"),
        ("qprime", ELEVEN_POLYMATROID, [], "OutOfRange"),
    ])
    def test_exits_one_with_report(self, capsys, tmp_path, verb, doc, extra,
                                   error):
        path = FIXTURES / "flag_u23_5.json"
        if doc is not None:
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
        code, report = run_json(capsys, verb, path, *extra)
        assert code == 1
        assert report["ok"] is False and report["error"] == error

    @pytest.mark.parametrize("verb", ["polytope", "qprime"])
    def test_ordering_walk_refused_before_it_starts(self, capsys, tmp_path,
                                                    verb):
        # 11! orderings would take minutes; the limit answers at once
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(ELEVEN_POLYMATROID))
        start = time.process_time()
        code, report = run_json(capsys, verb, path)
        assert time.process_time() - start < 1
        assert code == 1 and report["error"] == "OutOfRange"

    @pytest.mark.parametrize("verb, doc, detail", [
        ("quotient", {"type": "matroid_pair", "N": "u24", "M": {}},
         "matroid_pair field 'N' must be an object"),
        ("quotient", {"type": "matroid_pair", "M": [1], "N": {
            "type": "matroid", "n": 1, "bases": [[0]]}},
         "matroid_pair field 'M' must be an object"),
        ("union", {"type": "matroid_list", "matroids": ["u24"]},
         "matroid_list field 'matroids' must be a list of objects"),
    ])
    def test_nested_member_is_named(self, capsys, tmp_path, verb, doc,
                                    detail):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, verb, path)
        assert code == 1
        assert report["error"] == "SchemaError"
        assert report["detail"] == detail

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",                            # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,          # nests too deeply
    ])
    def test_unreadable_file_exits_one(self, capsys, tmp_path, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        code, report = run_json(capsys, "check", path)
        assert code == 1
        assert report["ok"] is False and report["error"] == "ParseError"

    def test_integer_past_the_digit_limit_exits_one(self, capsys, tmp_path):
        # json refuses it with a ValueError that is not a JSONDecodeError
        path = tmp_path / "doc.json"
        path.write_text('{"type": "matroid", "n": ' + "9" * 5000
                        + ', "bases": [[0]]}')
        code, report = run_json(capsys, "check", path)
        assert code == 1
        assert report["ok"] is False and report["error"] == "ParseError"

    @pytest.mark.parametrize("entry", ["1e10000000", "-2E-10000000",
                                       "0." + "3" * 2000])
    def test_huge_rational_string_refused_at_once(self, capsys, tmp_path,
                                                  entry):
        # Fraction("1e10000000") alone takes seconds to build its integer;
        # 2,000 digits are within the int-to-string limit, not the bound
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"type": "matrix", "rows": [[1, entry]]}))
        start = time.process_time()
        code, report = run_json(capsys, "check", path)
        assert time.process_time() - start < 2
        assert code == 1
        assert report["ok"] is False and report["error"] == "SchemaError"

    def test_rank_table_refused_before_the_vertices(self, capsys, tmp_path):
        # the n-long vertex of the one basis is never built
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"type": "matroid", "n": 10**7,
                                    "bases": [[0]]}))
        start = time.process_time()
        code, report = run_json(capsys, "polytope", path)
        assert time.process_time() - start < 1
        assert code == 1 and report["error"] == "OutOfRange"

    @pytest.mark.parametrize("verb, doc, extra", [
        ("check", {"type": "polymatroid", "n": 10**11, "rank": [0]}, []),
        ("qprime", {"type": "polymatroid", "n": 10**11, "rank": [0]}, []),
        ("ktutte", {"type": "polymatroid", "n": 10**11, "rank": [0]}, []),
        ("check", {"type": "polymatroid", "n": 3 * 10**9, "rank": [0]}, []),
        ("ktutte", {"type": "matroid", "n": 10**11, "bases": [[0]]}, []),
        ("charpoly", {"type": "matroid", "n": 10**11, "bases": [[0]]}, []),
        ("tutte", {"type": "matroid", "n": 2000, "bases": [[0]]},
         ["--method=delcon"]),
        ("tutte", {"type": "matroid", "n": 10**8, "bases": [[0]]},
         ["--method=delcon"]),
        ("tutte", {"type": "matroid", "n": 10**8, "bases": [[0]]},
         ["--method=activity"]),
        ("ktutte", {"type": "flag_matroid",
                    "constituents": [HUGE_LABEL_MATROID]}, []),
        ("yclass", {"type": "matroid", "n": 10**6, "bases": [[0]]}, []),
    ])
    def test_huge_ground_set_refused_before_allocating(self, tmp_path, verb,
                                                       doc, extra):
        code, report, stderr = run_capped(tmp_path, verb, doc, *extra)
        assert code == 1, stderr
        assert report["ok"] is False and report["error"] == "OutOfRange"

    @pytest.mark.parametrize("verb", ["ktutte", "charpoly", "yclass"])
    def test_flag_space_past_ten_factorial_refused_before_listing(
            self, tmp_path, verb):
        # the flag space counts its fixed points when it is made, before
        # the basis flags are listed
        code, report, stderr = run_capped(tmp_path, verb, ELEVEN_FULL_FLAG)
        assert code == 1, stderr
        assert report["ok"] is False and report["error"] == "OutOfRange"

    def test_huge_label_checks(self, tmp_path):
        # no bound on n applies to check, and the basis {n - 1} builds no
        # 2^(n-1) mask
        code, report, stderr = run_capped(tmp_path, "check",
                                          HUGE_LABEL_MATROID)
        assert code == 0, stderr
        assert report == {"bases": 1, "kind": "matroid", "n": 10**11,
                          "ok": True, "rank": 1}

    def test_nested_members_are_not_parsed(self, capsys, tmp_path):
        # a member is checked to be a matroid before it is parsed, so
        # nesting deeper than the interpreter's recursion limit allows in
        # parse_object still ends in the report
        leaf = doc = {"type": "matroid", "n": 1, "bases": [[0]]}
        for _ in range(495):
            doc = {"type": "matroid_pair", "N": doc, "M": leaf}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, "quotient", path)
        assert code == 1
        assert report["detail"] == "matroid_pair members must be matroids"


def uniform_doc(k, n, loop=None):
    """U(k, n) as a matroid document, or U(k, n - 1) with `loop` added."""
    ground = [e for e in range(n) if e != loop]
    return {"type": "matroid", "n": n,
            "bases": [list(b) for b in itertools.combinations(ground, k)]}


class TestLargeGroundSets:
    # quotients are decided by single-element steps, n 2^n of them; the
    # walk over all 3^n nested pairs took 47 s and 17 s on these documents
    # (CPython 3.11.7, 2 vCPUs)
    def test_check_of_two_step_flag_on_18_elements(self, tmp_path):
        doc = {"type": "flag_matroid",
               "constituents": [uniform_doc(1, 18), uniform_doc(2, 18)]}
        code, report, stderr = run_capped(tmp_path, "check", doc, timeout=20)
        assert code == 0, stderr
        assert report["kind"] == "flag_matroid" and report["ok"] is True

    def test_quotient_with_a_loop_on_18_elements(self, tmp_path):
        doc = {"type": "matroid_pair", "N": uniform_doc(1, 18),
               "M": uniform_doc(2, 18, loop=17)}
        code, report, stderr = run_capped(tmp_path, "quotient", doc,
                                          timeout=20)
        assert code == 0, stderr
        assert report == {"is_quotient": False, "witness": [[], [17]]}

    def test_ktutte_of_rank_one_matroid_on_20_elements(self, tmp_path):
        # U(1, 20) has 20 bases; its tight sets are read from one string
        # of 2^20 bits per vertex, where a sum of 1 << m over them, 4^n
        # work in all, ran past the timeout
        code, report, stderr = run_capped(tmp_path, "ktutte",
                                          uniform_doc(1, 20), timeout=60)
        assert code == 0, stderr
        assert report["pretty"] == " + ".join(
            ["x"] + [f"y^{k}" for k in range(19, 1, -1)] + ["y"])


class TestDeterminism:
    def test_rerun_byte_identical(self, capsys):
        first = run(capsys, "polytope", FIXTURES / "flag_rank12.json")
        second = run(capsys, "polytope", FIXTURES / "flag_rank12.json")
        assert first == second

    def test_text_mode_deterministic(self, capsys):
        a = run(capsys, "tutte", FIXTURES / "k4.json", "--output=text")
        b = run(capsys, "tutte", FIXTURES / "k4.json", "--output=text")
        assert a == b and a[0] == 0


# (call, exit code, sha256 of stdout) under --output=text: each verb, tutte
# with all routes and with one; a domain error is reported as JSON in
# either mode
TEXT_OUTPUT = [
    ("tutte k4.json", 0,
     "fc49dd465616d67455ff0a855b06eebaf522ef024b3f8fd0cc89f22319a95688"),
    ("tutte u24.json --method=delcon", 0,
     "9ff1ad7b8383e4c202f0ab330ace54b5ca2ad7723ba76adb65a7546d5a4e39d2"),
    ("ktutte flag_rank12.json", 0,
     "e54866309b48d77572a22f3b8d9bbfc8f4ca382fad68422fde60428120454da2"),
    ("charpoly flag_u23_5.json", 0,
     "f6748fa31ac7d03d10461de8a5c37df9cd0befb993795b2d824fd12098f80c2e"),
    ("qprime subspace_polymatroid.json", 0,
     "7bc34f815abca8be9adadd665acaf621da020870401249f71eea3f45587d9476"),
    ("polytope k4.json --kmax=2", 0,
     "2fc67fc57c1a670f40012f8ae5386a17c182c670ae0d05d93a4113620599ceaf"),
    ("yclass flag_rank12.json --fixed-point=1|01", 0,
     "0dc12c9b4bc2ce252d16aa5c71ea011901b1da27a20b7ad5b90bc28deceeb665"),
    ("quotient pappus8_quotient_pair.json", 0,
     "d3412907ac839529111e8ea8c47fabdec40eccbffd9f01b6ac0d000b0e7233cc"),
    ("union u1_counterexample_family.json", 0,
     "9367acd3382c163383a0ff69405aae94731b8c04509355605a9943f833f9d79b"),
    ("check bad_mixed.json", 1,
     "eaa9f48b4b41d40d782a05926bac82770906d5213e06a6747a98e5b4cf965f7d"),
]


class TestTextOutput:
    @pytest.mark.parametrize("call, code, digest", TEXT_OUTPUT)
    def test_bytes_pinned(self, capsys, call, code, digest):
        verb, fixture, *extra = call.split()
        got, out = run(capsys, verb, FIXTURES / fixture, *extra,
                       "--output=text")
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == \
            (code, digest)


VERB_CALLS = {
    "check": "nonpappus.json",
    "tutte": "k4.json",
    "ktutte": "flag_rank12.json",
    "charpoly": "flag_rank12.json",
    "qprime": "subspace_polymatroid.json",
    "polytope": "k4.json --kmax=2",
    "yclass": "flag_rank12.json",
    "quotient": "pappus8_quotient_pair.json",
    "union": "u1_counterexample_family.json",
}


class TestVerbsOnlyReturn:
    @pytest.mark.parametrize("verb", sorted(COMMANDS))
    def test_verb_returns_what_main_writes(self, capsys, verb):
        fixture, *extra = VERB_CALLS[verb].split()
        argv = [verb, str(FIXTURES / fixture), *extra]
        args = build_parser().parse_args(argv)
        payload = COMMANDS[verb](load_object(args.input), args)
        assert capsys.readouterr().out == ""
        assert run(capsys, *argv) == \
            (0, json.dumps(payload, sort_keys=True) + "\n")


# ------------------------------------------------------------------ fuzzing

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.text(max_size=3)
    | st.floats(-4, 4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def fuzz_field(good):
    """Mostly a well-typed value, sometimes any JSON value at all."""
    return st.integers(0, 7).flatmap(
        lambda k: JSON_VALUES if k == 0 else good)


def sizes(top):
    """Mostly n in 0..top, sometimes n past the limits on the ground set:
    the basis-list Tutte routes' 500, or one that no table fits."""
    return st.integers(0, 7).flatmap(
        lambda k: st.sampled_from([2000, 10**11]) if k == 0
        else st.integers(0, top))


def matroid_documents(n):
    """Matroid documents on n elements, their bases over the labels -1..4,
    or over 0, 1 and n - 1 when n is past 5."""
    labels = (st.integers(-1, 4) if n <= 5
              else st.sampled_from([0, 1, n - 1]))
    equal_size_sets = st.integers(0, 3).flatmap(lambda k: st.lists(
        st.lists(labels, min_size=k, max_size=k, unique=True),
        min_size=1, max_size=4))
    return st.fixed_dictionaries(
        {"type": st.just("matroid"), "n": fuzz_field(st.just(n)),
         "bases": fuzz_field(equal_size_sets)},
        optional={"indexing": st.sampled_from(["0", "1", 1, True])})


def fuzz_documents():
    """Documents under every type tag with n <= 5, or now and then n far
    past the limits with a basis label up to n - 1: fields right or wrong,
    booleans, rationals as strings and members nested two levels deep."""
    matroids = st.one_of(
        sizes(5).flatmap(matroid_documents),
        st.fixed_dictionaries({"type": st.just("matrix"), "rows": fuzz_field(
            st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(
                st.integers(-2, 2) | st.just("1/2"), min_size=n, max_size=n),
                min_size=1, max_size=3)))}),
        st.fixed_dictionaries(
            {"type": st.just("graph"), "edges": fuzz_field(st.lists(
                st.lists(st.integers(-1, 4), min_size=2, max_size=2),
                min_size=1, max_size=5))},
            optional={"vertices": fuzz_field(st.integers(3, 6))}))
    others = st.one_of(
        st.fixed_dictionaries({
            "type": st.just("polymatroid"), "n": fuzz_field(sizes(3)),
            "rank": fuzz_field(st.lists(st.integers(-1, 3), max_size=8))}),
        st.fixed_dictionaries({"type": JSON_VALUES}))

    def containers(members):
        return st.one_of(
            st.fixed_dictionaries(
                {"type": st.just("flag_matroid"), "constituents": fuzz_field(
                    st.lists(members, min_size=1, max_size=3))},
                optional={"ranks": fuzz_field(st.lists(st.integers(0, 4)))}),
            st.fixed_dictionaries({"type": st.just("matroid_pair"),
                                   "N": fuzz_field(members),
                                   "M": fuzz_field(members)}),
            st.fixed_dictionaries({"type": st.just("matroid_list"),
                                   "matroids": fuzz_field(
                                       st.lists(members, max_size=3))}))
    return st.one_of(matroids, matroids, others, containers(matroids),
                     containers(containers(matroids)), JSON_VALUES)


FUZZ_OPTIONS = st.lists(st.sampled_from([
    "--method=delcon", "--output=text", "--kmax=2", "--kmax=x",
    "--weights=0,1,2", "--weights=2,0,1,3,4", "--weights=1,1",
    "--fixed-point=0|01", "--fixed-point=", "--bogus"]), max_size=2)


class TestFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(sorted(COMMANDS)), fuzz_documents(),
           FUZZ_OPTIONS)
    def test_every_document_ends_in_the_contract(self, verb, doc, options):
        # exit 0, exit 1 with one JSON report, or exit 2 for usage
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main([verb, str(path), *options])
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2)
        if code == 1:
            report = json.loads(out.getvalue())
            assert report["ok"] is False
