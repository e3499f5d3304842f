import json

import pytest

from flagtutte.errors import (AxiomViolation, ParseError, SchemaError,
                              UnequalCardinality)
from flagtutte.fileio import (as_flag_matroid, as_polymatroid, bivar_to_json,
                              laurent_to_json, load_object, matroid_to_json,
                              parse_object, polymatroid_to_json)
from flagtutte.laurent import LaurentPoly
from flagtutte.matroid import uniform_matroid


class TestParse:
    def test_matroid_roundtrip(self):
        m = uniform_matroid(2, 4)
        assert parse_object(matroid_to_json(m)) == m

    def test_one_indexed_translation(self):
        doc = {"type": "matroid", "n": 3, "indexing": "1",
               "bases": [[1], [2], [3]]}
        assert parse_object(doc) == uniform_matroid(1, 3)

    def test_graph_one_indexed(self):
        doc = {"type": "graph", "vertices": 3, "indexing": "1",
               "edges": [[1, 2], [2, 3], [1, 3]]}
        assert parse_object(doc) == uniform_matroid(2, 3)

    def test_polymatroid_roundtrip(self):
        from test_polyflag import subspace_polymatroid
        p = subspace_polymatroid()
        assert parse_object(polymatroid_to_json(p)) == p

    def test_flag_ranks_must_match(self):
        doc = {"type": "flag_matroid", "n": 3, "ranks": [2, 2],
               "constituents": [
                   {"type": "matroid", "n": 3, "bases": [[0], [1], [2]]},
                   {"type": "matroid", "n": 3,
                    "bases": [[0, 1], [0, 2], [1, 2]]}]}
        with pytest.raises(SchemaError):
            parse_object(doc)

    def test_unknown_type(self):
        with pytest.raises(SchemaError):
            parse_object({"type": "simplicial_complex"})

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            parse_object({"type": "matroid", "n": 2})

    def test_invalid_matroid_propagates(self):
        with pytest.raises(UnequalCardinality):
            parse_object({"type": "matroid", "n": 2, "bases": [[0], [0, 1]]})

    def test_invalid_polymatroid_propagates(self):
        with pytest.raises(AxiomViolation):
            parse_object({"type": "polymatroid", "n": 2,
                          "rank": [1, 1, 1, 2]})

    def test_bad_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_object(path)


class TestCoercions:
    def test_matroid_promotes_to_flag(self):
        f = as_flag_matroid(uniform_matroid(2, 4))
        assert f.ranks == (2,)

    def test_flag_promotes_to_polymatroid(self):
        from test_polyflag import four_flag_matroid
        p = as_polymatroid(four_flag_matroid())
        assert p.total_rank == 3


class TestWriters:
    def test_laurent_terms_sorted(self):
        p = LaurentPoly(2, {(1, 0): 2, (-1, 3): 1})
        doc = laurent_to_json(p)
        assert doc == {"vars": 2, "terms": [
            {"exp": [-1, 3], "coeff": "1"}, {"exp": [1, 0], "coeff": "2"}]}

    def test_bivar_json_stringifies_coefficients(self):
        doc = bivar_to_json(LaurentPoly(2, {(2, 0): 10 ** 30}))
        assert doc["terms"][0]["coeff"] == str(10 ** 30)
        assert doc["vars"] == ["x", "y"]

    def test_json_serializable(self):
        m = uniform_matroid(1, 2)
        json.dumps(matroid_to_json(m), sort_keys=True)
