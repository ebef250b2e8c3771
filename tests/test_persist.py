import json
import re
import tempfile
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hit2mtsk import (
    AcoConfig,
    GenerationConfig,
    TrainConfig,
    load_model,
    load_universe,
    save_model,
    save_universe,
)
from hit2mtsk.persist import (
    _UNIVERSE_MANIFEST,
    decode,
    dumps,
    model_to_dict,
    rules_text,
    universe_to_dict,
    write_xy_csv,
)
from hit2mtsk.aco import select_rules
from hit2mtsk.cli import EXIT_DATA, CliError, _load_model
from hit2mtsk.inference import Model, predict_values
from hit2mtsk.it2 import Partition, build_partition
from hit2mtsk.rules import HybridRule, Polynomial
from hit2mtsk.universe import RuleUniverse

from conftest import candidate_model
from test_inference import RULE_HIGH, RULE_LOW, X_PART, two_rule_model

GOLDEN_MODEL = Path(__file__).with_name("golden") / "two_rule_model.json"

# valid JSON documents that are not objects
NON_OBJECTS = [[], "x", None]


def encode(record) -> dict:
    """A record's fields as a saved file holds them."""
    return json.loads(dumps(asdict(record)))


POLY = Polynomial(
    degree=2,
    variables=("a", "b"),
    exponents=((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)),
    coefficients=(0.1, -2.5e-7, 3.0, 1e300, -0.0, 7.25),
)


class TestComponentRoundTrips:
    def test_partition(self):
        back = decode(Partition, encode(X_PART))
        assert back == X_PART

    def test_built_partition_with_awkward_floats(self):
        rng = np.random.default_rng(3)
        p = build_partition(rng.normal(0.0, 1e-7, 200), 5, variable="tiny")
        assert decode(Partition, encode(p)) == p

    def test_polynomial(self):
        assert decode(Polynomial, encode(POLY)) == POLY

    def test_rule(self):
        assert decode(HybridRule, encode(RULE_HIGH)) == RULE_HIGH


class TestDecode:
    @pytest.mark.parametrize(
        "annotation, value",
        [
            (float, "1.5"),
            (float, True),
            (float, None),
            (int, 1.9),
            (int, 2.0),
            (int, False),
            (bool, "yes"),
            (bool, 1),
            (str, 3),
            (tuple[float, float], [1.0]),
            (tuple[float, float], [1.0, 2.0, 3.0]),
            (tuple[str, ...], "ab"),
            (tuple[float, ...], {"a": 1.0}),
            (Mapping, []),
            (int | None, "1"),
        ],
    )
    def test_wrong_json_type_rejected(self, annotation, value):
        with pytest.raises(TypeError, match="expected"):
            decode(annotation, value)

    def test_values_are_kept_as_parsed(self):
        # an integer config value such as {"fou_scale": 1} stays 1, so
        # the manifest records the config as it was written
        assert type(decode(float, 1)) is int
        assert decode(tuple[float, ...], [1, 2.5]) == (1, 2.5)
        assert decode(int | None, None) is None
        assert decode(int | None, 4) == 4
        assert decode(Mapping, {"a": [1]}) == {"a": [1]}

    def test_record_keys_must_be_exactly_its_fields(self):
        doc = encode(RULE_HIGH)
        with pytest.raises(TypeError, match="unknown key 'weight'"):
            decode(HybridRule, {**doc, "weight": 1.0})
        del doc["error_dominance"]
        with pytest.raises(TypeError, match="missing key 'error_dominance'"):
            decode(HybridRule, doc)

    @pytest.mark.parametrize("value", NON_OBJECTS)
    def test_record_must_be_an_object(self, value):
        with pytest.raises(TypeError, match="HybridRule must be an object"):
            decode(HybridRule, value)

    def test_wrong_type_deep_in_a_model_rejected(self):
        doc = encode(two_rule_model())
        doc["rules"][1]["consequent_fn"]["coefficients"][0] = "1.5"
        with pytest.raises(TypeError, match='expected float, got "1.5"'):
            decode(Model, doc)

    @pytest.mark.parametrize(
        "annotation, value",
        [
            (float, 10**23),
            (float, -(2**63) - 1),
            (tuple[float, ...], [1.0, 2**63]),
            (tuple[float, float], [1.5, 10**23]),
        ],
    )
    def test_whole_number_wider_than_64_bits_rejected(self, annotation, value):
        with pytest.raises(ValueError, match="does not fit in 64 bits"):
            decode(annotation, value)

    def test_whole_numbers_within_64_bits_accepted(self):
        assert decode(float, 2**63 - 1) == 2**63 - 1
        assert decode(tuple[float, ...], [1.5, -(2**63)]) == (1.5, -(2**63))
        assert decode(int, 10**23) == 10**23

    def test_record_checks_still_run(self):
        doc = encode(RULE_HIGH)
        doc["error_dominance"] = 2.0
        with pytest.raises(ValueError, match="error dominance must be in"):
            decode(HybridRule, doc)


class TestBulkRows:
    """An array of rows of one leaf type, such as a polynomial's exponents
    or a rule's antecedent, is checked in one pass; any value that pass
    misses is read item by item, so each refusal keeps its type and
    message."""

    @pytest.mark.parametrize(
        "item, message",
        [
            (True, "expected int, got true"),
            (1.0, "expected int, got 1.0"),
            ("1", 'expected int, got "1"'),
        ],
    )
    def test_exponent_item_of_another_type_rejected(self, item, message):
        doc = encode(POLY)
        doc["exponents"][2][1] = item
        with pytest.raises(TypeError, match=re.escape(message)):
            decode(Polynomial, doc)

    @pytest.mark.parametrize("pair", [["x"], ["x", "High", "Low"], []])
    def test_antecedent_pair_of_wrong_length_rejected(self, pair):
        doc = encode(RULE_HIGH)
        doc["antecedent"] = [pair]
        with pytest.raises(TypeError, match=f"expected 2 items, got {len(pair)}"):
            decode(HybridRule, doc)

    @pytest.mark.parametrize(
        "record, field, row, message",
        [
            (POLY, "exponents", {"a": 0, "b": 1}, "expected an array, got an object"),
            (RULE_HIGH, "antecedent", {"x": "High"}, "expected an array, got an object"),
            (RULE_HIGH, "antecedent", {"x": 1, "y": 2}, "expected an array, got an object"),
            (RULE_HIGH, "antecedent", "xy", 'expected an array, got "xy"'),
            (RULE_HIGH, "antecedent", ["x", 1], "expected str, got 1"),
        ],
    )
    def test_row_that_is_no_array_of_its_leaf_type_rejected(
        self, record, field, row, message
    ):
        doc = encode(record)
        doc[field][0] = row
        with pytest.raises(TypeError, match=re.escape(message)):
            decode(type(record), doc)

    def test_whole_number_wider_than_64_bits_in_a_float_array_rejected(self):
        doc = encode(POLY)
        doc["coefficients"][3] = 10**23
        with pytest.raises(ValueError, match="does not fit in 64 bits"):
            decode(Polynomial, doc)
        with pytest.raises(ValueError, match="does not fit in 64 bits"):
            decode(tuple[tuple[float, ...], ...], [[1.5, 2.5], [1.5, 2**63]])

    def test_rows_read_in_one_pass_equal_rows_read_item_by_item(self):
        rows = tuple[tuple[float, ...], ...]
        # exact floats take the one pass; a whole number sends them item by item
        assert decode(rows, [[1.5, 2.5], (0.5,)]) == ((1.5, 2.5), (0.5,))
        back = decode(rows, [[1.5, 2.5], [1, 0.5]])
        assert back == ((1.5, 2.5), (1, 0.5)) and type(back[1][0]) is int
        assert decode(tuple[tuple[int, ...], ...], [[], [0, 3]]) == ((), (0, 3))
        assert decode(tuple[tuple[str, str], ...], []) == ()
        assert all(type(row) is tuple for row in decode(rows, [[1.5], (2.5,)]))

    def test_bad_exponent_table_refused_on_every_load(self):
        doc = encode(POLY)
        doc["exponents"][1] = [0, 0]
        for _ in range(2):
            with pytest.raises(ValueError, match="duplicate monomials"):
                decode(Polynomial, doc)


class TestFileLayout:
    def test_model_document_is_pinned(self):
        # the layout follows the dataclass fields, so renaming a field
        # would change every file; this literal document catches that
        assert dumps(model_to_dict(two_rule_model())) == GOLDEN_MODEL.read_text()

    def test_every_field_is_saved_and_loaded(self, trained):
        # a field left out of the file, or out of the constructor that
        # loading calls, would not come back from a round trip
        model_doc = model_to_dict(trained.model)
        universe_doc = universe_to_dict(trained.universe)
        manifest = universe_doc.pop("manifest")
        assert manifest.keys() == set(_UNIVERSE_MANIFEST)
        for cls, keys in (
            (Model, model_doc.keys()),
            (RuleUniverse, universe_doc.keys() | manifest.keys()),
        ):
            assert all(f.init for f in fields(cls))
            assert keys - {"format", "version"} == {f.name for f in fields(cls)}

    def test_documents_share_no_mutable_part_with_their_record(self):
        # leaves and leaf arrays are handed to the encoder as they are, but
        # a manifest is copied, so editing a document leaves the model as it was
        model = two_rule_model(manifest={"seed": 3, "config": {"num_sets": 3}})
        doc = model_to_dict(model)
        doc["manifest"]["config"]["num_sets"] = 5
        doc["rules"][0]["consequent_fn"]["coefficients"] = [0.0]
        assert model.manifest == {"seed": 3, "config": {"num_sets": 3}}
        assert model == two_rule_model(manifest={"seed": 3, "config": {"num_sets": 3}})
        header = {"format": "hit2mtsk-model", "version": 1}
        assert dumps(model_to_dict(model)) == dumps({**header, **asdict(model)})

    def test_integer_fou_scale_is_saved_as_a_float(self):
        p = build_partition(np.linspace(0.0, 1.0, 20), 3, fou_scale=1)
        assert all(type(s.fou_scale) is float for s in p.sets)
        assert '"fou_scale": 1.0' in dumps(encode(p))


class TestModelFiles:
    def test_round_trip_preserves_predictions(self, trained, toy_dataset, tmp_path):
        path = tmp_path / "model.json"
        save_model(trained.model, path)
        back = load_model(path)
        a, _, _ = predict_values(trained.model, toy_dataset)
        b, _, _ = predict_values(back, toy_dataset)
        assert np.array_equal(a, b)
        assert back.rules == trained.model.rules
        assert back.manifest == dict(trained.model.manifest)

    def test_resave_is_byte_identical(self, trained, tmp_path):
        p1 = tmp_path / "m1.json"
        p2 = tmp_path / "m2.json"
        save_model(trained.model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "notmodel.json"
        path.write_text(dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a model file"):
            load_model(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(dumps({**model_to_dict(two_rule_model()), "version": 2}))
        with pytest.raises(ValueError, match="unsupported model file version 2"):
            load_model(path)

    def test_boolean_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(dumps({**model_to_dict(two_rule_model()), "version": True}))
        with pytest.raises(ValueError, match="unsupported model file version True"):
            load_model(path)

    @pytest.mark.parametrize("doc", NON_OBJECTS)
    def test_non_object_rejected(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TypeError, match="model file must hold a JSON object"):
            load_model(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(dumps({**model_to_dict(two_rule_model()), "note": "x"}))
        with pytest.raises(TypeError, match="unknown key 'note'"):
            load_model(path)

    def test_big_whole_number_for_a_float_rejected(self, tmp_path):
        # numpy cannot hold 1e23 written as a whole number; 1e+23 loads
        doc = model_to_dict(two_rule_model())
        path = tmp_path / "model.json"
        path.write_text(dumps({**doc, "fallback_value": 10**23}))
        with pytest.raises(ValueError, match="does not fit in 64 bits"):
            load_model(path)
        path.write_text(dumps({**doc, "fallback_value": 1e23}))
        assert load_model(path).fallback_value == 1e23

    def test_no_volatile_content(self, trained):
        # serialized form must not embed anything time- or path-dependent
        text = dumps(model_to_dict(trained.model))
        for token in ('"time', '"timestamp', '"created', "/root", "hostname"):
            assert token not in text.lower()


class TestUniverseFiles:
    def test_round_trip(self, trained, tmp_path):
        path = tmp_path / "universe.json"
        save_universe(trained.universe, path)
        back = load_universe(path)
        assert back == trained.universe
        assert back.rules == trained.universe.rules
        assert back.config == trained.universe.config
        assert back.coverage == trained.universe.coverage
        assert back.dataset_fingerprint == trained.universe.dataset_fingerprint

    def test_loaded_universe_selects_the_same_subset(
        self, trained, toy_dataset, tmp_path
    ):
        # a reloaded universe's candidate model compiles tables of its own
        path = tmp_path / "universe.json"
        save_universe(trained.universe, path)
        config = AcoConfig(num_ants=4, num_iterations=3)
        want, got = (
            select_rules(candidate_model(u, toy_dataset), toy_dataset, config, seed=1)
            for u in (trained.universe, load_universe(path))
        )
        assert got == want

    def test_resave_is_byte_identical(self, trained, tmp_path):
        p1 = tmp_path / "u1.json"
        p2 = tmp_path / "u2.json"
        save_universe(trained.universe, p1)
        save_universe(load_universe(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_format_rejected(self, trained, tmp_path):
        path = tmp_path / "u.json"
        save_model(trained.model, path)
        with pytest.raises(ValueError, match="not a universe file"):
            load_universe(path)

    def test_unknown_version_rejected(self, trained, tmp_path):
        doc = universe_to_dict(trained.universe)
        doc["version"] = 2
        path = tmp_path / "u.json"
        path.write_text(dumps(doc))
        with pytest.raises(ValueError, match="unsupported universe file version 2"):
            load_universe(path)

    @pytest.mark.parametrize("doc", NON_OBJECTS)
    def test_non_object_rejected(self, tmp_path, doc):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TypeError, match="universe file must hold a JSON object"):
            load_universe(path)

    @pytest.mark.parametrize(
        "move",
        [
            lambda d: d.update(manifest=list(d["manifest"])),
            lambda d: d.pop("manifest"),
            lambda d: d["manifest"].pop("coverage"),
            lambda d: d["manifest"].update(note="x"),
            lambda d: d.update(coverage=d["manifest"]["coverage"]),
        ],
        ids=["list", "absent", "missing_key", "unknown_key", "key_also_outside"],
    )
    def test_manifest_holds_exactly_its_fields(self, trained, tmp_path, move):
        doc = universe_to_dict(trained.universe)
        move(doc)
        path = tmp_path / "u.json"
        path.write_text(dumps(doc))
        with pytest.raises(TypeError, match="manifest"):
            load_universe(path)

    def test_generation_seed_rejected(self, trained, tmp_path):
        doc = universe_to_dict(trained.universe)
        doc["manifest"]["config"]["seed"] = 0
        path = tmp_path / "u.json"
        path.write_text(dumps(doc))
        with pytest.raises(TypeError, match="seed"):
            load_universe(path)


class TestRulesExport:
    def test_text_layout(self):
        text = rules_text([RULE_LOW, RULE_HIGH], target_variable="y")
        assert text.startswith("RULE 1\n  IF x is Low THEN y is Small\n")
        assert "RULE 2" in text
        assert "fuzzy dominance: [0.500, 0.500]" in text
        assert "error dominance: 0.500" in text
        assert "clamp bounds: [0, 30]" in text


def nested(doc):
    """Every object and array of a model document outside its manifest."""
    found, todo = [], [doc]
    while todo:
        node = todo.pop()
        found.append(node)
        children = node.values() if isinstance(node, dict) else node
        todo.extend(
            c for c in children
            if isinstance(c, (dict, list)) and c is not doc["manifest"]
        )
    return found


def json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


# each mutation edits a parsed model document in place and says whether
# the result can no longer be a valid model
def drop_key(doc, draw):
    node = draw(st.sampled_from([n for n in nested(doc) if isinstance(n, dict) and n]))
    del node[draw(st.sampled_from(sorted(node)))]
    return True


def add_key(doc, draw):
    node = draw(st.sampled_from([n for n in nested(doc) if isinstance(n, dict)]))
    node["extra"] = draw(st.sampled_from([None, 0, "x", [], {}]))
    return True


def swap_type(doc, draw):
    node = draw(st.sampled_from([n for n in nested(doc) if n]))
    keys = sorted(node) if isinstance(node, dict) else range(len(node))
    key = draw(st.sampled_from(keys))
    old = json_type(node[key])
    others = [v for v in (None, True, 1.5, "x", [], {}) if json_type(v) != old]
    node[key] = draw(st.sampled_from(others))
    return True


def truncate_list(doc, draw):
    node = draw(st.sampled_from([n for n in nested(doc) if isinstance(n, list) and n]))
    del node[draw(st.integers(0, len(node) - 1)) :]
    return False  # e.g. one rule fewer is still a model


def exponent_row(doc, draw):
    # the golden rules' polynomials are constants, whose one row is empty
    rows = draw(st.sampled_from(doc["rules"]))["consequent_fn"]["exponents"]
    at = draw(st.integers(0, len(rows) - 1))
    bad = draw(st.sampled_from([0, 1, -1, True, 1.0, "1", None, [], {}]))
    if draw(st.booleans()):
        rows[at].append(bad)  # an item too many, or of a wrong type
    else:
        rows[at] = draw(st.sampled_from([{}, {"a": 0}, "x", "", 0, None]))
    return True


def antecedent_row(doc, draw):
    pairs = draw(st.sampled_from(doc["rules"]))["antecedent"]
    at = draw(st.integers(0, len(pairs) - 1))
    choice = draw(st.sampled_from(["item", "length", "row"]))
    if choice == "item":
        pairs[at][draw(st.integers(0, 1))] = draw(
            st.sampled_from([None, 0, 1.5, True, [], {}])
        )
    elif choice == "length":
        pairs[at] = pairs[at][:1] if draw(st.booleans()) else [*pairs[at], "Low"]
    else:
        # an object or a string of two keys or characters is not a pair
        pairs[at] = draw(st.sampled_from([dict([pairs[at]]), {"x": 1, "y": 2}, "xy"]))
    return True


def manifest_as_list(doc, draw):
    doc["manifest"] = draw(st.lists(st.integers(), max_size=3))
    return True


def non_finite_number(doc, draw):
    # json.dumps writes these as the NaN, Infinity and -Infinity tokens
    places = [
        (node, key)
        for node in nested(doc)
        for key in (sorted(node) if isinstance(node, dict) else range(len(node)))
        if type(node[key]) is float
    ]
    node, key = draw(st.sampled_from(places))
    node[key] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    return True


class TestFuzzedModelFiles:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        mutate=st.sampled_from(
            [
                drop_key,
                add_key,
                swap_type,
                truncate_list,
                exponent_row,
                antecedent_row,
                manifest_as_list,
                non_finite_number,
            ]
        ),
    )
    def test_load_fails_only_as_a_data_error(self, data, mutate):
        doc = json.loads(GOLDEN_MODEL.read_text())
        must_fail = mutate(doc, data.draw)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_text(json.dumps(doc))
            try:
                load_model(path)
            except (ValueError, TypeError, LookupError):
                with pytest.raises(CliError) as exc:
                    _load_model(SimpleNamespace(model=str(path)))
                assert exc.value.code == EXIT_DATA
            else:
                assert not must_fail, "the mutated model file loaded"


class TestNonFiniteNumbers:
    """Python's json reads NaN and Infinity tokens and overflows 1e400 to
    inf; no file the package loads may hold any of them."""

    def unbounded_rule(self, tmp_path, text=None):
        # rule 0 unclamped, its consequent 0 + 1e300 x: -inf at x = -1e10
        doc = json.loads(GOLDEN_MODEL.read_text())
        rule = doc["rules"][0]
        rule["clamp_bounds"] = [float("-inf"), float("inf")]
        rule["consequent_fn"].update(
            coefficients=[0.0, 1e300], exponents=[[0], [1]], variables=["x"]
        )
        path = tmp_path / "model.json"
        path.write_text(text or json.dumps(doc))
        return path

    def test_model_token_refused(self, tmp_path):
        path = self.unbounded_rule(tmp_path)
        assert "-Infinity" in path.read_text()
        with pytest.raises(ValueError, match="JSON number -Infinity is not finite"):
            load_model(path)
        with pytest.raises(CliError) as exc:
            _load_model(SimpleNamespace(model=str(path)))
        assert exc.value.code == EXIT_DATA

    def test_overflowing_literal_refused(self, tmp_path):
        text = self.unbounded_rule(tmp_path).read_text()
        path = self.unbounded_rule(
            tmp_path, text.replace("-Infinity", "-1e400").replace("Infinity", "1e400")
        )
        with pytest.raises(ValueError, match="JSON number -1e400 is not finite"):
            load_model(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_universe_token_refused(self, trained, tmp_path, token):
        path = tmp_path / "u.json"
        save_universe(trained.universe, path)
        doc = json.loads(path.read_text())
        doc["rules"][0]["error_dominance"] = "TOKEN"
        path.write_text(json.dumps(doc).replace('"TOKEN"', token))
        with pytest.raises(ValueError, match=f"JSON number {token} is not finite"):
            load_universe(path)

    def test_writing_a_non_finite_number_raises(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dumps({"x": float("nan")})


class TestCsvEmission:
    def test_columns_and_manifest_comment(self, tmp_path):
        path = tmp_path / "xy.csv"
        write_xy_csv(
            path,
            header=("a", "b"),
            columns=([1.0, 2.5], [0.1, -3.0]),
            manifest={"k": 1},
        )
        lines = path.read_text().splitlines()
        assert lines[0] == '# {"k": 1}'
        assert lines[1] == "a,b"
        assert lines[2] == "1.0,0.1"
        assert lines[3] == "2.5,-3.0"

    def test_manifest_optional(self, tmp_path):
        path = tmp_path / "xy.csv"
        write_xy_csv(path, header=("a",), columns=([7.0],))
        assert path.read_text() == "a\n7.0\n"

    def test_integer_columns_stay_integers(self, tmp_path):
        path = tmp_path / "xy.csv"
        write_xy_csv(
            path,
            header=("n", "x", "flag"),
            columns=(np.array([1, 2]), np.array([0.5, 2.0]), np.array([True, False])),
        )
        assert path.read_text() == "n,x,flag\n1,0.5,1\n2,2.0,0\n"


class TestDeterministicSerialization:
    def test_key_order_is_stable(self, trained):
        a = dumps(universe_to_dict(trained.universe))
        b = dumps(universe_to_dict(trained.universe))
        assert a == b

    def test_floats_survive_json_exactly(self):
        vals = [1e-300, 0.1 + 0.2, np.pi, -1.5e300]
        text = dumps(vals)
        assert json.loads(text) == vals


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"num_sets": 1}, "num_sets must be >= 2"),
            ({"fou_width": 0.5}, "fou_width must be in"),
            ({"fou_scale": 0.0}, "fou_scale must be in"),
            ({"validation_fraction": 1.0}, "validation_fraction must be in"),
            ({"firing_reduction": "mean"}, "unknown firing reduction"),
            ({"seed": -1}, "seed must be >= 0"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs)


class TestConfigDicts:
    CONFIG = TrainConfig(
        num_sets=5,
        fou_width=0.2,
        fou_scale=0.8,
        generation=GenerationConfig(
            degree=2, tnorm="product", min_rows=4, weighted_fit=True
        ),
        aco=AcoConfig(num_ants=9, subset_size_range=(3, 12)),
        validation_fraction=0.1,
        firing_reduction="upper",
        seed=42,
    )

    def test_literal_dict(self):
        assert encode(self.CONFIG) == {
            "num_sets": 5,
            "fou_width": 0.2,
            "fou_scale": 0.8,
            "generation": {
                "degree": 2,
                "max_antecedent": 3,
                "max_candidates": 2000,
                "dominance_threshold": 0.01,
                "tnorm": "product",
                "ridge": 1e-6,
                "weighted_fit": True,
                "min_rows": 4,
                "min_coverage": 0.99,
            },
            "aco": {
                "num_ants": 9,
                "num_iterations": 200,
                "alpha": 1.0,
                "beta": 2.0,
                "rho": 0.1,
                "deposit": 1.0,
                "initial_pheromone": 0.1,
                "subset_size_range": [3, 12],
                "patience": 20,
            },
            "validation_fraction": 0.1,
            "firing_reduction": "upper",
            "seed": 42,
        }

    def test_round_trip(self):
        d = encode(self.CONFIG)
        assert type(d["aco"]["subset_size_range"]) is list
        back = decode(TrainConfig, d)
        assert back == self.CONFIG
        assert type(back.aco.subset_size_range) is tuple
