import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

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
    dumps,
    load_rules,
    model_to_dict,
    partition_from_dict,
    polynomial_from_dict,
    rule_from_dict,
    rules_text,
    save_rules,
    universe_to_dict,
    write_xy_csv,
)
from hit2mtsk.inference import predict_values
from hit2mtsk.it2 import build_partition
from hit2mtsk.rules import Polynomial

from test_inference import RULE_HIGH, RULE_LOW, X_PART, two_rule_model

GOLDEN_MODEL = Path(__file__).with_name("golden") / "two_rule_model.json"


def encode(record) -> dict:
    """A record's fields as a saved file holds them."""
    return json.loads(dumps(asdict(record)))


class TestComponentRoundTrips:
    def test_partition(self):
        back = partition_from_dict(encode(X_PART))
        assert back == X_PART

    def test_built_partition_with_awkward_floats(self):
        rng = np.random.default_rng(3)
        p = build_partition(rng.normal(0.0, 1e-7, 200), 5, variable="tiny")
        assert partition_from_dict(encode(p)) == p

    def test_polynomial(self):
        fn = Polynomial(
            degree=2,
            variables=("a", "b"),
            exponents=((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)),
            coefficients=(0.1, -2.5e-7, 3.0, 1e300, -0.0, 7.25),
        )
        assert polynomial_from_dict(encode(fn)) == fn

    def test_rule(self):
        assert rule_from_dict(encode(RULE_HIGH)) == RULE_HIGH


class TestFileLayout:
    def test_model_document_is_pinned(self):
        # the layout follows the dataclass fields, so renaming a field
        # would change every file; this literal document catches that
        assert dumps(model_to_dict(two_rule_model())) == GOLDEN_MODEL.read_text()

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
        assert back.rules == trained.universe.rules
        assert back.config == trained.universe.config
        assert back.coverage == trained.universe.coverage
        assert back.dataset_fingerprint == trained.universe.dataset_fingerprint

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

    def test_json_mirror_round_trips(self, tmp_path):
        txt = tmp_path / "rules.txt"
        js = tmp_path / "rules.json"
        save_rules(
            [RULE_LOW, RULE_HIGH], "y", txt, js, manifest={"note": "x"}
        )
        assert load_rules(js) == [RULE_LOW, RULE_HIGH]
        doc = json.loads(js.read_text())
        assert doc["target_variable"] == "y"
        assert doc["manifest"] == {"note": "x"}

    def test_text_only_export(self, tmp_path):
        txt = tmp_path / "rules.txt"
        save_rules([RULE_LOW], "y", txt)
        assert txt.exists()

    def test_wrong_format_rejected(self, trained, tmp_path):
        path = tmp_path / "r.json"
        save_model(trained.model, path)
        with pytest.raises(ValueError, match="not a rules file"):
            load_rules(path)

    def test_unknown_version_rejected(self, tmp_path):
        js = tmp_path / "rules.json"
        save_rules([RULE_LOW], "y", tmp_path / "rules.txt", js)
        doc = json.loads(js.read_text())
        doc["version"] = 2
        js.write_text(dumps(doc))
        with pytest.raises(ValueError, match="unsupported rules file version 2"):
            load_rules(js)


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


class TestDeterministicSerialization:
    def test_key_order_is_stable(self, trained):
        a = dumps(universe_to_dict(trained.universe))
        b = dumps(universe_to_dict(trained.universe))
        assert a == b

    def test_floats_survive_json_exactly(self):
        vals = [1e-300, 0.1 + 0.2, np.pi, -1.5e300]
        text = dumps(vals)
        assert json.loads(text) == vals


class TestConfigDicts:
    CONFIG = TrainConfig(
        num_sets=5,
        fou_width=0.2,
        fou_scale=0.8,
        generation=GenerationConfig(
            degree=2, tnorm="product", min_rows=4, weighted_fit=True
        ),
        aco=AcoConfig(num_ants=9, subset_size_range=(3, 12), seed=8),
        validation_fraction=0.1,
        firing_reduction="upper",
        seed=42,
    )

    def test_literal_dict(self):
        assert self.CONFIG.to_dict() == {
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
                "seed": 8,
            },
            "validation_fraction": 0.1,
            "firing_reduction": "upper",
            "seed": 42,
        }

    def test_round_trip(self):
        d = self.CONFIG.to_dict()
        assert type(d["aco"]["subset_size_range"]) is list
        assert TrainConfig.from_dict(json.loads(dumps(d))) == self.CONFIG
