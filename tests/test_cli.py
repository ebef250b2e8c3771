import json
from types import SimpleNamespace

import numpy as np
import pytest

from hit2mtsk import load_model, predict_values, write_xy_csv
from hit2mtsk.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_TRAIN,
    build_parser,
    main,
)

from test_aco import small_universe, with_cubic_rule, with_huge_row

CLI_CONFIG = {
    "generation": {"degree": 2, "max_candidates": 150},
    "aco": {
        "num_ants": 6,
        "num_iterations": 15,
        "patience": 5,
        "subset_size_range": [5, 25],
    },
}

KEEL_TEXT = """\
@relation minikeel
@attribute a real [0.0, 10.0]
@attribute b real [-5.0, 5.0]
@attribute t real [0.0, 25.0]
@inputs a, b
@outputs t
@data
"""


def write_csv(ds, path):
    write_xy_csv(path, (*ds.feature_names, ds.target_name), (*ds.X.T, ds.y))


@pytest.fixture(scope="module")
def ws(tmp_path_factory, toy_dataset):
    root = tmp_path_factory.mktemp("cli")
    csv = root / "toy.csv"
    write_csv(toy_dataset, csv)
    cfg = root / "config.json"
    cfg.write_text(json.dumps(CLI_CONFIG))
    keel = root / "mini.dat"
    rows = "\n".join(
        f"{a},{b},{2.0 + 1.5 * a - 0.8 * b}"
        for a, b in zip(
            np.linspace(0, 10, 60), np.linspace(-5, 5, 60) ** 2 % 10 - 5
        )
    )
    keel.write_text(KEEL_TEXT + rows + "\n")
    return SimpleNamespace(root=root, csv=csv, cfg=cfg, keel=keel)


def run_train(ws, out, *extra):
    return main(
        [
            "train",
            "--data",
            str(ws.csv),
            "--target",
            "y",
            "--config",
            str(ws.cfg),
            "--out",
            str(out),
            "--seed",
            "5",
            *extra,
        ]
    )


@pytest.fixture(scope="module")
def bundle(ws):
    out = ws.root / "bundle"
    assert run_train(ws, out, "--save-universe") == EXIT_OK
    return out


class TestParser:
    @pytest.mark.parametrize(
        "command", ["train", "predict", "crossval", "explain", "baseline"]
    )
    def test_common_defaults(self, command):
        model = ["--model", "m.json"] if command in ("predict", "explain") else []
        args = build_parser().parse_args([command, "--data", "rows.dat", *model])
        # the format is not inferred from the extension
        assert args.format == "csv"
        assert args.out == "out"
        assert args.target is None


class TestTrain:
    def test_bundle_contents(self, bundle):
        for name in ("model.json", "rules.txt", "rules.json", "aco_trace.csv",
                     "universe.json"):
            assert (bundle / name).exists(), name

    def test_model_manifest_records_run(self, bundle):
        model = load_model(bundle / "model.json")
        m = model.manifest
        assert m["seed"] == 5
        assert m["dataset_name"] == "toy"
        assert m["config"]["generation"]["degree"] == 2
        assert m["universe_size"] >= m["selected_rules"] >= 1
        assert len(m["dataset_fingerprint"]) == 64

    def test_trace_is_csv_with_manifest_comment(self, bundle):
        lines = (bundle / "aco_trace.csv").read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "iteration,best_rmse"
        assert lines[2].startswith("1,")

    def test_variant_and_sets_overrides(self, ws):
        out = ws.root / "override"
        assert run_train(ws, out, "--variant", "d1", "--sets", "2") == EXIT_OK
        m = load_model(out / "model.json").manifest
        assert m["config"]["generation"]["degree"] == 1
        assert m["config"]["num_sets"] == 2

    def test_retrain_is_byte_identical(self, ws, bundle):
        out = ws.root / "again"
        assert run_train(ws, out, "--save-universe") == EXIT_OK
        for name in ("model.json", "rules.json", "rules.txt", "aco_trace.csv",
                     "universe.json"):
            assert (out / name).read_bytes() == (bundle / name).read_bytes(), name

    def test_other_seed_changes_model(self, ws, bundle):
        out = ws.root / "seed9"
        assert (
            main(
                [
                    "train", "--data", str(ws.csv), "--target", "y",
                    "--config", str(ws.cfg), "--out", str(out), "--seed", "9",
                ]
            )
            == EXIT_OK
        )
        assert (out / "model.json").read_bytes() != (
            bundle / "model.json"
        ).read_bytes()

    def test_keel_format_input(self, ws):
        out = ws.root / "keelout"
        code = main(
            [
                "train", "--data", str(ws.keel), "--format", "keel",
                "--config", str(ws.cfg), "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        model = load_model(out / "model.json")
        assert model.target_partition.variable == "t"


class TestPredict:
    def test_round_trip_against_library(self, ws, bundle, toy_dataset, capsys):
        out = ws.root / "pred"
        code = main(
            [
                "predict", "--data", str(ws.csv), "--target", "y",
                "--model", str(bundle / "model.json"), "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "prediction,target,fired_rules,fallback"
        assert len(lines) == 2 + toy_dataset.n_rows
        got = np.array([float(ln.split(",")[0]) for ln in lines[2:]])
        targets = np.array([float(ln.split(",")[1]) for ln in lines[2:]])
        model = load_model(bundle / "model.json")
        want, _, _ = predict_values(model, toy_dataset)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(targets, toy_dataset.y)
        rmse = np.sqrt(np.mean((want - toy_dataset.y) ** 2))
        assert f"predicted {toy_dataset.n_rows} rows, rmse {rmse:.6g}, " in (
            capsys.readouterr().out
        )

    def test_unlabelled_rows(self, ws, bundle, toy_dataset, tmp_path, capsys):
        # without --target every csv column is a feature; no target, no rmse
        rows = tmp_path / "rows.csv"
        rows.write_text(
            "x2,x1\n"
            + "".join(f"{b!r},{a!r}\n" for a, b in toy_dataset.X.tolist())
        )
        out = tmp_path / "pred"
        code = main(
            [
                "predict", "--data", str(rows),
                "--model", str(bundle / "model.json"), "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (out / "predictions.csv").read_text().splitlines()
        manifest = json.loads(lines[0][2:])
        assert len(manifest["data_fingerprint"]) == 64
        assert lines[1] == "prediction,fired_rules,fallback"
        assert len(lines) == 2 + toy_dataset.n_rows
        model = load_model(bundle / "model.json")
        want, fired, fallback = predict_values(model, toy_dataset)
        got = [ln.split(",") for ln in lines[2:]]
        np.testing.assert_array_equal([float(v) for v, _, _ in got], want)
        assert [int(f) for _, f, _ in got] == fired.tolist()
        assert [bool(int(b)) for _, _, b in got] == fallback.tolist()
        printed = capsys.readouterr().out
        assert f"predicted {toy_dataset.n_rows} rows, fallback rate " in printed
        assert "rmse" not in printed

    @pytest.mark.parametrize(
        "text",
        [
            "x1\n1.0\n",  # lacks model feature x2
            "x1,x2,x1\n1.0,2.0,3.0\n",  # repeated column
            "x1,x2\n1.0,nan\n",
            "x1,x2\n1e300,1e300\n",  # polynomials overflow
        ],
        ids=["narrow", "repeated", "missing-value", "huge"],
    )
    def test_bad_unlabelled_rows_are_a_data_error(self, bundle, tmp_path, capsys, text):
        (tmp_path / "rows.csv").write_text(text)
        code = main(
            [
                "predict", "--data", str(tmp_path / "rows.csv"),
                "--model", str(bundle / "model.json"), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "explain", "crossval", "baseline"])
    def test_other_commands_still_need_a_target(self, ws, bundle, tmp_path, command):
        extra = ["--model", str(bundle / "model.json")] if command == "explain" else []
        code = main(
            [command, "--data", str(ws.csv), "--out", str(tmp_path / "o"), *extra]
        )
        assert code == EXIT_CONFIG

    def test_missing_model_file(self, ws):
        code = main(
            [
                "predict", "--data", str(ws.csv), "--target", "y",
                "--model", str(ws.root / "nope.json"),
                "--out", str(ws.root / "x"),
            ]
        )
        assert code == EXIT_DATA

    def test_data_missing_model_feature(self, ws, bundle, tmp_path):
        (tmp_path / "narrow.csv").write_text("x1,y\n1.0,2.0\n3.0,4.0\n")
        code = main(
            [
                "predict", "--data", str(tmp_path / "narrow.csv"),
                "--target", "y", "--model", str(bundle / "model.json"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_DATA


NARROW_CSV = "x1,y\n1.0,2.0\n3.0,4.0\n"  # lacks model feature x2
HUGE_CSV = "x1,x2,y\n1.0,1.0,2.0\n1e300,1e300,4.0\n"  # polynomials overflow


class TestBadRows:
    # predict on NARROW_CSV is TestPredict.test_data_missing_model_feature
    @pytest.mark.parametrize(
        "command,text",
        [("predict", HUGE_CSV), ("explain", NARROW_CSV), ("explain", HUGE_CSV)],
        ids=["predict-huge", "explain-narrow", "explain-huge"],
    )
    def test_is_a_data_error(self, bundle, tmp_path, capsys, command, text):
        (tmp_path / "rows.csv").write_text(text)
        code = main(
            [
                command, "--data", str(tmp_path / "rows.csv"), "--target", "y",
                "--model", str(bundle / "model.json"), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # no partial artifact set


class TestCrossval:
    def test_report_written(self, ws):
        out = ws.root / "cv"
        code = main(
            [
                "crossval", "--data", str(ws.csv), "--target", "y",
                "--config", str(ws.cfg), "--out", str(out),
                "--explain",
            ]
        )
        assert code == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["fold_rmse"]) == 5
        assert doc["mean_rmse"] == pytest.approx(
            float(np.mean(doc["fold_rmse"]))
        )
        assert len(doc["manifest"]["fold_fingerprints"]) == 5
        assert doc["explainability"]["rule_count"] >= 1
        assert doc["failed_folds"] == []

    def test_known_reference_table_printed(self, ws, capsys):
        out = ws.root / "cvref"
        code = main(
            [
                "crossval", "--data", str(ws.csv), "--target", "y",
                "--config", str(ws.cfg), "--out", str(out),
                "--name", "concrete",
            ]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "reference scores:" in printed
        assert "hybrid_d3" in printed

    def test_unknown_name_lists_known_ones(self, ws, capsys):
        out = ws.root / "cvunknown"
        code = main(
            [
                "crossval", "--data", str(ws.csv), "--target", "y",
                "--config", str(ws.cfg), "--out", str(out),
                "--name", "mystery",
            ]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "no stored reference for 'mystery'" in printed
        assert "concrete" in printed


class TestExplain:
    def test_artifacts(self, ws, bundle):
        out = ws.root / "exp"
        code = main(
            [
                "explain", "--data", str(ws.csv), "--target", "y",
                "--model", str(bundle / "model.json"), "--out", str(out),
                "--max-rows", "4",
            ]
        )
        assert code == EXIT_OK
        for name in ("rules.txt", "rules.json", "explain.json",
                     "row_explanations.txt"):
            assert (out / name).exists(), name
        doc = json.loads((out / "explain.json").read_text())
        assert set(doc["active_rules"]) == {"0.15", "0.25", "0.5"}
        assert doc["noise_deltas"]["0.0"] == 0.0
        rows = [
            ln
            for ln in (out / "row_explanations.txt").read_text().splitlines()
            if ln.startswith("row ")
        ]
        assert len(rows) == 4

    def test_negative_max_rows_is_a_usage_error(self, ws, bundle, tmp_path, capsys):
        out = tmp_path / "exp"
        code = main(
            [
                "explain", "--data", str(ws.csv), "--target", "y",
                "--model", str(bundle / "model.json"), "--out", str(out),
                "--max-rows", "-3",
            ]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--max-rows" in err
        assert not (out / "row_explanations.txt").exists()


class TestBaseline:
    def test_report_and_plot_data(self, ws):
        out = ws.root / "base"
        code = main(
            [
                "baseline", "--data", str(ws.csv), "--target", "y",
                "--config", str(ws.cfg), "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["hybrid"]["variant"] == "d2"
        assert doc["baseline"]["variant"] == "mamdani"
        assert doc["banding"]["num_output_sets"] == 3
        assert doc["hybrid"]["mean_rmse"] < doc["baseline"]["mean_rmse"]
        for name in (
            "hybrid_scatter.csv",
            "baseline_scatter.csv",
            "hybrid_residuals.csv",
            "baseline_residuals.csv",
        ):
            lines = (out / name).read_text().splitlines()
            assert lines[0].startswith("# {")
            assert len(lines) == 2 + 60  # manifest + header + test rows


class TestExitCodes:
    def test_missing_data_file(self, ws):
        code = main(
            [
                "train", "--data", str(ws.root / "ghost.csv"), "--target", "y",
                "--out", str(ws.root / "x"),
            ]
        )
        assert code == EXIT_DATA

    def test_malformed_keel(self, ws, tmp_path):
        bad = tmp_path / "bad.dat"
        bad.write_text("@attribute a real\n@data\n1,2\n")
        code = main(
            [
                "train", "--data", str(bad), "--format", "keel",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize("header,line", [("@inputs a, b", 5), ("@outputs t", 6)])
    def test_keel_header_naming_no_attribute(self, tmp_path, capsys, header, line):
        bad = tmp_path / "bad.dat"
        bad.write_text(KEEL_TEXT.replace(header, header.split()[0]) + "1,2,3\n")
        code = main(
            [
                "train", "--data", str(bad), "--format", "keel",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_DATA
        assert f"bad.dat:{line}: " in capsys.readouterr().err

    def test_non_finite_csv_value(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,y\n1,2\n3,1e400\n")
        code = main(
            [
                "train", "--data", str(bad), "--target", "y",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_DATA
        assert "bad.csv:3: non-finite value '1e400' in column 'y'" in (
            capsys.readouterr().err
        )

    def test_csv_without_target_flag(self, ws):
        code = main(
            [
                "train", "--data", str(ws.csv),
                "--out", str(ws.root / "x"),
            ]
        )
        assert code == EXIT_CONFIG

    def test_config_file_missing(self, ws):
        code = main(
            [
                "train", "--data", str(ws.csv), "--target", "y",
                "--config", str(ws.root / "ghost.json"),
                "--out", str(ws.root / "x"),
            ]
        )
        assert code == EXIT_CONFIG

    def test_config_invalid_json(self, ws, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(
            [
                "train", "--data", str(ws.csv), "--target", "y",
                "--config", str(bad), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_CONFIG

    def test_config_bad_values(self, ws, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"num_sets": 1}))
        code = main(
            [
                "train", "--data", str(ws.csv), "--target", "y",
                "--config", str(bad), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_CONFIG

    def test_generation_seed_rejected(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generation": {"seed": 3}}))
        code = main(
            [
                "train", "--data", str(ws.csv), "--target", "y",
                "--config", str(cfg), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_CONFIG

    def test_aco_seed_rejected(self, ws, tmp_path):
        # select_rules takes its seed from TrainConfig.seed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"aco": {"seed": 3}}))
        code = main(
            [
                "train", "--data", str(ws.csv), "--target", "y",
                "--config", str(cfg), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "config",
        [
            {"aco": {"num_ants": 2.5}},
            {"fou_width": "0.2"},
            {"generation": {"weighted_fit": "yes"}},
            {"generation": None},
        ],
    )
    def test_config_of_wrong_json_type(self, ws, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(
            [
                "train", "--data", str(ws.csv), "--target", "y",
                "--config", str(cfg), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad configuration" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("config", [[], "x", None, 1.5])
    def test_config_not_an_object(self, ws, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(
            [
                "train", "--data", str(ws.csv), "--target", "y",
                "--config", str(cfg), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config must be a JSON object" in err
        assert "Traceback" not in err

    def test_untrainable_data_is_a_training_error(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"generation": {"dominance_threshold": 1.5}})
        )
        code = main(
            [
                "train", "--data", str(ws.csv), "--target", "y",
                "--config", str(cfg), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_TRAIN

    def test_rule_overflowing_where_it_fires_is_a_training_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # rule 4 (x1 is High) fires at x1 = 1e300, where it is NaN
        ds, uni = small_universe(cap=6)
        uni = with_cubic_rule(uni, 4)
        monkeypatch.setattr(
            "hit2mtsk.pipeline.generate_candidates", lambda *args: uni
        )
        csv = tmp_path / "big.csv"
        write_csv(with_huge_row(ds), csv)
        code = main(
            ["train", "--data", str(csv), "--target", "y", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_TRAIN
        err = capsys.readouterr().err
        assert err.startswith("training error: rule 4 (IF x1 is High) outputs NaN on ")
        assert err.count("\n") == 1

    def test_keel_inputs_repeating_an_attribute(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_text(KEEL_TEXT.replace("@inputs a, b", "@inputs a, a") + "1,2,3\n")
        code = main(
            [
                "train", "--data", str(bad), "--format", "keel",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"data error: {bad}:5: @inputs ['a', 'a'] repeats an attribute"
        )

    @pytest.mark.parametrize("command", ["train", "baseline"])
    @pytest.mark.parametrize(
        "row,message",
        [
            ("{i},{j},5", "variable 'y' is constant at 5.0"),
            ("1,2,{i}", "no partitioned feature available for antecedents"),
        ],
        ids=["constant-target", "constant-features"],
    )
    def test_constant_columns_are_a_data_error(
        self, tmp_path, capsys, command, row, message
    ):
        csv = tmp_path / "flat.csv"
        rows = (row.format(i=i, j=(7 * i) % 11) for i in range(40))
        csv.write_text("a,b,y\n" + "\n".join(rows) + "\n")
        code = main(
            [command, "--data", str(csv), "--target", "y", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {message}\n"

    def test_crossval_without_fold_files_is_a_data_error(self, tmp_path, capsys):
        code = main(
            [
                "crossval", "--data", str(tmp_path), "--format", "keel",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: no *-5-1tra.dat under ")

    @pytest.mark.parametrize("command", ["crossval", "baseline"])
    def test_untrainable_data_prefix(self, ws, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generation": {"dominance_threshold": 1.5}}))
        code = main(
            [
                command, "--data", str(ws.csv), "--target", "y",
                "--config", str(cfg), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_TRAIN
        assert capsys.readouterr().err.startswith("training error: ")

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def rename_rule_set(doc):
    doc["rules"][0]["antecedent"][0][1] = "Nowhere"
    return doc


def drop_tnorm(doc):
    del doc["tnorm"]
    return doc


def bump_version(doc):
    doc["version"] = 2
    return doc


def add_rule_key(doc):
    doc["rules"][0]["weight"] = 1.0
    return doc


def manifest_as_list(doc):
    doc["manifest"] = list(doc["manifest"])
    return doc


def as_array(doc):
    return []


def as_string(doc):
    return "x"


def as_null(doc):
    return None


def big_whole_fallback(doc):
    doc["fallback_value"] = 10**23
    return doc


def cut_feature_stats(doc):
    doc["feature_stats"] = doc["feature_stats"][:1]
    return doc


class TestCorruptModel:
    @pytest.mark.parametrize(
        "corrupt",
        [
            rename_rule_set,
            drop_tnorm,
            bump_version,
            add_rule_key,
            manifest_as_list,
            as_array,
            as_string,
            as_null,
            big_whole_fallback,
            cut_feature_stats,
        ],
    )
    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_is_a_data_error(self, ws, bundle, tmp_path, capsys, command, corrupt):
        doc = corrupt(json.loads((bundle / "model.json").read_text()))
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        code = main(
            [
                command, "--data", str(ws.csv), "--target", "y",
                "--model", str(bad), "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "cannot load model" in err
        assert "Traceback" not in err

    def explain(self, ws, bundle, tmp_path, edit):
        doc = json.loads((bundle / "model.json").read_text())
        edit(doc)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        return main(
            [
                "explain", "--data", str(ws.csv), "--target", "y",
                "--model", str(bad), "--out", str(tmp_path / "o"),
            ]
        )

    @pytest.mark.parametrize("seed", [None, [1, 2], "7", 2.5, True])
    def test_explain_rejects_a_seed_that_is_not_an_integer(
        self, ws, bundle, tmp_path, capsys, seed
    ):
        code = self.explain(
            ws, bundle, tmp_path, lambda doc: doc["manifest"].update(seed=seed)
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"manifest seed {json.dumps(seed)} is not an integer" in err

    def test_explain_needs_feature_stats(self, ws, bundle, tmp_path, capsys):
        # an empty list is a valid model file, but noise robustness needs stats
        code = self.explain(
            ws, bundle, tmp_path, lambda doc: doc.update(feature_stats=[])
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "no feature statistics for x1, x2" in err
        assert "Traceback" not in err
