import argparse
import dataclasses
import json
import logging
import re
import struct
import warnings

import numpy as np
import pytest

from rfsentry import __version__, cli, evaluation, gbdt
from rfsentry.cli import main
from rfsentry.dataset import Case, load_features, load_manifest
from rfsentry.spectrum import Extraction


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "corpus"
    code = main(
        ["synth", "--out-dir", str(out), "--n-per-class", "4", "--seed-data", "6", "--length", "2048"]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def lower_cache(corpus_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "lower3.rfds"
    code = main(
        [
            "features",
            "--manifest",
            str(corpus_dir / "manifest.json"),
            "--band",
            "lower",
            "--case",
            "3",
            "--frame-size",
            "1024",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


FAST_TRAIN = ["--rounds", "3", "--max-depth", "3", "--min-child-weight", "0.5"]


@pytest.fixture(scope="module")
def lower_model(lower_cache, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "lower3.rfgb"
    assert main(["train", "--features", str(lower_cache), *FAST_TRAIN, "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def band_models(corpus_dir, lower_model, tmp_path_factory):
    """A case-3 model per band layout at frame size 1024, by layout name."""
    models, root = {"lower": lower_model}, tmp_path_factory.mktemp("band-models")
    for band in ("upper", "both"):
        cache, models[band] = root / f"{band}.rfds", root / f"{band}.rfgb"
        argv = ["features", "--manifest", str(corpus_dir / "manifest.json"), "--band", band, "--case", "3"]
        assert main([*argv, "--frame-size", "1024", "--out", str(cache)]) == 0
        assert main(["train", "--features", str(cache), *FAST_TRAIN, "--out", str(models[band])]) == 0
    return models


class TestSynth:
    def test_counts(self, corpus_dir):
        files = list(corpus_dir.glob("*.csv"))
        assert len(files) == 80
        manifest = load_manifest(corpus_dir / "manifest.json")
        assert len(manifest.entries) == 40

    def test_rerun_is_byte_identical(self, corpus_dir, tmp_path):
        twin = tmp_path / "twin"
        assert (
            main(
                [
                    "synth",
                    "--out-dir",
                    str(twin),
                    "--n-per-class",
                    "4",
                    "--seed-data",
                    "6",
                    "--length",
                    "2048",
                ]
            )
            == 0
        )
        for path in sorted(corpus_dir.iterdir()):
            assert (twin / path.name).read_bytes() == path.read_bytes()

    def test_short_length_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["synth", "--out-dir", str(out), "--n-per-class", "1", "--length", "100"]) == 2
        assert "below the frame size" in assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()

    def test_unwritable_out_dir(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(["synth", "--out-dir", str(blocker / "sub"), "--n-per-class", "1"])
        assert code == 4


class TestFeatures:
    def test_reports_dimensions(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "both.rfds"
        code = main(
            [
                "features",
                "--manifest",
                str(corpus_dir / "manifest.json"),
                "--band",
                "both",
                "--case",
                "2",
                "--frame-size",
                "1024",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "x 1024 dims" in printed
        ds = load_features(out)
        assert ds.n_features == 1024
        assert ds.case.n_classes == 4

    def test_lower_band_dimension(self, lower_cache, capsys):
        ds = load_features(lower_cache)
        assert ds.n_features == 512
        assert ds.band_mode.value == "lower"

    def test_missing_segment_file_fails_without_cache(self, corpus_dir, tmp_path):
        manifest_path = tmp_path / "broken.json"
        payload = json.loads((corpus_dir / "manifest.json").read_text())
        payload["entries"][2]["lb_path"] = "gone.csv"
        manifest_path.write_text(json.dumps(payload))
        out = tmp_path / "broken.rfds"
        code = main(
            ["features", "--manifest", str(manifest_path), "--band", "lower", "--case", "1", "--out", str(out)]
        )
        assert code == 3
        assert not out.exists()


class TestCv:
    def test_report_written(self, lower_cache, tmp_path, capsys):
        out = tmp_path / "cv.json"
        code = main(
            ["cv", "--features", str(lower_cache), *FAST_TRAIN, "--k-folds", "4", "--seed-data", "2", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["case"] == 3
        assert payload["k_folds"] == 4
        assert len(payload["per_fold"]) == 4
        assert set(payload["mean"]) == {"accuracy", "macro_precision", "macro_recall", "macro_f1"}
        assert payload["config"]["train"]["n_rounds"] == 3
        assert out.with_suffix(".csv").exists()

    def test_identical_bytes_across_runs(self, lower_cache, tmp_path):
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "cv",
                        "--features",
                        str(lower_cache),
                        *FAST_TRAIN,
                        "--k-folds",
                        "4",
                        "--seed-data",
                        "2",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_info_log_leaves_the_report_unchanged(self, lower_cache, tmp_path, monkeypatch, caplog):
        argv = ["cv", "--features", str(lower_cache), *FAST_TRAIN, "--k-folds", "4", "--seed-data", "2"]
        assert main([*argv, "--out", str(tmp_path / "default.json")]) == 0
        assert not caplog.records
        monkeypatch.setenv("RF_SENTRY_LOG", "INFO")
        caplog.set_level(logging.INFO, logger="rfsentry.gbdt")
        assert main([*argv, "--out", str(tmp_path / "info.json")]) == 0
        messages = [record.getMessage() for record in caplog.records]
        assert sum(m.startswith("round ") for m in messages) == 4 * 3
        fits = [m for m in messages if m.endswith("pruned by the gain bound")]
        assert len(fits) == 4
        assert sum(int(m.split()[-6]) for m in fits) > 0
        for m in fits:
            assert re.match(r"fit on \d+ x \d+: \d+ minor page faults, \d+ trees, ", m), m
        assert (tmp_path / "info.json").read_bytes() == (tmp_path / "default.json").read_bytes()

    def test_lambda_zero_runs_all_default_rounds(self, lower_cache, tmp_path):
        # At lambda 0 the softmax saturates within the default 100 rounds and
        # leaves with no hessian mass appear; they get the value 0.
        out = tmp_path / "x.json"
        argv = ["cv", "--features", str(lower_cache), "--lambda", "0", "--min-child-weight", "0"]
        assert main([*argv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["train"]["n_rounds"] == 100

    def test_k1_is_config_error(self, lower_cache, tmp_path):
        code = main(
            ["cv", "--features", str(lower_cache), "--k-folds", "1", "--out", str(tmp_path / "x.json")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--lambda", "nan"), ("--gamma", "inf"), ("--min-child-weight", "nan")]
    )
    def test_non_finite_penalty_is_config_error(self, lower_cache, tmp_path, capsys, flag, value):
        out = tmp_path / "x.json"
        code = main(["cv", "--features", str(lower_cache), flag, value, "--out", str(out)])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_case_mismatch_is_config_error(self, lower_cache, tmp_path):
        code = main(
            ["cv", "--features", str(lower_cache), "--case", "1", "--out", str(tmp_path / "x.json")]
        )
        assert code == 2

    def test_corrupt_cache_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.rfds"
        bad.write_bytes(b"garbage")
        code = main(["cv", "--features", str(bad), "--out", str(tmp_path / "x.json")])
        assert code == 3

    def test_missing_cache_is_io_error(self, tmp_path):
        code = main(["cv", "--features", str(tmp_path / "none.rfds"), "--out", str(tmp_path / "x.json")])
        assert code == 4


class TestWindowProvenance:
    def test_hann_cache_and_cv_report_name_the_window(self, corpus_dir, tmp_path):
        cache = tmp_path / "hann.rfds"
        code = main(
            [
                "features",
                "--manifest",
                str(corpus_dir / "manifest.json"),
                "--case",
                "1",
                "--frame-size",
                "1024",
                "--window",
                "hann",
                "--out",
                str(cache),
            ]
        )
        assert code == 0
        assert load_features(cache).extraction.window == "hann"
        report = tmp_path / "cv.json"
        code = main(
            ["cv", "--features", str(cache), *FAST_TRAIN, "--k-folds", "4", "--out", str(report)]
        )
        assert code == 0
        extraction = json.loads(report.read_text())["extraction"]
        assert extraction == {"frame_size": 1024, "hop": 1024, "q": 8, "window": "hann"}


class TestExtractionSettings:
    """Bad extraction settings are a configuration error (exit 2), caught
    before any band file is read. predict takes its settings from the model."""

    BAD_SETTINGS = [["--q", "0"], ["--hop=0"], ["--frame-size", "2097152"]]

    def argv(self, command, corpus_dir, out):
        manifest = str(corpus_dir / "manifest.json")
        return {
            "features": ["features", "--manifest", manifest, "--band", "both", "--case", "3"],
            "compare": ["compare", "--manifest", manifest, "--case", "1", *FAST_TRAIN],
        }[command] + ["--frame-size", "1024", "--out", str(out)]

    @pytest.mark.parametrize("bad", BAD_SETTINGS, ids=["q-0", "hop-0", "frame-size-2^21"])
    @pytest.mark.parametrize("command", ["features", "compare"])
    def test_bad_setting_is_config_error(self, command, bad, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*self.argv(command, corpus_dir, out), *bad]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_q_checked_for_a_single_band(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "lower.rfds"
        argv = ["features", "--manifest", str(corpus_dir / "manifest.json"), "--case", "1"]
        assert main([*argv, "--band", "lower", "--q", "0", "--out", str(out)]) == 2
        assert "q must be in [1, 1024], got 0" in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_structure(self, corpus_dir, tmp_path):
        out = tmp_path / "compare.json"
        code = main(
            [
                "compare",
                "--manifest",
                str(corpus_dir / "manifest.json"),
                "--case",
                "3",
                "--frame-size",
                "1024",
                *FAST_TRAIN,
                "--k-folds",
                "10",
                "--seed-data",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["bands"]) == {"lower", "upper", "both"}
        assert payload["ttests"]["lb_vs_ub"]["dof"] == 9
        assert payload["ttests"]["lb_vs_both"]["dof"] == 9
        fingerprints = {payload["bands"][band]["fold_fingerprint"] for band in payload["bands"]}
        assert fingerprints == {payload["fold_fingerprint"]}
        assert payload["config_fingerprint"] == payload["bands"]["lower"]["config_fingerprint"]
        assert payload["extraction"]["frame_size"] == 1024
        csv_text = out.with_suffix(".csv").read_text().splitlines()
        assert csv_text[0] == "case,band_mode,fold,metric,value"
        assert len(csv_text) == 1 + 3 * 10 * 4

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--alpha", "0"], "got 0.0 and 10"),
            (["--alpha", "1"], "got 1.0 and 10"),
            (["--k-folds", "1"], "got 0.05 and 1"),
            (["--k-folds", "11"], "got 0.05 and 11"),
        ],
        ids=["alpha-0", "alpha-1", "k-1", "k-above-entries"],
    )
    def test_bad_alpha_or_k_rejected_before_band_files_are_read(
        self, flags, message, tmp_path, capsys
    ):
        # Ten entries whose band files do not exist: only the settings can fail first.
        entries = [
            {"lb_path": f"{i:02d}_lb.csv", "ub_path": f"{i:02d}_ub.csv", "label": i}
            for i in range(10)
        ]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"source": "Synthetic", "entries": entries}))
        argv = ["compare", "--manifest", str(manifest), "--case", "1", "--out", str(tmp_path / "c.json")]
        assert main([*argv, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "need alpha in (0, 1) and k in [2, 10]" in err
        assert message in err
        assert main(argv) == 3  # valid settings: the missing band files fail the run

    @pytest.mark.parametrize(
        "command, seed, message",
        [
            ("synth", str(1 << 64), "seed must be in [0, 2^64)"),
            ("synth", "-1", "seed must be in [0, 2^64)"),
            ("cv", "-1", "seed must be >= 0, got -1"),
            ("compare", "-1", "seed must be >= 0, got -1"),
        ],
        ids=["synth-2^64", "synth-negative", "cv-negative", "compare-negative"],
    )
    def test_seed_out_of_range_is_config_error(self, command, seed, message, lower_cache, tmp_path, capsys):
        # compare's band files do not exist: the seed must fail the run first.
        manifest = tmp_path / "manifest.json"
        entries = [{"lb_path": f"{i}_lb.csv", "ub_path": f"{i}_ub.csv", "label": i} for i in range(10)]
        manifest.write_text(json.dumps({"source": "Synthetic", "entries": entries}))
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", "--out-dir", str(out), "--n-per-class", "1"],
            "cv": ["cv", "--features", str(lower_cache), "--k-folds", "2", "--out", str(out)],
            "compare": ["compare", "--manifest", str(manifest), "--case", "1", "--out", str(out)],
        }[command]
        assert main([*argv, "--seed-data", seed]) == 2
        assert message in assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()

    def test_folds_missing_classes_are_reported_not_logged(self, corpus_dir, lower_cache, tmp_path, caplog):
        caplog.set_level(logging.WARNING)
        cv_out, compare_out = tmp_path / "cv.json", tmp_path / "compare.json"
        argv = ["cv", "--features", str(lower_cache), *FAST_TRAIN, "--k-folds", "10"]
        assert main([*argv, "--out", str(cv_out)]) == 0
        argv = ["compare", "--manifest", str(corpus_dir / "manifest.json"), "--case", "3"]
        argv += ["--frame-size", "1024", *FAST_TRAIN, "--k-folds", "10"]
        assert main([*argv, "--out", str(compare_out)]) == 0
        reports = [json.loads(cv_out.read_text())]
        reports += json.loads(compare_out.read_text())["bands"].values()
        # 40 rows over 10 folds: each fold tests 4 rows, so at least 6 classes are absent.
        for report in reports:
            assert all(fold["undefined_recall"] >= 6 for fold in report["per_fold"])
        assert not [record for record in caplog.records if record.levelno >= logging.WARNING]


class TestReportsAreLibraryResults:
    def test_cv_and_compare_write_what_the_library_returns(self, corpus_dir, lower_cache, tmp_path):
        # The same settings through the library: the CLI adds only its own keys.
        config = gbdt.TrainConfig(n_rounds=3, max_depth=3, min_child_weight=0.5, n_classes=10)
        settings = [*FAST_TRAIN, "--k-folds", "5", "--seed-data", "2"]
        cv_out, compare_out = tmp_path / "cv.json", tmp_path / "compare.json"
        assert main(["cv", "--features", str(lower_cache), *settings, "--out", str(cv_out)]) == 0
        written = json.loads(cv_out.read_text())
        for key in ("case", "band_mode", "extraction"):
            del written[key]
        assert evaluation.cross_validate(load_features(lower_cache), config, k=5, seed=2) == written

        manifest = corpus_dir / "manifest.json"
        argv = ["compare", "--manifest", str(manifest), "--case", "3", "--frame-size", "1024"]
        assert main([*argv, *settings, "--out", str(compare_out)]) == 0
        written = json.loads(compare_out.read_text())
        del written["extraction"]
        returned = evaluation.compare_bands(
            load_manifest(manifest), Case.III, config, k=5, seed=2, extraction=Extraction(frame_size=1024)
        )
        assert returned == written

    @pytest.mark.parametrize("command", ["cv", "compare"])
    def test_csv_rows_are_the_json_per_fold_metrics(self, command, corpus_dir, lower_cache, tmp_path):
        out = tmp_path / f"{command}.json"
        manifest = str(corpus_dir / "manifest.json")
        argv = {
            "cv": ["cv", "--features", str(lower_cache)],
            "compare": ["compare", "--manifest", manifest, "--case", "3", "--frame-size", "1024"],
        }[command]
        assert main([*argv, *FAST_TRAIN, "--k-folds", "5", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        layouts = {report["band_mode"]: report} if command == "cv" else report["bands"]
        rows = out.with_suffix(".csv").read_text().splitlines()
        assert rows[0] == "case,band_mode,fold,metric,value"
        assert len(rows) == 1 + len(layouts) * 5 * 4
        for row in rows[1:]:
            case, band_mode, fold, metric, value = row.split(",")
            assert int(case) == report["case"]
            assert float(value) == layouts[band_mode]["per_fold"][int(fold)][metric]
        keys = {tuple(row.split(",")[1:4]) for row in rows[1:]}
        assert keys == {
            (band_mode, str(fold), metric)
            for band_mode in layouts
            for fold in range(5)
            for metric in evaluation.METRIC_NAMES
        }


class TestTrainPredict:
    def test_train_then_predict_matches_in_process(self, lower_cache, tmp_path, capsys):
        model_path = tmp_path / "model.rfgb"
        code = main(["train", "--features", str(lower_cache), *FAST_TRAIN, "--out", str(model_path)])
        assert code == 0
        out_json = tmp_path / "pred.json"
        code = main(
            ["predict", "--model", str(model_path), "--features", str(lower_cache), "--out", str(out_json)]
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        ds = load_features(lower_cache)
        model = gbdt.load_model(model_path)
        expected = gbdt.predict(model, ds.features)
        np.testing.assert_array_equal(np.array(payload["labels"]), expected)
        assert payload["class_names"][0] == "No Drone"
        printed = capsys.readouterr().out
        assert "row 0:" in printed

    def test_predict_wrong_dimension_names_expected(self, lower_cache, corpus_dir, tmp_path, capsys):
        model_path = tmp_path / "model.rfgb"
        assert main(["train", "--features", str(lower_cache), *FAST_TRAIN, "--out", str(model_path)]) == 0
        both_cache = tmp_path / "both.rfds"
        assert (
            main(
                [
                    "features",
                    "--manifest",
                    str(corpus_dir / "manifest.json"),
                    "--band",
                    "both",
                    "--case",
                    "3",
                    "--frame-size",
                    "1024",
                    "--out",
                    str(both_cache),
                ]
            )
            == 0
        )
        code = main(["predict", "--model", str(model_path), "--features", str(both_cache)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{both_cache} holds both-band rows at frame size 1024" in err
        assert "but the model takes lower-band rows at frame size 1024" in err

    def test_predict_raw_segment_pair(self, lower_cache, corpus_dir, tmp_path, capsys):
        model_path = tmp_path / "model.rfgb"
        assert main(["train", "--features", str(lower_cache), *FAST_TRAIN, "--out", str(model_path)]) == 0
        manifest = load_manifest(corpus_dir / "manifest.json")
        lb_path, ub_path = manifest.resolve(manifest.entries[0])
        code = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--lb",
                str(lb_path),
                "--ub",
                str(ub_path),
                "--band",
                "lower",
            ]
        )
        assert code == 0
        assert "row 0:" in capsys.readouterr().out

    def test_pair_requests_match_the_batch_rows(self, corpus_dir, tmp_path):
        # Each raw pair through parse, spectra and seam must give the
        # probabilities the batch predict gives its cached row, bit for bit.
        # The request names no extraction setting: all four come from the
        # model, and every other request names no band either.
        manifest_path = corpus_dir / "manifest.json"
        cache, model = tmp_path / "both3.rfds", tmp_path / "both3.rfgb"
        extraction = ["--frame-size", "1024", "--hop", "512", "--q", "4", "--window", "hann"]
        argv = ["features", "--manifest", str(manifest_path), "--band", "both", "--case", "3"]
        assert main([*argv, *extraction, "--out", str(cache)]) == 0
        assert main(["train", "--features", str(cache), *FAST_TRAIN, "--out", str(model)]) == 0
        batch_out = tmp_path / "batch.json"
        batch_argv = ["predict", "--model", str(model), "--features", str(cache)]
        assert main([*batch_argv, "--out", str(batch_out)]) == 0
        batch = json.loads(batch_out.read_text())["probabilities"]
        manifest = load_manifest(manifest_path)
        assert len(batch) == len(manifest.entries) == 40
        request_out = tmp_path / "request.json"
        for i, (entry, row) in enumerate(zip(manifest.entries, batch)):
            lb_path, ub_path = manifest.resolve(entry)
            pair = ["--lb", str(lb_path), "--ub", str(ub_path), *(["--band", "both"] if i % 2 else [])]
            assert main(["predict", "--model", str(model), *pair, "--out", str(request_out)]) == 0
            assert json.loads(request_out.read_text())["probabilities"] == [row], entry.segment_id

    def test_predict_missing_lower_band_file_is_data_error(self, lower_cache, corpus_dir, tmp_path):
        model_path = tmp_path / "model.rfgb"
        assert main(["train", "--features", str(lower_cache), *FAST_TRAIN, "--out", str(model_path)]) == 0
        manifest = load_manifest(corpus_dir / "manifest.json")
        _, ub_path = manifest.resolve(manifest.entries[0])
        argv = ["predict", "--model", str(model_path), "--lb", str(tmp_path / "absent.csv")]
        assert main([*argv, "--ub", str(ub_path), "--band", "lower"]) == 3

    @pytest.mark.parametrize(
        "flags",
        [
            ["--band", "both"],
            ["--band", "upper"],
            ["--lb", "00_000_lb.csv"],
            ["--ub", "00_000_ub.csv"],
            ["--lb", "00_000_lb.csv", "--ub", "00_000_ub.csv", "--band", "both"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_predict_features_rejects_band_and_extraction_flags(
        self, flags, lower_cache, lower_model, tmp_path, capsys
    ):
        # The cache gives the rows, so no band file goes with it, and a --band
        # other than the lower-band model's is refused. predict has no
        # extraction flag: the model gives the settings.
        out = tmp_path / "out.json"
        argv = ["predict", "--model", str(lower_model), "--features", str(lower_cache)]
        assert main([*argv, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flags[0] in err
        assert not out.exists()

    def test_predict_features_flag_rule_reads_no_file(self, tmp_path, capsys):
        absent = [str(tmp_path / name) for name in ("absent.rfgb", "absent.rfds")]
        argv = ["predict", "--model", absent[0], "--features", absent[1], "--lb", "absent.csv"]
        assert main(argv) == 2
        assert "--lb" in capsys.readouterr().err

    def test_predict_band_matching_the_model_is_accepted(self, lower_cache, lower_model, capsys):
        argv = ["predict", "--model", str(lower_model), "--features", str(lower_cache)]
        assert main(argv) == 0
        alone = capsys.readouterr()
        assert main([*argv, "--band", "lower"]) == 0
        assert capsys.readouterr() == alone

    @pytest.mark.parametrize(
        "band, extraction, differs",
        [
            ("upper", [], "upper-band rows at frame size 1024, hop 1024, q 8"),
            ("both", ["--frame-size", "512"], "both-band rows at frame size 512, hop 512, q 8"),
            ("lower", ["--hop", "512"], "lower-band rows at frame size 1024, hop 512, q 8"),
            ("lower", ["--q", "4"], "lower-band rows at frame size 1024, hop 1024, q 4"),
            ("lower", ["--window", "hann"], "lower-band rows at frame size 1024, hop 1024, q 8, hann window"),
        ],
        ids=["upper", "both-frame-size-512", "hop-512", "q-4", "hann"],
    )
    def test_predict_refuses_a_cache_of_other_rows(
        self, band, extraction, differs, corpus_dir, lower_model, tmp_path, capsys
    ):
        # The model takes lower-band rows at frame size 1024 and the default
        # hop, q and window; a cache that differs in any of them is exit 3.
        cache = tmp_path / "other.rfds"
        argv = ["features", "--manifest", str(corpus_dir / "manifest.json"), "--case", "3"]
        assert main([*argv, "--band", band, "--frame-size", "1024", *extraction, "--out", str(cache)]) == 0
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert main(["predict", "--model", str(lower_model), "--features", str(cache), "--out", str(out)]) == 3
        err = assert_one_error_line(capsys.readouterr().err)
        assert f"feature cache {cache} holds {differs}" in err
        assert "but the model takes lower-band rows at frame size 1024, hop 1024, q 8, rectangular window" in err
        assert not out.exists()

    def test_predict_pair_band_other_than_the_model_is_config_error(self, corpus_dir, lower_model, capsys):
        pair = ["--lb", str(corpus_dir / "03_001_lb.csv"), "--ub", str(corpus_dir / "03_001_ub.csv")]
        assert main(["predict", "--model", str(lower_model), *pair, "--band", "upper"]) == 2
        err = assert_one_error_line(capsys.readouterr().err)
        assert "--band upper, but the model takes lower-band rows" in err

    @pytest.mark.parametrize("flags", [["--max-depth", "3000000000"], ["--rounds", "70000"]])
    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_training_flags_beyond_the_model_container_are_config_errors(
        self, command, flags, lower_cache, tmp_path, capsys
    ):
        # The container stores round ids as u16 and max_depth as i32: refused before training.
        out = tmp_path / "out"
        assert main([command, "--features", str(lower_cache), *flags, "--out", str(out)]) == 2
        assert "must be >= " in assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()

    def test_predict_without_input_is_config_error(self, lower_cache, tmp_path):
        model_path = tmp_path / "model.rfgb"
        assert main(["train", "--features", str(lower_cache), *FAST_TRAIN, "--out", str(model_path)]) == 0
        assert main(["predict", "--model", str(model_path)]) == 2

    @pytest.mark.parametrize(
        "flags, missing",
        [
            (["--ub", "ub.csv"], "--band lower requires --lb"),
            (["--lb", "lb.csv", "--band", "upper"], "--band upper requires --ub"),
            (["--ub", "ub.csv", "--band", "both"], "--band both requires --lb"),
            (["--lb", "lb.csv", "--band", "both"], "--band both requires --ub"),
        ],
    )
    def test_predict_band_needs_its_files(self, flags, missing, band_models, capsys):
        # The model's layout names the band files, with or without --band.
        # Checked before any band file is read: the named files do not exist.
        model = band_models[missing.split()[1]]
        for given in (flags, [flag for flag in flags if flag not in ("--band", "upper", "both")]):
            assert main(["predict", "--model", str(model), *given]) == 2
            assert f"error: {missing} (the model's layout)" in capsys.readouterr().err

    def test_model_round_trip_via_cli(self, lower_cache, tmp_path):
        model_path = tmp_path / "model.rfgb"
        assert main(["train", "--features", str(lower_cache), *FAST_TRAIN, "--out", str(model_path)]) == 0
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for out in (first, second):
            assert (
                main(["predict", "--model", str(model_path), "--features", str(lower_cache), "--out", str(out)])
                == 0
            )
        assert first.read_bytes() == second.read_bytes()


class TestRepeatedCalls:
    """main builds its parser once per process; no call's options reach the next."""

    def test_earlier_call_does_not_leak_into_a_later_one(self, corpus_dir, tmp_path, capsys):
        cache, model = tmp_path / "both.rfds", tmp_path / "both.rfgb"
        extract = ["features", "--manifest", str(corpus_dir / "manifest.json"), "--band", "both"]
        assert main([*extract, "--case", "3", "--frame-size", "1024", "--out", str(cache)]) == 0
        assert main(["train", "--features", str(cache), *FAST_TRAIN, "--out", str(model)]) == 0
        pair = ["--lb", str(corpus_dir / "03_001_lb.csv"), "--ub", str(corpus_dir / "03_001_ub.csv")]
        a = ["predict", "--model", str(model), *pair, "--band", "both"]
        b = ["predict", "--model", str(model), "--features", str(cache)]

        def run(argv, out):
            code = main([*argv, "--out", str(out)])
            captured = capsys.readouterr()
            return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

        capsys.readouterr()
        cli.build_parser.cache_clear()
        alone = run(b, tmp_path / "alone.json")
        assert alone[0] == 0 and alone[2] == ""
        assert run(a, tmp_path / "a.json")[0] == 0
        # A leaked --lb or --ub would fail B with "two inputs; give one".
        assert run(b, tmp_path / "after.json") == alone

    def test_usage_error_then_version_and_help(self, capsys):
        def exits(argv):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        capsys.readouterr()
        first = exits(["cv", "--k-folds", "two"])
        assert first[0] == 2 and "invalid int value: 'two'" in first[2]
        assert exits(["--version"]) == (0, f"rfsentry {__version__}\n", "")
        code, out, _ = exits(["--help"])
        assert code == 0 and out.startswith("usage: rfsentry")
        assert "{synth,features,cv,compare,train,predict}" in out
        assert exits(["cv", "--k-folds", "two"]) == first


REQUIRED = "required"
TRAINING = [
    ("--rounds", 100),
    ("--eta", 0.3),
    ("--max-depth", 6),
    ("--lambda", 1.0),
    ("--gamma", 0.0),
    ("--min-child-weight", 1.0),
]
EXTRACTION = [("--frame-size", None), ("--hop", None), ("--q", None), ("--window", None)]
REPORT = [("--seed-data", 0), ("--jobs", 1), ("--out", REQUIRED)]
OPTIONS = {
    "synth": [("--out-dir", REQUIRED), ("--n-per-class", 10), ("--seed-data", 0), ("--length", 8192)],
    "features": [
        ("--manifest", REQUIRED),
        ("--band", "lower"),
        ("--case", REQUIRED),
        *EXTRACTION,
        ("--jobs", 1),
        ("--out", REQUIRED),
    ],
    "cv": [("--features", REQUIRED), ("--case", None), *TRAINING, ("--k-folds", 10), *REPORT],
    "compare": [
        ("--manifest", REQUIRED),
        ("--case", REQUIRED),
        *EXTRACTION,
        *TRAINING,
        ("--k-folds", 10),
        ("--alpha", 0.05),
        *REPORT,
    ],
    "train": [("--features", REQUIRED), ("--case", None), *TRAINING, ("--out", REQUIRED)],
    "predict": [
        ("--model", REQUIRED),
        ("--features", None),
        ("--lb", None),
        ("--ub", None),
        ("--band", None),
        ("--out", None),
    ],
}


class TestOptions:
    def test_option_strings_and_defaults(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(OPTIONS)
        for command, expected in OPTIONS.items():
            got = [
                (flag, REQUIRED if action.required else action.default)
                for action in sub.choices[command]._actions
                if action.dest != "help"
                for flag in action.option_strings
            ]
            assert got == expected, command
            assert [type(v) for _, v in got] == [type(v) for _, v in expected], command

    @pytest.mark.parametrize(
        "argv",
        [
            ["cv", "--features", "a.rfds", "--out", "r.json"],
            ["compare", "--manifest", "m.json", "--case", "1", "--out", "r.json"],
            ["train", "--features", "a.rfds", "--out", "m.rfgb"],
        ],
    )
    def test_training_flags_set_train_config(self, argv):
        parser = cli.build_parser()
        assert cli._train_config(parser.parse_args(argv), 2) == gbdt.TrainConfig()
        given = ["--rounds", "7", "--eta", "0.5", "--max-depth", "2", "--lambda", "3"]
        args = parser.parse_args([*argv, *given, "--gamma", "0.25", "--min-child-weight", "0.5"])
        assert cli._train_config(args, 4) == gbdt.TrainConfig(7, 0.5, 2, 3.0, 0.25, 0.5, 4)


def assert_one_error_line(err: str) -> str:
    """The run's stderr is exactly one `error: ` line, with no traceback."""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


MALFORMED_MANIFEST_ENTRIES = pytest.mark.parametrize(
    "entries",
    [
        b"5",
        b'[{"lb_path": 5, "ub_path": "a_ub.csv", "label": 0}]',
        b'[{"lb_path": "a\\u0000_lb.csv", "ub_path": "a_ub.csv", "label": 0}]',
        b'[{"lb_path": "a_lb.csv", "ub_path": "a_ub.csv", "label": Infinity}]',
        b"[\xff]",
        b"[" * 100_000,
    ],
    ids=[
        "entries-not-a-list",
        "path-not-a-string",
        "path-with-nul",
        "label-infinite",
        "not-text",
        "nested-too-deep",
    ],
)


class TestMalformedInputs:
    """Malformed manifests and band files exit 3 with an error line, not a traceback."""

    @MALFORMED_MANIFEST_ENTRIES
    def test_malformed_manifest(self, entries, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_bytes(b'{"source": "Synthetic", "entries": ' + entries + b"}")
        out = tmp_path / "out.rfds"
        assert main(["features", "--manifest", str(path), "--case", "1", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @MALFORMED_MANIFEST_ENTRIES
    def test_malformed_manifest_through_compare(self, entries, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_bytes(b'{"source": "Synthetic", "entries": ' + entries + b"}")
        out = tmp_path / "compare.json"
        argv = ["compare", "--manifest", str(path), "--case", "1", "--k-folds", "2"]
        assert main([*argv, "--out", str(out)]) == 3
        assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["features", "predict"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5,0.25\n0.125,1x5\n", "invalid numeric token '1x5' at offset 4 (line 2)"),
            ("0.5\n0.25\n1e999\n", "non-finite sample '1e999' at offset 3 (line 3)"),
            (" ,\n\t,, \n", "file contains no samples"),
            (",".join(["0.5"] * 100) + "\n", "segment has 100 samples, need at least 1024"),
        ],
        ids=["invalid-token", "non-finite-token", "separators-only", "shorter-than-a-frame"],
    )
    def test_malformed_band_file(self, command, text, message, corpus_dir, lower_model, tmp_path, capsys):
        lb_path = tmp_path / "bad_lb.csv"
        lb_path.write_text(text)
        out = tmp_path / "out"
        if command == "features":
            ub_path = corpus_dir / "00_000_ub.csv"
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({
                "source": "Synthetic",
                "entries": [{"lb_path": str(lb_path), "ub_path": str(ub_path), "label": 0}],
            }))
            argv = ["features", "--manifest", str(manifest), "--case", "1", "--frame-size", "1024"]
        else:
            argv = ["predict", "--model", str(lower_model), "--lb", str(lb_path)]
        assert main([*argv, "--out", str(out)]) == 3
        err = assert_one_error_line(capsys.readouterr().err)
        assert message in err
        if "offset" in message:
            assert f"{lb_path}: {message}" in err
        assert not out.exists()

    def test_model_with_non_finite_leaf_value(self, lower_cache, lower_model, tmp_path, capsys):
        model = gbdt.load_model(lower_model)
        value = model.forest.value.copy()
        value[np.flatnonzero(model.forest.feature < 0)[0]] = np.nan
        model.forest = dataclasses.replace(model.forest, value=value)
        path = tmp_path / "nan.rfgb"
        gbdt.save_model(model, path)
        out = tmp_path / "predict.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["predict", "--model", str(path), "--features", str(lower_cache), "--out", str(out)])
        assert code == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite leaf value" in assert_one_error_line(captured.err)
        assert not out.exists()

    @pytest.mark.parametrize("label", ["3.9", "true", '"7"'], ids=["label-float", "label-bool", "label-string"])
    def test_non_integer_label(self, corpus_dir, tmp_path, capsys, label):
        # The band files exist, so only the label can fail the run.
        lb, ub = (json.dumps(str(corpus_dir / f"03_000_{band}.csv")) for band in ("lb", "ub"))
        path = tmp_path / "manifest.json"
        path.write_text(
            f'{{"source": "Synthetic", "entries": [{{"lb_path": {lb}, "ub_path": {ub}, "label": {label}}}]}}'
        )
        out = tmp_path / "out.rfds"
        assert main(["features", "--manifest", str(path), "--case", "3", "--out", str(out)]) == 3
        assert "bad manifest entry 0: label must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_band_file_not_text(self, lower_cache, tmp_path, capsys):
        model_path = tmp_path / "model.rfgb"
        assert main(["train", "--features", str(lower_cache), *FAST_TRAIN, "--out", str(model_path)]) == 0
        lb_path = tmp_path / "lb.csv"
        lb_path.write_bytes(b"\xff\xfe1,2,3\n")
        capsys.readouterr()
        argv = ["predict", "--model", str(model_path), "--lb", str(lb_path)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["cv", "train"])
    @pytest.mark.parametrize(
        "frame_size, hop, q",
        [(3, 3, 1), (2048, 0, 8), (2048, 2048, 0)],
        ids=["frame-size-3", "hop-0", "q-0"],
    )
    def test_cache_with_bad_extraction_settings(self, command, frame_size, hop, q, tmp_path, capsys):
        # A hand-packed 20 x 4 case-3 cache whose header settings no extraction produces.
        header = struct.pack("<4sHBBBIIIII", b"RFDS", 2, 3, 0, 0, 20, 4, frame_size, hop, q)
        labels = (np.arange(20) % 10).astype("<u2").tobytes()
        path = tmp_path / "bad.rfds"
        path.write_bytes(header + labels + np.ones(80, dtype="<f8").tobytes())
        out = tmp_path / "out"
        argv = [command, "--features", str(path), "--case", "3", "--min-child-weight", "0"]
        assert main([*argv, "--out", str(out)]) == 3
        assert "bad extraction settings" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cv", "train", "predict"])
    def test_cache_with_wrong_column_count(self, command, lower_model, tmp_path, capsys):
        # A hand-packed 20 x 4 lower-band case-3 cache at frame size 2048 (1024 columns).
        header = struct.pack("<4sHBBBIIIII", b"RFDS", 2, 3, 0, 0, 20, 4, 2048, 2048, 8)
        labels = (np.arange(20) % 10).astype("<u2").tobytes()
        path = tmp_path / "narrow.rfds"
        path.write_bytes(header + labels + np.ones(80, dtype="<f8").tobytes())
        out = tmp_path / "out"
        argv = {
            "cv": ["cv", "--k-folds", "2", "--min-child-weight", "0"],
            "train": ["train", "--min-child-weight", "0"],
            "predict": ["predict", "--model", str(lower_model)],
        }[command]
        assert main([*argv, "--features", str(path), "--out", str(out)]) == 3
        assert "4 feature columns, but a lower-band cache at frame size 2048 has 1024" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cv", "train", "predict"])
    @pytest.mark.parametrize(
        "label, feature, message",
        [
            (0, np.nan, "features contain non-finite values"),
            (0, np.inf, "features contain non-finite values"),
            (10, 1.0, "labels out of range for the 10-class case"),
        ],
        ids=["nan-feature", "inf-feature", "label-10"],
    )
    def test_cache_with_bad_payload(self, command, label, feature, message, lower_model, tmp_path, capsys):
        # A hand-packed 20 x 4 lower-band case-3 cache at frame size 8, with
        # one bad label or feature value and a well-formed header.
        header = struct.pack("<4sHBBBIIIII", b"RFDS", 2, 3, 0, 0, 20, 4, 8, 8, 2)
        labels = np.arange(20) % 10
        labels[7] = label
        features = np.ones(80)
        features[33] = feature
        path = tmp_path / "bad.rfds"
        path.write_bytes(header + labels.astype("<u2").tobytes() + features.astype("<f8").tobytes())
        out = tmp_path / "out"
        argv = {
            "cv": ["cv", "--k-folds", "2", "--min-child-weight", "0"],
            "train": ["train", "--min-child-weight", "0"],
            "predict": ["predict", "--model", str(lower_model)],
        }[command]
        assert main([*argv, "--features", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_finite_samples_overflowing_the_transform(self, tmp_path, capsys):
        # Every token is finite, but a frame's sum is past the float64 range.
        for band in ("lb", "ub"):
            (tmp_path / f"big_{band}.csv").write_text(",".join(["1e306"] * 2048) + "\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "source": "Synthetic",
            "entries": [{"lb_path": "big_lb.csv", "ub_path": "big_ub.csv", "label": 1}],
        }))
        out = tmp_path / "out.rfds"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["features", "--manifest", str(manifest), "--case", "1", "--out", str(out)])
        assert code == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("error: feature extraction failed for entry 0 (big_lb)")
        assert "magnitude bins must be finite" in err
        assert not out.exists()

    def test_predict_seam_scale_overflowing_the_upper_band(self, corpus_dir, tmp_path, capsys):
        # Both bands have finite spectra; the seam scale (a huge LB tail over
        # a unit UB head) times the strong UB tone is past the float64 range.
        # The model takes joined rows, so only the row's values can fail.
        cache, model = tmp_path / "both.rfds", tmp_path / "both.rfgb"
        manifest = str(corpus_dir / "manifest.json")
        extract = ["features", "--manifest", manifest, "--band", "both", "--case", "3"]
        assert main([*extract, "--frame-size", "1024", "--out", str(cache)]) == 0
        assert main(["train", "--features", str(cache), *FAST_TRAIN, "--out", str(model)]) == 0
        capsys.readouterr()
        t = np.arange(1024)
        lb = 1e298 * np.cos(2 * np.pi * 510 * t / 1024)
        ub = 1.0 + 1e20 * np.cos(2 * np.pi * 300 * t / 1024)
        for name, samples in (("lb", lb), ("ub", ub)):
            (tmp_path / f"{name}.csv").write_text(",".join(map(repr, samples.tolist())) + "\n")
        out = tmp_path / "predict.json"
        argv = ["predict", "--model", str(model), "--lb", str(tmp_path / "lb.csv")]
        argv += ["--ub", str(tmp_path / "ub.csv"), "--band", "both"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--out", str(out)])
        assert code == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("error: feature extraction failed for cli-input")
        assert "joined feature row is not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cv", "train"])
    def test_cache_without_feature_columns(self, command, tmp_path, capsys):
        # A hand-packed 20 x 0 case-3 cache: header, then 20 labels, no features.
        header = struct.pack("<4sHBBBIIIII", b"RFDS", 2, 3, 0, 0, 20, 0, 2048, 2048, 8)
        path = tmp_path / "empty.rfds"
        path.write_bytes(header + (np.arange(20) % 10).astype("<u2").tobytes())
        out = tmp_path / "out"
        argv = [command, "--features", str(path), "--case", "3", "--min-child-weight", "0"]
        assert main([*argv, "--out", str(out)]) == 3
        assert "no feature columns" in capsys.readouterr().err
        assert not out.exists()
