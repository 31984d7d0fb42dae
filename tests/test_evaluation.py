import json

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_metrics
from veridebate.evaluation import (
    ABLATION_TOGGLES,
    Dataset,
    DatasetError,
    compute_metrics,
    format_ablation_table,
    load_dataset,
    run_ablation,
    write_dataset_jsonl,
    write_predictions_jsonl,
)
from veridebate.domain import NewsItem


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestLoadDataset:
    def test_loads_arg_en_sized_test_split(self, tmp_path):
        # The English benchmark's test split is 1024 real + 234 fake.
        rows = []
        for i in range(1024):
            rows.append({"id": f"r{i}", "content": f"real item {i}", "label": "real",
                         "split": "test"})
        for i in range(234):
            rows.append({"id": f"f{i}", "content": f"fake item {i}", "label": "fake",
                         "split": "test"})
        path = tmp_path / "argen_test.jsonl"
        write_jsonl(path, rows)
        dataset = load_dataset(path)
        assert len(dataset) == 1258
        counts = dataset.split_counts()["test"]
        assert counts["real"] == 1024
        assert counts["fake"] == 234

    def test_integer_labels_accepted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [
            {"id": "a", "content": "x", "label": 0, "split": "train"},
            {"id": "b", "content": "y", "label": 1, "split": "train"},
        ])
        dataset = load_dataset(path)
        assert [item.label for item in dataset.items] == [0, 1]

    def test_empty_file_strict_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError, match="no items"):
            load_dataset(path)

    def test_duplicate_id_named_in_error(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_jsonl(path, [
            {"id": "same", "content": "x", "label": 0},
            {"id": "same", "content": "y", "label": 1},
        ])
        with pytest.raises(DatasetError, match="same"):
            load_dataset(path)

    def test_malformed_line_reported_with_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "content": "x", "label": 0}\n'
            "not json at all\n"
        )
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_lenient_mode_skips_bad_lines(self, tmp_path, caplog):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"id": "a", "content": "x", "label": 0}\n'
            "broken line\n"
            '{"id": "b", "content": "y", "label": 1}\n'
        )
        dataset = load_dataset(path, strict=False)
        assert len(dataset) == 2

    @pytest.mark.parametrize("bad_id", ["../escape", "a/b", "a\\b", "a\0b", ".", "..", ""])
    def test_id_that_is_no_file_name_rejected(self, tmp_path, caplog, bad_id):
        path = tmp_path / "ids.jsonl"
        write_jsonl(path, [
            {"id": "a", "content": "x", "label": 0},
            {"id": bad_id, "content": "y", "label": 1},
        ])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)
        dataset = load_dataset(path, strict=False)
        assert [item.id for item in dataset.items] == ["a"]
        assert "line 2" in caplog.text

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(tmp_path / "nope.jsonl")

    def test_roundtrip_through_writer(self, tmp_path):
        dataset = Dataset(items=(
            NewsItem("a", "text one", 0, "train"),
            NewsItem("b", "text two", 1, "test"),
        ))
        path = tmp_path / "rt.jsonl"
        write_dataset_jsonl(dataset, path)
        loaded = load_dataset(path)
        assert loaded.items == dataset.items

    def test_dataset_type_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate id"):
            Dataset(items=(
                NewsItem("a", "text one", 0),
                NewsItem("a", "text two", 1),
            ))


class TestComputeMetrics:
    def test_perfect_predictions(self):
        report = compute_metrics([0, 1], [0, 1])
        assert report.macro_f1 == 1.0
        assert report.accuracy == 1.0

    def test_all_real_on_balanced_four(self):
        report = compute_metrics([0, 0, 0, 0], [0, 0, 1, 1])
        assert report.f1_real == pytest.approx(2 / 3)
        assert report.f1_fake == 0.0
        assert report.macro_f1 == pytest.approx(1 / 3)
        assert report.accuracy == 0.5

    def test_confusion_counts_sum_to_items(self):
        report = compute_metrics([0, 1, 0, 1, 1], [0, 0, 1, 1, 1])
        for cls in ("real", "fake"):
            counts = report.confusion[cls]
            assert counts["tp"] + counts["fp"] + counts["fn"] + counts["tn"] == 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([0], [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], [])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([0, 2], [0, 1])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1,
                    max_size=40))
    def test_agrees_with_brute_force_oracle(self, pairs):
        predictions = [p for p, _ in pairs]
        labels = [y for _, y in pairs]
        report = compute_metrics(predictions, labels)
        oracle = brute_force_metrics(predictions, labels)
        assert abs(report.macro_f1 - oracle["macro_f1"]) < 1e-12
        assert abs(report.accuracy - oracle["accuracy"]) < 1e-12
        assert abs(report.f1_real - oracle["f1_real"]) < 1e-12
        assert abs(report.f1_fake - oracle["f1_fake"]) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1,
                    max_size=30))
    def test_macro_f1_invariant_under_encoding_swap(self, pairs):
        predictions = [p for p, _ in pairs]
        labels = [y for _, y in pairs]
        a = compute_metrics(predictions, labels)
        b = compute_metrics([1 - p for p in predictions], [1 - y for y in labels])
        assert a.macro_f1 == pytest.approx(b.macro_f1, abs=1e-12)
        assert a.accuracy == pytest.approx(b.accuracy, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1,
                    max_size=30))
    def test_all_metrics_in_unit_interval(self, pairs):
        report = compute_metrics([p for p, _ in pairs], [y for _, y in pairs])
        for value in (report.accuracy, report.macro_f1, report.f1_real, report.f1_fake):
            assert 0.0 <= value <= 1.0


class RecordingPipeline:
    def __init__(self):
        self.variants = []

    def evaluate_variant(self, dataset, variant):
        self.variants.append(variant)
        return compute_metrics([0], [0])


class TestRunAblation:
    def test_invalid_toggle_rejected(self):
        with pytest.raises(ValueError, match="unknown ablation toggles"):
            run_ablation(["no_magic"], RecordingPipeline(), None)

    def test_runs_full_plus_requested(self):
        pipeline = RecordingPipeline()
        table = run_ablation(["no_debate", "no_analysis"], pipeline, None)
        assert pipeline.variants == ["full", "no_debate", "no_analysis"]
        assert set(table) == {"full", "no_debate", "no_analysis"}

    def test_all_toggles_are_valid(self):
        pipeline = RecordingPipeline()
        run_ablation(ABLATION_TOGGLES, pipeline, None)

    def test_table_formatting(self):
        table = {"full": compute_metrics([0, 1], [0, 1])}
        text = format_ablation_table(table)
        assert "full" in text and "macF1" in text


def test_predictions_writer_schema(tmp_path):
    rows = [{"id": "a", "label": 0, "prediction": 1, "p_fake": 0.9}]
    path = tmp_path / "preds.jsonl"
    write_predictions_jsonl(path, rows)
    loaded = json.loads(path.read_text().strip())
    assert set(loaded) == {"id", "label", "prediction", "p_fake"}
