import pytest

from veridebate.domain import DebateLog, VerdictHint
from veridebate.synthesis import (
    CHECKLIST_CN,
    CHECKLIST_EN,
    build_synthesis_prompt,
    parse_verdict_hint,
    report_from_json,
    report_to_json,
    synthesize,
)


class TestSynthesisPrompt:
    def test_contains_all_five_criteria_verbatim(self, default_log):
        user = build_synthesis_prompt(default_log).messages[1][1]
        for criterion in CHECKLIST_EN:
            assert criterion in user

    def test_contains_full_transcript(self, default_log):
        user = build_synthesis_prompt(default_log).messages[1][1]
        for turn in default_log.turns:
            assert turn.text in user

    def test_chinese_variant_selected_by_language(self, default_log):
        user = build_synthesis_prompt(default_log, language="cn").messages[1][1]
        for criterion in CHECKLIST_CN:
            assert criterion in user
        for turn in default_log.turns:
            assert turn.text in user

    def test_unknown_language_rejected(self, default_log):
        with pytest.raises(ValueError):
            build_synthesis_prompt(default_log, language="fr")

    def test_truncated_transcript_keeps_per_turn_abstracts(self, default_log):
        from veridebate.domain import DebateConfig
        from veridebate.engine import one_line_abstract

        tight = DebateConfig(history_char_budget=400)
        user = build_synthesis_prompt(default_log, config=tight).messages[1][1]
        for turn in default_log.turns:
            assert one_line_abstract(turn.text) in user or turn.text in user

    def test_template_loaded_through_engine_module(self, default_log, monkeypatch):
        import veridebate.engine as engine

        loaded = []
        load = engine.load_template
        monkeypatch.setattr(engine, "load_template",
                            lambda template_id: loaded.append(template_id) or load(template_id))
        build_synthesis_prompt(default_log, language="cn")
        assert loaded == ["synthesis_cn"]


class TestSynthesize:
    def test_mock_report_deterministic(self, default_log, mock_gateway):
        first = synthesize(default_log, mock_gateway)
        second = synthesize(default_log, mock_gateway)
        assert first == second
        assert first.news_id == default_log.news_id
        assert first.text.strip()

    def test_invalid_log_rejected(self, mock_gateway):
        with pytest.raises(ValueError):
            synthesize(DebateLog("empty", ()), mock_gateway)

    def test_report_json_roundtrip(self, default_log, mock_gateway):
        report = synthesize(default_log, mock_gateway)
        assert report_from_json(report_to_json(report)) == report


class TestVerdictHint:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("After review, the news is likely true.", VerdictHint.LEANS_REAL),
            ("The piece appears to be fabricated.", VerdictHint.LEANS_FAKE),
            ("Both sides made points about the weather.", VerdictHint.UNDECIDED),
            (
                "It is likely true in parts but the core claim is likely false.",
                VerdictHint.UNDECIDED,
            ),
            ("这则新闻基本属实。", VerdictHint.LEANS_REAL),
            ("内容属于捏造。", VerdictHint.LEANS_FAKE),
        ],
    )
    def test_keyword_rules(self, text, expected):
        assert parse_verdict_hint(text) is expected

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            parse_verdict_hint("   ")
