import re

import pytest
from hypothesis import given, strategies as st

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


# The reference rule: one re.search per cue pattern.
REAL_PATTERNS = (
    r"\blikely (?:true|real|genuine|authentic)\b",
    r"\bappears (?:to be )?(?:true|real|genuine|authentic)\b",
    r"\bnews is (?:true|real|credible|authentic)\b",
    r"\bprobably (?:true|real)\b",
    r"\bleans real\b",
    r"\bwell[- ]sourced\b",
    r"属实",
    r"可信",
)
FAKE_PATTERNS = (
    r"\blikely (?:fake|false|fabricated)\b",
    r"\bappears (?:to be )?(?:fake|false|fabricated)\b",
    r"\bnews is (?:fake|false|fabricated|misleading)\b",
    r"\bprobably (?:fake|false)\b",
    r"\bleans fake\b",
    r"\bmisinformation\b",
    r"\bhoax\b",
    r"虚假",
    r"捏造",
)


def per_pattern_hint(text: str) -> VerdictHint:
    lowered = text.lower()
    real = any(re.search(p, lowered) for p in REAL_PATTERNS)
    fake = any(re.search(p, lowered) for p in FAKE_PATTERNS)
    if real != fake:
        return VerdictHint.LEANS_REAL if real else VerdictHint.LEANS_FAKE
    return VerdictHint.UNDECIDED


# Every cue, near misses that a word boundary must reject, and filler,
# in English and Chinese.
FRAGMENTS = (
    "likely true", "likely real", "appears genuine", "appears to be authentic",
    "news is credible", "probably real", "leans real", "well-sourced", "Well Sourced",
    "属实", "可信",
    "likely fake", "likely fabricated", "appears to be false", "news is misleading",
    "probably false", "leans fake", "misinformation", "hoax", "虚假", "捏造",
    "unlikely", "truer", "hoaxes", "appears to be", "news is", "well", "sourced", "real",
    "fake", "the weather", "新闻", "官方表示",
)
SEPARATORS = (" ", "", ", ", "-", "\n", "。", "_")


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

    @pytest.mark.parametrize("text, expected", [
        ("It is WELL-SOURCED and probably real.", VerdictHint.LEANS_REAL),
        ("A hoax; the news is misleading.", VerdictHint.LEANS_FAKE),
        ("Likely true, yet a hoax.", VerdictHint.UNDECIDED),
        ("Unlikely fake: the hoaxes were well sourcedness.", VerdictHint.UNDECIDED),
        ("报道可信，但细节捏造。", VerdictHint.UNDECIDED),
        ("来源可信 and the news is credible.", VerdictHint.LEANS_REAL),
        ("内容虚假", VerdictHint.LEANS_FAKE),
    ], ids=["real", "fake", "both", "neither", "chinese_both", "mixed_real", "chinese_fake"])
    def test_one_search_per_lean_table(self, text, expected):
        assert parse_verdict_hint(text) is expected
        assert per_pattern_hint(text) is expected

    @given(st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=8),
           st.lists(st.sampled_from(SEPARATORS), min_size=8, max_size=8))
    def test_one_search_per_lean_equals_one_search_per_pattern(self, fragments, separators):
        """Cues, near misses and filler, joined with and without word
        breaks: one search per lean gives the hint one search per cue
        pattern gives."""
        text = "".join(f + sep for f, sep in zip(fragments, separators)) + "."
        assert parse_verdict_hint(text) is per_pattern_hint(text)
