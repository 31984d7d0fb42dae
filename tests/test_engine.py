import pytest

from veridebate import engine
from veridebate.domain import (
    DebateConfig,
    DebateRole,
    DebateStage,
    NewsItem,
    Stance,
    validate_log,
)
from veridebate.engine import (
    MissingStageError,
    PromptError,
    PromptTemplate,
    build_closing_prompt,
    build_cross_exam_prompt,
    build_opening_prompt,
    build_rebuttal_prompt,
    format_history,
    load_template,
    log_from_json,
    log_to_json,
    one_line_abstract,
    plan_debate,
    run_debate,
)
from veridebate.gateway import Gateway, GatewayError, MockBackend, TransportError

EXPECTED_SLOTS = [
    (Stance.TRUE, DebateRole.OPENING_SPEAKER),
    (Stance.FAKE, DebateRole.OPENING_SPEAKER),
    (Stance.TRUE, DebateRole.QUESTIONER),
    (Stance.FAKE, DebateRole.QUESTIONER),
    (Stance.TRUE, DebateRole.REBUTTER),
    (Stance.FAKE, DebateRole.REBUTTER),
    (Stance.TRUE, DebateRole.CLOSING_SPEAKER),
    (Stance.FAKE, DebateRole.CLOSING_SPEAKER),
]

EXPECTED_TARGETS = [(), (), (0,), (1,), (3,), (2,), (), ()]


class TestPlanDebate:
    def test_default_plan_has_eight_slots_in_order(self):
        plans = plan_debate(DebateConfig())
        assert [p.stage for p in plans] == list(DebateStage)
        slots = [(s.stance, s.role) for p in plans for s in p.slots]
        assert slots == EXPECTED_SLOTS

    def test_single_agent_team_reuses_agent(self):
        plans = plan_debate(DebateConfig(agents_per_team=1))
        slots = [s for p in plans for s in p.slots]
        assert len(slots) == 8
        assert {s.agent_id for s in slots} == {"pro_0", "opp_0"}

    def test_zero_agents_rejected(self):
        with pytest.raises(ValueError):
            plan_debate(DebateConfig(agents_per_team=0))


class TestTemplates:
    def test_all_stage_templates_load(self):
        from veridebate.engine import TEMPLATE_IDS

        for template_id in TEMPLATE_IDS:
            template = load_template(template_id)
            assert template.system_text and template.user_text

    def test_loaded_once_per_id(self):
        assert load_template("opening") is load_template("opening")

    def test_missing_template_raises_every_call(self):
        for _ in range(2):
            with pytest.raises(PromptError, match="no template"):
                load_template("no_such_template")

    def test_malformed_template_raises_every_call(self, monkeypatch):
        class Asset:
            def files(self, package):
                return self

            def joinpath(self, *parts):
                return self

            def read_text(self, encoding):
                return "system text with no separator"

        monkeypatch.setattr(engine, "resources", Asset())
        for _ in range(2):
            with pytest.raises(PromptError, match="separator"):
                load_template("malformed_template")

    def test_unresolved_placeholder_raises(self):
        template = PromptTemplate("bad", "sys", "hello {nonexistent}")
        with pytest.raises(PromptError):
            template.render(news="x")


class TestOpeningPrompt:
    def test_contains_news_and_true_stance(self, news_item):
        request = build_opening_prompt(news_item, Stance.TRUE)
        user = request.messages[1][1]
        assert news_item.content in user
        assert "true" in user

    def test_fake_stance_framing(self, news_item):
        user = build_opening_prompt(news_item, Stance.FAKE).messages[1][1]
        assert "fake" in user

    def test_empty_content_rejected_at_construction(self):
        with pytest.raises(ValueError):
            NewsItem(id="x", content=" ")


class TestCrossExamPrompt:
    def test_quotes_only_proponent_openings_for_fake_side(self, default_log):
        openings = default_log.turns[:2]
        request = build_cross_exam_prompt(openings, Stance.FAKE)
        user = request.messages[1][1]
        assert openings[0].text in user       # proponent opening quoted
        assert openings[1].text not in user   # own side's opening not quoted

    def test_symmetric_for_true_side(self, default_log):
        openings = default_log.turns[:2]
        user = build_cross_exam_prompt(openings, Stance.TRUE).messages[1][1]
        assert openings[1].text in user
        assert openings[0].text not in user

    def test_missing_opponent_opening_raises(self, default_log):
        only_pro = [default_log.turns[0]]
        with pytest.raises(MissingStageError):
            build_cross_exam_prompt(only_pro, Stance.TRUE)


class TestRebuttalPrompt:
    def test_embeds_opposing_question(self, default_log):
        history = default_log.turns[:4]
        user = build_rebuttal_prompt(history, Stance.TRUE).messages[1][1]
        assert default_log.turns[3].text in user   # opponent questioner
        assert default_log.turns[2].text not in user

    def test_symmetric_for_fake_side(self, default_log):
        history = default_log.turns[:4]
        user = build_rebuttal_prompt(history, Stance.FAKE).messages[1][1]
        assert default_log.turns[2].text in user   # proponent questioner

    def test_missing_cross_exam_raises(self, default_log):
        with pytest.raises(MissingStageError):
            build_rebuttal_prompt(default_log.turns[:2], Stance.TRUE)


class TestClosingPrompt:
    def test_embeds_all_six_prior_turns(self, default_log):
        history = default_log.turns[:6]
        user = build_closing_prompt(history, Stance.TRUE).messages[1][1]
        for turn in history:
            assert turn.text in user

    def test_empty_history_raises(self):
        with pytest.raises(MissingStageError):
            build_closing_prompt([], Stance.TRUE)

    def test_two_stances_differ_only_in_framing(self, default_log):
        history = default_log.turns[:6]
        a = build_closing_prompt(history, Stance.TRUE).messages[1][1]
        b = build_closing_prompt(history, Stance.FAKE).messages[1][1]
        assert a != b
        assert a.replace("true", "fake") == b


class TestRunDebate:
    def test_default_protocol_sequence(self, news_item, mock_gateway):
        log = run_debate(news_item, DebateConfig(), mock_gateway)
        assert validate_log(log) == []
        assert [(t.stance, t.role) for t in log.turns] == EXPECTED_SLOTS
        assert [t.stage for t in log.turns] == [
            DebateStage.OPENING, DebateStage.OPENING,
            DebateStage.CROSS_EXAMINATION, DebateStage.CROSS_EXAMINATION,
            DebateStage.REBUTTAL, DebateStage.REBUTTAL,
            DebateStage.CLOSING, DebateStage.CLOSING,
        ]
        assert [t.targets for t in log.turns] == EXPECTED_TARGETS

    def test_reruns_byte_identical(self, news_item, mock_gateway):
        a = run_debate(news_item, DebateConfig(), mock_gateway)
        b = run_debate(news_item, DebateConfig(), mock_gateway)
        assert log_to_json(a) == log_to_json(b)

    def test_failing_gateway_propagates(self, news_item):
        class DeadBackend:
            backend_id = "dead"

            def complete(self, request):
                raise TransportError("down")

        from veridebate.gateway import RetryPolicy

        gateway = Gateway(DeadBackend(), retry=RetryPolicy(max_attempts=1))
        with pytest.raises(GatewayError):
            run_debate(news_item, DebateConfig(), gateway)

    def test_history_containment(self, news_item):
        """A turn's prompt may embed text only from strictly earlier
        stages."""
        seen_prompts = []

        class RecordingBackend(MockBackend):
            def complete(self, request):
                seen_prompts.append(request.messages[1][1])
                return super().complete(request)

        gateway = Gateway(RecordingBackend())
        log = run_debate(news_item, DebateConfig(), gateway)
        for i, turn in enumerate(log.turns):
            prompt = seen_prompts[i]
            for other in log.turns:
                if other.stage >= turn.stage and other.turn_index != turn.turn_index:
                    assert other.text not in prompt

    def test_stance_balance_per_stage(self, default_log):
        for stage in DebateStage:
            stances = [t.stance for t in default_log.turns if t.stage is stage]
            assert sorted(s.value for s in stances) == ["fake", "true"]

    def test_serialization_roundtrip(self, default_log):
        assert log_from_json(log_to_json(default_log)) == default_log


class TestHistoryFormatting:
    def test_abstract_is_one_line_and_bounded(self):
        text = "first line of a very long statement " * 10 + "\nsecond line"
        abstract = one_line_abstract(text, width=50)
        assert "\n" not in abstract
        assert len(abstract) <= 50

    def test_budget_collapses_oldest_turns_to_abstracts(self, default_log):
        turns = default_log.turns
        full = format_history(turns)
        budget = len(full) - 50
        squeezed = format_history(turns, budget)
        assert len(squeezed) < len(full)
        assert one_line_abstract(turns[0].text) in squeezed
        # the newest turn survives verbatim under a mild budget
        assert turns[-1].text in squeezed

    def test_no_budget_keeps_everything_verbatim(self, default_log):
        rendered = format_history(default_log.turns)
        for turn in default_log.turns:
            assert turn.text in rendered
