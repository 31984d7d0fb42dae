import dataclasses
import hashlib
import json

import pytest
from hypothesis import example, given, strategies as st

from oracles import reference_log_json
from strategies import valid_logs
from veridebate import engine
from veridebate.config import PipelineConfig
from veridebate.domain import (
    STAGE_ROLES,
    DebateConfig,
    DebateLog,
    DebateRole,
    DebateStage,
    DebateTurn,
    NewsItem,
    Stance,
    validate_log,
)
from veridebate.engine import (
    PROTOCOL,
    MissingStageError,
    PromptError,
    PromptTemplate,
    format_history,
    load_template,
    log_from_json,
    log_to_json,
    one_line_abstract,
    run_debate,
    stage_prompt,
)
from veridebate.gateway import Gateway, GatewayError, MockBackend, TransportError
from veridebate.synthesis import report_to_json, synthesize
from veridebate.synthetic import make_synthetic_corpus

OPENING, CROSS_EXAM, REBUTTAL, CLOSING = DebateStage


def user_text(stage, stance, news, turns):
    return stage_prompt(stage, stance, news, turns, DebateConfig()).messages[1][1]

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
        slots = engine.SPEAKING_ORDER
        assert [stage for stage, _, _ in slots[::2]] == list(DebateStage)
        assert [(stance, STAGE_ROLES[stage]) for stage, stance, _ in slots] == EXPECTED_SLOTS
        assert [agent_id for _, _, agent_id in slots] == [
            "pro_0", "opp_0", "pro_1", "opp_1", "pro_0", "opp_0", "pro_1", "opp_1"]


class TestTemplates:
    def test_all_stage_templates_load(self):
        for rule in PROTOCOL.values():
            template = load_template(rule.template_id)
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
        user = user_text(OPENING, Stance.TRUE, news_item, [])
        assert news_item.content in user
        assert "true" in user

    def test_fake_stance_framing(self, news_item):
        user = user_text(OPENING, Stance.FAKE, news_item, [])
        assert "fake" in user

    def test_empty_content_rejected_at_construction(self):
        with pytest.raises(ValueError):
            NewsItem(id="x", content=" ")


class TestCrossExamPrompt:
    def test_quotes_only_proponent_openings_for_fake_side(self, default_log, news_item):
        openings = default_log.turns[:2]
        user = user_text(CROSS_EXAM, Stance.FAKE, news_item, openings)
        assert openings[0].text in user       # proponent opening quoted
        assert openings[1].text not in user   # own side's opening not quoted

    def test_symmetric_for_true_side(self, default_log, news_item):
        openings = default_log.turns[:2]
        user = user_text(CROSS_EXAM, Stance.TRUE, news_item, openings)
        assert openings[1].text in user
        assert openings[0].text not in user

    def test_missing_opponent_opening_raises(self, default_log, news_item):
        only_pro = [default_log.turns[0]]
        with pytest.raises(MissingStageError):
            user_text(CROSS_EXAM, Stance.TRUE, news_item, only_pro)


class TestRebuttalPrompt:
    def test_embeds_opposing_question(self, default_log, news_item):
        history = default_log.turns[:4]
        user = user_text(REBUTTAL, Stance.TRUE, news_item, history)
        assert default_log.turns[3].text in user   # opponent questioner
        assert default_log.turns[2].text not in user

    def test_symmetric_for_fake_side(self, default_log, news_item):
        history = default_log.turns[:4]
        user = user_text(REBUTTAL, Stance.FAKE, news_item, history)
        assert default_log.turns[2].text in user   # proponent questioner

    def test_missing_cross_exam_raises(self, default_log, news_item):
        with pytest.raises(MissingStageError):
            user_text(REBUTTAL, Stance.TRUE, news_item, default_log.turns[:2])


class TestClosingPrompt:
    def test_embeds_all_six_prior_turns(self, default_log, news_item):
        history = default_log.turns[:6]
        user = user_text(CLOSING, Stance.TRUE, news_item, history)
        for turn in history:
            assert turn.text in user

    def test_empty_history_raises(self, news_item):
        with pytest.raises(MissingStageError):
            user_text(CLOSING, Stance.TRUE, news_item, [])

    def test_two_stances_differ_only_in_framing(self, default_log, news_item):
        history = default_log.turns[:6]
        a = user_text(CLOSING, Stance.TRUE, news_item, history)
        b = user_text(CLOSING, Stance.FAKE, news_item, history)
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

    def test_failing_gateway_propagates(self, news_item, tmp_path):
        class DeadBackend:
            backend_id = "dead"

            def complete(self, request):
                raise TransportError("down")

        from veridebate.gateway import RetryPolicy

        gateway = Gateway(DeadBackend(), tmp_path, retry=RetryPolicy(max_attempts=1))
        with pytest.raises(GatewayError):
            run_debate(news_item, DebateConfig(), gateway)

    def test_history_containment(self, news_item, tmp_path):
        """A turn's prompt may embed text only from strictly earlier
        stages."""
        seen_prompts = []

        class RecordingBackend(MockBackend):
            def complete(self, request):
                seen_prompts.append(request.messages[1][1])
                return super().complete(request)

        gateway = Gateway(RecordingBackend(), tmp_path)
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


def _first_turn(record):
    return record["turns"][0]


def _first_linked_turn(record):
    return next(turn for turn in record["turns"] if turn["targets"])


# One edit of a stored transcript each, the turn it edits, and what
# ``log_from_json`` raises for it.
REFUSED = {
    "bool_turn_index": (_first_turn, lambda turn: turn.update(turn_index=False), ValueError),
    "float_turn_index": (_first_turn, lambda turn: turn.update(turn_index=0.0), ValueError),
    "bool_target": (_first_linked_turn, lambda turn: turn.update(targets=[True]), ValueError),
    "float_target": (_first_linked_turn, lambda turn: turn.update(targets=[0.0]), ValueError),
    "string_targets": (_first_linked_turn, lambda turn: turn.update(targets="0"), ValueError),
    "unknown_stance": (_first_turn, lambda turn: turn.update(stance="maybe"), KeyError),
    "unknown_role": (_first_turn, lambda turn: turn.update(role="moderator"), KeyError),
    "unknown_stage": (_first_turn, lambda turn: turn.update(stage="intermission"), KeyError),
    "stage_by_number": (_first_turn, lambda turn: turn.update(stage=0), AttributeError),
    "role_by_name": (_first_turn, lambda turn: turn.update(role="OPENING_SPEAKER"), KeyError),
    **{f"no_{key}": (_first_turn, lambda turn, key=key: turn.pop(key), KeyError)
       for key in ("turn_index", "agent_id", "stance", "role", "stage", "text", "targets")},
    "no_news_id": (lambda record: record, lambda record: record.pop("news_id"), KeyError),
    "no_turns": (lambda record: record, lambda record: record.pop("turns"), KeyError),
}


class TestTranscriptParsing:
    """``log_from_json`` refuses every value its checks name, with the
    error the stage that reads transcripts expects, and reads back
    exactly the log ``log_to_json`` wrote."""

    @pytest.mark.parametrize("fault", REFUSED)
    def test_refused(self, default_log, fault):
        where, edit, error = REFUSED[fault]
        record = json.loads(log_to_json(default_log))
        edit(where(record))
        with pytest.raises(error):
            log_from_json(json.dumps(record))

    @pytest.mark.parametrize("spell, opening", [
        (str.upper, "OPENING"),
        (str.title, "Opening"),
        (lambda name: "".join(c.upper() if i % 2 else c for i, c in enumerate(name)), "oPeNiNg"),
    ], ids=["upper", "title", "mixed"])
    def test_stage_name_in_any_case(self, default_log, spell, opening):
        record = json.loads(log_to_json(default_log))
        for turn in record["turns"]:
            turn["stage"] = spell(turn["stage"])
        assert _first_turn(record)["stage"] == opening
        assert log_from_json(json.dumps(record)) == default_log

    def test_unknown_keys_ignored(self, default_log):
        record = json.loads(log_to_json(default_log))
        record["extra"] = 1
        _first_turn(record)["extra"] = "ignored"
        parsed = log_from_json(json.dumps(record))
        assert parsed == default_log
        assert not hasattr(parsed.turns[0], "extra")

    @given(valid_logs())
    def test_roundtrip_keeps_every_field_type(self, log):
        parsed = log_from_json(log_to_json(log))
        assert parsed == log
        assert type(parsed) is DebateLog and type(parsed.turns) is tuple
        fields = [field.name for field in dataclasses.fields(DebateTurn)]
        for turn in parsed.turns:
            assert type(turn) is DebateTurn
            assert list(vars(turn)) == fields
            assert [type(getattr(turn, name)) for name in fields] == [
                int, str, Stance, DebateRole, DebateStage, str, tuple]
            assert all(type(target) is int for target in turn.targets)
            assert hash(turn) == hash(dataclasses.replace(turn))
            with pytest.raises(dataclasses.FrozenInstanceError):
                turn.text = "changed"


# Text that exercises every escape: quotes, backslashes, control
# characters, U+2028 and U+2029, which JSON leaves raw, and non-ASCII.
ESCAPE_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u2029é渡🙂'),
                                st.characters()))


@st.composite
def escaping_logs(draw) -> DebateLog:
    """A log of zero or more turns, valid or not, with every string field
    drawn from ``ESCAPE_TEXT`` and zero, one or several targets."""
    turns = tuple(
        DebateTurn(
            turn_index=draw(st.integers(-3, 10**12)),
            agent_id=draw(ESCAPE_TEXT),
            stance=draw(st.sampled_from(tuple(Stance))),
            role=draw(st.sampled_from(tuple(DebateRole))),
            stage=draw(st.sampled_from(tuple(DebateStage))),
            text=draw(ESCAPE_TEXT),
            targets=tuple(draw(st.lists(st.integers(-3, 10**6), max_size=4))),
        )
        for _ in range(draw(st.integers(0, 4)))
    )
    return DebateLog(draw(ESCAPE_TEXT), turns)


def _one_turn_log(targets) -> DebateLog:
    turn = DebateTurn(7, "pro_0", Stance.TRUE, DebateRole.REBUTTER, REBUTTAL,
                      'say "hi"\\\u2028\x01', targets)
    return DebateLog("n\u00e9", (turn,))


class TestTranscriptWriter:
    @given(st.one_of(escaping_logs(), valid_logs()))
    @example(DebateLog("empty", ()))
    @example(_one_turn_log(()))
    @example(_one_turn_log((0,)))
    @example(_one_turn_log((0, 2, 5)))
    def test_equals_json_dumps(self, log):
        assert log_to_json(log) == reference_log_json(log)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPinnedTranscriptBytes:
    """Golden digests of log_to_json: any change to prompt wording, turn
    order, roles, agent ids or reply links shows up here."""

    PIN_NEWS = NewsItem(
        "pin-1", "Officials say the harbor ferry will resume service on Monday after repairs."
    )

    @pytest.mark.parametrize("config, digest", [
        (DebateConfig(), "d74df676071c6ad9ed641ecbee7b5375ffa1db6475a45b619323a4a23dfa2d93"),
        (DebateConfig(history_char_budget=300),
         "47d550098c30338019f59d67bdeb055a3a3a096ac1144993d2fd25813d7a552b"),
    ], ids=["default", "short_history"])
    def test_mock_debate(self, config, digest, mock_gateway):
        log = run_debate(self.PIN_NEWS, config, mock_gateway)
        assert _sha256(log_to_json(log)) == digest

    def test_mixed_language_debate_and_report(self, mock_gateway):
        """Chinese mixed with English, so the mock backend splits words of
        non-ASCII prompts, and the report in Chinese."""
        news = NewsItem("pin-cn", "官方表示，港口渡轮 will resume service 周一 after repairs（维修）.")
        log = run_debate(news, DebateConfig(), mock_gateway)
        report = synthesize(log, mock_gateway, language="cn")
        assert _sha256(log_to_json(log) + report_to_json(report)) == (
            "b4ef1a2c8dff886f2c9d9a79cd7849c543caac50c43166dd64b53283105b2165")

    @pytest.mark.parametrize("task, digest", [
        ("stance", "22fdc16e7c535039606a46a6b71a1323c3b7a76a60696b87da03c63594045253"),
        ("role", "e982d30a441da3555f4d59df0e2d85b9aeea9a4ccb468e89cb8d70f59f7afde7"),
    ], ids=["stance", "role"])
    def test_synthetic_corpus(self, task, digest):
        logs = make_synthetic_corpus(n_train=4, n_test=2, seed=0, task=task).logs
        assert _sha256("".join(log_to_json(logs[k]) for k in sorted(logs))) == digest


class RecordingGateway:
    """A gateway wrapper that keeps the digest of every request."""

    def __init__(self, inner):
        self.inner, self.digests = inner, []

    def generate(self, req):
        self.digests.append(req.digest)
        return self.inner.generate(req)


# Each debate setting, with a value other than its default.
CHANGED_DEBATE_SETTINGS = {"temperature": 0.2, "max_tokens": 50, "seed": 1,
                           "history_char_budget": 300, "language": "cn"}


def test_every_debate_setting_changes_a_request(news_item, mock_gateway):
    """A setting that changed no request of a debate and its report would
    change no output; each one changes at least one."""
    settings = {f.name for f in dataclasses.fields(DebateConfig)} | {
        f.name for f in dataclasses.fields(PipelineConfig) if f.metadata["section"] == "debate"}
    assert settings == set(CHANGED_DEBATE_SETTINGS)

    def digests(config: PipelineConfig) -> list[str]:
        gateway = RecordingGateway(mock_gateway)
        log = run_debate(news_item, config.debate_config(), gateway)
        synthesize(log, gateway, config.language, config.debate_config())
        return gateway.digests

    default = digests(PipelineConfig())
    assert len(default) == 9
    for name, value in CHANGED_DEBATE_SETTINGS.items():
        assert digests(PipelineConfig(**{name: value})) != default, name
