import pytest
from hypothesis import given, settings

from oracles import reference_validate_log
from strategies import mutated_logs, valid_logs
from veridebate.domain import (
    DebateConfig,
    DebateLog,
    DebateRole,
    DebateStage,
    DebateTurn,
    NewsItem,
    Stance,
    label_to_int,
    validate_log,
)
from veridebate.graph import adjacency_mask, edges_for_log


def make_turn(i, stance, role, stage, text="some words", targets=()):
    return DebateTurn(i, f"{stance.team}_0", stance, role, stage, text, targets)


def default_protocol_turns():
    spec = [
        (Stance.TRUE, DebateRole.OPENING_SPEAKER, DebateStage.OPENING, ()),
        (Stance.FAKE, DebateRole.OPENING_SPEAKER, DebateStage.OPENING, ()),
        (Stance.TRUE, DebateRole.QUESTIONER, DebateStage.CROSS_EXAMINATION, (0,)),
        (Stance.FAKE, DebateRole.QUESTIONER, DebateStage.CROSS_EXAMINATION, (1,)),
        (Stance.TRUE, DebateRole.REBUTTER, DebateStage.REBUTTAL, (3,)),
        (Stance.FAKE, DebateRole.REBUTTER, DebateStage.REBUTTAL, (2,)),
        (Stance.TRUE, DebateRole.CLOSING_SPEAKER, DebateStage.CLOSING, ()),
        (Stance.FAKE, DebateRole.CLOSING_SPEAKER, DebateStage.CLOSING, ()),
    ]
    return tuple(make_turn(i, s, r, st, targets=t) for i, (s, r, st, t) in enumerate(spec))


class TestValidateLog:
    def test_complete_eight_turn_log_is_ok(self):
        log = DebateLog("n1", default_protocol_turns())
        assert validate_log(log) == []

    def test_empty_log_reports_missing_opening(self):
        violations = validate_log(DebateLog("n1", ()))
        assert "missing stage Opening" in violations

    def test_forward_reference_is_reported(self):
        turns = list(default_protocol_turns())
        turns[3] = make_turn(
            3, Stance.FAKE, DebateRole.QUESTIONER, DebateStage.CROSS_EXAMINATION,
            targets=(5,),
        )
        violations = validate_log(DebateLog("n1", tuple(turns)))
        assert "forward reference at turn 3" in violations

    def test_empty_text_reported_with_index(self):
        turns = list(default_protocol_turns())
        turns[2] = make_turn(
            2, Stance.TRUE, DebateRole.QUESTIONER, DebateStage.CROSS_EXAMINATION,
            text="   ",
        )
        assert "empty text at turn 2" in validate_log(DebateLog("n1", tuple(turns)))

    def test_role_stage_mismatch_reported(self):
        turns = list(default_protocol_turns())
        turns[0] = make_turn(0, Stance.TRUE, DebateRole.REBUTTER, DebateStage.OPENING)
        violations = validate_log(DebateLog("n1", tuple(turns)))
        assert any("rebutter" in v and "turn 0" in v for v in violations)

    def test_responder_rebuttal_turn_reported(self):
        turns = list(default_protocol_turns())
        turns[4] = make_turn(4, Stance.TRUE, DebateRole.RESPONDER, DebateStage.REBUTTAL,
                             targets=(3,))
        violations = validate_log(DebateLog("n1", tuple(turns)))
        assert violations == ["role responder illegal in stage Rebuttal at turn 4"]

    def test_stage_regression_reported(self):
        turns = list(default_protocol_turns())
        turns[7] = make_turn(7, Stance.FAKE, DebateRole.OPENING_SPEAKER, DebateStage.OPENING)
        violations = validate_log(DebateLog("n1", tuple(turns)))
        assert any("stage regression" in v for v in violations)

    def test_missing_stance_in_stage_reported(self):
        turns = list(default_protocol_turns())
        turns[1] = make_turn(1, Stance.TRUE, DebateRole.OPENING_SPEAKER, DebateStage.OPENING)
        violations = validate_log(DebateLog("n1", tuple(turns)))
        assert "stage Opening missing stance fake" in violations

    def test_noncontiguous_indices_reported(self):
        turns = list(default_protocol_turns())
        turns[4] = make_turn(9, Stance.TRUE, DebateRole.REBUTTER, DebateStage.REBUTTAL)
        violations = validate_log(DebateLog("n1", tuple(turns)))
        assert any("contiguous" in v for v in violations)


@given(valid_logs())
def test_valid_logs_sort_identity(log):
    order = sorted(range(len(log.turns)), key=lambda i: (log.turns[i].stage, i))
    assert order == list(range(len(log.turns)))
    assert validate_log(log) == []


@given(valid_logs())
def test_valid_log_builds_a_graph(log):
    n = len(log.turns)
    mask = adjacency_mask(edges_for_log(log), n)
    assert mask.shape == (n, n) and mask.diagonal().all()


@settings(max_examples=300)
@given(mutated_logs())
def test_validate_log_matches_the_set_based_reference(log):
    assert validate_log(log) == reference_validate_log(log)


def test_mutated_logs_reach_every_rule():
    """The property above is only as strong as its logs: across a fixed
    run of the strategy, every kind of violation occurs."""
    kinds = ("missing stage", "contiguous", "empty text", "target out of range",
             "forward reference", "illegal in stage", "stage regression", "missing stance")
    seen = set()

    @settings(max_examples=300, database=None, derandomize=True)
    @given(mutated_logs())
    def collect(log):
        seen.update(kind for kind in kinds for v in validate_log(log) if kind in v)

    collect()
    assert seen == set(kinds)


class TestDomainTypes:
    def test_news_item_rejects_blank_content(self):
        with pytest.raises(ValueError):
            NewsItem(id="x", content="   \n ")

    @pytest.mark.parametrize("content", [5, None, ["text"], b"bytes"])
    def test_news_item_rejects_non_string_content(self, content):
        with pytest.raises(ValueError, match="content must be a string"):
            NewsItem(id="x", content=content)

    def test_news_item_rejects_bad_label(self):
        with pytest.raises(ValueError):
            NewsItem(id="x", content="text", label=3)

    def test_debate_config_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            DebateConfig(temperature=-0.1)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
    def test_debate_config_rejects_non_finite_temperature(self, temperature):
        with pytest.raises(ValueError, match="temperature must be finite"):
            DebateConfig(temperature=temperature)

    def test_stance_teams_and_opponents(self):
        assert Stance.TRUE.team == "pro"
        assert Stance.FAKE.team == "opp"
        assert Stance.TRUE.opponent is Stance.FAKE

    @pytest.mark.parametrize(
        "raw,expected",
        [("real", 0), ("fake", 1), ("Real", 0), (0, 0), (1, 1), ("1", 1)],
    )
    def test_label_normalization(self, raw, expected):
        assert label_to_int(raw) == expected

    def test_label_rejects_unknown(self):
        with pytest.raises(ValueError):
            label_to_int("maybe")

    def test_targets_normalized_to_tuple(self):
        turn = make_turn(2, Stance.TRUE, DebateRole.QUESTIONER,
                         DebateStage.CROSS_EXAMINATION, targets=[0, 1])
        assert turn.targets == (0, 1)
