"""The debate state machine.

Plans the stage/role/stance speaking order, renders the per-stage
prompts, sequences turns through the four stages against a generation
gateway, and emits a validated DebateLog. Prompt wording lives in
editable text assets under ``templates/``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .domain import (
    STAGES,
    STAGE_LABELS,
    DebateConfig,
    DebateLog,
    DebateRole,
    DebateStage,
    DebateTurn,
    NewsItem,
    Stance,
    validate_log,
)
from .gateway import GenerationRequest, GenerationSettings


class EngineError(Exception):
    pass


class PromptError(EngineError):
    """A template placeholder could not be resolved."""


class MissingStageError(EngineError):
    """The debate history lacks turns a stage prompt depends on."""


# The one speaking role per stage in the default protocol.
STAGE_ROLE = {
    DebateStage.OPENING: DebateRole.OPENING_SPEAKER,
    DebateStage.CROSS_EXAMINATION: DebateRole.QUESTIONER,
    DebateStage.REBUTTAL: DebateRole.REBUTTER,
    DebateStage.CLOSING: DebateRole.CLOSING_SPEAKER,
}

TEMPLATE_IDS = ("opening", "cross_exam", "rebuttal", "closing")


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    system_text: str
    user_text: str

    def render(self, **values: str) -> tuple[str, str]:
        try:
            return self.system_text.format(**values), self.user_text.format(**values)
        except (KeyError, IndexError) as exc:
            raise PromptError(
                f"template {self.template_id!r}: unresolved placeholder {exc}"
            ) from exc


@functools.cache
def load_template(template_id: str) -> PromptTemplate:
    """Load a template asset, once per id; the system and user parts are
    separated by a line containing only ``---``. A missing or malformed
    template raises PromptError (errors are not cached)."""
    try:
        raw = (
            resources.files("veridebate")
            .joinpath("templates", f"{template_id}.txt")
            .read_text(encoding="utf-8")
        )
    except FileNotFoundError as exc:
        raise PromptError(f"no template {template_id!r}") from exc
    system_text, sep, user_text = raw.partition("\n---\n")
    if not sep:
        raise PromptError(f"template {template_id!r} lacks a system/user separator")
    return PromptTemplate(template_id, system_text.strip(), user_text.strip())


@dataclass(frozen=True)
class SpeakerSlot:
    stance: Stance
    role: DebateRole
    agent_slot: int

    @property
    def agent_id(self) -> str:
        return f"{self.stance.team}_{self.agent_slot}"


@dataclass(frozen=True)
class StagePlan:
    stage: DebateStage
    slots: tuple[SpeakerSlot, ...]


def plan_debate(config: DebateConfig) -> list[StagePlan]:
    """Lay out the full speaking order: four stages, one slot per team
    per stage, Proponent first. Roles are spread round-robin over each
    team's roster."""
    plans = []
    for stage in STAGES:
        role = STAGE_ROLE[stage]
        agent_slot = stage.value % config.agents_per_team
        plans.append(StagePlan(stage, (SpeakerSlot(Stance.TRUE, role, agent_slot),
                                       SpeakerSlot(Stance.FAKE, role, agent_slot))))
    return plans


def one_line_abstract(text: str, width: int = 100) -> str:
    """Deterministic one-line stand-in for a turn that no longer fits
    the history budget."""
    line = text.strip().splitlines()[0] if text.strip() else ""
    if len(line) > width:
        line = line[: width - 3].rstrip() + "..."
    return line


def format_history(turns: Sequence[DebateTurn], char_budget: int | None = None) -> str:
    """Render turns as transcript blocks.

    When the rendered text exceeds ``char_budget``, the oldest turns are
    collapsed head-first to one-line abstracts until it fits (or until
    every turn is abstracted).
    """

    def block(turn: DebateTurn, text: str) -> str:
        return (
            f"[{STAGE_LABELS[turn.stage]} | {turn.stance.team} side | "
            f"{turn.role.display}] {text}"
        )

    texts = [turn.text for turn in turns]
    rendered = "\n\n".join(block(t, x) for t, x in zip(turns, texts))
    if char_budget is None or len(rendered) <= char_budget:
        return rendered
    for i in range(len(turns)):
        texts[i] = one_line_abstract(turns[i].text)
        rendered = "\n\n".join(block(t, x) for t, x in zip(turns, texts))
        if len(rendered) <= char_budget:
            break
    return rendered


def build_request(template_id: str, config: DebateConfig, **values: str) -> GenerationRequest:
    """The system + user request rendered from a prompt template, with
    the sampling settings of ``config``."""
    system_text, user_text = load_template(template_id).render(**values)
    return GenerationRequest(
        messages=(("system", system_text), ("user", user_text)),
        settings=GenerationSettings(
            temperature=config.temperature, max_tokens=config.max_tokens, seed=config.seed
        ),
    )


def _as_turns(history: DebateLog | Sequence[DebateTurn]) -> tuple[DebateTurn, ...]:
    if isinstance(history, DebateLog):
        return history.turns
    return tuple(history)


def _require_stage(turns: Sequence[DebateTurn], stage: DebateStage) -> None:
    for stance in Stance:
        if not any(t.stage is stage and t.stance is stance for t in turns):
            raise MissingStageError(
                f"history lacks a {STAGE_LABELS[stage]} turn from the "
                f"{stance.team} side"
            )


def build_opening_prompt(news: NewsItem, stance: Stance,
                         config: DebateConfig = DebateConfig()) -> GenerationRequest:
    if not news.content.strip():
        raise ValueError(f"news {news.id!r}: content is empty")
    return build_request(
        "opening",
        config,
        news=news.content,
        stance=stance.value,
        role=STAGE_ROLE[DebateStage.OPENING].display,
    )


def build_cross_exam_prompt(history: DebateLog | Sequence[DebateTurn], stance: Stance,
                            config: DebateConfig = DebateConfig()) -> GenerationRequest:
    """Prompt a questioner with the opposing team's opening statements."""
    turns = _as_turns(history)
    _require_stage(turns, DebateStage.OPENING)
    opposing = [
        t for t in turns
        if t.stage is DebateStage.OPENING and t.stance is stance.opponent
    ]
    return build_request(
        "cross_exam",
        config,
        stance=stance.value,
        role=STAGE_ROLE[DebateStage.CROSS_EXAMINATION].display,
        history=format_history(opposing, config.history_char_budget),
    )


def build_rebuttal_prompt(history: DebateLog | Sequence[DebateTurn], stance: Stance,
                          config: DebateConfig = DebateConfig()) -> GenerationRequest:
    """Prompt a rebutter with the opposing team's cross-examination."""
    turns = _as_turns(history)
    _require_stage(turns, DebateStage.OPENING)
    _require_stage(turns, DebateStage.CROSS_EXAMINATION)
    opposing = [
        t for t in turns
        if t.stage is DebateStage.CROSS_EXAMINATION and t.stance is stance.opponent
    ]
    return build_request(
        "rebuttal",
        config,
        stance=stance.value,
        role=STAGE_ROLE[DebateStage.REBUTTAL].display,
        history=format_history(opposing, config.history_char_budget),
    )


def build_closing_prompt(history: DebateLog | Sequence[DebateTurn], stance: Stance,
                         config: DebateConfig = DebateConfig()) -> GenerationRequest:
    """Prompt a closing speaker with the accumulated transcript of the
    three earlier stages (never same-stage closing turns)."""
    turns = _as_turns(history)
    for stage in (DebateStage.OPENING, DebateStage.CROSS_EXAMINATION, DebateStage.REBUTTAL):
        _require_stage(turns, stage)
    prior = [t for t in turns if t.stage < DebateStage.CLOSING]
    return build_request(
        "closing",
        config,
        stance=stance.value,
        role=STAGE_ROLE[DebateStage.CLOSING].display,
        history=format_history(prior, config.history_char_budget),
    )


def _targets_for(stage: DebateStage, stance: Stance,
                 turns: Sequence[DebateTurn]) -> tuple[int, ...]:
    # A question links back to its team's opening statement (the position
    # under examination); a rebuttal links to the opposing question it
    # answers; closings link to nothing.
    if stage is DebateStage.CROSS_EXAMINATION:
        return tuple(
            t.turn_index for t in turns
            if t.stage is DebateStage.OPENING and t.stance is stance
        )
    if stage is DebateStage.REBUTTAL:
        return tuple(
            t.turn_index for t in turns
            if t.stage is DebateStage.CROSS_EXAMINATION and t.stance is stance.opponent
        )
    return ()


def _prompt_for(stage: DebateStage, news: NewsItem, turns: Sequence[DebateTurn],
                stance: Stance, config: DebateConfig) -> GenerationRequest:
    if stage is DebateStage.OPENING:
        return build_opening_prompt(news, stance, config)
    if stage is DebateStage.CROSS_EXAMINATION:
        return build_cross_exam_prompt(turns, stance, config)
    if stage is DebateStage.REBUTTAL:
        return build_rebuttal_prompt(turns, stance, config)
    return build_closing_prompt(turns, stance, config)


def run_debate(news: NewsItem, config: DebateConfig, gateway) -> DebateLog:
    """Run one full debate and return its validated log.

    Strictly sequential: each prompt embeds only text from earlier
    stages. Gateway failures propagate; no partial log is ever returned.
    """
    turns: list[DebateTurn] = []
    for plan in plan_debate(config):
        for slot in plan.slots:
            request = _prompt_for(plan.stage, news, turns, slot.stance, config)
            response = gateway.generate(request)
            turns.append(
                DebateTurn(
                    turn_index=len(turns),
                    agent_id=slot.agent_id,
                    stance=slot.stance,
                    role=slot.role,
                    stage=plan.stage,
                    text=response.text,
                    targets=_targets_for(plan.stage, slot.stance, turns),
                )
            )
    log = DebateLog(news_id=news.id, turns=tuple(turns))
    violations = validate_log(log)
    if violations:
        raise EngineError(f"generated log is invalid: {violations}")
    return log


# --------------------------------------------------------------------------
# Log serialization (the on-disk transcript format)
# --------------------------------------------------------------------------


def log_to_dict(log: DebateLog) -> dict:
    return {
        "news_id": log.news_id,
        "turns": [
            {
                "turn_index": t.turn_index,
                "agent_id": t.agent_id,
                "stance": t.stance.value,
                "role": t.role.value,
                "stage": t.stage.key,
                "text": t.text,
                "targets": list(t.targets),
            }
            for t in log.turns
        ],
    }


def log_from_dict(data: dict) -> DebateLog:
    turns = tuple(
        DebateTurn(
            turn_index=t["turn_index"],
            agent_id=t["agent_id"],
            stance=Stance(t["stance"]),
            role=DebateRole(t["role"]),
            stage=DebateStage[t["stage"].upper()],
            text=t["text"],
            targets=tuple(t["targets"]),
        )
        for t in data["turns"]
    )
    return DebateLog(news_id=data["news_id"], turns=turns)


def log_to_json(log: DebateLog) -> str:
    return json.dumps(log_to_dict(log), ensure_ascii=False, sort_keys=True, indent=2)


def log_from_json(text: str) -> DebateLog:
    return log_from_dict(json.loads(text))
