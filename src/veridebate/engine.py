"""The debate protocol and the engine that runs it.

``PROTOCOL`` states, per stage, the prompt template, the earlier turns
the speaker hears and the earlier turns the new turn links to; the role
that speaks in each stage is ``domain.STAGE_ROLES``. ``SPEAKING_ORDER``
states the fixed order of the eight turns: two agents per team, each team
speaking once per stage. ``speak`` is the one loop over that order: it
builds a log from any source of turn texts, the gateway's replies in
``run_debate`` (which also validates the log) or the planted texts of the
synthetic corpora. Prompt wording lives in editable text assets under
``templates/``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

from .domain import (
    STAGES,
    STAGE_LABELS,
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
from .gateway import GenerationRequest, GenerationSettings


class EngineError(Exception):
    pass


class PromptError(EngineError):
    """A template placeholder could not be resolved."""


class MissingStageError(EngineError):
    """The debate history lacks turns a stage prompt depends on."""


@dataclass(frozen=True)
class StageRule:
    """One stage of the protocol. ``hears`` selects the earlier turns
    quoted into the prompt as ``{history}``, ``targets`` those the new
    turn links to, each as (stage, side) pairs where side is "own",
    "opponent" or "both", seen from the speaker. Every template may also
    quote the news item as ``{news}``; only the opening's does."""

    template_id: str
    hears: tuple[tuple[DebateStage, str], ...]
    targets: tuple[tuple[DebateStage, str], ...]


PROTOCOL = {
    DebateStage.OPENING: StageRule("opening", hears=(), targets=()),
    # A question links back to its own team's opening, the position under
    # examination; a rebuttal links to the question it answers.
    DebateStage.CROSS_EXAMINATION: StageRule(
        "cross_exam",
        hears=((DebateStage.OPENING, "opponent"),), targets=((DebateStage.OPENING, "own"),)),
    DebateStage.REBUTTAL: StageRule(
        "rebuttal",
        hears=((DebateStage.CROSS_EXAMINATION, "opponent"),),
        targets=((DebateStage.CROSS_EXAMINATION, "opponent"),)),
    # Closings hear the whole debate before them, never each other.
    DebateStage.CLOSING: StageRule(
        "closing",
        hears=tuple((stage, "both") for stage in STAGES[:DebateStage.CLOSING]), targets=()),
}


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


# The speaking order as (stage, stance, agent_id) slots: one slot per team
# per stage, Proponent first. Each team's two agents take the stages in
# turn; only the transcript's agent_id tells them apart.
SPEAKING_ORDER = tuple((stage, stance, f"{stance.team}_{stage.value % 2}")
                       for stage in STAGES for stance in (Stance.TRUE, Stance.FAKE))


def _select(pairs: tuple[tuple[DebateStage, str], ...], stance: Stance,
            turns: Sequence[DebateTurn]) -> list[DebateTurn]:
    """The turns, in log order, that match one of the (stage, side)
    pairs as seen from ``stance``."""
    sides = {"own": (stance,), "opponent": (stance.opponent,), "both": tuple(Stance)}
    wanted = {(stage, s) for stage, side in pairs for s in sides[side]}
    return [t for t in turns if (t.stage, t.stance) in wanted]


def stage_targets(stage: DebateStage, stance: Stance,
                  turns: Sequence[DebateTurn]) -> tuple[int, ...]:
    """The turn indices a new ``stage`` turn by ``stance`` links to."""
    return tuple(t.turn_index for t in _select(PROTOCOL[stage].targets, stance, turns))


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


def stage_prompt(stage: DebateStage, stance: Stance, news: NewsItem,
                 turns: Sequence[DebateTurn], config: DebateConfig) -> GenerationRequest:
    """The prompt for ``stance``'s speaker in ``stage``, given the turns
    spoken so far. Every earlier stage must hold a turn from each side."""
    present = {(t.stage, t.stance) for t in turns}
    for earlier in STAGES[:stage]:
        for each in Stance:
            if (earlier, each) not in present:
                raise MissingStageError(
                    f"history lacks a {STAGE_LABELS[earlier]} turn from the "
                    f"{each.team} side"
                )
    rule = PROTOCOL[stage]
    return build_request(
        rule.template_id,
        config,
        news=news.content,
        stance=stance.value,
        role=STAGE_ROLES[stage].display,
        history=format_history(_select(rule.hears, stance, turns), config.history_char_budget),
    )


def speak(news_id: str,
          text_of: Callable[[DebateStage, Stance, Sequence[DebateTurn]], str]) -> DebateLog:
    """The log of one debate in ``SPEAKING_ORDER``. Each turn's text is
    ``text_of(stage, stance, turns)``, given the turns spoken before it;
    its role and reply links follow from the protocol."""
    turns: list[DebateTurn] = []
    for stage, stance, agent_id in SPEAKING_ORDER:
        turns.append(DebateTurn(len(turns), agent_id, stance, STAGE_ROLES[stage], stage,
                                text_of(stage, stance, turns),
                                stage_targets(stage, stance, turns)))
    return DebateLog(news_id=news_id, turns=tuple(turns))


def run_debate(news: NewsItem, config: DebateConfig, gateway) -> DebateLog:
    """Run one full debate and return its validated log.

    Strictly sequential: each prompt embeds only text from earlier
    stages. Gateway failures propagate; no partial log is ever returned.
    """
    log = speak(news.id, lambda stage, stance, turns: gateway.generate(
        stage_prompt(stage, stance, news, turns, config)).text)
    violations = validate_log(log)
    if violations:
        raise EngineError(f"generated log is invalid: {violations}")
    return log


# --------------------------------------------------------------------------
# Log serialization (the on-disk transcript format)
# --------------------------------------------------------------------------

# Members by value, stages by name: no Enum lookup, and an unknown one is a KeyError.
_STANCE_OF = {stance.value: stance for stance in Stance}
_ROLE_OF = {role.value: role for role in DebateRole}
_STAGE_OF = {stage.name: stage for stage in DebateStage}


def log_to_json(log: DebateLog) -> str:
    data = {
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
    return json.dumps(data, ensure_ascii=False, sort_keys=True, indent=2)


def log_from_json(text: str) -> DebateLog:
    """The log ``log_to_json`` wrote. A turn index or target that is not a
    JSON integer is a ValueError: a float or a boolean would pass
    ``validate_log`` and then fail as an array index in the encode stage."""
    data = json.loads(text)
    turns = []
    for t in data["turns"]:
        index, targets = t["turn_index"], tuple(t["targets"])
        if type(index) is not int or not {int}.issuperset(map(type, targets)):
            raise ValueError(f"turn index {index!r} or targets {targets!r} not all integers")
        # Filled as the generated __init__ fills it, at a third of the cost.
        turn = object.__new__(DebateTurn)
        fields = turn.__dict__
        fields["turn_index"] = index
        fields["agent_id"] = t["agent_id"]
        fields["stance"] = _STANCE_OF[t["stance"]]
        fields["role"] = _ROLE_OF[t["role"]]
        fields["stage"] = _STAGE_OF[t["stage"].upper()]
        fields["text"] = t["text"]
        fields["targets"] = targets
        turns.append(turn)
    return DebateLog(news_id=data["news_id"], turns=turns)
