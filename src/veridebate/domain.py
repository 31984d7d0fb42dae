"""Core vocabulary shared by the whole pipeline.

News items, stances, debate roles and stages, single turns, full debate
logs, summary reports, and the debate configuration live here, together
with the validity rules that every other module relies on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

# Label convention used everywhere: loaders, metrics, classifier outputs.
LABEL_REAL = 0
LABEL_FAKE = 1
LABEL_NAMES = {LABEL_REAL: "real", LABEL_FAKE: "fake"}


def label_to_int(value) -> int:
    """Normalize a label given as "real"/"fake" or 0/1 to the int convention."""
    if isinstance(value, bool):
        raise ValueError(f"ambiguous label {value!r}")
    if isinstance(value, int):
        if value in (LABEL_REAL, LABEL_FAKE):
            return value
        raise ValueError(f"label int must be 0 (real) or 1 (fake), got {value}")
    if isinstance(value, str):
        name = value.strip().lower()
        if name in ("real", "0"):
            return LABEL_REAL
        if name in ("fake", "1"):
            return LABEL_FAKE
    raise ValueError(f"unrecognized label {value!r}")


class Stance(enum.Enum):
    """Side of the debate: the Proponent team argues the news is true,
    the Opponent team argues it is fake."""

    TRUE = "true"
    FAKE = "fake"

    @property
    def team(self) -> str:
        return "pro" if self is Stance.TRUE else "opp"

    @property
    def opponent(self) -> "Stance":
        return Stance.FAKE if self is Stance.TRUE else Stance.TRUE


class DebateRole(enum.Enum):
    OPENING_SPEAKER = "opening_speaker"
    QUESTIONER = "questioner"
    RESPONDER = "responder"
    REBUTTER = "rebutter"
    CLOSING_SPEAKER = "closing_speaker"

    @property
    def display(self) -> str:
        return self.value.replace("_", " ")


class DebateStage(enum.IntEnum):
    """The four stages of a debate, totally ordered by value."""

    OPENING = 0
    CROSS_EXAMINATION = 1
    REBUTTAL = 2
    CLOSING = 3

    @property
    def key(self) -> str:
        return self.name.lower()


STAGES = tuple(DebateStage)

STAGE_LABELS = {
    DebateStage.OPENING: "Opening",
    DebateStage.CROSS_EXAMINATION: "CrossExamination",
    DebateStage.REBUTTAL: "Rebuttal",
    DebateStage.CLOSING: "Closing",
}

# Which stage each role may speak in. Answers to cross-examination are
# folded into the Rebuttal stage, so the Responder role lives there too.
ROLE_STAGE = {
    DebateRole.OPENING_SPEAKER: DebateStage.OPENING,
    DebateRole.QUESTIONER: DebateStage.CROSS_EXAMINATION,
    DebateRole.RESPONDER: DebateStage.REBUTTAL,
    DebateRole.REBUTTER: DebateStage.REBUTTAL,
    DebateRole.CLOSING_SPEAKER: DebateStage.CLOSING,
}


class VerdictHint(enum.Enum):
    """Diagnostic lean parsed from a summary report; never overrides the
    trained classifier."""

    LEANS_REAL = "leans_real"
    LEANS_FAKE = "leans_fake"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class NewsItem:
    """A news text to debate. ``label`` uses the 0=real / 1=fake convention
    and may be absent at inference time."""

    id: str
    content: str
    label: int | None = None
    split: str | None = None

    def __post_init__(self):
        # The id names the item's files (transcripts/<id>.json, ...).
        if self.id in ("", ".", "..") or any(c in self.id for c in "/\\\0"):
            raise ValueError(f"news id {self.id!r} cannot be used as a file name")
        if not self.content or not self.content.strip():
            raise ValueError(f"news {self.id!r}: content is empty")
        if self.label is not None and self.label not in (LABEL_REAL, LABEL_FAKE):
            raise ValueError(f"news {self.id!r}: label must be 0 or 1, got {self.label!r}")
        if self.split is not None and self.split not in ("train", "val", "test"):
            raise ValueError(f"news {self.id!r}: unknown split {self.split!r}")


@dataclass(frozen=True)
class DebateTurn:
    """One utterance in a debate.

    ``targets`` holds the turn indices this turn responds to, kept
    machine-readable so graph construction never has to re-parse text.
    Local invariants (non-empty text, backward-only targets, role/stage
    consistency) are checked by ``validate_log``, not at construction,
    so malformed turns can be represented and reported.
    """

    turn_index: int
    agent_id: str
    stance: Stance
    role: DebateRole
    stage: DebateStage
    text: str
    targets: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True)
class DebateLog:
    """The ordered record of all turns in one debate."""

    news_id: str
    turns: tuple[DebateTurn, ...]

    def __post_init__(self):
        object.__setattr__(self, "turns", tuple(self.turns))

    def __len__(self) -> int:
        return len(self.turns)


@dataclass(frozen=True)
class SummaryReport:
    """The synthesis agent's written assessment of a debate."""

    news_id: str
    text: str
    verdict_hint: VerdictHint | None = None

    def __post_init__(self):
        if not self.text or not self.text.strip():
            raise ValueError(f"report for {self.news_id!r}: text is empty")


@dataclass(frozen=True)
class DebateConfig:
    """Knobs for running a debate.

    ``agents_per_team`` sets the team roster size; one agent per team
    speaks in each stage regardless, with roles assigned round-robin
    across the roster.
    """

    agents_per_team: int = 2
    temperature: float = 0.7
    max_tokens: int = 300
    seed: int = 0
    history_char_budget: int = 6000

    def __post_init__(self):
        if self.agents_per_team < 1:
            raise ValueError("agents_per_team must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.history_char_budget < 1:
            raise ValueError("history_char_budget must be >= 1")


def validate_log(log: DebateLog) -> list[str]:
    """Check every debate-log invariant; return the violations found.

    An empty list means the log is valid. Violations are data, not
    faults: each message names the offending turn index and rule.
    """
    violations: list[str] = []
    turns = log.turns

    present_stages = {t.stage for t in turns}
    for stage in STAGES:
        if stage not in present_stages:
            violations.append(f"missing stage {STAGE_LABELS[stage]}")

    for i, turn in enumerate(turns):
        if turn.turn_index != i:
            violations.append(
                f"turn_index {turn.turn_index} at position {i} breaks contiguous ordering"
            )
        if not turn.text or not turn.text.strip():
            violations.append(f"empty text at turn {i}")
        for target in turn.targets:
            if target < 0:
                violations.append(f"target out of range at turn {i}")
            elif target >= turn.turn_index:
                violations.append(f"forward reference at turn {i}")
        if ROLE_STAGE[turn.role] is not turn.stage:
            violations.append(
                f"role {turn.role.value} illegal in stage "
                f"{STAGE_LABELS[turn.stage]} at turn {i}"
            )
        if i > 0 and turn.stage < turns[i - 1].stage:
            violations.append(f"stage regression at turn {i}")

    for stage in STAGES:
        if stage not in present_stages:
            continue
        stances = {t.stance for t in turns if t.stage is stage}
        for stance in Stance:
            if stance not in stances:
                violations.append(
                    f"stage {STAGE_LABELS[stage]} missing stance {stance.value}"
                )

    return violations
