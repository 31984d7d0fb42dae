"""Core vocabulary shared by the whole pipeline.

News items, stances, debate roles and stages with the one role that
speaks in each stage, single turns, full debate logs, summary reports,
and the sampling and debate settings live here, together with the
validity rules that every other module relies on.
"""

from __future__ import annotations

import enum
import math
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
    # No stage speaks it (``STAGE_ROLES``), so a turn that claims it is
    # invalid. It stays because the model's role table draws one row pair
    # per member: dropping it would move every block's initial values.
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

# The one role that speaks in each stage, indexed by stage value.
# Answers to cross-examination are folded into the Rebuttal stage.
STAGE_ROLES = (
    DebateRole.OPENING_SPEAKER,
    DebateRole.QUESTIONER,
    DebateRole.REBUTTER,
    DebateRole.CLOSING_SPEAKER,
)


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
        if not isinstance(self.content, str):
            raise ValueError(f"news {self.id!r}: content must be a string, "
                             f"got {type(self.content).__name__}")
        if not self.content.strip():
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
        # engine.log_from_json fills turns without __init__ and casts them so too.
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
class GenerationSettings:
    """The sampling settings of one generation request."""

    temperature: float = 0.7
    max_tokens: int = 300
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class DebateConfig(GenerationSettings):
    """Knobs for running a debate: the sampling settings of every request
    and the character budget of a prompt's quoted history. Who speaks
    when is fixed (``STAGE_ROLES``, ``engine.SPEAKING_ORDER``)."""

    history_char_budget: int = 6000

    def __post_init__(self):
        super().__post_init__()
        if self.history_char_budget < 1:
            raise ValueError("history_char_budget must be >= 1")


def validate_log(log: DebateLog) -> list[str]:
    """Check every debate-log invariant; return the violations found.

    An empty list means the log is valid. Violations are data, not
    faults: each message names the offending turn index and rule. It
    takes one pass over the turns and hashes no plain ``Enum`` member.
    """
    violations: list[str] = []
    sides = [0] * len(STAGES)  # per stage: 1 if the true side spoke, | 2 if the fake side
    for i, turn in enumerate(log.turns):
        stage = turn.stage
        sides[stage] |= 1 if turn.stance is Stance.TRUE else 2
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
        if turn.role is not STAGE_ROLES[stage]:
            violations.append(
                f"role {turn.role.value} illegal in stage {STAGE_LABELS[stage]} at turn {i}"
            )
        if i > 0 and stage < log.turns[i - 1].stage:
            violations.append(f"stage regression at turn {i}")

    missing = [f"missing stage {STAGE_LABELS[stage]}" for stage in STAGES if not sides[stage]]
    for stage, present in zip(STAGES, sides):
        for stance, bit in ((Stance.TRUE, 1), (Stance.FAKE, 2)):
            if present and not present & bit:
                violations.append(f"stage {STAGE_LABELS[stage]} missing stance {stance.value}")
    return missing + violations
