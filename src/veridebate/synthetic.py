"""Synthetic corpora with planted, learnable signals.

Two task flavors, both producing default-protocol eight-turn debates
through the engine's one speaking loop (``engine.speak``), which plants
each turn's text:

* ``stance`` - the team matching the ground-truth label argues with
  distinctive marker vocabulary, so pooled text content alone separates
  the classes. Used for the basic separability checks.
* ``role`` - every log contains the same marker word the same number of
  times; only WHICH team's turns carry it depends on the label. All
  turns share one filler text and the logs carry no reference edges, so
  reversing the turn chain is a graph isomorphism that maps each class
  onto the other for any model blind to roles: text and structure alone
  carry zero label signal, and only role-aware node features separate
  the classes. That is what the role-embedding ablation leans on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

from .domain import LABEL_FAKE, LABEL_REAL, DebateLog, DebateStage, NewsItem, Stance
from .engine import log_to_json, speak
from .evaluation import Dataset
from .files import atomic_write

# The filler of each stage's speaking role, indexed by stage value.
_STAGE_FILLER = (
    "we open the case with a careful reading of the claim and its context",
    "we put direct questions to the other side about sourcing and chronology",
    "we answer the questions point by point and return to the evidence",
    "we close by weighing what survived scrutiny in this exchange",
)

_REAL_MARKERS = ("corroborated", "documented", "bylined", "archived", "datelined")
_FAKE_MARKERS = ("doctored", "recycled", "unattributed", "stitched", "backdated")
_ROLE_MARKER = "brightline"

_NOISE_WORDS = (
    "meanwhile", "allegedly", "reportedly", "nearby", "yesterday", "downtown",
    "officials", "residents", "footage", "statement", "spokesperson", "weather",
    "traffic", "festival", "budget", "council", "harbor", "museum", "orchard",
    "pipeline", "stadium", "voltage", "quarry", "lantern", "compass", "ledger",
    "gondola", "parapet", "trellis", "zeppelin",
)

_TOPICS = (
    "a bridge closure on the east side",
    "a recall of bottled spring water",
    "an unexpected museum donation",
    "a power outage at the stadium",
    "a new ferry line across the harbor",
    "a city council budget vote",
    "a library expansion downtown",
    "a storm warning for the coast",
)


@dataclass(frozen=True)
class SyntheticCorpus:
    dataset: Dataset
    logs: dict[str, DebateLog]
    task: str


def _noise(rng: random.Random, k: int) -> str:
    return " ".join(rng.choice(_NOISE_WORDS) for _ in range(k))


def _stance_turn_text(rng: random.Random, stage: DebateStage, stance: Stance,
                      label: int) -> str:
    filler = _STAGE_FILLER[stage]
    # The team matching the truth argues in marker vocabulary; the other
    # team gets a single weak counter-marker.
    matching = (label == LABEL_REAL and stance is Stance.TRUE) or (
        label == LABEL_FAKE and stance is Stance.FAKE
    )
    own_markers = _REAL_MARKERS if stance is Stance.TRUE else _FAKE_MARKERS
    count = 3 if matching else 1
    markers = " ".join(rng.choice(own_markers) for _ in range(count))
    return f"{filler}; the record looks {markers} {_noise(rng, 3)}"

_SHARED_FILLER = "the panel weighs the statement and its provenance with care"


def _role_turn_text(rng: random.Random, stage: DebateStage, stance: Stance,
                    label: int) -> str:
    carrier = Stance.TRUE if label == LABEL_REAL else Stance.FAKE
    marker = f" {_ROLE_MARKER} {_ROLE_MARKER}" if stance is carrier else ""
    return f"{_SHARED_FILLER}{marker} {_noise(rng, 4)}"


def _news_content(rng: random.Random, index: int, label: int, task: str) -> str:
    topic = rng.choice(_TOPICS)
    if task == "stance":
        marker = rng.choice(_REAL_MARKERS if label == LABEL_REAL else _FAKE_MARKERS)
        return f"report {index}: {topic}, described as {marker} {_noise(rng, 2)}"
    return f"report {index}: {topic} {_noise(rng, 2)}"


def _make_log(news_id: str, rng: random.Random, label: int, task: str) -> DebateLog:
    text_fn = _stance_turn_text if task == "stance" else _role_turn_text
    log = speak(news_id, lambda stage, stance, turns: text_fn(rng, stage, stance, label))
    if task == "stance":
        return log
    # No reference edges in the role task: the bare chain is symmetric
    # under reversal, which is what removes every structural route to the
    # label.
    return DebateLog(news_id, tuple(replace(t, targets=()) for t in log.turns))


def make_synthetic_corpus(n_train: int = 500, n_test: int = 200, n_val: int = 0,
                          seed: int = 0, task: str = "stance") -> SyntheticCorpus:
    if task not in ("stance", "role"):
        raise ValueError(f"task must be 'stance' or 'role', got {task!r}")
    sizes = (("train", n_train), ("val", n_val), ("test", n_test))
    items: list[NewsItem] = []
    logs: dict[str, DebateLog] = {}
    index = 0
    for split, size in sizes:
        for k in range(size):
            label = LABEL_REAL if k % 2 == 0 else LABEL_FAKE
            rng = random.Random(f"{seed}:{task}:{index}")
            news_id = f"syn-{index:05d}"
            items.append(
                NewsItem(
                    id=news_id,
                    content=_news_content(rng, index, label, task),
                    label=label,
                    split=split,
                )
            )
            logs[news_id] = _make_log(news_id, rng, label, task)
            index += 1
    return SyntheticCorpus(dataset=Dataset(items=tuple(items)), logs=logs, task=task)


def write_transcripts(corpus: SyntheticCorpus, transcripts_dir: str | Path) -> None:
    """Persist the corpus logs in the standard transcript layout so a
    pipeline run picks them up instead of generating debates."""
    for news_id, log in corpus.logs.items():
        atomic_write(Path(transcripts_dir) / f"{news_id}.json", log_to_json(log))
