"""The synthesis step: turn a finished debate into a written report.

The report prompt walks the judge through a fixed five-point checklist
(specific verifiable details, reliable sourcing, tone and style,
emotional language, cross-channel confirmation) over the full
transcript. A lightweight keyword heuristic extracts a diagnostic
verdict lean from the report text; it never overrides the classifier.
"""

from __future__ import annotations

import json
import re

from .domain import DebateConfig, DebateLog, SummaryReport, VerdictHint, validate_log
from .engine import build_request, format_history
from .gateway import GenerationRequest

CHECKLIST_EN = (
    "Whether the news contains specific details and verifiable information.",
    "Whether the news cites reliable sources or news organizations.",
    "The tone and style of the news, with real news generally being more objective and neutral.",
    "Any use of emotional language, which might be a characteristic of fake news.",
    "Whether the information in the news can be confirmed through other reliable channels.",
)

CHECKLIST_CN = (
    "新闻是否包含具体细节和可核实的信息。",
    "新闻是否引用了可靠的来源或新闻机构。",
    "新闻的语气和文风，真实新闻通常更加客观中立。",
    "是否使用了情绪化语言，这可能是假新闻的特征。",
    "新闻中的信息能否通过其他可靠渠道得到证实。",
)

SYNTHESIS_TEMPLATES = {"en": "synthesis_en", "cn": "synthesis_cn"}


def build_synthesis_prompt(log: DebateLog, language: str = "en",
                           config: DebateConfig = DebateConfig()) -> GenerationRequest:
    template_id = SYNTHESIS_TEMPLATES.get(language)
    if template_id is None:
        raise ValueError(f"unsupported language {language!r}")
    return build_request(template_id, config,
                         history=format_history(log.turns, config.history_char_budget))


# Each lean's cues, searched for once per report: English phrases share
# one pair of word boundaries, so a search tries them only at a boundary;
# Chinese ones match anywhere.
_REAL_CUES = re.compile(
    r"\b(?:likely (?:true|real|genuine|authentic)"
    r"|appears (?:to be )?(?:true|real|genuine|authentic)"
    r"|news is (?:true|real|credible|authentic)|probably (?:true|real)|leans real"
    r"|well[- ]sourced)\b|属实|可信")
_FAKE_CUES = re.compile(
    r"\b(?:likely (?:fake|false|fabricated)|appears (?:to be )?(?:fake|false|fabricated)"
    r"|news is (?:fake|false|fabricated|misleading)|probably (?:fake|false)|leans fake"
    r"|misinformation|hoax)\b|虚假|捏造")

_HINT_OF = {hint.value: hint for hint in VerdictHint}


def parse_verdict_hint(report_text: str) -> VerdictHint:
    """Keyword heuristic over the report body; conflicting or absent
    signals both map to undecided."""
    if not report_text or not report_text.strip():
        raise ValueError("report text is empty")
    lowered = report_text.lower()
    real = _REAL_CUES.search(lowered) is not None
    fake = _FAKE_CUES.search(lowered) is not None
    if real and not fake:
        return VerdictHint.LEANS_REAL
    if fake and not real:
        return VerdictHint.LEANS_FAKE
    return VerdictHint.UNDECIDED


def synthesize(log: DebateLog, gateway, language: str = "en",
               config: DebateConfig = DebateConfig()) -> SummaryReport:
    """Produce the report for one debate. The log must be valid."""
    violations = validate_log(log)
    if violations:
        raise ValueError(f"cannot synthesize an invalid log: {violations}")
    request = build_synthesis_prompt(log, language, config)
    response = gateway.generate(request)
    return SummaryReport(
        news_id=log.news_id,
        text=response.text,
        verdict_hint=parse_verdict_hint(response.text),
    )


def report_to_json(report: SummaryReport) -> str:
    data = {
        "news_id": report.news_id,
        "text": report.text,
        "verdict_hint": report.verdict_hint.value if report.verdict_hint else None,
    }
    return json.dumps(data, ensure_ascii=False, sort_keys=True, indent=2)


def report_from_json(text: str) -> SummaryReport:
    data = json.loads(text)
    hint = data.get("verdict_hint")
    return SummaryReport(
        news_id=data["news_id"],
        text=data["text"],
        verdict_hint=_HINT_OF[hint] if hint else None,
    )
