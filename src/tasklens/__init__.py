"""tasklens: batch analytics for code-completion telemetry logs.

Ingests JSONL event logs from an Ansible-task completion service and reports
usage profiles, N-day retention, acceptance and strong-acceptance rates,
line-level edit analysis of accepted suggestions, module-edit categories, and
user-feedback aggregates.
"""

from .config import BadConfig, Config, load_config
from .events import (
    ActionEvent, CompletionEvent, ContentEvent, FeedbackEvent, RawEvent, SuggestionEvent,
    UserTimeline, build_timelines, deduplicate, parse_event_line, read_events,
)
from .gestalt import edit_fraction, matching_blocks
from .metrics import (
    AcceptanceSummary,
    RetentionCurve,
    TemporalProfile,
    acceptance_summary,
    retention_curve,
    returning_user_cohort,
    temporal_profile,
)
from .report import AnalysisReport, render_report, run_pipeline
from .taskparse import AnsibleTask, ModuleName, parse_module_name, parse_tasks, short_name

__version__ = "0.1.0"

__all__ = [
    "AcceptanceSummary",
    "ActionEvent",
    "AnalysisReport",
    "AnsibleTask",
    "BadConfig",
    "CompletionEvent",
    "Config",
    "ContentEvent",
    "FeedbackEvent",
    "ModuleName",
    "RawEvent",
    "RetentionCurve",
    "SuggestionEvent",
    "TemporalProfile",
    "UserTimeline",
    "acceptance_summary",
    "build_timelines",
    "deduplicate",
    "edit_fraction",
    "load_config",
    "matching_blocks",
    "parse_event_line",
    "parse_module_name",
    "parse_tasks",
    "read_events",
    "render_report",
    "retention_curve",
    "returning_user_cohort",
    "run_pipeline",
    "short_name",
    "temporal_profile",
]
