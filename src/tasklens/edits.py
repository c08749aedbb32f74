"""Join suggestion/action/content events into outcomes and classify the edits.

Each suggestion event is joined with its action (by suggestion id) and, for
accepted suggestions, the nearest subsequent content snapshot of the same
user.  The committed form of the task is located in that snapshot, diffed
line-wise against the shown task body, and the outcome classified by edit
fraction.  The user-authored name line never counts toward the diff.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import NamedTuple

from .config import Config
from .events import (
    ActionEvent, CompletionEvent, ContentEvent, SuggestionEvent, UserAction, UserTimeline
)
from .gestalt import MatchBudgetExceeded
from .gestalt import edit_fraction as gestalt_edit_fraction
from .gestalt import similarity_ratio
from .taskparse import (
    AnsibleTask, TaskMemo, TaskParseError, name_value, parse_tasks, short_name
)

# Directive keys whose addition counts as YAML reorganization.
REORG_DIRECTIVE_KEYS = frozenset({"block", "tags", "register", "loop", "become"})

COMMAND_SHELL_MODULES = frozenset({"command", "shell"})


class Category(Enum):
    FULLY_ACCEPTED = "fully_accepted"
    MINOR_EDIT = "minor_edit"
    MAJOR_EDIT = "major_edit"
    DELETED_AFTER_ACCEPT = "deleted_after_accept"
    UNRESOLVED = "unresolved"
    REJECTED = "rejected"
    IGNORED = "ignored"

    __hash__ = object.__hash__  # see events.UserAction


class MinorSubcategory(Enum):
    VALUE_ONLY = "value_only"
    KEY_ONLY = "key_only"
    KEY_AND_VALUE = "key_and_value"
    OPTION_ADDED = "option_added"
    OPTION_REMOVED = "option_removed"
    MIXED = "mixed"

    __hash__ = object.__hash__  # see events.UserAction


class ModuleEditTag(Enum):
    FQCN_SHORTENED = "fqcn_shortened"
    REORGANIZATION = "reorganization"
    COMMAND_SHELL = "command_shell"
    SIMILAR_MODULE = "similar_module"
    OTHER = "other"

    __hash__ = object.__hash__  # see events.UserAction


class Verdict(NamedTuple):
    """What the committed form of a shown task says about it.  Every outcome
    of one (shown task, snapshot) pair holds the same Verdict object."""

    category: Category
    edit_fraction: float | None = None
    committed_task: AnsibleTask | None = None
    module_changed: bool = False
    minor_subcategory: MinorSubcategory | None = None
    module_edit_tags: frozenset[ModuleEditTag] = frozenset()
    doc_unparseable: bool = False


# The verdicts without a committed task.
_REJECTED = Verdict(Category.REJECTED)
_IGNORED = Verdict(Category.IGNORED)
_UNRESOLVED = Verdict(Category.UNRESOLVED)
_UNPARSEABLE_DOC = Verdict(Category.UNRESOLVED, doc_unparseable=True)
_DELETED = Verdict(Category.DELETED_AFTER_ACCEPT)


class SuggestionOutcome:
    """One suggestion, its decision, and the verdict on its committed form.

    Built by pair_outcomes without a verdict; classify_outcome sets it in place.
    """

    __slots__ = (
        "suggestion_id", "user_id", "shown_task", "decision", "suggestion_lines",
        "suggestion_tokens", "committed_doc", "verdict",
    )

    suggestion_id: str
    user_id: str
    shown_task: AnsibleTask
    decision: UserAction
    suggestion_lines: int
    suggestion_tokens: int
    committed_doc: str | None
    verdict: Verdict | None

    def __init__(
        self, suggestion_id, user_id, shown_task, decision, suggestion_lines, suggestion_tokens,
        committed_doc=None, verdict=None,
    ):
        self.suggestion_id = suggestion_id
        self.user_id = user_id
        self.shown_task = shown_task
        self.decision = decision
        self.suggestion_lines = suggestion_lines
        self.suggestion_tokens = suggestion_tokens
        self.committed_doc = committed_doc
        self.verdict = verdict

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        slots = self.__slots__
        return [getattr(self, s) for s in slots] == [getattr(other, s) for s in slots]


class PairingResult(NamedTuple):
    outcomes: list[SuggestionOutcome]
    orphan_actions: int
    unparseable_suggestions: int


class TaskCache:
    """Memoizes parse_tasks per exact text; telemetry repeats texts heavily.

    A text that does not parse is kept as None: the cache holds results only,
    never an error object.  Each miss parses with the cache's one ``TaskMemo``
    (see there), so the snapshots of one playbook share their work.

    Above the parses sit two tables: the shown task of each (suggestion text,
    prompt) pair, and the verdict on each (shown task, snapshot) pair.  Texts
    parse with ``config.directive_keys`` and verdicts hold under ``config``.
    """

    def __init__(self, config: Config):
        self.config = config
        self._hits: dict[str, tuple[AnsibleTask, ...] | None] = {}
        self._memo = TaskMemo()
        self._shown: dict[tuple[str, str | None], AnsibleTask | None] = {}
        self._verdicts: dict[tuple[int, str], tuple[AnsibleTask, Verdict]] = {}

    def parse(self, text: str) -> tuple[AnsibleTask, ...] | None:
        """The tasks of ``text``, or None when it does not parse."""
        try:
            return self._hits[text]
        except KeyError:
            pass
        try:
            tasks = tuple(parse_tasks(text, self.config.directive_keys, self._memo))
        except TaskParseError:
            tasks = None
        self._hits[text] = tasks
        return tasks

    def shown_task(self, text: str, prompt: str | None) -> AnsibleTask | None:
        """The single task of a suggestion text, named from its prompt when the
        text names none; None unless the text parses as exactly one task.
        Each (text, prompt) pair gets one task object."""
        key = (text, prompt)
        try:
            return self._shown[key]
        except KeyError:
            pass
        tasks = self.parse(text)
        task = tasks[0] if tasks is not None and len(tasks) == 1 else None
        if task is not None and task.name is None and prompt is not None:
            name = name_from_prompt(prompt)
            if name is not None:
                task = task.with_name(name)
        self._shown[key] = task
        return task

    def verdict(self, shown: AnsibleTask, document: str) -> Verdict:
        """``classify_pair(shown, self.parse(document), self.config)``, computed
        once per pair."""
        # The entry holds ``shown``, so no other task can take its id meanwhile.
        key = (id(shown), document)
        try:
            return self._verdicts[key][1]
        except KeyError:
            pass
        verdict = classify_pair(shown, self.parse(document), self.config)
        self._verdicts[key] = (shown, verdict)
        return verdict


def name_from_prompt(prompt: str) -> str | None:
    """The task name of a prompt line like ``- name: Install nginx``, read as
    the committed task's name line is read (quotes and a comment dropped)."""
    stripped = prompt.strip()
    if stripped.startswith("-"):
        stripped = stripped[1:].lstrip()
    if stripped.startswith("name:"):
        stripped = stripped[len("name:"):].strip()
    return (name_value(stripped) or None) if stripped else None


def pair_outcomes(timeline: UserTimeline, cache: TaskCache) -> PairingResult:
    """Pre-classification pairing of suggestions with actions and content.

    The first action on a suggestion id decides it; an accepted one takes the
    document of the next snapshot after that action.  Suggestions with no
    action are Ignored; actions whose suggestion id never appears are counted
    as orphans.  Suggestion texts that do not parse as exactly one task are
    dropped and counted.
    """
    prompts: dict[str, str] = {}
    actions: dict[str, UserAction] = {}
    committed: dict[str, str] = {}  # accepted sid -> the next snapshot's document
    waiting: list[str] = []  # accepted sids with no snapshot yet
    suggestions: list[SuggestionEvent] = []

    for event in timeline.events:
        cls = type(event)
        if cls is SuggestionEvent:
            suggestions.append(event)
        elif cls is CompletionEvent:
            prompts.setdefault(event.suggestion_id, event.prompt)
        elif cls is ActionEvent:
            if event.suggestion_id not in actions:
                actions[event.suggestion_id] = event.action
                if event.action is UserAction.ACCEPTED:
                    waiting.append(event.suggestion_id)
        elif cls is ContentEvent and waiting:
            for sid in waiting:
                committed[sid] = event.document_text
            waiting.clear()

    suggestion_ids = {event.suggestion_id for event in suggestions}
    orphan_actions = sum(1 for sid in actions if sid not in suggestion_ids)
    outcomes: list[SuggestionOutcome] = []
    unparseable = 0
    for event in suggestions:
        sid = event.suggestion_id
        shown = cache.shown_task(event.suggestion_text, prompts.get(sid))
        if shown is None:
            unparseable += 1
            continue
        outcomes.append(SuggestionOutcome(
            sid, timeline.user_id, shown, actions.get(sid, UserAction.IGNORED),
            event.line_count, event.token_count, committed.get(sid),
        ))
    return PairingResult(outcomes, orphan_actions, unparseable)


def match_committed_task(
    shown: AnsibleTask,
    doc_tasks: tuple[AnsibleTask, ...] | list[AnsibleTask],
    rename_match_floor: float,
) -> AnsibleTask | None:
    """Locate the committed form of a shown task in a document snapshot.

    Name equality wins (the name is user-authored, so it survives body edits);
    otherwise the best line-similarity candidate above the floor, the first
    one on a tie.  None means the task is absent, i.e. deleted after
    acceptance.
    """
    if shown.name is not None:
        for task in doc_tasks:
            if task.name == shown.name:
                return task
    shown_lines = shown.stripped_lines
    shown_set = set(shown_lines)
    best: AnsibleTask | None = None
    best_ratio = 0.0
    for task in doc_tasks:
        lines = task.stripped_lines
        total = len(shown_lines) + len(lines)
        # Every matched line of the candidate is one of the shown lines, so
        # this bounds its ratio; only a strictly greater ratio replaces the best.
        if total and 2.0 * sum(map(shown_set.__contains__, lines)) / total <= best_ratio:
            continue
        ratio = similarity_ratio(shown_lines, lines)
        if ratio > best_ratio:
            best, best_ratio = task, ratio
    if best is not None and best_ratio >= rename_match_floor:
        return best
    return None


def classify_outcome(outcome: SuggestionOutcome, cache: TaskCache) -> SuggestionOutcome:
    """Set the outcome's verdict in place."""
    if outcome.decision is UserAction.REJECTED:
        outcome.verdict = _REJECTED
    elif outcome.decision is UserAction.IGNORED:
        outcome.verdict = _IGNORED
    elif outcome.committed_doc is None:
        outcome.verdict = _UNRESOLVED
    else:
        outcome.verdict = cache.verdict(outcome.shown_task, outcome.committed_doc)
    return outcome


def classify_pair(
    shown: AnsibleTask, doc_tasks: tuple[AnsibleTask, ...] | None, config: Config
) -> Verdict:
    """The verdict on an accepted task and the tasks of the snapshot after it
    (None when the snapshot does not parse)."""
    if doc_tasks is None:
        return _UNPARSEABLE_DOC
    try:
        committed = match_committed_task(shown, doc_tasks, config.rename_match_floor)
        if committed is None:
            return _DELETED
        shown_body = shown.body_lines
        committed_body = committed.body_lines
        fraction = (
            0.0 if shown_body == committed_body
            else gestalt_edit_fraction(shown_body, committed_body)
        )
    except MatchBudgetExceeded:
        # A pair too large to compare within the budget has no edit fraction.
        return _UNRESOLVED
    shown_short = short_name(shown.module) if shown.module else None
    committed_short = short_name(committed.module) if committed.module else None
    module_changed = shown_short != committed_short

    if fraction == 0.0:
        category = Category.FULLY_ACCEPTED
    elif fraction < config.minor_major_threshold:
        category = Category.MINOR_EDIT
    else:
        category = Category.MAJOR_EDIT
    subcategory = (
        minor_subcategory(shown, committed)
        if category is Category.MINOR_EDIT and not module_changed else None
    )
    tags = (
        module_edit_tags(shown, committed, config)
        if shown.module != committed.module else frozenset()
    )
    return Verdict(category, fraction, committed, module_changed, subcategory, tags)


def minor_subcategory(shown: AnsibleTask, committed: AnsibleTask) -> MinorSubcategory | None:
    """Which parts of the options map moved: values, keys, both, or the set itself.

    None when the options are structurally identical (the edit was cosmetic or
    outside the module body).
    """
    before = shown.canonical_options
    after = committed.canonical_options
    added = set(after) - set(before)
    removed = set(before) - set(after)
    common_changed = {k for k in set(before) & set(after) if before[k] != after[k]}

    if not added and not removed:
        return MinorSubcategory.VALUE_ONLY if common_changed else None
    if added and removed:
        if len(added) != len(removed) or common_changed:
            return MinorSubcategory.MIXED
        if Counter(after[k] for k in added) == Counter(before[k] for k in removed):
            return MinorSubcategory.KEY_ONLY
        return MinorSubcategory.KEY_AND_VALUE
    if common_changed:
        return MinorSubcategory.MIXED
    return MinorSubcategory.OPTION_ADDED if added else MinorSubcategory.OPTION_REMOVED


def module_edit_tags(
    shown: AnsibleTask, committed: AnsibleTask, config: Config
) -> frozenset[ModuleEditTag]:
    """Tag a module-level edit; tags may overlap, 'other' only stands alone."""
    tags: set[ModuleEditTag] = set()
    s_mod, c_mod = shown.module, committed.module
    s_short = short_name(s_mod) if s_mod else None
    c_short = short_name(c_mod) if c_mod else None

    if (
        s_mod is not None
        and c_mod is not None
        and c_mod.segments != s_mod.segments
        and c_mod.segments == (short_name(s_mod),)
    ):
        tags.add(ModuleEditTag.FQCN_SHORTENED)

    added_directives = set(committed.directives) - set(shown.directives)
    if added_directives & REORG_DIRECTIVE_KEYS:
        tags.add(ModuleEditTag.REORGANIZATION)

    module_changed = s_short != c_short
    if module_changed and s_short is not None and c_short is not None:
        if s_short in COMMAND_SHELL_MODULES or c_short in COMMAND_SHELL_MODULES:
            tags.add(ModuleEditTag.COMMAND_SHELL)
        for cls in config.similar_modules:
            if s_short in cls and c_short in cls:
                tags.add(ModuleEditTag.SIMILAR_MODULE)
                break
    if module_changed and not tags:
        tags.add(ModuleEditTag.OTHER)
    return frozenset(tags)


def analyze_timeline(timeline: UserTimeline, cache: TaskCache) -> PairingResult:
    """pair + classify for one user; the result holds the classified outcomes."""
    paired = pair_outcomes(timeline, cache)
    for outcome in paired.outcomes:
        classify_outcome(outcome, cache)
    return paired
