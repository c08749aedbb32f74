"""Ansible task YAML parsing: module name, options, task-level directives.

A task is a mapping whose first key that is not a known task keyword names the
module (optionally as a three-segment fully qualified collection name); the
module key's mapping holds the options, and sibling keys are directives.  The
keyword list is configurable since no module catalog is shipped.

Each parsed task keeps its source lines, dedented to column zero with the list
dash blanked, so tasks cut from different nesting depths compare line-by-line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Any, Iterable

import yaml

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Standard task keywords; "tag" is accepted as an alias of "tags" on input.
# Extend via config when a playbook uses keywords not listed here.
DEFAULT_DIRECTIVE_KEYS: tuple[str, ...] = (
    "name",
    "block",
    "rescue",
    "always",
    "tags",
    "tag",
    "register",
    "loop",
    "with_items",
    "become",
    "become_user",
    "when",
    "vars",
    "args",
    "delegate_to",
    "notify",
    "environment",
    "ignore_errors",
    "until",
    "retries",
    "delay",
    "changed_when",
    "failed_when",
)

_SEGMENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

RAW_PARAMS_KEY = "_raw_params"


class TaskParseError(ValueError):
    pass


class YamlSyntax(TaskParseError):
    def __init__(self, message: str, line: int | None = None):
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{suffix}")
        self.line = line


class NotATaskShape(TaskParseError):
    pass


class BadModuleKey(TaskParseError):
    pass


@dataclass(frozen=True, slots=True)
class ModuleName:
    """Module identifier: one segment (short) or three (namespace.collection.module)."""

    segments: tuple[str, ...]

    def __str__(self) -> str:
        return ".".join(self.segments)


def parse_module_name(key: str) -> ModuleName:
    """Split a module key on dots; only short (1) and FQCN (3) forms are valid."""
    segments = tuple(key.split("."))
    if len(segments) not in (1, 3) or not all(_SEGMENT_RE.match(s) for s in segments):
        raise BadModuleKey(f"not a short or fully qualified module key: {key!r}")
    return ModuleName(segments)


def short_name(module: ModuleName) -> str:
    return module.segments[-1]


@dataclass(frozen=True)
class AnsibleTask:
    """One parsed task.

    ``raw_lines`` are the task's source lines dedented to column zero (the
    list-item dash replaced by spaces), trailing blank lines stripped.
    ``name_span`` is the half-open raw_lines index range of the name entry,
    when present, so diffs can exclude the user-authored name line.
    """

    name: str | None
    module: ModuleName | None
    options: dict[str, Any]
    directives: dict[str, Any]
    raw_lines: tuple[str, ...]
    name_span: tuple[int, int] | None = None

    def body_lines(self) -> list[str]:
        """Task lines minus the name entry, trailing whitespace trimmed.

        The result is cached on the instance; treat it as read-only.
        """
        cached = self.__dict__.get("_body_lines")
        if cached is None:
            if self.name_span is None:
                cached = [line.rstrip() for line in self.raw_lines]
            else:
                lo, hi = self.name_span
                cached = [
                    line.rstrip()
                    for i, line in enumerate(self.raw_lines)
                    if not lo <= i < hi
                ]
            object.__setattr__(self, "_body_lines", cached)
        return cached

    def with_name(self, name: str) -> "AnsibleTask":
        return replace(self, name=name)


def canonical(value: Any) -> Any:
    """Hashable canonical form: mappings get a stable key order, lists keep theirs.

    Cosmetic YAML differences (key order, 5.0 vs 5) collapse; genuine type
    differences (the string "0644" vs the int 420) do not.
    """
    if isinstance(value, dict):
        return tuple(sorted((str(k), canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def canonical_options(task: AnsibleTask) -> dict[str, Any]:
    cached = task.__dict__.get("_canonical_options")
    if cached is None:
        cached = {key: canonical(value) for key, value in task.options.items()}
        object.__setattr__(task, "_canonical_options", cached)
    return cached


def parse_tasks(text: str, directive_keys: Iterable[str] | None = None) -> list[AnsibleTask]:
    """Parse every task in a task list, a play's ``tasks:`` section, or a bare fragment.

    Raises YamlSyntax for unparseable text and NotATaskShape for valid YAML
    that is not task-like.
    """
    directives = frozenset(directive_keys) if directive_keys is not None else frozenset(
        DEFAULT_DIRECTIVE_KEYS
    )
    loader = _Loader(text)
    try:
        try:
            root = loader.get_single_node()
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            line = mark.line + 1 if mark is not None else None
            raise YamlSyntax(f"invalid YAML: {getattr(exc, 'problem', exc)}", line) from None

        if root is None or (
            isinstance(root, yaml.ScalarNode) and root.tag == "tag:yaml.org,2002:null"
        ):
            return []
        text_lines = text.splitlines()
        task_nodes = _collect_task_nodes(root)
        return [_task_from_node(node, loader, text_lines, directives) for node in task_nodes]
    finally:
        loader.dispose()


def _collect_task_nodes(root) -> list:
    if isinstance(root, yaml.SequenceNode):
        items = root.value
        if not items:
            return []
        if not all(isinstance(item, yaml.MappingNode) for item in items):
            raise NotATaskShape("list elements must be task mappings")
        if all(_mapping_value(item, "tasks") is not None for item in items):
            nodes = []
            for play in items:
                nodes.extend(_play_task_nodes(_mapping_value(play, "tasks")))
            return nodes
        return items
    if isinstance(root, yaml.MappingNode):
        tasks_node = _mapping_value(root, "tasks")
        if tasks_node is not None:
            return _play_task_nodes(tasks_node)
        return [root]
    raise NotATaskShape(f"document is not task-shaped: {type(root).__name__}")


def _play_task_nodes(tasks_node) -> list:
    if not isinstance(tasks_node, yaml.SequenceNode):
        raise NotATaskShape("'tasks' section must be a list")
    if not all(isinstance(item, yaml.MappingNode) for item in tasks_node.value):
        raise NotATaskShape("'tasks' entries must be task mappings")
    return list(tasks_node.value)


def _mapping_value(node: "yaml.MappingNode", key: str):
    for key_node, value_node in node.value:
        if isinstance(key_node, yaml.ScalarNode) and key_node.value == key:
            return value_node
    return None


def _node_line_span(node, n_text_lines: int) -> tuple[int, int]:
    start = node.start_mark.line
    end = node.end_mark.line
    if node.end_mark.column > 0:
        end += 1
    return start, min(max(end, start + 1), n_text_lines)


def _dedent_task_lines(lines: list[str], indent: int) -> list[str]:
    """Shift a task's lines to column zero; the first line's dash becomes spaces."""
    if indent <= 0:
        return list(lines)
    out = []
    pad = " " * indent
    for idx, line in enumerate(lines):
        if idx == 0 and line[:indent].rstrip().endswith("-"):
            line = pad + line[indent:]
        out.append(line[indent:] if line.startswith(pad) else line.lstrip())
    return out


def _task_from_node(node, loader, text_lines: list[str], directives: frozenset[str]) -> AnsibleTask:
    if not isinstance(node, yaml.MappingNode):
        raise NotATaskShape("task entry is not a mapping")

    start, end = _node_line_span(node, len(text_lines))
    raw = _dedent_task_lines(text_lines[start:end], node.start_mark.column)
    while raw and not raw[-1].strip():
        raw.pop()

    name: str | None = None
    name_span: tuple[int, int] | None = None
    module: ModuleName | None = None
    options: dict[str, Any] = {}
    directive_map: dict[str, Any] = {}

    for key_node, value_node in node.value:
        if not isinstance(key_node, yaml.ScalarNode):
            raise NotATaskShape("task keys must be scalars")
        key = key_node.value
        if not isinstance(key, str):
            raise NotATaskShape("task keys must be strings")

        if key == "name":
            value = loader.construct_object(value_node, deep=True)
            name = "" if value is None else str(value)
            lo = key_node.start_mark.line - start
            hi_line, hi_end = _node_line_span(value_node, len(text_lines))
            name_span = (lo, max(hi_end - start, lo + 1))
            continue
        if key in directives:
            stored = "tags" if key == "tag" else key
            directive_map[stored] = loader.construct_object(value_node, deep=True)
            continue
        if module is not None:
            raise NotATaskShape(f"second module key {key!r} next to {module}")
        module = parse_module_name(key)
        body = loader.construct_object(value_node, deep=True)
        if body is None:
            options = {}
        elif isinstance(body, dict):
            bad = [k for k in body if not isinstance(k, str)]
            if bad:
                raise NotATaskShape(f"module option keys must be strings: {bad!r}")
            options = body
        else:
            # free-form module body ("command: ls -la")
            options = {RAW_PARAMS_KEY: body}

    if module is None and "block" not in directive_map:
        raise NotATaskShape("task has no module key and no 'block' directive")

    return AnsibleTask(
        name=name,
        module=module,
        options=options,
        directives=directive_map,
        raw_lines=tuple(raw),
        name_span=name_span,
    )
