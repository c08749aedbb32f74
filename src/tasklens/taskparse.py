"""Ansible task YAML parsing: module name, options, task-level directives.

A task is a mapping whose first key that is not a known task keyword names the
module (optionally as a three-segment fully qualified collection name); the
module key's mapping holds the options, and sibling keys are directives.  The
keyword list is configurable since no module catalog is shipped.

Each parsed task keeps its source lines, dedented to column zero with the list
dash blanked, so tasks cut from different nesting depths compare line-by-line.

Successive snapshots of one playbook repeat almost all of their tasks, so
``parse_tasks`` can take a ``TaskMemo``: it cuts the task list into its
items, parses each distinct item once, and checks the rest of the document
with a skeleton in which the whole task list is one empty placeholder.  A
repeated ``- {}`` entry leaves the parser in the state it found, so one
placeholder holds exactly when one per item would; snapshots that differ only
in their tasks share one skeleton, whose verdict the memo keeps.  The memo
also keeps the last cut: the next text's cut keeps every item start that lies
in the prefix the two texts share and scans on from the last of them, so a
snapshot that grows its list costs the lines it changed, not all its lines.
Any text the cut cannot vouch for goes through the whole-document parse,
which stays the only source of errors.

Most items and suggestions are one task in a common block shape: ``key:
value`` rows at one column, a bare key opening one nested block of options or
of list entries, and one-line scalars that resolve to strings, bools or null.
With a memo, ``_read_task`` builds such a task straight from its rows, first
for each item of the cut and then for a text the cut leaves whole.  It gives
the task the YAML path gives and refuses every other text, which then takes
the YAML path; so that path alone decides what does not parse.  Without a
memo ``parse_tasks`` is the YAML path alone.

Values, a config file's included, are built by one function: the builder
``composed`` hands out with a text's nodes.  It first refuses a hostile value
when the text may hold one, then walks the nodes: it makes strings, lists and
mappings with string keys itself and hands every other node (numbers,
booleans, dates, merge keys, sets, binary, complex keys) to PyYAML's
constructor, so the values and their errors are PyYAML's.  Like that
constructor, it builds an aliased node once and shares the result among all
the values that name it.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from contextlib import contextmanager
from functools import cached_property
from itertools import chain
from typing import Any, Iterable, NamedTuple

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

_SEGMENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

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


class BadYamlValue(TaskParseError):
    """Valid YAML whose values cannot be built (a recursive alias, an unsafe tag)."""


class ModuleName(NamedTuple):
    """Module identifier: one segment (short) or three (namespace.collection.module)."""

    segments: tuple[str, ...]

    def __str__(self) -> str:
        return ".".join(self.segments)


def parse_module_name(key: str) -> ModuleName:
    """Split a module key on dots; only short (1) and FQCN (3) forms are valid."""
    segments = tuple(key.split("."))
    if len(segments) not in (1, 3) or not all(_SEGMENT_RE.fullmatch(s) for s in segments):
        raise BadModuleKey(f"not a short or fully qualified module key: {key!r}")
    return ModuleName(segments)


def short_name(module: ModuleName) -> str:
    return module.segments[-1]


class AnsibleTask:
    """One parsed task.

    ``raw_lines`` are the task's source lines dedented to column zero (the
    list-item dash replaced by spaces), trailing blank lines stripped.
    ``name_span`` is the half-open raw_lines index range of the name entry,
    when present, so diffs can exclude the user-authored name line.  Treat a
    task as read-only; the ``__dict__`` slot holds the cached properties.
    """

    __slots__ = ("name", "module", "options", "directives", "raw_lines", "name_span", "__dict__")

    name: str | None
    module: ModuleName | None
    options: dict[str, Any]
    directives: dict[str, Any]
    raw_lines: tuple[str, ...]
    name_span: tuple[int, int] | None

    def __init__(self, name, module, options, directives, raw_lines, name_span=None):
        self.name = name
        self.module = module
        self.options = options
        self.directives = directives
        self.raw_lines = raw_lines
        self.name_span = name_span

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__slots__[:-1]  # not __dict__, which holds the cached properties
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    @cached_property
    def stripped_lines(self) -> list[str]:
        """Task lines, trailing whitespace trimmed; treat as read-only."""
        return [line.rstrip() for line in self.raw_lines]

    @cached_property
    def body_lines(self) -> list[str]:
        """Task lines minus the name entry, trailing whitespace trimmed; treat as read-only."""
        if self.name_span is None:
            return self.stripped_lines
        lo, hi = self.name_span
        return self.stripped_lines[:lo] + self.stripped_lines[hi:]

    @cached_property
    def canonical_options(self) -> dict[str, Any]:
        """The options in canonical form; treat as read-only."""
        return {key: canonical(value) for key, value in self.options.items()}

    def with_name(self, name: str) -> "AnsibleTask":
        return AnsibleTask(
            name, self.module, self.options, self.directives, self.raw_lines, self.name_span
        )


def canonical(value: Any) -> Any:
    """Hashable canonical form: mappings get a stable key order, lists keep theirs.

    Cosmetic YAML differences (key order, 5.0 vs 5) collapse; genuine type
    differences (the string "0644" vs the int 420) do not.
    """
    if isinstance(value, dict):
        # Keys such as 1 and "1" read alike; their values then decide the
        # order, by repr, because values of different types do not compare.
        return tuple(sorted(
            ((str(k), canonical(v)) for k, v in value.items()),
            key=lambda entry: (entry[0], repr(entry[1])),
        ))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, (set, frozenset)):  # a !!set
        return frozenset(canonical(v) for v in value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class TaskMemo:
    """What ``parse_tasks`` keeps across calls: ``items`` maps the exact text
    of a task-list item to its parsed task (None when the item does not parse
    alone), ``skeletons`` keeps the verdicts on the rest of each document, and
    ``cut`` is the last text's task-list cut, from which the next cut resumes.
    Item entries hold only for the directive keys they were parsed with.
    """

    __slots__ = ("items", "skeletons", "cut")

    def __init__(self) -> None:
        self.items: dict[str, AnsibleTask | None] = {}
        self.skeletons: dict[tuple[str, int, int], bool] = {}
        self.cut: _Cut | None = None


def parse_tasks(
    text: str, directive_keys: Iterable[str], memo: TaskMemo | None = None
) -> list[AnsibleTask]:
    """Parse every task in a task list, a play's ``tasks:`` section, or a bare fragment.

    Raises YamlSyntax for unparseable text, BadYamlValue for text nested too
    deeply or values that cannot be built, and NotATaskShape for valid YAML
    that is not task-like.  Pass one ``memo`` only together with the same
    ``directive_keys``; the result does not depend on it.
    """
    directives = frozenset(directive_keys)
    if memo is not None:
        tasks = _parse_by_item(text, directives, memo)
        if tasks is not None:
            return tasks
        task = _read_task(text, directives)
        if task is not None:
            return [task]
    with composed(text) as (root, build):
        if root is None or (
            isinstance(root, yaml.ScalarNode) and root.tag == "tag:yaml.org,2002:null"
        ):
            return []
        text_lines = text.splitlines()
        return [_task_from_node(node, build, text_lines, directives)
                for node in _collect_task_nodes(root)]


# Aliases let a short text name one node many times ("billion laughs": each
# level of ``&b [*a, *a]`` doubles the value), and everything downstream walks
# the built value as a tree.  A value whose aliases expand it beyond this many
# nodes is refused; a value without aliases is never refused for its size.
_MAX_EXPANDED_NODES = 10_000

# The deepest nesting of collections a value may hold.  Construction recurses
# per level, so whether a deeper value builds would depend on the caller's
# stack depth and on the Python version; it is refused instead.
_MAX_VALUE_DEPTH = 64
# Every collection opens at one of these characters: a flow "[" or "{", a
# block sequence entry's "-", a mapping entry's ":" or "?".
_COLLECTION_CHARS = "[{-:?"
# The deepest nesting of collections a text may hold.  The composers recurse
# per level, libyaml's in C (its stack overflows near 25,000 levels) and
# PyYAML's at about 2 Python frames a level, which this cap keeps far from the
# recursion limit even 500 frames deep.  It exceeds _MAX_VALUE_DEPTH plus the
# 4 levels (play list, play, task list, task) around a value, so a task item
# parses alone exactly when it parses in its document.
_MAX_TEXT_DEPTH = 100


@contextmanager
def composed(text: str):
    """Yield ``(root, build)``: the root node of ``text`` and the only builder
    of its values.  ``build(node)`` raises BadYamlValue for a value that
    cannot be built, or, when the text may hold a hostile value (it defines an
    anchor or nests deeper than _MAX_VALUE_DEPTH), one that _check_value
    refuses.  Raises YamlSyntax for unparseable text and BadYamlValue for text
    nested deeper than _MAX_TEXT_DEPTH.
    """
    # libyaml accepts some tabs that the pure-Python loader refuses; one
    # loader for such texts keeps their verdict the same on every install.
    loader_class = yaml.SafeLoader if "\t" in text else _Loader
    loader = None
    try:
        try:
            # Each level opens at a collection character, so a text with few
            # nests shallowly.  The parser keeps its own stack: no recursion.
            depth = deepest = 0
            if sum(map(text.count, _COLLECTION_CHARS)) > _MAX_VALUE_DEPTH:
                for event in yaml.parse(text, Loader=loader_class):
                    if isinstance(event, yaml.CollectionStartEvent):
                        depth += 1
                        deepest = max(deepest, depth)
                        if depth > _MAX_TEXT_DEPTH:
                            raise BadYamlValue(f"nested deeper than {_MAX_TEXT_DEPTH} levels")
                    elif isinstance(event, yaml.CollectionEndEvent):
                        depth -= 1
            # A character YAML forbids (such as "\x0c") is refused by the
            # pure-Python loader as it is made, by libyaml as it reads it.
            loader = loader_class(text)
            root = loader.get_single_node()
        except yaml.YAMLError as exc:
            raise _syntax_error(text, exc) from None
        guarded = "&" in text or deepest > _MAX_VALUE_DEPTH

        # What building a value can raise under either safe loader: YAMLError
        # for unknown tags and unhashable keys, ValueError for _check_value's
        # refusals and bad !!int/!!float/timestamp literals, IndexError for an
        # empty or sign-only !!int/!!float, KeyError for an unknown !!bool word
        # and AttributeError for a malformed !!timestamp.
        def build(node) -> Any:
            try:
                if guarded:
                    _check_value(node)
                return _value(loader, node)
            except (yaml.YAMLError, ValueError, LookupError, AttributeError) as exc:
                detail = getattr(exc, "problem", None) or exc
                raise BadYamlValue(f"cannot construct YAML value: {detail}") from None

        yield root, build
    finally:
        if loader is not None:
            loader.dispose()


# A YAML error's words come from its class, since libyaml and PyYAML word
# the same error differently.
_ERROR_WORDS = {
    yaml.scanner.ScannerError: "syntax error",
    yaml.parser.ParserError: "syntax error",
    yaml.composer.ComposerError: "undefined alias, repeated anchor or second document",
}


def _syntax_error(text: str, exc: yaml.YAMLError) -> YamlSyntax:
    """YamlSyntax for a loader's error on ``text``, worded alike for both loaders.

    The line comes from the error's offset, counted in ``text``: at the end of
    a text without a final line break libyaml's own line number is one past
    PyYAML's.  A reader error has no mark; libyaml gives its offset in bytes,
    PyYAML in characters, so its line is that of the refused character.
    """
    if isinstance(exc, yaml.reader.ReaderError):
        char = exc.character if isinstance(exc.character, str) else chr(exc.character)
        offset = text.find(char)
        message = f"unacceptable character #x{ord(char):04x}"
    else:
        mark = getattr(exc, "problem_mark", None)
        offset = -1 if mark is None else mark.index
        message = _ERROR_WORDS.get(type(exc), type(exc).__name__)
    line = text.count("\n", 0, offset) + 1 if offset >= 0 else None
    return YamlSyntax(f"invalid YAML: {message}", line)


_STR_TAG = "tag:yaml.org,2002:str"
_SEQ_TAG = "tag:yaml.org,2002:seq"
_MAP_TAG = "tag:yaml.org,2002:map"


def _value(loader, node) -> Any:
    """What ``loader.construct_object(node, deep=True)`` builds, with less work.

    A string scalar is its text, a list holds its items' values and a mapping
    whose keys are all string scalars is a dict in which the last duplicate
    key wins.  Every other node, merge (``<<``) and value (``=``) keys
    included, goes to PyYAML's constructor.  The lists and dicts go into the
    constructor's ``constructed_objects``, as its own do, so a node named by
    many aliases is built once.  The recursion stays within _MAX_VALUE_DEPTH:
    composed checks every text that could nest deeper.
    """
    tag = node.tag
    if tag == _STR_TAG and isinstance(node, yaml.ScalarNode):
        return node.value
    built = loader.constructed_objects.get(node)
    if built is not None:
        return built
    if tag == _SEQ_TAG and isinstance(node, yaml.SequenceNode):
        built = [_value(loader, child) for child in node.value]
    elif tag == _MAP_TAG and isinstance(node, yaml.MappingNode) and all(
        key.tag == _STR_TAG and isinstance(key, yaml.ScalarNode) for key, _ in node.value
    ):
        built = {key.value: _value(loader, child) for key, child in node.value}
    else:
        return loader.construct_object(node, deep=True)
    loader.constructed_objects[node] = built
    return built


def _check_value(node) -> None:
    """Raise ValueError when the value built from ``node`` nests collections
    deeper than _MAX_VALUE_DEPTH, or when its aliases expand it beyond
    max(_MAX_EXPANDED_NODES, its distinct nodes).

    The walk goes one level at a time and holds each node once per level,
    with the number of paths from ``node`` that reach it there; the sum of
    those counts is the size with every alias expanded.  So an aliased node
    costs one visit per level it appears on, and a recursive alias, which
    nests without end, meets the depth cap.
    """
    level = {id(node): (node, 1)}
    distinct: set[int] = set()
    expanded = 0
    for depth in range(_MAX_VALUE_DEPTH + 1):
        distinct.update(level)
        below: dict[int, tuple[Any, int]] = {}
        for parent, paths in level.values():
            expanded += paths
            if isinstance(parent, yaml.SequenceNode):
                children = parent.value
            elif isinstance(parent, yaml.MappingNode):
                children = chain.from_iterable(parent.value)
            else:
                continue
            if depth == _MAX_VALUE_DEPTH:
                raise ValueError(f"collections nest deeper than {_MAX_VALUE_DEPTH} levels")
            for child in children:
                entry = below.get(id(child))
                below[id(child)] = (child, paths if entry is None else entry[1] + paths)
        level = below
    if expanded > max(_MAX_EXPANDED_NODES, len(distinct)):
        raise ValueError(f"aliases expand it beyond {_MAX_EXPANDED_NODES} nodes")


# Texts the item cut does not handle: an anchor may be defined in one item and
# aliased in another, and a tab, a BOM or a line break other than "\n" makes
# PyYAML's marks disagree with the "\n" lines cut here.  A %TAG directive
# (a line starting with "%") changes how the tags inside every item resolve.
# The other characters ``str.splitlines`` breaks at ("\x0b", "\x0c",
# "\x1c" to "\x1e") need no scan: both loaders refuse them anywhere in a
# text, so an item or skeleton that holds one fails its own parse.  Seven
# substring scans run at C speed; a regex character class steps through the
# text one character at a time.
_CUT_UNSAFE_CHARS = "&\t\r\ufeff\x85\u2028\u2029"
# Line patterns start at the "\n" before the line: a literal first character
# lets the regex engine skip ahead, where "^" would be tried at every offset.
_TASKS_KEY_LINE = re.compile(r"\n *tasks:(?: +#[^\n]*| *)(?=\n|\Z)")
_CONTENT_LINE = re.compile(r"\n *[^ \n#]")  # neither blank nor a comment


def _is_item_dash(text: str, index: int) -> bool:
    return text[index] == "-" and text[index + 1:index + 2] in (" ", "\n", "")


class _Cut(NamedTuple):
    """A text's task list cut into its items.

    ``starts`` are the offsets at which the items start, in the text as in
    ``_cut_task_list``'s ``lined``, and ``items`` the items' texts.  The
    skeleton is the text with all the items replaced by one ``- {}`` line, at
    line ``first_line`` and column ``column``.
    """

    text: str
    column: int
    starts: list[int]
    items: list[str]
    skeleton: str
    first_line: int


def _common_prefix(a: str, b: str) -> int:
    """The length of the longest common prefix of ``a`` and ``b``: a binary
    search whose comparisons run at C speed over halving lengths."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if b.startswith(a[lo:mid], lo):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _cut_task_list(text: str, previous: _Cut | None = None) -> _Cut | None:
    """Cut the first task list into its items; None for a text the cut does not handle.

    The list is the one under the first ``tasks:`` line, or a top-level list.
    It ends at the first line, neither blank nor a comment, indented at or
    below its column that does not start an item.  Items keep their original
    columns, so each parses alone with the marks it has in the document.

    ``previous`` is an earlier cut, of any text.  A start of it whose line
    opening (the line break, the column's spaces, the dash and the character
    after it) lies in the prefix this text shares with its text is a start
    here too, so the scan resumes at the last such start.
    """
    # An offset in ``lined`` is one past the same character's offset in
    # ``text``, so a match of "\n" at offset p starts a line at text offset p.
    lined = "\n" + text
    # The prefix shared with ``previous.text``, which passed these scans.
    shared = 0 if previous is None else _common_prefix(previous.text, text)
    rest = text[shared:]
    if any(ch in rest for ch in _CUT_UNSAFE_CHARS) or lined.find("\n%", shared) >= 0:
        return None
    key = _TASKS_KEY_LINE.search(lined)
    first = _CONTENT_LINE.search(lined, key.end() if key else 0)
    if first is None:
        return None
    column = first.end() - first.start() - 2
    if (key is None and column) or not _is_item_dash(lined, first.end() - 1):
        return None
    starts: list[int] = []
    items: list[str] = []
    resume = first.start()
    if previous is not None and previous.column == column and previous.starts[0] == resume:
        # A start's line opening, column + 3 characters from the "\n" on,
        # must end within the shared prefix, which ends at shared + 1 in ``lined``.
        kept = bisect_right(previous.starts, shared - column - 2)
        if kept:
            starts = previous.starts[:kept - 1]
            items = previous.items[:kept - 1]
            resume = previous.starts[kept - 1]
    end = len(text)
    for line in re.compile(r"\n {0,%d}[^ \n#]" % column).finditer(lined, resume):
        if line.end() - line.start() - 2 == column and _is_item_dash(lined, line.end() - 1):
            starts.append(line.start())
        else:
            end = line.start()
            break
    items.extend(text[a:b] for a, b in zip(starts[len(items):], starts[len(items) + 1:] + [end]))
    skeleton = text[:starts[0]] + " " * column + "- {}\n" + text[end:]
    return _Cut(text, column, starts, items, skeleton, text.count("\n", 0, starts[0]))


def _parse_by_item(
    text: str, directives: frozenset[str], memo: TaskMemo
) -> list[AnsibleTask] | None:
    """The tasks of ``text`` from memoized items, or None when the whole document must be parsed."""
    cut = _cut_task_list(text, memo.cut)
    if cut is None:
        return None
    memo.cut = cut
    tasks = []
    for item in cut.items:
        try:
            task = memo.items[item]
        except KeyError:
            task = memo.items[item] = _parse_item(item, directives)
        if task is None:
            return None
        tasks.append(task)
    key = (cut.skeleton, cut.column, cut.first_line)
    holds = memo.skeletons.get(key)
    if holds is None:
        holds = memo.skeletons[key] = _skeleton_holds(*key)
    return tasks if holds else None


def _parse_item(item: str, directives: frozenset[str]) -> AnsibleTask | None:
    """One list item parsed alone, or None unless it is a single task mapping.

    An item with a ``tasks`` key is refused: in a top-level list it could
    make the whole list read as plays.
    """
    task = _read_task(item, directives)
    if task is not None:
        return task
    try:
        with composed(item) as (root, build):
            if not isinstance(root, yaml.SequenceNode) or len(root.value) != 1:
                return None
            node = root.value[0]
            if not isinstance(node, yaml.MappingNode) or _mapping_value(node, "tasks") is not None:
                return None
            return _task_from_node(node, build, item.splitlines(), directives)
    except TaskParseError:
        return None


# The block shape _read_task reads, one row per line.  No class below admits a
# character below U+00A0 that YAML does not print, a tab, or a line break that
# YAML reads and a "\n" split does not ("\r", "\x85").  A class of wider
# characters takes up to a millisecond to compile, so the rest of what YAML
# does not print, or reads as a line break or a BOM, is searched for apart and
# only in a text that is not ASCII: re's cache compiles it when one comes.
_UNREADABLE = r"\x00-\x1f\x7f-\x9f"
_WIDE_UNREADABLE = r"[\u2028\u2029\ud800-\udfff\ufeff\ufffe\uffff]"
# What may not start a plain scalar here.  YAML lets "-", "?" and ":" start
# one when a non-space follows; the reader leaves those to the loaders.
_INDICATORS = r"""\-?:,\[\]{}#&*!|>'"%@`"""
# A plain scalar on one line: no ": ", " #" or final ":", no trailing space.
# Each run of spaces or colons must be followed by a run of other characters,
# so a line splits into the runs one way only, and a refused line costs a
# backtrack linear in its length.
_PLAIN = (rf"[^ {_UNREADABLE}{_INDICATORS}][^ :{_UNREADABLE}]*"
          rf"(?:(?: +(?=[^ #]):*|:+)[^ :{_UNREADABLE}]+)*")
# A flow list's item holds no ":" or "?", on which the two loaders differ.
_FLOW_ITEM = (rf"[^ {_UNREADABLE}{_INDICATORS}][^ ,:?\[\]{{}}{_UNREADABLE}]*"
              rf"(?: +(?=[^ #])[^ ,:?\[\]{{}}{_UNREADABLE}]+)*")
_VALUE = rf"'[^'{_UNREADABLE}]*'|\[ *(?:{_FLOW_ITEM}(?: *, *{_FLOW_ITEM})*)? *\]|{_PLAIN}"
# Groups: indent, dash, key, value; a row of spaces or a lone dash matches with
# neither key nor value.  The key stays far below the 1,024 characters past
# which PyYAML refuses one.
_BLOCK_ROW = re.compile(
    rf"( *)(- )?(?:([A-Za-z_][A-Za-z0-9_.-]{{0,127}}):(?: (?=[^ ])|\Z))?({_VALUE})?"
)
# The implicit tags of plain scalars by first character: both loaders' table.
_IMPLICIT_TAGS = yaml.resolver.Resolver.yaml_implicit_resolvers
_BOOL_TAG = "tag:yaml.org,2002:bool"
_NULL_TAG = "tag:yaml.org,2002:null"


class _Refused(Exception):
    """A text that _read_task leaves to the YAML path."""


def _tag(text: str) -> str:
    """The tag PyYAML's resolver gives a non-empty plain scalar."""
    for tag, pattern in _IMPLICIT_TAGS.get(text[0], ()):
        if pattern.match(text):
            return tag
    return _STR_TAG


def _plain(text: str) -> Any:
    """A plain scalar's value: a string, a bool or None, by PyYAML's own
    resolver and constructor; any other type is refused."""
    tag = _tag(text)
    if tag == _STR_TAG:
        return text
    if tag == _BOOL_TAG:
        return yaml.constructor.SafeConstructor.bool_values[text.lower()]
    if tag == _NULL_TAG:
        return None
    raise _Refused


def _scalar(text: str) -> Any:
    """The value of a _VALUE match."""
    if text[0] == "'":
        return text[1:-1]
    if text[0] == "[":
        inner = text[1:-1]
        return [_plain(item.strip(" ")) for item in inner.split(",")] if inner.strip(" ") else []
    return _plain(text)


def _key(text: str, seen) -> str:
    """A key that resolves to a string and is new in its mapping."""
    if text in seen or _tag(text) != _STR_TAG:
        raise _Refused
    return text


def _read_task(text: str, directives: frozenset[str]) -> AnsibleTask | None:
    """The task the YAML path gives ``text``, when ``text`` is one task in the
    common block shape; None for any other text.

    The shape: a list item at any column, or a mapping at column 0, whose
    ``key: value`` rows sit at one column.  A bare ``key:`` may open a block
    one level deeper of ``key: value`` rows or of ``- value`` rows, all at one
    column.  A value is a one-line plain scalar that resolves to a string, a
    bool or null, a single-quoted scalar without ``''``, or a one-line flow
    list of such plain scalars.  Blank lines may fall anywhere.  A duplicate
    key and a ``tasks`` key are refused, as is a ``name`` with a block.
    """
    if not text.isascii() and re.search(_WIDE_UNREADABLE, text):
        return None
    lines = text.split("\n")
    first = _BLOCK_ROW.fullmatch(lines[0])
    if first is None or first[3] is None or (first[2] is None and first[1]):
        return None
    column = first.start(3)
    entries: list[list] = []  # [key, value, name_span] of each task-level key
    keys: set[str] = set()
    block: list | dict | None = None  # the block a bare key opened, once it has a row
    block_column = 0
    bare = False  # whether the last task-level key is bare
    try:
        for row, line in enumerate(lines):
            if not line:
                continue
            match = _BLOCK_ROW.fullmatch(line) if row else first
            if match is None:
                return None
            indent, dash, key, value = match.groups()
            if key is None and value is None:
                return None
            at = len(indent) if row else column
            if at == column and key is not None and (row == 0 or dash is None):
                if key == "tasks":
                    return None
                keys.add(_key(key, keys))
                entries.append([key, None if value is None else _scalar(value), (row, row + 1)])
                bare, block = value is None, None
                continue
            if at <= column or not bare or entries[-1][0] == "name":
                return None
            if block is None:
                block_column = at
                block = entries[-1][1] = [] if dash else {}
            if at != block_column:
                return None
            if isinstance(block, list):
                if dash is None or key is not None:
                    return None
                block.append(_scalar(value))
            elif dash is None and key is not None:
                block[_key(key, block)] = None if value is None else _scalar(value)
            else:
                return None
    except _Refused:
        return None
    try:
        return _task_of(entries, _as_built, [line[column:] for line in lines], directives)
    except TaskParseError:
        return None


def _as_built(value: Any) -> Any:
    """The value of a row, which _read_task builds as it reads."""
    return value


def name_value(text: str) -> str:
    """The name that a task's ``name: <text>`` line gives it, or ``text``
    itself when that line does not parse or holds more than the name.  A row
    in the block reader's shape is read without the YAML loader, any other
    line by ``composed``."""
    row = _BLOCK_ROW.fullmatch("name: " + text)
    if row and row[4] and (text.isascii() or not re.search(_WIDE_UNREADABLE, text)):
        try:
            return _name(_scalar(text))
        except _Refused:
            pass
    try:
        with composed("name: " + text) as (root, build):
            line = build(root)
    except TaskParseError:
        return text
    return _name(line["name"]) if len(line) == 1 else text


def _name(value: Any) -> str:
    """A task's name from the value of its ``name`` key."""
    return "" if value is None else str(value)


def _skeleton_holds(skeleton: str, column: int, first_line: int) -> bool:
    """Whether the skeleton's only task node is its placeholder."""
    try:
        with composed(skeleton) as (root, _):
            nodes = _collect_task_nodes(root)
    except TaskParseError:
        return False
    return (
        len(nodes) == 1
        and not nodes[0].value
        and nodes[0].start_mark.line == first_line
        and nodes[0].start_mark.column == column + 2
    )


def _collect_task_nodes(root) -> list:
    if isinstance(root, yaml.SequenceNode):
        items = root.value
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


def _node_line_span(node, text_lines: list[str]) -> tuple[int, int]:
    """Half-open range of the lines a node occupies.

    A block node's end mark is where the next token starts, e.g. the dash of
    the next list item or the play's next key.  That line belongs to the node
    only when the node has content on it before the mark.
    """
    start = node.start_mark.line
    end, column = node.end_mark.line, node.end_mark.column
    if column > 0 and end < len(text_lines) and text_lines[end][:column].strip():
        end += 1
    return start, min(max(end, start + 1), len(text_lines))


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


def _task_from_node(node, build, text_lines: list[str], directives: frozenset[str]) -> AnsibleTask:
    """The task of a mapping node; each caller has checked that it is one."""
    start, end = _node_line_span(node, text_lines)
    raw = _dedent_task_lines(text_lines[start:end], node.start_mark.column)

    def entries():
        for key_node, value_node in node.value:
            if not isinstance(key_node, yaml.ScalarNode):
                raise NotATaskShape("task keys must be scalars")
            name_span = None
            if key_node.value == "name":
                lo = key_node.start_mark.line - start
                _, hi_end = _node_line_span(value_node, text_lines)
                name_span = (lo, max(hi_end - start, lo + 1))
            yield key_node.value, value_node, name_span

    return _task_of(entries(), build, raw, directives)


def _task_of(entries, build, raw: list[str], directives: frozenset[str]) -> AnsibleTask:
    """The task whose keys are ``entries``, in order: (key, value, name_span)
    each, where ``build(value)`` makes the key's value and ``name_span`` is
    read for the ``name`` key alone.  Values are built one key at a time, so
    the first fault in the text is the one raised.  ``raw`` holds the task's
    dedented lines; its trailing blank lines are trimmed off here."""
    while raw and not raw[-1].strip():
        raw.pop()
    name: str | None = None
    name_span: tuple[int, int] | None = None
    module: ModuleName | None = None
    options: dict[str, Any] = {}
    directive_map: dict[str, Any] = {}

    for key, value, span in entries:
        if key == "name":
            name = _name(build(value))
            name_span = span
            continue
        if key in directives:
            stored = "tags" if key == "tag" else key
            directive_map[stored] = build(value)
            continue
        if module is not None:
            raise NotATaskShape(f"second module key {key!r} next to {module}")
        module = parse_module_name(key)
        body = build(value)
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
