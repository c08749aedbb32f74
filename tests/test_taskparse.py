import time
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hostile.cases import alias_chain
from tasklens import taskparse
from tasklens.taskparse import (
    DEFAULT_DIRECTIVE_KEYS,
    BadModuleKey,
    BadYamlValue,
    ModuleName,
    NotATaskShape,
    RAW_PARAMS_KEY,
    TaskMemo,
    TaskParseError,
    YamlSyntax,
    canonical,
    composed,
    parse_module_name,
    parse_tasks,
    short_name,
)


def parse(text, memo=None):
    """parse_tasks with the default directive keys: the whole-document parse
    when ``memo`` is None, else through a fresh TaskMemo."""
    return parse_tasks(text, DEFAULT_DIRECTIVE_KEYS, None if memo is None else TaskMemo())


FIG1_STYLE = """\
- name: install nginx
  ansible.builtin.yum:
    name: nginx
    state: present
"""


class TestParseTasks:
    def test_task_list(self):
        (task,) = parse(FIG1_STYLE)
        assert task.name == "install nginx"
        assert task.module.segments == ("ansible", "builtin", "yum")
        assert list(task.options) == ["name", "state"]

    def test_empty_document(self):
        assert parse("") == []
        assert parse("---\n") == []
        assert parse("[]") == []

    def test_register_is_directive_not_option(self):
        text = FIG1_STYLE + "  register: yum_out\n"
        (task,) = parse(text)
        assert task.directives == {"register": "yum_out"}
        assert "register" not in task.options

    def test_play_tasks_section(self):
        playbook = """\
- hosts: web
  tasks:
    - name: one
      debug:
        msg: a
    - name: two
      debug:
        msg: b
- hosts: db
  tasks:
    - name: three
      debug:
        msg: c
"""
        tasks = parse(playbook)
        assert [t.name for t in tasks] == ["one", "two", "three"]

    def test_bare_fragment_without_name(self):
        (task,) = parse("ansible.builtin.debug:\n  msg: hi\n")
        assert task.name is None
        assert short_name(task.module) == "debug"

    def test_block_task_has_no_module(self):
        (task,) = parse(
            "- name: wrapper\n  block:\n    - debug:\n        msg: hi\n"
        )
        assert task.module is None
        assert "block" in task.directives

    def test_task_without_module_or_block_rejected(self):
        with pytest.raises(NotATaskShape):
            parse("- name: lonely\n  register: x\n")

    def test_second_module_key_rejected(self):
        with pytest.raises(NotATaskShape):
            parse("- debug:\n    msg: a\n  copy:\n    src: b\n")

    def test_non_task_shapes(self):
        with pytest.raises(NotATaskShape):
            parse("just a sentence")
        with pytest.raises(NotATaskShape):
            parse("- 1\n- 2\n")
        with pytest.raises(NotATaskShape):
            parse("- hosts: web\n  tasks: notalist\n")
        with pytest.raises(NotATaskShape):
            parse("- hosts: web\n  tasks:\n    - 1\n")
        with pytest.raises(NotATaskShape):
            parse("- name: t\n  ? [a]\n  : x\n  debug: {}\n")
        with pytest.raises(NotATaskShape):
            parse("- name: t\n  copy: {1: x}\n")

    def test_yaml_syntax_error_carries_line(self):
        with pytest.raises(YamlSyntax) as err:
            parse("key: [unclosed\nnext: x\n")
        assert err.value.line is not None

    def test_bad_module_key_inside_task(self):
        with pytest.raises(BadModuleKey):
            parse("- name: t\n  a.b:\n    x: 1\n")

    def test_tag_alias_normalized_to_tags(self):
        (task,) = parse("- debug:\n    msg: a\n  tag: special\n")
        assert task.directives == {"tags": "special"}

    def test_free_form_module_body(self):
        (task,) = parse("- name: run it\n  command: ls -la\n")
        assert task.options == {RAW_PARAMS_KEY: "ls -la"}

    def test_null_module_body(self):
        (task,) = parse("- name: ping\n  ansible.builtin.ping:\n")
        assert task.options == {}

    def test_raw_lines_dedented_to_fragment_form(self):
        nested = parse(FIG1_STYLE)[0]
        fragment = parse(
            "ansible.builtin.yum:\n  name: nginx\n  state: present\n"
        )[0]
        assert nested.body_lines == fragment.body_lines

    def test_name_line_excluded_from_body(self):
        (task,) = parse(FIG1_STYLE)
        assert task.raw_lines[0] == "name: install nginx"
        assert task.body_lines[0] == "ansible.builtin.yum:"

    def test_option_named_name_stays_in_body(self):
        (task,) = parse(FIG1_STYLE)
        # the module option "name: nginx" must survive name-line removal
        assert "  name: nginx" in task.body_lines

    def test_multiline_name_span(self):
        text = "- name: >-\n    a very\n    long name\n  debug:\n    msg: hi\n"
        (task,) = parse(text)
        assert task.name == "a very long name"
        assert task.body_lines == ["debug:", "  msg: hi"]

    def test_directive_keys_configurable(self):
        text = "- name: t\n  takeover: true\n  debug:\n    msg: hi\n"
        with pytest.raises(NotATaskShape):
            parse(text)  # 'takeover' reads as a second module key
        (task,) = parse_tasks(text, ("name", "takeover"))
        assert str(task.module) == "debug"
        assert task.directives == {"takeover": True}


class TestModuleName:
    def test_fqcn(self):
        assert parse_module_name("ansible.builtin.debug").segments == (
            "ansible", "builtin", "debug",
        )

    def test_short(self):
        assert parse_module_name("debug").segments == ("debug",)

    @pytest.mark.parametrize(
        "bad",
        # A segment ends at the end of the key, not before a final line break.
        ["a.b", "a.b.c.d", "", "has space", "a..b", "copy\n", "a.b.copy\n", "a.b\n.copy"],
    )
    def test_invalid_keys(self, bad):
        with pytest.raises(BadModuleKey):
            parse_module_name(bad)

    def test_short_name(self):
        assert short_name(ModuleName(("ansible", "builtin", "debug"))) == "debug"
        assert short_name(ModuleName(("shell",))) == "shell"
        assert short_name(ModuleName(("ansible", "posix", "mount"))) == "mount"

    def test_round_trip_through_short_form(self):
        module = parse_module_name("ansible.builtin.copy")
        assert parse_module_name(short_name(module)).segments == ("copy",)
        assert parse_module_name(str(module)) == module


class TestTaskParts:
    def test_nested_values_canonicalized(self):
        a = parse("- name: t\n  m:\n    opt: {x: 1, y: [a, b]}\n")[0]
        b = parse("- name: t\n  m:\n    opt: {y: [a, b], x: 1}\n")[0]
        assert a.canonical_options == b.canonical_options

    def test_canonical_scalars(self):
        assert canonical(5.0) == canonical(5)
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})
        assert canonical([1, 2]) != canonical([2, 1])
        assert canonical("0644") != canonical(0o644)

    def test_set_is_hashable(self):
        (task,) = parse("- name: t\n  copy:\n    a: !!set {x, 1.0}\n")
        assert task.options["a"] == {"x", 1.0}
        assert task.canonical_options["a"] == frozenset({"x", 1})
        assert canonical([{"y", "x"}]) == canonical([{"x", "y"}])
        assert hash(canonical({"a": [{"x"}]}))

    def test_key_texts_that_collide_are_ordered_by_value(self):
        assert canonical({1: None, "1": "x"}) == canonical({"1": "x", 1: None})
        assert canonical({1: None, "1": "x"}) == (("1", "x"), ("1", None))

    def test_distinct_key_texts_keep_their_canonical_form(self):
        value = {"b": [1, {"z": 2.0, "y": None}], 3: "c", "a": {True: "t"}, "B": 0.5}
        assert canonical(value) == (
            ("3", "c"), ("B", 0.5), ("a", (("True", "t"),)), ("b", (1, (("y", None), ("z", 2)))),
        )


class TestSerialization:
    def test_every_key_in_exactly_one_bucket(self):
        (task,) = parse(FIG1_STYLE + "  register: out\n  loop: [1, 2]\n")
        # option "name: nginx" under the module and the task name coexist;
        # task-level keys land in exactly one of name/module/directives
        assert task.name == "install nginx"
        assert set(task.directives) == {"register", "loop"}
        assert set(task.options) == {"name", "state"}


class TestLineSpan:
    PLAY = """\
- hosts: all
  tasks:
    - name: one
      debug:
        msg: a

    # a comment between tasks
    - name: two
      debug:
        msg: b
  handlers:
    - name: h
      debug:
        msg: c
"""

    def test_task_lines_end_before_the_next_item(self):
        one, two = parse(self.PLAY)
        assert one.raw_lines == ("name: one", "debug:", "  msg: a", "", "# a comment between tasks")
        assert two.raw_lines == ("name: two", "debug:", "  msg: b")

    def test_flow_task_keeps_its_own_line(self):
        (task,) = parse("- hosts: all\n  tasks:\n    - {name: one, debug: {msg: a}}\n  vars: {}\n")
        assert task.raw_lines == ("{name: one, debug: {msg: a}}",)


LOADERS = [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)]


class TestLoaderIndependence:
    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    # The last holds a character both loaders refuse, the pure-Python one as it starts.
    @pytest.mark.parametrize(
        "text", ["- name: a\n  debug:\tmsg\n", "debug: {\tmsg: x}", "- debug: x  # \x0c\n"]
    )
    @pytest.mark.parametrize("memo", [None, {}])
    def test_tab_verdict_does_not_depend_on_libyaml(self, monkeypatch, loader, text, memo):
        monkeypatch.setattr(taskparse, "_Loader", loader)
        with pytest.raises(YamlSyntax):
            parse(text, memo=memo)


    @pytest.mark.parametrize(
        "text,message",
        [
            ("a: [b", "syntax error (line 1)"),  # libyaml's own mark is on line 2
            ("a: [b\n", "syntax error (line 2)"),
            ("{a", "syntax error (line 1)"),
            ("a: b: c", "syntax error (line 1)"),
            ("- a\nb: c\n", "syntax error (line 2)"),
            ("x: [\u00e9\u00e9, \u00e9", "syntax error (line 1)"),
            ("&a [*b]", "undefined alias, repeated anchor or second document (line 1)"),
            ("a\n--- b\n", "undefined alias, repeated anchor or second document (line 2)"),
            ("x: 1\n\x0c\n", "unacceptable character #x000c (line 2)"),
            # libyaml counts a reader error's offset in UTF-8 bytes
            ("\u2028: \u00e9\x07\n", "unacceptable character #x0007 (line 1)"),
        ],
    )
    def test_error_text_does_not_depend_on_libyaml(self, text, message):
        """The message comes from the error's class and offset, not the loader's words."""
        for loader in LOADERS:
            with mock.patch.object(taskparse, "_Loader", loader):
                with pytest.raises(YamlSyntax) as err:
                    with taskparse.composed(text):
                        pass
            assert str(err.value) == f"invalid YAML: {message}", loader.__name__


class TestUnconstructableValues:
    @pytest.mark.parametrize(
        "value",
        [
            "&a [*a]",  # unconstructable recursive node
            "!!python/name:os.system",  # no constructor for the tag
            "!!int nope",  # ValueError from int()
            "[" * 2000 + "]" * 2000,  # construction recurses per level
            alias_chain(21),  # 21 aliased levels expand to about 2**22 nodes
        ],
    )
    def test_bad_value_is_a_task_parse_error(self, value):
        with pytest.raises(BadYamlValue):
            parse(f"- name: t\n  copy:\n    src: {value}\n")

    # PyYAML's SafeConstructor raises IndexError, KeyError or AttributeError
    # for these, under both loaders.
    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("memo", [None, {}])
    @pytest.mark.parametrize(
        "value",
        ["!!int ", "!!float ", "!!int +", "!!int _", "!!bool maybe", "!!timestamp ",
         "{msg: !!int -}"],
    )
    def test_tagged_scalar_pyyaml_cannot_build(self, monkeypatch, loader, memo, value):
        monkeypatch.setattr(taskparse, "_Loader", loader)
        with pytest.raises(BadYamlValue):
            parse(f"- name: a\n  debug: {value}\n", memo=memo)

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("tab", ["", "\t"])
    def test_nesting_too_deep_to_compose_is_a_task_parse_error(self, monkeypatch, loader, tab):
        # A tab sends the text to the pure-Python loader, whose composer
        # recurses once per level before any value is built.
        monkeypatch.setattr(taskparse, "_Loader", loader)
        with pytest.raises(TaskParseError):
            parse(f"- name: a\n  debug:\n    {'- ' * 3000}x\n{tab}")

    def test_aliases_below_the_cap_are_built(self):
        (task,) = parse(
            "- name: t\n  copy:\n    a: &d {mode: '0644'}\n    b: *d\n"
            f"    c: {alias_chain(10)}\n"
        )
        assert task.options["b"] == {"mode": "0644"}
        assert len(task.canonical_options["c"][-1]) == 2

    def test_large_value_without_aliases_is_built(self):
        # "&" makes the text one that may define anchors, so the value walk runs.
        big = "[" + ", ".join(["x"] * 20_000) + "]"
        (task,) = parse(f"- name: rock & roll\n  copy:\n    src: {big}\n")
        assert len(task.options["src"]) == 20_000


def under_frames(frames, fn):
    """fn() called ``frames`` Python frames deeper than the caller."""
    return fn() if frames == 0 else under_frames(frames - 1, fn)


def nested_value_task(shape, depth):
    """A task whose module value nests ``depth`` collections deep: a mapping
    holding flow lists or compact block sequences."""
    if shape == "flow":
        return f"- name: a\n  debug:\n    msg: {'[' * (depth - 1)}x{']' * (depth - 1)}\n"
    return f"- name: a\n  debug:\n    msg:\n      {'- ' * (depth - 1)}x\n"


class TestNestingCap:
    CAP = taskparse._MAX_VALUE_DEPTH

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("memo", [False, True], ids=["whole", "memo"])
    @pytest.mark.parametrize("shape", ["flow", "block"])
    @pytest.mark.parametrize("depth", [CAP, CAP + 1, 150, 200, 900])
    def test_verdict_does_not_depend_on_the_stack(self, monkeypatch, loader, memo, shape, depth):
        monkeypatch.setattr(taskparse, "_Loader", loader)
        text = nested_value_task(shape, depth)

        def verdict():
            try:
                parse(text, memo={} if memo else None)
            except TaskParseError:
                return "unparseable"
            return "parses"

        expected = "parses" if depth <= self.CAP else "unparseable"
        assert verdict() == expected
        assert under_frames(500, verdict) == expected

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("memo", [False, True], ids=["whole", "memo"])
    @pytest.mark.parametrize("shape", ["flow", "block"])
    def test_value_past_the_cap_is_a_bad_value(self, monkeypatch, loader, memo, shape):
        monkeypatch.setattr(taskparse, "_Loader", loader)
        with pytest.raises(BadYamlValue):
            parse(nested_value_task(shape, self.CAP + 1), memo={} if memo else None)

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("memo", [False, True], ids=["whole", "memo"])
    @pytest.mark.parametrize("depth", [90, 250, 400])
    def test_deep_play_vars_verdict_does_not_depend_on_the_stack(
        self, monkeypatch, loader, memo, depth
    ):
        """No value is built from ``vars:``, so only the text cap sees its depth."""
        monkeypatch.setattr(taskparse, "_Loader", loader)
        text = (
            f"- hosts: all\n  vars:\n    deep: {'[' * depth}x{']' * depth}\n"
            "  tasks:\n    - name: a\n      debug:\n        msg: hi\n"
        )

        def verdict():
            try:
                return [task.name for task in parse(text, memo={} if memo else None)]
            except TaskParseError as exc:
                return type(exc)

        expected = ["a"] if depth <= taskparse._MAX_TEXT_DEPTH else BadYamlValue
        assert verdict() == expected
        assert under_frames(500, verdict) == expected

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("shape", ["flow", "block"])
    def test_text_cap_on_a_bare_value(self, monkeypatch, loader, shape):
        monkeypatch.setattr(taskparse, "_Loader", loader)
        cap = taskparse._MAX_TEXT_DEPTH

        def bare(depth):
            if shape == "flow":
                return "[" * depth + "x" + "]" * depth
            return "- " * depth + "x"

        def depth_of(text):
            with composed(text) as (root, _):
                levels = 0
                while isinstance(root, yaml.SequenceNode):
                    levels, root = levels + 1, root.value[0]
                return levels

        assert depth_of(bare(cap)) == cap
        assert under_frames(500, lambda: depth_of(bare(cap))) == cap
        for frames in (0, 500):
            with pytest.raises(BadYamlValue):
                under_frames(frames, lambda: depth_of(bare(cap + 1)))


# The two walks _check_value replaced, kept as its oracle.
def oracle_expanded_size(node, sizes):
    """Nodes in the value built from ``node``, counting an aliased node at each use.

    ``sizes`` memoizes by node identity, so the walk visits each distinct node
    once; its length is then the number of distinct nodes.  A node reached
    again while it is being walked (a recursive alias) counts 0.
    """
    size = sizes.get(id(node))
    if size is None:
        sizes[id(node)] = 0
        size = 1
        if isinstance(node, yaml.SequenceNode):
            for child in node.value:
                size += oracle_expanded_size(child, sizes)
        elif isinstance(node, yaml.MappingNode):
            for key_node, value_node in node.value:
                size += oracle_expanded_size(key_node, sizes)
                size += oracle_expanded_size(value_node, sizes)
        sizes[id(node)] = size
    return size


def oracle_nests_too_deeply(node):
    """Whether the value built from ``node`` nests collections deeper than
    _MAX_VALUE_DEPTH, one level of collections at a time."""
    level = [node]
    for _ in range(taskparse._MAX_VALUE_DEPTH):
        below = {}
        for parent in level:
            if isinstance(parent, yaml.SequenceNode):
                children = parent.value
            elif isinstance(parent, yaml.MappingNode):
                children = [n for pair in parent.value for n in pair]
            else:
                continue
            for child in children:
                if isinstance(child, yaml.CollectionNode):
                    below[id(child)] = child
        if not below:
            return False
        level = below.values()
    return True


@st.composite
def flow_values(draw, depth_cap, node_cap):
    """A flow YAML value whose anchors are aliased at other depths, inside
    their own node (a recursive alias) and as complex keys; with runs of
    brackets around the depth cap, empty collections at their bottom, flat
    lists and doubling alias chains around the node cap."""
    anchors = []

    def value(level):
        kinds = ["scalar", "alias"]
        if level < 4:
            kinds += ["seq", "map", "nest", "chain"]
            # SafeLoader takes seconds to compose flat lists past the real
            # node cap; under the small caps they cost nothing.
            kinds += ["flat"] if node_cap < 100 else []
        kind = draw(st.sampled_from(kinds))
        if kind == "scalar":
            return "x"
        if kind == "alias":
            return f"*{draw(st.sampled_from(anchors))} " if anchors else "x"
        if kind == "chain":  # level i holds level i - 1 twice
            first = len(anchors)
            levels = draw(st.integers(1, node_cap.bit_length() + 1))
            anchors.extend(f"a{first + i}" for i in range(levels))
            links = [f"&a{first} [x, x]"] + [
                f"&a{first + i} [*a{first + i - 1} , *a{first + i - 1} ]" for i in range(1, levels)
            ]
            return "[" + ", ".join(links) + "]"
        anchor = ""
        if draw(st.booleans()):
            anchor = f"&a{len(anchors)} "
            anchors.append(f"a{len(anchors)}")
        if kind == "flat":  # distinct nodes around the node cap
            return anchor + "[" + ", ".join(["x"] * draw(st.integers(0, node_cap + 2))) + "]"
        if kind == "nest":
            runs = draw(st.integers(1, depth_cap + 2))
            inner = draw(st.sampled_from(["[]", "{}"])) if draw(st.booleans()) else value(level + 1)
            return anchor + "[" * runs + inner + "]" * runs
        entries = []
        for _ in range(draw(st.integers(0, 3))):
            if kind == "seq":
                entries.append(value(level + 1))
            else:  # draw the key first: an alias may follow its anchor only
                key = value(level + 1) if draw(st.booleans()) else f"k{len(entries)}"
                entries.append(f"? {key} : {value(level + 1)}")
        opening, closing = ("[", "]") if kind == "seq" else ("{", "}")
        return anchor + opening + ", ".join(entries) + closing

    return value(0)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("caps", [(4, 30), (64, 10_000)], ids=["small caps", "real caps"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_walk_matches_the_two_walks(loader, caps, data):
    """_check_value refuses exactly the values the size walk or the depth walk
    refuses, and none in a text that composed does not flag as guarded."""
    depth_cap, node_cap = caps
    text = data.draw(flow_values(depth_cap, node_cap))
    with mock.patch.multiple(
        taskparse, _Loader=loader, _MAX_VALUE_DEPTH=depth_cap, _MAX_EXPANDED_NODES=node_cap
    ):
        root = loader(text).get_single_node()
        sizes = {}
        expected = (
            oracle_expanded_size(root, sizes) > max(node_cap, len(sizes))
            or oracle_nests_too_deeply(root)
        )
        try:
            taskparse._check_value(root)
            refused = False
        except ValueError:
            refused = True
        assert refused == expected
        if refused:  # the builder refuses it, unless composed's text cap refuses the text
            try:
                with composed(text) as (root, build):
                    with pytest.raises(BadYamlValue):
                        build(root)
            except BadYamlValue:
                pass


# A fuzzed text is lines of an indent, an optional dash, an optional key and
# value tokens.  The tokens send the scanner, composer and constructor down
# their less common paths: tags PyYAML cannot always build, anchors, aliases
# and merge keys, complex keys, flow brackets, quotes, block scalars and tabs.
FUZZ_KEYS = ["", "name: t", "tasks:", "debug:", "msg:", "copy:", "ansible.builtin.shell:",
             "when:", "block:", "vars:", "<<:", "? x", "x:"]
FUZZ_VALUES = [
    "!!int", "!!bool", "!!timestamp", "!!binary", "!!float", "!!str", "!!set", "!!omap",
    "!!python/tuple", "&a", "&b", "*a", "*b", "<<:", "?", ":", "[", "]", "{", "}", ",",
    "'", '"', "|", ">-", "#", "\t", "x", "0", "+", "_", "maybe", "2001-12-14", "~", ".",
    "---",
]


@st.composite
def yaml_texts(draw):
    lines = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["", " ", "  ", "    ", "      ", "\t"]),
                st.sampled_from(["", "- "]),
                st.sampled_from(FUZZ_KEYS),
                st.sampled_from([" ", ""]),
                st.lists(st.sampled_from(FUZZ_VALUES), max_size=4),
            ),
            max_size=10,
        )
    )
    body = "\n".join(
        indent + dash + key + sep + sep.join(values)
        for indent, dash, key, sep, values in lines
    )
    return body + draw(st.sampled_from(["", "\n"]))


def _verdict(text, memo):
    """parse_tasks' result, or the class of the TaskParseError it raised;
    any other exception escapes."""
    try:
        return parse(text, memo)
    except TaskParseError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=yaml_texts())
def test_fuzzed_texts_raise_only_task_parse_errors(text):
    """Under both loaders, with and without the memos, only TaskParseError
    escapes, each parse takes under 1 s, and all four verdicts agree."""
    verdicts = []
    for loader in LOADERS:
        with mock.patch.object(taskparse, "_Loader", loader):
            for memo in (None, {}):
                started = time.perf_counter()
                verdicts.append(_verdict(text, memo))
                assert time.perf_counter() - started < 1.0
    assert all(verdict == verdicts[0] for verdict in verdicts)


def same_value(a, b):
    """Equal and of one type all the way down, so True is not 1 and 1.0 is not 1;
    mappings also keep one key order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            same_value(key_a, key_b) and same_value(value_a, value_b)
            for (key_a, value_a), (key_b, value_b) in zip(a.items(), b.items())
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_value, a, b))
    if isinstance(a, (set, frozenset)):
        return {(type(x), x) for x in a} == {(type(x), x) for x in b}
    return a == b


def same_sharing(a, b):
    """Whether two values of one shape share their lists, dicts and sets alike:
    two places in ``a`` hold one collection exactly when they do in ``b``."""
    pairs: dict[int, int] = {}
    reverse: dict[int, int] = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if not isinstance(x, (list, dict, set)):
            continue
        if pairs.get(id(x), id(y)) != id(y) or reverse.get(id(y), id(x)) != id(x):
            return False
        if id(x) in pairs:
            continue
        pairs[id(x)], reverse[id(y)] = id(y), id(x)
        if isinstance(x, dict):
            stack.extend(zip(x.values(), y.values()))
        elif isinstance(x, list):
            stack.extend(zip(x, y))
    return True


def _walked(text):
    """What composed's builder makes of the text's root: ("value", value) or
    ("error", (class of the cause, message)); None when the text does not
    compose or holds no value."""
    try:
        with composed(text) as (root, build):
            if root is None:
                return None
            try:
                return ("value", build(root))
            except BadYamlValue as exc:
                return ("error", (type(exc.__context__), str(exc)))
    except TaskParseError:
        return None


def _pyyaml_built(text):
    """PyYAML's deep construction of the text's root, as _walked gives it, on
    the loader composed picks; a value _check_value refuses is not built."""
    loader = (yaml.SafeLoader if "\t" in text else taskparse._Loader)(text)
    try:
        root = loader.get_single_node()
        taskparse._check_value(root)
        return ("value", loader.construct_object(root, deep=True))
    except (yaml.YAMLError, ValueError, LookupError, AttributeError) as exc:
        detail = getattr(exc, "problem", None) or exc
        return ("error", (type(exc), f"cannot construct YAML value: {detail}"))
    finally:
        loader.dispose()


def assert_walk_is_pyyaml(text):
    """The builder makes what PyYAML's deep construction makes, sharing an
    aliased value where PyYAML shares it, or fails as it does.

    Each side composes the text afresh: PyYAML's constructor rewrites merge
    and value keys in the nodes it builds."""
    walked = _walked(text)
    if walked is None:
        return
    built = _pyyaml_built(text)
    assert walked[0] == built[0], (walked, built)
    if walked[0] == "value":
        assert same_value(walked[1], built[1]), (walked, built)
        assert same_sharing(walked[1], built[1]), (walked, built)
    else:
        assert walked[1] == built[1]


VALUE_WALK_CASES = {
    "merge key": "<<: {a: 1}\nb: 2",
    "merged task option": "- name: a\n  copy:\n    <<: {mode: x}\n    src: y\n",
    "value key": "=: x\na: 1",
    "value key as a value": "a: =",
    "set": "!!set {x, y}",
    "omap": "!!omap [x: 1, y: 2]",
    "binary": "!!binary aGVsbG8=",
    "duplicate keys": "a: 1\nb: 2\na: [3]\nb: x\n",
    "complex key": "? [a, b]\n: c",
    "int and null keys": "1: a\nnull: b\n'1': c",
    "str-tagged int": "!!str 1",
    "str tag on a list": "!!str [a]",
    "seq tag on a mapping": "!!seq {a: b}",
    "map tag on a list": "!!map [a]",
    "timestamp": "[2001-12-14, 2001-12-14t21:59:43.10-05:00]",
    "float and int": "[1.0, 1, true, '1', 0o14, 0x1f, .inf]",
    "anchor used twice": "x: &a {k: [v, 1]}\ny: *a\nz: [*a, *a]",
    "anchored key": "? &k a\n: 1\n*k : 2",
    "aliased list in a merge": "a: &l [x]\nb: {<<: {k: *l}, m: *l}\nc: *l",
    "aliased merge source": "a: &m {k: [x]}\nb: {<<: *m, j: 1}\nc: [*m, *m]",
    "aliased set and ints": "a: &s !!set {x, y}\nb: [*s, &i [1, 2], *i]",
    "alias under a complex key": "? [&l [x]]\n: *l",
    "nested anchors": "a: &o {p: &i [x, {q: y}], r: *i}\nb: [*o, *i]",
    "anchored scalars": "a: &x 1\nb: &y text\nc: [*x, *y, *y]",
    "alias past the expansion cap": "a: &c " + alias_chain(16) + "\nb: [*c, *c]",
    "recursive alias": "&a [x, *a]",
}


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("text", VALUE_WALK_CASES.values(), ids=VALUE_WALK_CASES.keys())
def test_value_walk_equals_pyyaml_on_named_values(monkeypatch, loader, text):
    monkeypatch.setattr(taskparse, "_Loader", loader)
    assert _walked(text) is not None
    assert_walk_is_pyyaml(text)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_value_walk_equals_pyyaml_on_aliased_values(loader, data):
    """Values whose anchors are aliased at other depths, as keys and inside
    themselves, under the real caps."""
    text = data.draw(flow_values(taskparse._MAX_VALUE_DEPTH, taskparse._MAX_EXPANDED_NODES))
    with mock.patch.object(taskparse, "_Loader", loader):
        assert_walk_is_pyyaml(text)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@settings(max_examples=500, deadline=None, derandomize=True)
@given(text=yaml_texts())
def test_value_walk_equals_pyyaml_on_fuzzed_texts(loader, text):
    with mock.patch.object(taskparse, "_Loader", loader):
        assert_walk_is_pyyaml(text)


@pytest.mark.parametrize("memo", [False, True], ids=["whole", "memo"])
def test_aliased_value_is_built_once(memo):
    """The builder builds an aliased node once for every value that names
    it, not once per alias, as PyYAML's constructor does."""
    text = "- debug: &a {msg: [x]}\n- debug: *a\n- name: b\n  debug: *a\n"
    tasks = parse(text, memo={} if memo else None)
    assert tasks[0].options == {"msg": ["x"]}
    assert tasks[1].options is tasks[0].options and tasks[2].options is tasks[0].options


def test_same_sharing_tells_shared_from_equal():
    inner = [1]
    assert same_sharing({"a": inner, "b": inner}, {"a": (x := [1]), "b": x})
    assert not same_sharing({"a": inner, "b": inner}, {"a": [1], "b": [1]})
    assert not same_sharing([[1], [1]], [inner, inner])
    assert same_sharing([[1], [1]], [[1], [1]])


def test_same_value_is_type_strict():
    assert same_value({"a": [1, {"b"}]}, {"a": [1, {"b"}]})
    assert not same_value(True, 1)
    assert not same_value(1.0, 1)
    assert not same_value({1: "a"}, {"1": "a"})
    assert not same_value({"a": 1, "b": 2}, {"b": 2, "a": 1})
    assert not same_value({1}, {True})
