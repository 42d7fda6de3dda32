"""The demos and the README examples only use names and flags axvit provides.

They are parsed, not run: every ``from axvit[.module] import name`` must
resolve, and so must every ``alias.name`` where ``alias`` is an imported
axvit module; every keyword of a call to an axvit callable must name one of
its parameters; every ``axvit ...`` line of README's command-line block must
parse with the CLI's own parser.
"""

import ast
import importlib
import inspect
import os
import re
import shlex

import pytest

from axvit import cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = sorted(os.path.join(ROOT, "demos", f)
               for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


def _readme_example():
    with open(os.path.join(ROOT, "README.md")) as f:
        blocks = re.findall(r"```python\n(.*?)```", f.read(), re.S)
    assert blocks, "README has no python example"
    return "\n".join(blocks)


def _sources():
    for path in DEMOS:
        with open(path) as f:
            yield os.path.relpath(path, ROOT), f.read()
    yield "README.md", _readme_example()


def _axvit_imports(tree):
    """The axvit imports: local name -> module for every ``import axvit[.module]
    [as alias]``, and (local name, module, name) for every ``from
    axvit[.module] import name [as local]``."""
    aliases, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "axvit":
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "axvit":
            names += [(a.asname or a.name, node.module, a.name) for a in node.names]
    return aliases, names


def _axvit_references(tree):
    """(module, name) for every name the code takes from an axvit module."""
    aliases, names = _axvit_imports(tree)
    refs = [(module, name) for _, module, name in names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            refs.append((aliases[node.value.id], node.attr))
    return refs


SOURCES = dict(_sources())


@pytest.mark.parametrize("name", list(SOURCES))
def test_every_axvit_name_resolves(name):
    refs = _axvit_references(ast.parse(SOURCES[name]))
    assert refs, f"{name} uses nothing from axvit"
    for module, attr in refs:
        mod = importlib.import_module(module)
        if not hasattr(mod, attr):  # a submodule imported by name
            importlib.import_module(f"{module}.{attr}")


def _axvit_calls(tree):
    """(line, callable, keyword names) for every call whose callee is a name
    imported from axvit or an attribute of an imported axvit module; calls
    that resolve to nothing in axvit are left out."""
    aliases, names = _axvit_imports(tree)
    # local name -> the axvit module or object it is bound to
    bound = {local: importlib.import_module(module) for local, module in aliases.items()}
    bound.update((local, getattr(importlib.import_module(module), name, None))
                 for local, module, name in names)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Name):
            target = bound.get(fn.id)
        elif (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
              and inspect.ismodule(bound.get(fn.value.id))):
            target = getattr(bound[fn.value.id], fn.attr, None)
        else:
            continue
        if callable(target):
            yield node.lineno, target, [kw.arg for kw in node.keywords if kw.arg]


@pytest.mark.parametrize("name", list(SOURCES))
def test_every_keyword_names_a_parameter(name):
    calls = list(_axvit_calls(ast.parse(SOURCES[name])))
    assert calls, f"{name} calls nothing from axvit"
    for line, target, keywords in calls:
        params = inspect.signature(target).parameters.values()
        if any(p.kind is p.VAR_KEYWORD for p in params):
            continue
        names = {p.name for p in params if p.kind is not p.POSITIONAL_ONLY}
        for kw in keywords:
            assert kw in names, f"{name}:{line}: {target.__name__} takes no keyword {kw!r}"


def _readme_commands():
    with open(os.path.join(ROOT, "README.md")) as f:
        section = f.read().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("axvit ")]


README_COMMANDS = _readme_commands()


def test_readme_has_commands():
    assert README_COMMANDS


@pytest.mark.parametrize("line", README_COMMANDS, ids=[l.split()[1] for l in README_COMMANDS])
def test_readme_command_parses(line):
    argv = shlex.split(line)[1:]
    assert cli.build_parser().parse_args(argv).command == argv[0]
