"""Source-tree rules: invariant checks that survive ``python -O``, one GF(q) matrix
product, one memory guard that runs before every standard model, docs that match
the CLI, the calls the benchmark traces, an AB check that reads B's orbits and
tau without building A again, a standard model that scans no vectors, point
lookups by table, not by binary search, a prepare that builds no incidence
index, reduces only the enumerated maximals, searches no maximal codes and
leaves numpy.ma unimported, and no module-level function or class that only
the tests use."""

import argparse
import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hemisystems import groups, hemi, linform, quadric
from hemisystems.cli import build_parser
from hemisystems.gf import field_make

SRC = Path(__file__).resolve().parent.parent / "src" / "hemisystems"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so every check in the package must
    # raise explicitly to keep running in optimized mode
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []


def test_only_mat_mul_branches_on_the_extension_degree():
    # linform.mat_mul is the one GF(q) matrix product, so outside the field
    # itself no other code forks on F.k (k == 1 against k > 1)
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "gf.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                owner[child] = node.name if is_def else owner.get(node)
        found += [
            f"{path.name}:{owner[node]}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(
                isinstance(x, ast.Attribute) and x.attr == "k"
                for x in (node.left, *node.comparators)
            )
        ]
    assert found == ["linform.py:mat_mul"]


def test_require_memory_runs_before_every_standard_model():
    # the standard model builds a dense (2d+1)^2 Gram matrix, so each
    # function that builds one runs the closed-form guard first, and
    # QuadricModel runs it before it enumerates anything; no one else does
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                name = isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)
                )
                if name in ("require_memory", "standard_model"):
                    owner = f"{path.name}:{getattr(top, 'name', '<module>')}"
                    calls.setdefault(owner, []).append((node.lineno, name))
    order = {owner: [name for _, name in sorted(found)] for owner, found in calls.items()}
    assert order == {
        "cli.py:cmd_verify": ["require_memory", "standard_model"],
        "hemi.py:prepare": ["require_memory", "standard_model"],
        "quadric.py:QuadricModel": ["require_memory"],
    }


def test_readme_names_only_flags_the_cli_accepts():
    # a flag the README documents but no subcommand parses is stale
    # documentation; the install line's flags belong to pip
    (subcommands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    accepted = {
        flag for sub in subcommands.choices.values() for flag in sub._option_string_actions
    }
    readme = (SRC.parent.parent / "README.md").read_text()
    named = {
        flag
        for line in readme.splitlines()
        if not line.lstrip().startswith("pip ")
        for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", line)
    }
    assert "--format" in named
    assert sorted(named - accepted) == []


def test_prepare_makes_every_call_the_benchmark_traces(monkeypatch):
    # the traced benchmark run wraps these names; a call made under another
    # name would leave its span at 0 without any error
    monkeypatch.syspath_prepend(str(SRC.parent.parent))
    from hemibench.workloads import INNER_CALLS

    calls = {}
    for owner, name, _ in INNER_CALLS:
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, _key=(owner, name), **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    hemi.prepare(field_make(3), 2)
    assert INNER_CALLS
    assert [(o, n) for o, n, _ in INNER_CALLS if not calls.get((o, n))] == []


def test_the_ab_check_partitions_only_b_and_builds_no_group(monkeypatch):
    # A's orbits are B's orbits joined by tau, so prepare partitions B's
    # points and maximals once each, and ab_check reads them with tau's
    # permutations; it neither closes a group nor builds A again
    parts = []
    real = hemi.partition

    def counted(n, perms):
        parts.append(n)
        return real(n, perms)

    monkeypatch.setattr(hemi, "partition", counted)
    pr = hemi.prepare(field_make(3), 2)
    assert parts == [pr.qm.num_points, pr.qm.num_maximals]

    def refused(*args, **kwargs):
        pytest.fail("ab_check built a group")

    for owner, name in ((groups, "group_a"), (hemi, "group_a"), (groups, "close")):
        monkeypatch.setattr(owner, name, refused)
    rep = hemi.ab_check(pr.qm, pr.b, pr.tau_elt, pr.actions)
    assert rep.ok and rep.a_order == pr.a.order


def test_building_a_standard_model_scans_no_vectors(monkeypatch):
    # the layout and the Witt index of the plane <x, y>, from its
    # discriminant, are all the checks; none enumerates a vector
    def refused(*args, **kwargs):
        pytest.fail("the standard model scanned vectors")

    monkeypatch.setattr(linform, "all_vectors", refused)
    M = linform.standard_model(field_make(5, 2), 3)
    assert M.dim == 7


def test_point_lookups_make_no_binary_search(monkeypatch):
    # points are looked up through the projective-rank table; only the
    # maximal codes are still searched
    F = field_make(3)
    point_codes = linform.vector_codes(F.q, quadric.enumerate_points(linform.standard_model(F, 2)))
    searched = []
    real = quadric.search_keys

    def guarded(sorted_keys, keys):
        if np.array_equal(sorted_keys, point_codes):
            pytest.fail("a point was looked up by binary search")
        searched.append(len(sorted_keys))
        return real(sorted_keys, keys)

    monkeypatch.setattr(quadric, "search_keys", guarded)
    qm = hemi.prepare(F, 2).qm
    again = F.mul_table[2, qm.maximal_bases[:, ::-1]]
    assert np.array_equal(qm.maximal_ids(again), np.arange(qm.num_maximals))
    assert searched and set(searched) == {qm.num_maximals}
    assert np.array_equal(qm.point_ids(again[:, 0]), qm.basis_points[:, -1])


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (3, 2, 2), (3, 1, 3)])
def test_prepare_searches_no_maximal_codes(monkeypatch, p, k, d):
    # each action reads its maximal ids off one sort of the image codes, and
    # only an escape searches; a silent fallback to the search would keep
    # every other test green
    searched = []
    real = quadric.search_keys

    def recorded(sorted_keys, keys):
        searched.append(sorted_keys)
        return real(sorted_keys, keys)

    monkeypatch.setattr(quadric, "search_keys", recorded)
    qm = hemi.prepare(field_make(p, k), d).qm
    assert not any(np.array_equal(keys, qm.maximal_codes) for keys in searched)


def test_prepare_leaves_numpy_ma_unimported():
    # importing numpy.ma takes about 18 ms, which every CLI run would pay;
    # np.unique of byte keys imports it, a sort and a neighbour compare do not
    code = (
        "import sys\n"
        "from hemisystems import hemi\n"
        "from hemisystems.gf import field_make\n"
        "hemi.prepare(field_make(3), 3)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["False"]


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (3, 2, 2), (3, 1, 3)])
def test_prepare_reduces_once_and_the_actions_never(monkeypatch, p, k, d):
    # the enumeration's final RREF is the one reduction of prepare; the
    # actions write each image basis in closed form, and a silent fallback
    # to reducing them would keep every other test green
    calls = []
    real = quadric.rref_batch

    def counted(F, mats):
        calls.append(len(mats))
        return real(F, mats)

    monkeypatch.setattr(quadric, "rref_batch", counted)
    monkeypatch.setattr(linform, "rref_batch", counted)
    pr = hemi.prepare(field_make(p, k), d)
    assert calls == [pr.qm.num_maximals]
    calls.clear()
    hemi.resolve_actions(pr.qm, pr.b, pr.tau_elt)
    assert calls == []


@pytest.mark.parametrize("d", [2, 3])
def test_prepare_builds_no_incidence_index(d):
    # the actions write the image bases in closed form, so only a recount
    # through the index builds it, once, on its first read
    pr = hemi.prepare(field_make(3), d)
    assert "maximal_points" not in pr.qm.__dict__
    assert hemi.verify_hemisystem(pr.qm, hemi.assemble(pr.report.split, 0)).ok
    assert pr.qm.__dict__["maximal_points"] is pr.qm.maximal_points


def test_every_module_level_definition_is_used_in_the_package():
    # a function or class of the package that only the tests call is a second
    # model of something the pipeline does another way; each one must be read
    # somewhere in src/ outside its own body, or be exported by __init__
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {
        elt.value
        for node in init.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"
        for elt in node.value.elts
    }
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}

    def names(top):
        return Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))
        )

    everywhere = sum((names(tree) for tree in trees.values()), Counter())
    unused = [
        f"{name}:{top.name}"
        for name, tree in trees.items()
        if name != "__init__.py"
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and top.name not in exported
        and everywhere[top.name] == names(top)[top.name]
    ]
    assert unused == []
