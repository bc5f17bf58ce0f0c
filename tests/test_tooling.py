"""Source-tree rules: invariant checks that survive ``python -O``, one GF(q) matrix
product, flat-table gathers in the field and that product alone, one memory guard that runs before every standard model, docs that match
the CLI, subcommands that define only the flags they read, a README library
snippet that runs, the calls the benchmark traces, an AB check that reads B's
orbits and tau without building A again, index two decided by one function and
an AB report without flags beside its witness, a pipeline that lists no group
element, index two at q = 251 from B's predicate, a standard model that scans no vectors,
point lookups by table, not by binary search, a prepare that builds no incidence
index, reduces nothing, searches the maximal codes for tau's orbit
representatives alone and leaves numpy.ma unimported, a prepare that lists
no orbit's members and sorts no maximal orbit ids, canonical certificate
members resolved without reading the bases, line layouts and element
strings built once per stream, a certificate header written once per
preparation, one writer of the member block, the certificate format in the certificate module alone, the
incidence index read by ``QuadricModel.degrees`` alone, the maximal bases
gathered by ``np.take``, not by a fancy index, and no module-level
function or class that only the tests use."""

import argparse
import ast
import dataclasses
import gc
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import basis_points, int64_labelled, same_partition, src_env
from hemisystems import certificate, groups, hemi, linform, orbits, quadric
from hemisystems.cli import build_parser, main
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


def qualified_owners(tree):
    """The dotted name of the function or class around each node of a module."""
    owner = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner[child] = ".".join(filter(None, (owner.get(node), node.name)))
            else:
                owner[child] = owner.get(node)
    return owner


def test_only_the_field_and_mat_mul_gather_from_the_flat_tables():
    # elementwise arithmetic on arrays is Field.add_arrays/mul_arrays, and
    # only mat_mul's extension loop fuses its own gathers into preallocated
    # buffers; the GF(p) product runs in float32 alone
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = qualified_owners(tree)
        found += [
            f"{path.name}:{owner[node]}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "ravel"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in ("add_table", "mul_table")
        ]
    assert sorted(found) == [
        "gf.py:Field.add_arrays",
        "gf.py:Field.mul_arrays",
        "linform.py:mat_mul",
        "linform.py:mat_mul",
    ]
    assert "float64" not in (SRC / "linform.py").read_text()


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


def test_no_subcommand_defines_a_flag_it_never_reads():
    # a flag that a command accepts and ignores is a setting without effect;
    # each option of a subcommand is read as ns.<dest> by cmd_<name> or by a
    # module-level cli function that it reaches by direct calls
    tree = ast.parse((SRC / "cli.py").read_text())
    defs = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}

    def reads(name):
        seen, todo, attrs = set(), [name], set()
        while todo:
            fn = todo.pop()
            if fn in seen:
                continue
            seen.add(fn)
            for node in ast.walk(defs[fn]):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    if isinstance(node.value, ast.Name) and node.value.id == "ns":
                        attrs.add(node.attr)
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in defs:
                    todo.append(node.func.id)
        return attrs

    (subcommands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert sorted(subcommands.choices) == ["construct", "orbits", "selftest", "stats", "verify"]
    unread = [
        f"{name} {(action.option_strings or [action.dest])[0]}"
        for name, sub in subcommands.choices.items()
        for action in sub._actions
        if action.dest != "help" and action.dest not in reads(f"cmd_{name}")
    ]
    assert unread == []


def test_the_readme_library_snippet_runs():
    # the README's one python block is the documented library entry point
    readme = (SRC.parent.parent / "README.md").read_text()
    (snippet,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    exec(compile(snippet, "README.md", "exec"), {})


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
    # maximals once, reads B's point orbits off their labels, and ab_check
    # reads both with tau's image of each orbit; it neither closes a group
    # nor builds A again
    parts = []
    real = hemi.partition

    def counted(n, perms):
        parts.append(n)
        return real(n, perms)

    monkeypatch.setattr(hemi, "partition", counted)
    pr = hemi.prepare(field_make(3), 2)
    assert parts == [pr.qm.num_maximals]
    a_order = pr.a.order  # the counted reference, listed before close is refused

    def refused(*args, **kwargs):
        pytest.fail("ab_check built a group")

    for owner, name in ((groups, "group_a"), (hemi, "group_a"), (groups, "close")):
        monkeypatch.setattr(owner, name, refused)
    rep = hemi.ab_check(pr.qm, pr.b, pr.tau_elt, pr.actions)
    assert rep.ok and rep.a_order == a_order


def test_index_two_is_decided_once_and_the_ab_report_holds_no_flags(monkeypatch):
    # extension_order alone tests tau, its conjugates and tau^2 against B's
    # predicate, for group_a and ab_check alike, and prepare makes no other
    # membership test.  The verdict is the witness, so the report keeps no
    # boolean beside it
    callers = []
    real = groups.MatrixGroup.contains

    def recorded(self, mats):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(self, mats)

    monkeypatch.setattr(groups.MatrixGroup, "contains", recorded)
    assert hemi.prepare(field_make(3), 2).report.ok
    assert sorted(set(callers)) == ["extension_order"]
    assert [f.name for f in dataclasses.fields(hemi.ABReport) if f.type in ("bool", bool)] == []


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (3, 2, 2), (3, 1, 3)])
def test_the_pipeline_lists_no_group_element(monkeypatch, capsys, tmp_path, p, k, d):
    # B and A enter prepare, stats, orbits, construct and verify only through
    # their generators and membership predicates; their lists are read by
    # selftest and the tests alone, and only the closure makes one
    def refused(*args, **kwargs):
        pytest.fail("the pipeline listed a group")

    monkeypatch.setattr(groups, "close", refused)
    assert hemi.prepare(field_make(p, k), d).report.ok
    field = ["--p", str(p), "--k", str(k), "--d", str(d)]
    out = tmp_path / "cert.txt"
    assert main(["stats", *field]) == 0
    assert main(["orbits", *field, "--cap", "1"]) == 0
    assert main(["construct", *field, "--mask", "1", "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert "verified" in capsys.readouterr().out


def test_index_two_at_q251_is_decided_from_the_predicate():
    # |B| = 7,906,500 at q = 251, which no list reaches in a second
    F = field_make(251)
    m = linform.standard_model(F, 2)
    start = time.perf_counter()
    b, t = groups.omega_w(m), groups.tau(m)
    assert groups.group_a(m, b, t).contains(t)
    assert groups.extension_order(F, b, t) == (251 * (251**2 - 1), None)
    assert time.perf_counter() - start < 1.0


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
    assert np.array_equal(qm.point_ids(again[:, 0]), basis_points(qm)[:, -1])


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (3, 2, 2), (3, 1, 3)])
def test_prepare_searches_no_maximal_codes(monkeypatch, p, k, d):
    # each permutation of B's pair reads its maximal ids off one sort of the
    # image codes, and only an escape searches; tau moves the n_b orbit
    # representatives alone and searches their codes.  A silent fallback to
    # a search over all N maximals would keep every other test green
    searched = []
    real = quadric.search_keys

    def recorded(sorted_keys, keys):
        searched.append((sorted_keys, len(keys)))
        return real(sorted_keys, keys)

    monkeypatch.setattr(quadric, "search_keys", recorded)
    pr = hemi.prepare(field_make(p, k), d)
    qm, n_b = pr.qm, pr.report.n_b_maximal_orbits
    sizes = [n for keys, n in searched if np.array_equal(keys, qm.maximal_codes)]
    assert sizes == [n_b] and n_b < qm.num_maximals


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
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), check=True
    )
    assert out.stdout.split() == ["False"]


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (3, 2, 2), (3, 1, 3)])
def test_prepare_and_the_actions_reduce_nothing(monkeypatch, p, k, d):
    # the enumeration builds every level in RREF and the actions write each
    # image basis in closed form, so only maximal_ids, on a certificate's
    # members, calls rref_batch; a silent fallback to reducing would keep
    # every other test green
    calls = []
    real = quadric.rref_batch

    def counted(F, mats):
        calls.append(len(mats))
        return real(F, mats)

    monkeypatch.setattr(quadric, "rref_batch", counted)
    monkeypatch.setattr(linform, "rref_batch", counted)
    pr = hemi.prepare(field_make(p, k), d)
    hemi.resolve_actions(pr.qm, pr.b, pr.tau_elt)
    assert calls == []
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = qualified_owners(tree)
        found += [
            f"{path.name}:{owner[node]}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "rref_batch"
        ]
    assert found == ["quadric.py:QuadricModel.maximal_ids"]


@pytest.mark.parametrize("d", [2, 3])
def test_prepare_builds_no_incidence_index(d):
    # the actions write the image bases in closed form, so only a recount
    # through the index builds it, once, on its first read
    pr = hemi.prepare(field_make(3), d)
    assert "maximal_points" not in pr.qm.__dict__
    assert hemi.verify_hemisystem(pr.qm, hemi.assemble(pr.report.split, 0)).ok
    assert pr.qm.__dict__["maximal_points"] is pr.qm.maximal_points


@pytest.mark.parametrize("p,k,d", [(3, 1, 2), (3, 2, 2), (3, 1, 3)])
def test_prepare_lists_no_members_and_sorts_no_maximal_orbit_ids(monkeypatch, p, k, d):
    # the partitions hold their labels; the union-find roots number the
    # maximal orbits without a sort, and the members are listed on first
    # read, as one int64 sort of the orbit ids lists them
    def refused(labels):
        pytest.fail("partition sorted its orbit ids through labelled")

    monkeypatch.setattr(orbits, "labelled", refused)
    actions = hemi.prepare(field_make(p, k), d).actions
    parts = (actions.b_point_part, actions.b_maximal_part)
    assert not any("members" in vars(part) for part in parts)
    for part in parts:
        assert same_partition(part, int64_labelled(part.orbit_of))


def test_canonical_members_are_resolved_without_reading_the_bases(monkeypatch):
    # a canonical member is its maximal's RREF basis exactly when every row
    # reads a point id under the exact key and the ids spell a maximal code,
    # so resolving one gathers no basis
    pr = hemi.prepare(field_make(5), 3)
    ids = hemi.assemble(pr.report.split, 1)
    cert = certificate.parse_certificate(certificate.certificate_text(pr, 1, ids))

    class Unread:
        def __getitem__(self, key):
            pytest.fail("resolve_members indexed qm.maximal_bases")

    monkeypatch.setattr(pr.qm, "maximal_bases", Unread())
    got, reason = certificate.resolve_members(cert, pr.qm)
    assert reason is None and np.array_equal(got, ids)


def test_a_stream_of_certificates_builds_each_layout_once():
    # the line layout is cached per field and rank, and the element strings
    # per field, so writing and reading three certificates builds each once
    pr = hemi.prepare(field_make(5), 3)
    certificate._line_layout.cache_clear()
    linform._element_strings.cache_clear()
    for mask in (0, 1, 2):
        ids = hemi.assemble(pr.report.split, mask)
        cert = certificate.parse_certificate(certificate.certificate_text(pr, mask, ids))
        certificate.check_certificate_header(cert, pr.qm)
        assert np.array_equal(certificate.resolve_members(cert, pr.qm)[0], ids)
    assert certificate._line_layout.cache_info().misses == 1
    assert linform._element_strings.cache_info().misses == 1


def test_a_stream_of_certificates_writes_the_header_once(monkeypatch):
    # the header is a pure function of the preparation, so three
    # certificates of one preparation embed and format B's generators
    # once; a fresh preparation of the same field and rank writes it
    # again, byte for byte, and a preparation's header goes with it
    calls = Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in ("embed_w_block", "format_matrices"):
        monkeypatch.setattr(certificate, name, counted(name, getattr(certificate, name)))
    heads = []
    for _ in range(2):
        pr = hemi.prepare(field_make(5), 3)
        for mask in (0, 1, 2):
            text = certificate.certificate_text(pr, mask, hemi.assemble(pr.report.split, mask))
            heads.append(text[:text.index("\nmaximal ") + 1])
        assert calls == {"embed_w_block": len(heads) // 3, "format_matrices": len(heads) // 3}
    assert len(set(heads)) == 1
    held = len(certificate._HEADERS)
    del pr
    gc.collect()
    assert len(certificate._HEADERS) == held - 1


def test_only_the_chunk_sequence_writes_the_member_block():
    # certificate_chunks writes the member block a chunk at a time; another
    # caller of format_matrix_block would write a whole block at once
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            found += [
                f"{path.name}:{getattr(top, 'name', '<module>')}"
                for node in ast.walk(top)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "format_matrix_block"
            ]
    assert found == ["certificate.py:certificate_chunks"]


# each certificate line's tag with the space that a value follows
CERTIFICATE_TAGS = {
    f"{tag} "
    for tag in ("field", "rank", "gram", "counts", "degree", "orbits", "generator", "maximal", "mask")
}


def test_only_the_certificate_module_knows_the_format():
    # the magic line or a tag that a value follows, or a function named for
    # reading or writing a certificate or its member block, outside
    # certificate.py is a second copy of the format; the literal parts of an
    # f-string count, and a leading newline (as in a search) does not hide one
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "certificate.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value.lstrip("\n")
                if text in CERTIFICATE_TAGS or text.startswith("hemisystem-certificate"):
                    found.append(f"{path.name}:{node.lineno} {node.value.strip()!r}")
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if re.search("certificate|matrix_block", node.name, flags=re.I):
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []


def test_only_the_degree_count_reads_the_incidence_index():
    # the index holds uint16 or int32 point ids by P; QuadricModel.degrees is
    # its one reader, so no other module depends on that format
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = qualified_owners(tree)
        found += [
            f"{path.name}:{owner[node]}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "maximal_points"
        ]
    assert found == ["quadric.py:QuadricModel.degrees"]


def test_the_maximal_bases_are_gathered_by_take():
    # a fancy index on the (N, d, 2d + 1) bases is some four times slower
    # than np.take along axis 0, so rows are gathered by take and the
    # bases are subscripted with slices alone
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = qualified_owners(tree)
        found += [
            f"{path.name}:{owner[node]}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "maximal_bases"
            and not isinstance(node.slice, ast.Slice)
        ]
    assert found == []


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
