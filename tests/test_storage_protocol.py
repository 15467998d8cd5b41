"""Conformance of the storage backends' algebra and detection operations.

The relation algebra — ``project``, ``select``, ``join``, ``union``, the
horizontal partitioner's ``fragment``, both ``reconstruct``s and the
n-ary key join of independently built projections, each one call to the
store — is held to :class:`~repro.core.storage.RowStore`
on deleted rows, NULLs, an empty relation and mixed ``1``/``1.0``/``True``
values, with operands on every pair of backends.

Every operation a detector runs through ``relation.store`` is held to
:class:`~repro.core.storage.RowStore` over the same tuples: ``check``
(decoded by ``tids_of``), ``build_indexes``, batHor's ``key_summary`` and
``dirty_tids``, ``ship_scan``, ``estimate_bytes`` and
``distinct_counts``.  The inputs are the awkward ones: NULLs on both
sides of a rule, deleted rows, an empty relation, a shared-LHS tableau
mixing constant and variable rows, a pattern constant that only an
insert makes reachable and one group per rule (singleton groups).  With
``1``, ``1.0`` and ``True`` in one column the backends differ, so each
one's answer is pinned; batHor's two rounds, which compare values with
Python ``==`` on every backend, are run across two fragments holding
such values, NULLs, an absent pattern constant and nothing.  The last test checks that profiled waves note
only hooks the benchmark harness attributes to a layer.
"""

import importlib.util
from itertools import chain
from pathlib import Path

import pytest

import repro
from repro.core.cfd import CFD
from repro.core.relation import Relation, RelationError
from repro.core.schema import Schema
from repro.core.storage import MULTI, RowStore, storage_backend_names, summarize
from repro.core.tuples import Tuple
from repro.distributed.serialization import (
    PriceTable,
    estimate_relation_bytes,
    estimate_tuple_bytes,
)
from repro.indexes.idx import CFDIndex
from repro.obs import profile
from repro.partition.horizontal import hash_horizontal_scheme
from repro.partition.vertical import VerticalPartitioner
from repro.rulefuse import FusedGroup, compile_rule_set

BACKENDS = storage_backend_names()

SCHEMA = Schema("R", ["k", "a", "b", "c"], key="k")


def relation(rows, storage="rows"):
    """A relation of ``(k, a, b, c)`` rows hosted on ``storage``."""
    names = SCHEMA.attribute_names
    base = Relation(SCHEMA, [Tuple(row[0], dict(zip(names, row))) for row in rows])
    return base.with_storage(storage)


# -- inputs ---------------------------------------------------------------------------

#: Small ints and an unsatisfiable constant.
KERNEL_ROWS = [(i, i % 3, f"b{i % 4}", f"c{i % 2}") for i in range(40)]
KERNEL_RULES = [
    CFD(["a"], "b"),
    CFD(["a", "c"], "b"),
    CFD(["a"], "b", {"a": 1}),
    CFD(["a"], "b", {"a": 1, "b": "b1"}),
    CFD(["b"], "c", {"b": "b2", "c": "c0"}),
    CFD(["a"], "c", {"a": 77}),  # constant absent from the data
]

#: Strings, ints, a float row, a NULL row and a bool row.
PUSHDOWN_ROWS = [
    *((f"t{i}", f"a{i % 3}", f"b{i % 2}", i % 4) for i in range(12)),
    ("tn", None, None, None),
    ("tf", 3.5, 2.5, "x"),
    ("tb", True, False, "y"),
]
PUSHDOWN_RULES = [
    CFD(("a",), "b", {"a": "a1", "b": "b1"}, name="const"),
    CFD(("a",), "b", {"a": None}, name="const_null_lhs"),
    CFD(("a",), "b", name="var"),
    CFD(("a", "c"), "b", name="var_two_lhs"),
    CFD(("c",), "a", {"c": 0}, name="var_int_pattern"),
]

#: NULL on both sides of a rule: a NULL LHS group, NULL RHS classes, NULL constants.
NULL_ROWS = [
    (1, "x", "p", "u"),
    (2, "x", "q", "u"),
    (3, None, "p", None),
    (4, None, "p", "v"),
    (5, "y", None, "u"),
    (6, "y", None, "w"),
    (7, "y", "p", "w"),
    (8, None, None, None),
]
NULL_RULES = [
    CFD(("a",), "b", name="a_b"),
    CFD(("a",), "c", {"a": "x", "c": "u"}, name="x_u"),
    CFD(("a",), "c", {"a": None}, name="null_c"),
    CFD(("a", "b"), "c", name="ab_c"),
    CFD(("b",), "c", {"b": None, "c": "u"}, name="null_u"),
]

#: A shared-LHS tableau: constant and variable rows over two LHS lists.
TABLEAU_ROWS = [(i, i % 3, f"b{i % 2}", f"c{(i // 2) % 3}") for i in range(30)]
TABLEAU_RULES = [
    CFD(("a", "b"), "c", name="ab_c"),
    CFD(("a",), "c", {"a": 0, "c": "c1"}, name="a0_c1"),
    CFD(("a", "b"), "c", {"a": 1}, name="ab_c_a1"),
    CFD(("a",), "b", name="a_b"),
    CFD(("a", "b"), "c", {"a": 2, "b": "b0", "c": "c0"}, name="a2b0_c0"),
    CFD(("a",), "c", {"a": 1}, name="a1_c"),
]

#: case -> (rows, rules, tids deleted after loading).
CASES = {
    "kernel": (KERNEL_ROWS, KERNEL_RULES, ()),
    "kernel_after_deletes": (KERNEL_ROWS, KERNEL_RULES, (0, 7, 13, 21)),
    **{f"pushdown_{cfd.name}": (PUSHDOWN_ROWS, [cfd], ()) for cfd in PUSHDOWN_RULES},
    "nulls": (NULL_ROWS, NULL_RULES, ()),
    "tableau": (TABLEAU_ROWS, TABLEAU_RULES, ()),
    "empty": ((), NULL_RULES, ()),
}

#: The cases the scans and index builds run on.
SCAN_CASES = ["kernel", "kernel_after_deletes", "nulls", "tableau", "empty"]


def build(case, storage):
    rows, rules, deleted = CASES[case]
    rel = relation(rows, storage)
    for tid in deleted:
        rel.delete(tid)
    return rel, rules


def checked(store, groups):
    """``check(groups)`` decoded by ``tids_of``, in rule order."""
    found = iter(store.check(groups))
    by_rule = {i: store.tids_of(next(found)) for group in groups for i in group.indexes}
    return [by_rule[i] for i in sorted(by_rule)]


def oracle(cfd, tuples):
    """``V(cfd)`` from the definition: a constant CFD flags single tuples,
    a variable one every LHS group of matching tuples with two RHS values."""
    if cfd.is_constant():
        return {t.tid for t in tuples if cfd.single_tuple_violation(t)}
    groups = {}
    for t in tuples:
        if cfd.lhs_matches(t):
            groups.setdefault(cfd.lhs_values(t), {}).setdefault(t[cfd.rhs], set()).add(t.tid)
    return {
        tid
        for classes in groups.values()
        if len(classes) > 1
        for tids in classes.values()
        for tid in tids
    }


# -- check / tids_of ------------------------------------------------------------------


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_check_matches_rows(backend, case):
    reference, rules = build(case, "rows")
    rel, _ = build(case, backend)
    groups = compile_rule_set(rules)
    expected = [oracle(cfd, list(reference)) for cfd in rules]
    assert checked(reference.store, groups) == expected
    assert checked(rel.store, groups) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_group_per_rule_matches_fused(backend):
    rel, rules = build("tableau", backend)
    per_rule = [FusedGroup(cfd.lhs, (cfd,), (i,)) for i, cfd in enumerate(rules)]
    fused = compile_rule_set(rules)
    assert len(fused) == 2
    assert checked(rel.store, per_rule) == checked(rel.store, fused)


@pytest.mark.parametrize("backend", BACKENDS)
def test_constant_reachable_only_after_an_insert(backend):
    """The first check finds the constant absent (columnar caches that);
    the insert interning it must make both rules match."""
    rules = [
        CFD(("a",), "c", {"a": "z", "c": "u"}, name="z_u"),
        CFD(("a",), "b", {"a": "z"}, name="z_b"),
    ]
    groups = compile_rule_set(rules)
    rel = relation(NULL_ROWS, backend)
    assert checked(rel.store, groups) == [set(), set()]
    for t in relation([(20, "z", "p", "v"), (21, "z", "q", "u")]):
        rel.insert(t)
    assert checked(rel.store, groups) == [{20}, {20, 21}]
    index = CFDIndex(rules[1])
    rel.store.build_indexes([index])
    assert dict(index.groups()) == {("z",): {"p": {20}, "q": {21}}}


#: ``1``, ``1.0`` and ``True`` in one column.
MIXED_ROWS = [(1, 1, "p", 1), (2, 1.0, "q", 1.0), (3, True, "p", True), (4, 2, "p", "x"), (5, 2.0, "p", "y")]
MIXED_RULES = [
    CFD(("a",), "b", name="a_b"),
    CFD(("a",), "c", {"a": 1, "c": 1}, name="one_one"),
    CFD(("b",), "c", name="b_c"),
]

#: Each backend's answer on MIXED_ROWS, as recorded before the backends
#: shared one protocol: (check per rule, ship_scan of (a, c), distinct
#: counts).  Rows and columnar group by Python equality (1 == 1.0 ==
#: True); sql keeps bools as tagged values, so True stands apart in its
#: groups and counts; columnar prices True at its representative 1's width.
MIXED_PINS = {
    "rows": ([{1, 2, 3}, set(), {1, 3, 4, 5}], (5, 92), {"k": 5, "a": 2, "b": 2, "c": 3}),
    "columnar": ([{1, 2, 3}, set(), {1, 3, 4, 5}], (5, 106), {"k": 5, "a": 2, "b": 2, "c": 3}),
    "sql": ([{1, 2}, set(), {1, 3, 4, 5}], (5, 92), {"k": 5, "a": 3, "b": 2, "c": 4}),
}


@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_numbers_and_bools_keep_each_backends_answer(backend):
    if backend not in MIXED_PINS:
        pytest.skip(f"no answer recorded for {backend}")
    rel = relation(MIXED_ROWS, backend)
    found, shipment, distinct = MIXED_PINS[backend]
    assert checked(rel.store, compile_rule_set(MIXED_RULES)) == found
    assert rel.store.ship_scan(("a", "c"), {}, PriceTable()) == shipment
    assert rel.store.distinct_counts() == distinct


# -- the other operations -------------------------------------------------------------


def indexes_of(rel, rules):
    indexes = [CFDIndex(cfd) for cfd in rules if not cfd.is_constant()]
    rel.store.build_indexes(indexes)
    return [dict(index.groups()) for index in indexes]


@pytest.mark.parametrize("case", SCAN_CASES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_build_indexes_matches_rows(backend, case):
    reference, rules = build(case, "rows")
    rel, _ = build(case, backend)
    assert indexes_of(rel, rules) == indexes_of(reference, rules)


def built_groups(index):
    """An index's groups as built: keys and values by repr, so the first-seen
    representative of ``1``/``1.0``/``True`` counts, in insertion order."""
    return [
        (repr(key), [(repr(value), sorted(map(repr, tids))) for value, tids in group.items()])
        for key, group in index.groups()
    ]


def benchmark_tenant():
    """The benchmark's ``service-mixed`` tenant: TPCH at seed 7, 4 000 rows, 10 CFDs."""
    generator = repro.TPCHGenerator(seed=7)
    return generator.relation(4_000), repro.generate_cfds(generator.fd_specs(), 10, seed=7)


@pytest.mark.parametrize(
    "inputs",
    [
        lambda: (relation(MIXED_ROWS), MIXED_RULES),
        lambda: (relation(NULL_ROWS), NULL_RULES),
        lambda: (relation(PUSHDOWN_ROWS), PUSHDOWN_RULES),
        benchmark_tenant,
    ],
    ids=["mixed_numbers", "nulls", "pushdown", "benchmark_tenant"],
)
def test_rows_build_indexes_equals_add_tuple(inputs):
    rel, rules = inputs()
    variable = [cfd for cfd in rules if not cfd.is_constant()]
    built = [CFDIndex(cfd) for cfd in variable]
    rel.store.build_indexes(built)
    for cfd, index in zip(variable, built):
        one_by_one = CFDIndex(cfd)
        for t in rel:
            one_by_one.add_tuple(t)
        assert built_groups(index) == built_groups(one_by_one)


def summary_of(groups):
    """``{lhs_key: rhs_value | MULTI}`` of ``{lhs_key: {rhs_value: tids}}`` groups."""
    return {key: next(iter(by_rhs)) if len(by_rhs) == 1 else MULTI for key, by_rhs in groups.items()}


def dirty_keys(summary):
    return {key for key, value in summary.items() if value is MULTI}


def summarized(rel, cfd, want_ship):
    """batHor's two site rounds on ``rel``: ``key_summary``, then the
    ``dirty_tids`` of its MULTI keys and of all its keys, as sets."""
    shipment, summary = rel.store.key_summary(cfd, want_ship, PriceTable())
    dirty = rel.store.dirty_tids(cfd, dirty_keys(summary))
    every = rel.store.dirty_tids(cfd, set(summary))
    assert len(set(every)) == len(every)
    return shipment, summary, set(dirty), set(every)


@pytest.mark.parametrize("case", SCAN_CASES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_group_scan_and_merge_match_rows(backend, case):
    """The group scan and its merge, as batHor's site rounds run them:
    ``key_summary`` and ``dirty_tids`` answer as rows does, and rows as
    the definition's LHS groups say."""
    reference, rules = build(case, "rows")
    rel, _ = build(case, backend)
    tuples = list(reference)
    for cfd in rules:
        for want_ship in (True, False):
            assert summarized(rel, cfd, want_ship) == summarized(reference, cfd, want_ship)
        groups = by_name_groups(cfd, tuples)
        _shipment, summary, dirty, every = summarized(reference, cfd, False)
        assert summary == summary_of(groups)
        tids = {key: {tid for ts in by_rhs.values() for tid in ts} for key, by_rhs in groups.items()}
        assert every == set().union(*tids.values())
        assert dirty == set().union(*(tids[key] for key in dirty_keys(summary)))


#: Two fragments each, for batHor's rounds across sites: (site A rows, site
#: B rows, rule, the folded summary, the violating tids).  Values that
#: differ only as 1 / 1.0 / True are equal; a NULL is one more value.
CROSS_SITE_CASES = {
    "numbers_rhs": (
        [(1, "x", 1, "u"), (2, "y", 1, "u"), (3, "z", 1, "u")],
        [(4, "x", 1.0, "u"), (5, "y", True, "u"), (6, "z", 2, "u")],
        CFD(("a",), "b"),
        {("x",): 1, ("y",): 1, ("z",): MULTI},
        {3, 6},
    ),
    "bool_and_int_key": (
        [(1, True, "p", "u"), (2, 2, "p", "u")],
        [(3, 1, "q", "u"), (4, 2.0, "p", "u")],
        CFD(("a",), "b"),
        {(1,): MULTI, (2,): "p"},
        {1, 3},
    ),
    "nulls": (
        [(1, None, None, "u"), (2, "w", None, "u"), (3, "v", None, None)],
        [(4, None, "p", "u"), (5, "w", None, "u"), (6, "v", None, "u")],
        CFD(("a", "c"), "b"),
        {(None, "u"): MULTI, ("w", "u"): None, ("v", None): None, ("v", "u"): None},
        {1, 4},
    ),
    "constant_absent_from_one_site": (
        [(1, "x", "p", "u"), (2, "x", "q", "u"), (3, "y", "p", "u")],
        [(4, "y", "q", "u")],
        CFD(("a", "c"), "b", {"a": "x"}),
        {("x", "u"): MULTI},
        {1, 2},
    ),
    "empty_site": (
        [(1, "x", "p", "u"), (2, "x", "q", "u"), (3, "y", "p", "u")],
        [],
        CFD(("a",), "b"),
        {("x",): MULTI, ("y",): "p"},
        {1, 2},
    ),
}


@pytest.mark.parametrize("case", list(CROSS_SITE_CASES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_dirty_keys_fold_across_sites(backend, case):
    """The coordinator folds the sites' summaries; every site then returns
    its own tuples of each dirty key, whichever site's spelling of the key
    it is sent (on sql a ``True`` key is stored as a tagged blob and a
    ``1`` key natively, and both sites' rows come back)."""
    rows_a, rows_b, cfd, expected, violating = CROSS_SITE_CASES[case]
    sites = [relation(rows_a, backend).store, relation(rows_b, backend).store]
    summaries = [store.key_summary(cfd, False, PriceTable())[1] for store in sites]
    folded = summarize(chain.from_iterable(summary.items() for summary in summaries))
    assert folded == expected
    dirty = dirty_keys(folded)
    for spelling in summaries:
        keys = dirty.intersection(spelling) | dirty
        found = [tid for store in sites for tid in store.dirty_tids(cfd, keys)]
        assert sorted(found) == sorted(violating)


#: (attributes, constants) of batVer's ship scans; no constants is a projection.
SHIP_SPECS = [
    (("a", "c"), {}),
    (("a", "b"), {"a": 1}),
    (("b", "c"), {"b": None}),
    (("a", "b", "c"), {"a": "x", "b": "p"}),
    (("c",), {"c": "absent"}),
]


@pytest.mark.parametrize("case", SCAN_CASES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_ship_scan_matches_rows(backend, case):
    reference, _ = build(case, "rows")
    rel, _ = build(case, backend)
    for attributes, constants in SHIP_SPECS:
        expected = reference.store.ship_scan(attributes, constants, PriceTable())
        assert rel.store.ship_scan(attributes, constants, PriceTable()) == expected


@pytest.mark.parametrize("case", SCAN_CASES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_estimate_bytes_prices_the_backends_encoding(backend, case):
    """Columnar fragments ship dictionary-encoded columns, the others the
    paper's per-tuple cost model."""
    reference, _ = build(case, "rows")
    rel, _ = build(case, backend)
    encoding = "columnar" if backend == "columnar" else "rows"
    for attributes in (None, ["a", "c"]):
        expected = estimate_relation_bytes(reference, attributes, encoding=encoding)
        assert rel.store.estimate_bytes(attributes) == expected


@pytest.mark.parametrize("case", ["kernel", "nulls", "tableau", "empty"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_distinct_counts_match_rows(backend, case):
    """(No deletes here: a columnar dictionary keeps deleted rows' values.)"""
    reference, _ = build(case, "rows")
    rel, _ = build(case, backend)
    assert rel.store.distinct_counts() == reference.store.distinct_counts()


# -- relation algebra -----------------------------------------------------------------

#: case -> (rows, tids deleted after loading).
# -- the row kernels read by position -------------------------------------------------

#: Rules over both orders' attributes: shared LHS lists, constants, an absent constant.
MIXED_LAYOUT_RULES = [*KERNEL_RULES, *TABLEAU_RULES]


def mixed_layout_store():
    """A row store holding TABLEAU_ROWS in two attribute orders (odd tids
    reversed), one of them deleted, and the live tuples it holds."""
    names = SCHEMA.attribute_names
    store = RowStore(SCHEMA)
    for row in TABLEAU_ROWS:
        values = dict(zip(names, row))
        if row[0] % 2:
            values = dict(reversed(values.items()))
        store.insert(Tuple(row[0], values))
    store.pop(9)
    assert {tuple(t) for t in store} == {("k", "a", "b", "c"), ("c", "b", "a", "k")}
    return store, list(store)


def by_name_groups(cfd, tuples):
    """The LHS groups ``{lhs_key: {rhs_value: [tids]}}`` of ``cfd``'s
    pattern-matching tuples, read attribute by attribute name."""
    groups = {}
    for t in tuples:
        if cfd.lhs_matches(t):
            groups.setdefault(cfd.lhs_values(t), {}).setdefault(t[cfd.rhs], []).append(t.tid)
    return groups


def test_row_kernels_read_each_layout_by_position():
    store, tuples = mixed_layout_store()
    groups = compile_rule_set(MIXED_LAYOUT_RULES)
    found = iter(store.check(groups))
    for cfd in (cfd for group in groups for cfd in group.members):
        tids = next(found)
        assert isinstance(tids, list) and len(set(tids)) == len(tids)
        assert set(tids) == store.tids_of(tids) == oracle(cfd, tuples), cfd.name
    for cfd in MIXED_LAYOUT_RULES:
        expected = by_name_groups(cfd, tuples)
        matching = [t for t in tuples if cfd.lhs_matches(t)]
        shipped = (len(matching), sum(estimate_tuple_bytes(t, cfd.attributes) for t in matching))
        summary = summary_of(expected)
        assert store.key_summary(cfd, True, PriceTable()) == (shipped, summary)
        assert store.key_summary(cfd, False, PriceTable()) == ((0, 0), summary)
        dirty = dirty_keys(summary)
        assert store.dirty_tids(cfd, dirty) == [
            t.tid for t in matching if cfd.lhs_values(t) in dirty
        ]
    for attributes, constants in [*SHIP_SPECS, (("c", "a"), {"a": 2, "c": "c1"})]:
        pinned = [(a, constants[a]) for a in attributes if a in constants]
        kept = [t for t in tuples if all(t[a] == c for a, c in pinned)]
        expected = (len(kept), sum(estimate_tuple_bytes(t, attributes) for t in kept))
        assert store.ship_scan(attributes, constants, PriceTable()) == expected


def test_row_kernels_raise_on_a_tuple_lacking_a_checked_attribute():
    store, _tuples = mixed_layout_store()
    store.insert(Tuple(99, {"k": 99, "a": 1, "b": "b0"}))  # no "c"
    with pytest.raises(KeyError):
        store.check(compile_rule_set([CFD(("a",), "c")]))
    with pytest.raises(KeyError):
        store.ship_scan(("a", "c"), {}, PriceTable())
    with pytest.raises(KeyError):
        store.key_summary(CFD(("a", "b"), "c"), False, PriceTable())
    with pytest.raises(KeyError):
        store.dirty_tids(CFD(("a", "c"), "b"), {(1, "c0")})


ALGEBRA_CASES = {
    "kernel_after_deletes": (KERNEL_ROWS, (0, 7, 13, 21)),
    "nulls": (NULL_ROWS, ()),
    "empty": ((), ()),
    "mixed_numbers": (MIXED_ROWS, ()),
}


def algebra_input(case, storage):
    rows, deleted = ALGEBRA_CASES[case]
    rel = relation(rows, storage)
    for tid in deleted:
        rel.delete(tid)
    return rel


def in_tid_order(rel):
    return sorted(rel, key=lambda t: t.tid)


def keep(t):
    """A selection predicate reading both ``t.tid`` and ``t[attr]``."""
    return t.tid % 3 == 0 or t["a"] == 1


#: The pair of vertical fragments the joins use: ``b`` is replicated.
LEFT, RIGHT = ["a", "b"], ["b", "c"]


def algebra(rel, other):
    """Every algebra operation on ``rel`` (the left operand) and ``other``
    (the right one, on any backend), each result as a relation."""
    vertical = VerticalPartitioner(SCHEMA, [LEFT, RIGHT, ["c", "a"]])
    horizontal = hash_horizontal_scheme(SCHEMA, 3)
    pieces = horizontal.fragment(rel)
    # The last projection lacks the first tid, which the join must drop.
    gapped = projections(rel, vertical)
    for tid in list(rel.tids())[:1]:
        gapped[2].delete(tid)
    return {
        "project": rel.project(["c", "a"]),
        "select": rel.select(keep),
        "join": rel.project(LEFT).join(other.project(RIGHT)),
        "union": rel.select(keep).union(other.select(lambda t: not keep(t))),
        **{f"fragment_{site}": fragment for site, fragment in pieces},
        "horizontal_reconstruct": pieces.reconstruct(),
        "vertical_reconstruct": vertical.fragment(rel).reconstruct(),
        "vertical_join": key_join(projections(rel, vertical)),
        "vertical_join_gapped": key_join(gapped),
    }


def projections(rel, partitioner):
    """One independently built projection of ``rel`` per fragment."""
    return [rel.project(frag.attributes) for frag in partitioner.fragments]


def key_join(parts):
    """The n-ary key join of ``parts``, in one call to the first one's store."""
    first, *rest = parts
    return Relation(
        SCHEMA, storage=first.store.join([p.store for p in rest], SCHEMA.attribute_names)
    )


@pytest.mark.parametrize("case", list(ALGEBRA_CASES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_algebra_matches_rows(backend, case):
    rel = algebra_input(case, backend)
    expected = algebra(algebra_input(case, "rows"), algebra_input(case, "rows"))
    found = algebra(rel, rel)
    assert list(found) == list(expected)
    for op, result in found.items():
        assert result.storage == backend, op
        assert result.schema.attribute_names == expected[op].schema.attribute_names, op
        assert in_tid_order(result) == in_tid_order(expected[op]), op


@pytest.mark.parametrize("right", BACKENDS)
@pytest.mark.parametrize("left", BACKENDS)
def test_mixed_operands_keep_the_left_backend(left, right):
    case = "kernel_after_deletes"
    expected = algebra(algebra_input(case, "rows"), algebra_input(case, "rows"))
    found = algebra(algebra_input(case, left), algebra_input(case, right))
    for op in ("join", "union"):
        assert found[op].storage == left
        assert in_tid_order(found[op]) == in_tid_order(expected[op])


#: What each backend reads back for ``a`` of MIXED_ROWS after a projection,
#: by repr.  Columnar interns values that compare equal to their first-seen
#: representative, so ``1.0`` and ``True`` read back as ``1`` (README,
#: *Interning caveats*); rows and sql return the values that went in.
MIXED_READ_BACK = {
    "rows": ["1", "1.0", "True", "2", "2.0"],
    "columnar": ["1", "1", "1", "2", "2"],
    "sql": ["1", "1.0", "True", "2", "2.0"],
}


@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_numbers_read_back_each_backends_representative(backend):
    if backend not in MIXED_READ_BACK:
        pytest.skip(f"no answer recorded for {backend}")
    rel = relation(MIXED_ROWS, backend)
    for result in algebra(rel, rel).values():
        if "a" in result.schema and len(result) == len(MIXED_ROWS):
            assert [repr(t["a"]) for t in in_tid_order(result)] == MIXED_READ_BACK[backend]


@pytest.mark.parametrize("backend", BACKENDS)
def test_conflicting_replicated_value_raises(backend):
    rel = relation(KERNEL_ROWS, backend)
    left, right = rel.project(LEFT), rel.project(RIGHT)
    right.insert(right.delete(5).with_values(b="other"))
    with pytest.raises(ValueError, match="conflicting values for attribute 'b'"):
        left.join(right)
    parts = projections(rel, VerticalPartitioner(SCHEMA, [LEFT, RIGHT]))
    replica = parts[1]
    replica.insert(replica.delete(5).with_values(b="other"))
    with pytest.raises(ValueError, match="conflicting values for attribute 'b'"):
        key_join(parts)


@pytest.mark.parametrize("backend", BACKENDS)
def test_union_rejects_a_duplicate_tid(backend):
    rel = relation(KERNEL_ROWS, backend)
    with pytest.raises(RelationError, match="duplicate tid"):
        rel.select(keep).union(rel.select(lambda t: t.tid == 3))


@pytest.mark.parametrize("backend", BACKENDS)
def test_select_predicate_reads_tid_and_attributes(backend):
    seen = []

    def predicate(t):
        seen.append((t.tid, t["a"], t["b"]))
        return t.tid == 4

    rel = relation(NULL_ROWS, backend)
    assert [t.tid for t in rel.select(predicate)] == [4]
    assert seen == [(t.tid, t["a"], t["b"]) for t in relation(NULL_ROWS)]


# -- profile hooks --------------------------------------------------------------------


def harness_hook_prefixes():
    """The profile-hook prefixes the benchmark harness attributes to a layer."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "harness" / "layers.py"
    spec = importlib.util.spec_from_file_location("harness_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return tuple(prefix for prefix, *_ in layers.HOOK_PREFIXES)


#: Hooks of code other than the store operations: reconstruction, HEV
#: evaluation, GC pauses and the read of V0 off the IDX.
OTHER_HOOKS = ("partition.", "hev.", "gc.", "idx.violations_from_index")


@pytest.fixture
def profiling():
    was = profile.enabled
    profile.enable()
    yield
    (profile.enable if was else profile.disable)()


@pytest.mark.parametrize("strategy", ["batHor", "batVer", "incHor"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_profiled_builds_and_waves_note_only_hooks_the_harness_reads(
    backend, strategy, profiling
):
    generator = repro.TPCHGenerator(seed=3)
    base = generator.relation(120)
    partitioner = (
        generator.vertical_partitioner(3)
        if strategy == "batVer"
        else generator.horizontal_partitioner(3)
    )
    cfds = repro.generate_cfds(generator.fd_specs(), 8, seed=3, constant_fraction=0.4)
    before = profile.snapshot()
    sess = (
        repro.session(base).partition(partitioner).rules(cfds)
        .strategy(strategy).storage(backend).build()
    )
    try:
        sess.apply(repro.generate_updates(base, generator, 30, 0.8, seed=3))
    finally:
        sess.close()
    noted = [
        name
        for name in profile.diff(profile.snapshot(), before)
        if not name.startswith(OTHER_HOOKS)
    ]
    assert noted
    prefixes = harness_hook_prefixes()
    assert [name for name in noted if not name.startswith(prefixes)] == []
