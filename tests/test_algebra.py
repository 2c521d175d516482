import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congrex import algebra
from congrex.algebra import (
    DEFAULT_BUDGET,
    FiniteAlgebra,
    Operation,
    Partition,
    _flat_index,
    _grid,
    direct_product,
    is_congruence_uniform,
    quotient_index,
)
from congrex.cli import budget_from_env
from congrex.errors import BudgetExceededError, InvalidInputError
from congrex.groups import (
    GroupStructure,
    abelian_group,
    cyclic_group,
    group_from_cayley,
    parse_group_spec,
    quaternion_group,
    symmetric_group,
)

from conftest import (
    breadth_first_congruence_rows,
    brute_congruences,
    d4_cayley,
    full_round_principal_rows,
    loop_composes_with,
    loop_direct_product,
    loop_pair_orbits,
    loop_quotient,
    loop_refines,
    loop_translations,
    orbit_join_closure,
    pair_list_join,
    pairwise_congruence_closure,
    partition_respects,
    per_atom_principal_split,
    permutation_algebras,
    q8_times_z3_cayley,
    relabeled_cayley,
    small_algebras,
    table_value,
    union_find_principal_congruence,
    zip_meet,
)


def semilattice_chain(n):
    table = [min(x, y) for x in range(n) for y in range(n)]
    return FiniteAlgebra(n, [Operation("meet", 2, table)], name=f"SL{n}")


# ---------------------------------------------------------------------------
# Partition


def test_partition_canonical_form():
    p = Partition([5, 5, 7, 5])
    assert p.block_id == (0, 0, 1, 0)
    assert p == Partition.from_blocks(4, [[0, 1, 3], [2]])
    assert p.blocks() == ((0, 1, 3), (2,))


def test_partition_from_blocks_errors():
    with pytest.raises(InvalidInputError):
        Partition.from_blocks(3, [[0, 1], [1, 2]])
    with pytest.raises(InvalidInputError):
        Partition.from_blocks(3, [[0, 1]])


@pytest.mark.parametrize(
    "blocks", [[[0, -1], [1]], [[0, 1], [2, 3]], [[0, 1.0], [2]], [[0, True], [2]]]
)
def test_partition_from_blocks_refuses_elements_outside_the_universe(blocks):
    # -1 would index from the end, 3 past it; 1.0 and True are not elements
    with pytest.raises(InvalidInputError, match="not in range"):
        Partition.from_blocks(3, blocks)


def test_partition_meet_join_against_definition():
    p = Partition.from_blocks(4, [[0, 1], [2, 3]])
    q = Partition.from_blocks(4, [[0, 2], [1, 3]])
    assert p.meet(q) == Partition.identity(4)
    assert p.join(q) == Partition.full(4)
    assert p.refines(p.join(q))
    assert p.meet(q).refines(p)


def test_partition_refinement_is_partial_order():
    parts = [
        Partition.identity(4),
        Partition.from_blocks(4, [[0, 2], [1, 3]]),
        Partition.full(4),
    ]
    for a, b in itertools.combinations(parts, 2):
        assert a.refines(b) != b.refines(a) or a == b


def test_partition_composes_with():
    p = Partition.from_blocks(4, [[0, 1], [2, 3]])
    q = Partition.from_blocks(4, [[0, 2], [1, 3]])
    assert p.composes_with(q)


@pytest.mark.parametrize(
    "left, right, expected",
    [
        ([[0, 1], [2]], [[0], [1, 2]], False),
        ([[0], [1, 2]], [[0, 1], [2]], False),
        ([[0, 1], [2], [3]], [[0], [1, 2], [3]], False),
        ([[0, 1], [2, 3]], [[0], [1, 2], [3]], False),
        ([[0, 1], [2]], [[0, 1, 2]], True),
        ([[0], [1], [2]], [[0, 2], [1]], True),
    ],
)
def test_partition_composes_with_cases(left, right, expected):
    size = sum(map(len, left))
    p, q = Partition.from_blocks(size, left), Partition.from_blocks(size, right)
    assert p.composes_with(q) is expected
    assert q.composes_with(p) is expected
    assert loop_composes_with(p, q) is expected


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(*[st.lists(st.integers(0, n - 1), min_size=n, max_size=n)] * 2)
    )
)
def test_partition_composes_with_matches_the_loop(labels):
    p, q = Partition(labels[0]), Partition(labels[1])
    assert p.composes_with(q) == loop_composes_with(p, q)


# ---------------------------------------------------------------------------
# FiniteAlgebra basics


def test_constructor_validation():
    with pytest.raises(InvalidInputError):
        FiniteAlgebra(0, [])
    with pytest.raises(InvalidInputError):
        FiniteAlgebra(2, [Operation("f", 1, [0])])
    with pytest.raises(InvalidInputError):
        FiniteAlgebra(2, [Operation("f", 1, [0, 5])])
    with pytest.raises(InvalidInputError):
        FiniteAlgebra(2, [Operation("f", 1, [0, 1]), Operation("f", 1, [1, 0])])
    with pytest.raises(InvalidInputError, match=r"^unknown operation '\*'$"):
        cyclic_group(4).operation("*")


def test_json_round_trip():
    z4 = cyclic_group(4)
    again = FiniteAlgebra.from_json(__import__("json").dumps(z4.to_json_dict()))
    assert again.size == 4
    assert again.operations == z4.operations
    with pytest.raises(InvalidInputError):
        FiniteAlgebra.from_json("not json")
    with pytest.raises(InvalidInputError):
        FiniteAlgebra.from_json("{}")


# ---------------------------------------------------------------------------
# congruences


def test_principal_congruence_z4():
    z4 = cyclic_group(4)
    assert z4.principal_congruence(0, 2) == Partition.from_blocks(4, [[0, 2], [1, 3]])
    assert z4.principal_congruence(0, 1) == Partition.full(4)
    assert z4.principal_congruence(2, 2) == Partition.identity(4)


def test_all_congruences_z4():
    z4 = cyclic_group(4)
    congs = z4.all_congruences()
    assert len(congs) == 3
    assert Partition.from_blocks(4, [[0, 2], [1, 3]]) in congs


@pytest.mark.parametrize(
    "alg",
    [
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        cyclic_group(6),
        parse_group_spec("Z2xZ2"),
        semilattice_chain(3),
        semilattice_chain(4),
        FiniteAlgebra(1, [Operation("f", 1, [0])]),
        FiniteAlgebra(4, []),
        FiniteAlgebra(5, [Operation("c", 0, [3]), Operation("d", 0, [1])]),
    ],
)
def test_all_congruences_matches_brute_force(alg):
    assert alg.all_congruences() == brute_congruences(alg)


def test_congruence_outputs_are_preserved_by_all_operations():
    for alg in [cyclic_group(6), quaternion_group(), semilattice_chain(4)]:
        for theta in alg.all_congruences():
            assert partition_respects(alg, theta)
        for a in range(alg.size):
            for b in range(alg.size):
                assert partition_respects(alg, alg.principal_congruence(a, b))


def test_is_congruence():
    z4 = cyclic_group(4)
    assert z4.is_congruence(Partition.from_blocks(4, [[0, 2], [1, 3]]))
    assert not z4.is_congruence(Partition.from_blocks(4, [[0, 1], [2, 3]]))


@settings(max_examples=150, deadline=None)
@given(small_algebras(max_size=6))
def test_all_congruences_matches_oracles_on_random_algebras(alg):
    congs = alg.all_congruences()
    assert congs == pairwise_congruence_closure(alg)
    assert congs == brute_congruences(alg)
    assert alg.unary_translations().tolist() == [list(t) for t in loop_translations(alg)]
    for a, b in itertools.combinations(range(alg.size), 2):
        assert alg.principal_congruence(a, b) == union_find_principal_congruence(alg, a, b)


def _refusal(closure, budget):
    try:
        closure(budget=budget)
    except BudgetExceededError as exc:
        return str(exc)
    return None


def _assert_refusal_at_the_oracle_join_count(alg):
    _, joins = orbit_join_closure(alg)
    for budget in (joins - 1, joins):
        assert _refusal(alg.all_congruences, budget) == _refusal(
            lambda budget: orbit_join_closure(alg, budget), budget
        )


@settings(max_examples=100, deadline=None)
@given(small_algebras(max_size=5))
def test_budget_refusal_comes_at_the_join_count_of_the_oracle_closure(alg):
    _assert_refusal_at_the_oracle_join_count(alg)


@settings(max_examples=100, deadline=None)
@given(permutation_algebras())
def test_budget_refusal_at_the_oracle_join_count_with_many_permutations(alg):
    _assert_refusal_at_the_oracle_join_count(alg)


@settings(max_examples=100, deadline=None)
@given(permutation_algebras())
def test_all_congruences_matches_oracles_with_many_permutations(alg):
    congs = alg.all_congruences()
    assert congs == brute_congruences(alg)
    assert congs == orbit_join_closure(alg)[0]


#: algebras whose Close-by-One closure is checked against the breadth-first
#: one: Z2^5 (374 congruences), Z4xZ2^3, Q8xZ3, S4, 7 points with one
#: constant (all Bell(7) = 877 partitions) and 1 point (no principal rows)
CLOSURE_ALGEBRAS = {
    "Z2^5": lambda: parse_group_spec("Z2xZ2xZ2xZ2xZ2"),
    "Z4xZ2^3": lambda: parse_group_spec("Z4xZ2xZ2xZ2"),
    "Q8xZ3": lambda: group_from_cayley(q8_times_z3_cayley()),
    "S4": lambda: parse_group_spec("S4"),
    "7 points": lambda: FiniteAlgebra(7, [("c", 0, [0])]),
    "1 point": lambda: FiniteAlgebra(1, [("c", 0, [0])]),
}


def _assert_matches_the_breadth_first_closure(alg):
    expected, _ = breadth_first_congruence_rows(alg)
    rows = alg.congruence_rows(budget=None)
    assert not rows.flags.writeable
    assert {tuple(r) for r in rows.tolist()} == {tuple(r) for r in expected.tolist()}
    # the rows are sorted, never deduplicated: each was generated once
    assert len({tuple(r) for r in rows.tolist()}) == len(rows)
    parts = list(map(Partition, rows.tolist()))
    assert parts == sorted(parts, key=lambda p: p.block_id)
    assert alg.all_congruences(budget=None) == parts


@pytest.mark.parametrize("name", CLOSURE_ALGEBRAS)
def test_congruence_rows_match_the_breadth_first_closure(name):
    _assert_matches_the_breadth_first_closure(CLOSURE_ALGEBRAS[name]())


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_algebras(max_size=6), permutation_algebras()))
def test_congruence_rows_match_the_breadth_first_closure_on_random_algebras(alg):
    _assert_matches_the_breadth_first_closure(alg)


@pytest.mark.parametrize("name", CLOSURE_ALGEBRAS)
def test_congruence_rows_look_up_no_row_among_those_found(name, monkeypatch):
    alg = CLOSURE_ALGEBRAS[name]()
    expected = alg.congruence_rows(budget=None)

    def fail(*args):
        raise AssertionError("the closure looked a row up among those found")

    monkeypatch.setattr(algebra, "_fresh", fail)
    assert np.array_equal(alg.congruence_rows(budget=None), expected)


@pytest.mark.parametrize("name", [name for name in CLOSURE_ALGEBRAS if name != "1 point"])
def test_congruence_rows_refuse_below_the_breadth_first_join_count(name):
    alg = CLOSURE_ALGEBRAS[name]()
    expected, count = breadth_first_congruence_rows(alg)
    with pytest.raises(BudgetExceededError, match=f"join closure exceeded budget {count - 1}$"):
        alg.congruence_rows(budget=count - 1)
    assert len(alg.congruence_rows(budget=count)) == len(expected)


def _orbit_pairs(alg):
    a, b = alg._orbit_representatives(alg.unary_translations())
    return list(zip(a.tolist(), b.tolist()))


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_algebras(max_size=6), permutation_algebras()))
def test_orbit_representatives_meet_every_orbit(alg):
    pairs = _orbit_pairs(alg)
    assert pairs == sorted(set(pairs))
    assert all(a < b for a, b in pairs)
    # each orbit holds one of them, its least pair, so Con(A) is found in
    # the order of the least pairs
    for orbit in loop_pair_orbits(alg):
        assert min(orbit) in pairs


@pytest.mark.parametrize("spec", ["Z61", "Z8xZ8", "Z2xZ2xZ2xZ2xZ2", "Z4xZ2xZ2xZ2"])
def test_orbit_representatives_are_one_per_orbit_on_abelian_groups(spec):
    table = GroupStructure.of(parse_group_spec(spec)).mul_table.tolist()
    perm = list(range(len(table)))
    random.Random(spec).shuffle(perm)
    group = group_from_cayley(relabeled_cayley(table, perm), name=spec)
    # the reduct (G; +) whose congruences decide computes
    reduct = FiniteAlgebra(group.size, [group.operation("+")])
    for alg in (group, reduct):
        assert len(_orbit_pairs(alg)) == len(loop_pair_orbits(alg))


def assert_principal_kernels_match_the_oracles(alg, all_pairs=True):
    """_principal_rows gives the rows of the full-round fixpoint, on every
    pair a <= b or on the orbit pairs, and principal_split the strong and
    the weak split of the atom-by-atom loop."""
    n = alg.size
    trans = alg.unary_translations()
    a, b = np.triu_indices(n) if all_pairs else alg._orbit_representatives(trans)
    rows = algebra._principal_rows(trans, a, b, n)
    assert np.array_equal(rows, full_round_principal_rows(trans, a, b, n))
    principals = alg._distinct_principal_rows(budget=None)
    for strong, found in zip((True, False), algebra.principal_split(*principals)):
        expected = per_atom_principal_split(*principals, strong)
        assert (found is None) == (expected is None)
        if found is not None:
            assert all(np.array_equal(x, y) for x, y in zip(found, expected))


@settings(max_examples=1000, deadline=None)
@given(st.one_of(small_algebras(max_size=9), permutation_algebras()))
def test_principal_kernels_match_the_oracles_on_random_algebras(alg):
    assert_principal_kernels_match_the_oracles(alg)


@settings(max_examples=200, deadline=None)
@given(small_algebras(min_size=3, max_size=9))
def test_principal_kernels_match_the_oracles_without_permutation_translations(alg):
    trans = alg.unary_translations()
    assume(not (np.sort(trans, axis=1) == np.arange(alg.size)).all(axis=1).any())
    assert_principal_kernels_match_the_oracles(alg)


def _partitions(total, cap):
    if total == 0:
        yield ()
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first, *rest)


def decide_benchmark_groups():
    """Every abelian p-group of order below 64, those of order 64 and rank
    at most 2, and Q8, D4, Q8xZ3, S3 and S4: the groups that the
    decide-groups benchmark relabels."""
    groups = [quaternion_group(), group_from_cayley(d4_cayley(), name="D4")]
    groups += [group_from_cayley(q8_times_z3_cayley(), name="Q8xZ3")]
    groups += [symmetric_group(3), symmetric_group(4)]
    for p in (q for q in range(2, 64) if all(q % d for d in range(2, q))):
        for k in itertools.takewhile(lambda k: p**k <= 64, itertools.count(1)):
            groups += [abelian_group(p, e) for e in _partitions(k, k) if p**k < 64 or len(e) <= 2]
    return groups


@pytest.mark.parametrize("group", decide_benchmark_groups(), ids=lambda g: g.name)
def test_principal_kernels_match_the_oracles_on_relabeled_groups(group):
    table = GroupStructure.of(group).mul_table.tolist()
    perm = list(range(len(table)))
    random.Random(group.name).shuffle(perm)
    relabeled = group_from_cayley(relabeled_cayley(table, perm), name=group.name)
    # the reduct (G; *) is the algebra whose principal rows decide reads
    reduct = GroupStructure.of(relabeled).reduct
    for alg in (relabeled, reduct):
        assert_principal_kernels_match_the_oracles(alg, all_pairs=alg.size <= 32)


@pytest.mark.parametrize("spec", ["300 points", "40 points", "Z2xZ2xZ2xZ2xZ2xZ2"])
def test_principal_kernels_keep_their_temporaries_small(spec):
    # peak traced memory beyond the result, in 8-byte entries: a few
    # _BLOCKs, however many pairs and translations there are
    n = int(spec.split()[0]) if spec.endswith("points") else 64
    alg = FiniteAlgebra(n, []) if spec.endswith("points") else parse_group_spec(spec)
    trans = alg.unary_translations()
    a, b = alg._orbit_representatives(trans)
    principals = alg._distinct_principal_rows(budget=None)
    # the 44,850 atoms of 300 points would make the split a long loop
    kernels = [lambda: algebra._principal_rows(trans, a, b, n)]
    if n < 300:
        kernels.append(lambda: algebra.principal_split(*principals))
    for kernel in kernels:
        tracemalloc.start()
        try:
            result = kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result_bytes = result.nbytes if isinstance(result, np.ndarray) else 0
        assert peak - result_bytes < 8 * 8 * algebra._BLOCK


@st.composite
def partition_pairs(draw):
    n = draw(st.integers(1, 8))
    labels = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return Partition(draw(labels)), Partition(draw(labels))


@given(partition_pairs())
def test_partition_kernel_matches_the_loops(pair):
    p, q = pair
    assert p.join(q) == pair_list_join(p, q)
    assert p.meet(q) == zip_meet(p, q)
    assert p.refines(q) == loop_refines(p, q)
    assert q.refines(p) == loop_refines(q, p)


@given(small_algebras(max_size=5), st.data())
def test_is_congruence_matches_substitution(alg, data):
    n = alg.size
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    part = Partition(labels)
    assert alg.is_congruence(part) == partition_respects(alg, part)


def subtraction_algebra(m):
    table = [(x - y) % m for x in range(m) for y in range(m)]
    return FiniteAlgebra(m, [Operation("-", 2, table)], name=f"(Z{m};x-y)")


@pytest.mark.parametrize(
    "alg",
    [
        cyclic_group(4),
        quaternion_group(),
        direct_product(subtraction_algebra(4), subtraction_algebra(2)),
    ],
)
def test_principal_congruence_is_invariant_under_permutation_translations(alg):
    n = alg.size
    cg = {(a, b): alg.principal_congruence(a, b) for a in range(n) for b in range(n)}
    perms = [t for t in alg.unary_translations() if len(set(t)) == n]
    assert perms
    for t in perms:
        for a, b in cg:
            assert cg[t[a], t[b]] == cg[a, b]


def test_join_closure_budget_guard():
    # no translations: the estimate 7 * 7 = 49 passes, and the closure is
    # every partition of 7 points, Bell(7) = 877 of them
    alg = FiniteAlgebra(7, [("c", 0, [0])])
    with pytest.raises(BudgetExceededError, match="join closure"):
        alg.all_congruences(budget=1000)
    assert len(alg.all_congruences(budget=None)) == 877


@given(st.data())
def test_lex_order_is_the_lexsort_order(data):
    k, n = data.draw(st.integers(0, 30)), data.draw(st.integers(1, 6))
    top = data.draw(st.sampled_from([1, 3, 255, 256, 2**31 - 1]))
    entries = st.lists(st.integers(0, top), min_size=k * n, max_size=k * n)
    rows = np.array(data.draw(entries), dtype=np.int32).reshape(k, n)
    assert np.array_equal(algebra._lex_order(rows), np.lexsort(rows.T[::-1]))


@pytest.mark.parametrize("n", [40, 300])
def test_join_closure_refusal_keeps_its_temporaries_small(n):
    # no translations: n(n - 1)/2 principal congruences, each an atom.  On
    # 300 points the budget goes in the first level, whose 44,850 x 44,850
    # comparison would take gigabytes; on 40 points in the second, whose
    # 607,620 joins would take hundreds of megabytes as one array
    alg = FiniteAlgebra(n, [])
    alg._distinct_principal_rows()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="join closure exceeded budget 1000000$"):
            alg.congruence_rows()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_all_congruences_budget_guard():
    z4 = cyclic_group(4)
    with pytest.raises(BudgetExceededError):
        z4.all_congruences(budget=3)
    assert len(z4.all_congruences(budget=None)) == 3


def test_principal_rows_are_kept_from_their_first_computation():
    z4 = cyclic_group(4)
    # 16 pairs, 4 translations other than the identity; a refusal keeps nothing
    for _ in range(2):
        with pytest.raises(BudgetExceededError, match="estimate 64 exceeds budget 1$"):
            z4._distinct_principal_rows(budget=1)
    forced = z4._distinct_principal_rows(budget=None)
    # later calls read the stored rows, whatever their bounds
    assert z4._distinct_principal_rows(budget=1) is forced
    assert z4._distinct_principal_rows() is forced
    assert not any(part.flags.writeable for part in forced)
    fresh = cyclic_group(4)._distinct_principal_rows()
    assert all(np.array_equal(x, y) for x, y in zip(forced, fresh))
    assert z4.all_congruences(budget=1) == cyclic_group(4).all_congruences()


def test_budget_env_var(monkeypatch):
    # only the CLI reads CONGREX_BUDGET (test_cli.py::test_budget_env)
    expected = cyclic_group(4).all_congruences()
    for raw in ("2", "banana"):
        monkeypatch.setenv("CONGREX_BUDGET", raw)
        assert cyclic_group(4).all_congruences() == expected


def test_empty_budget_env_var_counts_as_unset(monkeypatch):
    monkeypatch.setenv("CONGREX_BUDGET", "")
    assert budget_from_env() == DEFAULT_BUDGET
    assert budget_from_env(None) is None
    assert len(cyclic_group(4).all_congruences()) == 3


# ---------------------------------------------------------------------------
# quotients and products


def test_quotient_z4_mod_two_is_z2():
    z4 = cyclic_group(4)
    theta = Partition.from_blocks(4, [[0, 2], [1, 3]])
    q = z4.quotient(theta)
    z2 = cyclic_group(2)
    assert q.size == 2
    assert np.array_equal(q.operation("+").table, z2.operation("+").table)
    assert np.array_equal(q.operation("-").table, z2.operation("-").table)


def test_quotient_extremes_and_errors():
    z4 = cyclic_group(4)
    assert z4.quotient(Partition.identity(4)).size == 4
    assert z4.quotient(Partition.full(4)).size == 1
    with pytest.raises(InvalidInputError):
        z4.quotient(Partition.from_blocks(4, [[0, 1], [2, 3]]))


def test_direct_product_componentwise():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    prod = direct_product(z2, z3)
    assert prod.size == 6
    for x1, y1, x2, y2 in itertools.product(range(2), range(3), range(2), range(3)):
        lhs = table_value(prod.operation("+"), (x1 * 3 + y1, x2 * 3 + y2), 6)
        assert lhs == ((x1 + x2) % 2) * 3 + (y1 + y2) % 3


def test_direct_product_is_isomorphic_to_z6_here():
    # Z2 x Z3 and Z6 share the cyclic structure; check via an explicit map
    prod = direct_product(cyclic_group(2), cyclic_group(3))
    z6 = cyclic_group(6)
    # generator (1,1) encodes as 1*3+1=4
    phi = {}
    x = 0
    for k in range(6):
        phi[k] = x
        x = table_value(prod.operation("+"), (x, 4), 6)
    for i, j in itertools.product(range(6), repeat=2):
        assert phi[(i + j) % 6] == table_value(prod.operation("+"), (phi[i], phi[j]), 6)


def test_direct_product_records_projection_kernels():
    prod = direct_product(cyclic_group(2), cyclic_group(3))
    k1, k2 = prod.product_kernels
    assert k1 == Partition.from_blocks(6, [[0, 1, 2], [3, 4, 5]])
    assert k2 == Partition.from_blocks(6, [[0, 3], [1, 4], [2, 5]])
    congs = prod.all_congruences()
    assert k1 in congs and k2 in congs
    assert k1.meet(k2) in congs and k1.join(k2) in congs


@st.composite
def algebra_pairs(draw):
    """Two algebras of at most 4 elements with one random signature of
    arities 0 to 3."""
    arities = draw(st.lists(st.integers(0, 3), max_size=3))

    def algebra():
        n = draw(st.integers(1, 4))
        cells = st.integers(0, n - 1)
        tables = [draw(st.lists(cells, min_size=n**k, max_size=n**k)) for k in arities]
        return FiniteAlgebra(n, [(f"f{i}", k, t) for i, (k, t) in enumerate(zip(arities, tables))])

    return algebra(), algebra()


@given(algebra_pairs())
def test_direct_product_matches_the_tuple_loop(pair):
    a, b = pair
    prod = direct_product(a, b)
    assert prod.operations == loop_direct_product(a, b)
    assert prod.product_kernels == (
        Partition(x // b.size for x in range(prod.size)),
        Partition(x % b.size for x in range(prod.size)),
    )


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_algebras(), algebra_pairs().map(lambda pair: pair[0])))
def test_quotient_matches_the_tuple_loop(alg):
    for theta in alg.all_congruences(budget=None):
        assert alg.quotient(theta).operations == loop_quotient(alg, theta)


# From 17 elements on, a binary table has more than 255 entries: uint8 table
# values combined into an index would wrap.


@pytest.mark.parametrize("left,right", [("Q8", "Z3"), ("Z17", "Z16")])
def test_direct_product_of_17_or_more_elements_matches_the_tuple_loop(left, right):
    a, b = parse_group_spec(left), parse_group_spec(right)
    assert direct_product(a, b).operations == loop_direct_product(a, b)


def test_quotient_of_17_or_more_elements_matches_the_tuple_loop():
    alg = parse_group_spec("Q8xZ3")
    for theta in alg.all_congruences():
        assert alg.quotient(theta).operations == loop_quotient(alg, theta)


@given(st.lists(st.integers(1, 4), max_size=4))
def test_grid_lists_the_tuples_in_row_major_order(shape):
    grid = _grid(tuple(shape))
    assert len(grid) == len(shape)
    assert all(x.dtype == np.intp for x in grid)
    tuples = list(itertools.product(*map(range, shape)))
    if shape:
        assert list(zip(*(x.tolist() for x in grid))) == tuples
        if len(set(shape)) == 1:
            assert np.array_equal(_flat_index(grid, shape[0]), np.arange(len(tuples)))


def test_table_messages_name_the_operation():
    for table, message in [
        ([0, 1, 1], "operation 'f': table length 3 != 2^1"),
        ([1.5, 0], "operation 'f': table entry is not an integer: 1.5"),
        ([0, 2], "operation 'f': entry out of range"),
        ([-1, 0], "operation 'f': entry out of range"),
        ([[0], [1]], "operation 'f': table entry is not an integer: [0]"),
        ("01", "operation 'f': table entry is not an integer: '0'"),
    ]:
        with pytest.raises(InvalidInputError) as err:
            FiniteAlgebra(2, [Operation("f", 1, table)])
        assert str(err.value) == message


def test_direct_product_signature_mismatch():
    with pytest.raises(InvalidInputError):
        direct_product(cyclic_group(2), semilattice_chain(2))


# ---------------------------------------------------------------------------
# quotient index and uniformity


def test_quotient_index_values():
    z4 = cyclic_group(4)
    ident = Partition.identity(4)
    beta = Partition.from_blocks(4, [[0, 2], [1, 3]])
    full = Partition.full(4)
    assert quotient_index(z4, ident, beta) == 2
    assert quotient_index(z4, ident, full) == 4
    assert quotient_index(z4, ident, full) == quotient_index(
        z4, beta, full
    ) * quotient_index(z4, ident, beta)
    with pytest.raises(InvalidInputError):
        quotient_index(z4, ident, Partition.from_blocks(4, [[0, 1], [2, 3]]))


def test_uniformity_examples():
    assert is_congruence_uniform(cyclic_group(6))
    assert is_congruence_uniform(quaternion_group())
    assert is_congruence_uniform(semilattice_chain(2))
    assert not is_congruence_uniform(semilattice_chain(3))


def test_uniformity_reads_only_the_congruences_given():
    z4 = cyclic_group(4)
    assert is_congruence_uniform(z4, [])
    # not a congruence of Z4, but read as given
    assert not is_congruence_uniform(z4, [Partition.from_blocks(4, [[0], [1, 2, 3]])])
    with pytest.raises(InvalidInputError, match="different sizes"):
        is_congruence_uniform(z4, [Partition.identity(3)])
