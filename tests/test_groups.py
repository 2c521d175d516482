import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrex.algebra import FiniteAlgebra, Operation, Partition, principal_split
from congrex.clones import pol_fragment
from congrex.errors import InvalidInputError, NotAGroupError
from congrex.groups import (
    GroupStructure,
    abelian_group,
    check_prime,
    coset_partition,
    cyclic_group,
    group_from_cayley,
    is_group_algebra,
    is_nilpotent_group,
    lower_central_series,
    normal_subgroups,
    parse_group_spec,
    prime_factors,
    quaternion_group,
    split_normal_subgroup_lattice,
    subalgebra_on,
    symmetric_group,
    sylow_decomposition,
)
from congrex.lattice import congruence_lattice, splits, splits_strongly

from conftest import (
    bitmask_normal_subgroups,
    brute_group_axioms,
    closure_subgroup_split,
    d4_cayley,
    intercalates,
    loop_coset_partition,
    loop_lower_central_series,
    loop_subalgebra_on,
    q8_times_z3_cayley,
    relabeled_cayley,
    small_algebras,
    small_groups,
    table_value,
)


def test_cyclic_group_tables():
    z4 = cyclic_group(4)
    assert table_value(z4.operation("+"), (3, 3), 4) == 2
    assert table_value(z4.operation("-"), (0,), 4) == 0
    assert table_value(z4.operation("-"), (1,), 4) == 3
    assert table_value(z4.operation("0"), (), 4) == 0
    with pytest.raises(InvalidInputError):
        cyclic_group(0)


def test_group_from_cayley_accepts_klein_four():
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    g = group_from_cayley(table, name="V4")
    assert table_value(g.operation("-"), (2,), 4) == 2
    assert table_value(g.operation("0"), (), 4) == 0


def test_group_from_cayley_rejects_non_groups():
    # not associative
    with pytest.raises(NotAGroupError):
        group_from_cayley([[0, 1], [1, 1]])
    # no identity (constant rows)
    with pytest.raises(NotAGroupError):
        group_from_cayley([[0, 0], [1, 1]])
    # entries out of range
    with pytest.raises(NotAGroupError):
        group_from_cayley([[0, 5], [1, 0]])


def _random_tables(rng, count):
    """Random n x n tables, most with a two-sided unit, so that every axiom
    check is reached: unit, inverses, associativity, or none fails."""
    for _ in range(count):
        n = rng.randint(1, 5)
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.8:
            e = rng.randrange(n)
            for x in range(n):
                table[e][x] = table[x][e] = x
        yield table


def test_group_structure_matches_brute_force_axioms():
    rng = random.Random(2)
    outcomes = set()
    tables = list(_random_tables(rng, 400))
    tables += [GroupStructure(cyclic_group(5)).mul_table.tolist()]
    for table in tables:
        n = len(table)
        alg = FiniteAlgebra(n, [Operation("*", 2, [v for row in table for v in row])])
        expected = brute_group_axioms(table)
        if isinstance(expected, str):
            with pytest.raises(NotAGroupError) as exc:
                GroupStructure(alg)
            assert str(exc.value) == expected
            outcomes.add(expected.split()[0])
        else:
            g = GroupStructure(alg)
            assert (g.identity, tuple(g.inv.tolist())) == expected
            outcomes.add("group")
    assert outcomes == {"no", "element", "associativity", "group"}


#: group tables of order 6 to 16 with intercalates (odd orders have none)
INTERCALATE_GROUPS = [
    "S3", "Z8", "Q8", "Z2xZ4", "Z2xZ2xZ2", "Z10", "Z12", "Z2xZ6", "Z14",
    "Z16", "Z4xZ4", "Z2xZ8", "Z2xZ2xZ4", "Z2xZ2xZ2xZ2", "Z6",
]


def test_swapped_intercalates_match_brute_force_axioms():
    # swapping an intercalate away from the identity keeps the unit and the
    # inverses, so only the associativity check (Light's test, then the
    # scan for the first failing triple) can tell the table from a group
    rng = random.Random(12)
    bases = [d4_cayley(), *(_cayley(parse_group_spec(s)) for s in INTERCALATE_GROUPS)]
    for base in bases:  # each with identity 0
        n = len(base)
        swaps = intercalates(base, 0)
        assert swaps
        for _ in range(8):
            r1, r2, c1, c2 = rng.choice(swaps)
            swapped = [row[:] for row in base]
            swapped[r1][c1], swapped[r1][c2] = base[r1][c2], base[r1][c1]
            swapped[r2][c1], swapped[r2][c2] = base[r2][c2], base[r2][c1]
            table = relabeled_cayley(swapped, rng.sample(range(n), n))
            alg = FiniteAlgebra(n, [Operation("*", 2, [v for row in table for v in row])])
            expected = brute_group_axioms(table)
            assert expected.startswith("associativity fails at")
            with pytest.raises(NotAGroupError) as exc:
                GroupStructure(alg)
            assert str(exc.value) == expected


def test_quaternion_group_relations():
    q8 = quaternion_group()
    g = GroupStructure(q8)
    minus_one, i, j, k = 1, 2, 4, 6
    assert g.mul(i, i) == minus_one
    assert g.mul(j, j) == minus_one
    assert g.mul(i, j) == k
    assert g.mul(j, i) == g.mul(minus_one, k)
    assert g.element_order(i) == 4
    assert g.element_order(minus_one) == 2


def test_symmetric_group_order_and_noncommutativity():
    s3 = symmetric_group(3)
    assert s3.size == 6
    g = GroupStructure(s3)
    assert any(g.mul(x, y) != g.mul(y, x) for x in range(6) for y in range(6))


def test_parse_group_spec():
    assert parse_group_spec("Z4").size == 4
    assert parse_group_spec("Z2xZ2").size == 4
    assert parse_group_spec("Q8").name == "Q8"
    assert parse_group_spec("S3").size == 6
    assert parse_group_spec("Z(2^3)").size == 8
    assert parse_group_spec("Z(3^1)xZ(3^1)").size == 9
    with pytest.raises(InvalidInputError):
        parse_group_spec("Zfoo")
    with pytest.raises(InvalidInputError):
        parse_group_spec("S9")


def test_abelian_group_builder():
    g = abelian_group(2, [2, 1])
    assert g.size == 8
    assert g.name == "Z4xZ2"
    with pytest.raises(InvalidInputError):
        abelian_group(4, [1])
    with pytest.raises(InvalidInputError):
        abelian_group(2, [1, 2])
    with pytest.raises(InvalidInputError):
        abelian_group(2, [])


def test_is_group_algebra():
    assert is_group_algebra(cyclic_group(5))
    from congrex.algebra import FiniteAlgebra, Operation

    meet = FiniteAlgebra(2, [Operation("meet", 2, [0, 0, 0, 1])])
    assert not is_group_algebra(meet)


# ---------------------------------------------------------------------------
# nilpotency


def test_lower_central_series_s3():
    g = GroupStructure(symmetric_group(3))
    series = lower_central_series(g)
    # derived subgroup of S3 is A3 (order 3) and the series stalls there
    assert len(series[1]) == 3
    assert series[-1] == series[-2]
    assert len(series[-1]) == 3


@pytest.mark.parametrize("name", ["S3", "S4", "D4", "Q8", "Q8xZ3"])
def test_lower_central_series_matches_the_commutator_loop(name):
    table = NAMED_GROUPS[name]()
    perm = list(range(len(table)))
    random.Random(name).shuffle(perm)
    g = GroupStructure(group_from_cayley(relabeled_cayley(table, perm)))
    assert lower_central_series(g) == loop_lower_central_series(g)


@given(small_groups())
def test_lower_central_series_matches_the_commutator_loop_on_small_groups(alg):
    g = GroupStructure.of(alg)
    assert lower_central_series(g) == loop_lower_central_series(g)


@pytest.mark.parametrize("name", ["S3", "S4", "D4", "Q8", "Q8xZ3", "Z2xZ2xZ2xZ2xZ2", "Z8xZ4"])
def test_greedy_generators_close_to_the_group(name):
    table = NAMED_GROUPS[name]()
    perm = list(range(len(table)))
    random.Random(name).shuffle(perm)
    g = GroupStructure(group_from_cayley(relabeled_cayley(table, perm)))
    assert g.subgroup_closure(g.generators) == frozenset(range(g.size))
    # each generator at least doubles the subgroup generated so far
    assert 2 ** len(g.generators) <= g.size
    assert list(g.generators) == sorted(g.generators)


def test_is_nilpotent_examples():
    assert is_nilpotent_group("Z4")
    assert is_nilpotent_group("Q8")
    assert is_nilpotent_group("Z2xZ2")
    assert not is_nilpotent_group("S3")
    assert not is_nilpotent_group("S4")


@given(small_groups())
def test_is_nilpotent_matches_the_commutator_loop_on_small_groups(alg):
    # a group of prime-power order is nilpotent without its series
    g = GroupStructure.of(alg)
    assert is_nilpotent_group(g) == (loop_lower_central_series(g)[-1] == {g.identity})


def test_is_nilpotent_checks_the_group_axioms_first():
    # order 4, a prime power, but x - y has no identity
    minus = FiniteAlgebra(4, [Operation("-", 2, [(x - y) % 4 for x in range(4) for y in range(4)])])
    with pytest.raises(NotAGroupError):
        is_nilpotent_group(minus)


def test_quaternion_group_table():
    # 0..7 = 1, -1, i, -i, j, -j, k, -k; row x, column y holds x * y
    assert GroupStructure(quaternion_group()).mul_table.tolist() == [
        [0, 1, 2, 3, 4, 5, 6, 7],
        [1, 0, 3, 2, 5, 4, 7, 6],
        [2, 3, 1, 0, 6, 7, 5, 4],
        [3, 2, 0, 1, 7, 6, 4, 5],
        [4, 5, 7, 6, 1, 0, 2, 3],
        [5, 4, 6, 7, 0, 1, 3, 2],
        [6, 7, 4, 5, 3, 2, 1, 0],
        [7, 6, 5, 4, 2, 3, 0, 1],
    ]


def test_every_group_input_is_checked_once(monkeypatch):
    q8_table = GroupStructure(quaternion_group()).mul_table.tolist()
    built = []
    init = GroupStructure.__init__

    def counted_init(self, alg):
        built.append(alg.size)
        init(self, alg)

    monkeypatch.setattr(GroupStructure, "__init__", counted_init)
    assert is_nilpotent_group("Q8")
    assert built == [8]
    built.clear()
    alg = group_from_cayley(q8_table)
    assert is_group_algebra(alg) and is_nilpotent_group(alg)
    assert built == [8]


def test_a_json_group_keeps_its_structure(monkeypatch):
    built = []
    init = GroupStructure.__init__

    def counted_init(self, alg):
        built.append(alg.size)
        init(self, alg)

    monkeypatch.setattr(GroupStructure, "__init__", counted_init)
    z4 = FiniteAlgebra.from_json_dict(cyclic_group(4).to_json_dict())
    assert pol_fragment(z4, 1).member_count() == 16
    assert pol_fragment(z4, 1).member_count() == 16
    assert built == [4]
    g = GroupStructure.of(z4)
    assert g is z4.group_structure and g.reduct is g.reduct
    # an algebra that is not a group is refused on every call
    minus = [(x - y) % 4 for x in range(4) for y in range(4)]
    minus = FiniteAlgebra(4, [Operation("-", 2, minus)])
    for _ in range(2):
        with pytest.raises(NotAGroupError):
            GroupStructure.of(minus)
    assert minus.group_structure is None


def test_prime_helpers():
    assert prime_factors(12) == {2: 2, 3: 1}
    assert prime_factors(7) == {7: 1}
    check_prime(13)
    with pytest.raises(InvalidInputError):
        check_prime(12)
    with pytest.raises(InvalidInputError):
        check_prime(1)


def test_sylow_decomposition():
    out = sylow_decomposition("Z12")
    assert [(p, sub.size) for p, sub in out] == [(2, 4), (3, 3)]
    out = sylow_decomposition("Z6")
    assert [(p, sub.size) for p, sub in out] == [(2, 2), (3, 3)]
    # each factor is itself a group
    for _, sub in out:
        assert is_group_algebra(sub)
    with pytest.raises(InvalidInputError):
        sylow_decomposition("S3")


@pytest.mark.parametrize(
    "spec", ["Z1", "Z5", "Q8", "Z12", "Z2xZ6", "S3", "S4", "Q8xZ3"]
)
def test_sylow_decomposition_exists_exactly_for_nilpotent_groups(spec):
    if spec == "Q8xZ3":
        alg = group_from_cayley(q8_times_z3_cayley(), name=spec)
    else:
        alg = parse_group_spec(spec)
    if is_nilpotent_group(alg):
        factors = sylow_decomposition(alg)
        assert [(p, sub.size) for p, sub in factors] == [
            (p, p**k) for p, k in sorted(prime_factors(alg.size).items())
        ]
    else:
        with pytest.raises(InvalidInputError):
            sylow_decomposition(alg)


# ---------------------------------------------------------------------------
# normal subgroup lattice


@pytest.mark.parametrize("spec", ["Z4", "Z2xZ2", "Q8", "S3", "Z12", "Z8"])
def test_normal_subgroups_match_congruences(spec):
    alg = parse_group_spec(spec)
    subs = normal_subgroups(alg)
    congs = set(alg.all_congruences())
    assert {coset_partition(alg, s) for s in subs} == congs
    assert len(subs) == len(congs)


def _abelian_p_groups(bound):
    def exponents(total, cap):
        if total == 0:
            yield []
        for first in range(min(total, cap), 0, -1):
            for rest in exponents(total - first, first):
                yield [first, *rest]

    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        k = 1
        while p**k <= bound:
            for exps in exponents(k, k):
                yield abelian_group(p, exps)
            k += 1


def _cayley(alg):
    return GroupStructure(alg).mul_table.tolist()


NAMED_GROUPS = {
    "Q8": lambda: _cayley(quaternion_group()),
    "D4": d4_cayley,
    "Q8xZ3": q8_times_z3_cayley,
    "S3": lambda: _cayley(symmetric_group(3)),
    "S4": lambda: _cayley(symmetric_group(4)),
    **{alg.name: (lambda alg=alg: _cayley(alg)) for alg in _abelian_p_groups(32)},
}


@pytest.mark.parametrize("name", NAMED_GROUPS)
def test_normal_subgroups_match_the_bitmask_closure(name):
    table = NAMED_GROUPS[name]()
    perm = list(range(len(table)))
    random.Random(name).shuffle(perm)
    g = GroupStructure(group_from_cayley(relabeled_cayley(table, perm)))
    assert normal_subgroups(g) == bitmask_normal_subgroups(g)


def test_normal_subgroups_ignore_operations_beyond_the_group():
    # (Z4; +, f) with f swapping 0 and 1 has only two congruences, but the
    # normal subgroups of its group (Z4; +) are those of Z4
    z4 = cyclic_group(4)
    alg = FiniteAlgebra(4, [z4.operation("+"), Operation("f", 1, [1, 0, 2, 3])])
    assert len(alg.all_congruences()) == 2
    subs = normal_subgroups(GroupStructure(alg))
    assert sorted(coset_partition(z4, s) for s in subs) == z4.all_congruences()


def test_normal_subgroups_s3():
    subs = normal_subgroups("S3")
    assert sorted(len(s) for s in subs) == [1, 3, 6]


def test_coset_partition_is_congruence():
    q8 = quaternion_group()
    for s in normal_subgroups(q8):
        part = coset_partition(q8, s)
        assert q8.is_congruence(part)
        assert all(len(b) == len(s) for b in part.blocks())


@pytest.mark.parametrize("spec", ["Z4", "Z8", "Z2xZ2", "Q8", "Z12", "Z2xZ4", "S3"])
@pytest.mark.parametrize("strong", [True, False])
def test_subgroup_split_agrees_with_lattice_route(spec, strong):
    alg = parse_group_spec(spec)
    g = GroupStructure(alg)
    subs = normal_subgroups(g)
    pair = split_normal_subgroup_lattice(g)[not strong]
    lat, _ = congruence_lattice(alg)
    w = splits_strongly(lat) if strong else splits(lat)
    assert (pair is not None) == (w is not None)
    if pair is not None:
        assert_valid_subgroup_split(g, subs, pair, strong)


def assert_valid_subgroup_split(g, subs, pair, strong):
    """(delta, epsilon) are normal subgroups with 1 < epsilon, delta < G,
    epsilon <= delta if strong, and every normal subgroup lies below delta
    or above epsilon."""
    delta, eps = pair
    assert delta in subs and eps in subs
    assert frozenset({g.identity}) < eps and delta < frozenset(range(g.size))
    if strong:
        assert eps <= delta
    assert all(s <= delta or eps <= s for s in subs)


def assert_subgroup_split_is_the_principal_split(alg, same_atom=True):
    """split_normal_subgroup_lattice is principal_split on the principal
    congruences of alg, each read as the class of the identity.  It finds a
    split exactly where the subgroup-closure oracle does, with the same pair
    when same_atom: the two try the atoms in different orders, which agree
    on p-groups."""
    g = GroupStructure(alg)
    subs = normal_subgroups(g)
    for strong, pair, found in zip(
        (True, False), split_normal_subgroup_lattice(g), principal_split(*alg._distinct_principal_rows())
    ):
        if found is not None:
            found = tuple(frozenset(np.flatnonzero(r == r[g.identity]).tolist()) for r in found)
        assert pair == found
        oracle = closure_subgroup_split(g, subs, strong)
        assert (pair is None) == (oracle is None)
        if same_atom:
            assert pair == oracle
        elif pair is not None:
            assert_valid_subgroup_split(g, subs, pair, strong)


@settings(max_examples=60, deadline=None)
@given(small_groups())
def test_subgroup_split_is_the_principal_split(alg):
    assert_subgroup_split_is_the_principal_split(alg)


@pytest.mark.parametrize(
    "spec",
    ["Z8", "Z9", "Z16", "Z27", "Q8", "D4", "Z2xZ4", "Z2xZ8", "Z4xZ4"]
    + ["D4-relabeled", "Q8-relabeled"],
)
def test_subgroup_split_is_the_principal_split_on_p_groups(spec):
    if spec.endswith("-relabeled"):
        table = NAMED_GROUPS[spec.removesuffix("-relabeled")]()
        perm = list(range(len(table)))
        random.Random(spec).shuffle(perm)
        alg = group_from_cayley(relabeled_cayley(table, perm))
    else:
        alg = group_from_cayley(d4_cayley()) if spec == "D4" else parse_group_spec(spec)
    assert_subgroup_split_is_the_principal_split(alg)


@pytest.mark.parametrize("spec", ["Z12", "Z4xZ3", "Z8xZ3", "Z4xZ9", "Q8xZ3"])
def test_subgroup_split_is_a_valid_principal_split_on_nilpotent_groups(spec):
    # not p-groups: the subgroup list and the congruence list order their
    # atoms differently, so the oracle may name another valid pair
    assert_subgroup_split_is_the_principal_split(parse_group_spec(spec), same_atom=False)


def test_witness_partitions_for_z4():
    z4 = cyclic_group(4)
    (delta, eps), _ = split_normal_subgroup_lattice(GroupStructure(z4))
    assert coset_partition(z4, eps) == Partition.from_blocks(4, [[0, 2], [1, 3]])
    assert coset_partition(z4, delta) == Partition.from_blocks(4, [[0, 2], [1, 3]])


# ---------------------------------------------------------------------------
# tables on the argument grid against the tuple loops


def closed_under(alg, elements):
    """The least subset containing elements that every operation keeps."""
    elems = set(elements)
    while True:
        image = {
            table_value(op, args, alg.size)
            for op in alg.operations
            for args in itertools.product(sorted(elems), repeat=op.arity)
        }
        if image <= elems:
            return elems
        elems |= image


@settings(max_examples=200, deadline=None)
@given(small_algebras(), st.data())
def test_subalgebra_on_matches_the_loop(alg, data):
    elements = data.draw(st.sets(st.integers(0, alg.size - 1), min_size=1))
    if data.draw(st.booleans()):
        elements = closed_under(alg, elements)
    expected = loop_subalgebra_on(alg, elements)
    if isinstance(expected, str):
        with pytest.raises(InvalidInputError) as err:
            subalgebra_on(alg, elements)
        assert str(err.value) == expected
    else:
        assert subalgebra_on(alg, elements).operations == expected


@pytest.mark.parametrize("elements", [range(0, 25, 5), {0, 5, 10}, {3, 24}])
def test_subalgebra_on_of_17_or_more_elements_matches_the_loop(elements):
    # 25^2 entries: uint8 values combined into an index would wrap
    alg = cyclic_group(25)
    expected = loop_subalgebra_on(alg, elements)
    if isinstance(expected, str):
        with pytest.raises(InvalidInputError) as err:
            subalgebra_on(alg, elements)
        assert str(err.value) == expected
    else:
        assert subalgebra_on(alg, elements).operations == expected


def test_subalgebra_on_names_the_first_tuple_that_leaves_the_subset():
    z4 = cyclic_group(4)
    expected = "subset not closed under '+' at (1, 1)"
    assert loop_subalgebra_on(z4, {0, 1}) == expected
    with pytest.raises(InvalidInputError) as err:
        subalgebra_on(z4, {0, 1})
    assert str(err.value) == expected
    # the nullary identity is not in {1}
    with pytest.raises(InvalidInputError, match=r"under '0' at \(\)$"):
        subalgebra_on(FiniteAlgebra(4, [z4.operation("0")]), {1})
    for outside in ({0, 4}, {-1, 0}):
        with pytest.raises(InvalidInputError, match="element out of range"):
            subalgebra_on(z4, outside)


@given(small_groups())
def test_coset_partition_matches_the_loop(alg):
    g = GroupStructure.of(alg)
    for h in normal_subgroups(g):
        assert coset_partition(g, h) == loop_coset_partition(g, h)


@pytest.mark.parametrize("spec", ["S3", "Q8", "Z2xZ4"])
def test_coset_partition_of_every_subgroup_matches_the_loop(spec):
    g = GroupStructure.of(parse_group_spec(spec))
    subgroups = {g.subgroup_closure(pair) for pair in itertools.combinations(range(g.size), 2)}
    for h in subgroups:
        assert coset_partition(g, h) == loop_coset_partition(g, h)
