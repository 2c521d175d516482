import inspect
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from congrex import algebra, clones
from congrex.algebra import FiniteAlgebra, Operation, Partition, direct_product
from congrex.clones import (
    DEFAULT_MEMBER_CAP,
    CloneFragment,
    FiniteFunction,
    Relation4,
    add_dummy_arg,
    clone_closure,
    comp_fragment,
    compose_first,
    diagonal_minor,
    group_malcev_function,
    is_congruence_preserving,
    is_malcev_function,
    is_product_congruence,
    malcev_term,
    pol_fragment,
    preserves_relation,
    rotate_args,
    skew_congruences,
    swap_args,
    tensor_fragments,
    tensor_function,
    tensor_generators,
)
from congrex.errors import BudgetExceededError, InvalidInputError
from congrex.groups import (
    GroupStructure,
    cyclic_group,
    group_from_cayley,
    parse_group_spec,
    quaternion_group,
)

from conftest import (
    d4_cayley,
    fixpoint_closure,
    full_width_members,
    loop_arity_part,
    loop_comp_fragment,
    loop_compose_first,
    loop_congruence_preserving,
    loop_group_malcev_function,
    loop_is_malcev_function,
    loop_malcev_term,
    loop_preserves_relation,
    loop_table,
    loop_tensor_fragments,
    loop_tensor_function,
    malcev_functions,
    pair_list_join,
    relabeled_cayley,
    small_algebras,
    small_groups,
    sorted_parts,
    superposition_closure,
    table_key,
    zip_meet,
)


def unary(size, values):
    return FiniteFunction(size, 1, tuple(values))


def binary(size, fn):
    return FiniteFunction(
        size, 2, tuple(fn(x, y) for x in range(size) for y in range(size))
    )


def ternary(size, fn):
    return FiniteFunction(size, 3, loop_table(size, 3, lambda args: fn(*args)))


# ---------------------------------------------------------------------------
# FiniteFunction and the function-algebra operations


def test_function_validation_and_call():
    f = binary(2, lambda x, y: x ^ y)
    assert f(1, 1) == 0
    with pytest.raises(InvalidInputError):
        f(1)
    with pytest.raises(InvalidInputError):
        FiniteFunction(2, 1, (0, 1, 1))
    with pytest.raises(InvalidInputError):
        FiniteFunction(2, 1, (0, 2))


def test_projection_and_constant():
    p0 = FiniteFunction.projection(3, 2, 0)
    assert p0(1, 2) == 1 and p0 != FiniteFunction.projection(3, 2, 1)
    c = FiniteFunction.constant(3, 2)
    assert c(0) == 2 and c != FiniteFunction.projection(3, 1, 0)


def test_rotate_on_ternary():
    f = FiniteFunction(
        2, 3, tuple((x + 2 * y + 4 * z) % 2 for x in range(2) for y in range(2) for z in range(2))
    )
    g = rotate_args(f)
    for x, y, z in itertools.product(range(2), repeat=3):
        assert g(x, y, z) == f(y, z, x)


def test_rotate_turns_first_projection_into_last():
    p0 = FiniteFunction.projection(3, 2, 0)
    assert rotate_args(p0) == FiniteFunction.projection(3, 2, 1)


def test_swap_args():
    f = binary(3, lambda x, y: (x + 2 * y) % 3)
    g = swap_args(f)
    for x, y in itertools.product(range(3), repeat=2):
        assert g(x, y) == f(y, x)
    u = unary(3, [1, 2, 0])
    assert swap_args(u) == u and rotate_args(u) == u


def test_diagonal_minor():
    f = binary(3, lambda x, y: (x + 2 * y) % 3)
    g = diagonal_minor(f)
    assert g.arity == 1
    for x in range(3):
        assert g(x) == f(x, x)


def test_add_dummy_appends_last():
    u = unary(3, [1, 2, 0])
    g = add_dummy_arg(u)
    assert g.arity == 2
    for x, y in itertools.product(range(3), repeat=2):
        assert g(x, y) == u(x)


def test_compose_first_convention():
    f = binary(4, lambda x, y: (x + y) % 4)
    g = unary(4, [(3 * x) % 4 for x in range(4)])
    h = compose_first(f, g)
    assert h.arity == 2
    for x, y in itertools.product(range(4), repeat=2):
        assert h(x, y) == f(g(x), y)
    # binary into binary gives a ternary function
    k = compose_first(f, f)
    assert k.arity == 3
    for x, y, z in itertools.product(range(4), repeat=3):
        assert k(x, y, z) == f(f(x, y), z)


# ---------------------------------------------------------------------------
# clone closure


def test_closure_of_nothing_is_projections():
    frag = clone_closure([], 2, universe_size=2)
    assert frag.member_count() == 3
    projections = {FiniteFunction.projection(2, k, i) for k in (1, 2) for i in range(k)}
    assert frag.function_set() == projections


def test_closure_of_negation():
    neg = unary(2, [1, 0])
    frag = clone_closure([neg], 1, universe_size=2)
    assert set(frag.arity_part(1)) == {unary(2, [0, 1]), neg}


@pytest.mark.parametrize("arity", [1, 2])
def test_closure_matches_superposition_oracle(arity):
    gens = [binary(2, lambda x, y: x ^ y), FiniteFunction(2, 0, (1,))]
    frag = clone_closure(gens, arity, universe_size=2)
    oracle = superposition_closure(gens, arity, 2)
    assert set(frag.arity_part(arity)) == {f for f in oracle if f.arity == arity}


def test_closure_of_and_not_and_implication_is_every_binary_function():
    # x and not y, y -> x: the bounded fixpoint found only 14 binary members
    gens = [binary(2, lambda x, y: x & (1 - y)), binary(2, lambda x, y: (1 - y) | x)]
    frag = clone_closure(gens, 2)
    assert len(frag.arity_part(2)) == 16
    assert len(fixpoint_closure(gens, 2, 2)) == 4 + 14


@pytest.mark.parametrize(
    "gens,max_arity",
    [
        ([ternary(2, lambda x, y, z: 1 - (x & y & z))], 1),
        ([ternary(2, lambda x, y, z: 1 - (x & y & z))], 2),
        ([ternary(3, lambda x, y, z: (x - y + z + 1) % 3), FiniteFunction(3, 0, (2,))], 1),
        ([binary(3, lambda x, y: (x * y + 1) % 3)], 1),
    ],
    ids=["nand3-unary", "nand3-binary", "affine3-unary", "product3-unary"],
)
def test_closure_applies_generators_above_max_arity(gens, max_arity):
    frag = clone_closure(gens, max_arity)
    size = frag.universe_size
    for arity in range(1, max_arity + 1):
        assert set(frag.arity_part(arity)) == superposition_closure(gens, arity, size)


def test_clone_closure_takes_no_working_arity():
    # generators of every arity are applied as given, so no arity bound is settable
    parameters = inspect.signature(clone_closure).parameters
    assert list(parameters) == ["gens", "max_arity", "universe_size", "member_cap"]


@st.composite
def generator_sets(draw):
    """Generators of arity <= 2 on 2 or 3 elements, and the arity bound of
    their closure: 1 for binary generators on 3 elements (whose binary part
    can have 3^9 members), else 2."""
    size = draw(st.sampled_from((2, 3)))

    def function(k):
        return st.lists(
            st.integers(0, size - 1), min_size=size**k, max_size=size**k
        ).map(lambda t: FiniteFunction(size, k, tuple(t)))

    gens = draw(
        st.lists(st.sampled_from((0, 1, 2)).flatmap(function), min_size=1, max_size=3)
    )
    max_arity = 1 if size == 3 and any(f.arity == 2 for f in gens) else 2
    return size, gens, max_arity


def assert_parts_match_the_oracles(frag, gens):
    """Each arity part of frag, the closure of gens, equals the part that
    the head-by-head rounds (loop_arity_part) and superposition find."""
    size = frag.universe_size
    lifted = [clones._lift_generator(g) for g in gens]
    for arity, part in enumerate(frag.parts, 1):
        loop = loop_arity_part(lifted, size, arity, 0, DEFAULT_MEMBER_CAP)
        assert sorted(loop.tolist()) == part.tolist()
        assert set(frag.arity_part(arity)) == superposition_closure(gens, arity, size)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_closure_is_exact_and_contains_the_fixpoint(spec):
    size, gens, max_arity = spec
    frag = clone_closure(gens, max_arity, universe_size=size)
    assert_parts_match_the_oracles(frag, gens)
    fixpoint = fixpoint_closure(gens, max_arity, size)
    for arity in range(1, max_arity + 1):
        assert {f for f in fixpoint if f.arity == arity} <= set(frag.arity_part(arity))


@st.composite
def symmetric_generator_sets(draw):
    """Generators on 2 or 3 elements, at least one of them a commutative
    binary one or, on 2 elements, a ternary one symmetric in its last two
    arguments, with up to two more of arity 0 to 2 (3 on 2 elements),
    symmetric or not; and the arity bound of their closure: 2 on 2
    elements, 1 on 3 (whose binary part can have 3^9 members).  Ternary
    generators on 3 elements would take superposition_closure seconds."""
    size = draw(st.sampled_from((2, 3)))
    cells = st.integers(0, size - 1)

    def symmetric(arity):
        table = [0] * size**arity
        for args in itertools.product(range(size), repeat=arity):
            if args[-2] <= args[-1]:
                value = draw(cells)
                table[clones._flat_index(args, size)] = value
                swapped = args[:-2] + (args[-1], args[-2])
                table[clones._flat_index(swapped, size)] = value
        return FiniteFunction(size, arity, tuple(table))

    def any_function(arity):
        if arity >= 2 and draw(st.booleans()):
            return symmetric(arity)
        table = draw(st.lists(cells, min_size=size**arity, max_size=size**arity))
        return FiniteFunction(size, arity, tuple(table))

    top = 5 - size  # the highest arity
    gens = [symmetric(draw(st.integers(2, top)))]
    gens += [any_function(draw(st.integers(0, top))) for _ in range(draw(st.integers(0, 2)))]
    return size, draw(st.permutations(gens)), 4 - size


@settings(max_examples=60, deadline=None)
@given(symmetric_generator_sets())
def test_closure_with_symmetric_generators_matches_the_oracles(spec):
    size, gens, max_arity = spec
    assert any(clones._symmetric_in_last_two(g) for g in gens)
    frag = clone_closure(gens, max_arity, universe_size=size)
    assert_parts_match_the_oracles(frag, gens)


def test_symmetry_in_the_last_two_arguments():
    assert clones._symmetric_in_last_two(binary(3, lambda x, y: (x + y) % 3))
    assert not clones._symmetric_in_last_two(binary(3, lambda x, y: (x - y) % 3))
    assert not clones._symmetric_in_last_two(unary(2, [1, 0]))
    # x - y + z is symmetric in its first and last arguments, not its last two
    assert not clones._symmetric_in_last_two(ternary(3, lambda x, y, z: (x - y + z) % 3))
    assert clones._symmetric_in_last_two(ternary(3, lambda x, y, z: (x * y + x * z) % 3))


def test_nand_closure_is_every_boolean_function():
    nand = binary(2, lambda x, y: 1 - (x & y))
    frag = clone_closure([nand], 2)
    assert [len(part) for part in frag.parts] == [4, 16]
    for arity in (1, 2):
        assert set(frag.arity_part(arity)) == superposition_closure([nand], arity, 2)


def test_closure_stops_once_a_part_holds_every_function(monkeypatch):
    # (x - y + 1) mod 3 and [0, 0, 2] generate every function on 3 elements:
    # the 27 unary and the 3^9 binary tables
    gens = [binary(3, lambda x, y: (x - y + 1) % 3), unary(3, [0, 0, 2])]
    sizes = []  # (seen, its size) after each block of generator applications
    fresh = clones._fresh

    def counting_fresh(seen, rows):
        new = fresh(seen, rows)
        sizes.append((seen, len(seen)))
        return new

    monkeypatch.setattr(clones, "_fresh", counting_fresh)
    frag = clone_closure(gens, 2)
    for arity, part in enumerate(frag.parts, 1):
        grid = list(itertools.product(range(3), repeat=3**arity))
        assert part.tolist() == [list(row) for row in grid]
    assert frag.member_count() == 19710
    # no block is applied once a part is full: each size is reached once
    per_part = {}
    for seen, size in sizes:
        per_part.setdefault(id(seen), []).append(size)
    assert [counts[-1] for counts in per_part.values()] == [27, 3**9]
    assert [counts.count(counts[-1]) for counts in per_part.values()] == [1, 1]


def test_blocks_are_made_as_they_are_iterated_over():
    # the heads of a ternary generator number known^2: too many to list
    blocks = clones._chunks(10**18, 1)
    assert next(blocks) == slice(0, algebra._BLOCK)
    assert next(blocks) == slice(algebra._BLOCK, 2 * algebra._BLOCK)


def test_function_count_is_not_built_above_the_cap():
    assert clones._function_count(3, 9, 10**6) == 3**9
    assert clones._function_count(3, 9, 3**9) == 3**9
    assert clones._function_count(3, 9, 3**9 - 1) is None
    assert clones._function_count(1, 10**12, 1) == 1
    assert clones._function_count(1, 10**12, 0) is None
    # 2^(10^12) would take 125 GB
    assert clones._function_count(2, 10**12, DEFAULT_MEMBER_CAP) is None


@pytest.mark.parametrize(
    "gens,max_arity",
    [
        ([binary(2, lambda x, y: 1 - (x & y))], 2),
        ([binary(4, lambda x, y: (x + y) % 4), unary(4, [0, 3, 2, 1])], 2),
        ([ternary(2, lambda x, y, z: (x + y + z) % 2)], 3),
        ([binary(3, lambda x, y: (x - y + 1) % 3), unary(3, [0, 0, 2])], 2),
    ],
    ids=["nand", "z4-term", "minority", "every-function-on-3"],
)
def test_closure_refuses_exactly_above_the_member_cap(gens, max_arity):
    members = clone_closure(gens, max_arity).member_count()
    with pytest.raises(BudgetExceededError, match=f"member cap {members - 1}$"):
        clone_closure(gens, max_arity, member_cap=members - 1)
    assert clone_closure(gens, max_arity, member_cap=members).member_count() == members


def test_closure_member_cap():
    z4 = cyclic_group(4)
    gens = [FiniteFunction.from_operation(4, op) for op in z4.operations if op.arity]
    with pytest.raises(BudgetExceededError):
        clone_closure(gens, 2, universe_size=4, member_cap=3)
    # Pol_2(S3) is refused from its Sims table, before any member is built
    with pytest.raises(BudgetExceededError):
        pol_fragment(parse_group_spec("S3"), 2, member_cap=20000)


def test_closure_input_validation():
    with pytest.raises(InvalidInputError):
        clone_closure([], 2)
    for size in (0, -2):
        with pytest.raises(InvalidInputError, match="universe must be nonempty"):
            clone_closure([], 2, universe_size=size)
    with pytest.raises(InvalidInputError, match="universe must be nonempty"):
        clone_closure([FiniteFunction(0, 1, ())], 1)
    with pytest.raises(InvalidInputError):
        clone_closure([unary(2, [0, 1]), unary(3, [0, 1, 2])], 2)


def test_fragment_composition_soundness():
    # every defined composition of members of a closed fragment stays inside
    frag = pol_fragment(cyclic_group(3), 2)
    members = frag.function_set()
    assert frag.member_count() <= 500
    for f in members:
        for g in members:
            if f.arity + g.arity - 1 <= frag.max_arity:
                assert compose_first(f, g) in frag
        assert rotate_args(f) in frag
        assert swap_args(f) in frag
        if f.arity == 2:
            assert diagonal_minor(f) in frag
        if f.arity + 1 <= frag.max_arity:
            assert add_dummy_arg(f) in frag


# ---------------------------------------------------------------------------
# Pol and Comp


def test_pol_z4_unary_is_affine():
    frag = pol_fragment(cyclic_group(4), 1)
    expected = {
        unary(4, [(a * x + b) % 4 for x in range(4)])
        for a in range(4)
        for b in range(4)
    }
    assert set(frag.arity_part(1)) == expected
    assert frag.member_count() == 16


def test_pol_z2_binary_is_affine():
    frag = pol_fragment(cyclic_group(2), 2)
    expected = {
        binary(2, lambda x, y, a=a, b=b, c=c: (a * x + b * y + c) % 2)
        for a in range(2)
        for b in range(2)
        for c in range(2)
    }
    assert set(frag.arity_part(2)) == expected


def test_comp_z4_unary_count_and_structure():
    z4 = cyclic_group(4)
    congs = z4.all_congruences()
    frag = comp_fragment(z4, 1)
    assert frag.member_count() == 64
    beta = Partition.from_blocks(4, [[0, 2], [1, 3]])
    for f in frag.arity_part(1):
        assert beta.same(f(0), f(2)) and beta.same(f(1), f(3))
        assert is_congruence_preserving(f, [p.least for p in congs])


def test_pol_subset_of_comp():
    z4 = cyclic_group(4)
    pol = pol_fragment(z4, 1)
    comp = comp_fragment(z4, 1)
    assert pol.function_set() <= comp.function_set()


# ---------------------------------------------------------------------------
# Pol of a group from a Sims table, against the enumerating closure


def closure_pol(alg, max_arity):
    """Pol of alg by clone_closure: the clone of its operations and every
    constant."""
    consts = [FiniteFunction.constant(alg.size, v) for v in range(alg.size)]
    return clones._operation_clone(alg, max_arity, DEFAULT_MEMBER_CAP, consts)


def pol_order(alg, arity):
    """|Pol_k(alg)| from the Sims table alone, no member listed."""
    return clones._pol_table(GroupStructure.of(alg), arity, math.inf).order()


def nonabelian_group(name, seed=None):
    """S3, Q8 or D4, on elements renamed by random.Random(seed) if given."""
    table = d4_cayley() if name == "D4" else GroupStructure.of(parse_group_spec(name)).mul_table
    table = [list(map(int, row)) for row in table]
    if seed is not None:
        perm = list(range(len(table)))
        random.Random(seed).shuffle(perm)
        table = relabeled_cayley(table, perm)
    return group_from_cayley(table, name=name)


Z4_ADD = Operation("+", 2, [(x + y) % 4 for x in range(4) for y in range(4)])
Z4_NEG = Operation("-", 1, [0, 3, 2, 1])
Z4_ZERO = Operation("0", 0, [0])


@settings(max_examples=60, deadline=None)
@given(small_groups())
def test_pol_of_small_groups_equals_the_closure(alg):
    expected = closure_pol(alg, 2)
    with mock.patch.object(clones, "clone_closure", side_effect=AssertionError):
        assert pol_fragment(alg, 2) == expected


@pytest.mark.parametrize("constants", [[1], [0, 2], [2, 0, 1]])
def test_pol_of_a_non_group_passes_each_constant_once(constants):
    # (Z3; x - y) with nullary operations is not a group, so Pol goes
    # through the closure, which gets each constant once: as a nullary
    # operation or, for the other values, as a unary constant
    sub = Operation("-", 2, [(x - y) % 3 for x in range(3) for y in range(3)])
    alg = FiniteAlgebra(3, [sub, *(Operation(f"c{v}", 0, [v]) for v in constants)])
    expected = closure_pol(alg, 2)
    received = []
    closure = clones.clone_closure

    def spy(gens, *args):
        received.extend(int(f.table[0]) for f in gens if len(set(f.table.tolist())) == 1)
        return closure(gens, *args)

    with mock.patch.object(clones, "clone_closure", spy):
        assert pol_fragment(alg, 2) == expected
    assert sorted(received) == [0, 1, 2]


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("name", ["S3", "Q8", "D4"])
def test_pol_of_relabeled_nonabelian_groups_equals_the_closure(name, seed):
    alg = nonabelian_group(name, seed)
    assert pol_fragment(alg, 1) == closure_pol(alg, 1)


@pytest.mark.parametrize("n", range(1, 13))
def test_pol_of_cyclic_groups_is_the_affine_maps(n):
    # Pol_k(Z_n) is the n^(k+1) maps a1 x1 + ... + ak xk + b
    frag = pol_fragment(cyclic_group(n), 2)
    assert [len(part) for part in frag.parts] == [n**2, n**3]
    assert frag.parts[1].tolist() == sorted(
        [(a * x + b * y + c) % n for x in range(n) for y in range(n)]
        for a, b, c in itertools.product(range(n), repeat=3)
    )


def test_pol_orders_of_nonabelian_groups():
    s3, q8, d4 = (nonabelian_group(name) for name in ("S3", "Q8", "D4"))
    assert [len(part) for part in pol_fragment(s3, 1).parts] == [324]
    assert [len(part) for part in pol_fragment(d4, 1).parts] == [128]
    assert [len(part) for part in pol_fragment(q8, 2).parts] == [128, 4096]
    assert pol_order(s3, 2) == 4251528


@pytest.mark.parametrize(
    "ops",
    [[Z4_ADD], [Z4_ADD, Z4_NEG, Z4_ZERO, Operation("c", 0, [3])]],
    ids=["multiplication-only", "extra-constant"],
)
def test_group_reducts_and_constants_take_the_table(ops):
    alg = FiniteAlgebra(4, ops)
    expected = closure_pol(alg, 2)
    with mock.patch.object(clones, "clone_closure", side_effect=AssertionError):
        assert pol_fragment(alg, 2) == expected
    assert expected == pol_fragment(cyclic_group(4), 2)


@pytest.mark.parametrize(
    "ops",
    [
        [Z4_ADD, Z4_NEG, Z4_ZERO, Operation("f", 1, [0, 0, 2, 2])],
        [Operation("-", 2, [(x - y) % 4 for x in range(4) for y in range(4)])],
    ],
    ids=["extra-unary", "subtraction-only"],
)
def test_other_algebras_take_the_closure(ops):
    alg = FiniteAlgebra(4, ops)
    expected = closure_pol(alg, 2)
    with mock.patch.object(clones, "_pol_table", side_effect=AssertionError):
        assert pol_fragment(alg, 2) == expected


def test_pol_of_a_group_refuses_exactly_above_the_member_cap():
    z4 = cyclic_group(4)
    with pytest.raises(BudgetExceededError, match="above the member cap 79$"):
        pol_fragment(z4, 2, member_cap=79)
    assert pol_fragment(z4, 2, member_cap=80).member_count() == 80
    with pytest.raises(BudgetExceededError, match="up to arity 1, above the member cap 0$"):
        pol_fragment(z4, 2, member_cap=0)


def spy_members(built):
    """A _SimsTable.members that records the arity part it lists, by width."""
    members = clones._SimsTable.members

    def spy(table):
        built.append(table.entries.shape[1])
        return members(table)

    return mock.patch.object(clones._SimsTable, "members", spy)


@settings(max_examples=60, deadline=None)
@given(small_groups(), st.integers(1, 2))
def test_sims_members_match_the_full_width_product(alg, arity):
    table = clones._pol_table(GroupStructure.of(alg), arity, math.inf)
    assert np.array_equal(table.members(), full_width_members(table))


@pytest.mark.parametrize("seed", [None, 1])
@pytest.mark.parametrize("name,arity", [("S3", 1), ("Q8", 2), ("D4", 2)])
def test_sims_members_of_nonabelian_groups_match_the_full_width_product(name, arity, seed):
    table = clones._pol_table(GroupStructure.of(nonabelian_group(name, seed)), arity, math.inf)
    assert np.array_equal(table.members(), full_width_members(table))


def test_pol_builds_no_member_of_a_refused_arity():
    built = []
    with spy_members(built), pytest.raises(BudgetExceededError, match="up to arity 2,"):
        pol_fragment(parse_group_spec("S3"), 2)
    assert built == [6]  # the 324 unary members only


def test_sims_table_stops_once_its_order_passes_the_limit():
    # the table is a lower bound while it grows: it stops early, above the limit
    table = clones._pol_table(GroupStructure.of(parse_group_spec("S3")), 2, 10**6)
    assert 10**6 < table.order() < pol_order(parse_group_spec("S3"), 2)


def test_group_of_refuses_a_second_binary_operation_and_non_groups():
    times = Operation("*", 2, [(x * y) % 4 for x in range(4) for y in range(4)])
    assert clones._group_of(FiniteAlgebra(4, [Z4_ADD, times])) is None
    assert clones._group_of(FiniteAlgebra(4, [times])) is None


def test_comp_budget():
    with pytest.raises(BudgetExceededError):
        comp_fragment(cyclic_group(4), 2, budget=100)


@pytest.mark.parametrize("max_arity", [0, -1])
def test_comp_refuses_max_arity_below_one_before_the_budget(max_arity):
    with pytest.raises(InvalidInputError, match="^max_arity must be >= 1$"):
        comp_fragment(cyclic_group(3), max_arity, budget=0)


def test_comp_on_simple_algebra_is_everything():
    # Con(Z3) is trivial, so every unary function preserves it
    frag = comp_fragment(cyclic_group(3), 1)
    assert frag.member_count() == 27


def test_is_congruence_preserving_examples():
    congs = cyclic_group(4).all_congruences()
    f1 = unary(4, [0, 2, 0, 2])
    assert is_congruence_preserving(f1, [p.least for p in congs])
    swap01 = unary(4, [1, 0, 2, 3])
    assert not is_congruence_preserving(swap01, [p.least for p in congs])


def test_congruence_preserving_unary_functions_on_the_klein_group():
    # Con(Z2 x Z2) is M3: each unary function is checked against every
    # congruence alone and against all of them, and each of the three atoms
    # is the one congruence broken by some function
    congs = parse_group_spec("Z2xZ2").all_congruences()
    atoms = [a for a in congs if a.num_blocks == 2]
    broken_alone = set()
    for values in itertools.product(range(4), repeat=4):
        f = unary(4, values)
        broken = []
        for alpha in congs:
            kept = is_congruence_preserving(f, [alpha.least])
            assert kept == loop_congruence_preserving(f, [alpha])
            if not kept:
                broken.append(alpha)
        assert is_congruence_preserving(f, [p.least for p in congs]) == (not broken)
        if len(broken) == 1:
            broken_alone.add(broken[0])
    assert broken_alone == set(atoms)


@st.composite
def functions_on(draw, size):
    """A random function of arity 0 to 3, fully random or a constant with
    one entry changed (which breaks few congruences, often exactly one)."""
    arity = draw(st.integers(0, 3))
    cells = size**arity
    value = st.integers(0, size - 1)
    if draw(st.booleans()):
        table = draw(st.lists(value, min_size=cells, max_size=cells))
    else:
        table = [draw(value)] * cells
        table[draw(st.integers(0, cells - 1))] = draw(value)
    return FiniteFunction(size, arity, tuple(table))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_is_congruence_preserving_matches_tuple_loop_on_random_algebras(data):
    alg = data.draw(small_algebras())
    f = data.draw(functions_on(alg.size))
    congs = alg.all_congruences()
    for alpha in congs:
        assert is_congruence_preserving(f, [alpha.least]) == loop_congruence_preserving(
            f, [alpha]
        )
    rows = [p.least for p in congs]
    assert is_congruence_preserving(f, rows) == loop_congruence_preserving(f, congs)


@settings(max_examples=25, deadline=None)
@given(small_algebras(min_size=2, max_size=3), st.integers(1, 2))
@example(cyclic_group(4), 1)
@example(parse_group_spec("Z2xZ2"), 1)
def test_comp_fragment_matches_candidate_loop_on_random_algebras(alg, max_arity):
    assert comp_fragment(alg, max_arity).members == loop_comp_fragment(alg, max_arity)


def test_comp_fragment_keeps_order_and_members_across_levels():
    # Con is {0, 01|2, 1}; the binary tables are filled over 9 levels
    alg = FiniteAlgebra(3, [Operation("u", 1, [1, 0, 2])])
    frag = comp_fragment(alg, 2)
    tables = list(map(tuple, frag.parts[1].tolist()))
    assert tables == sorted(set(tables))  # strictly lexicographic
    assert frag.members == loop_comp_fragment(alg, 2)
    # each block signature class of k pairs goes into {0, 1} (2^k ways) or to 2
    assert len(tables) == (2**4 + 1) * (2**2 + 1) * (2**2 + 1) * (2**1 + 1)


def assert_comp_part(alg, frag, arity, count):
    """The part of the given arity has count distinct members in
    lexicographic order, and each preserves every congruence of alg."""
    part = frag.parts[arity - 1]
    assert len(part) == count
    assert algebra._increasing(part)
    for alpha in alg.all_congruences():
        least = alpha.least
        rep = clones._signature_reps(least, arity)
        assert (least[part] == least[part[:, rep]]).all()


def test_comp_of_z4_is_a_map_of_the_quotient_with_a_free_choice_per_class():
    # Con(Z4) is the chain 0 < {0, 2 | 1, 3} < 1: a k-ary member is any map of
    # (Z4/2Z4)^k with a free choice in each class, 2^(2^k) * 2^(4^k) of them
    z4 = cyclic_group(4)
    frag = comp_fragment(z4, 2)
    for k in (1, 2):
        assert_comp_part(z4, frag, k, 2 ** (2**k) * 2 ** (4**k))
    assert frag.member_count() == 64 + 1_048_576


def test_comp_of_z9_unary():
    # Con(Z9) is 0 < 3Z9 < 1: any map of Z9/3Z9, then a free choice in each class
    z9 = cyclic_group(9)
    assert_comp_part(z9, comp_fragment(z9, 1), 1, 3**3 * 3**9)


def test_comp_of_q8_unary_lifts_comp_of_its_central_quotient():
    # every congruence of Q8 but 0 contains the centre, so a unary member
    # induces one of the 8 members of Comp(Q8/Z(Q8)), Q8/Z(Q8) = Z2 x Z2, and
    # takes either value in each centre class: 8 * 2^8 of them
    q8 = quaternion_group()
    centre = next(t for t in q8.all_congruences() if t.num_blocks == 4)
    quotient = loop_comp_fragment(q8.quotient(centre), 1)[0]
    assert len(quotient) == 8
    expected = {
        table
        for g in quotient
        for table in itertools.product(*[centre.blocks()[g(b)] for b in centre.block_id])
    }
    frag = comp_fragment(q8, 1)
    assert_comp_part(q8, frag, 1, 2048)
    assert set(map(tuple, frag.parts[0].tolist())) == expected


def assert_checked_functions(frag):
    """Every member equals, and hashes like, the checked FiniteFunction of
    its table as Python ints, and its table is a read-only array in the
    least dtype."""
    for part in frag.members:
        for f in part:
            checked = FiniteFunction(frag.universe_size, f.arity, f.table.tolist())
            assert f == checked and hash(f) == hash(checked)
            assert f.table.dtype == np.min_scalar_type(frag.universe_size - 1)
            assert not f.table.flags.writeable
            assert type(f.universe_size) is int and type(f.arity) is int


@settings(max_examples=25, deadline=None)
@given(small_algebras(min_size=1, max_size=3), st.integers(1, 2))
def test_comp_members_are_checked_functions(alg, max_arity):
    assert_checked_functions(comp_fragment(alg, max_arity))


@settings(max_examples=50, deadline=None)
@given(generator_sets())
def test_closure_members_are_checked_functions(spec):
    size, gens, max_arity = spec
    assert_checked_functions(clone_closure(gens, max_arity, universe_size=size))


@pytest.mark.parametrize(
    "size,arity,rows",
    [
        (2, 1, [[0, 2]]),
        (2, 1, [[0, 1], [-1, 0]]),
        (3, 1, [[0, 1, 2], [3, 0, 0]]),
        (3, 2, [[0] * 8]),
        (2.0, 1, [[0, 1]]),
        (2, True, [[0, 1]]),
    ],
)
def test_functions_refuse_what_finite_function_refuses(size, arity, rows):
    with pytest.raises(InvalidInputError) as want:
        for row in rows:
            FiniteFunction(size, arity, tuple(row))
    with pytest.raises(InvalidInputError) as got:
        clones._member_rows(size, arity, np.array(rows))
    assert str(got.value) == str(want.value)


def test_functions_refuse_an_out_of_range_array():
    with pytest.raises(InvalidInputError, match="^entry out of range$"):
        clones._member_rows(2, 2, np.array([[0, 1, 1, 0], [0, 2, 1, 1]]))


def test_functions_of_an_empty_array():
    rows = clones._member_rows(3, 2, np.empty((0, 9), dtype=np.intp))
    assert rows.shape == (0, 9)


@pytest.mark.parametrize(
    "max_arity,parts,message",
    [
        (2, [[[0, 1]]], "^1 arity parts for max_arity 2$"),
        (True, [[[0, 1]]], "^max_arity is not an integer: True$"),
        (1, [[[0, 2]]], "^entry out of range$"),
        (1, [[[0.0, 1.0]]], "^member tables must be a 2-D int array"),
        (1, [[0, 1]], "^member tables must be a 2-D int array"),
        (1, [[[0, 1, 1]]], r"^table length 3 != 2\^1$"),
    ],
)
def test_fragment_refuses_malformed_parts(max_arity, parts, message):
    with pytest.raises(InvalidInputError, match=message):
        CloneFragment(2, max_arity, [np.array(p) for p in parts])


@settings(max_examples=100)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_fragment_parts_are_sorted_and_distinct_as_the_tuple_sort(size, max_arity, data):
    by_arity = {}
    for k in range(1, max_arity + 1):
        table = st.lists(st.integers(0, size - 1), min_size=size**k, max_size=size**k)
        by_arity[k] = [FiniteFunction(size, k, tuple(t)) for t in data.draw(st.lists(table))]
    parts = [
        np.array([f.table for f in by_arity[k]], dtype=np.intp).reshape(-1, size**k)
        for k in range(1, max_arity + 1)
    ]
    frag = CloneFragment(size, max_arity, parts)
    assert frag.members == sorted_parts(
        {k: set(fs) for k, fs in by_arity.items()}, max_arity
    )
    assert frag.member_count() == sum(len(set(fs)) for fs in by_arity.values())
    assert all(f in frag for fs in by_arity.values() for f in fs)
    assert frag == CloneFragment(size, max_arity, [p[::-1] for p in parts])


@settings(max_examples=100)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_member_rows_of_rows_near_order_match_the_tuple_sort(size, arity, data):
    # rows in order, with or without repeats, or with one adjacent pair swapped
    table = st.tuples(*[st.integers(0, size - 1)] * size**arity)
    rows = sorted(data.draw(st.lists(table)))
    if data.draw(st.booleans()):
        rows = sorted(set(rows))
    if len(rows) > 1 and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(rows) - 2))
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    got = clones._member_rows(size, arity, np.array(rows, dtype=np.intp).reshape(-1, size**arity))
    assert list(map(tuple, got.tolist())) == sorted(set(rows))
    assert got.dtype == np.min_scalar_type(size - 1)


def test_comp_rows_in_order_are_not_sorted_again(monkeypatch):
    def fail(keys):
        raise AssertionError("rows in order sorted again")

    frag = comp_fragment(cyclic_group(3), 2)
    z3 = cyclic_group(3)
    z3.unary_translations()  # sorted before the patch, as Con(Z3) needs them
    monkeypatch.setattr(clones.np, "lexsort", fail)
    assert comp_fragment(z3, 2) == frag
    rows = frag.parts[1]
    assert clones._member_rows(3, 2, rows) is rows  # read-only, so shared
    writable = rows.copy()
    assert clones._member_rows(3, 2, writable) is not writable  # the fragment owns its parts
    with pytest.raises(AssertionError, match="sorted again"):
        clones._member_rows(3, 2, rows[::-1])


# ---------------------------------------------------------------------------
# tensor construction


def test_tensor_function_acts_componentwise():
    c = unary(2, [1, 0])
    d = unary(3, [(y + 1) % 3 for y in range(3)])
    t = tensor_function(c, d)
    assert t.universe_size == 6
    for x, y in itertools.product(range(2), range(3)):
        assert t(x * 3 + y) == c(x) * 3 + d(y)


def test_tensor_of_projections():
    p1 = FiniteFunction.projection(2, 2, 0)
    p2 = FiniteFunction.projection(3, 2, 1)
    t = tensor_function(p1, p2)
    for a, b in itertools.product(range(6), repeat=2):
        assert t(a, b) == (a // 3) * 3 + b % 3


def test_tensor_arity_mismatch():
    with pytest.raises(InvalidInputError):
        tensor_function(unary(2, [0, 1]), FiniteFunction.projection(3, 2, 0))


def test_tensor_fragments_equals_pol_of_product():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    prod = direct_product(z2, z3)
    tens = tensor_fragments(pol_fragment(z2, 2), pol_fragment(z3, 2))
    assert tens.members == pol_fragment(prod, 2).members


def test_tensor_generator_closure_equals_tensor_of_closures():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    x_gens = [FiniteFunction.from_operation(2, op) for op in z2.operations]
    y_gens = [FiniteFunction.from_operation(3, op) for op in z3.operations]
    zset = tensor_generators(x_gens, y_gens, 2, 3)
    closed = clone_closure(zset, 2, universe_size=6)
    lhs = clone_closure(x_gens, 2, universe_size=2)
    rhs = clone_closure(y_gens, 2, universe_size=3)
    assert closed.members == tensor_fragments(lhs, rhs).members


@settings(max_examples=40, deadline=None)
@given(generator_sets(), generator_sets())
def test_tensor_fragments_match_the_pair_loop(left, right):
    max_arity = min(left[2], right[2])
    cf, df = (
        clone_closure(gens, max_arity, universe_size=size)
        for size, gens, _ in (left, right)
    )
    assert tensor_fragments(cf, df).members == loop_tensor_fragments(cf, df)


def test_tensor_clone_contains_projections_and_composes():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    tens = tensor_fragments(pol_fragment(z2, 2), pol_fragment(z3, 2))
    for i in range(2):
        assert FiniteFunction.projection(6, 2, i) in tens
    members = tens.function_set()
    sample = sorted(members, key=lambda f: (f.arity, table_key(f)))[::7]
    for f in sample:
        for g in sample:
            if f.arity + g.arity - 1 <= 2:
                assert compose_first(f, g) in tens


# ---------------------------------------------------------------------------
# product and skew congruences


def test_product_congruence_classification():
    prod = parse_group_spec("Z2xZ2")
    k1, k2 = prod.product_kernels
    diag = Partition.from_blocks(4, [[0, 3], [1, 2]])
    assert is_product_congruence(k1, k1, k2)
    assert is_product_congruence(Partition.identity(4), k1, k2)
    assert is_product_congruence(Partition.full(4), k1, k2)
    assert not is_product_congruence(diag, k1, k2)


def test_product_congruence_kernel_validation():
    k1 = Partition.from_blocks(4, [[0, 1], [2, 3]])
    with pytest.raises(InvalidInputError):
        is_product_congruence(Partition.identity(4), k1, k1)


def test_skew_congruence_counts():
    assert not skew_congruences(parse_group_spec("Z2xZ3"))
    assert not skew_congruences(parse_group_spec("Z4xZ3"))
    skew = skew_congruences(parse_group_spec("Z2xZ2"))
    assert len(skew) == 1
    assert skew[0] == Partition.from_blocks(4, [[0, 3], [1, 2]])


def test_skew_requires_recorded_product():
    with pytest.raises(InvalidInputError):
        skew_congruences(cyclic_group(4))


def test_skew_congruences_of_no_congruence_is_empty():
    assert skew_congruences(parse_group_spec("Z2xZ2"), []) == []


# ---------------------------------------------------------------------------
# relations and Mal'cev


def test_relation4_membership():
    r = Relation4.from_tuples(2, [(0, 0, 1, 1), (0, 0, 1, 1)])
    assert len(r) == 1
    assert (0, 0, 1, 1) in r and (1, 1, 1, 1) not in r
    with pytest.raises(InvalidInputError):
        Relation4.from_tuples(2, [(0, 0, 5, 1)])


def test_preserves_relation():
    z4 = cyclic_group(4)
    eps = Partition.from_blocks(4, [[0, 2], [1, 3]])
    d = group_malcev_function(z4)
    tuples = [
        (x1, x2, x3, d(x1, x2, x3))
        for x1 in range(4)
        for x2 in range(4)
        if eps.same(x1, x2)
        for x3 in range(4)
    ]
    rho = Relation4.from_tuples(4, tuples)
    assert len(rho) == 32
    plus = FiniteFunction.from_operation(4, z4.operation("+"))
    assert preserves_relation(plus, rho)
    assert preserves_relation(FiniteFunction.projection(4, 2, 1), rho)
    swap01 = unary(4, [1, 0, 2, 3])
    assert not preserves_relation(swap01, rho)
    # against the row-by-row loop, for arities 0 to 3 and the empty relation
    plus3 = tuple(sum(a) % 4 for a in itertools.product(range(4), repeat=3))
    funcs = [
        FiniteFunction(4, 0, (1,)),
        swap01,
        unary(4, [0, 3, 2, 1]),
        plus,
        binary(4, lambda x, y: (x * y) % 4),
        d,
        FiniteFunction(4, 3, plus3),
    ]
    for rel in (rho, Relation4.from_tuples(4, [])):
        for f in funcs:
            assert preserves_relation(f, rel) == loop_preserves_relation(f, rel)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_preserves_relation_matches_row_loop_on_random_relations(data):
    size = data.draw(st.sampled_from((2, 3, 5)))  # 5^4 codes pass 255
    arity = data.draw(st.integers(0, 3))
    table = data.draw(
        st.lists(st.integers(0, size - 1), min_size=size**arity, max_size=size**arity)
    )
    tuples = data.draw(
        st.lists(st.tuples(*[st.integers(0, size - 1)] * 4), max_size=6)
    )
    rel = Relation4.from_tuples(size, tuples)
    if data.draw(st.booleans()) and arity >= 2:
        # symmetric in the last two arguments, which takes the half-tuple
        # path: the value at (..., x, y) becomes the one at (..., min, max)
        t = np.array(table).reshape(-1, size, size)
        table = np.triu(t) + np.triu(t, 1).transpose(0, 2, 1)
    f = FiniteFunction(size, arity, np.ravel(table).tolist())
    # blocks of 1 or 7 split each box of the kernel into runs of heads,
    # down to one head a block
    block = data.draw(st.sampled_from((1, 7, algebra._BLOCK)))
    with mock.patch.object(algebra, "_BLOCK", block):
        assert preserves_relation(f, rel) == loop_preserves_relation(f, rel)


def off_at(f, args, value):
    """f with the value at the argument tuple args replaced."""
    table = f.table.tolist()
    table[clones._flat_index(args, f.universe_size)] = value
    return FiniteFunction(f.universe_size, f.arity, tuple(table))


@pytest.fixture
def small_blocks(monkeypatch):
    """_BLOCK = 1000, and for each _chunks call the block count and its
    largest block's items times the width, which _chunks keeps within
    _BLOCK, in the returned list."""
    monkeypatch.setattr(algebra, "_BLOCK", 1000)
    calls = []
    chunks = clones._chunks

    def counting_chunks(count, width):
        blocks = list(chunks(count, width))
        largest = max((len(range(count)[b]) * width for b in blocks), default=0)
        calls.append((len(blocks), largest))
        return blocks

    monkeypatch.setattr(clones, "_chunks", counting_chunks)
    return calls


def test_preserves_relation_across_blocks(small_blocks):
    # 31 tuples over {0, 1, 2} without (0, 0, 0, 0), then (3, 3, 3, 3): a
    # ternary projection changed at (3, 3, 3) breaks the relation only at the
    # last of the 32^3 choices, and changed at (0, 0, 0) at the first
    low = [t for t in itertools.product(range(3), repeat=4) if any(t)][:31]
    rel = Relation4.from_tuples(4, low + [(3, 3, 3, 3)])
    first = FiniteFunction.projection(4, 3, 0)
    last_only = off_at(first, (3, 3, 3), 0)
    first_only = off_at(first, (0, 0, 0), 3)
    for f, expected in [(first, True), (last_only, False), (first_only, False)]:
        assert preserves_relation(f, rel) is expected
        assert loop_preserves_relation(f, rel) is expected
    # one _chunks call per box of _argument_blocks with every tuple new:
    # the boxes of the last and the middle argument are empty, and the
    # first argument's holds all 32^3 choices, its 32^2 heads 62 at a time
    # (width 32 * 4 // 8 = 16), each against the 32 of the last tuple
    assert [blocks for blocks, _ in small_blocks] == [0, 0, 17] * 3
    assert [largest for _, largest in small_blocks] == [0, 0, 992] * 3
    assert preserves_relation(last_only, Relation4.from_tuples(4, low))
    # rho of Z4 for the delta classes {0, 2}, {1, 3}: 32 tuples
    d = group_malcev_function(cyclic_group(4))
    args = [a for a in itertools.product(range(4), repeat=3) if (a[0] - a[1]) % 2 == 0]
    rho = Relation4.from_tuples(4, [(*a, d(*a)) for a in args])
    plus3 = FiniteFunction(4, 3, tuple(sum(a) % 4 for a in itertools.product(range(4), repeat=3)))
    funcs = [
        FiniteFunction(4, 0, (1,)),
        FiniteFunction(4, 0, (0,)),
        unary(4, [1, 0, 2, 3]),
        unary(4, [0, 3, 2, 1]),
        binary(4, lambda x, y: (x + y) % 4),
        binary(4, lambda x, y: (x * y) % 4),
        plus3,
        off_at(plus3, (3, 3, 3), 2),
        off_at(plus3, (0, 0, 0), 1),
    ]
    for rel in (rho, Relation4.from_tuples(4, [])):
        for f in funcs:
            assert preserves_relation(f, rel) == loop_preserves_relation(f, rel)
    assert max(blocks for blocks, _ in small_blocks) > 1
    assert all(largest <= 1000 for _, largest in small_blocks)


def test_malcev_function_identities():
    d = group_malcev_function(cyclic_group(4))
    assert is_malcev_function(d)
    assert d(1, 3, 2) == 0
    assert not is_malcev_function(FiniteFunction.projection(4, 3, 0))


@st.composite
def malcev_term_algebras(draw):
    """Algebras whose ternary term part is small: any algebra on 2 elements
    (at most 2^8 ternary functions), or x - y on Z2, Z3 or Z4 (affine
    functions only) on randomly renamed elements."""
    if draw(st.booleans()):
        return draw(small_algebras(min_size=2, max_size=2))
    n = draw(st.sampled_from((2, 3, 4)))
    name = draw(st.permutations(range(n)))
    table = [0] * (n * n)
    for x, y in itertools.product(range(n), repeat=2):
        table[name[x] * n + name[y]] = name[(x - y) % n]
    return FiniteAlgebra(n, [Operation("sub", 2, table)])


@settings(max_examples=60, deadline=None)
@given(malcev_term_algebras())
def test_malcev_term_matches_the_first_malcev_member_of_the_tuple_sort(alg):
    assume(group_malcev_function(alg) is None)
    ternary = clones._operation_clone(alg, 3, DEFAULT_MEMBER_CAP).arity_part(3)
    assert malcev_term(alg) == loop_malcev_term(set(ternary))


def test_malcev_term_reads_the_constants_of_the_algebra():
    # (Z2; x and not y, 1): not y = g(1, y) and x and y = g(x, not y), so
    # the term functions are every Boolean function, x + y + z among them
    alg = FiniteAlgebra(2, [Operation("g", 2, [0, 0, 1, 0]), Operation("c", 0, [1])])
    gens = [FiniteFunction.from_operation(2, op) for op in alg.operations]
    assert len(superposition_closure(gens, 2, 2)) == 16
    every = {FiniteFunction(2, 3, t) for t in itertools.product(range(2), repeat=8)}
    d = malcev_term(alg)
    assert loop_is_malcev_function(d)
    assert d == loop_malcev_term(every)


def test_malcev_term_group_shortcut_and_none():
    assert malcev_term(cyclic_group(5)) is not None
    from congrex.algebra import FiniteAlgebra, Operation

    meet2 = FiniteAlgebra(2, [Operation("meet", 2, [0, 0, 0, 1])])
    assert group_malcev_function(meet2) is None
    assert malcev_term(meet2) is None


# ---------------------------------------------------------------------------
# tables on the argument grid against the tuple loops


@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_projection_matches_the_loop(size, arity, data):
    index = data.draw(st.integers(0, arity - 1))
    p = FiniteFunction.projection(size, arity, index)
    assert table_key(p) == loop_table(size, arity, lambda args: args[index])


@settings(max_examples=150)
@given(st.integers(1, 4).flatmap(functions_on))
def test_argument_operations_match_the_loops(f):
    s, n = f.universe_size, f.arity
    assert table_key(add_dummy_arg(f)) == loop_table(s, n + 1, lambda a: f(*a[:-1]))
    if n >= 2:
        assert table_key(rotate_args(f)) == loop_table(s, n, lambda a: f(*a[1:], a[0]))
        assert table_key(swap_args(f)) == loop_table(s, n, lambda a: f(a[1], a[0], *a[2:]))
        assert table_key(diagonal_minor(f)) == loop_table(s, n - 1, lambda a: f(a[0], *a))


@settings(max_examples=150)
@given(st.integers(1, 4).flatmap(lambda s: st.tuples(functions_on(s), functions_on(s))))
def test_compose_first_matches_the_loop(pair):
    f, g = pair
    if f.arity == 0:
        f = add_dummy_arg(f)
    assert table_key(compose_first(f, g)) == loop_compose_first(f, g)


def test_compose_first_with_a_nullary_g_on_17_elements_matches_the_loop():
    # the constant 16 times 17 passes 255: a uint8 value would wrap
    g = FiniteFunction.constant(17, 16, 0)
    minus = FiniteFunction.from_operation(17, parse_group_spec("Z17").operation("+"))
    assert table_key(compose_first(minus, g)) == loop_compose_first(minus, g)


def test_compose_first_with_a_nullary_g():
    g = FiniteFunction(3, 0, (2,))
    neg = FiniteFunction(3, 1, (0, 2, 1))
    assert compose_first(neg, g) == FiniteFunction(3, 0, (1,))
    minus = FiniteFunction(3, 2, tuple((x - y) % 3 for x in range(3) for y in range(3)))
    h = compose_first(minus, g)
    assert h == FiniteFunction(3, 1, (2, 1, 0))
    assert table_key(h) == loop_compose_first(minus, g)


@settings(max_examples=150)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3), st.data())
def test_tensor_function_matches_the_loop(sa, sb, arity, data):
    def function(size):
        cells = st.integers(0, size - 1)
        table = data.draw(st.lists(cells, min_size=size**arity, max_size=size**arity))
        return FiniteFunction(size, arity, tuple(table))

    c, d = function(sa), function(sb)
    assert table_key(tensor_function(c, d)) == loop_tensor_function(c, d)


@pytest.mark.parametrize("sa,sb", [(5, 4), (17, 16)])
def test_tensor_function_of_17_or_more_elements_matches_the_loop(sa, sb):
    # (sa * sb)^2 entries: uint8 values combined into an index would wrap
    c, d = (FiniteFunction.from_operation(n, cyclic_group(n).operation("+")) for n in (sa, sb))
    assert table_key(tensor_function(c, d)) == loop_tensor_function(c, d)


@given(small_groups())
def test_group_malcev_function_matches_the_loop(alg):
    d = group_malcev_function(alg)
    assert table_key(d) == loop_group_malcev_function(GroupStructure.of(alg))
    assert is_malcev_function(d)


@settings(max_examples=150)
@given(st.integers(1, 4), st.data())
def test_is_malcev_function_matches_the_loop(size, data):
    d = data.draw(st.one_of(functions_on(size), malcev_functions(size)))
    if data.draw(st.booleans()) and d.arity == 3:
        table = d.table.tolist()
        table[data.draw(st.integers(0, len(table) - 1))] = data.draw(st.integers(0, size - 1))
        d = FiniteFunction(size, 3, tuple(table))
    assert is_malcev_function(d) == loop_is_malcev_function(d)


@pytest.mark.parametrize(
    "entry", [True, 1.0, np.int64(1)], ids=["bool", "float", "numpy-int"]
)
def test_function_table_entries_must_be_python_ints(entry):
    with pytest.raises(InvalidInputError, match="table entry is not an integer"):
        FiniteFunction(2, 1, (0, entry))
    with pytest.raises(InvalidInputError, match="table entry is not an integer"):
        FiniteAlgebra(2, [Operation("f", 1, (0, entry))])


@pytest.mark.parametrize(
    "size,arity", [(2, 1.0), (2, True), (2.0, 1), (np.int64(2), 1)],
    ids=["float-arity", "bool-arity", "float-size", "numpy-int-size"],
)
def test_function_size_and_arity_must_be_python_ints(size, arity):
    with pytest.raises(InvalidInputError, match="is not an integer"):
        FiniteFunction(size, arity, (0, 1))


@pytest.mark.parametrize("args", [(0, 2), (-1, 0), (2, 0), (1, -1)])
def test_function_call_refuses_arguments_out_of_range(args):
    f = FiniteFunction(2, 2, (0, 1, 1, 0))
    with pytest.raises(InvalidInputError, match=r"^argument out of range in \("):
        f(*args)
    assert [f(x, y) for x in range(2) for y in range(2)] == [0, 1, 1, 0]


def test_an_int_array_table_is_accepted_and_a_checked_one_kept():
    f = FiniteFunction(3, 1, np.array([2, 0, 1], dtype=np.int64))
    assert f.table.dtype == np.uint8 and f.table.tolist() == [2, 0, 1]
    assert FiniteFunction(3, 1, f.table).table is f.table
    assert FiniteAlgebra(3, [Operation("f", 1, f.table)]).operation("f").table is f.table
    with pytest.raises(InvalidInputError, match=r"^table must be a 1-D int array: bool \(2,\)$"):
        FiniteFunction(2, 1, np.array([True, False]))
    with pytest.raises(InvalidInputError, match=r"^table must be a 1-D int array: int64 \(2, 2\)$"):
        FiniteFunction(2, 2, np.array([[0, 1], [1, 0]]))
    with pytest.raises(InvalidInputError, match=r"^table length 3 != 2\^1$"):
        FiniteFunction(2, 1, np.array([0, 1, 1]))
    with pytest.raises(InvalidInputError, match="^entry out of range$"):
        FiniteFunction(2, 1, np.array([0, 2], dtype=np.uint64))


def test_function_table_length_and_range_messages():
    with pytest.raises(InvalidInputError, match=r"^table length 3 != 2\^1$"):
        FiniteFunction(2, 1, (0, 1, 1))
    with pytest.raises(InvalidInputError, match="^entry out of range$"):
        FiniteFunction(2, 1, (0, 2))
    with pytest.raises(InvalidInputError, match="^entry out of range$"):
        FiniteFunction(2, 1, (-1, 0))


# ---------------------------------------------------------------------------
# skew congruences, all at once against one at a time


def loop_skew_congruences(prod, congs):
    k1, k2 = prod.product_kernels
    return [t for t in congs if zip_meet(pair_list_join(t, k1), pair_list_join(t, k2)) != t]


@st.composite
def same_signature_products(draw):
    """a x b for a random algebra a of 1 to 3 elements and random tables of
    its signature on 1 to 3 elements."""
    a = draw(small_algebras(max_size=3))
    m = draw(st.integers(1, 3))
    cells = st.integers(0, m - 1)
    ops = [
        (op.name, op.arity, draw(st.lists(cells, min_size=m**op.arity, max_size=m**op.arity)))
        for op in a.operations
    ]
    return direct_product(a, FiniteAlgebra(m, ops))


@settings(max_examples=100, deadline=None)
@given(same_signature_products())
def test_skew_congruences_match_the_per_congruence_loop(prod):
    congs = prod.all_congruences(budget=None)
    assert skew_congruences(prod, congs) == loop_skew_congruences(prod, congs)


@pytest.mark.parametrize("spec,count", [("Z2xZ2", 1), ("Z4xZ2", 2), ("Z2xZ3", 0)])
def test_skew_congruences_of_groups_match_the_per_congruence_loop(spec, count):
    prod = parse_group_spec(spec)
    congs = prod.all_congruences()
    skew = skew_congruences(prod, congs)
    assert skew == loop_skew_congruences(prod, congs)
    assert len(skew) == count
    k1, k2 = prod.product_kernels
    assert [not is_product_congruence(t, k1, k2) for t in congs] == [t in skew for t in congs]


def test_skew_congruences_check_the_kernels_once(monkeypatch):
    prod = parse_group_spec("Z2xZ2xZ2")
    congs = prod.all_congruences()
    calls = []
    meet = Partition.meet
    monkeypatch.setattr(Partition, "meet", lambda p, q: calls.append(1) or meet(p, q))
    assert len(skew_congruences(prod, congs)) > 1
    assert len(calls) == 1
