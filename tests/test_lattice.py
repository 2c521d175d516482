import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congrex import lattice
from congrex.algebra import FiniteAlgebra, Operation, Partition
from congrex.analyzer import congruence_split
from congrex.errors import InvalidInputError
from congrex.groups import cyclic_group, group_from_cayley, parse_group_spec
from congrex.lattice import (
    FiniteLattice,
    SplitWitness,
    _join_irreducibles,
    chain,
    congruence_lattice,
    from_congruences,
    is_modular,
    lattice_product,
    splits,
    splits_strongly,
    transposes_up,
)

from conftest import (
    all_partitions,
    bounded_relations,
    brute_has_split,
    cover_irreducibles,
    cube_bound_tables,
    d4_cayley,
    lattice_from_covers,
    loop_covers_order,
    loop_is_modular,
    loop_lattice_product,
    loop_lattice_tables,
    loop_split_witness,
    m3,
    n5,
    pairwise_closed,
    permutation_algebras,
    small_algebras,
    small_lattice_corpus,
    witness_is_valid,
)


def test_chain_structure():
    c = chain(4)
    assert (c.bottom, c.top) == (0, 3)
    assert c.meet[1][3] == 1 and c.join[1][3] == 3


def test_order_validation():
    with pytest.raises(InvalidInputError):
        FiniteLattice([])
    with pytest.raises(InvalidInputError):
        FiniteLattice([[False]])  # not reflexive
    with pytest.raises(InvalidInputError):
        FiniteLattice([[True, True], [True, True]])  # not antisymmetric
    with pytest.raises(InvalidInputError):
        FiniteLattice([[True, False], [False, True], [False, False]])


def test_rejects_posets_without_meets():
    # two maximal elements: no top, not a lattice
    leq = [
        [True, True, True, False],
        [False, True, False, False],
        [False, False, True, False],
        [False, False, True, True],
    ]
    with pytest.raises(InvalidInputError):
        FiniteLattice(leq)


def test_meet_join_tables_against_definition():
    for lat in [m3(), n5(), chain(5), lattice_product([chain(2), chain(3)])]:
        n = lat.size
        for a, b in itertools.product(range(n), repeat=2):
            m = lat.meet[a][b]
            assert lat.leq[m][a] and lat.leq[m][b]
            for c in range(n):
                if lat.leq[c][a] and lat.leq[c][b]:
                    assert lat.leq[c][m]
            j = lat.join[a][b]
            assert lat.leq[a][j] and lat.leq[b][j]
            for c in range(n):
                if lat.leq[a][c] and lat.leq[b][c]:
                    assert lat.leq[j][c]


def bound_table_inputs():
    lats = {f"chain{n}": chain(n) for n in range(1, 7)}
    lats.update(small_lattice_corpus())
    lats["m3xn5"] = lattice_product([m3(), n5()])
    lats["chain3xm3xchain2"] = lattice_product([chain(3), m3(), chain(2)])
    # atoms 1 and 2 join at 3, beside the chain 4 < 5; the top is 6
    lats["covers7"] = lattice_from_covers(
        7, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 6), (0, 4), (4, 5), (5, 6)]
    )
    return sorted(lats.items())


@pytest.mark.parametrize("name,lat", bound_table_inputs())
def test_row_tables_equal_cube_tables(name, lat):
    assert (lat.meet.tolist(), lat.join.tolist()) == cube_bound_tables(lat.leq)


@st.composite
def bounded_orders(draw):
    """Random orders on 0..n-1 with bottom 0 and top n-1; some are lattices."""
    n = draw(st.integers(2, 7))
    leq = [[a == b or a == 0 or b == n - 1 for b in range(n)] for a in range(n)]
    for a, b in itertools.combinations(range(1, n - 1), 2):
        leq[a][b] = draw(st.booleans())
    for c, a, b in itertools.product(range(n), repeat=3):
        leq[a][b] = leq[a][b] or (leq[a][c] and leq[c][b])
    return leq


@settings(max_examples=200, deadline=None)
@given(bounded_orders())
def test_lattice_tables_and_rejections_match_cube_tables(leq):
    expect = cube_bound_tables(leq)
    if expect is None:
        with pytest.raises(InvalidInputError):
            FiniteLattice(leq)
    else:
        lat = FiniteLattice(leq)
        assert (lat.meet.tolist(), lat.join.tolist()) == expect


@settings(max_examples=300, deadline=None)
@given(bounded_relations())
def test_lattice_accepts_exactly_the_relations_the_loop_oracle_accepts(leq):
    # the meet check alone must reject every intransitive relation
    expect = loop_lattice_tables(leq)
    if expect is None:
        with pytest.raises(InvalidInputError, match="^meet or join missing; not a lattice$"):
            FiniteLattice(leq)
    else:
        lat = FiniteLattice(leq)
        assert (lat.meet.tolist(), lat.join.tolist()) == expect


def test_tables_take_the_least_dtype_that_holds_the_size():
    for n, dtype in ((255, np.uint8), (256, np.uint16)):
        lat = chain(n)
        assert lat.meet.dtype == lat.join.dtype == dtype
        assert (lat.meet[n - 1, n - 2], lat.join[0, n - 1]) == (n - 2, n - 1)


def test_the_join_table_is_built_once_and_only_when_read(monkeypatch):
    calls = []
    meets = lattice._meets

    def counted(L):
        calls.append(len(L))
        return meets(L)

    monkeypatch.setattr(lattice, "_meets", counted)
    lat, _ = congruence_lattice(parse_group_spec("Z2xZ2xZ2"))
    splits_strongly(lat)
    assert len(calls) == 1
    assert is_modular(lat)
    assert len(calls) == 2
    assert is_modular(lat)
    assert len(calls) == 2


@st.composite
def relabeled_lattices(draw):
    """The bounded_orders that are lattices, with their elements renamed."""
    leq = draw(bounded_orders())
    assume(cube_bound_tables(leq) is not None)
    perm = draw(st.permutations(range(len(leq))))
    inverse = np.argsort(perm)
    return FiniteLattice(np.array(leq)[np.ix_(inverse, inverse)])


def assert_irreducibles_match_the_covers(lat):
    expect = cover_irreducibles(lat.leq)
    got = (_join_irreducibles(lat.leq).tolist(), _join_irreducibles(lat.leq.T).tolist())
    assert got == expect


@settings(max_examples=300, deadline=None)
@given(relabeled_lattices())
def test_irreducibles_match_the_covers_on_relabeled_lattices(lat):
    assert_irreducibles_match_the_covers(lat)


@pytest.mark.parametrize("name,lat", sorted(small_lattice_corpus().items()))
def test_irreducibles_match_the_covers_on_the_corpus(name, lat):
    assert_irreducibles_match_the_covers(lat)


@pytest.mark.parametrize("spec", ["Z1", "Z4", "Q8", "S3", "S4", "Z4xZ2xZ2", "Z2xZ2xZ2xZ2"])
def test_irreducibles_match_the_covers_on_congruence_lattices(spec):
    assert_irreducibles_match_the_covers(congruence_lattice(parse_group_spec(spec))[0])


@st.composite
def cover_lists(draw):
    """Random cover lists on 1..7 elements; half of them get every element
    placed between 0 and n - 1, which makes a lattice likelier."""
    n = draw(st.integers(1, 7))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    covers = draw(st.lists(pairs, max_size=2 * n))
    if draw(st.booleans()):
        covers += [(0, x) for x in range(n)] + [(x, n - 1) for x in range(n)]
    return n, covers


@settings(max_examples=200, deadline=None)
@given(cover_lists())
def test_lattice_from_covers_matches_the_loop(case):
    n, covers = case
    expected = loop_covers_order(n, covers)
    try:
        FiniteLattice(expected)
    except InvalidInputError:
        with pytest.raises(InvalidInputError):
            lattice_from_covers(n, covers)
    else:
        assert lattice_from_covers(n, covers).leq.tolist() == expected


@pytest.mark.parametrize("entry", [1, "no", None, 2.5], ids=["int", "string", "null", "float"])
def test_lattice_json_entries_must_be_booleans(entry):
    with pytest.raises(InvalidInputError, match="^leq entry is not a boolean"):
        FiniteLattice.from_json_dict({"leq": [[True, entry], [False, True]]})


def test_lattice_entries_may_be_numpy_bools_and_ragged_rows_keep_their_error():
    assert FiniteLattice([[np.True_, np.True_], [np.False_, np.True_]]).top == 1
    with pytest.raises(InvalidInputError, match="^leq entry is not a boolean"):
        FiniteLattice(np.eye(2, dtype=int))
    with pytest.raises(InvalidInputError, match="^leq must be a square boolean matrix$"):
        FiniteLattice([[True, 1], [False]])


@pytest.mark.parametrize("size", [1, 3, True, "2"])
def test_lattice_json_size_must_match_leq(size):
    leq = chain(2).to_json_dict()["leq"]
    assert FiniteLattice.from_json_dict({"size": 2, "leq": leq}).size == 2
    with pytest.raises(InvalidInputError):
        FiniteLattice.from_json_dict({"size": size, "leq": leq})


def test_lattice_json_round_trip():
    lat = m3()
    again = FiniteLattice.from_json(json.dumps(lat.to_json_dict()))
    assert again.leq.tolist() == lat.leq.tolist()
    with pytest.raises(InvalidInputError):
        FiniteLattice.from_json("{}")


# ---------------------------------------------------------------------------
# from_congruences


def test_con_z4_is_three_chain():
    lat, congs = congruence_lattice(cyclic_group(4))
    assert lat.size == 3
    order = sorted(range(3), key=lambda i: congs[i].num_blocks, reverse=True)
    for a, b in zip(order, order[1:]):
        assert lat.leq[a][b]


def test_con_klein_four_is_m3():
    lat, congs = congruence_lattice(parse_group_spec("Z2xZ2"))
    assert lat.size == 5
    atoms = [i for i in range(5) if i not in (lat.bottom, lat.top)]
    assert len(atoms) == 3
    for a, b in itertools.combinations(atoms, 2):
        assert not lat.leq[a][b] and not lat.leq[b][a]
        assert lat.meet[a][b] == lat.bottom and lat.join[a][b] == lat.top


def test_from_congruences_matches_partition_arithmetic():
    lat, congs = congruence_lattice(parse_group_spec("Z2xZ2"))
    for i, j in itertools.product(range(lat.size), repeat=2):
        assert congs[lat.meet[i][j]] == congs[i].meet(congs[j])
        assert congs[lat.join[i][j]] == congs[i].join(congs[j])


def test_from_congruences_rejects_unclosed_sets():
    parts = [
        Partition.identity(4),
        Partition.from_blocks(4, [[0, 1], [2, 3]]),
        Partition.from_blocks(4, [[0, 2], [1, 3]]),
        Partition.full(4),
    ]
    # missing the meetless pair is fine (meet = identity present), but drop
    # the full partition and the join is missing
    with pytest.raises(InvalidInputError):
        from_congruences(parts[:3])
    with pytest.raises(InvalidInputError):
        from_congruences([])


@pytest.mark.parametrize(
    "parts,message",
    [
        ([Partition.identity(2), Partition.full(3)], "on universes of different sizes"),
        ([Partition.full(3)], "lacks the identity or the full relation"),
        ([Partition.identity(3), Partition([0, 0, 1])], "lacks the identity or the full relation"),
    ],
    ids=["sizes", "no-identity", "no-full"],
)
def test_from_congruences_refuses_malformed_sets_up_front(monkeypatch, parts, message):
    def fail(*args):
        raise AssertionError("a table was built before the check")

    monkeypatch.setattr(lattice, "_chunks", fail)
    with pytest.raises(InvalidInputError, match=message):
        from_congruences(parts)


def test_from_congruences_rejects_unclosed_lattice_and_non_lattice_orders():
    # ordered by refinement this is the four-element Boolean lattice, but
    # the partition join of the two atoms is 01|23, not the full partition
    parts = [
        Partition.identity(4),
        Partition.from_blocks(4, [[0, 1], [2], [3]]),
        Partition.from_blocks(4, [[0], [1], [2, 3]]),
        Partition.full(4),
    ]
    FiniteLattice([[a.refines(b) for b in parts] for a in parts])  # accepted
    with pytest.raises(InvalidInputError, match="not meet/join closed"):
        from_congruences(parts)
    # a bowtie: 01|2|3|4 and 0|1|23|4 lie below both 0123|4 and 01|234,
    # so the order has no meet of the upper two and is no lattice
    bowtie = [
        Partition.identity(5),
        Partition([0, 0, 1, 2, 3]),
        Partition([0, 1, 2, 2, 3]),
        Partition([0, 0, 0, 0, 1]),
        Partition([0, 0, 1, 1, 1]),
        Partition.full(5),
    ]
    assert not pairwise_closed(bowtie)
    with pytest.raises(InvalidInputError, match="not meet/join closed"):
        from_congruences(bowtie)


def close_under(parts, op):
    parts = set(parts)
    while True:
        new = {op(a, b) for a in parts for b in parts} - parts
        if not new:
            return parts
        parts |= new


@st.composite
def partition_sets(draw):
    """Sets of partitions of <= 5 points holding both bounds.  Closing the
    drawn ones under meet (or join) makes the refinement order a lattice
    that need not be join (or meet) closed; thinning out such a lattice
    often leaves an order that is no lattice."""
    n = draw(st.integers(1, 5))
    every = list(all_partitions(n))
    chosen = draw(st.lists(st.sampled_from(every), min_size=2, max_size=12))
    bounds = {Partition.identity(n), Partition.full(n)}
    parts = bounds | set(chosen)
    mode = draw(st.sampled_from(["none", "meet", "join", "thin"]))
    if mode in ("meet", "join"):
        parts = close_under(parts, getattr(Partition, mode))
    elif mode == "thin":
        parts = close_under(close_under(parts, Partition.meet), Partition.join)
        inner = sorted(parts - bounds, key=lambda p: p.block_id)
        keep = draw(st.lists(st.booleans(), min_size=len(inner), max_size=len(inner)))
        parts = bounds | {p for p, k in zip(inner, keep) if k}
    return sorted(parts, key=lambda p: p.block_id)


@settings(max_examples=300, deadline=None)
@given(partition_sets())
def test_from_congruences_accepts_exactly_the_pairwise_closed_sets(parts):
    if pairwise_closed(parts):
        lat = from_congruences(parts)
        for i, j in itertools.product(range(lat.size), repeat=2):
            assert parts[lat.meet[i][j]] == parts[i].meet(parts[j])
            assert parts[lat.join[i][j]] == parts[i].join(parts[j])
    else:
        with pytest.raises(InvalidInputError):
            from_congruences(parts)


# ---------------------------------------------------------------------------
# splitting predicates


def test_chain_witnesses():
    assert splits_strongly(chain(2)) is None
    assert splits(chain(2)) == SplitWitness(delta=0, epsilon=1)
    assert splits_strongly(chain(3)) == SplitWitness(delta=1, epsilon=1)
    assert splits_strongly(chain(1)) is None
    assert splits(chain(1)) is None


def test_product_examples():
    b22 = lattice_product([chain(2), chain(2)])
    assert b22.size == 4
    assert splits_strongly(b22) is None
    assert splits(b22) is not None
    p32 = lattice_product([chain(3), chain(2)])
    assert splits_strongly(p32) is not None


def test_m3_and_n5():
    assert splits_strongly(m3()) is None
    assert splits(m3()) is None
    # N5 splits only weakly: delta = the short-side coatom, epsilon = the
    # bottom of the long chain side
    assert splits_strongly(n5()) is None
    w = splits(n5())
    assert w is not None
    assert witness_is_valid(n5(), w, strong=False)


@pytest.mark.parametrize("name,lat", sorted(small_lattice_corpus().items()))
def test_split_predicates_match_brute_force(name, lat):
    assert (splits_strongly(lat) is not None) == brute_has_split(lat, strong=True)
    assert (splits(lat) is not None) == brute_has_split(lat, strong=False)


@settings(max_examples=150, deadline=None)
@given(small_algebras())
def test_split_predicates_match_brute_force_on_random_algebras(alg):
    lat, _ = congruence_lattice(alg)
    for strong, predicate in ((True, splits_strongly), (False, splits)):
        w = predicate(lat)
        assert (w is not None) == brute_has_split(lat, strong=strong)
        assert w is None or witness_is_valid(lat, w, strong=strong)


@pytest.mark.parametrize("name,lat", sorted(small_lattice_corpus().items()))
def test_returned_witnesses_are_valid(name, lat):
    w = splits_strongly(lat)
    if w is not None:
        assert witness_is_valid(lat, w, strong=True)
        # strong witnesses are weak witnesses
        assert splits(lat) is not None
    w = splits(lat)
    if w is not None:
        assert witness_is_valid(lat, w, strong=False)


def assert_predicates_match_the_loops(lat):
    """The same witness, not only its existence, and the same modularity."""
    for strong, predicate in ((True, splits_strongly), (False, splits)):
        assert predicate(lat) == loop_split_witness(lat, strong)
    assert is_modular(lat) == loop_is_modular(lat)


@settings(max_examples=300, deadline=None)
@given(relabeled_lattices())
def test_split_witness_and_modularity_match_the_loops(lat):
    assert_predicates_match_the_loops(lat)


@settings(max_examples=150, deadline=None)
@given(small_algebras())
def test_split_witness_and_modularity_of_congruence_lattices_match_the_loops(alg):
    assert_predicates_match_the_loops(congruence_lattice(alg)[0])


def assert_principal_split_matches_the_lattice(alg):
    """The split from the principal congruences names, by index into the
    sorted congruence list, the (delta, epsilon) of the lattice predicates."""
    lat, congs = congruence_lattice(alg)
    assert congruence_split(alg, congs) == (splits_strongly(lat), splits(lat))


def test_congruence_split_refuses_a_list_without_its_witness():
    z8 = cyclic_group(8)
    congs = z8.congruence_rows()
    assert congruence_split(z8, congs) == (SplitWitness(2, 2), SplitWitness(3, 2))
    for partial in (np.delete(congs, 2, axis=0), z8.all_congruences()[:2]):
        with pytest.raises(InvalidInputError, match="lacks a congruence of the split"):
            congruence_split(z8, partial)


def test_congruence_split_reads_an_empty_list_and_refuses_another_universe():
    z4 = cyclic_group(4)
    with pytest.raises(InvalidInputError, match="lacks a congruence of the split"):
        congruence_split(z4, [])
    with pytest.raises(InvalidInputError, match="different sizes"):
        congruence_split(z4, [Partition.identity(3), Partition.full(3)])


@settings(max_examples=300, deadline=None)
@given(small_algebras())
def test_principal_split_matches_the_lattice_predicates(alg):
    assert_principal_split_matches_the_lattice(alg)


@settings(max_examples=100, deadline=None)
@given(permutation_algebras())
def test_principal_split_matches_the_lattice_predicates_on_permutation_algebras(alg):
    assert_principal_split_matches_the_lattice(alg)


@pytest.mark.parametrize(
    "spec",
    ["Z4", "Z8", "Z9", "Z16", "Z27", "Q8", "D4", "Z2xZ4", "Z2xZ8", "Z4xZ3", "Z8xZ3", "Z4xZ4"],
)
@pytest.mark.parametrize("subtraction_only", [False, True])
def test_principal_split_matches_the_lattice_predicates_on_groups(spec, subtraction_only):
    alg = group_from_cayley(d4_cayley()) if spec == "D4" else parse_group_spec(spec)
    if subtraction_only:  # (G; x - y): the same congruences, no group reduct
        add, neg = alg.operation("+").table.reshape(alg.size, -1), alg.operation("-").table
        alg = FiniteAlgebra(alg.size, [Operation("-", 2, add[:, neg].ravel())])
    assert_principal_split_matches_the_lattice(alg)


@pytest.mark.parametrize("name,lat", sorted(small_lattice_corpus().items()))
def test_predicates_return_python_scalars(name, lat):
    results = [lat.size, lat.bottom, lat.top, is_modular(lat)]
    results += [transposes_up(lat, lat.bottom, lat.bottom, lat.bottom, lat.top)]
    for strong, predicate in ((True, splits_strongly), (False, splits)):
        w = predicate(lat)
        if w is not None:
            results += [w.delta, w.epsilon, witness_is_valid(lat, w, strong)]
    assert {type(v) for v in results} <= {int, bool}
    json.dumps(results)


def test_witness_is_valid_rejects_bad_pairs():
    c3 = chain(3)
    assert not witness_is_valid(c3, SplitWitness(delta=2, epsilon=1), strong=True)
    assert not witness_is_valid(c3, SplitWitness(delta=1, epsilon=0), strong=True)


# ---------------------------------------------------------------------------
# modularity, transposition, products


def test_modularity():
    assert is_modular(m3())
    assert not is_modular(n5())
    assert is_modular(chain(6))
    assert is_modular(lattice_product([chain(2), chain(2), chain(2)]))


def test_transposes_up():
    lat = lattice_product([chain(2), chain(2)])
    # decode: 0=bottom, 1 and 2 atoms, 3 top
    assert transposes_up(lat, 0, 1, 2, 3)
    assert transposes_up(lat, 0, 2, 1, 3)
    c3 = chain(3)
    assert not transposes_up(c3, 0, 1, 1, 2)
    with pytest.raises(InvalidInputError):
        transposes_up(c3, 1, 0, 0, 2)
    # -1 would wrap to the top, and 5 is past the table
    for args in [(-1, -1, -1, -1), (0, 5, 0, 0), (0, 1, 1, 3)]:
        with pytest.raises(InvalidInputError, match="outside the 3 elements"):
            transposes_up(c3, *args)


def test_lattice_product_structure():
    p = lattice_product([chain(3), chain(2)])
    assert p.size == 6
    # row-major: (a, b) -> a * 2 + b
    assert p.leq[0][5] and not p.leq[1][4]
    assert p.meet[4][1] == 0 and p.join[4][1] == 5
    with pytest.raises(InvalidInputError):
        lattice_product([])


def test_product_split_equivalence_small():
    factors = {"c2": chain(2), "c3": chain(3), "m3": m3(), "n5": n5()}
    for (na, a), (nb, b) in itertools.combinations_with_replacement(
        sorted(factors.items()), 2
    ):
        prod = lattice_product([a, b])
        expect = (splits_strongly(a) is not None) or (splits_strongly(b) is not None)
        assert (splits_strongly(prod) is not None) == expect, (na, nb)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(sorted(small_lattice_corpus().items())), min_size=1, max_size=3))
def test_lattice_product_matches_the_pairwise_loop(named):
    lattices = [lat for _, lat in named]
    assume(math.prod(lat.size for lat in lattices) <= 64)
    expected = loop_lattice_product(lattices)
    assert lattice_product(lattices).leq.tolist() == expected
