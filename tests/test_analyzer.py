import inspect
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrex import algebra, analyzer, clones, groups
from congrex.algebra import FiniteAlgebra, Operation, Partition, direct_product
from congrex.analyzer import (
    VERDICT_FINITE,
    VERDICT_INFINITE,
    VERDICT_NA,
    WitnessFamily,
    build_commutator_witness,
    build_rho,
    build_witness_family,
    check_centrality,
    decide_abelian_spec,
    decide_group,
    decide_product,
    group_witness_pipeline,
    verify_witness,
)
from congrex.clones import (
    FiniteFunction,
    add_dummy_arg,
    compose_first,
    group_malcev_function,
    pol_fragment,
    rotate_args,
    tensor_function,
)
from congrex.errors import (
    BudgetExceededError,
    CongrexError,
    InvalidInputError,
    NotApplicableError,
    WitnessCheckError,
)
from congrex.groups import (
    GroupStructure,
    abelian_group,
    coset_partition,
    cyclic_group,
    group_from_cayley,
    parse_group_spec,
    quaternion_group,
    subalgebra_on,
)

from conftest import (
    all_partitions,
    loop_commutator_witness,
    loop_rho_tuples,
    loop_witness_family_refusal,
    loop_witness_function,
    malcev_functions,
    q8_times_z3_cayley,
    relabeled_cayley,
    small_algebras,
    small_groups,
    table_key,
)


# ---------------------------------------------------------------------------
# decision procedures


@pytest.mark.parametrize(
    "spec,verdict",
    [
        ("Z4", VERDICT_INFINITE),
        ("Q8", VERDICT_INFINITE),
        ("Z8", VERDICT_INFINITE),
        ("Z2xZ2", VERDICT_FINITE),
        ("Z2", VERDICT_FINITE),
        ("Z3", VERDICT_FINITE),
        ("Z5", VERDICT_FINITE),
        ("S3", VERDICT_NA),
    ],
)
def test_decide_group_corpus(spec, verdict):
    report = decide_group(spec)
    assert report.verdict == verdict
    assert report.route == "group-normal-subgroup-lattice"
    assert report.exit_code == (2 if verdict == VERDICT_NA else 0)


def test_decide_group_report_shape():
    report = decide_group("Z4")
    assert report.lattice_witness is not None
    assert report.lattice_witness["epsilon_subgroup"] == [0, 2]
    assert report.lattice_witness["delta_subgroup"] == [0, 2]
    assert len(report.factor_reports) == 1
    assert report.factor_reports[0]["prime"] == 2
    assert report.diagnostics["nilpotent"] is True
    assert report.diagnostics["normal_subgroup_count"] == 3
    payload = report.to_json_dict()
    assert payload["verdict"] == VERDICT_INFINITE


def test_decide_group_not_applicable_diagnostics():
    report = decide_group("S3")
    assert report.diagnostics["reason"] == "not-nilpotent"
    assert report.diagnostics["lower_central_series_orders"][-1] == 3
    assert report.lattice_witness is None


def test_decide_group_budget_none_is_no_limit():
    # Z2^3: the estimate 8^2 * 7 is within the default budget, not within 1
    with pytest.raises(BudgetExceededError, match="estimate 448 exceeds budget 1$"):
        decide_group("Z2xZ2xZ2", budget=1)
    default = decide_group("Z2xZ2xZ2").to_json_dict()
    assert decide_group("Z2xZ2xZ2", budget=None).to_json_dict() == default
    # Z16 x Z9: the estimate 144^2 * 143 is over the default budget
    with pytest.raises(BudgetExceededError, match="estimate 2965248 exceeds budget 1000000$"):
        decide_group("Z16xZ9")
    assert decide_group("Z16xZ9", budget=None).verdict == VERDICT_INFINITE


def _takes_force(module) -> set:
    """The functions and methods defined in module with a force parameter."""
    functions = [(n, f) for n, f in vars(module).items() if inspect.isfunction(f)]
    for n, cls in vars(module).items():
        if inspect.isclass(cls):
            functions += [(f"{n}.{m}", f) for m, f in inspect.getmembers(cls, inspect.isfunction)]
    return {
        n
        for n, f in functions
        if f.__module__ == module.__name__ and "force" in inspect.signature(f).parameters
    }


def test_force_is_taken_only_where_it_lifts_a_second_limit():
    # elsewhere budget=None is no limit; force also lifts the centrality
    # limit and, in comp, leaves the budget on the rows of each level
    assert _takes_force(algebra) == set()
    assert _takes_force(groups) == set()
    assert _takes_force(analyzer) == {"check_centrality", "group_witness_pipeline"}
    assert _takes_force(clones) == {"comp_fragment"}


def test_decide_group_composite_nilpotent():
    report = decide_group("Z12")
    assert report.verdict == VERDICT_INFINITE
    assert [fr["prime"] for fr in report.factor_reports] == [2, 3]
    assert [fr["verdict"] for fr in report.factor_reports] == [
        VERDICT_INFINITE,
        VERDICT_FINITE,
    ]


def _count_group_work(monkeypatch) -> Counter:
    """Count GroupStructure constructions and normal subgroup enumerations."""
    calls = Counter()
    init = GroupStructure.__init__
    enumerate_normal = analyzer.normal_subgroups

    def counted_init(self, alg):
        calls["GroupStructure"] += 1
        init(self, alg)

    def counted_normal(g, **bounds):
        calls["normal_subgroups"] += 1
        return enumerate_normal(g, **bounds)

    monkeypatch.setattr(GroupStructure, "__init__", counted_init)
    monkeypatch.setattr(analyzer, "normal_subgroups", counted_normal)
    return calls


def test_decide_group_analyses_each_group_once(monkeypatch):
    q8 = GroupStructure(quaternion_group()).mul_table.tolist()
    q8z3_table = q8_times_z3_cayley()
    calls = _count_group_work(monkeypatch)

    # from table to verdict: group_from_cayley checks the axioms and
    # decide_group reuses that structure. A p-group is its own Sylow
    # factor: one structure, one enumeration
    pgroup = group_from_cayley(relabeled_cayley(q8, [3, 0, 6, 1, 7, 2, 5, 4]))
    report = decide_group(pgroup)
    assert calls == {"GroupStructure": 1, "normal_subgroups": 1}
    assert report.verdict == VERDICT_INFINITE
    assert report.factor_reports == [
        {
            "prime": 2,
            "order": 8,
            "verdict": VERDICT_INFINITE,
            "lattice_witness": report.lattice_witness,
            "diagnostics": {"normal_subgroup_count": 6, "splits": True},
        }
    ]

    # the whole group and each of its two Sylow factors
    calls.clear()
    report = decide_group(group_from_cayley(q8z3_table, name="Q8xZ3"))
    assert calls == {"GroupStructure": 3, "normal_subgroups": 3}
    assert [fr["verdict"] for fr in report.factor_reports] == [
        VERDICT_INFINITE,
        VERDICT_FINITE,
    ]


def test_decide_product_enumerates_each_congruence_lattice_once(monkeypatch):
    sizes = []
    congruence_rows = FiniteAlgebra.congruence_rows

    def counted(self, *args, **kwargs):
        sizes.append(self.size)
        return congruence_rows(self, *args, **kwargs)

    # all_congruences is a view of congruence_rows, so both are counted
    monkeypatch.setattr(FiniteAlgebra, "congruence_rows", counted)
    calls = _count_group_work(monkeypatch)
    report = decide_product([parse_group_spec("Z4"), parse_group_spec("Z3")])
    assert sizes == [12, 4, 3]
    assert calls["GroupStructure"] == 2
    assert report.diagnostics["congruence_count"] == 6

    # a single factor is its own product
    sizes.clear()
    report = decide_product([parse_group_spec("Z4")])
    assert sizes == [4]
    assert report.verdict == VERDICT_INFINITE
    assert report.diagnostics["congruence_count"] == 3


def test_decide_abelian_spec_closed_form():
    assert decide_abelian_spec(2, [2]).verdict == VERDICT_INFINITE
    assert decide_abelian_spec(2, [1]).verdict == VERDICT_FINITE
    assert decide_abelian_spec(5, [1]).verdict == VERDICT_FINITE
    assert decide_abelian_spec(3, [2, 2]).verdict == VERDICT_FINITE
    assert decide_abelian_spec(3, [2, 2, 1]).verdict == VERDICT_FINITE
    assert decide_abelian_spec(2, [2, 1]).verdict == VERDICT_INFINITE
    assert decide_abelian_spec(2, [1, 1]).verdict == VERDICT_FINITE
    assert decide_abelian_spec(2, [3, 2, 1]).verdict == VERDICT_INFINITE


def test_decide_abelian_spec_validation():
    with pytest.raises(InvalidInputError):
        decide_abelian_spec(6, [1])
    with pytest.raises(InvalidInputError):
        decide_abelian_spec(2, [])
    with pytest.raises(InvalidInputError):
        decide_abelian_spec(2, [1, 2])
    with pytest.raises(InvalidInputError):
        decide_abelian_spec(2, [0])


@pytest.mark.parametrize(
    "p,exps",
    [(2, [1]), (2, [2]), (2, [1, 1]), (2, [2, 1]), (3, [1]), (3, [2]), (3, [1, 1]), (5, [1])],
)
def test_closed_form_agrees_with_lattice_route(p, exps):
    assert (
        decide_abelian_spec(p, exps).verdict
        == decide_group(abelian_group(p, exps)).verdict
    )


def test_decide_product_examples():
    report = decide_product([parse_group_spec("Z4"), parse_group_spec("Z3")])
    assert report.verdict == VERDICT_INFINITE
    assert report.route == "coprime-product-lattice"
    assert [fr["verdict"] for fr in report.factor_reports] == [
        VERDICT_INFINITE,
        VERDICT_FINITE,
    ]
    report = decide_product([parse_group_spec("Z2"), parse_group_spec("Z3")])
    assert report.verdict == VERDICT_FINITE
    assert report.lattice_witness is None


def test_decide_product_splits_each_algebra_in_one_pass(monkeypatch):
    calls = []
    split = analyzer.principal_split

    def counted(*args):
        calls.append(len(args[0]))  # the principal rows of one algebra
        return split(*args)

    monkeypatch.setattr(analyzer, "principal_split", counted)
    report = decide_product([parse_group_spec("Z4"), parse_group_spec("Z3")])
    assert report.lattice_witness is not None and report.diagnostics["splits"]
    assert calls == [2, 1, 5]  # the two factors and the product
    calls.clear()
    # no strong split, but a weak one, from the same pass
    report = decide_product([parse_group_spec("Z2"), parse_group_spec("Z3")])
    assert report.lattice_witness is None and report.diagnostics["splits"]
    assert calls == [1, 1, 3]


def test_decide_product_hypothesis_checks():
    with pytest.raises(InvalidInputError):
        decide_product([parse_group_spec("Z2"), parse_group_spec("Z2")])
    with pytest.raises(InvalidInputError):
        decide_product([parse_group_spec("Z6"), parse_group_spec("Z5")])
    with pytest.raises(InvalidInputError):
        decide_product([])


def test_decide_product_non_group_factor_needs_flag():
    from congrex.algebra import FiniteAlgebra, Operation

    # a 3-element quasigroup that is not a group (idempotent: x*x = x)
    table = [0, 2, 1, 2, 1, 0, 1, 0, 2]
    loop3 = FiniteAlgebra(3, [Operation("*", 2, table)], name="strange3")
    z2 = parse_group_spec("Z2")
    # signatures differ, so pair it with a compatible partner built on "*"
    z2_star = FiniteAlgebra(2, [Operation("*", 2, [0, 1, 1, 0])], name="Z2*")
    with pytest.raises(InvalidInputError):
        decide_product([loop3, z2_star])
    report = decide_product([loop3, z2_star], assume_nilpotent=True)
    assert report.verdict in (VERDICT_INFINITE, VERDICT_FINITE)
    assert any("asserted" in note for note in report.diagnostics["hypotheses"])


# ---------------------------------------------------------------------------
# witness family


def test_build_witness_family_z4():
    fam = build_witness_family(cyclic_group(4))
    assert (fam.a, fam.b) == (0, 2)
    assert fam.delta == Partition.from_blocks(4, [[0, 2], [1, 3]])
    assert fam.epsilon == fam.delta
    assert tuple(fam.function(1).table) == (0, 2, 0, 2)
    f2 = fam.function(2)
    assert f2(1, 3) == 2
    assert f2(1, 0) == 0
    assert f2(2, 3) == 0


def test_build_witness_family_requires_strong_split():
    with pytest.raises(InvalidInputError):
        build_witness_family(parse_group_spec("Z2xZ2"))
    with pytest.raises(InvalidInputError):
        build_witness_family(cyclic_group(2))


def test_witness_family_constructor_validation():
    z4 = cyclic_group(4)
    beta = Partition.from_blocks(4, [[0, 2], [1, 3]])
    with pytest.raises(InvalidInputError):
        WitnessFamily(z4, Partition.full(4), beta, 0, 2)
    with pytest.raises(InvalidInputError):
        WitnessFamily(z4, beta, Partition.identity(4), 0, 2)
    with pytest.raises(InvalidInputError):
        WitnessFamily(z4, beta, beta, 0, 1)
    with pytest.raises(InvalidInputError):
        WitnessFamily(z4, beta, Partition.from_blocks(4, [[0, 1], [2, 3]]), 0, 1)


@st.composite
def witness_candidates(draw):
    """(base, delta, epsilon, a, b): base a random algebra or group, delta
    and epsilon nontrivial congruences, or any partitions a quarter of the
    time, and (a, b) the first pair of an epsilon block half of the time."""
    groups = st.sampled_from(["Z8", "Q8", "Z2xZ4", "Z9"]).map(parse_group_spec)
    alg = draw(st.one_of(small_algebras(min_size=2), small_groups(), groups))
    congs = alg.all_congruences()
    inner = [p for p in congs if not (p.is_identity() or p.is_full())] or congs
    parts = list(all_partitions(alg.size)) if alg.size <= 4 else congs
    delta, epsilon = (
        draw(st.sampled_from(parts if draw(st.integers(0, 3)) == 0 else inner))
        for _ in range(2)
    )
    pairs = [block[:2] for block in epsilon.blocks() if len(block) > 1]
    if pairs and draw(st.booleans()):
        a, b = draw(st.sampled_from(pairs))
    else:
        a, b = draw(st.lists(st.integers(0, alg.size - 1), min_size=2, max_size=2))
    return alg, delta, epsilon, a, b


@settings(max_examples=300, deadline=None)
@given(witness_candidates())
def test_witness_family_refuses_exactly_what_the_all_congruence_loops_refuse(candidate):
    expected = loop_witness_family_refusal(*candidate)
    if expected is None:
        fam = WitnessFamily(*candidate)
        assert (fam.base, fam.delta, fam.epsilon, fam.a, fam.b) == candidate
    else:
        with pytest.raises(InvalidInputError) as err:
            WitnessFamily(*candidate)
        assert str(err.value) == expected


def test_verify_witness_z4():
    fam = build_witness_family(cyclic_group(4))
    record = verify_witness(fam, 3)
    assert set(record) == {1, 2, 3}
    for n in record:
        assert record[n]["congruence_preserving"]
        assert record[n]["range"] == [0, 2]


@pytest.mark.parametrize("up_to_n", [0, -1])
def test_verify_witness_refuses_up_to_n_below_one(up_to_n):
    fam = build_witness_family(cyclic_group(4))
    with pytest.raises(InvalidInputError, match="^up_to_n must be >= 1$"):
        verify_witness(fam, up_to_n)


def test_verify_witness_catches_corruption():
    fam = build_witness_family(cyclic_group(4))
    bad = FiniteFunction(4, 1, (0, 1, 0, 2))
    fam._cache[1] = bad
    with pytest.raises(WitnessCheckError):
        verify_witness(fam, 1)


def test_verify_witness_names_the_first_tuple_not_constant_on_delta_blocks():
    fam = build_witness_family(cyclic_group(4))
    assert (fam.a, fam.b) == (0, 2) and fam.delta.block_id == (0, 1, 0, 1)
    # values in {0, 2} preserve every congruence of Z4; (2, 1) is the first
    # tuple whose value differs from that of (0, 1), the first tuple with
    # its delta signature
    table = [0] * 16
    table[2 * 4 + 1] = table[3 * 4 + 3] = 2
    fam._cache[2] = FiniteFunction(4, 2, tuple(table))
    with pytest.raises(WitnessCheckError) as err:
        verify_witness(fam, 2)
    assert str(err.value) == "member of arity 2 not constant on delta blocks at (2, 1)"


def test_q8_witness_family():
    fam = build_witness_family(parse_group_spec("Q8"))
    # the center {1, -1} is the unique atom
    assert fam.epsilon == Partition.from_blocks(
        8, [[0, 1], [2, 3], [4, 5], [6, 7]]
    )
    verify_witness(fam, 2)


# ---------------------------------------------------------------------------
# centrality relation and commutator witness


def test_build_rho_z4():
    z4 = cyclic_group(4)
    fam = build_witness_family(z4)
    d = group_malcev_function(z4)
    rho = build_rho(z4, fam.epsilon, d)
    assert len(rho) == 32
    for x, y in [(0, 0), (1, 3), (2, 2)]:
        assert (x, x, y, y) in rho
    assert (0, 1, 0, 1) not in rho
    with pytest.raises(InvalidInputError):
        build_rho(z4, fam.epsilon, FiniteFunction.projection(4, 3, 0))


def test_check_centrality_z4():
    z4 = cyclic_group(4)
    fam = build_witness_family(z4)
    d = group_malcev_function(z4)
    rho = build_rho(z4, fam.epsilon, d)
    assert check_centrality(z4, [], rho)
    assert check_centrality(z4, fam.functions(3), rho)
    swap01 = FiniteFunction(4, 1, (1, 0, 2, 3))
    assert not check_centrality(z4, [swap01], rho)


def test_check_centrality_stops_at_the_first_failing_function(monkeypatch):
    z4 = cyclic_group(4)
    fam = build_witness_family(z4)
    rho = build_rho(z4, fam.epsilon, group_malcev_function(z4))
    swap01 = FiniteFunction(4, 1, (1, 0, 2, 3))
    extra = [*fam.functions(3), swap01]
    results = []
    preserves = clones.preserves_relation

    def spy(f, r):
        results.append(preserves(f, r))
        return results[-1]

    monkeypatch.setattr(clones, "preserves_relation", spy)
    assert not check_centrality(z4, extra, rho)
    # the one operation and every family member pass; only the last fails
    assert results == [True] * (len(z4.operations) + len(extra) - 1) + [False]
    results.clear()
    assert not check_centrality(z4, [swap01, *fam.functions(3)], rho)
    assert results == [True] * len(z4.operations) + [False]


@pytest.mark.parametrize("k", [1, 2])
def test_commutator_witness_z4(k):
    z4 = cyclic_group(4)
    fam = build_witness_family(z4)
    d = group_malcev_function(z4)
    w = build_commutator_witness(fam, d, k)
    assert w.arity == k + 2
    for c in (1, 3):
        assert w(*((c,) * (k + 1) + (0,))) == 2
    # absorption spot check: any early argument equal to the last collapses
    assert w(*((1,) * (k + 1) + (1,))) == 1


def test_commutator_witness_validation():
    fam = build_witness_family(cyclic_group(4))
    d = group_malcev_function(cyclic_group(4))
    with pytest.raises(InvalidInputError):
        build_commutator_witness(fam, d, 0)
    with pytest.raises(InvalidInputError):
        build_commutator_witness(fam, FiniteFunction.projection(4, 3, 0), 1)
    with pytest.raises(BudgetExceededError, match=r"4\^10 exceeds budget 1000000"):
        build_commutator_witness(fam, d, 8)  # 4^10 > WITNESS_TABLE_BUDGET


@pytest.mark.parametrize("spec", ["Z8", "Q8", "Z2xZ4"])
def test_group_witness_pipeline_of_a_relabeled_group_matches_the_group(spec):
    # the identity becomes 3, so the constant 0 of the relabeled group maps
    # (3, 3, 3, 3) to a code past 255: uint8 values would wrap
    alg = parse_group_spec(spec)
    table = GroupStructure.of(alg).mul_table.tolist()
    copy = group_from_cayley(relabeled_cayley(table, [3, 0, 6, 1, 7, 2, 5, 4]), name=spec)
    expected = group_witness_pipeline(alg, up_to_n=2)
    payload = group_witness_pipeline(copy, up_to_n=2)
    assert payload["centrality"] and payload["rho_size"] == expected["rho_size"]


def test_group_witness_pipeline_z4():
    payload = group_witness_pipeline("Z4", up_to_n=3, k=1)
    assert payload["a"] == 0 and payload["b"] == 2
    assert payload["family"]["1"] == [0, 2, 0, 2]
    assert payload["rho_size"] == 32
    assert payload["centrality"] is True
    assert payload["commutator_witness_arity"] == 3


def test_group_witness_pipeline_rejects_non_splitting():
    with pytest.raises(InvalidInputError):
        group_witness_pipeline("Z2xZ2")


def test_group_witness_pipeline_refuses_non_nilpotent_groups():
    with pytest.raises(NotApplicableError):
        group_witness_pipeline("S3")


def test_group_witness_pipeline_refuses_an_algebra_without_malcev_term(monkeypatch):
    # the 4-cycle (Z4; x+1): Con is the chain 0 < 02|13 < 1, which splits
    # strongly, but a unary clone has no Mal'cev term
    cycle = FiniteAlgebra(4, [Operation("s", 1, [1, 2, 3, 0])], name="(Z4;x+1)")
    assert cycle.all_congruences() == [
        Partition((0, 0, 0, 0)),
        Partition((0, 1, 0, 1)),
        Partition((0, 1, 2, 3)),
    ]

    def fail(*args):
        raise AssertionError("verification before the refusal")

    monkeypatch.setattr(analyzer, "verify_witness", fail)
    with pytest.raises(NotApplicableError, match="no Mal'cev term"):
        group_witness_pipeline(cycle, up_to_n=2)


def test_group_witness_pipeline_fails_loudly_without_centrality(monkeypatch):
    monkeypatch.setattr(analyzer, "check_centrality", lambda *args: False)
    with pytest.raises(WitnessCheckError):
        group_witness_pipeline("Z4", up_to_n=2)


# ---------------------------------------------------------------------------
# tables on the argument grid against the tuple loops


def family_on(size, delta, a, b):
    """A WitnessFamily with only what its tables read, unchecked: any delta
    and any a, b."""
    fam = WitnessFamily.__new__(WitnessFamily)
    fam.base = FiniteAlgebra(size, [])
    fam.delta, fam.a, fam.b, fam._cache = delta, a, b, {}
    return fam


@st.composite
def family_shells(draw):
    size = draw(st.integers(1, 4))
    element = st.integers(0, size - 1)
    delta = Partition(draw(st.lists(element, min_size=size, max_size=size)))
    return family_on(size, delta, draw(element), draw(element))


@settings(max_examples=150)
@given(family_shells(), st.integers(1, 3))
def test_witness_function_matches_the_loop(fam, n):
    assert table_key(fam.function(n)) == loop_witness_function(fam, n)


@pytest.mark.parametrize("spec", ["Z4", "Z8", "Z9", "Z2xZ4", "Q8"])
def test_witness_family_members_match_the_loop(spec):
    fam = build_witness_family(parse_group_spec(spec))
    for n in (1, 2, 3):
        assert table_key(fam.function(n)) == loop_witness_function(fam, n)


@settings(max_examples=150)
@given(st.integers(1, 4), st.data())
def test_build_rho_matches_the_loop(size, data):
    element = st.integers(0, size - 1)
    epsilon = Partition(data.draw(st.lists(element, min_size=size, max_size=size)))
    d = data.draw(malcev_functions(size))
    rho = build_rho(FiniteAlgebra(size, []), epsilon, d)
    assert rho.tuples == tuple(sorted(loop_rho_tuples(epsilon, d)))


@given(small_groups())
def test_build_rho_of_groups_matches_the_loop(alg):
    d = group_malcev_function(alg)
    for epsilon in alg.all_congruences():
        assert build_rho(alg, epsilon, d).tuples == tuple(sorted(loop_rho_tuples(epsilon, d)))


def commutator_witness_or_message(fam, d, k):
    try:
        return table_key(build_commutator_witness(fam, d, k))
    except WitnessCheckError as exc:
        return str(exc)


@settings(max_examples=150)
@given(family_shells(), st.integers(1, 2), st.data())
def test_commutator_witness_matches_the_loop(fam, k, data):
    d = data.draw(malcev_functions(fam.base.size))
    assert commutator_witness_or_message(fam, d, k) == loop_commutator_witness(fam, d, k)


@pytest.mark.parametrize(
    "spec,k", [("Z4", 1), ("Z4", 2), ("Z8", 1), ("Z9", 1), ("Q8", 1), ("Z25", 1)]
)
def test_commutator_witness_of_groups_matches_the_loop(spec, k):
    alg = parse_group_spec(spec)
    fam = build_witness_family(alg)
    d = group_malcev_function(alg)
    assert table_key(build_commutator_witness(fam, d, k)) == loop_commutator_witness(fam, d, k)


@pytest.mark.parametrize(
    "args,value,failure",
    [
        # f(a, 1) = b: w(z, x, z) with x - z = 1 is not z; the loop runs
        # over x, then z, so (x, z) = (0, 3) comes first
        ((0, 1), 2, "absorption fails at position 0: w(3, 0, 3) = 1"),
        # f(1, 1) = a: w(1, 1, a) is not b; no absorption case reads f(1, 1)
        ((1, 1), 0, "nontriviality fails: w(1,...,1,0) = 0, expected 2"),
    ],
    ids=["absorption", "nontriviality"],
)
def test_commutator_witness_failures_name_the_first_tuple_of_the_loop(args, value, failure):
    z4 = cyclic_group(4)
    fam = build_witness_family(z4)
    d = group_malcev_function(z4)
    assert (fam.a, fam.b) == (0, 2)
    table = fam.function(2).table.tolist()
    table[4 * args[0] + args[1]] = value
    fam._cache[2] = FiniteFunction(4, 2, tuple(table))
    with pytest.raises(WitnessCheckError) as err:
        build_commutator_witness(fam, d, 1)
    assert str(err.value) == loop_commutator_witness(fam, d, 1) == failure


def test_every_grid_built_table_is_a_read_only_array():
    z4, q8 = cyclic_group(4), quaternion_group()
    fam = build_witness_family(z4)
    d = group_malcev_function(z4)
    f = fam.function(2)
    algebras = [
        z4.quotient(Partition.from_blocks(4, [[0, 2], [1, 3]])),
        direct_product(z4, cyclic_group(2)),
        subalgebra_on(q8, [0, 1]),
    ]
    functions = [
        FiniteFunction.projection(4, 2, 1),
        compose_first(d, f),
        tensor_function(f, f),
        rotate_args(d),
        add_dummy_arg(f),
        d,
        build_commutator_witness(fam, d, 1),
        *pol_fragment(z4, 1).arity_part(1),
    ]
    tables = [(alg.size, op.table) for alg in algebras for op in alg.operations]
    tables += [(g.universe_size, g.table) for g in functions]
    tables += [(4, part) for part in pol_fragment(z4, 2).parts]
    for size, table in tables:
        assert table.dtype == np.min_scalar_type(size - 1)
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    # relations and partitions stay tuples of Python ints
    for row in [*build_rho(z4, fam.epsilon, d).tuples, coset_partition(q8, frozenset({0, 1})).block_id]:
        assert type(row) is tuple and {type(v) for v in row} == {int}
