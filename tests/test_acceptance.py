"""Acceptance gate: every release criterion as one test, each recording a
single pass/fail line with its measured runtime.

The lines are collected in RESULTS and echoed in the terminal summary (see
conftest.py), so they survive output capture; -s shows them inline too.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import time

import pytest

from congrex.algebra import direct_product, is_congruence_uniform, quotient_index
from congrex.analyzer import (
    VERDICT_FINITE,
    VERDICT_INFINITE,
    VERDICT_NA,
    build_commutator_witness,
    build_rho,
    build_witness_family,
    check_centrality,
    decide_abelian_spec,
    decide_group,
    verify_witness,
)
from congrex.cli import main as cli_main
from congrex.clones import (
    FiniteFunction,
    clone_closure,
    comp_fragment,
    group_malcev_function,
    pol_fragment,
    skew_congruences,
    tensor_fragments,
    tensor_generators,
)
from congrex.groups import (
    GroupStructure,
    abelian_group,
    cyclic_group,
    group_from_cayley,
    parse_group_spec,
)
from congrex.lattice import (
    chain,
    congruence_lattice,
    lattice_product,
    splits,
    splits_strongly,
    transposes_up,
)

from conftest import (
    brute_has_split,
    d4_cayley,
    m3,
    n5,
    q8_times_z3_cayley,
    relabeled_cayley,
    small_lattice_corpus,
)


RESULTS = []


def report(number, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {number}: {status} - {detail} ({elapsed:.2f}s)"
    RESULTS.append(line)
    print(line)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_decision_corpus():
    cases = {
        "Z4": VERDICT_INFINITE,
        "Q8": VERDICT_INFINITE,
        "Z2xZ2": VERDICT_FINITE,
        "Z2": VERDICT_FINITE,
        "Z3": VERDICT_FINITE,
        "Z5": VERDICT_FINITE,
        "S3": VERDICT_NA,
    }
    start = time.monotonic()
    ok = True
    slowest = 0.0
    for spec, expected in cases.items():
        t0 = time.monotonic()
        verdict = decide_group(spec).verdict
        dt = time.monotonic() - t0
        slowest = max(slowest, dt)
        ok = ok and verdict == expected and dt < 1.0
    report(
        1,
        ok,
        f"{len(cases)} group verdicts exact, slowest {slowest:.3f}s < 1s",
        time.monotonic() - start,
    )


def abelian_specs_up_to(order_bound):
    primes = [p for p in range(2, order_bound + 1) if all(p % d for d in range(2, p))]
    out = []
    for p in primes:
        max_total = 0
        while p ** (max_total + 1) <= order_bound:
            max_total += 1
        for total in range(1, max_total + 1):
            for exps in non_increasing_partitions(total):
                out.append((p, exps))
    return out


def non_increasing_partitions(total, cap=None):
    if cap is None:
        cap = total
    if total == 0:
        yield ()
        return
    for first in range(min(cap, total), 0, -1):
        for rest in non_increasing_partitions(total - first, first):
            yield (first,) + rest


def test_criterion_02_abelian_closed_form_corpus():
    start = time.monotonic()
    specs = abelian_specs_up_to(64)
    mismatches = []
    for p, exps in specs:
        closed = decide_abelian_spec(p, exps).verdict
        lattice_route = decide_group(abelian_group(p, exps)).verdict
        if closed != lattice_route:
            mismatches.append((p, exps, closed, lattice_route))
    elapsed = time.monotonic() - start
    report(
        2,
        not mismatches and elapsed < 60.0,
        f"{len(specs)} abelian specs of order <= 64, {len(mismatches)} disagreements",
        elapsed,
    )


def test_criterion_03_split_predicates_brute_force():
    start = time.monotonic()
    checked = 0
    ok = True
    for name, lat in sorted(small_lattice_corpus().items()):
        assert lat.size <= 8
        for strong in (True, False):
            found = splits_strongly(lat) if strong else splits(lat)
            if (found is not None) != brute_has_split(lat, strong):
                ok = False
            checked += 1
    report(
        3,
        ok,
        f"{checked} predicate/brute-force comparisons on <= 8 element lattices",
        time.monotonic() - start,
    )


def test_criterion_04_product_split_equivalence():
    start = time.monotonic()
    factors = [chain(2), chain(3), chain(4), chain(5), m3(), n5()]
    ok = True
    products = 0
    for count in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(factors, count):
            prod = lattice_product(list(combo))
            expect = any(splits_strongly(f) is not None for f in combo)
            if (splits_strongly(prod) is not None) != expect:
                ok = False
            products += 1
    report(
        4,
        ok,
        f"{products} lattice products (<= 3 factors, <= 5 elements each)",
        time.monotonic() - start,
    )


def test_criterion_05_uniform_quotient_arithmetic():
    start = time.monotonic()
    ok = True
    checked = 0
    for spec in ("Z4", "Z8", "Z2xZ4", "Q8"):
        alg = parse_group_spec(spec)
        lat, congs = congruence_lattice(alg)
        assert is_congruence_uniform(alg, congs)
        n = lat.size
        # (1) each beta block is the union of exactly #(beta:alpha) alpha blocks
        for a, b in itertools.product(range(n), repeat=2):
            if not lat.leq[a][b]:
                continue
            alpha, beta = congs[a], congs[b]
            idx = quotient_index(alg, alpha, beta)
            for block in beta.blocks():
                sub_blocks = {alpha.block_id[x] for x in block}
                if len(sub_blocks) != idx:
                    ok = False
                checked += 1
        # (2) multiplicativity over chains alpha <= beta <= gamma
        for a, b, c in itertools.product(range(n), repeat=3):
            if lat.leq[a][b] and lat.leq[b][c]:
                if quotient_index(alg, congs[a], congs[c]) != quotient_index(
                    alg, congs[b], congs[c]
                ) * quotient_index(alg, congs[a], congs[b]):
                    ok = False
                checked += 1
        # (3) transposed intervals have equal index, where permutability is
        # witnessed directly
        for a, b, c, d in itertools.product(range(n), repeat=4):
            if not (lat.leq[a][b] and lat.leq[c][d]):
                continue
            if not transposes_up(lat, a, b, c, d):
                continue
            if not congs[b].composes_with(congs[c]):
                continue
            if quotient_index(alg, congs[c], congs[d]) != quotient_index(
                alg, congs[a], congs[b]
            ):
                ok = False
            checked += 1
    report(
        5,
        ok,
        f"{checked} quotient-index identities on Con(Z4), Con(Z8), "
        f"Con(Z2xZ4), Con(Q8)",
        time.monotonic() - start,
    )


def test_criterion_06_skew_congruence_counts():
    start = time.monotonic()
    z2z3 = skew_congruences(parse_group_spec("Z2xZ3"))
    z4z3 = skew_congruences(parse_group_spec("Z4xZ3"))
    z2z2 = skew_congruences(parse_group_spec("Z2xZ2"))
    diagonal = z2z2 and z2z2[0].blocks() == ((0, 3), (1, 2))
    ok = not z2z3 and not z4z3 and len(z2z2) == 1 and bool(diagonal)
    report(
        6,
        ok,
        "Z2xZ3 and Z4xZ3 skew-free; Z2xZ2 has exactly the diagonal skew congruence",
        time.monotonic() - start,
    )


def test_criterion_07_clone_fragment_sizes():
    start = time.monotonic()
    z4 = cyclic_group(4)
    pol = pol_fragment(z4, 1)
    comp = comp_fragment(z4, 1)
    elapsed = time.monotonic() - start
    ok = (
        pol.member_count() == 16
        and comp.member_count() == 64
        and pol.function_set() <= comp.function_set()
        and elapsed < 5.0
    )
    report(
        7,
        ok,
        f"pol(Z4,1) = {pol.member_count()}, comp(Z4,1) = {comp.member_count()}, "
        f"inclusion holds",
        elapsed,
    )


def test_criterion_08_tensor_equalities():
    start = time.monotonic()
    z2, z3 = cyclic_group(2), cyclic_group(3)

    # closure of the tensor generating set Z equals the tensor of the closures
    x_gens = [FiniteFunction.from_operation(2, op) for op in z2.operations]
    y_gens = [FiniteFunction.from_operation(3, op) for op in z3.operations]
    zset = tensor_generators(x_gens, y_gens, 2, 3)
    closed = clone_closure(zset, 2, universe_size=6)
    tens = tensor_fragments(
        clone_closure(x_gens, 2, universe_size=2),
        clone_closure(y_gens, 2, universe_size=3),
    )
    first = closed.members == tens.members

    # Pol of the order-6 product equals the tensor of the factor Pol fragments
    prod = direct_product(z2, z3)
    pol_tens = tensor_fragments(pol_fragment(z2, 2), pol_fragment(z3, 2))
    second = pol_fragment(prod, 2).members == pol_tens.members

    # the same equality for the cyclic labeling of Z6, transported along the
    # coordinate bijection k -> (k mod 2, k mod 3)
    enc = [3 * (k % 2) + (k % 3) for k in range(6)]
    dec = [enc.index(v) for v in range(6)]

    def transport(f):
        table = []
        for args in itertools.product(range(6), repeat=f.arity):
            table.append(enc[f(*(dec[a] for a in args))])
        return FiniteFunction(6, f.arity, tuple(table))

    z6_pol = pol_fragment(cyclic_group(6), 2)
    transported = {transport(f) for f in z6_pol.function_set()}
    third = transported == pol_tens.function_set()

    elapsed = time.monotonic() - start
    report(
        8,
        first and second and third and elapsed < 120.0,
        "closure of Z equals tensor of closures; pol of the order-6 product "
        "(and of Z6 up to relabeling) equals the tensor of pol fragments",
        elapsed,
    )


def test_criterion_09_witness_pipeline_z4():
    start = time.monotonic()
    z4 = cyclic_group(4)
    fam = build_witness_family(z4)
    ok = (fam.a, fam.b) == (0, 2)
    ok = ok and tuple(fam.function(1).table) == (0, 2, 0, 2)
    verify_witness(fam, 3)
    d = group_malcev_function(z4)
    rho = build_rho(z4, fam.epsilon, d)
    ok = ok and len(rho) == 32
    ok = ok and check_centrality(z4, fam.functions(3), rho)
    for k in (1, 2):
        w = build_commutator_witness(fam, d, k)  # verifies absorption itself
        for c in (1, 3):
            ok = ok and w(*((c,) * (k + 1) + (0,))) == 2
    elapsed = time.monotonic() - start
    report(
        9,
        ok and elapsed < 10.0,
        "family verified to arity 3, |rho| = 32, centrality holds, "
        "commutator witnesses pass for k in {1, 2}",
        elapsed,
    )


CORPUS_COMMANDS = [
    ["decide", "Z4"],
    ["decide", "Q8"],
    ["decide", "Z2xZ2"],
    ["decide", "S3"],
    ["decide", "Z4", "Z3"],
    ["con", "Z4"],
    ["con", "Q8"],
    ["lattice", "Z4", "--check", "splits-strongly"],
    ["lattice", "Z2xZ2", "--check", "splits"],
    ["pol", "Z4", "--max-arity", "1"],
    ["comp", "Z4", "--max-arity", "1"],
    ["skew", "Z2", "Z2"],
    ["skew", "Z2", "Z3"],
    ["tensor", "Z2", "Z3"],
    ["witness", "Z4"],
]


#: sha256 of the exit code, a newline and the stdout of each corpus command
CORPUS_DIGESTS = {
    "decide Z4": "3ca219de9f22a71f09603bd5676920a9289a39009caa2a5053562d5430a6ebe9",
    "decide Q8": "4cafac43f51b3c6d776d671c258b59cb7fd28aa1bfbbeb52638f0bca327630ac",
    "decide Z2xZ2": "572772d5e70c41db2159874bf8b452cc3870b9dcf5e4e5a5cf8e0f6866f4eebd",
    "decide S3": "cace81a22b6514f7612af75c7503efbb82ce473f312be38a0070385a68989594",
    "decide Z4 Z3": "7c320a77f899bf11364a04efaf8771b383aefe80107fc9c10dd1a62c4f69a111",
    "con Z4": "5daeaaae98e386b827e6b838430cb078347e5d85cfa50bc3910f938449a3de2a",
    "con Q8": "a974be03b0c6fd941d2449a695c24a0f82bccf9bac8bd468ec2a01675404b4b1",
    "lattice Z4 --check splits-strongly": (
        "555c0120b9e4476453483d383430c7b66cc70d74e762d089b6afab3252810509"
    ),
    "lattice Z2xZ2 --check splits": (
        "21018c000ce7b484a6f3a64fcfec7038a7c8709b69cfee99b5e2bda13e5d017a"
    ),
    "pol Z4 --max-arity 1": "1d3912bc5ecfb3b2f8fffa4b51ca24260c37de05172b96b0e2c3c51b1210ee8f",
    "comp Z4 --max-arity 1": "e8d84e89dcdbbab649d4b16375959873cf6e523dfca9eb46707cbb0511e50858",
    "skew Z2 Z2": "f796c0229db906f864c27f3738cd56f1e825aff870bd997ed173ba5614d1da6e",
    "skew Z2 Z3": "96ef7730209e956fbb1125113adf6f0e36847d7dfd0e57c13509d62f02f1b2ed",
    "tensor Z2 Z3": "0ef75b2e37a2155833df24bfc925a8c4d6bc35e954d2d4772da62e4b5ad88ea7",
    "witness Z4": "9855a2427177bc5ca92ab3e85759df31a3f40aa311566d5002445e5db1eac9d9",
}


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue().encode()


#: (Z4; x - y), a Mal'cev algebra that is not a group, as an algebra file
Z4_MINUS = {
    "name": "(Z4;x-y)",
    "size": 4,
    "operations": [
        {"name": "-", "arity": 2, "table": [0, 3, 2, 1, 1, 0, 3, 2, 2, 1, 0, 3, 3, 2, 1, 0]}
    ],
}

#: an 11-element algebra with a unary operation and a constant, not a group:
#: 104 of its 106 congruences have blocks of unequal sizes
UNARY11 = {
    "name": "(11;f,c)",
    "size": 11,
    "operations": [
        {"name": "f", "arity": 1, "table": [1, 2, 3, 0, 5, 4, 4, 8, 9, 7, 10]},
        {"name": "c", "arity": 0, "table": [6]},
    ],
}

#: algebra files of the pinned commands, by the token that stands for each
PINNED_FILES = {"Z4_MINUS": Z4_MINUS, "UNARY11": UNARY11}

#: the fragment and witness outputs behind the relation check and the row
#: writer (pol Z12 has values of one and two digits), the split check on the
#: 2,825 congruences of Z2^6, which does not split, and the blocks writer on
#: blocks of unequal sizes (con Z2xZ2xZ2xZ2xZ2, with equal blocks, is in
#: ORBIT_DIGESTS); a token of PINNED_FILES stands for its file
PINNED_COMMANDS = [
    ["comp", "Z3", "--max-arity", "2"],
    ["witness", "Q8", "--up-to-n", "2"],
    ["witness", "Z4"],
    ["witness", "Z4_MINUS"],
    ["pol", "Z6", "--max-arity", "2"],
    ["pol", "Z12", "--max-arity", "1"],
    ["pol", "Q8", "--max-arity", "2"],
    ["tensor", "Z4", "Z3"],
    ["lattice", "Z2xZ2xZ2xZ2xZ2xZ2", "--check", "splits-strongly"],
    ["con", "UNARY11"],
]

#: sha256 of the exit code, a newline and the stdout of each pinned command
PINNED_DIGESTS = {
    "comp Z3 --max-arity 2": "8e1f94abd6a5a6ee118cee3accb4b553d4766693444374b7315123a3e5b7488a",
    "witness Q8 --up-to-n 2": "43909fca7e7bbd5ff080b0e00d153d7c72b8ca034d5ab4bde57a3ba49ce3186c",
    "witness Z4": "9855a2427177bc5ca92ab3e85759df31a3f40aa311566d5002445e5db1eac9d9",
    "witness Z4_MINUS": "b299843690782db2e271e00f6efa02e9899a554dc4245888caee49b4c8432556",
    "pol Z6 --max-arity 2": "d4209e69720046a704f5dafe96c8762570944a171ac75007b235b86c8706e80c",
    "pol Z12 --max-arity 1": "657b2308614fec0a53a3fa6410f22709282cb5cd988af48f5f2dd240a8b93d01",
    "pol Q8 --max-arity 2": "d226d5091967643b6e9a32bfd85537ee1899764408d33806940f4a40c2a85f07",
    "tensor Z4 Z3": "a9f6f5ff6648f4e719bb1ca109eb1173ca421fefa414e9d3c9092c288122a2bf",
    "lattice Z2xZ2xZ2xZ2xZ2xZ2 --check splits-strongly": (
        "fbf3bfc2fcaa489799b523f244eb658c42f657b434e67282fca93124a8f77d1f"
    ),
    "con UNARY11": "c2d71637861039acb24fe42d0334064e1f73f5cf5f2dfd1bd03cc137ab46a5ca",
}


@pytest.mark.parametrize("argv", PINNED_COMMANDS, ids=" ".join)
def test_fragment_and_witness_output_is_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("CONGREX_BUDGET", raising=False)
    for token, alg in PINNED_FILES.items():
        (tmp_path / f"{token}.json").write_text(json.dumps(alg))
    code, out = run_cli([str(tmp_path / f"{a}.json") if a in PINNED_FILES else a for a in argv])
    digest = hashlib.sha256(str(code).encode() + b"\n" + out).hexdigest()
    assert digest == PINNED_DIGESTS[" ".join(argv)]


#: group tables behind the pinned decide outputs, each decided from a file
#: of its table relabelled by random.Random(name)
DECIDE_GROUPS = {
    "Z2xZ2xZ2xZ2xZ2": lambda: parse_group_spec("Z2xZ2xZ2xZ2xZ2"),
    "Z8xZ8": lambda: parse_group_spec("Z8xZ8"),
    "Z16xZ4": lambda: parse_group_spec("Z16xZ4"),
    "Z61": lambda: parse_group_spec("Z61"),
    "S4": lambda: parse_group_spec("S4"),
    "Q8xZ3": lambda: group_from_cayley(q8_times_z3_cayley(), name="Q8xZ3"),
    "D4": lambda: group_from_cayley(d4_cayley(), name="D4"),
}

#: sha256 of the exit code, a newline and the stdout of each decide command;
#: "FILE:<name>" stands for the relabelled file of DECIDE_GROUPS[name]
DECIDE_DIGESTS = {
    "decide FILE:Z2xZ2xZ2xZ2xZ2": "8fa066ce137f4846a2933fc1d7233f145e55097985af931a2af4295ab85104d1",
    "decide FILE:Z8xZ8": "f0c62f8f85bae878e32bac01693119d6d4cabf579b04c392f04417cbbab430b8",
    "decide FILE:Z16xZ4": "cb3ff53893db446e5b1dd0925c89b2bde27d15c4f37df99f0ea539c1ac57b1ac",
    "decide FILE:Z61": "e1e37e5fa1864977b0571abdce5b7b1252d8b0856d040b19c3e74c47d0f3ca15",
    "decide FILE:S4": "7aff4138619258b5c569bdcd0c0e1287d6ec88a6a33a7962d563eb5ca76530e9",
    "decide FILE:Q8xZ3": "c536f4a4b8d15bb586b7454bce00a881dd1e3ef13b37e611d130169af45eec56",
    "decide FILE:D4": "4082f11cf3c87ddd40bccbe2cbdfb40ac7230c24369b2f4309e7fe23c94b6a8b",
    "decide Z2xZ2xZ2xZ2xZ2xZ2": (
        "eb23cbaf4d7e60e544b4c29870a4ba46e044c79a787ff327b4f48993aeaa9a9b"
    ),
}


def relabeled_group_file(name, path):
    table = GroupStructure.of(DECIDE_GROUPS[name]()).mul_table.tolist()
    perm = list(range(len(table)))
    random.Random(name).shuffle(perm)
    alg = group_from_cayley(relabeled_cayley(table, perm), name=name)
    path.write_text(json.dumps(alg.to_json_dict()))
    return str(path)


@pytest.mark.parametrize("command", DECIDE_DIGESTS)
def test_decide_output_is_pinned(command, tmp_path, monkeypatch):
    monkeypatch.delenv("CONGREX_BUDGET", raising=False)
    argv = [
        relabeled_group_file(a[5:], tmp_path / "g.json") if a.startswith("FILE:") else a
        for a in command.split()
    ]
    code, out = run_cli(argv)
    digest = hashlib.sha256(str(code).encode() + b"\n" + out).hexdigest()
    assert digest == DECIDE_DIGESTS[command]


#: (Z8; x - y) with its elements renamed by random.Random(its name), as an
#: algebra file: a Mal'cev algebra whose translations all permute it
Z8_MINUS_NAME = "(Z8;x-y)"


def relabeled_z8_minus_file(path):
    perm = list(range(8))
    random.Random(Z8_MINUS_NAME).shuffle(perm)
    table = relabeled_cayley([[(x - y) % 8 for y in range(8)] for x in range(8)], perm)
    ops = [{"name": "-", "arity": 2, "table": [v for row in table for v in row]}]
    path.write_text(json.dumps({"name": Z8_MINUS_NAME, "size": 8, "operations": ops}))
    return str(path)


#: sha256 of the exit code, a newline and the stdout of commands whose
#: algebras have many permutation translations, the orbit step's input;
#: "FILE" stands for the file of relabeled_z8_minus_file
ORBIT_DIGESTS = {
    "con Q8xZ3": "adad79086e59e28218f644ab6eadfd1c7f17e1a9c80b7acdb0e38a3dd902a7e0",
    "con Z4xZ4xZ4": "daea2a91eb940902e83ff99507e45c388c1be17d208731563e9591c82e687d23",
    "con Z2xZ2xZ2xZ2xZ2": "7a3a124dcc07cdabfee6389fab7b17d2a2f64bd37abf26ae7c89c5737cd3ca1b",
    "skew Z4 Z2": "32638ee43f8cf218ce6a459cb0c56b5f8cb3faa746cbaa937519a5dd12f74ccc",
    "con FILE": "767953fb2c30f3570bc0ba50104cc17796a594b7644d47c71cec3e985c4a0e99",
}


@pytest.mark.parametrize("command", ORBIT_DIGESTS)
def test_permutation_rich_output_is_pinned(command, tmp_path, monkeypatch):
    monkeypatch.delenv("CONGREX_BUDGET", raising=False)
    argv = [
        relabeled_z8_minus_file(tmp_path / "z8minus.json") if a == "FILE" else a
        for a in command.split()
    ]
    code, out = run_cli(argv)
    digest = hashlib.sha256(str(code).encode() + b"\n" + out).hexdigest()
    assert digest == ORBIT_DIGESTS[command]


def test_criterion_10_determinism():
    start = time.monotonic()
    ok = True
    for argv in CORPUS_COMMANDS:
        if run_cli(argv) != run_cli(argv):
            ok = False
    report(
        10,
        ok,
        f"{len(CORPUS_COMMANDS)} corpus commands byte-identical across repeated runs",
        time.monotonic() - start,
    )


@pytest.mark.parametrize("argv", CORPUS_COMMANDS, ids=" ".join)
def test_corpus_output_is_pinned(argv, monkeypatch):
    monkeypatch.delenv("CONGREX_BUDGET", raising=False)
    code, out = run_cli(argv)
    digest = hashlib.sha256(str(code).encode() + b"\n" + out).hexdigest()
    assert digest == CORPUS_DIGESTS[" ".join(argv)]
