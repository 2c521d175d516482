"""Seeded inputs and job lists for the congrex benchmark.

A workload is a fixed list of jobs. A job is one ``congrex`` CLI call on
generated JSON files, together with what the oracle expects of its output.
The seed only draws relabelings of universes and the tables of random
algebras and clone generators, so every seed runs the same commands on
isomorphic (or equally random) inputs, and the same seed and pass index give
byte-identical files.

The tables are built here from scratch, not with congrex's constructors, so
the inputs do not move when the program changes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field

#: the layers a workload should spend most of its traced self time in
PREDICTED_DOMINANT = {
    "decide-groups": ("groups",),
    "congruence-lattice": ("algebra", "lattice"),
    "clones-witness": ("clones", "analyzer"),
}

INFINITE = "infinitely-many"
FINITE = "finitely-many"
NOT_APPLICABLE = "not-applicable"


@dataclass
class Algebra:
    """Operation tables on 0..size-1, in the package's JSON layout."""

    name: str
    size: int
    ops: list  # (name, arity, flat row-major table)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "operations": [
                {"name": n, "arity": a, "table": list(t)} for n, a, t in self.ops
            ],
        }


@dataclass
class Job:
    """One CLI call. ``args`` names its input files as ``@name``."""

    args: list
    inputs: dict = field(default_factory=dict)  # file name -> JSON object
    expect: dict = field(default_factory=dict)

    def argv(self, directory: str) -> list:
        return [
            os.path.join(directory, a[1:]) if a.startswith("@") else a
            for a in self.args
        ]


# ---------------------------------------------------------------------------
# tables


def cyclic_product(moduli, subtraction_only: bool = False) -> Algebra:
    """Z_m1 x ... x Z_mr on mixed-radix codes; with subtraction_only, the
    single binary operation x - y and nothing else."""
    elems = list(itertools.product(*[range(m) for m in moduli]))
    index = {e: i for i, e in enumerate(elems)}

    def code(vals):
        return index[tuple(v % m for v, m in zip(vals, moduli))]

    name = "x".join(f"Z{m}" for m in moduli)
    if subtraction_only:
        sub = [code([a - b for a, b in zip(x, y)]) for x in elems for y in elems]
        return Algebra(f"({name};x-y)", len(elems), [("-", 2, sub)])
    add = [code([a + b for a, b in zip(x, y)]) for x in elems for y in elems]
    neg = [code([-a for a in x]) for x in elems]
    return Algebra(name, len(elems), [("+", 2, add), ("-", 1, neg), ("0", 0, [0])])


def cayley_group(name: str, elems, mul) -> Algebra:
    """Group algebra (*, inv, e) of a multiplication on a list of elements."""
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    table = [index[mul(x, y)] for x in elems for y in elems]
    identity = next(
        e for e in range(n) if all(table[e * n + x] == x == table[x * n + e] for x in range(n))
    )
    inv = [next(y for y in range(n) if table[x * n + y] == identity) for x in range(n)]
    return Algebra(name, n, [("*", 2, table), ("inv", 1, inv), ("e", 0, [identity])])


def _hamilton(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


QUATERNION_UNITS = [
    tuple(s if i == k else 0 for i in range(4)) for k in range(4) for s in (1, -1)
]


def quaternion_group() -> Algebra:
    return cayley_group("Q8", QUATERNION_UNITS, _hamilton)


def dihedral_group(n: int) -> Algebra:
    """D_n of order 2n: r^i s^j, with s r = r^-1 s."""
    elems = [(i, j) for j in range(2) for i in range(n)]

    def mul(x, y):
        (i, j), (k, l) = x, y
        return ((i + (k if j == 0 else -k)) % n, (j + l) % 2)

    return cayley_group(f"D{n}", elems, mul)


def symmetric_group(n: int) -> Algebra:
    perms = list(itertools.permutations(range(n)))
    return cayley_group(f"S{n}", perms, lambda p, q: tuple(p[q[x]] for x in range(n)))


def q8_times_z3() -> Algebra:
    elems = [(q, z) for q in QUATERNION_UNITS for z in range(3)]
    return cayley_group(
        "Q8xZ3", elems, lambda x, y: (_hamilton(x[0], y[0]), (x[1] + y[1]) % 3)
    )


def relabel(alg: Algebra, rng: random.Random) -> Algebra:
    """The isomorphic copy under a random permutation of the universe."""
    n = alg.size
    perm = list(range(n))
    rng.shuffle(perm)
    ops = []
    for name, arity, table in alg.ops:
        new = [0] * len(table)
        for args in itertools.product(range(n), repeat=arity):
            src = 0
            dst = 0
            for a in args:
                src = src * n + a
                dst = dst * n + perm[a]
            new[dst] = perm[table[src]]
        ops.append((name, arity, new))
    return Algebra(alg.name, n, ops)


def random_algebra(rng: random.Random, size: int, name: str) -> Algebra:
    """One unary and one binary operation with uniformly random tables."""
    unary = [rng.randrange(size) for _ in range(size)]
    binary = [rng.randrange(size) for _ in range(size * size)]
    return Algebra(name, size, [("f", 1, unary), ("g", 2, binary)])


def random_generators(rng: random.Random) -> dict:
    """A clone generator file: universe 2 with arity <= 2, or universe 3 with
    unary generators, never constant and never a projection.  Binary
    generators on three elements are left out because most of them generate
    all 19683 binary functions, which the closure cannot finish in a run."""
    size = rng.choice((2, 3))
    arities = (1, 2) if size == 2 else (1,)
    functions = []
    for _ in range(rng.choice((1, 2))):
        while True:
            arity = rng.choice(arities)
            table = [rng.randrange(size) for _ in range(size**arity)]
            points = list(itertools.product(range(size), repeat=arity))
            constant = len(set(table)) == 1
            projection = any(
                table == [p[i] for p in points] for i in range(arity)
            )
            if not constant and not projection:
                break
        functions.append({"arity": arity, "table": table})
    return {"universe_size": size, "functions": functions}


# ---------------------------------------------------------------------------
# workloads


def abelian_specs(order_bound: int = 64):
    """(p, exponents) for every abelian p-group of order <= order_bound."""

    def partitions(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(cap, total), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    out = []
    for p in range(2, order_bound + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        total = 1
        while p**total <= order_bound:
            out.extend((p, exps) for exps in partitions(total, total))
            total += 1
    return out


# verdicts of the non-abelian groups: Q8 and D4 have a unique minimal normal
# subgroup below all others, so their normal subgroup lattices split
# strongly; Q8xZ3 inherits that from its Sylow 2-factor; S3 and S4 are not
# nilpotent.
NON_ABELIAN = [
    (quaternion_group, {"verdict": INFINITE, "exit": 0, "normal_subgroups": 6,
                        "factors": [[2, 8, INFINITE]]}),
    (lambda: dihedral_group(4), {"verdict": INFINITE, "exit": 0,
                                 "normal_subgroups": 6, "factors": [[2, 8, INFINITE]]}),
    (q8_times_z3, {"verdict": INFINITE, "exit": 0, "normal_subgroups": 12,
                   "factors": [[2, 8, INFINITE], [3, 3, FINITE]]}),
    (lambda: symmetric_group(3), {"verdict": NOT_APPLICABLE, "exit": 2,
                                  "lower_central_series": [6, 3, 3]}),
    (lambda: symmetric_group(4), {"verdict": NOT_APPLICABLE, "exit": 2,
                                  "lower_central_series": [24, 12, 12]}),
]


def small_enough(p: int, exps) -> bool:
    """Order below 64, or rank at most 2.  The order-64 groups of rank 3 or
    more take 1 s (Z4xZ4xZ2xZ2) to 20 s (Z2^6, 2825 subgroups) each, twice
    the rest of the pass together, so that too few passes would fit in a
    run for their median to be steady."""
    return p ** sum(exps) < 64 or len(exps) <= 2


def decide_groups(rng: random.Random):
    """``decide`` on every abelian p-group of order below 64, the four of
    order 64 and rank at most 2, and Q8, D4, Q8xZ3, S3 and S4, each
    relabeled.  Nearly all the time goes to ``groups.normal_subgroups``; no
    lattice is built and no clone touched, so gains in those layers must
    leave this workload unchanged."""
    jobs = []
    specs = [spec for spec in abelian_specs() if small_enough(*spec)]
    for i, (p, exps) in enumerate(specs):
        alg = relabel(cyclic_product([p**m for m in exps]), rng)
        jobs.append(
            Job(["decide", f"@g{i}.json"], {f"g{i}.json": alg.to_json()},
                {"kind": "decide-group", "abelian": [p, list(exps)]})
        )
    for i, (build, expect) in enumerate(NON_ABELIAN):
        alg = relabel(build(), rng)
        jobs.append(
            Job(["decide", f"@h{i}.json"], {f"h{i}.json": alg.to_json()},
                dict(expect, kind="decide-group"))
        )
    return jobs


# Subgroup counts of the abelian groups used below: Z2^k has
# sum_j [k choose j]_2 subspaces (5, 16, 67, 374 for k = 2..5); a cyclic group,
# coprime products included, has one subgroup per divisor of its order;
# Z4xZ2 has 8; Z4xZ2^3 has 118 (1, 15, 43, 43, 15 and 1 of orders 1 to 32).
CON_COUNTS = {
    (2, 2, 2, 2, 2): 374, (2, 2, 2, 2): 67, (2, 2, 2): 16, (2, 2): 5,
    (8,): 4, (9,): 3, (4,): 3, (3,): 2, (2,): 2, (4, 2): 8, (3, 4): 6,
    (4, 2, 2, 2): 118, (4, 9): 9,
}


def _group(moduli, rng, subtraction_only=False):
    return relabel(cyclic_product(moduli, subtraction_only), rng).to_json()


def congruence_lattice(rng: random.Random):
    """``con``, ``lattice``, ``skew`` and coprime ``decide`` on three
    families: group algebras, the same universes with subtraction as the
    only operation, and random algebras.  The time goes to ``algebra`` and
    ``lattice``; a fast path for groups that costs general algebras shows
    here."""
    jobs = []

    def lattice(moduli, check, sub=False):
        name = f"{'s' if sub else 'g'}{len(jobs)}.json"
        if check == "modular":
            expect = {"kind": "lattice", "check": check, "modular": True}
        else:
            # abelian p-groups: elementary ones of rank >= 2 do not split,
            # cyclic ones are chains and split strongly.  In Z4xZ2^3 every
            # subgroup lies in the socle Z2^4 or contains the square 2G of
            # order 2, which lies in the socle: it splits strongly.
            expect = {"kind": "lattice", "check": check,
                      "size": CON_COUNTS[tuple(moduli)],
                      "splits": len(moduli) == 1 or tuple(moduli) == (4, 2, 2, 2)}
        jobs.append(Job(["lattice", "@" + name, "--check", check],
                        {name: _group(moduli, rng, sub)}, expect))

    def con(moduli, sub=False):
        name = f"{'s' if sub else 'g'}{len(jobs)}.json"
        jobs.append(Job(["con", "@" + name], {name: _group(moduli, rng, sub)},
                        {"kind": "con", "count": CON_COUNTS[tuple(moduli)]}))

    def decide(left, right, sub=False):
        a, b = f"a{len(jobs)}.json", f"b{len(jobs)}.json"
        args = ["decide", "@" + a, "@" + b]
        if sub:
            args.append("--assume-nilpotent-pp-factors")
        # the cyclic factors Z4, Z8, Z9 all split strongly
        jobs.append(Job(args, {a: _group([left], rng, sub), b: _group([right], rng, sub)},
                        {"kind": "decide-product", "verdict": INFINITE,
                         "count": CON_COUNTS[(left, right)],
                         "factors": [INFINITE, INFINITE]}))

    def skew(left, right, sub=False):
        a, b = f"a{len(jobs)}.json", f"b{len(jobs)}.json"
        jobs.append(Job(["skew", "@" + a, "@" + b],
                        {a: _group([left], rng, sub), b: _group([right], rng, sub)},
                        {"kind": "skew",
                         "count": CON_COUNTS[(left, right)],
                         "product_count": CON_COUNTS[(left,)] * CON_COUNTS[(right,)]}))

    # group algebras, anchored by Con(Z2^5) and the 36-element Z4 x Z9.
    # Z8 x Z9 (about 12 s) is left out so that several passes fit in a run.
    con([2] * 5)
    decide(4, 9)
    con([2] * 4)
    lattice([2] * 3, "modular")
    lattice([8], "splits-strongly")
    skew(4, 2)
    skew(3, 4)
    # the same universes with x - y as the only operation: the same lattices,
    # but no group reduct.  The largest lattice built is the 118-element one
    # of Z4xZ2^3; the 374-element lattice of Z2^5 (about 9 s and 930 MB) and
    # (Z8; x-y) x (Z9; x-y) (about 18 s) are left out for the run length.
    lattice([4, 2, 2, 2], "splits-strongly", sub=True)
    lattice([2] * 4, "splits-strongly", sub=True)
    lattice([2] * 4, "modular", sub=True)
    lattice([9], "splits", sub=True)
    decide(4, 9, sub=True)
    skew(2, 2, sub=True)
    # random algebras, mostly simple: principal congruences, little joining.
    # They are the fastest jobs and the majority, so the median job time
    # falls among them and shows the fixed cost of a CLI call.
    checks = ("splits", "splits-strongly", "modular")
    for i, size in enumerate((4, 5, 5, 6, 6, 7, 7, 8, 8, 8)):
        alg = random_algebra(rng, size, f"R{i}").to_json()
        name = f"r{i}.json"
        jobs.append(Job(["con", "@" + name], {name: alg}, {"kind": "con", "brute": True}))
        jobs.append(Job(["lattice", "@" + name, "--check", checks[i % 3]], {name: alg},
                        {"kind": "lattice", "check": checks[i % 3], "brute": True}))
    return jobs


def clones_witness(rng: random.Random):
    """``pol``, ``comp``, ``tensor``, ``clone`` on random generator files and
    ``witness`` pipelines, including the non-group (Z4; x-y) that needs
    ``malcev_term``.  The time goes to ``clones`` and the witness checks of
    ``analyzer``; Con is only computed on algebras of at most 8 elements."""
    jobs = []

    def add(args, alg, expect):
        name = f"c{len(jobs)}.json"
        jobs.append(Job([args[0], "@" + name] + args[1:], {name: alg}, expect))

    # Pol_k of Z_n is the n^(k+1) affine maps; Comp_1(Z4) has 64 members;
    # Z3 is simple, so Comp_k(Z3) is every k-ary function
    for n in (3, 4, 6):
        add(["pol", "--max-arity", "2"], _group([n], rng),
            {"kind": "fragment", "counts": [n**2, n**3]})
    add(["comp", "--max-arity", "1"], _group([4], rng), {"kind": "fragment", "counts": [64]})
    add(["comp", "--max-arity", "2"], _group([3], rng),
        {"kind": "fragment", "counts": [27, 3**9]})
    a, b = "t0.json", "t1.json"
    jobs.append(Job(["tensor", "@" + a, "@" + b],
                    {a: _group([2], rng), b: _group([3], rng)},
                    {"kind": "tensor", "count": 4 * 9 + 8 * 27}))
    for i in range(4):
        name = f"gen{i}.json"
        jobs.append(Job(["clone", "@" + name, "--max-arity", "2"],
                        {name: random_generators(rng)}, {"kind": "clone"}))
    # witness pipelines: rho has |A|^2 * p tuples for an atom of prime size p.
    # Only the 4-element algebras run to arity 3; on 8 elements that takes
    # 10 s to 12 s per pipeline, about three times the rest of the pass, so
    # Q8, D4, Z8 and Z2xZ4 stop at arity 1 or 2 (0.1 s to 0.3 s).  These
    # short pipelines are the middle third of the jobs by time, so the
    # median job time falls among similar jobs, not between a fast and a
    # slow cluster.
    witness = [
        (_group([4], rng), 3),
        (_group([4], rng, subtraction_only=True), 3),
        (relabel(quaternion_group(), rng).to_json(), 2),
        (relabel(dihedral_group(4), rng).to_json(), 2),
        (_group([2, 4], rng), 2),
        (_group([8], rng), 2),
        (relabel(dihedral_group(4), rng).to_json(), 1),
        (_group([2, 4], rng), 1),
    ]
    for alg, up_to_n in witness:
        extra = [] if up_to_n == 3 else ["--up-to-n", str(up_to_n)]
        add(["witness"] + extra, alg,
            {"kind": "witness", "size": alg["size"], "atom": 2, "up_to_n": up_to_n})
    return jobs


BUILDERS = {
    "decide-groups": decide_groups,
    "congruence-lattice": congruence_lattice,
    "clones-witness": clones_witness,
}
WORKLOADS = tuple(BUILDERS)


def scatter(jobs):
    """A fixed reordering that puts jobs built next to each other, which are
    of similar size, far apart in the pass.  The jobs that set the median job
    time then run at moments spread over the whole pass, not in one stretch
    of it, so a few slow seconds on a shared machine do not decide it."""
    n = len(jobs)
    step = next(s for s in range(int(n * 0.618), n + 1) if math.gcd(s, n) == 1)
    return [jobs[i * step % n] for i in range(n)]


def jobs_for(workload: str, seed: int, pass_index: int = 0):
    """The job list of one pass; pass 0 is the one a seed is known by."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    return scatter(BUILDERS[workload](rng))


def write_inputs(jobs, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for job in jobs:
        for name, obj in job.inputs.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh, separators=(",", ":"))
