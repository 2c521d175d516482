"""Shared oracles and corpus builders for the test suite.

The oracles here are deliberately independent of the library internals:
congruences by filtering all set partitions, split witnesses by exhaustive
(delta, epsilon) search, clone parts by fixed-arity superposition closure.
Replaced library paths are kept as oracles too: the bounded fixpoint clone
closure, the head-by-head rounds of the semi-naive clone closure, the
row-by-row relation preservation check, the tuple-by-tuple congruence
preservation check and Comp enumeration, the all-pairs congruence join
closure, the all-pairs meet/join closedness check, the k x k x k
lattice tables behind a triple-loop transitivity check, the irreducibles
from the cover relation strict & ~(strict @ strict), the join-fold split
witness search over every epsilon, the witness family checks over every
congruence, the full-width member product of a Sims table, the triple-loop
modularity check and transitive closure of a cover list, the union-find
principal congruence and pair-list partition join, the pair-by-pair
permutability check of two partitions, the breadth-first pair orbits and
the orbit-by-orbit principal join closure with its budget, the
full-round principal congruence fixpoint, the atom-by-atom principal
split, the breadth-first join closure of the principal rows that keeps
each row found by its bytes and counts the joins that the congruence
budget bounds, the bitmask
normal subgroup closure, the subgroup-closure split of the normal
subgroup lattice, the commutator-by-commutator lower central series, the
tuple sort of clone fragment members, the pair loop of the tensor of two
fragments, and the tuple-by-tuple direct product and every
other table over A^n that the library builds on its argument grid.
Helpers that only tests use live here as well: the lattice of a cover
list, the split witness check and random bounded relations.
"""

import itertools

import numpy as np
from hypothesis import strategies as st

from congrex.algebra import (
    _BLOCK,
    FiniteAlgebra,
    Operation,
    Partition,
    _flat_index,
    _fresh,
    _grid,
    _hook,
    _join_rows,
    direct_product,
)
from congrex.clones import (
    FiniteFunction,
    add_dummy_arg,
    compose_first,
    diagonal_minor,
    rotate_args,
    swap_args,
)
from congrex.errors import BudgetExceededError
from congrex.groups import GroupStructure, quaternion_group
from congrex.lattice import FiniteLattice, SplitWitness, chain, lattice_product


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion pass/fail lines after the run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


def all_partitions(n):
    """Every partition of {0..n-1}, as Partition objects."""

    def assign(i, labels, used):
        if i == n:
            yield Partition(tuple(labels))
            return
        for lab in range(used + 1):
            labels.append(lab)
            yield from assign(i + 1, labels, max(used, lab + 1))
            labels.pop()

    yield from assign(0, [], 0)


@st.composite
def small_algebras(draw, min_size=1, max_size=4):
    """Algebras of min_size to max_size elements with random nullary, unary
    and binary tables; about half have a permutation among their unary
    operations, so pairs have nontrivial orbits under the permutation
    translations."""
    n = draw(st.integers(min_size, max_size))

    def table(arity):
        cells = n**arity
        return draw(st.lists(st.integers(0, n - 1), min_size=cells, max_size=cells))

    ops = []
    if draw(st.booleans()):
        ops.append(Operation("p", 1, draw(st.permutations(range(n)))))
    ops += [Operation(f"u{i}", 1, table(1)) for i in range(draw(st.integers(0, 2)))]
    ops += [Operation(f"b{i}", 2, table(2)) for i in range(draw(st.integers(0, 1)))]
    ops += [Operation(f"c{i}", 0, table(0)) for i in range(draw(st.integers(0, 1)))]
    return FiniteAlgebra(n, ops)


def _permutation_ops(draw, n, count, binary):
    """count unary permutations of range(n), each an n-cycle on renamed
    elements (transitive) or a permutation of a random part of the universe
    (intransitive), then a random binary table if binary."""
    ops = []
    for i in range(count):
        perm = draw(st.permutations(range(n)))
        if draw(st.booleans()):
            table = [0] * n
            for x in range(n):
                table[perm[x]] = perm[(x + 1) % n]
        else:
            part = sorted(perm[: draw(st.integers(1, n))])
            table = list(range(n))
            for x, y in zip(part, draw(st.permutations(part))):
                table[x] = y
        ops.append(Operation(f"p{i}", 1, table))
    if binary:
        cells = st.integers(0, n - 1)
        ops.append(Operation("b", 2, draw(st.lists(cells, min_size=n * n, max_size=n * n))))
    return ops


@st.composite
def permutation_algebras(draw, max_size=6):
    """Algebras of 2 to max_size elements with two or three unary
    permutations, transitive and intransitive, and sometimes a random binary
    table; or, half of the time, the direct product of two such algebras of
    2 and 2 or 3 elements, whose permutations act on the pairs."""
    count, binary = draw(st.integers(2, 3)), draw(st.booleans())
    if draw(st.booleans()):
        n = draw(st.integers(2, max_size))
        return FiniteAlgebra(n, _permutation_ops(draw, n, count, binary))
    sizes = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    a, b = (FiniteAlgebra(n, _permutation_ops(draw, n, count, binary)) for n in sizes)
    return direct_product(a, b)


def table_value(op: Operation, args, size: int) -> int:
    """The value of op at an argument tuple, read from its table."""
    return int(op.table[_flat_index(args, size)])


def partition_respects(alg: FiniteAlgebra, part: Partition) -> bool:
    """Compatibility by direct substitution on all argument tuples."""
    for op in alg.operations:
        if op.arity == 0:
            continue
        for xs in itertools.product(range(alg.size), repeat=op.arity):
            for ys in itertools.product(range(alg.size), repeat=op.arity):
                if all(part.block_id[x] == part.block_id[y] for x, y in zip(xs, ys)):
                    if part.block_id[table_value(op, xs, alg.size)] != part.block_id[
                        table_value(op, ys, alg.size)
                    ]:
                        return False
    return True


def brute_congruences(alg: FiniteAlgebra):
    return sorted(
        (p for p in all_partitions(alg.size) if partition_respects(alg, p)),
        key=lambda p: p.block_id,
    )


def loop_translations(alg: FiniteAlgebra):
    """Every non-identity x |-> f(c1, ..., x, ..., ck), sorted, as tuples."""
    out = set()
    for op in alg.operations:
        for pos in range(op.arity):
            for rest in itertools.product(range(alg.size), repeat=op.arity - 1):
                t = tuple(
                    table_value(op, rest[:pos] + (x,) + rest[pos:], alg.size)
                    for x in range(alg.size)
                )
                if t != tuple(range(alg.size)):
                    out.add(t)
    return tuple(sorted(out))


def union_find_partition(size, pairs):
    """The least equivalence on range(size) relating each given pair."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return Partition(find(x) for x in range(size))


def pair_list_join(p: Partition, q: Partition) -> Partition:
    """p v q by union-find over each element and the first of its block."""
    pairs = []
    for part in (p, q):
        first = {}
        for x, lab in enumerate(part.block_id):
            pairs.append((first.setdefault(lab, x), x))
    return union_find_partition(p.size, pairs)


def loop_composes_with(p: Partition, q: Partition) -> bool:
    """p o q == q o p, pair by pair: every (a, b) in p v q has some z with
    a q z and z p b."""
    join = pair_list_join(p, q)
    return all(
        any(q.same(a, z) and p.same(z, b) for z in range(p.size))
        for a in range(p.size)
        for b in range(p.size)
        if join.same(a, b)
    )


def zip_meet(p: Partition, q: Partition) -> Partition:
    return Partition(zip(p.block_id, q.block_id))


def loop_refines(p: Partition, q: Partition) -> bool:
    seen = {}
    return all(seen.setdefault(a, b) == b for a, b in zip(p.block_id, q.block_id))


def union_find_principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Partition:
    """Cg(a, b) by union-find, pushing (t(x), t(y)) for every merge."""
    translations = loop_translations(alg)
    parent = list(range(alg.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[rx] = ry
        for t in translations:
            stack.append((t[x], t[y]))
    return Partition(find(x) for x in range(alg.size))


def pairwise_congruence_closure(alg: FiniteAlgebra):
    """Con(A) from every Cg(a, b), closed under theta v sigma for every pair."""
    congs = {Partition.identity(alg.size)}
    for a in range(alg.size):
        for b in range(a + 1, alg.size):
            congs.add(union_find_principal_congruence(alg, a, b))
    worklist = list(congs)
    while worklist:
        theta = worklist.pop()
        for sigma in list(congs):
            joined = pair_list_join(theta, sigma)
            if joined not in congs:
                congs.add(joined)
                worklist.append(joined)
    return sorted(congs, key=lambda p: p.block_id)


def loop_pair_orbits(alg: FiniteAlgebra):
    """The orbits of the pairs (a, b), a < b, under the permutation
    translations, by breadth-first search from each pair not yet reached;
    a list of sets, in order of their least pairs."""
    n = alg.size
    perms = [t for t in loop_translations(alg) if len(set(t)) == n]
    orbits = []
    done = set()
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) in done:
                continue
            orbit = {(a, b)}
            todo = [(a, b)]
            while todo:
                x, y = todo.pop()
                for t in perms:
                    pair = (min(t[x], t[y]), max(t[x], t[y]))
                    if pair not in orbit:
                        orbit.add(pair)
                        todo.append(pair)
            done |= orbit
            orbits.append(orbit)
    return orbits


def orbit_join_closure(alg: FiniteAlgebra, budget=None):
    """(Con(A), joins counted) by one Cg per orbit of pairs under the
    permutation translations (loop_pair_orbits) and the closure
    theta |-> theta v Cg(a, b), one join at a time, with the estimate and
    join budget of FiniteAlgebra.all_congruences (budget None: no limit)."""
    n = alg.size
    estimate = n * n * max(1, len(loop_translations(alg)))
    if budget is not None and estimate > budget:
        raise BudgetExceededError(
            f"congruence enumeration estimate {estimate} exceeds budget {budget}"
        )
    principals = {}
    for orbit in loop_pair_orbits(alg):
        a, b = min(orbit)
        principals.setdefault(union_find_principal_congruence(alg, a, b), (a, b))
    congs = {Partition.identity(n), *principals}
    worklist = list(principals)
    work = 0
    while worklist:
        theta = worklist.pop()
        for pi, (a, b) in principals.items():
            if theta.block_id[a] == theta.block_id[b]:
                continue
            work += 1
            if budget is not None and work > budget:
                raise BudgetExceededError(
                    f"congruence join closure exceeded budget {budget}"
                )
            joined = pair_list_join(theta, pi)
            if joined not in congs:
                congs.add(joined)
                worklist.append(joined)
    return sorted(congs, key=lambda p: p.block_id), work


def breadth_first_congruence_rows(alg: FiniteAlgebra):
    """(Con(A) as least-member rows, the identity first and the rest in the
    order found, joins counted): the closure of the distinct principal rows
    under theta |-> theta v Cg(a, b), several thetas joined with all their
    Cg(a, b) at once, each new row kept by its bytes and joined in turn.
    A join is a pair theta, Cg(a, b) with a, b in different blocks of
    theta, so the count is the work FiniteAlgebra.congruence_rows compares
    with its budget."""
    n = alg.size
    principals, first_a, first_b = alg._distinct_principal_rows(budget=None)
    seen = {np.arange(n, dtype=np.int32).tobytes(): None}
    _fresh(seen, principals)
    worklist = list(principals)
    work = 0
    per_batch = max(1, _BLOCK // (n * max(1, len(principals))))
    while worklist:
        thetas = np.array(worklist[-per_batch:])
        del worklist[-per_batch:]
        theta_i, pi_i = np.nonzero(thetas[:, first_a] != thetas[:, first_b])
        work += len(theta_i)
        joined = _join_rows(thetas[theta_i], principals[pi_i])
        worklist += list(joined[_fresh(seen, joined)])
    return np.frombuffer(b"".join(seen), dtype=np.int32).reshape(-1, n), work


def full_round_principal_rows(translations, a, b, n: int):
    """Least-member rows of Cg(a[i], b[i]) by full rounds: each round hooks
    t(x), t(y) for every translation t, every x and the least member y of
    its class, until a round changes nothing; one row at a time once a
    translation chunk of n * #translations entries outgrows _BLOCK."""
    out = np.empty((len(a), n), dtype=np.int32)
    step = max(1, _BLOCK // (n * max(1, len(translations))))
    for lo in range(0, len(a), step):
        s = slice(lo, lo + step)
        r = len(out[s])
        offset = np.arange(0, r * n, n)
        forest = np.arange(r * n)
        _hook(forest, a[s] + offset, b[s] + offset)
        changed = True
        while changed:
            changed = False
            for t in range(0, len(translations), max(1, _BLOCK // (r * n))):
                trans = translations[t : t + max(1, _BLOCK // (r * n))]
                moved = np.flatnonzero(forest != np.arange(r * n))
                x = moved % n
                base = moved - x
                left = (trans[:, x] + base).ravel()
                right = (trans[:, forest[moved] - base] + base).ravel()
                changed |= len(_hook(forest, left, right)) > 0
        out[s] = forest.reshape(r, n) - offset[:, None]
    return out


def per_atom_principal_split(principals, first_a, first_b, strong: bool):
    """(delta, epsilon) as least-member rows, or None, one atom at a time,
    the strong or the weak split of algebra.principal_split:
    the atoms are the principal rows with no other principal row below
    them, in lexicographic order, and delta_eps is the join, one row after
    another, of the principal rows not above epsilon (and of epsilon, if
    strong); the first epsilon with delta_eps < 1 wins."""
    n = principals.shape[1]
    related = principals[:, first_a] == principals[:, first_b]  # [j, i]: P_i <= P_j
    atoms = [j for j in range(len(principals)) if related[j].sum() == 1]
    atoms.sort(key=lambda i: principals[i].tolist())
    for eps in atoms:
        delta = np.arange(n)
        for j in range(len(principals)):
            if not related[j, eps] or (strong and j == eps):
                _hook(delta, np.arange(n), principals[j].astype(np.intp))
        if delta.any():
            return delta.astype(np.int32), principals[eps]
    return None


def bitmask_normal_subgroups(g: GroupStructure):
    """Normal subgroups sorted by (order, elements): the join closure, on
    bitmasks, of the normal closures of single elements."""

    def mask(elements):
        return sum(1 << int(x) for x in set(elements))

    def elements(m):
        return [x for x in range(g.size) if m >> x & 1]

    conjugates = [
        {g.mul(g.mul(x, y), g.inv[x]) for x in range(g.size)} for y in range(g.size)
    ]
    closures = sorted(
        {mask(g.subgroup_closure(c)) for c in conjugates},
        key=lambda m: (bin(m).count("1"), m),
    )
    trivial = 1 << g.identity
    subs = {trivial}
    worklist = [trivial]
    while worklist:
        h = worklist.pop()
        for c in closures:
            if c & ~h == 0:
                continue
            j = mask(g.subgroup_closure(elements(h | c)))
            if j not in subs:
                subs.add(j)
                worklist.append(j)
    return sorted(
        (frozenset(elements(m)) for m in subs), key=lambda s: (len(s), sorted(s))
    )


def closure_subgroup_split(g: GroupStructure, subs, strong: bool):
    """Witness (delta, epsilon) of the split of the normal subgroup lattice,
    as frozensets, or None: the atoms in the order of subs (normal subgroups
    sorted by (order, elements)), and for each atom epsilon, delta_eps the
    subgroup closure of the union of the normal subgroups not above epsilon
    (and of epsilon, if strong)."""
    trivial = frozenset({g.identity})
    full = frozenset(range(g.size))
    # subs is sorted by size, so every non-minimal subgroup is preceded by an
    # atom it contains; one pass against the atoms found so far suffices.
    atoms = []
    for s in subs:
        if s == trivial:
            continue
        if not any(a < s for a in atoms):
            atoms.append(s)
    for eps in atoms:
        outside = set()
        for s in subs:
            if not eps <= s:
                outside |= s
        if strong:
            outside |= eps
        delta = g.subgroup_closure(outside)
        if delta != full:
            return (delta, eps)
    return None


def loop_commutator(g: GroupStructure, x: int, y: int) -> int:
    """[x, y] = x^-1 y^-1 x y, one product at a time."""
    return g.mul(g.mul(g.inv[x], g.inv[y]), g.mul(x, y))


def loop_lower_central_series(g: GroupStructure):
    """[G, G], [G, [G, G]], ... until the series stabilizes, one commutator
    at a time."""
    full = frozenset(range(g.size))
    series = [full]
    current = full
    while True:
        comms = {loop_commutator(g, x, y) for x in range(g.size) for y in current}
        nxt = g.subgroup_closure(comms)
        series.append(nxt)
        if nxt == current:
            break
        current = nxt
    return series


def loop_direct_product(a: FiniteAlgebra, b: FiniteAlgebra):
    """The operation tables of a x b, one argument tuple at a time."""
    size = a.size * b.size
    ops = []
    for op_a in a.operations:
        op_b = b.operation(op_a.name)
        table = []
        for args in itertools.product(range(size), repeat=op_a.arity):
            xs = tuple(arg // b.size for arg in args)
            ys = tuple(arg % b.size for arg in args)
            va = table_value(op_a, xs, a.size)
            vb = table_value(op_b, ys, b.size)
            table.append(va * b.size + vb)
        ops.append(Operation(op_a.name, op_a.arity, table))
    return tuple(ops)


def pairwise_closed(parts) -> bool:
    """True iff every two of the partitions have their meet and join among them."""
    present = set(parts)
    return all(
        zip_meet(a, b) in present and pair_list_join(a, b) in present
        for a, b in itertools.combinations(present, 2)
    )


def cube_bound_tables(leq):
    """(meet, join) tables of a bounded order from k x k x k arrays, or None
    if some pair has no meet or no join."""
    L = np.array(leq, dtype=bool)
    below_count = L.sum(axis=0)
    above_count = L.sum(axis=1)
    lower = L.T[:, None, :] & L.T[None, :, :]  # lower[a,b,c] = c<=a and c<=b
    upper = L[:, None, :] & L[None, :, :]  # upper[a,b,c] = a<=c and b<=c
    meet = np.where(lower, below_count[None, None, :], -1).argmax(axis=2)
    join = np.where(upper, above_count[None, None, :], -1).argmax(axis=2)
    meet_ok = np.all(~lower | L[:, meet].transpose(1, 2, 0))
    join_ok = np.all(~upper | L[join])
    if not (meet_ok and join_ok):
        return None
    return meet.tolist(), join.tolist()


def loop_lattice_tables(leq):
    """(meet, join) tables of leq if it is a lattice order, else None:
    transitivity triple by triple, then cube_bound_tables."""
    n = len(leq)
    for a, b, c in itertools.product(range(n), repeat=3):
        if leq[a][b] and leq[b][c] and not leq[a][c]:
            return None
    return cube_bound_tables(leq)


@st.composite
def bounded_relations(draw):
    """Reflexive, antisymmetric relations on 0..n-1 with 0 below and n-1
    above every element, not closed under transitivity: many are no order."""
    n = draw(st.integers(1, 7))
    leq = [[a == b or a == 0 or b == n - 1 for b in range(n)] for a in range(n)]
    pair = st.sampled_from([(False, False), (True, False), (False, True)])
    for a, b in itertools.combinations(range(1, n - 1), 2):
        leq[a][b], leq[b][a] = draw(pair)
    return leq


def cover_irreducibles(leq):
    """(join-irreducibles, meet-irreducibles) of a lattice order, ascending:
    the elements with one lower, or one upper, cover, the covers being
    strict & ~(strict @ strict)."""
    L = np.array(leq, dtype=bool)
    strict = L & ~np.eye(len(L), dtype=bool)
    covers = strict & ~(strict @ strict)
    return (
        np.flatnonzero(covers.sum(axis=0) == 1).tolist(),
        np.flatnonzero(covers.sum(axis=1) == 1).tolist(),
    )


def brute_has_split(lat: FiniteLattice, strong: bool) -> bool:
    """Exhaustive search over all (delta, epsilon) pairs."""
    n = lat.size
    for delta in range(n):
        if delta == lat.top:
            continue
        for eps in range(n):
            if eps == lat.bottom:
                continue
            if strong and not lat.leq[eps][delta]:
                continue
            if all(lat.leq[a][delta] or lat.leq[eps][a] for a in range(n)):
                return True
    return False


def loop_split_witness(lat: FiniteLattice, strong: bool):
    """The split witness by a join fold for every epsilon, in the witness
    order: epsilon with the least down-set first, ties by element index, and
    delta_eps, the least admissible delta for it."""
    if lat.bottom == lat.top:
        return None
    n = lat.size
    leq, join = lat.leq.tolist(), lat.join.tolist()
    below = [sum(col) for col in zip(*leq)]
    for eps in sorted((e for e in range(n) if e != lat.bottom), key=lambda e: (below[e], e)):
        # every alpha not above eps must sit below delta, so the least
        # admissible delta is the join of all such alpha
        need = lat.bottom
        for alpha in range(n):
            if not leq[eps][alpha]:
                need = join[need][alpha]
        if strong:
            need = join[need][eps]
        if need != lat.top:
            return SplitWitness(delta=need, epsilon=eps)
    return None


def loop_witness_family_refusal(base: FiniteAlgebra, delta, epsilon, a: int, b: int):
    """The message with which the witness family refuses (delta, epsilon,
    a, b) on base, or None: each check a loop over all of Con(base), in the
    order of WitnessFamily, whose checks read the principal congruences."""
    congs = base.all_congruences()
    if epsilon not in congs or delta not in congs:
        return "delta/epsilon are not congruences of base"
    if epsilon.is_identity() or delta.is_full():
        return "witness requires 0 < epsilon and delta < 1"
    if not loop_refines(epsilon, delta):
        return "witness requires epsilon <= delta"
    if any(t != epsilon and not t.is_identity() and loop_refines(t, epsilon) for t in congs):
        return "epsilon must be an atom of the lattice"
    if not all(loop_refines(alpha, delta) or loop_refines(epsilon, alpha) for alpha in congs):
        return "delta/epsilon do not witness a strong split"
    if a == b or epsilon.block_id[a] != epsilon.block_id[b]:
        return "(a, b) must be a non-diagonal epsilon pair"
    return None


def loop_covers_order(n, covers):
    """The order generated by a cover list, closed triple by triple."""
    leq = [[a == b for b in range(n)] for a in range(n)]
    for a, b in covers:
        leq[a][b] = True
    changed = True
    while changed:
        changed = False
        for a, b, c in itertools.product(range(n), repeat=3):
            if leq[a][b] and leq[b][c] and not leq[a][c]:
                leq[a][c] = True
                changed = True
    return leq


def loop_is_modular(lat: FiniteLattice) -> bool:
    """a <= c implies a v (b ^ c) = (a v b) ^ c, triple by triple."""
    leq, meet, join = lat.leq.tolist(), lat.meet.tolist(), lat.join.tolist()
    for a, b, c in itertools.product(range(lat.size), repeat=3):
        if leq[a][c] and join[a][meet[b][c]] != meet[join[a][b]][c]:
            return False
    return True


def lattice_from_covers(n: int, covers) -> FiniteLattice:
    """Build a lattice from a cover list [(lower, upper), ...]."""
    leq = np.eye(n, dtype=bool)
    pairs = np.array(covers, dtype=np.intp).reshape(-1, 2)
    leq[pairs[:, 0], pairs[:, 1]] = True
    # leq is reflexive, so squaring it until it stops growing closes it
    while ((closed := leq @ leq) & ~leq).any():
        leq = closed
    return FiniteLattice(leq)


def witness_is_valid(l: FiniteLattice, w: SplitWitness, strong: bool) -> bool:
    """Whether (delta, epsilon) = w splits l: 0 < epsilon, delta < 1, every
    element is below delta or above epsilon, and epsilon <= delta if strong."""
    if w.epsilon == l.bottom or w.delta == l.top:
        return False
    if strong and not l.leq[w.epsilon, w.delta]:
        return False
    return bool((l.leq[:, w.delta] | l.leq[w.epsilon]).all())


def m3() -> FiniteLattice:
    """Diamond: three incomparable atoms between bottom and top."""
    return lattice_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def n5() -> FiniteLattice:
    """Pentagon: chain 0 < 1 < 2 < 4 with 3 incomparable to 1 and 2."""
    return lattice_from_covers(5, [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)])


def small_lattice_corpus():
    """Named lattices with at most 8 elements (chains, Booleans, M3, N5, products)."""
    return {
        "chain2": chain(2),
        "chain3": chain(3),
        "chain4": chain(4),
        "chain5": chain(5),
        "chain6": chain(6),
        "chain7": chain(7),
        "chain8": chain(8),
        "bool2": lattice_product([chain(2), chain(2)]),
        "bool3": lattice_product([chain(2), chain(2), chain(2)]),
        "m3": m3(),
        "n5": n5(),
        "chain2xchain3": lattice_product([chain(2), chain(3)]),
        "chain2xchain4": lattice_product([chain(2), chain(4)]),
    }


def table_key(f: FiniteFunction):
    """The table of f as a tuple of ints, the key of the tuple sort."""
    return tuple(f.table.tolist())


def superposition_closure(gens, arity, universe_size):
    """Fixed-arity clone part oracle: close the arity-n projections and the
    n-ary liftings under g(h_1, ..., h_m) with every h_i n-ary."""
    current = {
        FiniteFunction.projection(universe_size, arity, i) for i in range(arity)
    }
    gens = list(gens)
    for g in gens:
        if g.arity == 0:
            current.add(FiniteFunction.constant(universe_size, int(g.table[0]), arity))
        if g.arity == arity:
            current.add(g)
    changed = True
    while changed:
        changed = False
        for g in gens:
            if g.arity == 0:
                continue
            for hs in itertools.product(sorted(current, key=table_key), repeat=g.arity):
                table = []
                for xs in itertools.product(range(universe_size), repeat=arity):
                    args = [h(*xs) for h in hs]
                    table.append(g(*args))
                cand = FiniteFunction(universe_size, arity, tuple(table))
                if cand not in current:
                    current.add(cand)
                    changed = True
    return current


def loop_arity_part(gens, size: int, arity: int, count: int, member_cap: int):
    """The k-ary part (k = arity) of the clone generated by gens (of arity
    >= 1), as rows in the order found, by semi-naive rounds one head at a
    time: for each head tuple of the known members, the generator is applied
    with a slice of members as its last argument, which must be new unless
    an earlier argument already is.  Raises BudgetExceededError once count
    plus the members found exceed member_cap, checked per member."""
    n = size**arity
    dtype = np.min_scalar_type(size - 1)
    members = {}  # the bytes of each member's value array, in order found
    void = np.dtype((np.void, n * dtype.itemsize))

    def add(block):
        for key in block.view(void).ravel().tolist():
            if key not in members:
                members[key] = None
                if count + len(members) > member_cap:
                    raise BudgetExceededError(
                        f"clone closure exceeded member cap {member_cap}"
                    )

    start = _grid((size,) * arity) + [g.table for g in gens if g.arity == arity]
    add(np.stack(start).astype(dtype))
    done = 0
    while True:
        known = len(members)
        rows = np.frombuffer(b"".join(members), dtype=dtype).reshape(known, n)
        if done == known:
            return rows
        rows = rows.astype(np.intp)
        for g in gens:
            for head in itertools.product(range(known), repeat=g.arity - 1):
                first = 0 if head and max(head) >= done else done
                add(g.table[_flat_index([rows[i] for i in head] + [rows[first:]], size)])
        done = known


def fixpoint_closure(gens, max_arity, universe_size):
    """The clone closure by fixpoint under rotation, swap, diagonal minor,
    dummy argument and first-argument composition, every intermediate kept
    within max_arity.  It can miss members whose derivations pass through
    higher arities, so its parts are subsets of the exact ones."""
    gens = [
        FiniteFunction.constant(universe_size, int(f.table[0])) if f.arity == 0 else f
        for f in gens
    ]
    members = set()
    worklist = []

    def add(f):
        if 1 <= f.arity <= max_arity and f not in members:
            members.add(f)
            worklist.append(f)

    for k in range(1, max_arity + 1):
        for i in range(k):
            add(FiniteFunction.projection(universe_size, k, i))
    for f in gens:
        add(f)
    while worklist:
        f = worklist.pop()
        add(rotate_args(f))
        add(swap_args(f))
        add(diagonal_minor(f))
        if f.arity + 1 <= max_arity:
            add(add_dummy_arg(f))
        for g in list(members):
            if f.arity + g.arity - 1 <= max_arity:
                add(compose_first(f, g))
            if g.arity + f.arity - 1 <= max_arity:
                add(compose_first(g, f))
    return members


def full_width_members(table):
    """The members of a clones._SimsTable, each level's broadcast product
    taken over every column."""
    count = table.entries.shape[1]
    rows = identity = np.full((1, count), table.g.identity, dtype=table.entries.dtype)
    for i in np.unique(table.level):
        factors = np.concatenate([identity, table.entries[table.level == i]])
        rows = table.g.mul_table[rows[:, None], factors[None]].reshape(-1, count)
    return rows


def loop_preserves_relation(f, rel):
    """Relation preservation by applying f to every choice of rows of rel."""
    member = set(rel.tuples)
    if f.arity == 0:
        v = int(f.table[0])
        return (v, v, v, v) in member
    for rows in itertools.product(rel.tuples, repeat=f.arity):
        image = tuple(f(*(row[j] for row in rows)) for j in range(4))
        if image not in member:
            return False
    return True


def loop_congruence_preserving(f, congs):
    """Congruence preservation by one pass over the argument tuples per
    congruence, keeping the value block of the first tuple of each block
    signature."""
    s = f.universe_size
    for alpha in congs:
        seen = {}
        for args in itertools.product(range(s), repeat=f.arity):
            sig = tuple(alpha.block_id[a] for a in args)
            v = alpha.block_id[f(*args)]
            if seen.setdefault(sig, v) != v:
                return False
    return True


def loop_comp_fragment(alg, max_arity):
    """Comp(A) up to max_arity by checking every candidate table, one at a
    time, in lexicographic order."""
    s = alg.size
    congs = alg.all_congruences()
    parts = []
    for arity in range(1, max_arity + 1):
        candidates = (
            FiniteFunction(s, arity, table)
            for table in itertools.product(range(s), repeat=s**arity)
        )
        parts.append(
            tuple(f for f in candidates if loop_congruence_preserving(f, congs))
        )
    return tuple(parts)


def brute_group_axioms(table):
    """Group axiom oracle for an n x n Cayley table, element by element:
    (identity, inverses) or the message of the first failure, looking for the
    identity, then the inverses, then associativity in lexicographic order."""
    n = len(table)
    identity = next(
        (e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))),
        None,
    )
    if identity is None:
        return "no identity for the binary operation"
    inv = []
    for x in range(n):
        y = next(
            (y for y in range(n) if table[x][y] == identity == table[y][x]), None
        )
        if y is None:
            return f"element {x} has no inverse"
        inv.append(y)
    for x, y, z in itertools.product(range(n), repeat=3):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return f"associativity fails at ({x},{y},{z})"
    return identity, tuple(inv)


def relabeled_cayley(table, perm):
    """The Cayley table of the same group on the elements renamed x -> perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out


def intercalates(table, identity):
    """The 2 x 2 Latin subsquares (r1, r2, c1, c2) of a Cayley table, with
    r1 < r2 and c1 < c2, that avoid the identity's row, column and value.
    Swapping the two values of one keeps the unit and the inverses."""
    n = len(table)
    rest = [x for x in range(n) if x != identity]
    return [
        (r1, r2, c1, c2)
        for r1, r2 in itertools.combinations(rest, 2)
        for c1, c2 in itertools.combinations(rest, 2)
        if table[r1][c1] == table[r2][c2] != identity
        and table[r1][c2] == table[r2][c1] != identity
    ]


def d4_cayley():
    """D4 as the symmetries of a square, (p*q)(x) = p(q(x))."""
    r, f = (1, 2, 3, 0), (0, 3, 2, 1)
    perms = {(0, 1, 2, 3)}
    while True:
        more = perms | {tuple(p[q[x]] for x in range(4)) for p in perms for q in (r, f)}
        if more == perms:
            break
        perms = more
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(4))] for q in perms] for p in perms]


def q8_times_z3_cayley():
    """Q8 x Z3 (order 24, nilpotent, not a p-group) on (q, z) -> 3q + z."""
    q = GroupStructure(quaternion_group()).mul
    return [
        [3 * q(a // 3, b // 3) + (a + b) % 3 for b in range(24)] for a in range(24)
    ]


# ---------------------------------------------------------------------------
# tables over A^n, one argument tuple at a time (the library builds them on
# one argument grid)


def loop_quotient(alg: FiniteAlgebra, theta: Partition):
    """The operation tables of alg/theta on block indices, each block
    represented by its least member."""
    reps = [block[0] for block in theta.blocks()]
    ops = []
    for op in alg.operations:
        table = []
        for args in itertools.product(range(theta.num_blocks), repeat=op.arity):
            lifted = tuple(reps[i] for i in args)
            table.append(theta.block_id[table_value(op, lifted, alg.size)])
        ops.append(Operation(op.name, op.arity, table))
    return tuple(ops)


def loop_subalgebra_on(alg: FiniteAlgebra, elements):
    """The operation tables of alg restricted to the sorted elements, or the
    message naming the first argument tuple whose value leaves them."""
    elems = sorted(elements)
    index = {x: i for i, x in enumerate(elems)}
    ops = []
    for op in alg.operations:
        table = []
        for args in itertools.product(elems, repeat=op.arity):
            v = table_value(op, args, alg.size)
            if v not in index:
                return f"subset not closed under {op.name!r} at {args}"
            table.append(index[v])
        ops.append(Operation(op.name, op.arity, table))
    return tuple(ops)


def loop_coset_partition(g: GroupStructure, subgroup) -> Partition:
    """Left cosets xH, each labelled by the first x that reaches it."""
    labels = [None] * g.size
    for x in range(g.size):
        if labels[x] is None:
            for h in subgroup:
                labels[g.mul(x, h)] = x
    return Partition(labels)


def loop_table(size: int, arity: int, value):
    """The table of (x1, ..., xn) |-> value(args), in lexicographic order."""
    return tuple(value(args) for args in itertools.product(range(size), repeat=arity))


def loop_compose_first(f: FiniteFunction, g: FiniteFunction):
    m = g.arity
    return loop_table(
        f.universe_size,
        m + f.arity - 1,
        lambda args: f(g(*args[:m]), *args[m:]),
    )


def loop_tensor_function(c: FiniteFunction, d: FiniteFunction):
    sb = d.universe_size
    return loop_table(
        c.universe_size * sb,
        c.arity,
        lambda args: c(*(a // sb for a in args)) * sb + d(*(a % sb for a in args)),
    )


def sorted_parts(by_arity, max_arity: int):
    """Clone fragment parts by the tuple sort: for each arity 1..max_arity,
    the functions of by_arity[arity] in the order of their tables."""
    return tuple(
        tuple(sorted(by_arity.get(k, ()), key=table_key))
        for k in range(1, max_arity + 1)
    )


def loop_tensor_fragments(cf, df):
    """The members of the tensor of two fragments, pair by pair: c (x) d for
    every equal-arity pair of members, sorted by the tuple sort."""
    size = cf.universe_size * df.universe_size
    by_arity = {
        k: {
            FiniteFunction(size, k, loop_tensor_function(c, d))
            for c in cf.arity_part(k)
            for d in df.arity_part(k)
        }
        for k in range(1, cf.max_arity + 1)
    }
    return sorted_parts(by_arity, cf.max_arity)


def loop_malcev_term(ternary):
    """The first function by the tuple sort among the ternary functions that
    satisfies the Mal'cev identities, checked pair by pair, or None."""
    return next(
        (d for d in sorted_parts({3: ternary}, 3)[2] if loop_is_malcev_function(d)), None
    )


def loop_group_malcev_function(g: GroupStructure):
    return loop_table(g.size, 3, lambda t: g.mul(g.mul(t[0], g.inv[t[1]]), t[2]))


def loop_is_malcev_function(d: FiniteFunction) -> bool:
    return d.arity == 3 and all(
        d(x, y, y) == x and d(x, x, y) == y
        for x in range(d.universe_size)
        for y in range(d.universe_size)
    )


def loop_witness_function(fam, n: int):
    """The n-ary family member: a where some argument is delta-related to a."""
    marked = fam.marked_class
    return loop_table(
        fam.base.size, n, lambda args: fam.a if any(x in marked for x in args) else fam.b
    )


def loop_rho_tuples(epsilon: Partition, d: FiniteFunction):
    s = d.universe_size
    return [
        (x1, x2, x3, d(x1, x2, x3))
        for x1 in range(s)
        for x2 in range(s)
        if epsilon.same(x1, x2)
        for x3 in range(s)
    ]


def loop_commutator_witness(fam, d: FiniteFunction, k: int):
    """The table of w (see build_commutator_witness), or the message of the
    first failed absorption or nontriviality check, in loop order."""
    s = fam.base.size
    f = fam.function(k + 1)
    a, b = fam.a, fam.b

    def w(*args):
        last = args[-1]
        return d(f(*(d(x, last, a) for x in args[:-1])), a, last)

    table = loop_table(s, k + 2, lambda args: w(*args))
    for j in range(k + 1):
        for partial in itertools.product(range(s), repeat=k):
            for z in range(s):
                args = list(partial[:j]) + [z] + list(partial[j:]) + [z]
                got = w(*args)
                if got != z:
                    return f"absorption fails at position {j}: w{tuple(args)} = {got}"
    for c in range(s):
        if c not in fam.marked_class:
            got = w(*((c,) * (k + 1) + (a,)))
            if got != b:
                return f"nontriviality fails: w({c},...,{c},{a}) = {got}, expected {b}"
    return table


def loop_lattice_product(ls):
    """The product order on row-major coordinate tuples, pair by pair."""
    coords = list(itertools.product(*(range(l.size) for l in ls)))
    return [
        [all(l.leq[xa][xb] for l, xa, xb in zip(ls, a, b)) for b in coords]
        for a in coords
    ]


@st.composite
def small_groups(draw):
    """A group of 1 to 4 elements on randomly renamed elements."""
    from congrex.groups import group_from_cayley, parse_group_spec

    spec = draw(st.sampled_from(("Z1", "Z2", "Z3", "Z4", "Z2xZ2")))
    table = GroupStructure(parse_group_spec(spec)).mul_table.tolist()
    perm = draw(st.permutations(range(len(table))))
    return group_from_cayley(relabeled_cayley(table, perm), name=spec)


@st.composite
def malcev_functions(draw, size):
    """A random ternary function with d(x, y, y) = x and d(x, x, y) = y."""
    table = draw(st.lists(st.integers(0, size - 1), min_size=size**3, max_size=size**3))
    for x, y, z in itertools.product(range(size), repeat=3):
        if y == z:
            table[_flat_index((x, y, z), size)] = x
        elif x == y:
            table[_flat_index((x, y, z), size)] = z
    return FiniteFunction(size, 3, tuple(table))
