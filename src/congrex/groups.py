"""Finite groups as table algebras: construction, axioms, nilpotency, Sylow.

Every group built here carries the one signature (+ / 2, - / 1, 0 / 0), so
any two of them, abelian or not, have a direct product.
"""

from __future__ import annotations

import functools
import itertools
import re

import numpy as np

from .algebra import DEFAULT_BUDGET, FiniteAlgebra, Operation, Partition, _flat_index, _grid
from .algebra import direct_product, principal_split, table_array
from .errors import InvalidInputError, NotAGroupError


# ---------------------------------------------------------------------------
# construction


def cyclic_group(n: int) -> FiniteAlgebra:
    if n < 1:
        raise InvalidInputError("cyclic group order must be positive")
    x, y = _grid((n, n))
    add = (x + y) % n
    neg = -np.arange(n) % n
    return FiniteAlgebra(
        n,
        [Operation("+", 2, add), Operation("-", 1, neg), Operation("0", 0, [0])],
        name=f"Z{n}",
    )


def group_from_cayley(table, name: str = "") -> FiniteAlgebra:
    """Build a group algebra from an n x n Cayley table; checks the axioms.

    The algebra keeps the GroupStructure that checked it, so the axioms
    are not checked again (see GroupStructure.of)."""
    n = len(table)
    try:
        mul = Operation("+", 2, table_array([v for row in table for v in row], n, 2))
    except InvalidInputError as exc:
        raise NotAGroupError("Cayley table is not square over 0..n-1") from exc
    g = GroupStructure(FiniteAlgebra(n, [mul]))
    alg = FiniteAlgebra(
        n, [mul, Operation("-", 1, g.inv), Operation("0", 0, [g.identity])], name=name
    )
    g.alg = alg
    alg.group_structure = g
    return alg


def quaternion_group() -> FiniteAlgebra:
    """Q8 with elements 0..7 = 1, -1, i, -i, j, -j, k, -k, multiplied as
    quaternions: the Hamilton product of their coordinates over 1, i, j, k."""
    units = np.kron(np.eye(4, dtype=int), [[1], [-1]])  # row x is element x
    (a, b, c, d), (e, f, g, h) = units.T[:, :, None], units.T[:, None, :]
    product = np.stack(
        [
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        ],
        axis=-1,
    )
    # a unit is +-1 at one coordinate: its axis, then its sign
    table = 2 * np.abs(product).argmax(axis=-1) + (product.sum(axis=-1) < 0)
    return group_from_cayley(table.tolist(), name="Q8")


def symmetric_group(n: int) -> FiniteAlgebra:
    """S_n on lexicographically ordered permutation tuples; (p*q)(x)=p(q(x))."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms
    ]
    return group_from_cayley(table, name=f"S{n}")


_Z_TOKEN = re.compile(r"^Z(\d+)$")
_Z_POWER_TOKEN = re.compile(r"^Z\((\d+)\^(\d+)\)$")


def parse_group_spec(spec: str) -> FiniteAlgebra:
    """Parse shortcut strings like "Z4", "Z2xZ2", "Q8", "S3", "Z(2^3)xZ(2^1)"."""
    spec = spec.strip()
    factors = []
    for token in spec.split("x"):
        token = token.strip()
        if token == "Q8":
            factors.append(quaternion_group())
            continue
        if token.startswith("S") and token[1:].isdigit():
            n = int(token[1:])
            if not (1 <= n <= 5):
                raise InvalidInputError(f"symmetric group out of supported range: {token}")
            factors.append(symmetric_group(n))
            continue
        m = _Z_TOKEN.match(token)
        if m:
            factors.append(cyclic_group(int(m.group(1))))
            continue
        m = _Z_POWER_TOKEN.match(token)
        if m:
            factors.append(cyclic_group(int(m.group(1)) ** int(m.group(2))))
            continue
        raise InvalidInputError(f"cannot parse group token {token!r} in {spec!r}")
    prod = factors[0]
    for f in factors[1:]:
        prod = direct_product(prod, f)
    prod.name = spec
    return prod


def abelian_group(p: int, exponents) -> FiniteAlgebra:
    """The direct product of Z_{p^m} for m in exponents."""
    check_prime(p)
    exponents = list(exponents)
    if not exponents or any(m < 1 for m in exponents):
        raise InvalidInputError("exponents must be positive")
    if any(a < b for a, b in zip(exponents, exponents[1:])):
        raise InvalidInputError("exponents must be non-increasing")
    prod = cyclic_group(p ** exponents[0])
    for m in exponents[1:]:
        prod = direct_product(prod, cyclic_group(p**m))
    prod.name = "x".join(f"Z{p**m}" for m in exponents)
    return prod


# ---------------------------------------------------------------------------
# structure discovery


class GroupStructure:
    """Multiplication/inverse/identity extracted from a group algebra."""

    def __init__(self, alg: FiniteAlgebra):
        self.alg = alg
        self.size = alg.size
        binary = [op for op in alg.operations if op.arity == 2]
        if not binary:
            raise NotAGroupError("algebra has no binary operation")
        n = alg.size
        m = self.mul_table = binary[0].table.reshape(n, n)
        units = np.flatnonzero(
            (m == np.arange(n)).all(axis=1) & (m.T == np.arange(n)).all(axis=1)
        )
        if len(units) == 0:
            raise NotAGroupError("no identity for the binary operation")
        self.identity = int(units[0])
        # inverse of x: the first y with x*y = y*x = identity
        two_sided = (m == self.identity) & (m.T == self.identity)
        has_inverse = two_sided.any(axis=1)
        if not has_inverse.all():
            x = int(np.argmin(has_inverse))
            raise NotAGroupError(f"element {x} has no inverse")
        self.inv = table_array(two_sided.argmax(axis=1), n, 1)
        # Light's test: the a with (x*a)*y = x*(a*y) for all x, y are closed
        # under *, so it suffices to check generators, taken greedily.  A
        # group needs at most log2 n of them; needing more shows a failure.
        gens, member = [], frozenset({self.identity})
        while len(member) < n and len(gens) < n.bit_length() - 1:
            gens.append(min(set(range(n)) - member))
            member = self.subgroup_closure([*member, gens[-1]])
        self.generators = tuple(gens)
        if len(member) == n and (m[m[:, gens]] == m[:, m[gens]]).all():
            return
        # the first failing (x*y)*z against x*(y*z), one x at a time
        for x in range(n):
            bad = np.argwhere(m[m[x]] != m[x][m])
            if len(bad):
                y, z = (int(v) for v in bad[0])
                raise NotAGroupError(f"associativity fails at ({x},{y},{z})")

    @staticmethod
    def of(alg: FiniteAlgebra) -> "GroupStructure":
        """The structure alg keeps, built on first use; an algebra that is
        not a group raises NotAGroupError each time."""
        if alg.group_structure is None:
            alg.group_structure = GroupStructure(alg)
        return alg.group_structure

    @functools.cached_property
    def reduct(self) -> FiniteAlgebra:
        """(G; *), without the algebra's other operations: a finite group's
        inverse is a power, so its congruences are the group's."""
        return FiniteAlgebra(self.size, [Operation("*", 2, self.mul_table.ravel())])

    def mul(self, x: int, y: int) -> int:
        return int(self.mul_table[x, y])

    def extra_operations(self, alg: FiniteAlgebra):
        """The operations of alg, in order, other than this group's
        multiplication, inverse map and identity."""
        tables = {2: self.mul_table.ravel(), 1: self.inv, 0: [self.identity]}
        return [op for op in alg.operations if not np.array_equal(op.table, tables.get(op.arity))]

    def subgroup_closure(self, elements) -> frozenset:
        """Subgroup generated by the given elements (identity always included)."""
        member = np.zeros(self.size, dtype=bool)
        member[[self.identity, *elements]] = True
        while True:
            cur = np.flatnonzero(member)
            member[self.mul_table[np.ix_(cur, cur)]] = True
            if member.sum() == len(cur):
                return frozenset(cur.tolist())

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = self.mul(x, g)
            k += 1
        return k


def is_group_algebra(alg: FiniteAlgebra) -> bool:
    try:
        GroupStructure.of(alg)
        return True
    except NotAGroupError:
        return False


# ---------------------------------------------------------------------------
# nilpotency and Sylow decomposition


def lower_central_series(g: GroupStructure):
    """[G, G], [G, [G, G]], ... until the series stabilizes."""
    m, inv = g.mul_table, g.inv
    full = frozenset(range(g.size))
    series = [full]
    current = full
    while True:
        # every commutator [x, y] = x^-1 y^-1 x y with x in G, y in current
        cur = np.array(sorted(current))
        comms = m[m[inv[:, None], inv[cur]], m[:, cur]]
        nxt = g.subgroup_closure(set(comms.ravel().tolist()))
        series.append(nxt)
        if nxt == current:
            break
        current = nxt
    return series


def is_nilpotent_group(group) -> bool:
    """True iff the lower central series reaches the trivial subgroup.  A
    group of prime-power order is nilpotent (its centre is not trivial, by
    the class equation), so for it no series is computed."""
    g = _as_structure(group)
    if len(prime_factors(g.size)) <= 1:
        return True
    return lower_central_series(g)[-1] == frozenset({g.identity})


def as_group_algebra(group) -> FiniteAlgebra:
    """The algebra of a group given as an algebra or a spec."""
    if isinstance(group, FiniteAlgebra):
        return group
    if isinstance(group, str):
        return parse_group_spec(group)
    raise InvalidInputError(f"not a group input: {group!r}")


def _as_structure(group) -> GroupStructure:
    if isinstance(group, GroupStructure):
        return group
    return GroupStructure.of(as_group_algebra(group))


def prime_factors(n: int):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def check_prime(p: int) -> None:
    if p < 2 or prime_factors(p) != {p: 1}:
        raise InvalidInputError(f"{p} is not prime")


def subalgebra_on(alg: FiniteAlgebra, elements, name: str = "") -> FiniteAlgebra:
    """Restrict all operations of alg to a closed subset, re-indexed sorted."""
    elems = np.array(sorted(elements), dtype=np.intp)
    k = len(elems)
    if k and not (0 <= elems[0] and elems[-1] < alg.size):
        raise InvalidInputError("element out of range")
    index = np.full(alg.size, -1)
    index[elems] = np.arange(k)
    ops = []
    for op in alg.operations:
        args = [elems[x] for x in _grid((k,) * op.arity)]
        table = np.ravel(index[op.table[_flat_index(args, alg.size)]])
        bad = np.flatnonzero(table < 0)
        if len(bad):
            at = tuple(int(x[bad[0]]) for x in args)
            raise InvalidInputError(f"subset not closed under {op.name!r} at {at}")
        ops.append(Operation(op.name, op.arity, table))
    return FiniteAlgebra(k, ops, name=name)


def sylow_decomposition(group):
    """For nilpotent G, the list of (p, Sylow p-subgroup as a group algebra).

    G is nilpotent exactly when, for every prime p, its p-elements number
    the p-part of |G|: then they form its only Sylow p-subgroup, which is
    therefore normal, and G is the direct product of these subgroups.
    """
    g = _as_structure(group)
    alg = g.alg
    out = []
    for p, k in sorted(prime_factors(g.size).items()):
        members = [x for x in range(g.size) if _is_p_power(g.element_order(x), p)]
        if len(members) != p**k:
            raise InvalidInputError("Sylow decomposition requires a nilpotent group")
        sub = subalgebra_on(alg, members, name=f"{alg.name or 'G'}_p{p}")
        out.append((p, sub))
    return out


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


# ---------------------------------------------------------------------------
# normal subgroup lattice


def normal_subgroups(group, budget: int | None = DEFAULT_BUDGET):
    """All normal subgroups, as frozensets sorted by (order, elements): the
    classes of the identity in the congruences of GroupStructure.reduct,
    whose enumeration ``budget`` bounds (None: no limit)."""
    g = _as_structure(group)
    subs = _identity_classes(g, g.reduct.congruence_rows(budget))
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def _identity_classes(g: GroupStructure, rows):
    """The class of the identity, a frozenset, in each least-member row."""
    classes = rows == rows[:, [g.identity]]
    return [frozenset(np.flatnonzero(c).tolist()) for c in classes]


def coset_partition(group, subgroup) -> Partition:
    """The congruence of the group given by the cosets of a normal subgroup."""
    g = _as_structure(group)
    # each x is labelled by the least member of its coset xH
    return Partition(g.mul_table[:, sorted(subgroup)].min(axis=1).tolist())


def split_normal_subgroup_lattice(g: GroupStructure, budget: int | None = DEFAULT_BUDGET):
    """(strong, weak): witnesses (delta, epsilon) of the strong split and of
    the split of the normal subgroup lattice as frozensets, each or None:
    principal_split on the principal congruences of the reduct (under
    budget; None: no limit), each read as the class of the identity, so the
    atoms come in the order of the sorted congruence list, as on any
    algebra."""
    return tuple(
        None if found is None else tuple(_identity_classes(g, np.stack(found)))
        for found in principal_split(*g.reduct._distinct_principal_rows(budget))
    )
