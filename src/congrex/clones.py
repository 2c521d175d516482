"""Bounded-arity clone fragments on a finite universe.

Functions are flat tables; a fragment holds every member of a clone up to a
fixed arity bound.  Closure is computed under the classical function-algebra
operations: argument rotation, swap of the first two arguments, the diagonal
minor, appending an inessential argument, and the binary composition that
substitutes one function into the first argument of another.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import FiniteAlgebra, Partition, _flat_index
from .errors import BudgetExceededError, InvalidInputError

DEFAULT_MEMBER_CAP = 10**6
DEFAULT_COMP_BUDGET = 10**7


@dataclass(frozen=True)
class FiniteFunction:
    """An m-ary function on {0..universe_size-1} as a flat row-major table."""

    universe_size: int
    arity: int
    table: tuple

    def __post_init__(self):
        if len(self.table) != self.universe_size**self.arity:
            raise InvalidInputError(
                f"table length {len(self.table)} != {self.universe_size}^{self.arity}"
            )
        if any(not (0 <= v < self.universe_size) for v in self.table):
            raise InvalidInputError("table entry out of range")

    def __call__(self, *args) -> int:
        if len(args) != self.arity:
            raise InvalidInputError(f"arity {self.arity}, got {len(args)} arguments")
        return self.table[_flat_index(args, self.universe_size)]

    @staticmethod
    def projection(universe_size: int, arity: int, index: int) -> "FiniteFunction":
        if not (0 <= index < arity):
            raise InvalidInputError("projection index out of range")
        table = [
            args[index]
            for args in itertools.product(range(universe_size), repeat=arity)
        ]
        return FiniteFunction(universe_size, arity, tuple(table))

    @staticmethod
    def constant(universe_size: int, value: int, arity: int = 1) -> "FiniteFunction":
        return FiniteFunction(
            universe_size, arity, (value,) * (universe_size**arity)
        )

    @staticmethod
    def from_operation(universe_size: int, op) -> "FiniteFunction":
        return FiniteFunction(universe_size, op.arity, tuple(op.table))

    def is_projection(self) -> bool:
        return any(
            self == FiniteFunction.projection(self.universe_size, self.arity, i)
            for i in range(self.arity)
        )

    def to_json_dict(self) -> dict:
        return {"arity": self.arity, "table": list(self.table)}


def _retabulate(f: FiniteFunction, arity: int, argmap) -> FiniteFunction:
    """New function of the given arity whose args feed f via argmap(args)."""
    s = f.universe_size
    table = [
        f.table[_flat_index(argmap(args), s)]
        for args in itertools.product(range(s), repeat=arity)
    ]
    return FiniteFunction(s, arity, tuple(table))


def rotate_args(f: FiniteFunction) -> FiniteFunction:
    """zeta: (x1,...,xn) -> f(x2,...,xn,x1); identity on unary functions."""
    if f.arity == 0:
        raise InvalidInputError("rotation undefined for nullary functions")
    if f.arity == 1:
        return f
    return _retabulate(f, f.arity, lambda a: a[1:] + (a[0],))


def swap_args(f: FiniteFunction) -> FiniteFunction:
    """tau: swap the first two arguments; identity on unary functions."""
    if f.arity == 0:
        raise InvalidInputError("swap undefined for nullary functions")
    if f.arity == 1:
        return f
    return _retabulate(f, f.arity, lambda a: (a[1], a[0]) + a[2:])


def diagonal_minor(f: FiniteFunction) -> FiniteFunction:
    """delta: identify the first two arguments; identity on unary functions."""
    if f.arity == 0:
        raise InvalidInputError("minor undefined for nullary functions")
    if f.arity == 1:
        return f
    return _retabulate(f, f.arity - 1, lambda a: (a[0],) + a)


def add_dummy_arg(f: FiniteFunction) -> FiniteFunction:
    """nabla: append one inessential argument."""
    return _retabulate(f, f.arity + 1, lambda a: a[:-1])


def compose_first(f: FiniteFunction, g: FiniteFunction) -> FiniteFunction:
    """f o g: substitute g into the first argument of f, remaining appended.

    (f o g)(x1..xm, y2..yn) = f(g(x1..xm), y2..yn); arity m + n - 1.
    """
    if f.universe_size != g.universe_size:
        raise InvalidInputError("universe size mismatch")
    if f.arity == 0:
        raise InvalidInputError("composition needs f of arity >= 1")
    s = f.universe_size
    m, n = g.arity, f.arity
    table = []
    for args in itertools.product(range(s), repeat=m + n - 1):
        head = g.table[_flat_index(args[:m], s)]
        table.append(f.table[_flat_index((head,) + args[m:], s)])
    return FiniteFunction(s, m + n - 1, tuple(table))


@dataclass(frozen=True)
class CloneFragment:
    """All members of a clone with arity between 1 and max_arity."""

    universe_size: int
    max_arity: int
    members: tuple  # tuple over arities 1..max_arity of sorted function tuples

    @staticmethod
    def from_sets(universe_size: int, max_arity: int, by_arity) -> "CloneFragment":
        members = tuple(
            tuple(sorted(by_arity.get(k, ()), key=lambda f: f.table))
            for k in range(1, max_arity + 1)
        )
        return CloneFragment(universe_size, max_arity, members)

    def arity_part(self, arity: int):
        if not (1 <= arity <= self.max_arity):
            raise InvalidInputError(f"arity {arity} outside fragment bound")
        return self.members[arity - 1]

    def __contains__(self, f: FiniteFunction) -> bool:
        if not (1 <= f.arity <= self.max_arity):
            return False
        return f in set(self.members[f.arity - 1])

    def member_count(self) -> int:
        return sum(len(part) for part in self.members)

    def function_set(self):
        return {f for part in self.members for f in part}

    def to_json_dict(self) -> dict:
        return {
            "universe_size": self.universe_size,
            "max_arity": self.max_arity,
            "members": {
                str(k): [list(f.table) for f in self.members[k - 1]]
                for k in range(1, self.max_arity + 1)
            },
        }


def _lift_generator(f: FiniteFunction) -> FiniteFunction:
    # nullary generators enter the closure as unary constants
    if f.arity == 0:
        return FiniteFunction.constant(f.universe_size, f.table[0])
    return f


def clone_closure(
    gens,
    max_arity: int,
    universe_size: int | None = None,
    member_cap: int = DEFAULT_MEMBER_CAP,
    working_arity: int | None = None,
) -> CloneFragment:
    """Least set containing projections and gens, closed under the
    function-algebra operations restricted to arity <= max_arity.

    General composition f(g1,...,gn) routes through intermediate arities up
    to arity(f) + arity(g) - 1, so a fixpoint taken strictly at max_arity can
    miss members of the generated clone.  Passing working_arity > max_arity
    runs the fixpoint at the higher bound and truncates the result.
    """
    if working_arity is not None:
        if working_arity < max_arity:
            raise InvalidInputError("working_arity must be >= max_arity")
        frag = clone_closure(
            gens, working_arity, universe_size=universe_size, member_cap=member_cap
        )
        by_arity = {k: frag.arity_part(k) for k in range(1, max_arity + 1)}
        return CloneFragment.from_sets(frag.universe_size, max_arity, by_arity)
    gens = [_lift_generator(f) for f in gens]
    if universe_size is None:
        if not gens:
            raise InvalidInputError("need universe_size when gens is empty")
        universe_size = gens[0].universe_size
    if any(f.universe_size != universe_size for f in gens):
        raise InvalidInputError("generators live on different universes")
    if max_arity < 1:
        raise InvalidInputError("max_arity must be >= 1")
    for f in gens:
        if f.arity > max_arity:
            raise InvalidInputError(
                f"generator arity {f.arity} exceeds bound {max_arity}"
            )

    members = set()
    worklist = []

    def add(f):
        if f.arity == 0 or f.arity > max_arity:
            return
        if f not in members:
            members.add(f)
            worklist.append(f)
            if len(members) > member_cap:
                raise BudgetExceededError(
                    f"clone closure exceeded member cap {member_cap}"
                )

    for k in range(1, max_arity + 1):
        for i in range(k):
            add(FiniteFunction.projection(universe_size, k, i))
    for f in gens:
        add(f)

    while worklist:
        f = worklist.pop()
        if f.arity >= 1:
            add(rotate_args(f))
            add(swap_args(f))
            if f.arity >= 2:
                add(diagonal_minor(f))
        if f.arity + 1 <= max_arity:
            add(add_dummy_arg(f))
        for g in list(members):
            if f.arity + g.arity - 1 <= max_arity:
                add(compose_first(f, g))
            if g.arity + f.arity - 1 <= max_arity:
                add(compose_first(g, f))

    by_arity = {}
    for f in members:
        by_arity.setdefault(f.arity, []).append(f)
    return CloneFragment.from_sets(universe_size, max_arity, by_arity)


def pol_fragment(
    alg: FiniteAlgebra, max_arity: int, member_cap: int = DEFAULT_MEMBER_CAP
) -> CloneFragment:
    """The polynomial clone of alg up to max_arity: fundamental operations
    plus every constant, closed and then truncated.

    The closure runs at the larger of max_arity and the maximal fundamental
    arity so that e.g. unary fragments of algebras with binary operations
    still come out complete.
    """
    gens = [
        FiniteFunction.from_operation(alg.size, op)
        for op in alg.operations
        if op.arity >= 1
    ]
    gens += [FiniteFunction.constant(alg.size, v) for v in range(alg.size)]
    working = max([max_arity] + [f.arity for f in gens])
    frag = clone_closure(gens, working, universe_size=alg.size, member_cap=member_cap)
    by_arity = {k: frag.arity_part(k) for k in range(1, max_arity + 1)}
    return CloneFragment.from_sets(alg.size, max_arity, by_arity)


def is_congruence_preserving(f: FiniteFunction, congs) -> bool:
    """True iff componentwise alpha-related tuples map to alpha-related values,
    for every congruence alpha in congs."""
    s = f.universe_size
    for alpha in congs:
        if alpha.size != s:
            raise InvalidInputError("congruence size mismatch")
        seen = {}
        for args in itertools.product(range(s), repeat=f.arity):
            sig = tuple(alpha.block_id[a] for a in args)
            v = alpha.block_id[f.table[_flat_index(args, s)]]
            if sig in seen:
                if seen[sig] != v:
                    return False
            else:
                seen[sig] = v
    return True


def comp_fragment(
    alg: FiniteAlgebra,
    max_arity: int,
    budget: int = DEFAULT_COMP_BUDGET,
    congs=None,
) -> CloneFragment:
    """All functions of arity <= max_arity preserving every congruence of alg.

    Brute-force enumeration in lexicographic table order; the candidate count
    |A|^(|A|^n) is checked against the budget first.
    """
    if congs is None:
        congs = alg.all_congruences()
    s = alg.size
    by_arity = {}
    for arity in range(1, max_arity + 1):
        count = s ** (s**arity)
        if count > budget:
            raise BudgetExceededError(
                f"comp enumeration needs {count} candidates at arity {arity}; "
                f"budget is {budget} - lower the arity"
            )
        found = []
        for table in itertools.product(range(s), repeat=s**arity):
            f = FiniteFunction(s, arity, table)
            if is_congruence_preserving(f, congs):
                found.append(f)
        by_arity[arity] = found
    return CloneFragment.from_sets(s, max_arity, by_arity)


# ---------------------------------------------------------------------------
# tensor construction on product universes


def tensor_function(c: FiniteFunction, d: FiniteFunction) -> FiniteFunction:
    """c (x) d on the product universe: acts as c on first coordinates and d
    on second, under the pair encoding (x, y) -> x * |B| + y."""
    if c.arity != d.arity:
        raise InvalidInputError("tensor requires equal arities")
    sa, sb = c.universe_size, d.universe_size
    s = sa * sb
    table = []
    for args in itertools.product(range(s), repeat=c.arity):
        xs = tuple(a // sb for a in args)
        ys = tuple(a % sb for a in args)
        va = c.table[_flat_index(xs, sa)]
        vb = d.table[_flat_index(ys, sb)]
        table.append(va * sb + vb)
    return FiniteFunction(s, c.arity, tuple(table))


def tensor_set(cs, ds):
    """{c (x) d} over all equal-arity pairs from the two collections."""
    out = set()
    for c in cs:
        for d in ds:
            if c.arity == d.arity:
                out.add(tensor_function(c, d))
    return out


def tensor_fragments(cf: CloneFragment, df: CloneFragment) -> CloneFragment:
    if cf.max_arity != df.max_arity:
        raise InvalidInputError("fragments have different arity bounds")
    by_arity = {
        k: tensor_set(cf.arity_part(k), df.arity_part(k))
        for k in range(1, cf.max_arity + 1)
    }
    return CloneFragment.from_sets(
        cf.universe_size * df.universe_size, cf.max_arity, by_arity
    )


def tensor_generators(x_gens, y_gens, size_a: int, size_b: int):
    """The generating set for the tensor of two generated clones: every f in X
    paired with a first-coordinate projection, every g in Y likewise, plus the
    binary pi1 (x) pi2."""
    out = []
    for f in x_gens:
        f = _lift_generator(f)
        out.append(
            tensor_function(f, FiniteFunction.projection(size_b, f.arity, 0))
        )
    for g in y_gens:
        g = _lift_generator(g)
        out.append(
            tensor_function(FiniteFunction.projection(size_a, g.arity, 0), g)
        )
    out.append(
        tensor_function(
            FiniteFunction.projection(size_a, 2, 0),
            FiniteFunction.projection(size_b, 2, 1),
        )
    )
    return out


# ---------------------------------------------------------------------------
# product congruences and skew-freeness


def is_product_congruence(
    theta: Partition, kernel_first: Partition, kernel_second: Partition
) -> bool:
    """True iff theta decomposes over the two projection kernels, i.e.
    theta = (theta v ker1) ^ (theta v ker2)."""
    size = theta.size
    if kernel_first.size != size or kernel_second.size != size:
        raise InvalidInputError("kernel size mismatch")
    if not kernel_first.meet(kernel_second).is_identity():
        raise InvalidInputError("kernels do not intersect trivially")
    if not kernel_first.join(kernel_second).is_full():
        raise InvalidInputError("kernels do not join to the full relation")
    rebuilt = theta.join(kernel_first).meet(theta.join(kernel_second))
    return rebuilt == theta


def skew_congruences(prod: FiniteAlgebra, congs=None):
    """Congruences of a recorded product that are not product congruences."""
    if prod.product_kernels is None:
        raise InvalidInputError("algebra was not built by direct_product")
    k1, k2 = prod.product_kernels
    if congs is None:
        congs = prod.all_congruences()
    return [t for t in congs if not is_product_congruence(t, k1, k2)]


def is_skew_free(prod: FiniteAlgebra, congs=None) -> bool:
    return not skew_congruences(prod, congs)


# ---------------------------------------------------------------------------
# relations and Mal'cev terms


@dataclass(frozen=True)
class Relation4:
    """A 4-ary relation over the universe, stored sorted and deduplicated."""

    universe_size: int
    tuples: tuple

    @staticmethod
    def from_tuples(universe_size: int, tuples) -> "Relation4":
        tups = sorted(set(tuple(t) for t in tuples))
        for t in tups:
            if len(t) != 4 or any(not (0 <= v < universe_size) for v in t):
                raise InvalidInputError(f"bad relation tuple {t}")
        return Relation4(universe_size, tuple(tups))

    def __contains__(self, t) -> bool:
        return tuple(t) in set(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)


def preserves_relation(f: FiniteFunction, r: Relation4) -> bool:
    """True iff r is closed under coordinatewise application of f."""
    if f.universe_size != r.universe_size:
        raise InvalidInputError("universe size mismatch")
    member = set(r.tuples)
    if f.arity == 0:
        v = f.table[0]
        return (v, v, v, v) in member
    for rows in itertools.product(r.tuples, repeat=f.arity):
        image = tuple(f(*(row[j] for row in rows)) for j in range(4))
        if image not in member:
            return False
    return True


def is_malcev_function(d: FiniteFunction) -> bool:
    if d.arity != 3:
        return False
    s = d.universe_size
    return all(
        d(x, y, y) == x and d(x, x, y) == y
        for x in range(s)
        for y in range(s)
    )


def group_malcev_function(alg) -> FiniteFunction | None:
    """x * y^-1 * z when alg carries a group structure, else None.

    alg is a FiniteAlgebra or an already built GroupStructure.
    """
    from .groups import GroupStructure, NotAGroupError

    if isinstance(alg, GroupStructure):
        g = alg
    else:
        try:
            g = GroupStructure(alg)
        except NotAGroupError:
            return None
    s = g.size
    table = [
        g.mul(g.mul(x, g.inv[y]), z)
        for x, y, z in itertools.product(range(s), repeat=3)
    ]
    return FiniteFunction(s, 3, tuple(table))


def malcev_term(
    alg: FiniteAlgebra, member_cap: int = DEFAULT_MEMBER_CAP
) -> FiniteFunction | None:
    """A Mal'cev function d with d(x,y,y)=x and d(x,x,y)=y, if one exists in
    the ternary term closure.

    Groups short-circuit to x * y^-1 * z.  Returns None when the computed
    closure contains no such function; raises BudgetExceededError when the
    closure was truncated, which callers should report as "unknown".
    """
    d = group_malcev_function(alg)
    if d is not None:
        return d
    gens = [
        FiniteFunction.from_operation(alg.size, op)
        for op in alg.operations
        if op.arity >= 1
    ]
    working = max([3] + [f.arity for f in gens])
    frag = clone_closure(gens, working, universe_size=alg.size, member_cap=member_cap)
    for f in frag.arity_part(3):
        if is_malcev_function(f):
            return f
    return None
