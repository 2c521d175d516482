"""Decision procedures for congruence preserving expansions, plus the
explicit witness objects (the function family, the centrality relation, and
the commutator-style term) that back the "infinitely many" verdict.

A finite nilpotent group, or a coprime product of nilpotent prime-power
algebras, has infinitely many polynomially inequivalent congruence preserving
expansions exactly when its congruence lattice splits strongly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from . import clones
from .algebra import (
    DEFAULT_BUDGET,
    FiniteAlgebra,
    Partition,
    _flat_index,
    _grid,
    direct_product,
    is_congruence_uniform,
    least_rows,
    principal_split,
)
from .clones import (
    FiniteFunction,
    Relation4,
    _signature_reps,
    group_malcev_function,
    is_congruence_preserving,
    is_malcev_function,
    malcev_term,
    skew_congruences,
)
from .errors import (
    BudgetExceededError,
    CongrexError,
    InvalidInputError,
    NotAGroupError,
    NotApplicableError,
    WitnessCheckError,
)
from .groups import (
    GroupStructure,
    as_group_algebra,
    check_prime,
    is_nilpotent_group,
    lower_central_series,
    normal_subgroups,
    prime_factors,
    split_normal_subgroup_lattice,
    sylow_decomposition,
)
from .lattice import SplitWitness

VERDICT_INFINITE = "infinitely-many"
VERDICT_FINITE = "finitely-many"
VERDICT_NA = "not-applicable"

#: the most table entries build_commutator_witness tabulates, |A|^(k+2)
WITNESS_TABLE_BUDGET = 10**6

#: the most choices of tuples of rho that check_centrality applies its
#: functions to, the sum of |rho|^arity over them; force lifts it
CENTRALITY_BUDGET = 10**8


@dataclass
class AnalysisReport:
    verdict: str
    route: str
    lattice_witness: dict | None = None
    factor_reports: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "route": self.route,
            "lattice_witness": self.lattice_witness,
            "factor_reports": self.factor_reports,
            "diagnostics": self.diagnostics,
        }

    @property
    def exit_code(self) -> int:
        return 2 if self.verdict == VERDICT_NA else 0


def _subgroup_split_report(g: GroupStructure, budget: int | None):
    """(splits_strongly?, witness dict or None, diagnostics) via the normal
    subgroup lattice, which is Con of the group."""
    subs = normal_subgroups(g, budget=budget)
    pair, weak = split_normal_subgroup_lattice(g, budget)
    witness = None
    if pair is not None:
        delta, eps = pair
        witness = {
            "delta": subs.index(delta),
            "epsilon": subs.index(eps),
            "delta_subgroup": sorted(delta),
            "epsilon_subgroup": sorted(eps),
        }
    diags = {
        "normal_subgroup_count": len(subs),
        "splits": weak is not None,
    }
    return pair is not None, witness, diags


def decide_group(group, budget: int | None = DEFAULT_BUDGET) -> AnalysisReport:
    """Verdict for a finite group given by tables or a shortcut string.

    Nilpotent groups are decided by strong splitting of the normal subgroup
    lattice, with per-Sylow sub-verdicts; non-nilpotent groups, and algebras
    with an operation other than the multiplication, inverse and identity of
    their group, are outside the scope of the characterization and come back
    not-applicable.  ``budget`` (None: no limit) goes to every normal
    subgroup enumeration, which comes after the nilpotency test.  A group
    of prime-power order is nilpotent, so the lower central series is
    computed only for other orders.
    """
    alg = as_group_algebra(group)
    g = GroupStructure.of(alg)
    extra = [op.name for op in g.extra_operations(alg)]
    if extra:
        return AnalysisReport(
            verdict=VERDICT_NA,
            route="group-normal-subgroup-lattice",
            diagnostics={
                "group": alg.name,
                "order": alg.size,
                "reason": "extra-operations",
                "extra_operations": extra,
            },
        )
    primes = sorted(prime_factors(g.size))
    if len(primes) > 1 and (series := lower_central_series(g))[-1] != {g.identity}:
        return AnalysisReport(
            verdict=VERDICT_NA,
            route="group-normal-subgroup-lattice",
            diagnostics={
                "group": alg.name,
                "order": alg.size,
                "reason": "not-nilpotent",
                "lower_central_series_orders": [len(term) for term in series],
            },
        )
    strong, witness, diags = _subgroup_split_report(g, budget)
    if len(primes) == 1:  # a p-group is its own Sylow factor
        analyses = [(primes[0], g.size, strong, witness, diags)]
    else:
        analyses = [
            (p, sub.size, *_subgroup_split_report(GroupStructure.of(sub), budget))
            for p, sub in sylow_decomposition(g)
        ]
    if any(fs for _, _, fs, _, _ in analyses) != strong:
        raise CongrexError(
            "internal: per-factor and whole-lattice splitting disagree"
        )
    factor_reports = [
        {
            "prime": p,
            "order": order,
            "verdict": VERDICT_INFINITE if fs else VERDICT_FINITE,
            "lattice_witness": fw,
            "diagnostics": fd,
        }
        for p, order, fs, fw, fd in analyses
    ]
    return AnalysisReport(
        verdict=VERDICT_INFINITE if strong else VERDICT_FINITE,
        route="group-normal-subgroup-lattice",
        lattice_witness=witness,
        factor_reports=factor_reports,
        diagnostics={**diags, "group": alg.name, "order": alg.size, "nilpotent": True},
    )


def decide_abelian_spec(p: int, exponents) -> AnalysisReport:
    """Closed form for the product of Z_{p^m_i}: finitely many expansions iff
    (r >= 2 and m1 = m2) or (r = 1 and m1 = 1)."""
    check_prime(p)
    exponents = list(exponents)
    if not exponents or any(m < 1 for m in exponents):
        raise InvalidInputError("exponents must be positive integers")
    if any(a < b for a, b in zip(exponents, exponents[1:])):
        raise InvalidInputError("exponents must be non-increasing")
    r = len(exponents)
    finite = (r >= 2 and exponents[0] == exponents[1]) or (
        r == 1 and exponents[0] == 1
    )
    return AnalysisReport(
        verdict=VERDICT_FINITE if finite else VERDICT_INFINITE,
        route="abelian-closed-form",
        diagnostics={
            "prime": p,
            "exponents": exponents,
            "order": p ** sum(exponents),
        },
    )


def congruence_split(alg: FiniteAlgebra, congs):
    """(strong, weak): principal_split of the principal congruences of alg,
    each split as a SplitWitness of indices into congs, Con(alg) as
    congruence_rows or all_congruences gives it, or None; InvalidInputError
    if congs lacks a congruence of either split.  The principal rows are
    those the closure of congs computed and alg keeps."""
    rows = least_rows(congs, alg.size)
    out = []
    for found in principal_split(*alg._distinct_principal_rows()):
        hits = [np.flatnonzero((rows == r).all(axis=1)) for r in found or ()]
        if not all(len(h) for h in hits):
            raise InvalidInputError("congs lacks a congruence of the split; pass all of Con(alg)")
        out.append(SplitWitness(*(int(h[0]) for h in hits)) if found else None)
    return tuple(out)


def decide_product(
    factors,
    assume_nilpotent: bool = False,
    budget: int | None = DEFAULT_BUDGET,
) -> AnalysisReport:
    """Verdict for a coprime product of nilpotent prime-power algebras.

    Checks the hypotheses (prime-power coprime orders; nilpotency follows
    from the order for a group with no other operation, otherwise the
    caller asserts it), verifies skew-freeness of the product, and
    evaluates both the per-factor and whole-lattice strong splitting tests,
    which must agree, each from the principal congruences
    (congruence_split).  ``budget`` (None: no limit) goes to every
    congruence enumeration.
    """
    factors = [as_group_algebra(f) for f in factors]
    if not factors:
        raise InvalidInputError("empty factor list")
    orders = [f.size for f in factors]
    for f, n in zip(factors, orders):
        if len(prime_factors(n)) != 1:
            raise InvalidInputError(
                f"factor {f.name or '?'} has order {n}, not a prime power"
            )
    for (i, a), (j, b) in itertools.combinations(enumerate(orders), 2):
        if gcd(a, b) != 1:
            raise InvalidInputError(
                f"factor orders {a} and {b} are not coprime"
            )
    diagnostics = {"factor_orders": orders}
    hypothesis_notes = []
    for f in factors:
        try:  # a group of prime-power order is nilpotent; other operations may break it
            if not GroupStructure.of(f).extra_operations(f):
                continue
        except NotAGroupError:
            pass
        if not assume_nilpotent:
            raise InvalidInputError(
                f"factor {f.name or '?'} is not a group without other operations: "
                "pass assume_nilpotent (--assume-nilpotent-pp-factors on the command "
                "line) to assert its nilpotency"
            )
        hypothesis_notes.append(
            f"nilpotency of factor {f.name or '?'} asserted, not verified"
        )
    if hypothesis_notes:
        diagnostics["hypotheses"] = hypothesis_notes

    # fold the product, checking skew-freeness at every step
    prod = factors[0]
    prod_congs = None
    for f in factors[1:]:
        prod = direct_product(prod, f)
        prod_congs = prod.congruence_rows(budget)
        skew = skew_congruences(prod, prod_congs)
        if skew:
            raise CongrexError(
                f"skew congruence found in a product that should be skew-free "
                f"(orders {orders}): {skew[0]!r}"
            )
        if not is_congruence_uniform(prod, prod_congs):
            diagnostics.setdefault("warnings", []).append(
                "product is not congruence uniform"
            )

    factor_reports = []
    for f in factors:
        f_congs = f.congruence_rows(budget)
        w = congruence_split(f, f_congs)[0]
        factor_reports.append(
            {
                "name": f.name,
                "order": f.size,
                "verdict": VERDICT_INFINITE if w else VERDICT_FINITE,
                "lattice_witness": w.to_json_dict() if w else None,
            }
        )
    if prod_congs is None:  # a single factor is its own product
        prod_congs = f_congs
    whole, weak = congruence_split(prod, prod_congs)
    if (whole is not None) != any(r["lattice_witness"] for r in factor_reports):
        raise CongrexError(
            "internal: per-factor and whole-lattice splitting disagree"
        )
    diagnostics["congruence_count"] = len(prod_congs)
    diagnostics["splits"] = weak is not None
    return AnalysisReport(
        verdict=VERDICT_INFINITE if whole else VERDICT_FINITE,
        route="coprime-product-lattice",
        lattice_witness=whole.to_json_dict() if whole else None,
        factor_reports=factor_reports,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# witness construction


class WitnessFamily:
    """The family of congruence preserving functions certifying the
    "infinitely many" verdict.

    Built from a strong splitting witness (delta, epsilon) of Con(base) with
    epsilon an atom, and a pair a != b inside epsilon: the n-ary member sends
    a tuple to a when some coordinate meets the delta-class of a, else to b.
    The checks read the least-member rows of the distinct principal
    congruences of base, which base computes once and keeps: every
    congruence is a join of principal ones.
    """

    def __init__(self, base: FiniteAlgebra, delta: Partition, epsilon: Partition, a: int, b: int):
        principals = base._distinct_principal_rows()[0]
        if not (base.is_congruence(epsilon) and base.is_congruence(delta)):
            raise InvalidInputError("delta/epsilon are not congruences of base")
        if epsilon.is_identity() or delta.is_full():
            raise InvalidInputError("witness requires 0 < epsilon and delta < 1")
        if not epsilon.refines(delta):
            raise InvalidInputError("witness requires epsilon <= delta")
        eps, dl = epsilon.least, delta.least
        below_eps = (eps[principals] == eps).all(axis=1)
        if (below_eps & (principals != eps).any(axis=1)).any():
            raise InvalidInputError("epsilon must be an atom of the lattice")
        below_delta = (dl[principals] == dl).all(axis=1)
        if not (below_delta | (principals[:, eps] == principals).all(axis=1)).all():
            raise InvalidInputError("delta/epsilon do not witness a strong split")
        if a == b or not epsilon.same(a, b):
            raise InvalidInputError("(a, b) must be a non-diagonal epsilon pair")
        self.base = base
        self.principals = principals
        self.delta = delta
        self.epsilon = epsilon
        self.a = a
        self.b = b
        self._cache = {}

    @property
    def marked_class(self):
        return set(self.delta.block_of(self.a))

    def function(self, n: int) -> FiniteFunction:
        """The n-ary family member; range is {a, b}."""
        if n < 1:
            raise InvalidInputError("family members have arity >= 1")
        if n not in self._cache:
            s = self.base.size
            least = self.delta.least
            hit = (least[np.stack(_grid((s,) * n))] == least[self.a]).any(axis=0)
            self._cache[n] = FiniteFunction(s, n, np.where(hit, self.a, self.b))
        return self._cache[n]

    def functions(self, up_to_n: int):
        return [self.function(n) for n in range(1, up_to_n + 1)]


def build_witness_family(
    base: FiniteAlgebra, budget: int | None = DEFAULT_BUDGET
) -> WitnessFamily:
    """The WitnessFamily of the strong split (delta, epsilon) of Con(base)
    by principal_split, from the principal congruences alone (under budget;
    None: no limit), and (a, b) the least non-diagonal pair inside epsilon.
    """
    found = principal_split(*base._distinct_principal_rows(budget))[0]
    if found is None:
        raise InvalidInputError("congruence lattice does not split strongly")
    delta, epsilon = map(Partition._of_row, found)
    a, b = next(block for block in epsilon.blocks() if len(block) > 1)[:2]
    return WitnessFamily(base, delta, epsilon, a, b)


def verify_witness(fam: WitnessFamily, up_to_n: int) -> dict:
    """Exhaustively check each family member up to the given arity: it is
    congruence preserving (it preserves the principal congruences, so every
    join of them), its range sits inside one epsilon class, and it is
    constant on componentwise delta-related tuples.

    Raises WitnessCheckError with the offending tuple on any failure.
    """
    _check_up_to_n(up_to_n)
    record = {}
    s = fam.base.size
    for n in range(1, up_to_n + 1):
        f = fam.function(n)
        if not is_congruence_preserving(f, fam.principals):
            raise WitnessCheckError(f"member of arity {n} is not congruence preserving")
        values = set(np.flatnonzero(np.bincount(f.table, minlength=s)).tolist())
        if not values <= {fam.a, fam.b}:
            raise WitnessCheckError(f"member of arity {n} has range {values}")
        if not fam.epsilon.same(fam.a, fam.b):
            raise WitnessCheckError("(a, b) left its epsilon class")
        # the congruence check with the identity as the value map
        bad = np.flatnonzero(f.table != f.table[_signature_reps(fam.delta.least, n)])
        if len(bad):
            args = tuple(int(x) for x in np.unravel_index(bad[0], (s,) * n))
            raise WitnessCheckError(
                f"member of arity {n} not constant on delta blocks at {args}"
            )
        record[n] = {
            "congruence_preserving": True,
            "range": sorted(values),
            "constant_modulo_delta": True,
        }
    return record


def build_rho(
    base: FiniteAlgebra, epsilon: Partition, d: FiniteFunction
) -> Relation4:
    """The 4-ary centrality relation: tuples (x1, x2, x3, x4) with x1, x2 in
    the same epsilon class and d(x1, x2, x3) = x4."""
    if not is_malcev_function(d):
        raise InvalidInputError("d fails the Mal'cev identities")
    if d.universe_size != base.size:
        raise InvalidInputError("universe size mismatch")
    s = base.size
    least = epsilon.least
    x1, x2, x3 = _grid((s,) * 3)
    # d's table lists d(x1, x2, x3) in the grid's order
    tuples = np.stack([x1, x2, x3, d.table], axis=1)[least[x1] == least[x2]]
    return Relation4.from_tuples(s, tuples.tolist())


def check_centrality(base: FiniteAlgebra, extra, rho: Relation4, force: bool = False) -> bool:
    """True iff every fundamental operation of base, and every extra function,
    preserves the centrality relation.  Each function f is applied to at
    most |rho|^arity(f) choices of tuples of rho (clones.preserves_relation);
    a sum of these estimates over CENTRALITY_BUDGET is refused up front
    unless force is set."""
    funcs = [FiniteFunction.from_operation(base.size, op) for op in base.operations]
    funcs += extra
    estimate = sum(len(rho) ** f.arity for f in funcs)
    if not force and estimate > CENTRALITY_BUDGET:
        raise BudgetExceededError(
            f"centrality check estimate {estimate} choices exceeds limit {CENTRALITY_BUDGET}"
        )
    # looked up on clones at each call, so a wrapper installed there sees it
    return all(clones.preserves_relation(f, rho) for f in funcs)


def build_commutator_witness(fam: WitnessFamily, d: FiniteFunction, k: int) -> FiniteFunction:
    """The absorbing term of arity k+2 built from the family member of arity
    k+1 and the Mal'cev function:

        w(x1..x_{k+2}) = d(f_{k+1}(d(x1, x_{k+2}, a), ..., d(x_{k+1}, x_{k+2}, a)),
                           a, x_{k+2})

    Verifies the absorption identities (w collapses to z whenever any one of
    its first k+1 arguments equals the last argument z) and nontriviality
    (w(c,...,c,a) = b for every c outside the delta class of a).  A table
    of more than WITNESS_TABLE_BUDGET entries is refused.
    """
    _check_witness_arity(fam.base.size, k)
    if not is_malcev_function(d) or d.universe_size != fam.base.size:
        raise InvalidInputError("d is not a Mal'cev function on the base universe")
    s = fam.base.size
    arity = k + 2
    f, dt = fam.function(k + 1).table, d.table
    a, b = fam.a, fam.b
    *xs, z = _grid((s,) * arity)
    inner = [dt[_flat_index((x, z, a), s)] for x in xs]
    w = FiniteFunction(s, arity, dt[_flat_index((f[_flat_index(inner, s)], a, z), s)])

    # w(..., z, ..., z), z at position j and the others in lexicographic order
    *partial, z = _grid((s,) * (k + 1))
    for j in range(k + 1):
        args = partial[:j] + [z] + partial[j:] + [z]
        bad = np.flatnonzero(w.table[_flat_index(args, s)] != z)
        if len(bad):
            at = tuple(int(x[bad[0]]) for x in args)
            raise WitnessCheckError(
                f"absorption fails at position {j}: w{at} = {w(*at)}"
            )
    marked = fam.marked_class
    for c in range(s):
        if c in marked:
            continue
        got = w(*((c,) * (k + 1) + (a,)))
        if got != b:
            raise WitnessCheckError(
                f"nontriviality fails: w({c},...,{c},{a}) = {got}, expected {b}"
            )
    return w


def _check_up_to_n(up_to_n: int) -> None:
    if up_to_n < 1:
        raise InvalidInputError("up_to_n must be >= 1")


def _check_witness_arity(size: int, k: int) -> None:
    """Refuse k < 1, and a commutator witness table of size**(k+2) entries
    over WITNESS_TABLE_BUDGET."""
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if size ** (k + 2) > WITNESS_TABLE_BUDGET:
        raise BudgetExceededError(
            f"table of size {size}^{k + 2} exceeds budget {WITNESS_TABLE_BUDGET}"
        )


def group_witness_pipeline(
    group, up_to_n: int = 3, k: int = 1, force: bool = False, budget: int | None = DEFAULT_BUDGET
) -> dict:
    """End-to-end witness construction for a group verdict: family, centrality
    relation, and commutator-style term, all exhaustively verified.

    A non-nilpotent group is outside the theorem's scope and raises
    NotApplicableError before any congruence work; so does an algebra with
    no Mal'cev term, once its family is built and before it is verified.
    The family comes first because it is cheap and refuses most algebras,
    while the Mal'cev search can fill the member cap of the whole ternary
    clone.  A k or up_to_n below 1, or a commutator witness table over
    WITNESS_TABLE_BUDGET, is refused before any congruence work too.
    ``budget`` (None: no limit) bounds the principal congruences; ``force``
    lifts both that budget and the centrality check's limit.
    """
    alg = as_group_algebra(group)
    try:
        g = GroupStructure.of(alg)
    except NotAGroupError:
        g = None
    if g is not None and not is_nilpotent_group(g):
        raise NotApplicableError(f"{alg.name or 'the group'} is not nilpotent")
    _check_witness_arity(alg.size, k)
    _check_up_to_n(up_to_n)
    fam = build_witness_family(alg, None if force else budget)
    d = group_malcev_function(g) if g is not None else malcev_term(alg)
    if d is None:
        raise NotApplicableError(f"{alg.name or 'the algebra'} has no Mal'cev term")
    record = verify_witness(fam, up_to_n)
    rho = build_rho(alg, fam.epsilon, d)
    if not check_centrality(alg, fam.functions(up_to_n), rho, force):
        raise WitnessCheckError(
            "the centrality relation is not preserved by the base operations "
            "and the family members"
        )
    w = build_commutator_witness(fam, d, k)
    return {
        "base": alg.name,
        "a": fam.a,
        "b": fam.b,
        "delta": [list(bl) for bl in fam.delta.blocks()],
        "epsilon": [list(bl) for bl in fam.epsilon.blocks()],
        "family": {
            str(n): fam.function(n).table.tolist() for n in range(1, up_to_n + 1)
        },
        "family_checks": {str(n): v for n, v in record.items()},
        "rho_size": len(rho),
        "centrality": True,
        "commutator_witness_arity": w.arity,
        "commutator_witness_table": w.table.tolist(),
    }
