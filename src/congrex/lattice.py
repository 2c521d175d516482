"""Finite bounded lattices and the splitting predicates.

A lattice is stored with its full order relation and meet/join tables as
numpy arrays, so the predicates are array expressions over them.  On bool
arrays ``A @ B`` is the relation product (an OR of ANDs in numpy's own loop);
a float matmul would be faster on large orders, but it makes BLAS allocate
work buffers that stay resident for the rest of the process.  A lattice
"splits" if it is the union of two proper subintervals I[0, delta] and
I[epsilon, 1]; it "splits strongly" if moreover the subintervals overlap
(epsilon <= delta).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .algebra import Partition, _chunks, _fresh, _grid, _join_rows, _meet_rows, require_int
from .errors import InvalidInputError


def _meets(L: np.ndarray) -> np.ndarray:
    """Meet table of the bounded order L; the join table is _meets(L.T).

    Among the common lower bounds of a and b the meet dominates all others,
    so it has the strictly largest down-set: an argmax of down-set sizes, 0
    off the common lower bounds, finds it, and a dominance check validates
    it.  One row a at a time, so memory stays O(k^2).
    """
    L, LT = np.ascontiguousarray(L), np.ascontiguousarray(L.T)
    below = L.sum(axis=0, dtype=np.int32)
    meet = np.empty(L.shape, dtype=np.intp)
    for a in range(len(L)):
        lower = L[:, a] & LT  # lower[b, c] = c <= a and c <= b
        meet[a] = (lower * below).argmax(axis=1)
        # every common lower bound c must satisfy c <= meet[a, b]
        if not (~lower | LT[meet[a]]).all():
            raise InvalidInputError("meet or join missing; not a lattice")
    return meet


@dataclass(frozen=True)
class SplitWitness:
    delta: int
    epsilon: int

    def to_json_dict(self) -> dict:
        return {"delta": self.delta, "epsilon": self.epsilon}


class FiniteLattice:
    """Bounded lattice on 0..size-1 given by its order relation.

    ``leq`` is the k x k bool order, ``meet`` and ``join`` are k x k intp
    tables and ``bottom``, ``top`` and ``size`` are ints.
    """

    def __init__(self, leq):
        if not (isinstance(leq, np.ndarray) and leq.dtype == bool):
            rows = [list(row) for row in leq]
            if any(len(row) != len(rows) for row in rows):
                raise InvalidInputError("leq must be a square boolean matrix")
            for v in itertools.chain.from_iterable(rows):
                if not isinstance(v, (bool, np.bool_)):
                    raise InvalidInputError(f"leq entry is not a boolean: {v!r}")
            leq = np.array(rows, dtype=bool).reshape(len(rows), len(rows))
        L = np.array(leq)
        k = len(L)
        if L.shape != (k, k):
            raise InvalidInputError("leq must be a square boolean matrix")
        if k == 0:
            raise InvalidInputError("lattice must be nonempty")
        if not L.diagonal().all():
            raise InvalidInputError("order not reflexive")
        if (L & L.T & ~np.eye(k, dtype=bool)).any():
            raise InvalidInputError("order not antisymmetric")
        if ((L @ L) & ~L).any():
            raise InvalidInputError("order not transitive")
        bottom, top = np.flatnonzero(L.all(axis=1)), np.flatnonzero(L.all(axis=0))
        if not (len(bottom) and len(top)):
            raise InvalidInputError("lattice is not bounded")
        self.size, self.leq = k, L
        self.bottom, self.top = int(bottom[0]), int(top[0])
        self.meet, self.join = _meets(L), _meets(L.T)

    def atoms(self) -> np.ndarray:
        """The elements covering the bottom, ascending."""
        return np.flatnonzero(self.leq.sum(axis=0) == 2)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"size": self.size, "leq": self.leq.tolist()}

    @staticmethod
    def from_json_dict(data: dict) -> "FiniteLattice":
        try:
            lat = FiniteLattice(data["leq"])
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed lattice JSON: {exc}") from exc
        if "size" in data and require_int(data["size"], "size") != lat.size:
            raise InvalidInputError(
                f"size {data['size']} does not match the {lat.size} rows of leq"
            )
        return lat

    @staticmethod
    def from_json(text: str) -> "FiniteLattice":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"invalid JSON: {exc}") from exc
        return FiniteLattice.from_json_dict(data)

    def __repr__(self):
        return f"<FiniteLattice: {self.size} elements>"


def chain(n: int) -> FiniteLattice:
    return FiniteLattice([[a <= b for b in range(n)] for a in range(n)])


def from_congruences(congs) -> FiniteLattice:
    """Order a meet/join closed set of partitions by refinement.

    a <= b iff b's labels are constant on a's blocks, i.e. B[b, least[a]]
    == B[b] for the least-member rows B, checked one row a at a time.
    Closure is checked on irreducibles only: b is the join of the
    join-irreducibles below it, so a v b is in the set for all a, b once
    a v j is for every join-irreducible j (one lower cover) not below a;
    dually for meets with meet-irreducibles (one upper cover).
    """
    congs = sorted(set(congs), key=lambda p: p.block_id)
    if not congs:
        raise InvalidInputError("empty congruence set")
    rows = np.array([p.least for p in congs])
    k, n = rows.shape
    leq = np.empty((k, k), dtype=bool)
    for s in _chunks(k, n):
        block = rows[s]
        for a in range(k):
            leq[a, s] = (block[:, rows[a]] == block).all(axis=1)
    try:
        lat = FiniteLattice(leq)
    except InvalidInputError as exc:
        raise InvalidInputError("congruence set is not meet/join closed") from exc
    L = lat.leq
    strict = L & ~np.eye(k, dtype=bool)
    covers = strict & ~(strict @ strict)
    present = {}
    _fresh(present, rows)
    checks = [(_join_rows, j, ~L[j]) for j in np.flatnonzero(covers.sum(axis=0) == 1)]
    checks += [(_meet_rows, m, ~L[:, m]) for m in np.flatnonzero(covers.sum(axis=1) == 1)]
    for kernel, irreducible, outside in checks:
        others = np.flatnonzero(outside)
        for s in _chunks(len(others), n):
            pair = np.broadcast_to(rows[irreducible], (len(others[s]), n))
            if _fresh(present, kernel(rows[others[s]], pair)):
                raise InvalidInputError("congruence set is not meet/join closed")
    assert congs[lat.bottom] == Partition.identity(n)
    assert congs[lat.top] == Partition.full(n)
    return lat


def congruence_lattice(alg, **kwargs):
    """(lattice, congruence list) for alg, with matching element indexing."""
    congs = alg.all_congruences(**kwargs)
    return from_congruences(congs), congs


def _split_witness(l: FiniteLattice, strong: bool):
    # epsilon ranges over atoms only: an atom below a witness epsilon is a
    # witness with the same delta, and atoms have the least down-sets, so
    # they come first in the witness order.  admissible[i, d]: every alpha
    # is <= d or >= atom i (and atom i <= d, if strong).
    L = l.leq
    atoms = l.atoms()
    admissible = ~(~L[atoms] @ ~L)
    if strong:
        admissible &= L[atoms]
    admissible[:, l.top] = False
    found = np.flatnonzero(admissible.any(axis=1))
    if not len(found):
        return None
    delta = np.where(admissible[found[0]], L.sum(axis=0), -1).argmax()
    return SplitWitness(delta=int(delta), epsilon=int(atoms[found[0]]))


def splits_strongly(l: FiniteLattice):
    """Witness for I[0,delta] u I[epsilon,1] = L with 0 < eps <= delta < 1.

    Witness selection is deterministic: epsilon as low as possible, then delta
    as high as possible, ties by element index.
    """
    return _split_witness(l, strong=True)


def splits(l: FiniteLattice):
    """Like splits_strongly, but the subintervals need not overlap."""
    return _split_witness(l, strong=False)


def is_modular(l: FiniteLattice) -> bool:
    """a <= c  implies  a v (b ^ c) = (a v b) ^ c, for all triples; one row
    a at a time, over [b, c] for the c above a."""
    L, M, J = l.leq, l.meet, l.join
    return all(
        bool((J[a][M[:, L[a]]] == M[np.ix_(J[a], L[a])]).all()) for a in range(l.size)
    )


def transposes_up(l: FiniteLattice, a: int, b: int, c: int, d: int) -> bool:
    """True iff I[a,b] transposes up to I[c,d]: a = b ^ c and b v c = d."""
    if not (l.leq[a, b] and l.leq[c, d]):
        raise InvalidInputError("arguments do not form intervals")
    return bool(l.meet[b, c] == a and l.join[b, c] == d)


def lattice_product(ls) -> FiniteLattice:
    """Componentwise product; element encoding is row-major over the factors."""
    ls = list(ls)
    if not ls:
        raise InvalidInputError("empty lattice product")
    coords = _grid([l.size for l in ls])
    leq = np.ones((len(coords[0]),) * 2, dtype=bool)
    for l, x in zip(ls, coords):
        leq &= l.leq[np.ix_(x, x)]
    return FiniteLattice(leq)
