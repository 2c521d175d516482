"""Per-job correctness checks for the benchmark.

Each check compares a job's exit code and stdout JSON with values that do
not depend on how the universe was labeled: verdicts, congruence and member
counts, whether a split witness exists, and the defining properties of the
witness objects.  Random algebras are checked against a brute-force search
over all partitions; clone closures against an exact subpower closure.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from workloads import INFINITE, NOT_APPLICABLE


def check(job, exit_code: int, stdout: str):
    """None when the output is correct, else a one-line reason."""
    want = job.expect.get("exit", 0)
    if exit_code != want:
        return f"exit code {exit_code}, expected {want}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    try:
        return CHECKS[job.expect["kind"]](job, payload)
    except (KeyError, TypeError, IndexError, ValueError, AttributeError) as exc:
        return f"malformed output: {exc!r}"


def _input(job) -> dict:
    return next(iter(job.inputs.values()))


# ---------------------------------------------------------------------------
# groups


def _abelian_verdict(p: int, exponents) -> str:
    from congrex.analyzer import decide_abelian_spec

    return decide_abelian_spec(p, exponents).verdict


def _normal_subgroup_problem(alg: dict, members) -> str | None:
    n = alg["size"]
    mul = next(op["table"] for op in alg["operations"] if op["arity"] == 2)
    h = set(members)
    if not h or any(x not in range(n) for x in h):
        return "subgroup has elements outside the universe"
    if any(mul[x * n + y] not in h for x in h for y in h):
        return "witness subgroup is not closed"
    identity = next(e for e in range(n) if all(mul[e * n + x] == x for x in range(n)))
    inv = [next(y for y in range(n) if mul[x * n + y] == identity) for x in range(n)]
    if any(mul[mul[g * n + x] * n + inv[g]] not in h for g in range(n) for x in h):
        return "witness subgroup is not normal"
    return None


def _check_decide_group(job, out):
    exp = job.expect
    alg = _input(job)
    n = alg["size"]
    if "abelian" in exp:
        p, exps = exp["abelian"]
        verdict = _abelian_verdict(p, exps)
        factors = [[p, n, verdict]]
    else:
        verdict = exp["verdict"]
        factors = exp.get("factors")
    if out["verdict"] != verdict:
        return f"verdict {out['verdict']}, expected {verdict}"
    diag = out["diagnostics"]
    if diag["order"] != n:
        return f"order {diag['order']}, expected {n}"
    if verdict == NOT_APPLICABLE:
        if diag["reason"] != "not-nilpotent":
            return f"reason {diag['reason']}"
        if diag["lower_central_series_orders"] != exp["lower_central_series"]:
            return "wrong lower central series"
        if out["lattice_witness"] is not None or out["factor_reports"]:
            return "witness or factors for a non-nilpotent group"
        return None
    got = [[r["prime"], r["order"], r["verdict"]] for r in out["factor_reports"]]
    if got != factors:
        return f"factor reports {got}, expected {factors}"
    if "normal_subgroups" in exp and diag["normal_subgroup_count"] != exp["normal_subgroups"]:
        return f"{diag['normal_subgroup_count']} normal subgroups"
    w = out["lattice_witness"]
    if (w is not None) != (verdict == INFINITE):
        return "witness presence does not match the verdict"
    if w is None:
        return None
    if diag["splits"] is not True:
        return "strong split without a split"
    delta, eps = set(w["delta_subgroup"]), set(w["epsilon_subgroup"])
    if not (eps <= delta and len(eps) > 1 and len(delta) < n):
        return "witness subgroups violate 1 < epsilon <= delta < G"
    return _normal_subgroup_problem(alg, delta) or _normal_subgroup_problem(alg, eps)


def _check_decide_product(job, out):
    exp = job.expect
    if out["verdict"] != exp["verdict"]:
        return f"verdict {out['verdict']}, expected {exp['verdict']}"
    if out["diagnostics"]["congruence_count"] != exp["count"]:
        return f"{out['diagnostics']['congruence_count']} congruences, expected {exp['count']}"
    got = [r["verdict"] for r in out["factor_reports"]]
    if got != exp["factors"]:
        return f"factor verdicts {got}"
    if exp["verdict"] == INFINITE and (
        out["lattice_witness"] is None or out["diagnostics"]["splits"] is not True
    ):
        return "infinite verdict without a split witness"
    return None


# ---------------------------------------------------------------------------
# congruences and lattices


def canonical(labels) -> tuple:
    """Restricted growth form: blocks numbered by first appearance."""
    seen = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


def from_blocks(size: int, blocks) -> tuple:
    labels = [None] * size
    for i, block in enumerate(blocks):
        for x in block:
            if labels[x] is not None:
                raise ValueError(f"element {x} in two blocks")
            labels[x] = i
    if None in labels:
        raise ValueError("blocks do not cover the universe")
    return canonical(labels)


_PARTITIONS = {}


def all_partitions(n: int) -> np.ndarray:
    """Every partition of 0..n-1 as a row of restricted growth labels."""
    if n not in _PARTITIONS:
        rows = []

        def grow(prefix, top):
            if len(prefix) == n:
                rows.append(prefix)
                return
            for lab in range(top + 2):
                grow(prefix + [lab], max(top, lab))

        grow([0], 0)
        _PARTITIONS[n] = np.array(rows, dtype=np.int8).reshape(-1, n)
    return _PARTITIONS[n]


def brute_congruences(alg: dict):
    """Every partition that each operation respects, one argument at a time."""
    n = alg["size"]
    labels = all_partitions(n)
    ok = np.ones(len(labels), dtype=bool)
    for x, y in itertools.combinations(range(n), 2):
        implied = set()
        for op in alg["operations"]:
            arity, table = op["arity"], op["table"]
            for pos in range(arity):
                for rest in itertools.product(range(n), repeat=arity - 1):
                    ix = iy = 0
                    for a in rest[:pos] + (x,) + rest[pos:]:
                        ix = ix * n + a
                    for a in rest[:pos] + (y,) + rest[pos:]:
                        iy = iy * n + a
                    u, v = table[ix], table[iy]
                    if u != v:
                        implied.add((min(u, v), max(u, v)))
        related = labels[:, x] == labels[:, y]
        for u, v in implied:
            ok &= ~related | (labels[:, u] == labels[:, v])
    return [tuple(int(v) for v in row) for row in labels[ok]]


def _refines(a, b) -> bool:
    image = {}
    return all(image.setdefault(x, y) == y for x, y in zip(a, b))


def _meet(a, b):
    return canonical(zip(a, b))


def _join(a, b):
    parent = list(range(len(a)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for part in (a, b):
        first = {}
        for x, lab in enumerate(part):
            root, other = find(x), find(first.setdefault(lab, x))
            if root != other:
                parent[root] = other
    return canonical(find(x) for x in range(len(a)))


def lattice_facts(congs):
    """(splits, splits strongly, modular) of a congruence lattice, by brute
    force over all pairs and triples."""
    bottom = min(congs, key=lambda c: -len(set(c)))
    top = min(congs, key=lambda c: len(set(c)))
    found = {False: False, True: False}
    for eps in congs:
        for delta in congs:
            if eps == bottom or delta == top:
                continue
            if all(_refines(a, delta) or _refines(eps, a) for a in congs):
                found[False] = True
                if _refines(eps, delta):
                    found[True] = True
    modular = all(
        _join(a, _meet(b, c)) == _meet(_join(a, b), c)
        for a, b, c in itertools.product(congs, repeat=3)
        if _refines(a, c)
    )
    return found[False], found[True], modular


def _check_con(job, out):
    alg = _input(job)
    n = alg["size"]
    if out["size"] != n:
        return f"size {out['size']}, expected {n}"
    got = [from_blocks(n, c) for c in out["congruences"]]
    if len(got) != out["count"] or len(set(got)) != len(got):
        return "count does not match the listed congruences"
    if job.expect.get("brute"):
        if set(got) != set(brute_congruences(alg)):
            return "congruences differ from the brute-force set"
        return None
    if len(got) != job.expect["count"]:
        return f"{len(got)} congruences, expected {job.expect['count']}"
    for c in got:
        sizes = {c.count(lab) for lab in set(c)}
        if len(sizes) != 1:
            return "a congruence of a group has blocks of unequal size"
    return None


def _check_lattice(job, out):
    exp = job.expect
    check_name = exp["check"]
    if out["check"] != check_name:
        return f"check {out['check']}, expected {check_name}"
    if exp.get("brute"):
        congs = brute_congruences(_input(job))
        weak, strong, modular = lattice_facts(congs)
        size = len(congs)
        want_split = strong if check_name == "splits-strongly" else weak
    else:
        modular = exp.get("modular")
        size = exp.get("size")
        want_split = exp.get("splits")
    if check_name == "modular":
        return None if out["result"] is modular else f"modular {out['result']}, expected {modular}"
    if out["size"] != size:
        return f"lattice size {out['size']}, expected {size}"
    if (out["witness"] is not None) != want_split:
        return f"split witness {out['witness']}, expected one: {want_split}"
    return None


def _check_skew(job, out):
    exp = job.expect
    count = exp["count"]
    skew = count - exp["product_count"]
    if out["congruence_count"] != count:
        return f"{out['congruence_count']} congruences, expected {count}"
    if out["skew_count"] != skew or len(out["skew_congruences"]) != skew:
        return f"{out['skew_count']} skew congruences, expected {skew}"
    if out["skew_free"] is not (skew == 0):
        return "skew_free contradicts the count"
    return None


# ---------------------------------------------------------------------------
# clones and witnesses


def _fragment_parts(out, size: int, max_arity: int):
    if out["universe_size"] != size or out["max_arity"] != max_arity:
        raise ValueError("fragment header does not match the input")
    parts = []
    for k in range(1, max_arity + 1):
        tables = [tuple(t) for t in out["members"][str(k)]]
        if any(len(t) != size**k or not set(t) <= set(range(size)) for t in tables):
            raise ValueError(f"malformed arity-{k} table")
        if len(set(tables)) != len(tables):
            raise ValueError(f"duplicate arity-{k} members")
        parts.append(set(tables))
    return parts


def _check_fragment(job, out):
    counts = job.expect["counts"]
    parts = _fragment_parts(out, _input(job)["size"], len(counts))
    got = [len(p) for p in parts]
    return None if got == counts else f"member counts {got}, expected {counts}"


def _check_tensor(job, out):
    want = job.expect["count"]
    if out["equal"] is not True:
        return "tensor of Pol fragments differs from Pol of the product"
    if out["tensor_member_count"] != want or out["product_member_count"] != want:
        return f"member counts {out['tensor_member_count']}/{out['product_member_count']}, expected {want}"
    return None


def _apply(table, size: int, args) -> int:
    idx = 0
    for a in args:
        idx = idx * size + a
    return table[idx]


def exact_clone_part(size: int, generators, arity: int) -> set:
    """The arity-k part of the clone generated by the generators: the
    subuniverse of the power A^(A^k) generated by the k projections."""
    points = list(itertools.product(range(size), repeat=arity))
    members = {tuple(p[i] for p in points) for i in range(arity)}
    frontier = set(members)
    while frontier:
        new = set()
        for gen in generators:
            for args in itertools.product(list(members), repeat=gen["arity"]):
                if not any(a in frontier for a in args):
                    continue
                v = tuple(
                    _apply(gen["table"], size, [a[j] for a in args])
                    for j in range(len(points))
                )
                if v not in members:
                    new.add(v)
        members |= new
        frontier = new
    return members


def _check_clone(job, out):
    """The closure runs at a bounded arity, which may miss members that the
    exact clone has (a documented limitation).  So the check accepts any
    result between the generators and the exact clone that is closed under
    identifying, swapping and adding variables."""
    spec = _input(job)
    size = spec["universe_size"]
    unary, binary = _fragment_parts(out, size, 2)
    pairs = list(itertools.product(range(size), repeat=2))
    for part, arity in ((unary, 1), (binary, 2)):
        if not part <= exact_clone_part(size, spec["functions"], arity):
            return f"arity-{arity} members outside the generated clone"
        points = list(itertools.product(range(size), repeat=arity))
        needed = {tuple(p[i] for p in points) for i in range(arity)}
        needed |= {tuple(f["table"]) for f in spec["functions"] if f["arity"] == arity}
        if not needed <= part:
            return f"arity-{arity} projections or generators missing"
    for f in binary:
        if tuple(_apply(f, size, (y, x)) for x, y in pairs) not in binary:
            return "not closed under swapping variables"
        if tuple(f[x * size + x] for x in range(size)) not in unary:
            return "not closed under identifying variables"
    for u in unary:
        if tuple(u[x] for x, _ in pairs) not in binary or tuple(u[y] for _, y in pairs) not in binary:
            return "not closed under adding a variable"
    return None


def _check_witness(job, out):
    exp = job.expect
    s, atom, up_to_n = exp["size"], exp["atom"], exp["up_to_n"]
    a, b = out["a"], out["b"]
    eps = from_blocks(s, out["epsilon"])
    delta = from_blocks(s, out["delta"])
    if a == b or eps[a] != eps[b]:
        return "(a, b) is not a non-diagonal epsilon pair"
    if {eps.count(lab) for lab in set(eps)} != {atom}:
        return f"epsilon blocks are not of the atom size {atom}"
    if not _refines(eps, delta) or len(set(delta)) < 2:
        return "epsilon <= delta < 1 fails"
    if out["centrality"] is not True:
        return "centrality fails"
    if out["rho_size"] != s * s * atom:
        return f"|rho| = {out['rho_size']}, expected {s * s * atom}"
    if out["commutator_witness_arity"] != 3 or len(out["commutator_witness_table"]) != s**3:
        return "commutator witness has the wrong shape"
    if sorted(out["family"]) != [str(n) for n in range(1, up_to_n + 1)]:
        return "family has the wrong arities"
    marked = {x for x in range(s) if delta[x] == delta[a]}
    for n in range(1, up_to_n + 1):
        table = [
            a if any(x in marked for x in args) else b
            for args in itertools.product(range(s), repeat=n)
        ]
        if out["family"][str(n)] != table:
            return f"family member of arity {n} is wrong"
        want = {"congruence_preserving": True, "constant_modulo_delta": True,
                "range": sorted(set(table))}
        if out["family_checks"][str(n)] != want:
            return f"family check of arity {n} failed"
    return None


CHECKS = {
    "decide-group": _check_decide_group,
    "decide-product": _check_decide_product,
    "con": _check_con,
    "lattice": _check_lattice,
    "skew": _check_skew,
    "fragment": _check_fragment,
    "tensor": _check_tensor,
    "clone": _check_clone,
    "witness": _check_witness,
}
