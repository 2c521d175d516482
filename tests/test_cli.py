import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from congrex import algebra, analyzer, cli, clones, groups, lattice
from congrex.algebra import FiniteAlgebra, Operation, Partition
from congrex.cli import build_parser, main
from congrex.groups import (
    GroupStructure,
    cyclic_group,
    group_from_cayley,
    quaternion_group,
    symmetric_group,
)
from congrex.lattice import chain

from conftest import (
    bitmask_normal_subgroups,
    loop_direct_product,
    pairwise_congruence_closure,
    q8_times_z3_cayley,
)
from test_acceptance import CORPUS_COMMANDS

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def stdout_under_hash_seeds(argv, cwd=None):
    """The CLI's stdout in two processes, under PYTHONHASHSEED 0 and 1."""
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "congrex.cli", *argv],
            cwd=cwd,
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_con_z4(capsys):
    code, out, _ = run(capsys, "con", "Z4")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert [[0, 2], [1, 3]] in payload["congruences"]


def test_con_from_json_file(tmp_path, capsys):
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(cyclic_group(4).to_json_dict()))
    code, out, _ = run(capsys, "con", str(path))
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_con_text_format(capsys):
    code, out, _ = run(capsys, "con", "Z4", "--format", "text")
    assert code == 0
    assert "3 congruences" in out


def test_con_text_lines_are_built_only_for_text(capsys, monkeypatch):
    code, out, _ = run(capsys, "con", "Z2xZ2", "--format", "text")
    assert code == 0
    assert out == (
        "Z2xZ2: 5 congruences\n"
        "Partition(0,1,2,3)\n"
        "Partition(0,1|2,3)\n"
        "Partition(0,2|1,3)\n"
        "Partition(0,3|1,2)\n"
        "Partition(0|1|2|3)\n"
    )

    def no_text(self):
        raise AssertionError("text line built for JSON output")

    monkeypatch.setattr(Partition, "__repr__", no_text)
    code, out, _ = run(capsys, "con", "Z2xZ2")
    assert code == 0 and json.loads(out)["count"] == 5


def test_lattice_checks(tmp_path, capsys):
    path = tmp_path / "chain3.json"
    path.write_text(json.dumps(chain(3).to_json_dict()))
    code, out, _ = run(capsys, "lattice", str(path), "--check", "splits-strongly")
    assert code == 0
    assert json.loads(out)["witness"] == {"delta": 1, "epsilon": 1}
    code, out, _ = run(capsys, "lattice", str(path), "--check", "modular")
    assert code == 0
    assert json.loads(out)["result"] is True


def test_lattice_reads_a_file_once(tmp_path, capsys, monkeypatch):
    paths = {"lattice": tmp_path / "chain3.json", "algebra": tmp_path / "minus4.json"}
    paths["lattice"].write_text(json.dumps(chain(3).to_json_dict()))
    minus_file(paths["algebra"], 4)
    expected = [run(capsys, "lattice", str(path)) for path in paths.values()]
    reads = []
    read_json = cli.read_json

    def counted(path):
        reads.append(path)
        return read_json(path)

    monkeypatch.setattr(cli, "read_json", counted)
    for path, out in zip(paths.values(), expected):
        reads.clear()
        assert run(capsys, "lattice", str(path)) == out
        assert reads == [str(path)]


def test_lattice_on_group_spec(capsys):
    code, out, _ = run(capsys, "lattice", "Z2xZ2", "--check", "splits")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 5
    # Con(Z2xZ2) is the diamond M3, which does not split at all
    assert payload["witness"] is None


@pytest.mark.parametrize(
    "spec,code,verdict",
    [
        ("Z4", 0, "infinitely-many"),
        ("Q8", 0, "infinitely-many"),
        ("Z2xZ2", 0, "finitely-many"),
        ("S3", 2, "not-applicable"),
    ],
)
def test_decide_single(capsys, spec, code, verdict):
    got, out, _ = run(capsys, "decide", spec)
    assert got == code
    assert json.loads(out)["verdict"] == verdict


def test_decide_refuses_group_with_extra_operation(tmp_path, capsys):
    swap01 = Operation("f", 1, [1, 0, 2, 3])
    alg = FiniteAlgebra(4, [cyclic_group(4).operation("+"), swap01], name="Z4f")
    path = tmp_path / "z4f.json"
    path.write_text(json.dumps(alg.to_json_dict()))
    code, out, _ = run(capsys, "decide", str(path))
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "not-applicable"
    assert payload["diagnostics"]["extra_operations"] == ["f"]
    code, out, _ = run(capsys, "con", str(path))
    assert json.loads(out)["count"] == 2


def test_decide_group_signature_file_matches_shortcut(tmp_path, capsys):
    alg = cyclic_group(4)
    alg.name = "from-file"
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(alg.to_json_dict()))
    code, out, _ = run(capsys, "decide", str(path))
    assert code == 0
    _, ref, _ = run(capsys, "decide", "Z4")
    assert out.replace('"from-file"', '"Z4"') == ref


def test_decide_product_cli(capsys):
    code, out, _ = run(capsys, "decide", "Z4", "Z3")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "infinitely-many"
    assert payload["route"] == "coprime-product-lattice"


def test_decide_product_takes_a_group_with_extra_operations_on_trust_only(tmp_path, capsys):
    # (Z4; +, -, 0, f) with f = [0, 0, 1, 1] is simple and f is not affine,
    # so it is not nilpotent although its order is a prime power
    paths = []
    for n, f in ((4, [0, 0, 1, 1]), (3, [0, 0, 0])):
        alg = cyclic_group(n)
        alg = FiniteAlgebra(n, [*alg.operations, Operation("f", 1, f)], name=f"Z{n}f")
        paths.append(tmp_path / f"z{n}f.json")
        paths[-1].write_text(json.dumps(alg.to_json_dict()))
    code, out, err = run(capsys, "decide", *map(str, paths))
    assert (code, out) == (1, "")
    assert "factor Z4f is not a group without other operations" in err
    assert "--assume-nilpotent-pp-factors" in err
    code, out, _ = run(capsys, "decide", *map(str, paths), "--assume-nilpotent-pp-factors")
    assert code == 0
    assert json.loads(out)["diagnostics"]["hypotheses"] == [
        f"nilpotency of factor Z{n}f asserted, not verified" for n in (4, 3)
    ]


def test_decide_product_non_coprime_is_error(capsys):
    code, _, err = run(capsys, "decide", "Z2", "Z2")
    assert code == 1
    assert "coprime" in err


def test_decide_mixed_shortcut_product(capsys):
    # Q8 x Z3: a non-abelian factor in one spec, and as two factors
    code, out, _ = run(capsys, "decide", "Q8xZ3")
    assert code == 0
    group = json.loads(out)
    code, out, _ = run(capsys, "decide", "Q8", "Z3")
    assert code == 0
    product = json.loads(out)
    assert group["verdict"] == product["verdict"] == "infinitely-many"
    normal = bitmask_normal_subgroups(GroupStructure(group_from_cayley(q8_times_z3_cayley())))
    assert group["diagnostics"]["normal_subgroup_count"] == len(normal) == 12
    # a group's congruences are its normal subgroups
    assert product["diagnostics"]["congruence_count"] == len(normal)


def loop_product_congruences(left, right):
    """Con(left x right) by the all-pairs join closure, on the tables of the
    product built one argument tuple at a time."""
    product = FiniteAlgebra(left.size * right.size, loop_direct_product(left, right))
    return pairwise_congruence_closure(product)


def blocks(congs):
    return [[list(b) for b in theta.blocks()] for theta in congs]


def test_con_of_a_mixed_shortcut_product(capsys):
    code, out, _ = run(capsys, "con", "Z2xS3")
    assert code == 0
    expected = loop_product_congruences(cyclic_group(2), symmetric_group(3))
    payload = json.loads(out)
    assert payload["count"] == len(expected) == 7
    assert payload["congruences"] == blocks(expected)


def test_skew_of_a_mixed_shortcut_product(capsys):
    code, out, _ = run(capsys, "skew", "Z2", "Q8")
    assert code == 0
    z2, q8 = cyclic_group(2), quaternion_group()
    congs = loop_product_congruences(z2, q8)
    # alpha x beta on the pairs (x, y), encoded x * 8 + y
    product = {
        Partition((alpha.block_id[x // 8], beta.block_id[x % 8]) for x in range(16))
        for alpha in pairwise_congruence_closure(z2)
        for beta in pairwise_congruence_closure(q8)
    }
    skew = [theta for theta in congs if theta not in product]
    payload = json.loads(out)
    assert payload["congruence_count"] == len(congs)
    assert payload["skew_count"] == len(skew) == 7
    assert payload["skew_congruences"] == blocks(skew)


def readme_cli_lines():
    """(argv, exit code) of each line of README's CLI block: the code its
    comment gives as "exit N", else 0."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "congrex", line
        code = re.search(r"exit (\d+)", comment)
        lines.append((argv, int(code.group(1)) if code else 0))
    return lines


README_CLI = readme_cli_lines()


@pytest.mark.parametrize("argv, code", README_CLI, ids=[" ".join(a) for a, _ in README_CLI])
def test_readme_cli_lines_exit_as_documented(capsys, argv, code):
    assert run(capsys, *argv)[0] == code


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "con", "Zfoo")
    assert code == 1
    assert "error" in err


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "con", "Z12", "--budget", "5")
    assert code == 3
    assert "budget" in err


def test_lattice_budget_and_force(capsys):
    code, _, err = run(capsys, "lattice", "Z2xZ2xZ2", "--budget", "1")
    assert code == 3
    assert "budget" in err
    code, out, _ = run(capsys, "lattice", "Z2xZ2xZ2", "--budget", "1", "--force")
    assert code == 0
    assert json.loads(out)["size"] == 16


@pytest.mark.parametrize("argv", [["pol", "Z4"], ["clone", "GENS"], ["tensor", "Z2", "Z3"]])
def test_force_is_a_usage_error_where_nothing_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--force"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the usage line is the subcommand's, which names the options it takes
    assert err.startswith(f"usage: congrex {argv[0]} [-h]")
    assert "unrecognized arguments: --force" in err


def test_force_is_offered_where_a_budget_or_limit_reads_it():
    parser = build_parser()
    for argv in (["con"], ["lattice"], ["decide"], ["witness"], ["comp"], ["skew", "Z2"]):
        assert parser.parse_args([*argv, "Z4", "--force"]).force


def test_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("CONGREX_BUDGET", "5")
    code, _, _ = run(capsys, "con", "Z12")
    assert code == 3


@pytest.mark.parametrize(
    "argv", [["decide", "Q8"], ["con", "Q8", "--force"], ["pol", "Z4"]]
)
def test_invalid_budget_env_is_one_error_line(capsys, monkeypatch, argv):
    monkeypatch.setenv("CONGREX_BUDGET", "banana")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: CONGREX_BUDGET is not an integer: 'banana'\n"


@pytest.mark.parametrize("argv", [["con", "Z4"], ["pol", "Z4"]])
def test_empty_budget_env_counts_as_unset(capsys, monkeypatch, argv):
    monkeypatch.delenv("CONGREX_BUDGET", raising=False)
    unset = run(capsys, *argv)
    monkeypatch.setenv("CONGREX_BUDGET", "")
    assert run(capsys, *argv) == unset
    assert unset[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["pol", "Z4"],
        ["comp", "Z4", "--max-arity", "1"],
        ["clone", "GENS"],
        ["tensor", "Z2", "Z3"],
        ["con", "Z4"],
    ],
    ids=["pol", "comp", "clone", "tensor", "con"],
)
@pytest.mark.parametrize("source", ["flag", "env"])
def test_zero_budget_is_refused(tmp_path, capsys, monkeypatch, argv, source):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"universe_size": 2, "functions": []}))
    argv = [str(gens) if a == "GENS" else a for a in argv]
    monkeypatch.delenv("CONGREX_BUDGET", raising=False)
    if source == "flag":
        argv.append("--budget=0")
    else:
        monkeypatch.setenv("CONGREX_BUDGET", "0")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: ")


#: the two-element Boolean ring with 1: comp at arity 1 has 2^2 = 4
#: candidates, and its congruence enumeration estimate is 8
BOOLEAN_RING = {
    "name": "B2",
    "size": 2,
    "operations": [
        {"name": "+", "arity": 2, "table": [0, 1, 1, 0]},
        {"name": "*", "arity": 2, "table": [0, 0, 0, 1]},
        {"name": "1", "arity": 0, "table": [1]},
    ],
}


@pytest.mark.parametrize("source", ["flag", "env"])
def test_comp_budget_reaches_the_congruence_stage(tmp_path, capsys, monkeypatch, source):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(BOOLEAN_RING))
    argv = ["comp", str(path), "--max-arity", "1"]
    monkeypatch.delenv("CONGREX_BUDGET", raising=False)
    unset = run(capsys, *argv)
    assert unset[0] == 0
    if source == "flag":
        argv.append("--budget=5")
    else:
        monkeypatch.setenv("CONGREX_BUDGET", "5")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "budget exceeded: congruence enumeration estimate 8 exceeds budget 5\n"
    assert run(capsys, *argv, "--force") == unset


def test_comp_budget_bounds_the_rows_of_each_level(tmp_path, capsys, monkeypatch):
    # B2 is simple, so its unary tables extend freely: level 1 holds 2
    # partial tables and level 2 holds 4; force lifts the estimate 8 only
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(BOOLEAN_RING))
    monkeypatch.delenv("CONGREX_BUDGET", raising=False)
    argv = ["comp", str(path), "--max-arity", "1", "--force"]
    code, out, err = run(capsys, *argv, "--budget", "3")
    assert (code, out) == (3, "")
    assert err == (
        "budget exceeded: comp enumeration needs at least 4 partial tables of 2 "
        "entries at arity 1; budget is 3 - lower the arity\n"
    )
    assert run(capsys, *argv, "--budget", "4")[0] == 0


def test_comp_budget_flag_takes_precedence_over_the_env_var(tmp_path, capsys, monkeypatch):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(BOOLEAN_RING))
    monkeypatch.delenv("CONGREX_BUDGET", raising=False)
    unset = run(capsys, "comp", "Z4", "--max-arity", "1")
    monkeypatch.setenv("CONGREX_BUDGET", "5")
    assert run(capsys, "comp", "Z4", "--max-arity", "1", "--budget", "300") == unset
    monkeypatch.setenv("CONGREX_BUDGET", "300")
    code, _, err = run(capsys, "comp", str(path), "--max-arity", "1", "--budget", "5")
    assert code == 3
    assert err == "budget exceeded: congruence enumeration estimate 8 exceeds budget 5\n"


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert run(capsys, "con", "Z4")[0] == 0
    assert run(capsys, "decide", "Z4")[0] == 0
    assert built.count("congrex") == 1


def test_witness_cli(capsys):
    code, out, _ = run(capsys, "witness", "Z4", "--up-to-n", "2", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == 0 and payload["b"] == 2
    assert payload["centrality"] is True


@pytest.mark.parametrize("up_to_n", ["0", "-1"])
def test_witness_refuses_up_to_n_below_one(capsys, monkeypatch, up_to_n):
    def fail(*args, **kwargs):
        raise AssertionError("congruences computed before the up_to_n check")

    monkeypatch.setattr(FiniteAlgebra, "all_congruences", fail)
    code, out, err = run(capsys, "witness", "Z4", "--up-to-n", up_to_n)
    assert (code, out, err) == (1, "", "error: up_to_n must be >= 1\n")


def test_witness_refuses_a_table_over_its_budget_before_any_congruence(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("congruences computed before the table budget check")

    monkeypatch.setattr(FiniteAlgebra, "all_congruences", fail)
    code, out, err = run(capsys, "witness", "Q8", "--k", "5")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: table of size 8^7 exceeds budget 1000000\n"
    assert run(capsys, "witness", "Z4", "--k", "0") == (1, "", "error: k must be >= 1\n")


def test_witness_refuses_non_nilpotent_group(capsys):
    code, out, err = run(capsys, "witness", "S3")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "not nilpotent" in err


def test_witness_on_non_group_algebra(tmp_path, capsys):
    sub = [(x - y) % 4 for x in range(4) for y in range(4)]
    path = tmp_path / "z4sub.json"
    alg = FiniteAlgebra(4, [Operation("-", 2, sub)], name="(Z4;x-y)")
    path.write_text(json.dumps(alg.to_json_dict()))
    code, out, _ = run(capsys, "witness", str(path), "--up-to-n", "2")
    assert code == 0
    payload = json.loads(out)
    assert (payload["a"], payload["b"]) == (0, 2)
    assert payload["centrality"] is True


def test_witness_refuses_an_algebra_without_malcev_term(tmp_path, capsys):
    # the 4-cycle (Z4; x+1): Con splits strongly, but a unary clone has no
    # Mal'cev term
    path = tmp_path / "cycle4.json"
    alg = FiniteAlgebra(4, [Operation("s", 1, [1, 2, 3, 0])], name="(Z4;x+1)")
    path.write_text(json.dumps(alg.to_json_dict()))
    code, out, err = run(capsys, "witness", str(path), "--up-to-n", "2")
    assert (code, out, err) == (2, "", "not applicable: (Z4;x+1) has no Mal'cev term\n")


def test_witness_refuses_a_centrality_check_over_its_limit(capsys):
    # Q8xZ3: |rho| = 1152, so the ternary member alone has 1152^3 choices
    start = time.monotonic()
    code, out, err = run(capsys, "witness", "Q8xZ3")
    assert time.monotonic() - start < 10
    assert (code, out) == (3, "")
    assert err == (
        "budget exceeded: centrality check estimate 1531480321 choices "
        "exceeds limit 100000000\n"
    )
    code, out, _ = run(capsys, "witness", "Q8xZ3", "--up-to-n", "2")
    assert code == 0 and json.loads(out)["centrality"] is True


def test_force_lifts_the_centrality_limit(capsys, monkeypatch):
    expected = run(capsys, "witness", "Z4")
    # Z4: |rho| = 32; the operations +, -, 0 and the members of arity 1-3
    estimate = 32**2 + 32 + 1 + 32 + 32**2 + 32**3
    monkeypatch.setattr(analyzer, "CENTRALITY_BUDGET", estimate - 1)
    code, _, err = run(capsys, "witness", "Z4")
    assert code == 3 and f"estimate {estimate} " in err
    assert run(capsys, "witness", "Z4", "--force") == expected
    monkeypatch.setattr(analyzer, "CENTRALITY_BUDGET", estimate)
    assert run(capsys, "witness", "Z4") == expected


def test_pol_and_comp_cli(capsys):
    code, out, _ = run(capsys, "pol", "Z4", "--max-arity", "1")
    assert code == 0
    assert len(json.loads(out)["members"]["1"]) == 16
    code, out, _ = run(capsys, "comp", "Z4", "--max-arity", "1")
    assert code == 0
    assert len(json.loads(out)["members"]["1"]) == 64


@pytest.mark.parametrize("command", ["comp", "pol"])
def test_max_arity_below_one_is_refused(capsys, command):
    code, out, err = run(capsys, command, "Z3", "--max-arity", "0")
    assert (code, out, err) == (1, "", "error: max_arity must be >= 1\n")


def test_pol_s3_at_arity_two_is_refused_before_its_members(capsys, monkeypatch):
    # |Pol_2(S3)| = 4,251,528: the Sims table passes the default cap of 10^6
    # before any binary member is listed
    monkeypatch.delenv("CONGREX_BUDGET", raising=False)
    widths = []
    members = clones._SimsTable.members

    def spy(table):
        widths.append(table.entries.shape[1])
        return members(table)

    monkeypatch.setattr(clones._SimsTable, "members", spy)
    code, out, err = run(capsys, "pol", "S3", "--max-arity", "2")
    assert (code, out) == (3, "")
    assert re.fullmatch(
        r"budget exceeded: polynomial clone has at least \d+ members up to arity 2, "
        r"above the member cap 1000000\n",
        err,
    )
    assert widths == [6]


def test_clone_cli(tmp_path, capsys):
    gens = {
        "universe_size": 2,
        "functions": [{"arity": 1, "table": [1, 0]}],
    }
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    code, out, _ = run(capsys, "clone", str(path), "--max-arity", "1")
    assert code == 0
    assert len(json.loads(out)["members"]["1"]) == 2


def test_clone_cli_applies_a_generator_above_max_arity(tmp_path, capsys):
    # x + y on {0, 1}: its unary members are x and x + x = 0
    gens = {"universe_size": 2, "functions": [{"arity": 2, "table": [0, 1, 1, 0]}]}
    path = tmp_path / "xor.json"
    path.write_text(json.dumps(gens))
    code, out, _ = run(capsys, "clone", str(path), "--max-arity", "1")
    assert code == 0
    assert json.loads(out)["members"] == {"1": [[0, 0], [0, 1]]}
    code, out, _ = run(capsys, "clone", str(path), "--max-arity", "1", "--format", "text")
    assert (code, out) == (0, "2 members\n")


def test_skew_cli(capsys):
    code, out, _ = run(capsys, "skew", "Z2", "Z2")
    assert code == 0
    payload = json.loads(out)
    assert payload["skew_count"] == 1
    assert payload["skew_free"] is False
    code, out, _ = run(capsys, "skew", "Z2", "Z3")
    assert json.loads(out)["skew_free"] is True


def test_tensor_cli(capsys):
    code, out, _ = run(capsys, "tensor", "Z2", "Z3", "--max-arity", "2")
    assert code == 0
    assert json.loads(out)["equal"] is True
    assert '"equal": true' in out


def test_missing_file_is_error(capsys):
    code, _, err = run(capsys, "clone", "/no/such/file.json")
    assert code == 1


@pytest.mark.parametrize(
    "command,content",
    [
        ("clone", "{not json"),
        ("clone", json.dumps({"functions": [{"arity": 1, "table": [1, 0]}]})),
        ("lattice", "{not json"),
        ("con", json.dumps({"size": 2, "operations": [{"name": "f", "arity": 1, "table": [1.5, 0]}]})),
        ("con", json.dumps({"size": 2, "operations": [{"name": "f", "arity": 1, "table": [1.0, 0]}]})),
        ("con", json.dumps({"size": 2.0, "operations": [{"name": "f", "arity": 1, "table": [1, 0]}]})),
        ("clone", json.dumps({"universe_size": 2.0, "functions": [{"arity": 1, "table": [1, 0]}]})),
        ("clone", json.dumps({"universe_size": 2, "functions": [{"arity": 1, "table": [1.0, 0]}]})),
        ("lattice", json.dumps({"leq": [[1, "no"], [0, 1]]})),
        ("lattice", json.dumps({"size": 3, "leq": [[True, True], [False, True]]})),
    ],
    ids=[
        "clone-invalid-json",
        "clone-no-universe-size",
        "lattice-invalid-json",
        "con-fractional-entry",
        "con-float-entry",
        "con-float-size",
        "clone-float-universe-size",
        "clone-float-entry",
        "lattice-non-boolean-entry",
        "lattice-size-mismatch",
    ],
)
def test_malformed_input_is_error(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    path.write_text(content)
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _algebra_json(arity, table):
    return {"size": 2, "operations": [{"name": "f", "arity": arity, "table": table}]}


def _clone_json(arity, table):
    return {"universe_size": 2, "functions": [{"arity": arity, "table": table}]}


@pytest.mark.parametrize(
    "command,data,message",
    [
        ("con", _algebra_json(1, "01"), "operation 'f': table entry is not an integer: '0'"),
        ("clone", _clone_json(1, "01"), "table entry is not an integer: '0'"),
        ("con", _algebra_json(1, [[0], [1]]), "operation 'f': table entry is not an integer: [0]"),
        ("clone", _clone_json(2, [[0, 1], [1, 0]]), "table length 2 != 2^2"),
        ("con", _algebra_json(1, [0, 1, 1]), "operation 'f': table length 3 != 2^1"),
        ("clone", _clone_json(1, [0, 2]), "entry out of range"),
        ("con", _algebra_json(1, [True, 0]), "operation 'f': table entry is not an integer: True"),
        ("clone", {"universe_size": 0, "functions": []}, "universe must be nonempty"),
        ("clone", {"universe_size": -2, "functions": []}, "universe must be nonempty"),
    ],
    ids=["con-string", "clone-string", "con-nested", "clone-nested", "con-length",
         "clone-range", "con-bool", "clone-empty-universe", "clone-negative-universe"],
)
def test_malformed_tables_are_refused_with_their_messages(tmp_path, capsys, command, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert run(capsys, command, str(path)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "Z4"],
        ["decide", "Z4", "Z3"],
        ["con", "Q8"],
        ["lattice", "Z4", "--check", "splits-strongly"],
        ["pol", "Z4", "--max-arity", "1"],
        ["skew", "Z2", "Z2"],
        ["witness", "Z4"],
    ],
)
def test_repeated_runs_are_byte_identical(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize(
    "inputs",
    [["Z4xZ2"], ["Q8xZ3.json"], ["Z4", "Z9"], ["Z2xZ2xZ2xZ2"]],
    ids=["p-group", "Q8xZ3", "coprime", "Z2^4"],
)
def test_decide_stdout_does_not_depend_on_hash_seed(tmp_path, inputs):
    group = group_from_cayley(q8_times_z3_cayley(), name="Q8xZ3")
    (tmp_path / "Q8xZ3.json").write_text(json.dumps(group.to_json_dict()))
    first, second = stdout_under_hash_seeds(["decide", *inputs], cwd=tmp_path)
    assert first == second


@pytest.mark.parametrize("argv", [["tensor", "Z2", "Z3"], ["witness", "Z4"]])
def test_budget_reaches_tensor_and_witness(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget", "1")
    assert code == 3
    assert "budget" in err
    assert out == ""


def test_witness_force_overrides_budget(capsys):
    forced = run(capsys, "witness", "Z4", "--budget", "1", "--force")
    assert forced[:2] == run(capsys, "witness", "Z4")[:2]
    assert forced[0] == 0


def test_con_z2_to_the_fifth_within_default_budget(capsys):
    code, out, _ = run(capsys, "con", "Z2xZ2xZ2xZ2xZ2")
    assert code == 0
    assert json.loads(out)["count"] == 374


@pytest.mark.parametrize(
    "argv",
    [
        ["con", "Z2xZ4"],
        ["lattice", "Z2xZ2xZ2", "--check", "splits"],
        ["skew", "Z4", "Z2"],
        ["pol", "Z4", "--max-arity", "2"],
        ["comp", "Z4", "--max-arity", "1"],
        ["clone", "gens.json", "--max-arity", "2"],
        ["tensor", "Z2", "Z3"],
        ["witness", "Z4"],
        ["con", "Z2xZ2xZ2xZ2"],
        ["lattice", "Z2xZ2xZ2xZ2", "--check", "splits"],
    ],
    ids=[
        "con",
        "lattice",
        "skew",
        "pol",
        "comp",
        "clone",
        "tensor",
        "witness",
        "con-Z2^4",
        "lattice-Z2^4",
    ],
)
def test_congruence_stdout_does_not_depend_on_hash_seed(tmp_path, argv):
    # for clone: x -> y and a unary constant on two elements
    gens = {
        "universe_size": 2,
        "functions": [
            {"arity": 2, "table": [1, 1, 0, 1]},
            {"arity": 1, "table": [0, 0]},
        ],
    }
    (tmp_path / "gens.json").write_text(json.dumps(gens))
    first, second = stdout_under_hash_seeds(argv, cwd=tmp_path)
    assert first == second


def test_decide_product_honours_budget_and_force(capsys):
    code, out, err = run(capsys, "decide", "Z8", "Z9", "--budget", "1")
    assert (code, out) == (3, "")
    assert "budget" in err
    forced = run(capsys, "decide", "Z8", "Z9", "--budget", "1", "--force")
    assert forced[:2] == run(capsys, "decide", "Z8", "Z9")[:2]
    assert forced[0] == 0


def test_decide_group_honours_the_budget_flag(capsys, monkeypatch):
    monkeypatch.delenv("CONGREX_BUDGET", raising=False)
    code, out, err = run(capsys, "decide", "Z4", "--budget", "0")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: congruence enumeration estimate 48 exceeds budget 0\n"
    code, out, err = run(capsys, "decide", "Z2xZ2xZ2xZ2xZ2xZ2", "--budget", "10")
    assert (code, out) == (3, "")
    assert "estimate 258048 exceeds budget 10" in err


def test_decide_group_honours_the_budget_variable(capsys, monkeypatch):
    monkeypatch.setenv("CONGREX_BUDGET", "0")
    code, out, err = run(capsys, "decide", "Z4")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: congruence enumeration estimate 48 exceeds budget 0\n"


def test_decide_group_forced_past_the_budget_prints_the_default_output(capsys, monkeypatch):
    for spec in ("Z4", "Z8xZ9"):  # Z8xZ9 also decides its two Sylow factors
        monkeypatch.delenv("CONGREX_BUDGET", raising=False)
        default = run(capsys, "decide", spec)
        assert default[0] == 0
        assert run(capsys, "decide", spec, "--budget", "0", "--force") == default
        monkeypatch.setenv("CONGREX_BUDGET", "0")
        assert run(capsys, "decide", spec, "--force") == default
    monkeypatch.delenv("CONGREX_BUDGET")
    # Z2^7: the estimate 128^2 * 127 is beyond the default budget
    code, out, err = run(capsys, "decide", "Z2xZ2xZ2xZ2xZ2xZ2xZ2")
    assert (code, out) == (3, "")
    assert "estimate 2080768 exceeds budget 1000000" in err


def test_decide_group_tests_nilpotency_before_the_budget(capsys, monkeypatch):
    monkeypatch.setenv("CONGREX_BUDGET", "0")
    code, out, _ = run(capsys, "decide", "S5", "--budget", "0")
    assert code == 2
    assert json.loads(out)["diagnostics"]["reason"] == "not-nilpotent"


def test_comp_refuses_before_any_preservation_check(capsys):
    # Z3 is simple: 3^14 partial tables of arity 3 are built, and the 3^15
    # of the next level are refused at the first block of 2^13 parent rows,
    # 3 * 2^13 children each, that takes the count past the budget
    code, out, err = run(capsys, "comp", "Z3", "--max-arity", "3")
    assert (code, out) == (3, "")
    assert err == (
        "budget exceeded: comp enumeration needs at least 10002432 partial tables of 15 "
        "entries at arity 3; budget is 10000000 - lower the arity\n"
    )


def test_comp_runs_no_join_closure(capsys, monkeypatch):
    expected = run(capsys, "comp", "Z4", "--max-arity", "1")
    assert expected[0] == 0

    def fail(*args, **kwargs):
        raise AssertionError("comp ran the congruence join closure")

    monkeypatch.setattr(FiniteAlgebra, "congruence_rows", fail)
    monkeypatch.setattr(FiniteAlgebra, "all_congruences", fail)
    monkeypatch.setattr(algebra, "_join_rows", fail)
    assert run(capsys, "comp", "Z4", "--max-arity", "1") == expected
    code, out, _ = run(capsys, "comp", "Q8", "--max-arity", "1")
    assert code == 0 and len(json.loads(out)["members"]["1"]) == 2048


def minus_file(path, n):
    """(Z_n; x - y) as an algebra file: no group, the congruences of Z_n."""
    table = [(x - y) % n for x in range(n) for y in range(n)]
    op = {"name": "-", "arity": 2, "table": table}
    path.write_text(json.dumps({"size": n, "operations": [op]}))
    return str(path)


#: commands whose split is delta_eps from the principal congruences; "M4"
#: and "M3" stand for the files of (Z4; x - y) and (Z3; x - y)
SPLIT_COMMANDS = [
    ["witness", "Q8", "--up-to-n", "2"],
    ["witness", "M4"],
    ["decide", "Z4", "Z3"],
    ["decide", "Z8", "Z9"],
    ["decide", "M4", "M3", "--assume-nilpotent-pp-factors"],
    ["lattice", "Z2xZ8", "--check", "splits"],
    ["lattice", "Q8", "--check", "splits-strongly"],
    ["lattice", "M4", "--check", "splits-strongly"],
]


def test_split_commands_build_no_lattice(tmp_path, capsys, monkeypatch):
    files = {f"M{n}": minus_file(tmp_path / f"m{n}.json", n) for n in (3, 4)}
    argvs = [[files.get(a, a) for a in argv] for argv in SPLIT_COMMANDS]
    expected = [run(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in expected] == [0] * len(argvs)

    def fail(*args, **kwargs):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(lattice.FiniteLattice, "__init__", fail)
    monkeypatch.setattr(lattice, "from_congruences", fail)
    monkeypatch.setattr(cli, "from_congruences", fail)
    assert [run(capsys, *argv) for argv in argvs] == expected
    # witness computes the principal congruences only, no join closure
    monkeypatch.setattr(FiniteAlgebra, "congruence_rows", fail)
    for argv, out in zip(argvs, expected):
        if argv[0] == "witness":
            assert run(capsys, *argv) == out


#: commands over Con(A) of 67 (Z2^4) to 374 (Z2^5) congruences
CON_COMMANDS = [
    ["con", "Z2xZ2xZ2xZ2xZ2"],
    ["lattice", "Z2xZ2xZ2xZ2", "--check", "modular"],
    ["lattice", "Z2xZ2xZ2xZ2", "--check", "splits"],
    ["skew", "Z2xZ2", "Z2xZ2"],
    ["decide", "Z8", "Z9"],
]


def test_congruence_commands_build_no_partition_per_congruence(capsys, monkeypatch):
    built = []
    init = Partition.__init__

    def counted(self, labels):
        built.append(None)
        init(self, labels)

    monkeypatch.setattr(Partition, "__init__", counted)
    for argv in CON_COMMANDS:
        built.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        # two projection kernels per direct product of a shortcut, their
        # meet and join, and one per skew congruence printed
        assert len(built) <= 10 + json.loads(out).get("skew_count", 0), argv


def test_witness_answers_where_only_the_join_closure_was_over_budget(tmp_path, capsys):
    # every partition of a set without operations is a congruence: 115,975
    # of them on 10 elements, but 45 principal ones, each an atom
    path = tmp_path / "set10.json"
    path.write_text(json.dumps({"size": 10, "operations": []}))
    code, out, err = run(capsys, "witness", str(path))
    assert (code, out) == (1, "")
    assert err == "error: congruence lattice does not split strongly\n"


@pytest.mark.parametrize("command", ["con", "lattice"])
def test_join_closure_refuses_a_large_set_without_operations(tmp_path, capsys, command):
    # 19,900 principal congruences, each an atom below 19,899 others: the
    # estimate 200^2 passes and the joins of the first atoms pass the budget
    path = tmp_path / "set200.json"
    path.write_text(json.dumps({"size": 200, "operations": []}))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (3, "")
    assert err == "budget exceeded: congruence join closure exceeded budget 1000000\n"


def test_witness_budget_refusal_comes_from_the_principal_estimate(capsys):
    # Z4 has 16 pairs and 4 translations other than the identity
    code, out, err = run(capsys, "witness", "Z4", "--budget", "1")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: congruence enumeration estimate 64 exceeds budget 1\n"


#: commands with the number of algebras whose principal congruences they
#: need: a group's (G; *) reduct and, unless it is a p-group, that of each
#: Sylow factor; each factor of a product and each product folded
PRINCIPAL_ROW_COMMANDS = [
    (["decide", "Q8"], 1),
    (["decide", "Q8xZ3"], 3),
    (["decide", "Z8xZ9"], 3),
    (["decide", "Z4", "Z9"], 3),
    (["decide", "Z2", "Z3", "Z5"], 5),
    (["lattice", "Z2xZ8", "--check", "splits"], 1),
    (["lattice", "Q8", "--check", "splits-strongly"], 1),
    (["witness", "Q8", "--up-to-n", "2"], 1),
]


@pytest.mark.parametrize(
    "argv, algebras", PRINCIPAL_ROW_COMMANDS, ids=[" ".join(a) for a, _ in PRINCIPAL_ROW_COMMANDS]
)
def test_principal_rows_are_computed_once_per_algebra(capsys, monkeypatch, argv, algebras):
    computed = []
    principal_rows = algebra._principal_rows

    def spy(translations, *args):
        computed.append(translations)  # kept alive, so no two ids are equal
        return principal_rows(translations, *args)

    monkeypatch.setattr(algebra, "_principal_rows", spy)
    assert run(capsys, *argv)[0] == 0
    # an algebra passes the translation array it keeps, so a second
    # computation on one algebra would repeat an id
    assert len({id(t) for t in computed}) == len(computed) == algebras


@pytest.mark.parametrize(
    "argv, code, series",
    [
        (["decide", "Q8"], 0, 0),
        (["decide", "Z8"], 0, 0),
        (["decide", "Z4", "Z9"], 0, 0),
        (["witness", "Z4"], 0, 0),
        (["decide", "S4"], 2, 1),
        (["decide", "Q8xZ3"], 0, 1),
    ],
)
def test_lower_central_series_is_computed_only_off_prime_power_orders(
    capsys, monkeypatch, argv, code, series
):
    # a group of prime-power order is nilpotent; S4 computes its series
    # once, for the orders it prints
    calls = []
    lower_central_series = groups.lower_central_series

    def spy(g):
        calls.append(g.size)
        return lower_central_series(g)

    for module in (groups, analyzer):
        monkeypatch.setattr(module, "lower_central_series", spy)
    assert run(capsys, *argv)[0] == code
    assert len(calls) == series


@pytest.mark.parametrize(
    "argv, estimate",
    [
        (["decide", "Q8xZ3", "--budget", "5"], 23616),
        (["decide", "Z4", "Z9", "--budget", "1"], 46656),
        (["lattice", "Z2xZ8", "--check", "splits", "--budget", "1"], 4096),
    ],
)
def test_principal_estimate_refuses_at_the_first_computation(capsys, argv, estimate):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    message = f"congruence enumeration estimate {estimate} exceeds budget {argv[-1]}"
    assert err == f"budget exceeded: {message}\n"


def test_decide_group_and_its_coprime_factors_name_the_same_epsilon(capsys):
    # both try the atoms of Con(Z4 x Z9) in the order of the sorted
    # congruence list, so both name the cosets of {0, 3, 6}
    code, out, _ = run(capsys, "decide", "Z4xZ9")
    assert code == 0
    assert json.loads(out)["lattice_witness"]["epsilon_subgroup"] == [0, 3, 6]
    code, out, _ = run(capsys, "decide", "Z4", "Z9")
    assert code == 0
    eps = json.loads(out)["lattice_witness"]["epsilon"]
    congs = json.loads(run(capsys, "con", "Z4xZ9")[1])["congruences"]
    # (x, y) of Z4 x Z9 is 9x + y, so {0, 3, 6} is {(0, 0), (0, 3), (0, 6)}
    assert congs[eps] == [[c, c + 3, c + 6] for c in range(36) if c % 9 < 3]


def test_group_shortcut_is_checked_once(capsys, monkeypatch):
    built = []
    init = GroupStructure.__init__

    def counted_init(self, alg):
        built.append(alg.size)
        init(self, alg)

    monkeypatch.setattr(GroupStructure, "__init__", counted_init)
    assert run(capsys, "decide", "Q8")[0] == 0
    assert built == [8]


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps(payload, sort_keys=True, indent=2)


def emitted(payload) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.emit(payload, "json")
    return buf.getvalue()


big_ints = st.integers(-(2**70), 2**70)
int_rows = st.lists(big_ints, max_size=5)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    big_ints,
    st.floats(),
    st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")]),
    st.text(),  # escapes, control characters and non-ASCII
    int_rows,
    int_rows.map(tuple),
    st.lists(int_rows | int_rows.map(tuple), max_size=4),
)
payloads = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
        st.dictionaries(big_ints, inner, max_size=3),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_emit_writes_the_text_of_json_dumps(payload):
    assert emitted(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


WIDE = [[(7 * i + j) % 5 for j in range(27)] for i in range(40)]


@pytest.mark.parametrize(
    "payload",
    [
        [], {}, [[]], [[], [1]], [True, 1], [[1, 2], [False]], [1.0, 2], {"": [[0]]}, (("a",),),
        pytest.param(
            {"members": {"1": WIDE[:3], "2": WIDE}, "max_arity": 2, "universe_size": 5},
            id="fragment-layout",
        ),
        pytest.param({"a": {"b": [WIDE, WIDE[:1]]}}, id="nested-wide-matrices"),
        [[1], [2], [3]],
        [[2**63, -(2**63) - 1], [2**70, 0], [-(2**70), 2**63 - 1]],
        [[0, 1], [True, 0]],
        [[0, 1], [1, 0.5]],
        [[1, 2], [3], [4, 5]],
        [[1, 2], []],
        [(1, 2), [3, 4]],
        ((1, 2), (3, 4)),
        {"x": ([0, 1], (2, 3), [4, 5])},
        {"m": [[[1, 2]], [[3, 4], [5, 6]], ([7, 8, 9],)]},
        [[[1, 2]], [[3, 4], [5, True]]],
        [[[1, 2]], [[3, 4], [5]]],
        [[[1, 2]], [[3, 4], [5, 2**63]]],
        [[[1, 2]], []],
        [[[1, 2]], [[]]],
    ],
    ids=repr,
)
def test_emit_keeps_the_layout_of_mixed_and_empty_containers(payload):
    assert emitted(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def larger_arrays(dtype, values):
    shapes = st.tuples(st.integers(1, 40), st.integers(1, 12))
    return hnp.arrays(dtype, shapes, elements=st.sampled_from(values))


#: 2-D int arrays of the dtypes a fragment part may have and wider ones,
#: with widths that cross a power of ten and negative values
int_arrays = st.one_of(
    hnp.arrays(
        st.sampled_from([np.uint8, np.int16, np.int32, np.int64]),
        st.tuples(st.integers(0, 3), st.integers(1, 3)),
    ),
    larger_arrays(np.uint8, [0, 1, 9, 10, 11, 99, 100, 255]),
    larger_arrays(np.int16, [-1001, -1000, -999, -10, -9, -1, 0, 1, 9, 10, 99, 100]),
    larger_arrays(np.int32, range(-12, 12)),
    larger_arrays(np.int64, [-(2**63), 2**63 - 1, -(10**18), 10**18 - 1, 0, 7]),
)
array_payloads = st.recursive(
    int_arrays | json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(array_payloads)
def test_emit_writes_int_arrays_as_json_dumps_writes_their_lists(payload):
    expected = json.dumps(payload, default=np.ndarray.tolist, sort_keys=True, indent=2)
    assert emitted(payload) == expected + "\n"


@pytest.mark.parametrize(
    "payload",
    [
        np.zeros((0, 3), dtype=np.uint8),
        np.zeros((2, 0), dtype=np.int64),
        {"a": np.zeros((3, 0), dtype=np.int16), "b": [np.zeros((0, 0), dtype=np.uint8)]},
        np.array([[2**64 - 1, 0], [2**63, 5]], dtype=np.uint64),
        np.arange(-300, 300, dtype=np.int16).reshape(20, 30),
        np.arange(-128, 127, dtype=np.int8).reshape(15, 17)[::-1],
        [np.array([[1, 22]]), [[333, 4], [5, 6]], [[[7]], [[8, 9]]]],
    ],
    ids=repr,
)
def test_emit_writes_empty_wide_and_nested_int_arrays(payload):
    expected = json.dumps(payload, default=np.ndarray.tolist, sort_keys=True, indent=2)
    assert emitted(payload) == expected + "\n"


#: the labels of one to six partitions of {0, ..., n-1}, 1 <= n <= 12
label_lists = st.integers(1, 12).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=1, max_size=6
    )
)


@settings(max_examples=200, deadline=None)
@given(label_lists, st.integers(0, 2))
def test_emit_writes_partition_blocks_as_json_dumps_writes_their_lists(labels, nesting):
    rows = np.array([Partition(row).least for row in labels])
    payload = cli.PartitionBlocks(rows)
    for _ in range(nesting):
        payload = {"x": [payload]}
    expected = json.dumps(payload, default=lambda o: o.tolist(), sort_keys=True, indent=2)
    assert emitted(payload) == expected + "\n"


EMIT_COMMANDS = [
    *CORPUS_COMMANDS,
    ["comp", "Z3", "--max-arity", "2"],
    ["con", "Z2xZ2xZ2xZ2xZ2"],
    ["witness", "Q8"],
    ["pol", "Z12", "--max-arity", "1"],
]


@pytest.mark.parametrize("argv", EMIT_COMMANDS, ids=" ".join)
def test_cli_prints_the_json_dumps_text_of_its_payload(capsys, monkeypatch, argv):
    payloads = []
    emit = cli.emit

    def spy(payload, fmt, text_lines=None):
        payloads.append(payload)
        emit(payload, fmt, text_lines)

    monkeypatch.setattr(cli, "emit", spy)
    code, out, _ = run(capsys, *argv)
    assert len(payloads) == 1
    if argv[0] in ("comp", "pol"):
        # fragment parts reach the writer as arrays, not as lists of rows
        parts = payloads[0]["members"].values()
        assert parts and all(type(part) is np.ndarray for part in parts)
    # a payload value that is not JSON, a 2-D int array or the blocks of
    # Con(A) (cli.PartitionBlocks), stands for its tolist()
    expected = json.dumps(payloads[0], default=lambda o: o.tolist(), sort_keys=True, indent=2)
    expected += "\n"
    # by lines, so that a failure names the first differing line quickly
    # instead of diffing megabytes of text
    assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)


def test_unencodable_payload_raises_and_prints_nothing(capsys):
    # the writer takes no numpy scalar and no array but a 2-D int one; the
    # rows and the array sort before the bad value, so they are built first
    for bad in [
        np.int64(1),
        np.array([[True, False]]),
        np.array([[0.5, 1.0]]),
        np.array([[1, "a"]], dtype=object),
        np.arange(3),
        np.zeros((2, 2, 2), dtype=np.int64),
    ]:
        payload = {"a": [[0, 1], [1, 0]], "b": np.eye(2, dtype=np.uint8), "z": bad}
        with pytest.raises(TypeError):
            json.dumps(bad)
        with pytest.raises(TypeError):
            cli.emit(payload, "json")
        assert capsys.readouterr().out == ""
