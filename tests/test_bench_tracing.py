"""The traced benchmark run (bench/tracing.py) wraps congrex functions and
methods by name; ``Tracer.install`` fails on a name that no longer resolves
in its congrex module."""

import importlib.util
import json
from pathlib import Path

import congrex.cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: (Z4; x - y), not a group, so its Pol goes through clones.clone_closure
Z4_MINUS = {
    "name": "(Z4;x-y)",
    "size": 4,
    "operations": [
        {"name": "-", "arity": 2, "table": [(x - y) % 4 for x in range(4) for y in range(4)]}
    ],
}


#: the 3-element chain, as a lattice file: the split checks of an algebra
#: read its principal congruences, those of a lattice file its order
CHAIN_3 = {"size": 3, "leq": [[True, True, True], [False, True, True], [False, False, True]]}


def test_tracing_targets_resolve(capsys, tmp_path):
    z4_minus = tmp_path / "z4minus.json"
    z4_minus.write_text(json.dumps(Z4_MINUS))
    chain_3 = tmp_path / "chain3.json"
    chain_3.write_text(json.dumps(CHAIN_3))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert congrex.cli.main(["decide", "Z4"]) == 0
        assert congrex.cli.main(["comp", "Z4", "--max-arity", "1"]) == 0
        assert congrex.cli.main(["lattice", "Z2xZ2", "--check", "modular"]) == 0
        assert congrex.cli.main(["lattice", "Z4"]) == 0
        assert congrex.cli.main(["lattice", str(chain_3)]) == 0
        assert congrex.cli.main(["pol", "Z4", "--max-arity", "2"]) == 0
        assert congrex.cli.main(["pol", str(z4_minus), "--max-arity", "2"]) == 0
        assert congrex.cli.main(["witness", "Z4", "--up-to-n", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    assert {"cli", "analyzer.decide", "groups.structure_init"} <= names
    assert {"groups.normal_subgroups", "groups.split_normal_subgroup_lattice"} <= names
    assert "clones.comp_fragment" in names
    assert {"lattice.from_congruences", "lattice.init"} <= names
    assert {"lattice.is_modular", "lattice.split"} <= names
    assert {"clones.clone_closure", "clones.preserves_relation"} <= names
    assert "analyzer.check_centrality" in names
