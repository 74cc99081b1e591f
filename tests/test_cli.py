import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxfree
from coxfree import cli


class TestMalformedInputExitsTwo:
    def test_empty_weyl_family(self):
        assert cli.run(["--quiet", "weyl", "info", ""]) == 2

    def test_attachment_outside_the_symbol(self):
        assert cli.run(["--quiet", "tf", "build", "--psi", "E8", "--nodes", "9"]) == 2

    def test_nan_infinite_edge_value(self, tmp_path):
        path = tmp_path / "symbol.json"
        path.write_text(json.dumps({"nodes": ["a", "b"], "edges": [["a", "b", "inf"]]}))
        assert cli.run(["--quiet", "symbol", "signature", "--file", str(path), "--inf", "nan"]) == 2
        assert cli.run(["--quiet", "symbol", "signature", "--file", str(path), "--inf", "-2"]) == 0

    @pytest.mark.parametrize("edge", [["a", ["b"], 3], [{"x": 1}, "b", 3]])
    @pytest.mark.parametrize("verb", ["symbol classify", "symbol euler", "symbol signature",
                                      "involutions classes"])
    def test_unhashable_edge_endpoint(self, tmp_path, capsys, edge, verb):
        path = tmp_path / "symbol.json"
        path.write_text(json.dumps({"nodes": ["a", "b"], "edges": [edge]}))
        assert cli.run(["--quiet", *verb.split(), "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: edge endpoints must be strings")


A3_SYMBOL = {"nodes": ["a", "b", "c"], "edges": [["a", "b", 3], ["b", "c", 3]]}
DANGLING_EDGE = {"nodes": ["a", "b"], "edges": [["a", "z", 3]]}


class TestExitCodesForEveryVerb:
    # {a3} and {bad} name symbol files: A3, and an edge to a missing node.
    @pytest.mark.parametrize("command,code", [
        ("symbol classify --file {a3}", 0),
        ("symbol euler --file {bad}", 2),
        ("weyl info E8", 0),
        ("weyl info B 1", 2),
        ("weyl info E6 0", 2),  # rank 0 is a rank, not an absent one
        ("modtwo admissible E8", 0),
        ("modtwo weight E8 --node 9", 2),
        ("modtwo dpsi G2 0", 2),
        ("involutions classes --file {a3}", 0),
        ("involutions classes --file {bad}", 2),
        ("tf build --psi E6 --nodes 1", 0),
        ("tf build --psi A 4 --nodes 1 1", 2),
        ("tf build --psi D 8 2", 2),  # a Weyl type is a family and at most a rank
        ("tf certify --psi A 1 2 3", 2),
        ("tf certify --psi E6 --nodes 1", 0),
        ("tf certify --psi E6 --nodes 1 --mode plain", 2),
        ("tf extend --psi E6 --nodes 1", 0),
        ("tf extend --psi A 4", 2),
        # With no pendant the kernel is trivial, so the extension is <zeta>
        # itself, which has torsion; the trivial kernel is torsion free.
        ("tf extend --psi E6", 1),
        ("tf certify --psi E6", 0),
        ("geometry volume 4", 0),
        ("geometry volume 5", 2),
    ])
    def test_exit_code(self, tmp_path, capsys, command, code):
        a3, bad = tmp_path / "a3.json", tmp_path / "bad.json"
        a3.write_text(json.dumps(A3_SYMBOL))
        bad.write_text(json.dumps(DANGLING_EDGE))
        assert cli.run(["--quiet", *command.format(a3=a3, bad=bad).split()]) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert out == "" and err.startswith("error: ")
        else:
            payload = json.loads(out)
            if code == 1:  # a failed check still prints its certificate
                assert payload["ok"] is False and err == ""


class TestRemovedFlags:
    def test_top_level_json_flag_is_gone(self):
        assert cli.run(["--quiet", "--json", "weyl", "info", "E8"]) == 2

    def test_geometry_dim_flag_is_gone(self):
        assert cli.run(["--quiet", "geometry", "volume", "4", "--dim", "6"]) == 2
        assert cli.run(["--quiet", "geometry", "covol", "--dim", "6"]) == 2

    def test_involutions_symbol_flag_is_gone(self, tmp_path):
        # --file is the one flag that names the symbol file.
        path = tmp_path / "a3.json"
        path.write_text(json.dumps(A3_SYMBOL))
        assert cli.run(["--quiet", "involutions", "classes", "--symbol", str(path)]) == 2
        assert cli.run(["--quiet", "involutions", "classes", "--file", str(path)]) == 0

    def test_positional_dimension(self, capsys):
        # (2^3 - 1) pi^3 / 6! * |B2 B4 B6| = 7/720 * 1/6 * 1/30 * 1/42.
        assert cli.run(["--quiet", "geometry", "covol", "6"]) == 0
        assert capsys.readouterr().out == (
            '{"covol":{"den":777600,"num":1,"pi_power":3},"dim":6,"route":"siegel"}\n')


# sha256 of the quiet stdout of coxfree 0.1.0: the certificates are pinned
# byte for byte, so any change to a verdict or a recorded object shows here.
GOLDEN_TF = {
    "tf certify --psi E6 --nodes 1 5":
        "fce577000bd5b490f9b0e3376feec4220d811e11d7ee2a8574d20f613b93fa44",
    "tf extend --psi E6 --nodes 1 5":
        "039066e0de43f90c2ce96cbe7d8c5772684b56aca317854cad55643ab85e3dcc",
    "tf certify --psi E8 --nodes 1 7 8":
        "e5f5c9e88bebb2c32e409367ca88b0da55d76a1f769329248d8ab56ce807b981",
    "tf extend --psi E8 --nodes 1 7 8":
        "8d7e17d453c93525773007326c5ed0dc977481bb376d3b2c331152bc8fe0a4cc",
    "tf certify --psi D 8 --nodes 2 6":
        "02971f3c0981f9af1db2a238da9f0c5d61e82f3879ed62e47cee28e6489ccd85",
    "tf extend --psi D 8 --nodes 2 6":
        "b124f34911a7847133114ef8fe2efee48c23d8c0e95eb8e1e648e8d73abedda8",
    "tf certify --psi D 8 --nodes 2 6 --mode plain":
        "4adef723f9e9a3d09980f41eab11ec49d69fec495684422453d317963d97194f",
}


GOLDEN_GEOMETRY = {
    "geometry volume 4": "1d365a50ddb3beed83b189aabb7715041c835b25df12f51d942f7f4c3d6f8f6c",
    "geometry volume 6": "b644632a8c78f22e9728b4b8e5dffb7a9f5fa5cb93f33bf655d43c7c921c2685",
    "geometry volume 8": "02af1dbf415c2f1a09e9c2f463d296257b6317c48096047ff16291d4622f152c",
    "geometry covol 4 --route gb":
        "1dad1a5e86139bb00891735cfc445d4d842144cd4f6c5f6450f52079703903dc",
    "geometry covol 6 --route gb":
        "fe2d10490409639e41d446bd6e7bc289a1c67641d93dea622e0bb8e22c0da7a9",
    "geometry covol 8 --route gb":
        "901bd1bb9b011f6f6967215094b0e6413dff40e599ece15ce9f49cf6971519d1",
}

# Per Weyl type, in this order: `weyl info`, `modtwo admissible`, then
# `modtwo weight` at every node.  gram2 feeds the Cartan matrix and every
# weight vector, so this pins the root Gram matrix of each type.
WEYL_TYPES = [("A", 1), ("A", 5), ("A", 12), ("B", 2), ("B", 7), ("B", 12), ("D", 4),
              ("D", 9), ("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
GOLDEN_WEYL = "8fc5794c96d562264c89b00471ff724cf04c57ee6daccfe9b743f5d339329e56"


def _quiet_stdout(capsys, command):
    assert cli.run(["--quiet", *command.split()]) == 0
    return capsys.readouterr().out


class TestGoldenStdout:
    @pytest.mark.parametrize("command", sorted(GOLDEN_TF))
    def test_tf_certificates(self, capsys, command):
        out = _quiet_stdout(capsys, command)
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TF[command]

    @pytest.mark.parametrize("command", sorted(GOLDEN_GEOMETRY))
    def test_geometry(self, capsys, command):
        out = _quiet_stdout(capsys, command)
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_GEOMETRY[command]

    def test_weyl_and_modtwo(self, capsys):
        out = ""
        for family, rank in WEYL_TYPES:
            psi = f"{family} {rank}" if family in "ABD" else family
            out += _quiet_stdout(capsys, f"weyl info {psi}")
            out += _quiet_stdout(capsys, f"modtwo admissible {psi}")
            out += "".join(_quiet_stdout(capsys, f"modtwo weight {psi} --node {k}")
                           for k in range(1, rank + 1))
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_WEYL


# coxfree has no runtime dependency: every verb runs with numpy blocked.
NUMPY_FREE = [
    "symbol classify --file {a3}",
    "symbol euler --file {a3}",
    "symbol signature --file {a3}",
    "weyl info E8",
    "modtwo weight E8 --node 1",
    "modtwo admissible E6",
    "modtwo dpsi E6",
    "involutions classes --file {a3}",
    "tf build --psi E6 --nodes 1 5",
    "tf certify --psi E6 --nodes 1 5",
    "tf extend --psi E6 --nodes 1",
    "geometry volume 8",
    "geometry covol 8 --route gb",
]

_NUMPY_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from coxfree import cli
for command in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["--quiet", *command])
    assert code == 0, command
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.run(["--quiet", "symbol", "signature", "--file", sys.argv[2], "--inf", "-2"])
print(code, out.getvalue(), end="")
"""


def test_every_verb_runs_without_numpy(tmp_path):
    a3, inf_edge = tmp_path / "a3.json", tmp_path / "inf.json"
    a3.write_text(json.dumps(A3_SYMBOL))
    inf_edge.write_text(json.dumps({"nodes": ["a", "b"], "edges": [["a", "b", "inf"]]}))
    commands = [c.format(a3=a3).split() for c in NUMPY_FREE]
    src = str(Path(coxfree.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(commands), str(inf_edge)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # [[1, -2], [-2, 1]] has eigenvalues 3 and -1.
    assert proc.stdout == '0 {"n_minus":1,"n_plus":1,"n_zero":0}\n'


def test_signature_with_a_huge_infinite_edge_value(tmp_path, capsys):
    # a-b at -1e300, b-c order 3: the cosine form has eigenvalues near
    # +-1e300 and one near 1, so the inertia is (2, 1, 0).
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps({"nodes": ["a", "b", "c"],
                                "edges": [["a", "b", "inf"], ["b", "c", 3]]}))
    assert cli.run(["symbol", "signature", "--file", str(path), "--inf=-1e300"]) == 0
    assert capsys.readouterr().out == '{"n_minus":1,"n_plus":2,"n_zero":0}\n'
