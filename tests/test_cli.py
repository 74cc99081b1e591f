import json

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
