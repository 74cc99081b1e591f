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


class TestRemovedFlags:
    def test_top_level_json_flag_is_gone(self):
        assert cli.run(["--quiet", "--json", "weyl", "info", "E8"]) == 2

    def test_geometry_dim_flag_is_gone(self):
        assert cli.run(["--quiet", "geometry", "volume", "4", "--dim", "6"]) == 2
        assert cli.run(["--quiet", "geometry", "covol", "--dim", "6"]) == 2

    def test_positional_dimension(self, capsys):
        # (2^3 - 1) pi^3 / 6! * |B2 B4 B6| = 7/720 * 1/6 * 1/30 * 1/42.
        assert cli.run(["--quiet", "geometry", "covol", "6"]) == 0
        assert capsys.readouterr().out == (
            '{"covol":{"den":777600,"num":1,"pi_power":3},"dim":6,"route":"siegel"}\n')
