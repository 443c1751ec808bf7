"""Tests for the `python -m repro` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "130.li" in out

    def test_fig5_artifact(self, capsys):
        assert main(["fig5"]) == 0
        assert "S-M(2,2)" in capsys.readouterr().out

    def test_fig1_artifact(self, capsys):
        assert main(["fig1"]) == 0
        assert "PS-DSWP" in capsys.readouterr().out

    def test_run_benchmark(self, capsys):
        assert main(["run", "ispell", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "matches sequential semantics" in out

    def test_run_sequential(self, capsys):
        assert main(["run", "ispell", "--system", "sequential",
                     "--scale", "0.3"]) == 0
        assert "Sequential" in capsys.readouterr().out

    def test_run_smtx(self, capsys):
        assert main(["run", "456.hmmer", "--system", "smtx-minimal",
                     "--scale", "0.3"]) == 0
        assert "SMTX" in capsys.readouterr().out

    def test_run_with_trace(self, capsys):
        assert main(["run", "ispell", "--scale", "0.3", "--trace"]) == 0
        assert "event counts" in capsys.readouterr().out

    def test_every_listed_system_is_accepted_by_run(self, capsys):
        assert main(["list"]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("systems"))
        systems = [name.strip() for name in line.split(":", 1)[1].split(",")]
        assert "oracle" in systems
        for system in systems:
            assert main(["run", "ispell", "--system", system,
                         "--scale", "0.25"]) == 0, system
            assert "matches sequential semantics" in \
                capsys.readouterr().out, system

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "999.nope"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
