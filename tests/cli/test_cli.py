"""Tests for the `python -m repro` command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.__main__ import ARTIFACT_NAMES, COMMANDS, main
from repro.experiments.cli import ARTIFACTS


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


GOLDENS = pathlib.Path(__file__).resolve().parents[1] / "goldens"


class TestCommandTable:
    def test_importing_the_entry_point_loads_no_simulator(self):
        probe = ("import sys, repro.__main__; "
                 "print(sorted(m for m in sys.modules "
                 "if m.startswith(('repro.coherence', "
                 "'repro.experiments'))))")
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("key", sorted(COMMANDS))
    def test_every_command_has_help(self, key, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*key.split(), "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith(
            f"usage: python -m repro {key} ")

    def test_artifact_rows_match_the_drivers(self):
        assert set(ARTIFACT_NAMES) == set(ARTIFACTS)

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 2


class TestRunGoldens:
    """``run`` stdout, byte for byte, for every system (with and without
    the tracer and the stats dump)."""

    GOLDEN = json.loads((GOLDENS / "cli_run.json").read_text())

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_stdout_is_unchanged(self, command, capsys):
        assert main(command.split()) == 0
        assert capsys.readouterr().out == self.GOLDEN[command]
