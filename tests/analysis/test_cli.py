"""The analyze CLI: pass selection, JSON schema, exit codes, --output."""

import json

import pytest

from repro.__main__ import main as repro_main


def main(argv):
    return repro_main(["analyze", *argv])


class TestAnalyzeCli:
    def test_lint_pass_json_report(self, capsys):
        assert main(["--lint", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "hmtx-analysis-report/1"
        assert data["ok"] is True
        assert [p["name"] for p in data["passes"]] == ["lint"]
        assert data["passes"][0]["coverage"]["violations"] == 0

    def test_modelcheck_small_space(self, capsys):
        assert main(["--modelcheck", "--vid-bits", "3"]) == 0
        out = capsys.readouterr().out
        assert "[modelcheck] ok" in out
        assert "analysis: PASS" in out

    def test_racecheck_narrowed_selection(self, capsys):
        assert main(["--racecheck", "--backends", "hmtx",
                     "--workloads", "ispell", "--scale", "0.1",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        racecheck = data["passes"][0]
        assert racecheck["name"] == "racecheck"
        assert racecheck["coverage"]["traces"] == 1

    def test_output_file_written(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main(["--lint", "--format", "json",
                     "--output", str(out_file)]) == 0
        on_disk = json.loads(out_file.read_text())
        on_stdout = json.loads(capsys.readouterr().out)
        assert on_disk == on_stdout

    def test_lint_failure_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n    import os\n    return os\n")
        assert main(["--lint", "--paths", str(bad)]) == 1
        assert "RL005" in capsys.readouterr().out

    def test_module_entrypoint_dispatches(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", "--lint"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "analysis: PASS" in proc.stdout
