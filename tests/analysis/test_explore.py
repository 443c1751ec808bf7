"""The interleaving explorer: clean exhaustion, determinism, reduction.

The acceptance contract: ``analyze --explore --preset small`` exhausts
the reduced state space on the flat and 2-socket machines with zero
findings and a byte-identical report across repeated runs, and the
canonical quotient only merges — it never changes the verdict.
"""

import json

import pytest

from repro.__main__ import main
from repro.analysis.explore import (EXPLORE_PRESETS, SHAPES, Explorer,
                                    explore_pass)


def coverage_of(preset, **kwargs):
    report = explore_pass(preset=preset, **kwargs)
    return report, report.coverage


class TestCleanExploration:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_small_preset_is_clean_and_exhausted(self, shape):
        report, cov = coverage_of("small", shapes=(shape,))
        assert report.ok
        assert report.findings == []
        assert cov[f"{shape}_exhausted"] is True
        assert cov[f"{shape}_states"] > 1
        assert cov[f"{shape}_leaves"] >= 1
        assert cov["violations"] == 0

    @pytest.mark.parametrize("preset", sorted(EXPLORE_PRESETS))
    def test_every_preset_is_clean_on_flat(self, preset):
        report, cov = coverage_of(preset, shapes=("flat",))
        assert report.ok, [f.render() for f in report.findings]
        assert cov["flat_exhausted"] is True

    def test_unknown_preset_and_injection_are_rejected(self):
        with pytest.raises(ValueError):
            explore_pass(preset="nope")
        with pytest.raises(ValueError):
            explore_pass(inject="nope")


class TestDeterminism:
    def test_repeated_reports_are_byte_identical(self):
        render = lambda: json.dumps(  # noqa: E731
            explore_pass(preset="small").to_json(),
            indent=2, sort_keys=True)
        assert render() == render()

    def test_repeated_injected_reports_are_byte_identical(self):
        render = lambda: json.dumps(  # noqa: E731
            explore_pass(preset="small", shapes=("flat",),
                         inject="broken-fold").to_json(),
            indent=2, sort_keys=True)
        assert render() == render()


class TestReduction:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_quotient_only_merges_and_preserves_verdict(self, shape):
        scenario = EXPLORE_PRESETS["small"]
        reduced = Explorer(scenario, shape, reduce=True)
        raw = Explorer(scenario, shape, reduce=False)
        assert reduced.run() == []
        assert raw.run() == []
        assert reduced.states <= raw.states
        assert reduced.exhausted and raw.exhausted

    def test_socket_mirror_quotients_the_symmetric_preset(self):
        # ``small`` is symmetric under the A<->B line swap, so the
        # 2-socket mirror automorphism must merge strictly more than
        # VID renaming alone does on the flat machine.
        scenario = EXPLORE_PRESETS["small"]
        flat = Explorer(scenario, "flat", reduce=True)
        mirrored = Explorer(scenario, "2socket", reduce=True)
        flat.run()
        mirrored.run()
        assert mirrored.states < flat.states

    def test_state_budget_reports_non_exhaustion(self):
        explorer = Explorer(EXPLORE_PRESETS["small"], "flat", max_states=5)
        assert explorer.run() == []  # pruned, but no false findings
        assert explorer.exhausted is False

    def test_depth_budget_reports_non_exhaustion(self):
        explorer = Explorer(EXPLORE_PRESETS["small"], "flat", max_depth=2)
        explorer.run()
        assert explorer.exhausted is False


class TestCli:
    def test_analyze_explore_exits_zero_and_skips_default_passes(self, capsys):
        assert main(["analyze", "--explore", "--preset", "small",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [p["name"] for p in report["passes"]] == ["explore"]
        assert report["ok"] is True

    def test_analyze_explore_inject_exits_one(self, capsys):
        assert main(["analyze", "--explore", "--inject", "stuck-commit",
                     "--shapes", "flat",
                     "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        rules = {f["rule"] for p in report["passes"]
                 for f in p["findings"]}
        assert rules == {"EX004"}

    def test_emit_counterexamples_writes_replayable_json(self, tmp_path,
                                                         capsys):
        assert main(["analyze", "--explore", "--inject", "broken-fold",
                     "--shapes", "flat",
                     "--emit-counterexamples", str(tmp_path)]) == 1
        capsys.readouterr()
        files = sorted(tmp_path.glob("*.json"))
        assert files
        doc = json.loads(files[0].read_text(encoding="utf-8"))
        assert doc["schema"] == "hmtx-explore-counterex/1"
        assert doc["schedule"]
