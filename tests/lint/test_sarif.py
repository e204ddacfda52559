"""The SARIF 2.1.0 reporter: schema validity (against a vendored,
faithful subset of the OASIS sarif-schema-2.1.0 errata01 schema),
rule-index consistency, and how a run-level condition (a parse error)
surfaces as an invocation notification.
"""

import json
from pathlib import Path

import pytest

from repro.lint import ALL_RULE_IDS, run_lint
from repro.lint.report import SARIF_SCHEMA_URI, SARIF_VERSION, render_sarif

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
SCHEMA = json.loads((HERE / "sarif-schema-subset.json").read_text())


def validate(log: dict) -> None:
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(instance=log, schema=SCHEMA)


def sarif_for(paths) -> dict:
    return json.loads(render_sarif(run_lint([str(p) for p in paths])))


class TestSchemaValidity:
    def test_clean_run_validates(self, tmp_path):
        target = tmp_path / "ok.py"
        target.write_text("def f():\n    return 1\n")
        log = sarif_for([target])
        validate(log)
        assert log["version"] == SARIF_VERSION
        assert log["$schema"] == SARIF_SCHEMA_URI

    def test_run_with_findings_validates(self):
        log = sarif_for([FIXTURES / "r005_pos.py"])
        validate(log)
        assert log["runs"][0]["results"]

    def test_run_with_parse_error_validates(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        log = sarif_for([target])
        validate(log)


class TestShape:
    @pytest.fixture(scope="class")
    def log(self):
        return sarif_for([FIXTURES / "r005_pos.py"])

    def test_driver_lists_every_catalog_rule(self, log):
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == list(ALL_RULE_IDS)
        for rule in rules:
            assert rule["shortDescription"]["text"]
            assert rule["fullDescription"]["text"]

    def test_rule_index_points_at_its_rule(self, log):
        run = log["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert run["results"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_result_location_carries_region_and_snippet(self, log):
        result = log["runs"][0]["results"][0]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("r005_pos.py")
        region = location["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1
        assert region["snippet"]["text"]

    def test_findings_mark_invocation_unsuccessful(self, log):
        invocation = log["runs"][0]["invocations"][0]
        assert invocation["executionSuccessful"] is False

    def test_clean_run_is_successful_with_empty_results(self, tmp_path):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        log = sarif_for([target])
        run = log["runs"][0]
        assert run["results"] == []
        assert run["invocations"][0]["executionSuccessful"] is True
        assert run["columnKind"] == "unicodeCodePoints"

    def test_output_is_deterministic(self):
        first = render_sarif(run_lint([str(FIXTURES / "r005_pos.py")]))
        second = render_sarif(run_lint([str(FIXTURES / "r005_pos.py")]))
        assert first == second


class TestRunLevelNotifications:
    def test_parse_error_becomes_notification(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        log = sarif_for([target])
        invocation = log["runs"][0]["invocations"][0]
        assert invocation["executionSuccessful"] is False
        texts = [
            n["message"]["text"]
            for n in invocation["toolExecutionNotifications"]
        ]
        assert any("parse error" in text for text in texts)
