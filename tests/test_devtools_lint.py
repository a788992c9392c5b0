"""Tests for the ``repro-lint`` domain linter and the ``hot_path`` marker.

Every rule gets positive fixtures (code that must be flagged) and negative
fixtures (idiomatic code that must pass), plus suppression-comment tests,
CLI exit-status tests and the meta-test that the shipped tree itself lints
clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools import HOT_PATH_ATTRIBUTE, hot_path
from repro.devtools.lint import RULES, Finding, lint_paths, lint_source, main

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Minimal README stand-in for fixtures that exercise the glossary rule.
GLOSSARY = """
| `engine_steps_total` | counter | engine steps |
| `rm_end_heap_pops_total` | counter | heap pops |
| `engine_phase_<phase>_us` | histogram | phase wall time |
"""


def rules_of(findings: list[Finding]) -> list[str]:
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------------------
# unit-suffix
# ---------------------------------------------------------------------------


class TestUnitSuffixRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            "power_watts = 5.0\n",
            "def f(runtime_seconds):\n    return runtime_seconds\n",
            "self.temp_celsius = 20.0\n",
            "def duration_hours():\n    return 1\n",
            "x = obj.energy_joules\n",
        ],
    )
    def test_long_form_suffixes_flagged(self, snippet):
        findings = lint_source(snippet)
        assert "unit-suffix" in rules_of(findings)

    def test_message_names_the_canonical_suffix(self):
        (finding,) = lint_source("idle_watts = 1.0\n")
        assert finding.rule == "unit-suffix"
        assert "'_w'" in finding.message

    @pytest.mark.parametrize(
        "snippet",
        [
            "power_w = 5.0\n",
            "energy_kwh = 1.0\n",
            "dt_s = 0.5\n",
            "wall_us = 12\n",
            "approach_c = 4.0\n",
            # Not a unit suffix at all.
            "watts = 5.0\n",
            "total = 3\n",
            # The repro.units helpers spell units long-form by design.
            "x = joules_to_kilowatt_hours(3.6e6)\n",
            "y = node_seconds_to_node_hours(7200)\n",
        ],
    )
    def test_canonical_and_unrelated_names_pass(self, snippet):
        assert lint_source(snippet) == []


# ---------------------------------------------------------------------------
# unit-crossing
# ---------------------------------------------------------------------------


class TestUnitCrossingRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            "power_kw = power_w\n",
            "total_j = energy_kwh\n",
            "elapsed_s = elapsed_h\n",
            "total_kw += extra_w\n",
            "x = power_w + power_kw\n",
            "y = end_s - start_h\n",
        ],
    )
    def test_cross_unit_assignment_flagged(self, snippet):
        assert "unit-crossing" in rules_of(lint_source(snippet))

    @pytest.mark.parametrize(
        "snippet",
        [
            "power_kw = other_kw\n",
            "total_s = a_s + b_s\n",
            "power_kw = watts_to_kilowatts(power_w)\n",
            # Multiplication/division legitimately changes unit.
            "power_kw = power_w / 1000.0\n",
            "energy_j = power_w * dt_s\n",
            # Unsuffixed names carry no unit claim.
            "total = power_w\n",
        ],
    )
    def test_same_unit_and_converted_pass(self, snippet):
        findings = [f for f in lint_source(snippet) if f.rule == "unit-crossing"]
        assert findings == []


# ---------------------------------------------------------------------------
# float-compare
# ---------------------------------------------------------------------------


class TestFloatCompareRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            "flag = facility_power_kw == 0.0\n",
            "flag = now_s != end_s\n",
            "flag = x == 1.0\n",
            "flag = y != -1.0\n",
            "flag = obj.loss_kw == other\n",
        ],
    )
    def test_exact_compare_flagged(self, snippet):
        assert "float-compare" in rules_of(lint_source(snippet))

    @pytest.mark.parametrize(
        "snippet",
        [
            # Ordering comparisons are fine.
            "flag = facility_power_kw > 0.0\n",
            "flag = now_s <= end_s\n",
            # Integer-literal equality is fine.
            "flag = count == 0\n",
            # Unsuffixed float names against non-literals are fine.
            "flag = ratio == other\n",
            # The sanctioned zero-guard.
            "flag = is_zero_kw(facility_power_kw)\n",
        ],
    )
    def test_tolerant_patterns_pass(self, snippet):
        findings = [f for f in lint_source(snippet) if f.rule == "float-compare"]
        assert findings == []


# ---------------------------------------------------------------------------
# hot-path
# ---------------------------------------------------------------------------


HOT_PREFIX = "@hot_path\ndef step(self):\n"


class TestHotPathRule:
    @pytest.mark.parametrize(
        "body",
        [
            "    snapshot = list(self.running_by_id)\n",
            "    ordered = sorted(self.queue)\n",
            "    job = self.queue.pop(0)\n",
            "    for job in self.running_jobs:\n        pass\n",
            "    total = sum(j.n for j in self.queue)\n",
            "    ids = [j.id for j in jobs]\n",
            # numpy calls: ~1 µs each on a scalar, whatever the module alias.
            "    index = np.searchsorted(self.times, now)\n",
            "    total = numpy.sum(self.values)\n",
            "    rng = np.random.default_rng(0)\n",
        ],
    )
    def test_scaling_patterns_flagged(self, body):
        assert "hot-path" in rules_of(lint_source(HOT_PREFIX + body))

    @pytest.mark.parametrize(
        "body",
        [
            "    job = self.queue_head\n",
            "    end = self.end_heap[0]\n",
            "    item = self.pending.pop()\n",  # tail pop is O(1)
            "    for name in self.columns:\n        pass\n",
            "    limit = np.inf\n",  # a numpy constant, not a call
            "    index = bisect_right(self.times, now)\n",
        ],
    )
    def test_constant_time_patterns_pass(self, body):
        findings = [f for f in lint_source(HOT_PREFIX + body) if f.rule == "hot-path"]
        assert findings == []

    def test_undecorated_function_unrestricted(self):
        source = "def cold():\n    return sorted(list(self.queue))\n"
        assert lint_source(source) == []
        assert lint_source("def cold():\n    return np.unique(times)\n") == []

    def test_nested_function_inherits_hotness(self):
        source = (
            "@hot_path\n"
            "def outer():\n"
            "    def inner():\n"
            "        return list(queue)\n"
            "    return inner\n"
        )
        assert "hot-path" in rules_of(lint_source(source))


# ---------------------------------------------------------------------------
# metrics-glossary
# ---------------------------------------------------------------------------


class TestMetricsGlossaryRule:
    def test_documented_name_passes(self):
        source = 'metrics.counter("engine_steps_total", "steps").inc()\n'
        assert lint_source(source, readme_text=GLOSSARY) == []

    def test_undocumented_name_flagged(self):
        source = 'metrics.counter("engine_bogus_total", "nope").inc()\n'
        (finding,) = lint_source(source, readme_text=GLOSSARY)
        assert finding.rule == "metrics-glossary"
        assert "engine_bogus_total" in finding.message

    def test_fstring_checked_by_fragments(self):
        good = 'metrics.histogram(f"engine_phase_{name}_us", "t")\n'
        assert lint_source(good, readme_text=GLOSSARY) == []
        bad = 'metrics.histogram(f"engine_bogus_{name}_us", "t")\n'
        assert "metrics-glossary" in rules_of(lint_source(bad, readme_text=GLOSSARY))

    def test_observability_counters_keys_checked(self):
        source = (
            "def observability_counters(self):\n"
            '    return {"end_heap_pops": self.pops, "mystery": 1}\n'
        )
        findings = lint_source(source, readme_text=GLOSSARY)
        assert rules_of(findings) == ["metrics-glossary"]
        assert "mystery" in findings[0].message

    def test_rule_disabled_without_readme(self):
        source = 'metrics.counter("engine_bogus_total", "nope")\n'
        assert lint_source(source, readme_text=None) == []


# ---------------------------------------------------------------------------
# public-exceptions
# ---------------------------------------------------------------------------


class TestPublicExceptionsRule:
    def test_public_function_builtin_raise_flagged(self):
        source = 'def load(path):\n    raise ValueError("bad")\n'
        (finding,) = lint_source(source)
        assert finding.rule == "public-exceptions"

    def test_public_method_flagged(self):
        source = (
            "class Engine:\n"
            "    def run(self):\n"
            '        raise RuntimeError("boom")\n'
        )
        assert "public-exceptions" in rules_of(lint_source(source))

    @pytest.mark.parametrize(
        "snippet",
        [
            # Private function: free to use builtins.
            'def _helper():\n    raise ValueError("internal")\n',
            # Private class makes the whole context private.
            'class _Impl:\n    def get(self):\n        raise KeyError("k")\n',
            # Domain exception types pass anywhere.
            'def load(path):\n    raise ConfigurationError("bad")\n',
            # The abstract-method idiom is exempt.
            "def load(path):\n    raise NotImplementedError\n",
            # Module-level re-raise has no enclosing function.
            'raise RuntimeError("startup")\n',
        ],
    )
    def test_allowed_raises_pass(self, snippet):
        findings = [f for f in lint_source(snippet) if f.rule == "public-exceptions"]
        assert findings == []

    def test_dunder_counts_as_public(self):
        source = (
            "class Window:\n"
            "    def __post_init__(self):\n"
            '        raise ValueError("bad window")\n'
        )
        assert "public-exceptions" in rules_of(lint_source(source))


# ---------------------------------------------------------------------------
# Suppressions, exemptions, output plumbing
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_single_rule_suppressed(self):
        source = "x = power_kw == 0.0  # repro-lint: disable=float-compare\n"
        assert lint_source(source) == []

    def test_multiple_rules_on_one_line(self):
        source = (
            "power_kw = power_watts  "
            "# repro-lint: disable=unit-suffix,unit-crossing\n"
        )
        assert lint_source(source) == []

    def test_disable_all(self):
        source = "power_kw = power_watts  # repro-lint: disable=all\n"
        assert lint_source(source) == []

    def test_wrong_rule_does_not_suppress(self):
        source = "x = power_kw == 0.0  # repro-lint: disable=hot-path\n"
        assert "float-compare" in rules_of(lint_source(source))

    def test_suppression_is_line_scoped(self):
        source = (
            "# repro-lint: disable=float-compare\n"
            "x = power_kw == 0.0\n"
        )
        assert "float-compare" in rules_of(lint_source(source))


class TestFileExemptionsAndErrors:
    def test_skip_rules_filter(self):
        source = "power_watts = 1.0\n"
        assert lint_source(source, skip_rules=frozenset({"unit-suffix"})) == []

    def test_syntax_error_becomes_finding(self):
        findings = lint_source("def broken(:\n")
        assert rules_of(findings) == ["syntax-error"]

    def test_finding_format(self):
        (finding,) = lint_source("idle_watts = 1.0\n", path="mod.py")
        assert finding.format().startswith("mod.py:1:1: [unit-suffix]")


# ---------------------------------------------------------------------------
# The decorator
# ---------------------------------------------------------------------------


class TestHotPathDecorator:
    def test_identity_and_marker(self):
        def f(x: int) -> int:
            return x + 1

        marked = hot_path(f)
        assert marked is f
        assert getattr(marked, HOT_PATH_ATTRIBUTE) is True
        assert marked(2) == 3

    def test_unmarked_function_lacks_attribute(self):
        def g() -> None:
            pass

        assert not hasattr(g, HOT_PATH_ATTRIBUTE)


# ---------------------------------------------------------------------------
# Whole-tree + CLI
# ---------------------------------------------------------------------------


class TestTreeAndCli:
    def test_shipped_tree_is_clean(self):
        readme = (REPO_ROOT / "README.md").read_text()
        findings, checked = lint_paths(
            [REPO_ROOT / "src" / "repro"], readme_text=readme
        )
        assert checked > 30
        assert [f.format() for f in findings] == []

    def test_rule_catalogue_has_all_rules(self):
        assert set(RULES) == {
            "unit-suffix",
            "unit-crossing",
            "float-compare",
            "hot-path",
            "metrics-glossary",
            "public-exceptions",
        }

    def test_cli_clean_run_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("power_kw = 1.0\n")
        readme = tmp_path / "README.md"
        readme.write_text(GLOSSARY)
        assert main([str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_findings_exit_one_and_report(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("idle_watts = 1.0\n")
        (tmp_path / "README.md").write_text(GLOSSARY)
        report = tmp_path / "report.txt"
        assert main([str(target), "--report", str(report)]) == 1
        out = capsys.readouterr().out
        assert "unit-suffix" in out
        assert "unit-suffix" in report.read_text()

    def test_cli_json_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("idle_watts = 1.0\n")
        (tmp_path / "README.md").write_text(GLOSSARY)
        assert main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checked_files"] == 1
        assert payload["findings"][0]["rule"] == "unit-suffix"

    def test_cli_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2

    def test_cli_missing_readme_exits_two(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert main([str(target)]) == 2

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out
