#!/usr/bin/env python3
"""Unit tests for the vab_lint rule engine, run by the VabLint.SelfTest,
VabTidy.SelfTest and VabTidy.Tree ctests.

Every fixture under tools/lint_fixtures/violating/ declares the findings it
must produce with `// expect: <rule-id>:<count>` header comments; every file
under conforming/ must produce none. On top of the counts, one exact
diagnostic string per structural rule is pinned, so a wrong line or
reworded advice fails here too. A rule change that stops catching a fixture
(or starts flagging clean idioms) fails here before it reaches the
tree-wide gate.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import vab_lint  # noqa: E402

FIXTURES = os.path.join(HERE, "lint_fixtures")
EXPECT_RE = re.compile(r"//\s*expect:\s*([a-z0-9-]+):(\d+)")


def fixture_files(kind: str) -> list[str]:
    return vab_lint.collect_sources([os.path.join(FIXTURES, kind)])


def expected_findings(path: str) -> dict[str, int]:
    with open(path, encoding="utf-8") as fh:
        head = fh.read(2048)
    return {rule: int(count) for rule, count in EXPECT_RE.findall(head)}


def count_by_rule(findings: list[vab_lint.Finding]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return counts


class ViolatingFixtures(unittest.TestCase):
    def test_every_fixture_detected_exactly(self):
        checked = 0
        for path in fixture_files("violating"):
            expected = expected_findings(path)
            with self.subTest(fixture=os.path.relpath(path, FIXTURES)):
                actual = count_by_rule(vab_lint.lint_file(path))
                self.assertEqual(actual, expected)
            checked += 1
        self.assertGreaterEqual(checked, 19, "violating fixture set shrank")

    def test_every_rule_has_a_violating_fixture(self):
        covered = set()
        for path in fixture_files("violating"):
            covered.update(expected_findings(path))
        self.assertEqual(covered, set(vab_lint.RULE_IDS),
                         "each rule needs a fixture proving it still fires")


class ConformingFixtures(unittest.TestCase):
    def test_no_false_positives(self):
        for path in fixture_files("conforming"):
            with self.subTest(fixture=os.path.relpath(path, FIXTURES)):
                self.assertEqual(
                    [f.format() for f in vab_lint.lint_file(path)], [])


class Annotations(unittest.TestCase):
    def _lint_text(self, text: str, name: str = "snippet.cpp"):
        src = vab_lint.SourceFile(name, text)
        findings = []
        for rule in vab_lint.RULES:
            findings.extend(rule(src))
        return findings

    def test_allow_same_line(self):
        text = 'int f() { return rand(); }  // vab-lint: allow(no-libc-rand) test shim\n'
        self.assertEqual(self._lint_text(text), [])

    def test_allow_previous_line(self):
        text = ('// vab-lint: allow(no-libc-rand) test shim\n'
                'int f() { return rand(); }\n')
        self.assertEqual(self._lint_text(text), [])

    def test_allow_is_rule_specific(self):
        text = ('// vab-lint: allow(no-wallclock) wrong rule named\n'
                'int f() { return rand(); }\n')
        self.assertEqual(len(self._lint_text(text)), 1)

    def test_allow_does_not_leak_past_next_line(self):
        text = ('// vab-lint: allow(no-libc-rand) only covers the next line\n'
                'int f();\n'
                'int g() { return rand(); }\n')
        self.assertEqual(len(self._lint_text(text)), 1)

    def test_skip_file(self):
        text = '// vab-lint: skip-file\nint f() { return rand(); }\n'
        with tempfile.NamedTemporaryFile("w", suffix=".cpp", delete=False) as fh:
            fh.write(text)
            path = fh.name
        try:
            self.assertEqual(vab_lint.lint_file(path), [])
        finally:
            os.unlink(path)


class CommentAndStringBlanking(unittest.TestCase):
    def test_comments_do_not_trip_rules(self):
        text = ('// rand() and std::random_device discussed in a comment\n'
                '/* for (auto& kv : themap) also here */\n'
                'int f();\n')
        self.assertEqual(Annotations._lint_text(self, text), [])

    def test_strings_do_not_trip_rules(self):
        text = 'const char* kMsg = "never call rand() here";\n'
        self.assertEqual(Annotations._lint_text(self, text), [])

    def test_line_structure_preserved(self):
        text = 'a /* multi\nline */ b\n"str\\"ing"\n'
        blanked = vab_lint.blank_comments_and_strings(text)
        self.assertEqual(blanked.count("\n"), text.count("\n"))


class ExactDiagnostics(unittest.TestCase):
    """One pinned diagnostic per structural rule: the full path:line/message
    contract."""

    def _findings(self, *rel: str) -> tuple[str, list[str]]:
        path = os.path.join(FIXTURES, "violating", *rel)
        return path, [f.format() for f in vab_lint.lint_file(path)]

    def test_unit_param_diagnostic(self):
        path, findings = self._findings("unit_params.hpp")
        self.assertIn(
            f"{path}:14: [unit-suffix-double-param] parameter 'range_m' is "
            "a raw double carrying a unit suffix; take common::Meters (see "
            "common/units.hpp) so callers cannot pass the wrong domain",
            findings)

    def test_rng_capture_diagnostic(self):
        path, findings = self._findings("rng_capture.cpp")
        self.assertIn(
            f"{path}:11: [rng-parallel-capture] 'rng.uniform()' draws from "
            "a captured Rng inside a parallel body; derive a per-index "
            "stream with 'rng.child(i)' so draw order cannot depend on "
            "scheduling",
            findings)

    def test_unordered_diagnostic(self):
        path, findings = self._findings("unordered_accumulate.cpp")
        self.assertIn(
            f"{path}:13: [unordered-iter-accumulate] iteration over "
            "unordered container 'weights' feeds an accumulation or output "
            "in hash order; sort the keys (or the results) before they "
            "reach any reduction or stream",
            findings)

    def test_layering_diagnostic(self):
        path, findings = self._findings("layering", "src", "dsp",
                                        "uses_phy.hpp")
        self.assertIn(
            f"{path}:4: [layering] downward include: 'dsp' (rank 1) may not "
            "include 'phy' (rank 2); dependencies must point strictly down "
            "the layer diagram",
            findings)


class LayeringModel(unittest.TestCase):
    def test_rank_table_matches_design(self):
        self.assertEqual(vab_lint.MODULE_RANKS["common"], 0)
        self.assertEqual(vab_lint.SINK_MODULES, {"obs"})
        for mod in ("dsp", "fault", "piezo", "vanatta"):
            self.assertEqual(vab_lint.MODULE_RANKS[mod], 1)
        self.assertLess(vab_lint.MODULE_RANKS["phy"],
                        vab_lint.MODULE_RANKS["net"])
        self.assertLess(vab_lint.MODULE_RANKS["sim"],
                        vab_lint.MODULE_RANKS["core"])

    def test_cycle_detected(self):
        root = os.path.join(FIXTURES, "violating", "cycle", "src")
        findings = vab_lint.lint_files(vab_lint.collect_sources([root]))
        formatted = [f.format() for f in findings]
        self.assertTrue(any("module cycle detected" in f for f in formatted),
                        formatted)


class Allowlist(unittest.TestCase):
    def test_grandfathered_header_skips_unit_check_only(self):
        with tempfile.TemporaryDirectory() as tmp:
            hdr = os.path.join(tmp, "legacy.hpp")
            with open(hdr, "w", encoding="utf-8") as fh:
                fh.write("#pragma once\nvoid f(double gain_db);\n")
            self.assertEqual(
                vab_lint.lint_files([hdr], allowlist={hdr: "test"}), [])
            findings = vab_lint.lint_files([hdr], allowlist={})
            self.assertEqual([f.rule for f in findings],
                             ["unit-suffix-double-param"])

    def test_repo_allowlist_entries_still_exist(self):
        """Every grandfathered path must still be a real header: stale
        entries hide nothing but rot the debt ledger."""
        allowlist = vab_lint.load_allowlist()
        self.assertTrue(allowlist)
        for path, reason in allowlist.items():
            self.assertTrue(os.path.exists(path), f"stale allowlist: {path}")
            self.assertTrue(reason, f"allowlist entry needs a reason: {path}")


class TreeGate(unittest.TestCase):
    """The tree gate must not depend on how the root is spelled: allowlist
    and module lookups resolve absolute paths, so `src` from the repo root,
    `../src` from tools/ and an absolute path give the same clean result."""

    def test_same_result_for_relative_and_absolute_roots(self):
        repo = os.path.dirname(HERE)
        script = os.path.join(HERE, "vab_lint.py")
        procs = [subprocess.Popen([sys.executable, script, root], cwd=cwd,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for cwd, root in ((repo, "src"),
                                   (HERE, os.path.join("..", "src")),
                                   (HERE, os.path.join(repo, "src")))]
        results = [proc.communicate() for proc in procs]
        for proc, (out, err) in zip(procs, results):
            self.assertEqual(proc.returncode, 0, out + err)
        outputs = [out for out, _ in results]
        self.assertTrue(outputs[0].endswith(", 0 finding(s)\n"), outputs[0])
        self.assertEqual(outputs[1], outputs[0])
        self.assertEqual(outputs[2], outputs[0])
        # The clean result is the allowlist at work, not an idle rule: the
        # grandfathered headers alone, linted ungated, still trip it.
        ungated = vab_lint.lint_files(sorted(vab_lint.load_allowlist()),
                                      allowlist={})
        self.assertIn("unit-suffix-double-param", count_by_rule(ungated))


if __name__ == "__main__":
    unittest.main(verbosity=2)
