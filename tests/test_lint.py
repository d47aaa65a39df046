"""The invariant linter: rule catalog, suppressions, baselines, CLI.

Every rule gets at least one true positive and one near-miss (the
allowed idiom right next to the banned one), because a linter that
cannot tell ``sorted(glob(...))`` from ``glob(...)`` is worse than no
linter.  The suite ends with the self-checks the PR ships under:
``src/repro/analysis/`` lints clean, and the whole tree lints clean
against the committed (empty) baseline.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (  # noqa: F401  (imports register the rules)
    all_rules,
    get_rule,
)
from repro.analysis.core import (
    Baseline,
    ModuleSource,
    NEVER_BASELINE,
    PARSE_RULE,
    lint_modules,
    lint_paths,
)
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _findings(rel, text, rule=None):
    """Lint one in-memory module (``rel`` drives path-scoped rules)."""
    module = ModuleSource(Path(rel), rel, text)
    rules = None if rule is None else [get_rule(rule)]
    return lint_modules([module], rules).findings


def _rules_hit(rel, text):
    return {f.rule for f in _findings(rel, text)}


class TestFramework:
    def test_catalog_is_the_documented_seven(self):
        assert [r.id for r in all_rules()] == [
            "ATOM001", "DET001", "EXC001", "FLT001", "JSON001",
            "KEY001", "TEL001"]
        for rule in all_rules():
            assert rule.title and rule.contract

    def test_unknown_rule_id_is_loud(self):
        with pytest.raises(KeyError, match="unknown rule"):
            get_rule("NOPE999")

    def test_unparsable_file_is_a_finding_not_a_crash(self):
        found = _findings("src/repro/runner/x.py", "def broken(:\n")
        assert [f.rule for f in found] == [PARSE_RULE]
        assert "cannot parse" in found[0].message

    def test_fingerprint_survives_line_moves_not_edits(self):
        a = _findings("src/repro/runner/x.py",
                      "import time\nx = time.time()\n")[0]
        b = _findings("src/repro/runner/x.py",
                      "import time\n\n\nx =  time.time()\n")[0]
        c = _findings("src/repro/runner/x.py",
                      "import time\ny = time.time()\n")[0]
        assert a.fingerprint == b.fingerprint  # moved + re-spaced
        assert a.fingerprint != c.fingerprint  # actually edited


class TestDeterminismRule:
    def test_wall_clock_and_entropy_flagged(self):
        text = ("import time, random, uuid, os\n"
                "a = time.time()\n"
                "b = random.random()\n"
                "c = uuid.uuid4()\n"
                "d = os.urandom(8)\n")
        found = _findings("src/repro/cpu/x.py", text, "DET001")
        assert len(found) == 4

    def test_monotonic_duration_clocks_allowed(self):
        text = ("import time\n"
                "t0 = time.perf_counter()\n"
                "t1 = time.monotonic()\n"
                "time.sleep(0.01)\n")
        assert _findings("src/repro/cpu/x.py", text, "DET001") == []

    def test_set_iteration_flagged_tuple_allowed(self):
        bad = "for x in {1, 2, 3}:\n    print(x)\n"
        good = "for x in (1, 2, 3):\n    print(x)\n"
        assert len(_findings("src/repro/sim/x.py", bad, "DET001")) == 1
        assert _findings("src/repro/sim/x.py", good, "DET001") == []

    def test_set_comprehension_in_genexp_flagged(self):
        bad = "keys = [k for k in {p for p in names}]\n"
        assert len(_findings("src/repro/sim/x.py", bad, "DET001")) == 1

    def test_unsorted_scan_flagged_sorted_allowed(self):
        bad = ("from pathlib import Path\n"
               "for p in Path('.').glob('*.json'):\n    use(p)\n")
        good = ("from pathlib import Path\n"
                "for p in sorted(Path('.').glob('*.json')):\n"
                "    use(p)\n")
        assert len(_findings("src/repro/runner/x.py", bad,
                             "DET001")) == 1
        assert _findings("src/repro/runner/x.py", good, "DET001") == []

    def test_counting_scan_with_discard_target_allowed(self):
        text = ("import glob\n"
                "n = sum(1 for _ in glob.glob('*.json'))\n")
        assert _findings("src/repro/runner/x.py", text, "DET001") == []

    def test_out_of_scope_module_not_checked(self):
        text = "import time\nx = time.time()\n"
        assert _findings("src/repro/telemetry/x.py", text,
                         "DET001") == []
        assert _findings("src/repro/cpu/x.py", text, "DET001") != []


class TestAtomicityRule:
    def test_write_mode_open_flagged(self):
        text = "with open(p, 'w') as fh:\n    fh.write(s)\n"
        assert len(_findings("src/repro/runner/store.py", text,
                             "ATOM001")) == 1

    def test_write_text_method_flagged(self):
        text = "p.write_text(s, encoding='utf-8')\n"
        assert len(_findings("src/repro/runner/backends/filequeue.py",
                             text, "ATOM001")) == 1

    def test_read_and_append_modes_allowed(self):
        text = ("with open(p) as fh:\n    fh.read()\n"
                "with open(p, 'rb') as fh:\n    fh.read()\n"
                "with open(p, 'a') as fh:\n    fh.write(s)\n")
        assert _findings("src/repro/runner/store.py", text,
                         "ATOM001") == []

    def test_sanctioned_writer_exempt(self):
        text = ("def atomic_write_text(path, text):\n"
                "    tmp.write_text(text, encoding='utf-8')\n")
        assert _findings("src/repro/runner/store.py", text,
                         "ATOM001") == []

    def test_dynamic_mode_assumed_unsafe(self):
        text = "with open(p, mode) as fh:\n    fh.write(s)\n"
        assert len(_findings("src/repro/telemetry/status.py", text,
                             "ATOM001")) == 1

    def test_other_modules_not_in_scope(self):
        text = "open(p, 'w').write(s)\n"
        assert _findings("src/repro/cli.py", text, "ATOM001") == []


class TestStrictJsonRule:
    def test_permissive_dumps_flagged(self):
        text = "import json\ns = json.dumps(entry)\n"
        assert len(_findings("src/repro/runner/store.py", text,
                             "JSON001")) == 1
        assert len(_findings("src/repro/telemetry/core.py", text,
                             "JSON001")) == 1

    def test_strict_dumps_allowed(self):
        text = "import json\ns = json.dumps(entry, allow_nan=False)\n"
        assert _findings("src/repro/runner/store.py", text,
                         "JSON001") == []

    def test_sanctioned_helper_exempt(self):
        text = ("import json\n"
                "def to_json(payload):\n"
                "    return json.dumps(payload)\n")
        assert _findings("src/repro/cli.py", text, "JSON001") == []

    def test_out_of_scope_module_not_checked(self):
        text = "import json\ns = json.dumps(entry)\n"
        assert _findings("src/repro/experiments/x.py", text,
                         "JSON001") == []


class TestCacheKeyRule:
    _HEADER = ("import dataclasses\n"
               "@dataclasses.dataclass(frozen=True)\n")

    def test_field_missing_from_to_dict_flagged(self):
        text = (self._HEADER
                + "class Spec:\n"
                  "    workload: str\n"
                  "    engine: str\n"
                  "    def to_dict(self):\n"
                  "        return {'workload': self.workload}\n"
                  "    def key(self):\n"
                  "        return digest(self.to_dict())\n")
        found = _findings("src/repro/runner/spec.py", text, "KEY001")
        assert len(found) == 1
        assert "engine" in found[0].message

    def test_key_missing_field_without_to_dict_call_flagged(self):
        text = (self._HEADER
                + "class Spec:\n"
                  "    members: tuple\n"
                  "    extra: int\n"
                  "    def to_dict(self):\n"
                  "        return {'members': self.members,\n"
                  "                'extra': self.extra}\n"
                  "    def key(self):\n"
                  "        return digest({'members': self.members})\n")
        found = _findings("src/repro/runner/spec.py", text, "KEY001")
        assert len(found) == 1
        assert "extra" in found[0].message

    def test_to_dict_digesting_key_is_clean(self):
        text = (self._HEADER
                + "class Spec:\n"
                  "    workload: str\n"
                  "    engine: str\n"
                  "    def to_dict(self):\n"
                  "        return {'workload': self.workload,\n"
                  "                'engine': self.engine}\n"
                  "    def key(self):\n"
                  "        return digest(self.to_dict())\n")
        assert _findings("src/repro/runner/spec.py", text,
                         "KEY001") == []

    def test_key_referencing_every_field_is_clean(self):
        text = (self._HEADER
                + "class Grid:\n"
                  "    members: tuple\n"
                  "    def to_dict(self):\n"
                  "        return {'members': [m for m in self.members]}\n"
                  "    def key(self):\n"
                  "        return digest([m.key for m in self.members])\n")
        assert _findings("src/repro/runner/grid.py", text,
                         "KEY001") == []

    def test_dataclass_without_key_not_a_spec(self):
        text = (self._HEADER
                + "class Metrics:\n"
                  "    engine: str\n"
                  "    def to_dict(self):\n"
                  "        return {}\n")
        assert _findings("src/repro/telemetry/metrics.py", text,
                         "KEY001") == []

    def test_underscore_and_classvar_fields_exempt(self):
        text = ("import dataclasses\n"
                "import typing\n"
                "@dataclasses.dataclass\n"
                "class Spec:\n"
                "    workload: str\n"
                "    _cached: typing.Optional[str] = None\n"
                "    FORMAT: typing.ClassVar[int] = 1\n"
                "    def to_dict(self):\n"
                "        return {'workload': self.workload}\n"
                "    def key(self):\n"
                "        return digest(self.to_dict())\n")
        assert _findings("src/repro/runner/spec.py", text,
                         "KEY001") == []

    def test_real_specs_are_clean(self):
        report = lint_paths(
            [REPO_ROOT / "src/repro/runner/jobspec.py",
             REPO_ROOT / "src/repro/runner/gridspec.py"],
            [get_rule("KEY001")], root=REPO_ROOT)
        assert report.findings == []
        assert report.files == 2


class TestHotLoopTelemetryRule:
    def test_emit_inside_loop_flagged(self):
        text = ("from repro import telemetry\n"
                "for rec in records:\n"
                "    telemetry.emit('step', i=rec)\n")
        assert len(_findings("src/repro/cpu/fast.py", text,
                             "TEL001")) == 1

    def test_bare_imported_count_in_while_flagged(self):
        text = ("from repro.telemetry import count\n"
                "while n:\n"
                "    count('spin')\n")
        assert len(_findings("src/repro/cpu/grid.py", text,
                             "TEL001")) == 1

    def test_emit_outside_loop_allowed(self):
        text = ("from repro import telemetry\n"
                "telemetry.emit('phase', n=len(records))\n"
                "for rec in records:\n"
                "    total += rec\n"
                "telemetry.emit('done', total=total)\n")
        assert _findings("src/repro/cpu/grid.py", text, "TEL001") == []

    def test_non_hot_module_not_in_scope(self):
        text = ("from repro import telemetry\n"
                "for rec in records:\n"
                "    telemetry.emit('step', i=rec)\n")
        assert _findings("src/repro/runner/sweep.py", text,
                         "TEL001") == []

    def test_unrelated_emit_method_not_flagged(self):
        text = ("for rec in records:\n"
                "    particles.emit(rec)\n")
        assert _findings("src/repro/cpu/fast.py", text, "TEL001") == []


class TestRunnerSleepRule:
    def test_time_sleep_in_runner_flagged(self):
        text = ("import time\n"
                "while pending:\n"
                "    time.sleep(0.2)\n")
        assert len(_findings("src/repro/runner/backends/q.py", text,
                             "FLT001")) == 1

    def test_bare_imported_sleep_flagged(self):
        text = ("from time import sleep\n"
                "sleep(1.0)\n")
        assert len(_findings("src/repro/runner/loop.py", text,
                             "FLT001")) == 1

    def test_faults_sleep_is_the_sanctioned_wait(self):
        text = ("from repro import faults\n"
                "while pending:\n"
                "    faults.sleep(0.2)\n")
        assert _findings("src/repro/runner/backends/q.py", text,
                         "FLT001") == []

    def test_outside_runner_not_in_scope(self):
        text = ("import time\n"
                "time.sleep(2.0)\n")
        assert _findings("src/repro/cli.py", text, "FLT001") == []

    def test_unrelated_sleep_method_not_flagged(self):
        # a bare sleep() with no `from time import sleep` in scope is
        # someone else's sleep — near miss, not a finding
        text = ("device.sleep(5)\n"
                "sleep = object()\n"
                "sleep()\n")
        assert _findings("src/repro/runner/x.py", text, "FLT001") == []

    def test_real_runner_tree_is_clean(self):
        report = lint_paths([REPO_ROOT / "src/repro/runner"],
                            [get_rule("FLT001")], root=REPO_ROOT)
        assert report.findings == []


class TestSwallowedExceptionRule:
    def test_broad_pass_flagged(self):
        text = ("try:\n    work()\n"
                "except Exception:\n    pass\n")
        assert len(_findings("src/repro/runner/x.py", text,
                             "EXC001")) == 1

    def test_bare_except_continue_flagged(self):
        text = ("for job in jobs:\n"
                "    try:\n        run(job)\n"
                "    except:\n        continue\n")
        assert len(_findings("src/repro/cli.py", text, "EXC001")) == 1

    def test_broad_tuple_flagged(self):
        text = ("try:\n    work()\n"
                "except (ValueError, Exception):\n    pass\n")
        assert len(_findings("src/repro/runner/x.py", text,
                             "EXC001")) == 1

    def test_narrow_pass_allowed(self):
        text = ("try:\n    path.unlink()\n"
                "except OSError:\n    pass\n")
        assert _findings("src/repro/runner/x.py", text, "EXC001") == []

    def test_observable_broad_handler_allowed(self):
        text = ("try:\n    work()\n"
                "except Exception:\n    self.corrupt += 1\n")
        assert _findings("src/repro/runner/x.py", text, "EXC001") == []

    def test_telemetry_emit_sink_sanctioned(self):
        text = ("def emit(event, **fields):\n"
                "    try:\n        sink(event)\n"
                "    except Exception:\n        pass\n")
        assert _findings("src/repro/telemetry/core.py", text,
                         "EXC001") == []
        # the same handler anywhere else is still a finding
        assert len(_findings("src/repro/runner/x.py", text,
                             "EXC001")) == 1


class TestSuppressions:
    _BAD = "import time\nx = time.time()"

    def test_same_line_with_reason_suppresses(self):
        text = ("import time\n"
                "x = time.time()"
                "  # repro-lint: ok DET001  lease clock only\n")
        report = lint_modules(
            [ModuleSource(Path("x.py"), "src/repro/runner/x.py", text)])
        assert report.findings == []
        assert report.suppressed == 1

    def test_comment_line_above_suppresses(self):
        text = ("import time\n"
                "# repro-lint: ok DET001  lease clock only\n"
                "x = time.time()\n")
        assert _findings("src/repro/runner/x.py", text, "DET001") == []

    def test_reasonless_annotation_does_not_suppress(self):
        text = ("import time\n"
                "x = time.time()  # repro-lint: ok DET001\n")
        assert len(_findings("src/repro/runner/x.py", text,
                             "DET001")) == 1

    def test_other_rule_id_does_not_suppress(self):
        text = ("import time\n"
                "x = time.time()  # repro-lint: ok JSON001  wrong rule\n")
        assert len(_findings("src/repro/runner/x.py", text,
                             "DET001")) == 1

    def test_comma_separated_rule_list(self):
        text = ("import time, json\n"
                "# repro-lint: ok DET001,JSON001  both reviewed here\n"
                "x = json.dumps({'t': time.time()})\n")
        assert _findings("src/repro/runner/store.py", text) == []

    def test_non_adjacent_comment_does_not_suppress(self):
        text = ("# repro-lint: ok DET001  too far away\n"
                "import time\n"
                "x = time.time()\n")
        assert len(_findings("src/repro/runner/x.py", text,
                             "DET001")) == 1


class TestBaseline:
    def _finding(self, rel="src/repro/telemetry/x.py",
                 text="import json\ns = json.dumps(x)\n"):
        found = _findings(rel, text)
        assert found
        return found

    def test_round_trip_filters_exactly(self, tmp_path):
        found = self._finding()
        path = tmp_path / "baseline.json"
        refused = Baseline.write(path, found)
        assert refused == []
        fresh, baselined, stale = Baseline.load(path).filter(found)
        assert (fresh, baselined, stale) == ([], len(found), 0)

    def test_unmatched_findings_stay_live(self, tmp_path):
        found = self._finding()
        path = tmp_path / "baseline.json"
        Baseline.write(path, found)
        other = self._finding(text="import json\nt = json.dumps(y)\n")
        fresh, baselined, stale = Baseline.load(path).filter(other)
        assert len(fresh) == len(other)
        assert stale == len(found)  # the old entries matched nothing

    def test_multiplicity_is_respected(self, tmp_path):
        twice = self._finding(
            text="import json\ns = json.dumps(x)\ns = json.dumps(x)\n")
        assert len(twice) == 2
        path = tmp_path / "baseline.json"
        Baseline.write(path, twice[:1])  # baseline only one occurrence
        fresh, baselined, _ = Baseline.load(path).filter(twice)
        assert baselined == 1
        assert len(fresh) == 1

    def test_never_baseline_rules_refused(self, tmp_path):
        det = self._finding("src/repro/runner/x.py",
                            "import time\nx = time.time()\n")
        assert {f.rule for f in det} == {"DET001"}
        path = tmp_path / "baseline.json"
        refused = Baseline.write(path, det)
        assert refused == det  # stays live
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["findings"] == []
        for rule_id in NEVER_BASELINE:
            assert rule_id in ("ATOM001", "DET001")

    def test_missing_file_is_empty_malformed_is_loud(self, tmp_path):
        assert Baseline.load(tmp_path / "absent.json").entries == {}
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": 99}', encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported format"):
            Baseline.load(bad)


class TestCli:
    def _write_dirty_tree(self, tmp_path):
        # "telemetry" in the path puts the file in JSON001's scope
        pkg = tmp_path / "telemetry"
        pkg.mkdir()
        (pkg / "dirty.py").write_text(
            "import json\ns = json.dumps(x)\n", encoding="utf-8")
        return pkg

    def test_rules_listing(self, capsys):
        assert cli_main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        pkg = tmp_path / "runner"
        pkg.mkdir()
        (pkg / "clean.py").write_text("x = 1\n", encoding="utf-8")
        assert cli_main(["lint", str(pkg), "--no-baseline"]) == 0

    def test_finding_exits_one_and_reports(self, tmp_path, capsys):
        pkg = self._write_dirty_tree(tmp_path)
        assert cli_main(["lint", str(pkg), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "JSON001" in out and "dirty.py" in out

    def test_json_output_is_strict_and_structured(self, tmp_path,
                                                  capsys):
        pkg = self._write_dirty_tree(tmp_path)
        assert cli_main(["lint", str(pkg), "--no-baseline",
                         "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["JSON001"]

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        pkg = self._write_dirty_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert cli_main(["lint", str(pkg), "--baseline", str(baseline),
                         "--update-baseline"]) == 0
        assert cli_main(["lint", str(pkg), "--baseline",
                         str(baseline)]) == 0
        # fixing the finding leaves a stale entry, still exit 0
        (pkg / "dirty.py").write_text("x = 1\n", encoding="utf-8")
        assert cli_main(["lint", str(pkg), "--baseline",
                         str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "stale" in out

    def test_update_baseline_cannot_grandfather_det001(self, tmp_path,
                                                       capsys):
        pkg = tmp_path / "runner"
        pkg.mkdir()
        (pkg / "dirty.py").write_text(
            "import time\nx = time.time()\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert cli_main(["lint", str(pkg), "--baseline", str(baseline),
                         "--update-baseline"]) == 1
        out = capsys.readouterr().out
        assert "cannot be baselined" in out
        assert cli_main(["lint", str(pkg), "--baseline",
                         str(baseline)]) == 1
        capsys.readouterr()

    def test_bad_path_and_bad_rule_are_clean_errors(self, tmp_path,
                                                    capsys):
        assert cli_main(["lint", str(tmp_path / "absent"),
                         "--no-baseline"]) == 2
        assert "no such file" in capsys.readouterr().err
        assert cli_main(["lint", str(tmp_path), "--no-baseline",
                         "--rule", "NOPE999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_single_rule_selection(self, tmp_path, capsys):
        pkg = tmp_path / "runner"
        pkg.mkdir()
        (pkg / "dirty.py").write_text(
            "import time, json\n"
            "x = time.time()\n"
            "s = json.dumps(x)\n", encoding="utf-8")
        assert cli_main(["lint", str(pkg), "--no-baseline",
                         "--rule", "DET001", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload["findings"]] == ["DET001"]


class TestShippedTree:
    def test_analysis_package_lints_itself_clean(self):
        report = lint_paths([REPO_ROOT / "src/repro/analysis"],
                            root=REPO_ROOT)
        assert report.findings == []

    def test_whole_tree_lints_clean_with_empty_baseline(self):
        """The shipped contract: zero live findings and an *empty*
        baseline — nothing is silently grandfathered."""
        report = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert report.findings == []
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert sum(baseline.entries.values()) == 0

    def test_suppressions_in_tree_all_carry_reasons(self):
        """Reason-less annotations do not suppress, so any that crept
        in would surface as live findings above; this pins the count
        of sanctioned sites so new ones are a conscious decision."""
        report = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        # filequeue's uuid4 + 5 coordination clocks (leases, backoff)
        assert report.suppressed == 6
