"""Unit tests of the repro-lint rule engine, rules, CLI and SARIF output."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintError, lint_paths, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.config import package_relpath
from repro.lint.sarif import sarif_document, to_sarif

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def _codes(findings):
    return [f.rule for f in findings]


def _lint(source: str, filename: str = "repro/runtime/mod.py"):
    return lint_source(textwrap.dedent(source), filename)


# ---------------------------------------------------------------------------
# REP001 — naked RNG
# ---------------------------------------------------------------------------


class TestNakedRng:
    def test_bare_default_rng_flagged(self):
        findings = _lint("import numpy as np\nrng = np.random.default_rng()\n")
        assert _codes(findings) == ["REP001"]

    def test_seeded_default_rng_allowed(self):
        findings = _lint(
            "import numpy as np\nrng = np.random.default_rng(seed)\n"
        )
        assert _codes(findings) == []

    def test_legacy_global_numpy_rng_flagged(self):
        findings = _lint("import numpy as np\nx = np.random.rand(4)\n")
        assert _codes(findings) == ["REP001"]

    def test_stdlib_random_flagged(self):
        findings = _lint("import random\nx = random.random()\n")
        assert _codes(findings) == ["REP001"]

    def test_seed_sequence_outside_sanctioned_sites_flagged(self):
        findings = _lint(
            "import numpy as np\nseq = np.random.SeedSequence(entropy=3)\n"
        )
        assert _codes(findings) == ["REP001"]

    def test_sanctioned_derivation_site_exempt(self):
        findings = _lint(
            "import numpy as np\nseq = np.random.SeedSequence(entropy=3)\n",
            filename="repro/utils/rng.py",
        )
        assert _codes(findings) == []


# ---------------------------------------------------------------------------
# REP002 — non-atomic writes
# ---------------------------------------------------------------------------


class TestNonAtomicWrite:
    def test_open_for_write_flagged(self):
        findings = _lint(
            'with open(path, "w") as fh:\n    fh.write(data)\n'
        )
        assert _codes(findings) == ["REP002"]

    def test_append_mode_exempt(self):
        findings = _lint(
            'with open(path, "a") as fh:\n    fh.write(line)\n'
        )
        assert _codes(findings) == []

    def test_read_mode_exempt(self):
        findings = _lint('with open(path, "rb") as fh:\n    fh.read()\n')
        assert _codes(findings) == []

    def test_write_text_flagged(self):
        findings = _lint("path.write_text(doc)\n")
        assert _codes(findings) == ["REP002"]

    def test_np_savez_to_path_flagged(self):
        findings = _lint(
            "import numpy as np\nnp.savez_compressed(path, x=x)\n"
        )
        assert _codes(findings) == ["REP002"]

    def test_np_savez_into_buffer_exempt(self):
        findings = _lint(
            "import numpy as np\nnp.savez_compressed(buffer, x=x)\n"
        )
        assert _codes(findings) == []

    def test_outside_store_subsystems_not_patrolled(self):
        findings = _lint(
            'with open(path, "w") as fh:\n    fh.write(data)\n',
            filename="repro/analysis/report.py",
        )
        assert _codes(findings) == []


# ---------------------------------------------------------------------------
# REP003 — unordered iteration / unsorted serialisation
# ---------------------------------------------------------------------------


class TestUnorderedIteration:
    def test_for_over_set_call_flagged(self):
        findings = _lint("for item in set(items):\n    emit(item)\n")
        assert _codes(findings) == ["REP003"]

    def test_for_over_sorted_exempt(self):
        findings = _lint(
            "for item in sorted(set(items)):\n    emit(item)\n"
        )
        assert _codes(findings) == []

    def test_glob_iteration_flagged(self):
        findings = _lint("for p in root.glob('*.json'):\n    load(p)\n")
        assert _codes(findings) == ["REP003"]

    def test_listdir_comprehension_flagged(self):
        findings = _lint("import os\nnames = [n for n in os.listdir(d)]\n")
        assert _codes(findings) == ["REP003"]

    def test_order_insensitive_consumer_exempt(self):
        findings = _lint(
            "count = len([p for p in root.glob('*.json')])\n"
            "total = sum(w for w in set(weights))\n"
        )
        assert _codes(findings) == []

    def test_json_dumps_without_sort_keys_flagged(self):
        findings = _lint("import json\ndoc = json.dumps(payload)\n")
        assert _codes(findings) == ["REP003"]

    def test_json_dumps_with_sort_keys_exempt(self):
        findings = _lint(
            "import json\ndoc = json.dumps(payload, sort_keys=True)\n"
        )
        assert _codes(findings) == []


# ---------------------------------------------------------------------------
# REP004 — wall-clock in payloads
# ---------------------------------------------------------------------------


class TestWallClock:
    def test_wallclock_inside_payload_writer_flagged(self):
        findings = _lint(
            "import time\n"
            'store.append_journal(run_id, {"event": "done", "time": time.time()})\n'
        )
        assert _codes(findings) == ["REP004"]

    def test_wallclock_outside_payloads_allowed(self):
        findings = _lint(
            "import time\nstarted = time.time()\n"
            "store.write_shard_status(run_id, 0, finished_at=started)\n"
        )
        assert _codes(findings) == []

    def test_monotonic_clocks_always_allowed(self):
        findings = _lint(
            "import time\n"
            "store.append_journal(run_id, {'t': time.perf_counter()})\n"
        )
        assert _codes(findings) == []

    def test_replay_critical_module_bans_wallclock_entirely(self):
        findings = _lint(
            "import time\nstamp = time.time()\n",
            filename="repro/islands/broker.py",
        )
        assert _codes(findings) == ["REP004"]

    def test_obs_module_payload_wallclock_flagged(self):
        # Telemetry rides the status channel only: repro/obs/ is inside
        # REP004's scope, so a wall-clock reading leaking into a journal
        # payload from the obs package is a lint error, not a style nit.
        findings = _lint(
            "import time\n"
            'store.append_journal(run_id, {"hb": time.time()})\n',
            filename="repro/obs/fleet.py",
        )
        assert _codes(findings) == ["REP004"]

    def test_obs_heartbeat_shape_allowed(self):
        # The sanctioned shape: build the wall-clock payload in a helper,
        # hand the finished dict to the atomic writer.
        findings = _lint(
            "import time\n"
            "def _payload():\n"
            '    return {"heartbeat": time.time()}\n'
            "def write(path):\n"
            "    payload = _payload()\n"
            "    write_json_atomic(path, payload)\n",
            filename="repro/obs/fleet.py",
        )
        assert _codes(findings) == []


# ---------------------------------------------------------------------------
# REP007 — numpy inside @array_kernel functions
# ---------------------------------------------------------------------------


class TestXpFacade:
    def test_np_call_inside_kernel_flagged(self):
        findings = _lint(
            """
            import numpy as np
            from repro.xp.dispatch import array_kernel

            @array_kernel("bad")
            def _bad(xp, values):
                return np.sum(values)
            """,
            filename="repro/scoring/mod.py",
        )
        assert _codes(findings) == ["REP007"]

    def test_called_decorator_form_detected(self):
        findings = _lint(
            """
            import numpy as np
            from repro.xp import dispatch

            @dispatch.array_kernel("bad", static_argnums=(1,))
            def _bad(xp, values, n):
                return np.take(values, n)
            """,
            filename="repro/geometry/mod.py",
        )
        assert _codes(findings) == ["REP007"]

    def test_xp_math_exempt(self):
        findings = _lint(
            """
            from repro.xp.dispatch import array_kernel

            @array_kernel("good")
            def _good(xp, values):
                return xp.einsum("pk->p", xp.asarray(values, dtype=xp.float64))
            """,
            filename="repro/moscem/mod.py",
        )
        assert _codes(findings) == []

    def test_scalar_constants_exempt(self):
        findings = _lint(
            """
            import numpy as np
            from repro.xp.dispatch import array_kernel

            @array_kernel("good")
            def _good(xp, angles):
                return xp.sin(angles + np.pi) * np.e
            """,
            filename="repro/closure/mod.py",
        )
        assert _codes(findings) == []

    def test_host_orchestration_outside_kernels_exempt(self):
        findings = _lint(
            """
            import numpy as np

            def host_loop(points):
                totals = np.zeros(points.shape[0])
                return totals
            """,
            filename="repro/scoring/mod.py",
        )
        assert _codes(findings) == []

    def test_outside_kernel_dirs_not_patrolled(self):
        findings = _lint(
            """
            import numpy as np
            from repro.xp.dispatch import array_kernel

            @array_kernel("bad")
            def _bad(xp, values):
                return np.sum(values)
            """,
            filename="repro/analysis/mod.py",
        )
        assert _codes(findings) == []


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


class TestConfig:
    def test_package_relpath(self):
        assert (
            package_relpath("/x/src/repro/runtime/store.py")
            == "repro/runtime/store.py"
        )
        assert package_relpath("repro/runtime/x.py") == "repro/runtime/x.py"

    def test_syntax_error_raises_lint_error(self):
        with pytest.raises(LintError):
            lint_source("def broken(:\n", "repro/runtime/mod.py")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "repro" / "runtime" / "clean.py"
        target.parent.mkdir(parents=True)
        target.write_text("VALUE = 1\n", encoding="utf8")
        assert lint_main([str(target)]) == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "repro" / "runtime" / "dirty.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import numpy as np\nrng = np.random.default_rng()\n",
            encoding="utf8",
        )
        assert lint_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        target = tmp_path / "repro" / "runtime" / "broken.py"
        target.parent.mkdir(parents=True)
        target.write_text("def broken(:\n", encoding="utf8")
        assert lint_main([str(target)]) == 2

    def test_missing_path_exits_two(self, tmp_path):
        assert lint_main([str(tmp_path / "absent")]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP001", "REP002", "REP003", "REP004", "REP007"):
            assert code in out

    def test_sarif_format(self, tmp_path, capsys):
        target = tmp_path / "repro" / "analysis" / "ok.py"
        target.parent.mkdir(parents=True)
        target.write_text("def f():\n    return 1\n", encoding="utf8")
        assert lint_main([str(tmp_path), "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"


# ---------------------------------------------------------------------------
# SARIF emission
# ---------------------------------------------------------------------------


class TestSarif:
    def _findings(self, tmp_path):
        target = tmp_path / "repro" / "runtime" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import numpy as np\n\nrng = np.random.default_rng()\n",
            encoding="utf8",
        )
        return lint_paths([tmp_path])

    def test_document_shape(self, tmp_path):
        doc = sarif_document(self._findings(tmp_path))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == ["REP001", "REP002", "REP003", "REP004", "REP007"]
        result = run["results"][0]
        assert result["ruleId"] == "REP001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith(
            "repro/runtime/bad.py"
        )
        assert location["region"]["startLine"] == 3
        # SARIF columns are 1-based.
        assert location["region"]["startColumn"] == 7

    def test_emission_is_deterministic(self, tmp_path):
        findings = self._findings(tmp_path)
        assert to_sarif(findings) == to_sarif(findings)
        assert json.loads(to_sarif(findings))["runs"][0]["results"]


# ---------------------------------------------------------------------------
# Self-check: the tree must be clean under its own linter
# ---------------------------------------------------------------------------


class TestSelfCheck:
    def test_src_tree_has_zero_unsuppressed_findings(self):
        findings = lint_paths([SRC_ROOT])
        assert findings == [], "\n".join(f.render() for f in findings)
