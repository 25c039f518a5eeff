"""Tests of repro-lint's whole-program analysis (PR 9).

Covers the graph builder (`lint/graph.py`), the four whole-program rule
families (REP008 layering, REP009 kernel purity, REP010 write protocol,
REP011 suppression hygiene) and the SARIF emitter.  Multi-file fixtures are written under ``tmp_path/repro/...``
so `package_relpath` resolves them exactly like tree files.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.lint import lint_paths, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.config import LAYER_BANDS, LintConfig
from repro.lint.graph import (
    ProjectGraph,
    analyze_module,
    module_name_of,
    package_of,
)
from repro.lint.sarif import sarif_document, to_sarif

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def _codes(findings, include_suppressed=False):
    return [f.rule for f in findings if include_suppressed or not f.suppressed]


def _lint(source: str, filename: str):
    return lint_source(textwrap.dedent(source), filename)


def _write_tree(root: Path, files):
    """Write ``{relpath: source}`` under ``root`` and return ``root``."""
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf8")
    return root


# ---------------------------------------------------------------------------
# Graph primitives
# ---------------------------------------------------------------------------


class TestGraphPrimitives:
    def test_module_name_of(self):
        assert module_name_of("repro/scoring/pairwise.py") == (
            "repro.scoring.pairwise"
        )
        assert module_name_of("repro/xp/__init__.py") == "repro.xp"
        assert module_name_of("repro/io.py") == "repro.io"

    def test_package_of(self):
        assert package_of("repro.scoring.pairwise") == "scoring"
        assert package_of("repro.io") == "io"
        assert package_of("repro") == "repro"

    def test_layer_bands_cover_the_tree(self):
        # Every top-level unit under src/repro must have a declared band
        # (or be the special-cased lint package) — a new subsystem must
        # extend the map consciously.
        units = set()
        for path in sorted((SRC_ROOT / "repro").iterdir()):
            if path.name.startswith(("_", ".")):
                continue
            units.add(path.stem if path.suffix == ".py" else path.name)
        missing = units - set(LAYER_BANDS) - {"lint"}
        assert not missing, f"units missing from LAYER_BANDS: {missing}"

    def test_import_and_call_collection(self):
        source = textwrap.dedent(
            """
            from repro.geometry.rotation import apply

            def outer(x):
                def inner(y):
                    return y
                return inner(apply(x))
            """
        )
        import ast

        analysis = analyze_module(
            ast.parse(source), "repro/scoring/mod.py"
        )
        assert analysis.module == "repro.scoring.mod"
        assert [s.target for s in analysis.imports] == [
            "repro.geometry.rotation.apply"
        ]
        assert analysis.imports[0].toplevel
        outer = {f.qualname: f for f in analysis.functions}["outer"]
        targets = sorted(c.target for c in outer.calls)
        assert targets == [
            "repro.geometry.rotation.apply",
            "repro.scoring.mod.outer.<locals>.inner",
        ]

    def test_shortest_cycle(self, tmp_path):
        root = _write_tree(
            tmp_path,
            {
                "repro/serve/a.py": "import repro.runtime.b\n",
                "repro/runtime/b.py": "import repro.serve.a\n",
            },
        )
        import ast

        analyses = [
            analyze_module(
                ast.parse((root / rel).read_text()), rel
            )
            for rel in ("repro/serve/a.py", "repro/runtime/b.py")
        ]
        graph = ProjectGraph(analyses)
        cycle = graph.shortest_cycle("repro.runtime.b", "repro.serve.a")
        assert cycle == [
            "repro.runtime.b",
            "repro.serve.a",
            "repro.runtime.b",
        ]


# ---------------------------------------------------------------------------
# REP008 — architecture layering
# ---------------------------------------------------------------------------


class TestLayering:
    def test_upward_import_flagged(self):
        findings = _lint(
            """
            from repro.runtime.store import RunStore

            def f():
                return RunStore
            """,
            "repro/scoring/bad.py",
        )
        assert _codes(findings) == ["REP008"]
        assert "band 4" in findings[0].message
        assert "band 8" in findings[0].message

    def test_downward_and_same_band_imports_clean(self):
        findings = _lint(
            """
            from repro.io import write_json_atomic
            from repro.geometry.rotation import apply
            from repro.moscem.dominance import fronts
            """,
            "repro/scoring/ok.py",
        )
        assert _codes(findings) == []

    def test_lazy_import_exempt(self):
        findings = _lint(
            """
            def late():
                from repro.api.registry import BACKENDS
                return BACKENDS
            """,
            "repro/serve/ok.py",
        )
        assert _codes(findings) == []

    def test_seeded_violation_in_multi_file_fixture(self, tmp_path):
        # The acceptance-criteria fixture: a synthetic back-edge seeded
        # into an otherwise clean two-module project must be detected,
        # located at the offending import statement.
        root = _write_tree(
            tmp_path,
            {
                "repro/geometry/shapes.py": (
                    """
                    from repro.serve.daemon import Fleet

                    def f():
                        return Fleet
                    """
                ),
                "repro/serve/daemon.py": (
                    """
                    class Fleet:
                        pass
                    """
                ),
            },
        )
        findings = lint_paths([root])
        rep008 = [f for f in findings if f.rule == "REP008"]
        assert len(rep008) == 1
        assert rep008[0].path.endswith("repro/geometry/shapes.py")
        assert rep008[0].line == 2
        assert "repro.serve.daemon" in rep008[0].message

    def test_cycle_reported_with_chain(self, tmp_path):
        root = _write_tree(
            tmp_path,
            {
                "repro/runtime/a.py": "import repro.serve.b\n",
                "repro/serve/b.py": "import repro.runtime.a\n",
            },
        )
        findings = [f for f in lint_paths([root]) if f.rule == "REP008"]
        assert len(findings) == 1  # only the upward edge is a violation
        assert "closes an import cycle" in findings[0].message
        assert (
            "repro.runtime.a -> repro.serve.b -> repro.runtime.a"
            in findings[0].message
        )

    def test_lint_package_must_not_import_the_tree(self):
        findings = _lint(
            """
            from repro.io import write_json_atomic
            """,
            "repro/lint/helper.py",
        )
        assert _codes(findings) == ["REP008"]
        assert "standard library" in findings[0].message

    def test_type_checking_imports_exempt(self):
        findings = _lint(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.runtime.store import RunStore

            def f(store: "RunStore") -> None:
                return None
            """,
            "repro/scoring/typed.py",
        )
        assert _codes(findings) == []


# ---------------------------------------------------------------------------
# REP009 — kernel purity
# ---------------------------------------------------------------------------


class TestKernelPurity:
    def test_pure_kernel_clean(self):
        findings = _lint(
            """
            from repro.xp import array_kernel

            @array_kernel("demo")
            def kernel(xp, coords):
                delta = coords[:, 0] - coords[:, 1]
                return xp.sqrt(xp.sum(delta * delta))
            """,
            "repro/scoring/demo.py",
        )
        assert _codes(findings) == []

    def test_direct_io_flagged(self):
        findings = _lint(
            """
            from repro.xp import array_kernel

            @array_kernel("demo")
            def kernel(xp, coords):
                print("tracing")
                return xp.sum(coords)
            """,
            "repro/scoring/demo.py",
        )
        assert _codes(findings) == ["REP009"]
        assert "performs IO" in findings[0].message

    def test_transitive_impurity_flagged_with_chain(self):
        findings = _lint(
            """
            from repro.xp import array_kernel

            def _helper(xp, x):
                import time
                time.sleep(0)
                return xp.sum(x)

            def _deep(xp, x):
                return _helper(xp, x)

            @array_kernel("demo")
            def kernel(xp, x):
                return _deep(xp, x)
            """,
            "repro/scoring/demo.py",
        )
        rep009 = [f for f in findings if f.rule == "REP009"]
        assert len(rep009) == 1
        assert "via kernel -> _deep -> _helper" in rep009[0].message
        # Reported at the root's def line, where the contract lives.
        assert rep009[0].line == 13

    def test_maybe_jit_wrapped_function_is_a_root(self):
        findings = _lint(
            """
            from repro.xp.compile import maybe_jit

            def body(xp, x):
                import os
                os.urandom(4)
                return x

            compiled = maybe_jit(body, backend="jax")
            """,
            "repro/xp/demo.py",
        )
        assert _codes(findings) == ["REP009"]
        assert "RNG" in findings[0].message

    def test_rng_construction_flagged(self):
        findings = _lint(
            """
            from repro.xp import array_kernel
            import numpy as np

            @array_kernel("demo")
            def kernel(xp, x):
                rng = np.random.default_rng(0)
                return rng.random()
            """,
            "repro/analysis/demo.py",
        )
        assert "REP009" in _codes(findings)

    def test_parameter_mutation_flagged(self):
        findings = _lint(
            """
            from repro.xp import array_kernel

            @array_kernel("demo")
            def kernel(xp, out, x):
                out[0] = xp.sum(x)
                return out
            """,
            "repro/scoring/demo.py",
        )
        assert _codes(findings) == ["REP009"]
        assert "mutates a parameter" in findings[0].message

    def test_rebound_parameter_not_a_mutation(self):
        # A parameter rebound to a local copy is the function's own
        # value; writes through the new binding are not caller-visible.
        findings = _lint(
            """
            from repro.xp import array_kernel

            @array_kernel("demo")
            def kernel(xp, out, x):
                out = xp.zeros_like(x)
                out[0] = xp.sum(x)
                return out
            """,
            "repro/scoring/demo.py",
        )
        assert _codes(findings) == []

    def test_global_write_flagged(self):
        findings = _lint(
            """
            from repro.xp import array_kernel

            _CACHE = None

            @array_kernel("demo")
            def kernel(xp, x):
                global _CACHE
                _CACHE = x
                return x
            """,
            "repro/scoring/demo.py",
        )
        assert _codes(findings) == ["REP009"]
        assert "writes enclosing scope" in findings[0].message

    def test_unresolvable_calls_are_opaque(self):
        # A method on an opaque object must not poison the closure.
        findings = _lint(
            """
            from repro.xp import array_kernel

            @array_kernel("demo")
            def kernel(xp, table, x):
                return table.lookup(x)
            """,
            "repro/scoring/demo.py",
        )
        assert _codes(findings) == []

    def test_every_registered_kernel_is_transitively_pure(self):
        # The acceptance criterion, asserted structurally: the real tree
        # contains registered kernels (the analysis is not vacuous) and
        # REP009 holds over all of them.
        import ast

        from repro.lint.config import package_relpath
        from repro.lint.rules.purity import KernelPurityRule

        analyses = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf8"))
            analyses.append(analyze_module(tree, package_relpath(path)))
        graph = ProjectGraph(analyses)
        roots = KernelPurityRule._roots(graph)
        kernels = [
            name for name in roots if graph.functions[name][1].kernel
        ]
        assert len(kernels) >= 5, "kernel registry went missing?"
        violations = list(
            KernelPurityRule().check_project(graph, LintConfig())
        )
        assert violations == []


# ---------------------------------------------------------------------------
# REP010 — durable-write protocol
# ---------------------------------------------------------------------------


class TestWriteProtocol:
    def test_marker_last_sequence_clean(self):
        findings = _lint(
            """
            from repro.io import write_json_atomic, write_npz_atomic

            def publish(root, arrays, meta, entry):
                write_npz_atomic(root / "decoys.npz", arrays)
                write_json_atomic(root / "result.json", meta)
                write_json_atomic(root / "entry.json", entry)
            """,
            "repro/serve/ok.py",
        )
        assert _codes(findings) == []

    def test_marker_before_blob_flagged(self):
        findings = _lint(
            """
            from repro.io import write_json_atomic, write_npz_atomic

            def publish(root, arrays, entry):
                write_json_atomic(root / "entry.json", entry)
                write_npz_atomic(root / "decoys.npz", arrays)
            """,
            "repro/serve/bad.py",
        )
        assert _codes(findings) == ["REP010"]
        assert "after marker-rank `entry.json`" in findings[0].message

    def test_summary_before_blob_flagged(self):
        findings = _lint(
            """
            from repro.io import write_json_atomic, write_npz_atomic

            def save(root, arrays, meta):
                write_json_atomic(root / "result.json", meta)
                write_npz_atomic(root / "decoys.npz", arrays)
            """,
            "repro/runtime/bad.py",
        )
        assert _codes(findings) == ["REP010"]

    def test_marker_via_blob_helper_flagged(self):
        findings = _lint(
            """
            from repro.io import write_bytes_atomic

            def publish(root, payload):
                write_bytes_atomic(root / "entry.json", payload)
            """,
            "repro/serve/bad.py",
        )
        assert _codes(findings) == ["REP010"]
        assert "JSON helper" in findings[0].message

    def test_transient_files_exempt(self):
        findings = _lint(
            """
            from repro.io import write_json_atomic, write_npz_atomic

            def heartbeat(root, status, arrays):
                write_json_atomic(root / "status.json", status)
                write_npz_atomic(root / "packet.npz", arrays)
            """,
            "repro/runtime/ok.py",
        )
        assert _codes(findings) == []

    def test_transitive_helper_write_checked(self):
        # The callee's blob write participates in the caller's ordering
        # exactly as if inlined: entry.json before the helper's npz.
        findings = _lint(
            """
            from repro.io import write_json_atomic, write_npz_atomic

            def _save_blob(root, arrays):
                write_npz_atomic(root / "decoys.npz", arrays)

            def publish(root, arrays, entry):
                write_json_atomic(root / "entry.json", entry)
                _save_blob(root, arrays)
            """,
            "repro/serve/bad.py",
        )
        rep010 = [f for f in findings if f.rule == "REP010"]
        assert len(rep010) == 1
        assert "_save_blob" in rep010[0].message

    def test_class_constant_filenames_resolved(self):
        findings = _lint(
            """
            from repro.io import write_json_atomic, write_npz_atomic

            class Cache:
                ENTRY_NAME = "entry.json"
                DECOYS_NAME = "decoys.npz"

                def publish(self, root, arrays, entry):
                    write_json_atomic(root / self.ENTRY_NAME, entry)
                    write_npz_atomic(root / self.DECOYS_NAME, arrays)
            """,
            "repro/serve/bad.py",
        )
        assert _codes(findings) == ["REP010"]

    def test_complete_transaction_callee_imposes_no_order(self):
        # A callee running its own full blob->summary protocol (like
        # save_checkpoint) may be invoked repeatedly or after writes.
        findings = _lint(
            """
            from repro.io import write_json_atomic, write_npz_atomic

            def _checkpoint(root, arrays, meta):
                write_npz_atomic(root / "state.npz", arrays)
                write_json_atomic(root / "state_meta.json", meta)

            def drive(root, arrays, meta):
                _checkpoint(root, arrays, meta)
                _checkpoint(root, arrays, meta)
            """,
            "repro/runtime/ok.py",
        )
        assert _codes(findings) == []

    def test_exclusive_claim_ranks_as_marker(self):
        findings = _lint(
            """
            from repro.io import create_json_exclusive, write_npz_atomic

            def claim_then_write(root, payload, arrays):
                create_json_exclusive(root / "lease-0.json", payload)
                write_npz_atomic(root / "packet.npz", arrays)
            """,
            "repro/serve/bad.py",
        )
        assert _codes(findings) == ["REP010"]

    def test_out_of_scope_module_not_reported(self):
        findings = _lint(
            """
            from repro.io import write_json_atomic, write_npz_atomic

            def save(root, arrays, entry):
                write_json_atomic(root / "entry.json", entry)
                write_npz_atomic(root / "decoys.npz", arrays)
            """,
            "repro/analysis/whatever.py",
        )
        assert _codes(findings) == []


# ---------------------------------------------------------------------------
# REP011 — suppression hygiene
# ---------------------------------------------------------------------------


class TestSuppressionHygiene:
    def test_stale_line_suppression_flagged(self):
        findings = _lint(
            """
            import json

            def g(x):
                return json.dumps(x, sort_keys=True)  # repro-lint: disable=REP003
            """,
            "repro/analysis/ok.py",
        )
        assert _codes(findings) == ["REP011"]
        assert "matches no finding on this line" in findings[0].message

    def test_live_suppression_not_flagged(self):
        findings = _lint(
            """
            import json

            def g(x):
                return json.dumps(x)  # repro-lint: disable=REP003
            """,
            "repro/analysis/ok.py",
        )
        assert _codes(findings) == []

    def test_stale_code_within_live_comment_flagged(self):
        findings = _lint(
            """
            import json

            def g(x):
                return json.dumps(x)  # repro-lint: disable=REP003,REP005
            """,
            "repro/analysis/ok.py",
        )
        assert _codes(findings) == ["REP011"]
        stale = [f for f in findings if f.rule == "REP011"][0]
        assert "REP005" in stale.message

    def test_stale_file_wide_suppression_flagged(self):
        findings = _lint(
            """
            # repro-lint: disable-file=REP001

            def g(x):
                return x
            """,
            "repro/analysis/ok.py",
        )
        assert _codes(findings) == ["REP011"]
        assert "in this file" in findings[0].message

    def test_rep011_suppression_is_exempt_from_staleness(self):
        findings = _lint(
            """
            import json

            def g(x):
                return json.dumps(x, sort_keys=True)  # repro-lint: disable=REP003,REP011
            """,
            "repro/analysis/ok.py",
        )
        # The stale REP003 report is suppressed by the explicit REP011,
        # and the REP011 code itself is never reported stale.
        assert _codes(findings) == []
        assert _codes(findings, include_suppressed=True) == ["REP011"]

    def test_stale_disable_all_cannot_self_suppress(self):
        findings = _lint(
            """
            def g(x):
                return x  # repro-lint: disable=all
            """,
            "repro/analysis/ok.py",
        )
        assert _codes(findings) == ["REP011"]

    def test_directive_text_in_docstring_is_not_a_suppression(self):
        findings = _lint(
            '''
            def g():
                """Explain `# repro-lint: disable=REP001` in prose."""
                return 1
            ''',
            "repro/analysis/ok.py",
        )
        assert _codes(findings) == []


# ---------------------------------------------------------------------------
# SARIF emission
# ---------------------------------------------------------------------------


class TestSarif:
    def _findings(self, tmp_path):
        root = _write_tree(
            tmp_path,
            {
                "repro/serve/bad.py": (
                    """
                    from repro.io import write_json_atomic, write_npz_atomic

                    def publish(root, arrays, entry):
                        write_json_atomic(root / "entry.json", entry)
                        write_npz_atomic(root / "decoys.npz", arrays)
                    """
                )
            },
        )
        return lint_paths([root])

    def test_document_shape(self, tmp_path):
        findings = self._findings(tmp_path)
        doc = sarif_document(findings)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert {"REP001", "REP008", "REP009", "REP010", "REP011"} <= set(
            rule_ids
        )
        result = run["results"][0]
        assert result["ruleId"] == "REP010"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith(
            "repro/serve/bad.py"
        )
        assert location["region"]["startLine"] == 6
        # SARIF columns are 1-based.
        assert location["region"]["startColumn"] >= 1

    def test_suppressed_findings_carried_as_dismissals(self):
        findings = _lint(
            """
            import numpy as np

            rng = np.random.default_rng()  # repro-lint: disable=REP001
            """,
            "repro/analysis/demo.py",
        )
        doc = sarif_document(findings)
        results = doc["runs"][0]["results"]
        assert len(results) == 1
        assert results[0]["suppressions"][0]["kind"] == "inSource"

    def test_emission_is_deterministic(self, tmp_path):
        findings = self._findings(tmp_path)
        assert to_sarif(findings) == to_sarif(findings)
        parsed = json.loads(to_sarif(findings))
        assert parsed["runs"][0]["results"]


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestCli:
    def test_sarif_format(self, tmp_path, capsys):
        root = _write_tree(
            tmp_path / "tree",
            {
                "repro/analysis/ok.py": "def f():\n    return 1\n",
            },
        )
        code = lint_main([str(root), "--format", "sarif"])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["version"] == "2.1.0"


# ---------------------------------------------------------------------------
# Self-check: the tree itself holds the whole-program invariants
# ---------------------------------------------------------------------------


class TestTreeSelfCheck:
    def test_src_is_clean_under_the_whole_program_rules(self):
        findings = lint_paths([SRC_ROOT])
        unsuppressed = [f for f in findings if not f.suppressed]
        assert unsuppressed == [], "\n".join(
            f.render() for f in unsuppressed
        )

    def test_no_stale_suppressions_in_tree(self):
        findings = lint_paths([SRC_ROOT])
        stale = [f for f in findings if f.rule == "REP011"]
        assert stale == [], "\n".join(f.render() for f in stale)
