"""``repro-lint``: AST-based determinism & invariant checking.

Every subsystem of this repo stakes its correctness on a handful of
repo-wide invariants — coordinate-derived seeds only, atomic store
writes, byte-identical ledger replay, no dense (P, P) materialisation in
kernels, versioned checkpoint schemas, a strict architecture layer
order, effect-free jit kernels, marker-last durable writes.  Property
tests catch violations *after* they corrupt a run; this package catches
them at diff time, as machine-checked rules over the Python AST —
per-file rules over one parent-annotated tree, whole-program rules over
the project import/call graph (:mod:`repro.lint.graph`):

========  ====================================================
REP001    naked RNG outside the sanctioned seed-derivation sites
REP002    non-atomic file writes bypassing :mod:`repro.io`
REP003    non-deterministic iteration/serialisation ordering
REP004    wall-clock readings inside replay-compared payloads
REP005    dense quadratic materialisation in kernel hot paths
REP006    checkpoint-schema drift without a version bump
REP007    numpy calls inside ``@array_kernel`` bodies (use ``xp``)
REP008    module-level imports against the declared layer order
REP009    impure transitive call closure of a jit kernel root
REP010    durable writes out of blobs -> summaries -> markers order
REP011    stale ``# repro-lint: disable`` suppression comments
========  ====================================================

Use :func:`run_lint` (or :func:`lint_paths` with an explicit policy)
programmatically, the ``repro-lint`` console script from a shell or CI
(``--format sarif`` emits SARIF 2.1.0 for code-scanning upload), and
``# repro-lint: disable=REPxxx`` comments (with a justification) to
suppress a finding at a specific line — REP011 reports any such comment that outlives its
finding.  See ``CONTRIBUTING.md`` for the rationale behind each rule.
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import (
    Finding,
    LintError,
    lint_paths,
    lint_source,
    run_lint,
)
from repro.lint.rules import PROJECT_RULES, RULES, get_project_rules, get_rules

__all__ = [
    "Finding",
    "LintConfig",
    "LintError",
    "PROJECT_RULES",
    "RULES",
    "get_project_rules",
    "get_rules",
    "lint_paths",
    "lint_source",
    "load_config",
    "run_lint",
]
