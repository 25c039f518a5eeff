"""``repro-lint``: AST-based determinism checking.

Every subsystem of this repo stakes its correctness on a handful of
repo-wide invariants — coordinate-derived seeds only, atomic store
writes, byte-identical ledger replay, kernels that run on every array
namespace.  Property tests catch violations *after* they corrupt a run;
this package catches them at diff time, as machine-checked rules over
one parent-annotated Python AST per file:

========  ====================================================
REP001    naked RNG outside the sanctioned seed-derivation sites
REP002    non-atomic file writes bypassing :mod:`repro.io`
REP003    non-deterministic iteration/serialisation ordering
REP004    wall-clock readings inside replay-compared payloads
REP007    numpy calls inside ``@array_kernel`` bodies (use ``xp``)
========  ====================================================

The invariants that a written artefact shows directly are pinned by
tests on that artefact instead: the checkpoint key set and format
version (``tests/unit/test_runtime.py``) and the blob -> summary ->
marker order of durable writes
(``tests/integration/test_durable_write_order.py``).

Use :func:`lint_paths` programmatically and the ``repro-lint`` console
script from a shell or CI (``--format sarif`` emits SARIF 2.1.0 for
code-scanning upload).  A sanctioned exception is a path in the rule's
``allow`` list in :mod:`repro.lint.config`.  See ``CONTRIBUTING.md`` for
the rationale behind each rule.
"""

from repro.lint.engine import Finding, LintError, lint_paths, lint_source
from repro.lint.rules import RULES

__all__ = [
    "Finding",
    "LintError",
    "RULES",
    "lint_paths",
    "lint_source",
]
