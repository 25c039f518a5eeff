"""REP001 — naked RNG outside the sanctioned seed-derivation sites.

Every stochastic draw in this repo flows from a named
:class:`numpy.random.Generator` stream derived from a master seed through
coordinate hashing (:mod:`repro.utils.rng`, ``campaign_cell_seed``,
``migration_seed``).  A single ``np.random.shuffle`` or bare
``default_rng()`` breaks bit-identical checkpoint resume, paired
backend comparisons and kill-and-redrain ledger replay — silently, and
only on the runs that happen to cross it.

Flags, anywhere outside the allowlisted derivation modules:

* stdlib ``random.*`` calls — process-global stream, seedless by default;
* legacy ``np.random.*`` global-state calls (``np.random.normal``,
  ``np.random.seed``, ...);
* ``default_rng()`` with **no** arguments — fresh OS entropy (a seeded
  ``default_rng(seed)`` is fine anywhere: the seed had to come from a
  sanctioned derivation to exist);
* ``SeedSequence(...)`` — seed derivation must stay centralised so every
  stream's provenance is auditable in one place.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import call_name
from repro.lint.rules.base import Rule, Violation

__all__ = ["NakedRngRule"]

#: Stdlib ``random`` functions that touch the process-global stream.
_STDLIB_RANDOM = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: Legacy ``np.random`` module-level functions (global RandomState).
_NP_LEGACY = frozenset(
    {
        "beta",
        "binomial",
        "bytes",
        "chisquare",
        "choice",
        "dirichlet",
        "exponential",
        "gamma",
        "get_state",
        "laplace",
        "lognormal",
        "multinomial",
        "multivariate_normal",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_integers",
        "random_sample",
        "ranf",
        "sample",
        "seed",
        "set_state",
        "shuffle",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_normal",
        "standard_t",
        "uniform",
    }
)


class NakedRngRule(Rule):
    code = "REP001"
    name = "naked-rng"
    summary = (
        "stochastic draws must come from coordinate-derived Generator "
        "streams, never from global or OS-entropy RNGs"
    )

    def check(self, tree: ast.AST, relpath: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = call_name(node)
            if not dotted:
                continue
            parts = dotted.split(".")
            leaf = parts[-1]

            if len(parts) == 2 and parts[0] == "random" and leaf in _STDLIB_RANDOM:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"stdlib `{dotted}()` draws from the process-global RNG; "
                    "take a seeded np.random.Generator from the caller "
                    "(see repro.utils.rng)",
                )
                continue

            is_np_random = len(parts) >= 3 and parts[0] in (
                "np",
                "numpy",
            ) and parts[1] == "random"
            if is_np_random and leaf in _NP_LEGACY:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"legacy `{dotted}()` uses numpy's global RandomState; "
                    "draw from a coordinate-derived Generator instead",
                )
                continue

            if leaf == "default_rng" and (is_np_random or dotted == "default_rng"):
                if not node.args and not node.keywords:
                    yield (
                        node.lineno,
                        node.col_offset,
                        "bare `default_rng()` seeds from OS entropy and is "
                        "unreplayable; pass a seed derived via "
                        "repro.utils.rng.spawn_rng or campaign_cell_seed",
                    )
                continue

            if leaf == "SeedSequence" and (
                is_np_random or dotted == "SeedSequence"
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "SeedSequence derivation belongs in the sanctioned sites "
                    "(repro.utils.rng, runtime/spec.py, islands/policy.py) "
                    "so stream provenance stays auditable in one place",
                )
