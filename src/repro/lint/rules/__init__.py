"""Rule registry for repro-lint.

One module per rule family, each contributing a stateless
:class:`~repro.lint.rules.base.Rule`; :data:`RULES` is the canonical
registry, in code order.
"""

from __future__ import annotations

from typing import Tuple

from repro.lint.rules.base import Rule, Violation
from repro.lint.rules.io import NonAtomicWriteRule
from repro.lint.rules.ordering import UnorderedIterationRule
from repro.lint.rules.rng import NakedRngRule
from repro.lint.rules.wallclock import WallClockRule
from repro.lint.rules.xpfacade import XpFacadeRule

__all__ = ["RULES", "Rule", "Violation"]

RULES: Tuple[Rule, ...] = (
    NakedRngRule(),
    NonAtomicWriteRule(),
    UnorderedIterationRule(),
    WallClockRule(),
    XpFacadeRule(),
)
