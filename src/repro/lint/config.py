"""The repo policy of the lint rules.

The tables below are the only policy: which subtrees each rule patrols
and which modules are sanctioned exceptions (the seed-derivation sites,
the replay-critical writers).  Paths are package-relative POSIX prefixes
(``repro/runtime/``) or full module paths (``repro/utils/rng.py``); they
match against the path suffix starting at the ``repro`` package
directory, so the same policy works no matter where the checkout lives.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, Tuple, Union

__all__ = [
    "RuleConfig",
    "RULE_CONFIG",
    "WALLCLOCK_FREE_MODULES",
    "package_relpath",
]


@dataclasses.dataclass(frozen=True)
class RuleConfig:
    """Per-rule policy: where it patrols and which modules are exempt."""

    #: Path prefixes the rule applies to; ``()`` means the whole tree.
    scope: Tuple[str, ...] = ()
    #: Path prefixes exempt from the rule (sanctioned implementation sites).
    allow: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """Whether the rule patrols the module at package-relative ``relpath``."""
        if self.scope and not any(relpath.startswith(p) for p in self.scope):
            return False
        return not any(relpath.startswith(p) for p in self.allow)


#: The subsystems backed by the run store.
_STORE_BACKED = (
    "repro/runtime/",
    "repro/islands/",
    "repro/api/",
    "repro/serve/",
    "repro/obs/",
)

#: The repo policy, rule by rule.
RULE_CONFIG: Dict[str, RuleConfig] = {
    # RNG entropy may only be drawn through the SeedSequence-derivation
    # sites; everything else must receive a Generator from its caller.
    "REP001": RuleConfig(
        allow=(
            "repro/utils/rng.py",
            "repro/runtime/spec.py",
            "repro/islands/policy.py",
        )
    ),
    # Durable writes in the store-backed subsystems must go through the
    # atomic helpers of repro/io.py (which lives outside the scope).
    "REP002": RuleConfig(scope=_STORE_BACKED),
    # Deterministic ordering everywhere: sorted iteration over sets and
    # directory listings, json.dumps with sort_keys=True.
    "REP003": RuleConfig(),
    # Wall-clock readings may never reach replay-compared payloads.  The
    # modules listed in WALLCLOCK_FREE_MODULES must be wall-clock free in
    # their entirety; elsewhere only payload call sites are patrolled.
    "REP004": RuleConfig(scope=_STORE_BACKED),
    # Functions registered with @array_kernel must do all array math
    # through their xp namespace parameter so the same kernel body
    # compiles under every backend tier.
    "REP007": RuleConfig(
        scope=(
            "repro/scoring/",
            "repro/moscem/",
            "repro/geometry/",
            "repro/closure/",
            "repro/xp/",
        ),
    ),
}

#: Modules that must contain no wall-clock reading at all (REP004): their
#: outputs are replay-compared byte-for-byte.
WALLCLOCK_FREE_MODULES: Tuple[str, ...] = (
    "repro/runtime/checkpoint.py",
    "repro/islands/broker.py",
    "repro/islands/policy.py",
)


def package_relpath(path: Union[str, Path]) -> str:
    """Path suffix starting at the ``repro`` package directory.

    ``/checkout/src/repro/runtime/store.py`` → ``repro/runtime/store.py``.
    Paths outside the package (fixtures, scratch files) are returned as
    given, so synthetic test filenames like ``repro/runtime/x.py`` work.
    """
    posix = Path(path).as_posix()
    marker = "/repro/"
    index = posix.rfind(marker)
    if index >= 0:
        return posix[index + 1 :]
    return posix.lstrip("/")
