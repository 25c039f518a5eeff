"""Repo-level configuration of the lint rules.

The defaults below *are* the repo policy: which subtrees each rule
patrols, which modules are sanctioned exceptions (the seed-derivation
sites, the atomic-write helper) and the pinned checkpoint-schema digest
that rule REP006 compares against.  A ``[tool.repro-lint]`` table in
``pyproject.toml`` can extend the allowlists or disable rules wholesale::

    [tool.repro-lint]
    disable = ["REP005"]

    [tool.repro-lint.REP001]
    allow = ["repro/experiments/fuzzing.py"]

Paths are package-relative POSIX prefixes (``repro/runtime/``) or full
module paths (``repro/utils/rng.py``); they match against the path
suffix starting at the ``repro`` package directory, so the same config
works no matter where the checkout lives.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

__all__ = [
    "RuleConfig",
    "LintConfig",
    "DEFAULT_RULE_CONFIG",
    "CHECKPOINT_SCHEMA",
    "LAYER_BANDS",
    "DURABLE_MARKERS",
    "DURABLE_SUMMARIES",
    "PROTOCOL_TRANSIENT",
    "load_config",
    "package_relpath",
]


#: The pinned checkpoint serialisation schema rule REP006 enforces.
#: ``npz`` lists the array keys of ``checkpoint.npz``; ``json`` the keys
#: of ``checkpoint.json``.  Adding, removing or renaming a field in
#: :mod:`repro.runtime.checkpoint` without updating this pin **and**
#: bumping ``CHECKPOINT_FORMAT_VERSION`` fails the lint — on-disk schema
#: changes must be conscious, versioned decisions, or resumed runs break.
CHECKPOINT_SCHEMA: Dict[str, Any] = {
    "format_version": 1,
    "npz": (
        "acceptance_history",
        "closure",
        "coords",
        "fitness",
        "scores",
        "temperature_history",
        "torsions",
    ),
    "json": (
        "extra",
        "format_version",
        "iteration",
        "npz_sha256",
        "rng",
        "seed",
        "temperature",
    ),
}


#: The architecture layer order rule REP008 enforces (lower band = lower
#: layer).  A module-level import may only point to the *same or a lower*
#: band; function-local (lazy) imports are the sanctioned cycle-breakers
#: and are exempt.  Keys are the top-level layering units returned by
#: :func:`repro.lint.graph.package_of` (the first sub-package under
#: ``repro``, or ``repro`` itself for the root ``__init__``).  The
#: ``lint`` unit is absent on purpose: it is special-cased to import only
#: the standard library and itself, so it can never join a cycle with
#: the code it analyses.
LAYER_BANDS: Dict[str, int] = {
    # band 0: leaf utilities with no intra-project imports
    "constants": 0,
    "utils": 0,
    "io": 0,
    "config": 0,
    # band 1: the array-API facade (pure dispatch over namespaces) and
    # the telemetry subsystem (duck-typed over the store, so every layer
    # above can instrument itself through it)
    "xp": 1,
    "obs": 1,
    # band 2: domain data + math
    "protein": 2,
    "geometry": 2,
    "simt": 2,
    # band 3: target/loop definitions
    "loops": 3,
    # band 4: the kernel subsystems
    "scoring": 4,
    "closure": 4,
    "moscem": 4,
    # band 5: result post-processing
    "analysis": 5,
    # band 6: backend assembly
    "backends": 6,
    # band 7: island migration (rides the store)
    "islands": 7,
    # band 8: the sharded runtime
    "runtime": 8,
    # band 9: public surfaces
    "api": 9,
    "serve": 9,
    # band 10: entry points and the package root
    "experiments": 10,
    "cli": 10,
    "repro": 10,
}

#: Durable-protocol filename classes (rule REP010).  *Markers* are the
#: commit points of a multi-file write — readers treat their presence as
#: "every sibling payload is complete", so they must be written last and
#: always through a JSON helper (``write_json_atomic`` for republishable
#: markers, ``create_json_exclusive`` for claim markers).
DURABLE_MARKERS: Tuple[str, ...] = (
    "entry.json",
    "manifest.json",
    "checkpoint.json",
)

#: Summary payloads: JSON documents describing sibling blobs, written
#: after the blobs but before (or as) nothing — only markers may follow.
DURABLE_SUMMARIES: Tuple[str, ...] = (
    "result.json",
    "summary.json",
)

#: Transient channel files (status, leases, cancellation flags, and the
#: telemetry documents of :mod:`repro.obs` — heartbeats and span traces):
#: they carry no durability promise, are rewritten freely, and are exempt
#: from the ordering state machine.  This list is also the policy pin for
#: the observability invariant: telemetry rides the status channel ONLY —
#: a heartbeat or trace filename appearing here must never also appear in
#: DURABLE_MARKERS/DURABLE_SUMMARIES, and nothing from repro/obs/ may
#: reach a journal payload or a cache key (REP004 patrols repro/obs/).
PROTOCOL_TRANSIENT: Tuple[str, ...] = (
    "status.json",
    "lease.json",
    "cancelled.json",
    "heartbeat.json",
    "trace.json",
)


@dataclasses.dataclass(frozen=True)
class RuleConfig:
    """Per-rule policy: where it patrols and which modules are exempt."""

    #: Path prefixes the rule applies to; ``()`` means the whole tree.
    scope: Tuple[str, ...] = ()
    #: Path prefixes exempt from the rule (sanctioned implementation sites).
    allow: Tuple[str, ...] = ()
    enabled: bool = True

    def applies_to(self, relpath: str) -> bool:
        """Whether the rule patrols the module at package-relative ``relpath``."""
        if not self.enabled:
            return False
        if self.scope and not any(relpath.startswith(p) for p in self.scope):
            return False
        return not any(relpath.startswith(p) for p in self.allow)


#: The repo policy, rule by rule.
DEFAULT_RULE_CONFIG: Dict[str, RuleConfig] = {
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
    "REP002": RuleConfig(
        scope=(
            "repro/runtime/",
            "repro/islands/",
            "repro/api/",
            "repro/serve/",
            "repro/obs/",
        ),
    ),
    # Deterministic ordering everywhere; the serialisation half of the
    # rule (json.dumps needs sort_keys=True) patrols the store-backed
    # subsystems plus the shared IO helper.
    "REP003": RuleConfig(),
    # Wall-clock readings may never reach replay-compared payloads.  The
    # modules listed in WALLCLOCK_FREE_MODULES must be wall-clock free in
    # their entirety; elsewhere only payload call sites are patrolled.
    "REP004": RuleConfig(
        scope=(
            "repro/runtime/",
            "repro/islands/",
            "repro/api/",
            "repro/serve/",
            "repro/obs/",
        ),
    ),
    # Kernel hot paths must stream through the pairwise chunking helpers
    # instead of materialising dense (P, P) intermediates.
    "REP005": RuleConfig(
        scope=("repro/scoring/", "repro/moscem/", "repro/simt/"),
    ),
    # Checkpoint-schema drift gate; patrols exactly one module.
    "REP006": RuleConfig(scope=("repro/runtime/checkpoint.py",)),
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
    # Module-level imports must respect the declared layer order
    # (LAYER_BANDS); function-local imports are the sanctioned
    # cycle-breakers and are exempt.  Whole-tree rule.
    "REP008": RuleConfig(),
    # The transitive call closure of every @array_kernel body and every
    # maybe_jit/maybe_vmap-wrapped function must be effect-free.
    # Whole-tree rule: kernels are defined under scoring/geometry/... but
    # jit roots appear wherever the facade is used.
    "REP009": RuleConfig(),
    # Durable multi-file writes must sequence blobs -> summaries ->
    # markers within each function (transitively through intra-module
    # helpers); patrols the store-backed subsystems.
    "REP010": RuleConfig(
        scope=("repro/serve/", "repro/runtime/", "repro/islands/", "repro/obs/"),
    ),
    # Suppression hygiene: a disable comment whose codes no longer
    # suppress anything is itself a finding.  Whole-tree rule.
    "REP011": RuleConfig(),
}

#: Modules that must contain no wall-clock reading at all (REP004): their
#: outputs are replay-compared byte-for-byte.
WALLCLOCK_FREE_MODULES: Tuple[str, ...] = (
    "repro/runtime/checkpoint.py",
    "repro/islands/broker.py",
    "repro/islands/policy.py",
)


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """The resolved configuration the engine runs with."""

    rules: Mapping[str, RuleConfig] = dataclasses.field(
        default_factory=lambda: dict(DEFAULT_RULE_CONFIG)
    )
    wallclock_free: Tuple[str, ...] = WALLCLOCK_FREE_MODULES
    checkpoint_schema: Mapping[str, Any] = dataclasses.field(
        default_factory=lambda: dict(CHECKPOINT_SCHEMA)
    )
    layer_bands: Mapping[str, int] = dataclasses.field(
        default_factory=lambda: dict(LAYER_BANDS)
    )
    durable_markers: Tuple[str, ...] = DURABLE_MARKERS
    durable_summaries: Tuple[str, ...] = DURABLE_SUMMARIES
    protocol_transient: Tuple[str, ...] = PROTOCOL_TRANSIENT

    def rule(self, code: str) -> RuleConfig:
        """The policy of rule ``code`` (default-enabled if unlisted)."""
        return self.rules.get(code, RuleConfig())


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


def _as_tuple(value: Any, context: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, str) for v in value
    ):
        raise ValueError(f"{context} must be a list of strings, got {value!r}")
    return tuple(value)


def load_config(pyproject: Optional[Union[str, Path]] = None) -> LintConfig:
    """Resolve the lint configuration, merging ``[tool.repro-lint]``.

    ``pyproject`` names a TOML file to read overrides from; ``None``
    (or a missing file, or a Python without :mod:`tomllib`) yields the
    built-in defaults.  Overrides may ``disable`` rules and *extend*
    per-rule ``allow`` / ``scope`` lists — the built-in policy cannot be
    silently narrowed, only explicitly relaxed where the table says so.
    """
    rules = dict(DEFAULT_RULE_CONFIG)
    if pyproject is None:
        return LintConfig(rules=rules)
    path = Path(pyproject)
    if not path.is_file():
        return LintConfig(rules=rules)
    try:
        import tomllib
    except ImportError:  # Python < 3.11: defaults only
        return LintConfig(rules=rules)
    with open(path, "rb") as handle:
        table = tomllib.load(handle).get("tool", {}).get("repro-lint", {})
    for code in _as_tuple(table.get("disable", ()), "repro-lint disable"):
        base = rules.get(code, RuleConfig())
        rules[code] = dataclasses.replace(base, enabled=False)
    for code, override in table.items():
        if not isinstance(override, dict):
            continue
        base = rules.get(code, RuleConfig())
        rules[code] = dataclasses.replace(
            base,
            allow=base.allow
            + _as_tuple(override.get("allow", ()), f"{code} allow"),
            scope=base.scope
            + _as_tuple(override.get("scope", ()), f"{code} scope"),
        )
    return LintConfig(rules=rules)
