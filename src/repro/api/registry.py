"""String-keyed component registries for backends and scoring functions.

The sampler is assembled from named components: an execution *backend*
(``"cpu"``, ``"gpu"``, ``"xp"``, ``"jax"``) and a stack of *scorers*
(``"vdw"``, ``"triplet"``, ``"dist"``).  Before this module those names
were resolved by if/elif ladders in :func:`repro.backends.make_backend`
and hard-coded lists in :func:`repro.scoring.default_multi_score`; now
both resolve through :class:`ComponentRegistry` instances, so

* third-party packages can contribute components without patching this
  repo — either by calling :func:`register_backend` /
  :func:`register_scorer` at import time or by declaring a setuptools
  entry point in the ``repro.backends`` / ``repro.scorers`` groups, which
  the registry discovers lazily on first lookup;
* campaigns can name any registered component in their manifests, and the
  worker processes resolve the names identically.

Built-in factories import their implementation modules inside the factory
body, which keeps this module import-light and free of circular imports
(``repro.backends`` itself calls into the registry).

Factory signatures:

* backend — ``factory(target, multi_score, config, **kwargs) -> SamplingBackend``
* scorer — ``factory(target, knowledge_base=None) -> ScoringFunction``
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "ComponentRegistry",
    "RegistryError",
    "BACKENDS",
    "SCORERS",
    "register_backend",
    "register_scorer",
    "backend_names",
    "scorer_names",
]


class RegistryError(KeyError):
    """A component name could not be resolved (or clashes on registration)."""

    def __str__(self) -> str:
        # KeyError reprs its argument (quoting the message); registry errors
        # carry human-readable text, so print it plainly.
        return str(self.args[0]) if self.args else ""


class ComponentRegistry:
    """A named registry of component factories with alias support.

    Parameters
    ----------
    kind:
        Human-readable component kind used in error messages
        (``"backend"``, ``"scorer"``).
    entry_point_group:
        Optional setuptools entry-point group scanned (once, lazily) for
        externally installed components.  Entry points are loaded only when
        their name is actually requested.
    """

    def __init__(self, kind: str, entry_point_group: Optional[str] = None) -> None:
        self.kind = kind
        self.entry_point_group = entry_point_group
        self._factories: Dict[str, Callable[..., Any]] = {}
        self._aliases: Dict[str, str] = {}
        self._entry_points: Dict[str, Any] = {}
        self._discovered = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        aliases: Sequence[str] = (),
        replace: bool = False,
    ):
        """Register ``factory`` under ``name`` (usable as a decorator).

        ``aliases`` are alternative names resolving to the same factory.
        Re-registering an existing name raises unless ``replace=True`` —
        overriding a built-in should be a deliberate act.
        """
        name = self._normalise(name)

        def _add(fn: Callable[..., Any]) -> Callable[..., Any]:
            if not replace and (name in self._factories or name in self._aliases):
                raise RegistryError(
                    f"{self.kind} {name!r} is already registered; "
                    "pass replace=True to override"
                )
            self._factories[name] = fn
            self._aliases.pop(name, None)
            for alias in aliases:
                alias = self._normalise(alias)
                if not replace and (
                    alias in self._factories or alias in self._aliases
                ):
                    raise RegistryError(
                        f"{self.kind} alias {alias!r} is already registered; "
                        "pass replace=True to override"
                    )
                self._aliases[alias] = name
            return fn

        if factory is None:
            return _add
        return _add(factory)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def factory(self, name: str) -> Callable[..., Any]:
        """The factory registered under ``name`` (or one of its aliases)."""
        name = self._normalise(name)
        canonical = self._aliases.get(name, name)
        if canonical in self._factories:
            return self._factories[canonical]
        self._discover()
        if canonical in self._entry_points:
            # Load the entry point at most once, then promote it to a
            # regular registration.
            factory = self._entry_points.pop(canonical).load()
            self._factories[canonical] = factory
            return factory
        raise RegistryError(
            f"unknown {self.kind} {name!r}; available: {self.names()}"
        )

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the component registered under ``name``."""
        return self.factory(name)(*args, **kwargs)

    def canonical(self, name: str) -> str:
        """The canonical name behind ``name`` (aliases resolved).

        Unknown names come back normalised but otherwise untouched, so
        callers can canonicalise labels without requiring registration.
        """
        name = self._normalise(name)
        return self._aliases.get(name, name)

    def names(self) -> List[str]:
        """Sorted canonical names (registered and discoverable)."""
        self._discover()
        return sorted(set(self._factories) | set(self._entry_points))

    def __contains__(self, name: str) -> bool:
        name = self._normalise(name)
        canonical = self._aliases.get(name, name)
        self._discover()
        return canonical in self._factories or canonical in self._entry_points

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _normalise(name: str) -> str:
        return str(name).strip().lower()

    def _discover(self) -> None:
        """Scan the entry-point group once; tolerate broken metadata."""
        if self._discovered or not self.entry_point_group:
            return
        self._discovered = True
        try:
            from importlib.metadata import entry_points

            eps = entry_points()
            if hasattr(eps, "select"):  # Python 3.10+
                group = eps.select(group=self.entry_point_group)
            else:  # pragma: no cover - legacy mapping API
                group = eps.get(self.entry_point_group, ())
            for ep in group:
                name = self._normalise(ep.name)
                if name not in self._factories and name not in self._aliases:
                    self._entry_points[name] = ep
        except Exception:  # pragma: no cover - metadata breakage is non-fatal
            pass


#: Execution backends (see :func:`repro.backends.make_backend`).
BACKENDS = ComponentRegistry("backend", entry_point_group="repro.backends")

#: Scoring functions (see :func:`repro.scoring.build_multi_score`).
SCORERS = ComponentRegistry("scorer", entry_point_group="repro.scorers")


def register_backend(name, factory=None, *, aliases=(), replace=False):
    """Register an execution backend factory (usable as a decorator)."""
    return BACKENDS.register(name, factory, aliases=aliases, replace=replace)


def register_scorer(name, factory=None, *, aliases=(), replace=False):
    """Register a scoring-function factory (usable as a decorator)."""
    return SCORERS.register(name, factory, aliases=aliases, replace=replace)


def backend_names() -> List[str]:
    """Canonical names of every registered backend."""
    return BACKENDS.names()


def scorer_names() -> List[str]:
    """Canonical names of every registered scorer."""
    return SCORERS.names()


# ---------------------------------------------------------------------------
# Built-in components.  Implementation modules are imported inside the
# factories so importing the registry stays cheap and cycle-free.
# ---------------------------------------------------------------------------


@register_backend("cpu")
def _cpu_backend(target, multi_score, config, **kwargs):
    """The paper's scalar CPU reference implementation."""
    from repro.backends.cpu import CPUBackend

    return CPUBackend(target, multi_score, config, **kwargs)


@register_backend("gpu", aliases=("cpu-gpu", "simt"))
def _gpu_backend(target, multi_score, config, **kwargs):
    """The heterogeneous CPU-GPU implementation on the simulated SIMT engine."""
    from repro.backends.gpu import GPUBackend

    return GPUBackend(target, multi_score, config, **kwargs)


def _bundle_backend(namespace):
    """Factory of the batched backend bound to ``namespace``'s kernel bundle."""

    def factory(target, multi_score, config, **kwargs):
        from repro.backends.gpu import BatchedBackend
        from repro.xp.dispatch import bind_kernels

        return BatchedBackend(
            target, multi_score, config, kernels=bind_kernels(namespace), **kwargs
        )

    return factory


#: The batched kernels jit-compiled through the repro.xp facade.  Requires
#: the ``jax`` wheel; construction raises :class:`repro.xp.xp.NamespaceError`
#: with installation guidance when it is not importable.
register_backend("jax", _bundle_backend("jax"), aliases=("jax-jit",))

#: The facade-routed batched kernels on the eager numpy namespace.
#: Numerically bit-identical to the ``gpu`` backend; exists so the dispatch
#: layer itself is exercised end-to-end on machines (and CI runners)
#: without an accelerator wheel.
register_backend("xp", _bundle_backend("numpy"), aliases=("xp-numpy", "array-api"))


@register_scorer("vdw")
def _vdw_scorer(target, knowledge_base=None):
    """Soft-sphere van der Waals clash score (paper ref [8])."""
    from repro.scoring.vdw import SoftSphereVDW

    return SoftSphereVDW(target)


@register_scorer("triplet")
def _triplet_scorer(target, knowledge_base=None):
    """Triplet torsion-angle statistical potential (paper ref [7])."""
    from repro.scoring.triplet import TripletScore

    return TripletScore(target, knowledge_base)


@register_scorer("dist", aliases=("distance",))
def _distance_scorer(target, knowledge_base=None):
    """Atom pair-wise distance knowledge potential (paper ref [6])."""
    from repro.scoring.distance import DistanceScore

    return DistanceScore(target, knowledge_base)
