"""Array-namespace resolution and capability flags.

The facade's contract is DESC-style: *one* kernel codebase, written
against an abstract array namespace ``xp``, executed either eagerly on
numpy (the determinism baseline — bit-identical to the pre-facade
kernels, because the namespace forwards straight to :mod:`numpy`) or
jit+vmap-compiled on JAX when the ``jax`` wheel is importable.  Nothing
in this module imports JAX at module load: the import happens lazily,
exactly once, the first time a jax namespace is requested, and failure
degrades to a :class:`NamespaceError` carrying installation guidance —
numpy remains the default everywhere.

An :class:`ArrayNamespace` is an attribute-forwarding proxy over the
underlying array module plus a handful of capability flags the generic
kernels and the dispatcher branch on *at bind/trace time* (never per
element):

* ``can_jit`` / ``can_vmap`` — whether :mod:`repro.xp.compile` can wrap
  bound kernels in ``jax.jit`` / ``jax.vmap``;
* ``mutable`` — whether arrays support in-place assignment (numpy) or
  require functional ``.at[...]`` updates (JAX);
* ``eager`` — whether operations execute immediately (used by the
  benchmark harness to know when a synchronisation barrier is needed).

Attribute lookups are cached onto the proxy instance on first touch, so
after a kernel's first call the forwarding costs nothing — the "zero
per-call dispatch cost" half of the facade's contract (the other half is
:mod:`repro.xp.dispatch` resolving kernel bindings once at
stack-assembly time).

Allocator thresholds: the first request for the numpy namespace pins
glibc's ``malloc`` at the thresholds its own dynamic heuristic converges
to, and at one arena (see :func:`_pin_malloc_thresholds`), so a fresh
process does not page-fault the blocked kernels' per-block temporaries
on every block, nor keep a heap per member thread.

64-bit precision: requesting the jax namespace enables
``jax_enable_x64`` before anything is traced.  The repo's determinism
invariants are stated in float64; a silently float32 JAX tier would
diverge from every golden output.
"""

from __future__ import annotations

import ctypes
from types import ModuleType
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = [
    "ArrayNamespace",
    "NamespaceError",
    "available_namespaces",
    "default_namespace",
    "get_namespace",
    "has_jax",
    "jax_namespace",
    "numpy_namespace",
]


class NamespaceError(RuntimeError):
    """A requested array namespace is unknown or not importable."""


#: Accepted spellings per canonical namespace name.
_ALIASES: Dict[str, str] = {
    "numpy": "numpy",
    "np": "numpy",
    "eager": "numpy",
    "jax": "jax",
    "jax-jit": "jax",
    "jnp": "jax",
}


class ArrayNamespace:
    """Attribute-forwarding proxy over an array module, with capabilities.

    ``xp.einsum``, ``xp.asarray``, ``xp.float64`` … resolve against the
    wrapped module (:mod:`numpy` or ``jax.numpy``) and are cached onto
    the instance on first access, so repeated lookups are plain instance
    attribute reads.  Kernels receive the namespace as their first
    argument and branch on the capability flags only where the two
    execution models genuinely differ (in-place vs functional updates);
    those branches run at trace time under JAX, never inside compiled
    code.
    """

    #: Instance attributes that must never be forwarded to the module.
    _OWN = ("name", "module", "can_jit", "can_vmap", "mutable", "eager")

    def __init__(
        self,
        name: str,
        module: ModuleType,
        *,
        can_jit: bool = False,
        can_vmap: bool = False,
        mutable: bool = True,
        eager: bool = True,
    ) -> None:
        self.name = name
        self.module = module
        self.can_jit = can_jit
        self.can_vmap = can_vmap
        self.mutable = mutable
        self.eager = eager

    def __getattr__(self, attr: str) -> Any:
        # Only reached on a cache miss; resolve against the module and
        # memoise, so the forwarding cost is paid once per attribute.
        try:
            value = getattr(self.module, attr)
        except AttributeError:
            raise AttributeError(
                f"array namespace {self.name!r} has no attribute {attr!r}"
            ) from None
        setattr(self, attr, value)
        return value

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def to_numpy(self, array: Any) -> np.ndarray:
        """Materialise ``array`` as a host numpy array (identity on numpy)."""
        return np.asarray(array)

    def update_at(self, array: Any, index: Any, value: Any) -> Any:
        """Set ``array[index] = value``, in place or functionally.

        The one mutation primitive the generic kernels need: numpy
        assigns in place and returns the same array; JAX returns the
        updated copy via ``.at[...]``.  The branch is a Python bool
        resolved at trace time.
        """
        if self.mutable:
            array[index] = value
            return array
        return array.at[index].set(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flags = []
        if self.can_jit:
            flags.append("jit")
        if self.can_vmap:
            flags.append("vmap")
        flags.append("mutable" if self.mutable else "functional")
        return f"ArrayNamespace({self.name!r}, {'+'.join(flags)})"


#: Singleton namespaces, created lazily and reused — binding caches in
#: :mod:`repro.xp.dispatch` key on these instances' names.
_NAMESPACES: Dict[str, ArrayNamespace] = {}

#: Tri-state cache of the jax import probe (None = not yet attempted).
_JAX_PROBE: Optional[bool] = None


#: ``mallopt`` parameter numbers (glibc ``<malloc.h>``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

#: glibc's ceiling for the dynamic mmap threshold on 64-bit hosts
#: (``DEFAULT_MMAP_THRESHOLD_MAX``); its trim threshold follows at twice it.
_MMAP_THRESHOLD_MAX = 32 * 1024 * 1024


def _pin_malloc_thresholds() -> None:
    """Start glibc ``malloc`` at the thresholds its heuristic converges to.

    glibc serves requests at or above a dynamic mmap threshold (128 KiB
    at start) with a fresh ``mmap``, and hands the top of the heap back
    to the kernel once more than twice that threshold is free.  Each
    free of a larger mmapped chunk raises both, up to 32 MiB / 64 MiB.
    The blocked kernels allocate several same-sized temporaries per
    block (3 MiB each at the default block of 128 members and ~1,000
    pairs) and free them all at the end of the block, so until some
    unrelated larger chunk happens to be freed, every block re-faults
    its temporaries from zeroed pages (~470,000 minor faults per
    15,360-member VDW+DIST pass).  A long-running process usually reaches
    these thresholds anyway; pinning them makes that the state from the
    first call on.  C libraries without ``mallopt`` are left alone.
    Allocation placement never changes a computed value.

    The arena count is pinned to one as well.  glibc gives each thread
    that allocates concurrently its own arena, and each arena keeps its
    own free memory up to the trim threshold, so the member threads of
    :func:`repro.scoring.pairwise.map_members` would each hold a heap's
    worth of high-water pages (+13% peak RSS for a two-thread VDW + DIST
    pass after a 7,680-member CCD call).  One arena is shared under a
    lock that costs little next to the kernels' few large allocations
    per block.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)
    mallopt(_M_ARENA_MAX, 1)


def numpy_namespace() -> ArrayNamespace:
    """The default (and determinism-baseline) namespace: plain numpy."""
    ns = _NAMESPACES.get("numpy")
    if ns is None:
        _pin_malloc_thresholds()
        ns = ArrayNamespace("numpy", np, mutable=True, eager=True)
        _NAMESPACES["numpy"] = ns
    return ns


def jax_namespace() -> ArrayNamespace:
    """The JAX namespace (``jax.numpy``), with 64-bit mode enabled.

    Raises :class:`NamespaceError` when the ``jax`` wheel is not
    importable; callers that merely want to know should use
    :func:`has_jax` instead of catching.
    """
    ns = _NAMESPACES.get("jax")
    if ns is not None:
        return ns
    try:
        import jax
        import jax.numpy as jnp
    except ImportError as exc:
        raise NamespaceError(
            "array namespace 'jax' requires the jax wheel, which is not "
            "importable in this environment (pip install jax); the numpy "
            "namespace remains fully supported"
        ) from exc
    # Float64 end-to-end, matching the numpy determinism baseline.  Must
    # happen before any tracing; doing it at namespace creation (which
    # precedes every binding) guarantees that.
    jax.config.update("jax_enable_x64", True)
    ns = ArrayNamespace(
        "jax", jnp, can_jit=True, can_vmap=True, mutable=False, eager=False
    )
    _NAMESPACES["jax"] = ns
    return ns


def has_jax() -> bool:
    """Whether the jax wheel is importable (probed once, then cached)."""
    global _JAX_PROBE
    if _JAX_PROBE is None:
        try:
            jax_namespace()
            _JAX_PROBE = True
        except NamespaceError:
            _JAX_PROBE = False
    return _JAX_PROBE


def get_namespace(name: Optional[str] = None) -> ArrayNamespace:
    """Resolve a namespace by name (``None`` selects the default).

    Accepted spellings: ``"numpy"``/``"np"``/``"eager"`` and
    ``"jax"``/``"jax-jit"``/``"jnp"``.  Passing an
    :class:`ArrayNamespace` returns it unchanged, so call sites can be
    agnostic about whether selection already happened upstream.
    """
    if name is None:
        return numpy_namespace()
    if isinstance(name, ArrayNamespace):
        return name
    canonical = _ALIASES.get(str(name).strip().lower())
    if canonical == "numpy":
        return numpy_namespace()
    if canonical == "jax":
        return jax_namespace()
    raise NamespaceError(
        f"unknown array namespace {name!r}; known: {sorted(set(_ALIASES))}"
    )


def default_namespace() -> ArrayNamespace:
    """The namespace kernels run on when nothing is selected: numpy."""
    return numpy_namespace()


def available_namespaces() -> List[str]:
    """Canonical names of the namespaces importable right now."""
    names = ["numpy"]
    if has_jax():
        names.append("jax")
    return names
