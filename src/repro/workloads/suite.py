"""The benchmark suite registry.

``SPEC_KERNELS`` maps the paper's eight SPECfp95 program names to the
factory producing our synthetic stand-in kernel; :func:`spec_suite`
instantiates all of them.  The registry is ordered as the paper lists the
programs (Section 5.1).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

from ..ir.builder import Kernel
from . import kernels as _k

__all__ = [
    "SPEC_KERNELS",
    "STREAMING_LONG_KERNELS",
    "select_kernels",
    "spec_suite",
    "streaming_long_suite",
    "kernel_by_name",
    "suite_stats",
]

SPEC_KERNELS: Mapping[str, Callable[[], Kernel]] = {
    "tomcatv": _k.tomcatv,
    "swim": _k.swim,
    "su2cor": _k.su2cor,
    "hydro2d": _k.hydro2d,
    "mgrid": _k.mgrid,
    "applu": _k.applu,
    "turb3d": _k.turb3d,
    "apsi": _k.apsi,
}

#: Long-stream variants of the ``NTIMES=1`` streaming kernels: 4x NITER
#: with matching array extents (the factories scale every array with
#: ``n``), per the ROADMAP item on showing the iteration-level steady
#: detector's asymptotic win and stressing memoization at production
#: scale.  Registered as their own suite so the short originals keep
#: their paper-scale footprints.
STREAMING_LONG_KERNELS: Mapping[str, Callable[[], Kernel]] = {
    "su2cor-long": lambda: _k.su2cor(n=4 * 512, name="su2cor-long"),
    "applu-long": lambda: _k.applu(n=4 * 1024, name="applu-long"),
    "turb3d-long": lambda: _k.turb3d(n=4 * 512, name="turb3d-long"),
}


def select_kernels(
    registry: Mapping[str, Callable[[], Kernel]],
    names: Optional[List[str]] = None,
) -> List[Kernel]:
    """Instantiate every kernel of ``registry`` (or the named subset, in
    the order given); unknown names raise one ``KeyError`` naming them."""
    selected = list(registry) if names is None else names
    unknown = [n for n in selected if n not in registry]
    if unknown:
        raise KeyError(f"unknown kernels {unknown}; known: {list(registry)}")
    return [registry[name]() for name in selected]


def streaming_long_suite(names: Optional[List[str]] = None) -> List[Kernel]:
    """Instantiate the long-stream suite (or a named subset)."""
    return select_kernels(STREAMING_LONG_KERNELS, names)


def spec_suite(names: Optional[List[str]] = None) -> List[Kernel]:
    """Instantiate the suite (or the named subset, in the order given)."""
    return select_kernels(SPEC_KERNELS, names)


def kernel_by_name(name: str) -> Kernel:
    """Instantiate one suite kernel by its SPECfp95 name."""
    try:
        factory = SPEC_KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; known: {list(SPEC_KERNELS)}"
        ) from None
    return factory()


def suite_stats() -> Dict[str, Dict[str, int]]:
    """Per-kernel size statistics (the Section 5.1 workload table)."""
    return {kernel.name: kernel.loop.stats() for kernel in spec_suite()}
