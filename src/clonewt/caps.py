"""Resource caps for the combinatorial enumerations used across the package.

Every potentially explosive enumeration (maximal cliques, clique partitions,
graph automorphisms) is guarded by a cap.  Defaults are generous for the
intended instance sizes and can be overridden process-wide through the
``CLONEWT_CAPS`` environment variable, e.g.::

    CLONEWT_CAPS="cliques=2000000,partition_vertices=14"
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from functools import lru_cache

ENV_VAR = "CLONEWT_CAPS"

__all__ = ["Caps", "CapExceeded", "default_caps", "load_caps", "ENV_VAR"]


@dataclass(frozen=True)
class Caps:
    cliques: int = 10**6          # max maximal cliques enumerated per graph
    partition_vertices: int = 12  # max |V| for exhaustive clique-partition enumeration
    automorphism_vertices: int = 8  # max |V| for exhaustive automorphism search
    entropy_iterations: int = 10**5  # iteration budget for the entropy-rule optimiser


class CapExceeded(RuntimeError):
    """An enumeration outgrew its configured cap.

    The message names the cap so callers know which ``CLONEWT_CAPS`` entry
    (or keyword argument) to raise.
    """

    def __init__(self, what: str, cap_name: str, limit: int):
        self.cap_name = cap_name
        self.limit = limit
        super().__init__(
            f"{what} exceeded the configured cap {cap_name}={limit}; "
            f"raise it via {ENV_VAR}={cap_name}=<n> or the corresponding keyword"
        )


def load_caps(env: str | None = None) -> Caps:
    """Parse caps from an environment-style string ``key=int,key=int``.

    With ``env=None`` the ``CLONEWT_CAPS`` variable is consulted; an unset
    variable yields the defaults.  Unknown keys and malformed entries raise
    ``ValueError`` so typos do not silently leave a cap at its default.
    """
    if env is None:
        env = os.environ.get(ENV_VAR, "")
    known = {f.name for f in fields(Caps)}
    overrides: dict[str, int] = {}
    for item in env.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or key not in known:
            raise ValueError(
                f"unknown cap {key!r} in {ENV_VAR}; known caps: {sorted(known)}"
            )
        try:
            value = int(raw.strip())
        except ValueError:
            raise ValueError(f"cap {key!r} needs an integer value, got {raw!r}") from None
        if value <= 0:
            raise ValueError(f"cap {key!r} must be positive, got {value}")
        overrides[key] = value
    return Caps(**overrides)


def default_caps() -> Caps:
    """Caps currently in force (environment overrides applied).

    Each distinct value of the variable is parsed once: a changed variable
    takes effect at the next call, and a malformed one raises on every call
    (a failed parse is not cached).
    """
    return _parsed_caps(os.environ.get(ENV_VAR, ""))


@lru_cache(maxsize=8)
def _parsed_caps(env: str) -> Caps:
    return load_caps(env)
