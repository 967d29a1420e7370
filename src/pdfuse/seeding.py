"""Deterministic seed derivation.

Every stage of the pipeline draws randomness from its own named sub-seed so
that changing one stage's consumption pattern never perturbs another stage.
Sub-seeds are derived from the single user-facing seed by hashing
``"<root>:<name>"`` with SHA-256 and keeping the low 63 bits.
"""

from __future__ import annotations

import hashlib


def derive_seed(root_seed: int, name: str) -> int:
    """Return the named sub-seed for ``name`` under ``root_seed``."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)
