"""The one sanctioned RNG-construction seam of the package.

FLOC is a randomized local search whose results must be reproducible:
every stochastic path (Phase-1 seeding, the weighted action ordering,
mixed-``p`` seed selection, sampling in evaluation helpers) threads an
explicit :class:`numpy.random.Generator`.  Public entry points accept
``rng`` as ``None | int | Generator`` for convenience and normalize it
exactly once, here, at the API boundary.

The custom linter (:mod:`repro.devtools`) enforces the discipline:
rule **DCL011** forbids the legacy global-state API (``np.random.<fn>``)
and bare ``np.random.default_rng()`` everywhere outside ``tests/``,
requires public ``repro.core`` functions to accept their RNG as a
parameter instead of constructing one, and requires core callers of an
RNG consumer to pass one.  This module is the single place allowed to
construct generators from scratch -- hence the file-level suppression
below.
"""

# dcl: disable=DCL011

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = ["RngLike", "resolve_rng"]

#: Anything :func:`resolve_rng` accepts: ``None`` (fresh entropy), an
#: integer seed, a :class:`numpy.random.SeedSequence`, or an existing
#: :class:`numpy.random.Generator` (returned unchanged).
RngLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


def resolve_rng(rng: RngLike = None, *, default_seed: Optional[int] = None) -> np.random.Generator:
    """Normalize ``rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` for a freshly entropy-seeded generator, an integer (or
        :class:`~numpy.random.SeedSequence`) seed, or a ready generator
        that is returned as-is (so callers can thread one stream through
        a whole pipeline).
    default_seed:
        When given, ``rng=None`` resolves to this fixed seed instead of
        fresh entropy.  Evaluation helpers whose *sampling* should not
        change between repeated calls (e.g. leave-one-out subsampling)
        use this to stay deterministic by default while still honouring
        an explicit caller stream.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None and default_seed is not None:
        return np.random.default_rng(default_seed)
    return np.random.default_rng(rng)
