"""The shared overflow probe: bound in, narrowest safe representation out.

Every accelerated path in the repo faces the same question before it
commits to a fixed-width kernel: *can the numbers this sweep produces
exceed what the dtype holds?*  Historically each call site answered it
with its own copy of the same comparison against ``2**62``; this module
promotes that pattern into one "probe once, pick the narrowest safe
dtype/representation" helper so the numpy plan probe, the sampled-state
builder, and the bit-packed aggregate sweeps all walk the same ladder:

``int32`` → ``int64`` → ``limbs`` → ``exact``

* ``int32`` — bounds comfortably below ``2**30``; half the memory
  traffic of int64, which matters for the batched ``(trials, n)``
  sampled blocks.
* ``int64`` — bounds below ``2**62``.  The limit is two bits shy of the
  type's true ceiling so a whole *level's* worth of gather-adds (sums of
  values each ≤ the bound) still cannot wrap.
* ``limbs`` — finite bounds past ``2**62``, on the numpy backend's
  bit-packed aggregate sweeps only.  Each value is carried as
  :func:`limb_count` base-``2**32`` limbs, one int64 row each: every
  lower limb holds 32 bits and the top limb the rest, which the same
  ``2**62`` slack keeps in range.  Products of such values are taken
  exactly on Python ints.  :func:`pick_representation` itself never
  returns this rung — the numpy plan probe takes it when the ladder
  says ``exact`` but :func:`limb_count` is finite for every quantity.
* ``exact`` — a non-finite bound (a float64 probe that itself
  overflowed, i.e. values of ``2**1024`` or more), or any bound past
  ``2**62`` on a path without limb sweeps.  "Exact" always means the
  same thing: delegate to the pure-python engine, whose big ints are
  unbounded.

The probe itself runs in float64 (see
``repro.backends.numpy_backend._probe_overflow``): float64 is exact for
integers up to ``2**53`` and monotonically *over*-approximates beyond,
so a finite probe value below the limit proves the true integer result
fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Bounds at or above this (or non-finite) force the exact big-int
#: representation.  ``2**62`` leaves two bits of slack under int64 so a
#: per-level gather-add of in-range values cannot wrap.
OVERFLOW_LIMIT = float(2**62)

#: Bounds strictly below this fit int32 with the same two bits of
#: gather-add slack under ``2**31``.
NARROW_LIMIT = float(2**30)

#: Bits per limb of the ``limbs`` representation: lower limbs hold
#: values below ``2**32``, so a sum of ``d`` of them stays below
#: ``(d + 1) * 2**32`` — far from int64's ceiling — until it is carried.
LIMB_BITS = 32

#: The representation ladder, widest-compatibility last.
REPRESENTATIONS: tuple[str, ...] = ("int32", "int64", "exact")


@dataclass(frozen=True)
class ProbeVerdict:
    """The outcome of one overflow probe.

    ``representation`` is one of :data:`REPRESENTATIONS`; ``bound`` is
    the largest (finite or not) magnitude the probe saw, kept for
    diagnostics and for callers that refine the verdict with extra
    multipliers (e.g. a trial count) before acting on it.
    """

    representation: str
    bound: float

    @property
    def exact_only(self) -> bool:
        """True when only the big-int python engine is safe."""
        return self.representation == "exact"

    @property
    def narrow(self) -> bool:
        """True when the int32 half-width representation is safe."""
        return self.representation == "int32"


def pick_representation(
    *bounds: float,
    limit: float = OVERFLOW_LIMIT,
    narrow_limit: float = NARROW_LIMIT,
) -> ProbeVerdict:
    """Pick the narrowest safe representation for values bounded by
    ``max(bounds)``.

    Any non-finite bound (a float64 probe that itself overflowed, or a
    NaN from ``inf - inf`` arithmetic inside one) is conclusive evidence
    the fixed-width ladder is unsafe and yields ``exact``.  An empty
    ``bounds`` means nothing can overflow: ``int32`` with bound 0.
    """
    worst = 0.0
    for bound in bounds:
        if math.isnan(bound):
            return ProbeVerdict("exact", float("nan"))
        worst = max(worst, float(bound))
    if not math.isfinite(worst) or worst >= limit:
        return ProbeVerdict("exact", worst)
    if worst < narrow_limit:
        return ProbeVerdict("int32", worst)
    return ProbeVerdict("int64", worst)


def limb_count(bound: float) -> int | None:
    """The fewest base-``2**32`` limbs whose top limb holds ``bound``.

    That is the smallest ``k`` with ``bound < 2**(62 + 32·(k − 1))``:
    the top limb keeps :data:`OVERFLOW_LIMIT`'s two bits of slack, and
    ``k = 1`` is plain int64.  Non-finite bounds (inf, or NaN from a
    saturated float64 probe) return None: no limb count is safe.
    """
    if not math.isfinite(bound):
        return None
    limbs = 1
    while bound >= OVERFLOW_LIMIT * 2.0 ** (LIMB_BITS * (limbs - 1)):
        limbs += 1
    return limbs
