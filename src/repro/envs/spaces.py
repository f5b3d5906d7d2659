"""Observation and action spaces for the environment substrate.

The paper evaluates E3 on OpenAI Gym environments [5].  Gym is not
available in this offline reproduction, so we provide the two space types
those environments need: :class:`Box` for continuous vectors and
:class:`Discrete` for integer action sets.  The interface mirrors Gym's
closely enough that policies written against either substrate look the
same (``shape``, ``low``, ``high``, ``n``, ``sample``, ``contains``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Space", "Box", "Discrete"]


class Space:
    """Base class for observation/action spaces."""

    def sample(self, rng: np.random.Generator) -> object:
        """Draw a uniformly random element of the space."""
        raise NotImplementedError

    def contains(self, x: object) -> bool:
        """Return True if ``x`` is a valid element of the space."""
        raise NotImplementedError

    @property
    def flat_dim(self) -> int:
        """Dimensionality of the flattened representation.

        For a :class:`Box` this is the number of scalar components; for a
        :class:`Discrete` space it is 1 (the action index itself).  NEAT and
        the RL baselines size their input/output layers from this.
        """
        raise NotImplementedError


class Box(Space):
    """A bounded (possibly unbounded-componentwise) continuous vector space.

    ``low`` and ``high`` are read-only copies: an environment class
    shares one space between all its instances.
    """

    def __init__(self, low, high, shape: tuple[int, ...] | None = None):
        low = np.array(low, dtype=np.float64)
        high = np.array(high, dtype=np.float64)
        if shape is not None:
            low = np.broadcast_to(low, shape).copy()
            high = np.broadcast_to(high, shape).copy()
        low.flags.writeable = high.flags.writeable = False
        if low.shape != high.shape:
            raise ValueError(
                f"low shape {low.shape} does not match high shape {high.shape}"
            )
        if np.any(low > high):
            raise ValueError("every low bound must be <= the matching high bound")
        self.low = low
        self.high = high
        self.shape = low.shape

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        # Unbounded components are sampled from a standard normal, matching
        # Gym's convention, so sampling never overflows.
        low = np.where(np.isfinite(self.low), self.low, -1.0)
        high = np.where(np.isfinite(self.high), self.high, 1.0)
        u = rng.uniform(low, high)
        unbounded = ~(np.isfinite(self.low) & np.isfinite(self.high))
        if np.any(unbounded):
            u = np.where(unbounded, rng.standard_normal(self.shape), u)
        return u

    def contains(self, x: object) -> bool:
        arr = np.asarray(x, dtype=np.float64)
        if arr.shape != self.shape:
            return False
        return bool(np.all(arr >= self.low - 1e-9) and np.all(arr <= self.high + 1e-9))

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Clip a vector into the space's bounds."""
        return np.clip(np.asarray(x, dtype=np.float64), self.low, self.high)

    @property
    def flat_dim(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box(shape={self.shape})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Box)
            and self.shape == other.shape
            and np.array_equal(self.low, other.low)
            and np.array_equal(self.high, other.high)
        )


class Discrete(Space):
    """A space of ``n`` integer actions ``{0, 1, ..., n - 1}``."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"a Discrete space needs n >= 1, got {n}")
        self.n = int(n)
        self.shape: tuple[int, ...] = ()

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.n))

    def contains(self, x: object) -> bool:
        try:
            xi = int(x)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        return 0 <= xi < self.n

    @property
    def flat_dim(self) -> int:
        return 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Discrete({self.n})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Discrete) and self.n == other.n
