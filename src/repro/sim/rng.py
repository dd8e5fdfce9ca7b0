"""Deterministic named random-number streams.

Every stochastic component of a run (workload sampler, each emulated
client, jitter sources, ...) draws from its own named child stream derived
from one root seed.  Adding a new component therefore never perturbs the
sample sequence of existing components, which keeps sweeps comparable and
regression tests stable.

Two kinds of stream come from one :class:`RandomStreams`:

* ``stream(name)`` is a plain cached :class:`numpy.random.Generator`, for
  the few long-lived components (the file population, the fluid source,
  loss processes).
* ``spawn(name, i)`` is a :class:`StreamHandle`, for the per-client
  streams a population holds thousands of.  A handle keeps only its
  PCG64 state between draws -- four integers, derived from the same
  ``SeedSequence((seed, crc32(name)))`` the first time it is entered --
  and draws through the one ``Generator`` its :class:`RandomStreams`
  owns::

      with handle as rng:
          plan = workload.sample_session(rng)

  Entering loads the handle's state into the shared generator; leaving
  saves it back.  The values are those a dedicated
  ``default_rng(SeedSequence((seed, crc32(name))))`` would give, draw for
  draw.  Only one handle of a :class:`RandomStreams` may be entered at a
  time: entering a second raises :class:`SimulationError`, so a ``with``
  block must not span a ``yield`` of a simulation process.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional

import numpy as np

from .core import SimulationError

__all__ = ["RandomStreams", "StreamHandle"]


def _seed_sequence(seed: int, name: str) -> np.random.SeedSequence:
    """The seed material of the stream ``name`` under root ``seed``."""
    return np.random.SeedSequence((seed, zlib.crc32(name.encode("utf-8"))))


class RandomStreams:
    """Factory of per-name random streams under one root seed.

    The child stream for a name is seeded from ``(root_seed, crc32(name))``
    via :class:`numpy.random.SeedSequence`, so it depends only on the root
    seed and the name — not on creation order.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._cache: Dict[str, np.random.Generator] = {}
        #: The generator every handle draws through (its state is replaced
        #: on each entry) and the handle currently entered, if any.
        self._shared = np.random.Generator(np.random.PCG64(0))
        self._active: Optional[StreamHandle] = None

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        gen = self._cache.get(name)
        if gen is None:
            gen = np.random.default_rng(_seed_sequence(self.seed, name))
            self._cache[name] = gen
        return gen

    def spawn(self, name: str, index: int) -> "StreamHandle":
        """Indexed child stream, e.g. one per emulated client.

        Each call returns a new handle at the start of the stream named
        ``f"{name}[{index}]"``; nothing is derived until it is entered.
        """
        return StreamHandle(self, f"{name}[{index}]")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self.seed}, streams={len(self._cache)})"


class StreamHandle:
    """A named stream that holds only its PCG64 state between draws.

    Use it as a context manager; the block receives its owner's shared
    :class:`numpy.random.Generator`, positioned where this stream's
    previous block left it.
    """

    __slots__ = ("_owner", "name", "_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, owner: RandomStreams, name: str) -> None:
        self._owner = owner
        self.name = name
        self._state: Optional[int] = None  # None = not derived yet
        self._inc = 0
        self._has_uint32 = 0
        self._uinteger = 0

    def __enter__(self) -> np.random.Generator:
        owner = self._owner
        if owner._active is not None:
            raise SimulationError(
                f"stream {self.name!r} entered while "
                f"{owner._active.name!r} is drawing"
            )
        if self._state is None:
            bitgen = np.random.PCG64(_seed_sequence(owner.seed, self.name))
            derived = bitgen.state["state"]
            self._state = derived["state"]
            self._inc = derived["inc"]
        gen = owner._shared
        gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": self._has_uint32,
            "uinteger": self._uinteger,
        }
        owner._active = self
        return gen

    def __exit__(self, *exc_info) -> None:
        owner = self._owner
        saved = owner._shared.bit_generator.state
        self._state = saved["state"]["state"]
        self._has_uint32 = saved["has_uint32"]
        self._uinteger = saved["uinteger"]
        owner._active = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamHandle({self.name!r})"
