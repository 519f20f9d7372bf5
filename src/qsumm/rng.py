"""Named PCG64 substreams derived from a single seed.

Every random choice in the package flows through one of these streams, so
corpus layout, batch order, dropout masks, and random summaries can be
reproduced or resumed independently of each other.  Stream states are
plain dicts of ints, safe to serialize as JSON inside checkpoints.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, FormatError, is_json_int

__all__ = ["STREAMS", "RngHub", "stream_rng"]

# stream name -> child index under the base seed
STREAMS = {
    "corpus": 0,
    "init": 1,
    "sampling": 2,
    "dropout": 3,
    "random-summary": 4,
}


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """A fresh generator for one named stream of a base seed >= 0."""
    if seed < 0:
        raise ConfigError(f"rng: seed must be >= 0, got {seed}")
    try:
        idx = STREAMS[name]
    except KeyError:
        raise ConfigError(f"unknown rng stream {name!r}, expected one of {sorted(STREAMS)}") from None
    return np.random.default_rng([seed, idx])


def _leaves(obj):
    """The values inside nested dicts, depth first."""
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _leaves(value)
    else:
        yield obj


class RngHub:
    """All named streams for one base seed, with checkpointable state."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.streams = {name: stream_rng(self.seed, name) for name in STREAMS}

    def __getitem__(self, name: str) -> np.random.Generator:
        try:
            return self.streams[name]
        except KeyError:
            raise ConfigError(
                f"unknown rng stream {name!r}, expected one of {sorted(STREAMS)}"
            ) from None

    def state(self) -> dict:
        return {
            "seed": self.seed,
            "streams": {name: g.bit_generator.state for name, g in self.streams.items()},
        }

    @classmethod
    def from_state(cls, state) -> "RngHub":
        """The hub that state() described.

        Raises FormatError unless state is an object with an integer seed
        >= 0 and a streams object holding exactly the names of STREAMS,
        each a state PCG64 accepts whose numbers are all integers, so a
        resume never starts a stream over or truncates one in silence.
        """
        if not isinstance(state, dict):
            raise FormatError(f"rng state: need an object, got {type(state).__name__}")
        seed, streams = state.get("seed"), state.get("streams")
        if not is_json_int(seed) or seed < 0:
            raise FormatError(f"rng state: seed must be an integer >= 0, got {seed!r}")
        if not isinstance(streams, dict) or set(streams) != set(STREAMS):
            raise FormatError(f"rng state: streams must hold exactly {sorted(STREAMS)}")
        hub = cls(seed)
        for name, s in streams.items():
            if any(isinstance(x, (bool, float)) for x in _leaves(s)):
                raise FormatError(f"rng state: stream {name!r} holds a number that is no integer")
            try:
                hub.streams[name].bit_generator.state = s
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                raise FormatError(f"rng state: stream {name!r} is no PCG64 state: {e!r}") from None
        return hub
