"""Shared plumbing: reproducible RNG streams and tagged norm exponents."""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _encode_path_element(item) -> int:
    if isinstance(item, str):
        return zlib.crc32(item.encode("utf-8"))
    if isinstance(item, (int, np.integer)):
        return int(item) & 0xFFFFFFFFFFFFFFFF
    raise TypeError(f"stream path elements must be str or int, got {type(item)!r}")


def stream(root_seed: int, *path) -> np.random.Generator:
    """Derive a named RNG stream from a root seed.

    The stream is a pure function of (root_seed, path), so independent cells
    of an experiment can be seeded hierarchically without any global state.
    """
    entropy = [int(root_seed) & 0xFFFFFFFFFFFFFFFF]
    entropy.extend(_encode_path_element(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class Exponent:
    """A norm exponent q in [1, inf], tagged so infinity is explicit.

    Finite values are stored as exact fractions; ``None`` marks infinity.
    """

    _value: Fraction | None

    def __post_init__(self):
        if self._value is not None:
            if not isinstance(self._value, Fraction):
                object.__setattr__(self, "_value", Fraction(self._value))
            if self._value < 1:
                raise ValueError(f"exponent must satisfy q >= 1, got {self._value}")
            if self._value > np.finfo(float).max:
                raise ValueError("a finite exponent q must fit in a float; use inf")

    @classmethod
    def parse(cls, text) -> "Exponent":
        if isinstance(text, Exponent):
            return text
        if isinstance(text, (int, Fraction)):
            return cls(Fraction(text))
        if isinstance(text, float):
            if math.isinf(text):
                return cls(None)
            return cls(Fraction(text).limit_denominator(10**9))
        s = str(text).strip().lower()
        if s in ("inf", "infinity", "oo"):
            return cls(None)
        return cls(Fraction(s))

    @property
    def is_inf(self) -> bool:
        return self._value is None

    @property
    def fraction(self) -> Fraction:
        if self._value is None:
            raise ValueError("exponent is infinite")
        return self._value

    def as_float(self) -> float:
        return math.inf if self._value is None else float(self._value)

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)
