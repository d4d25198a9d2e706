"""Built-in example systems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from .errors import ValidationError
from .series import MultiSeries
from .ssm import PolySystem

@dataclass
class NamedSystem:
    parameters: Dict[str, float]
    realization: PolySystem


def _euler_system() -> PolySystem:
    # x' = x^2, y' = x - y: a one-dimensional slow manifold y = h(x) carries
    # the divergent-series resummation example
    a = np.array([[0.0, 0.0], [1.0, -1.0]])
    f = MultiSeries(2, 2, 2, {(2, 0): [1.0, 0.0]})
    return PolySystem(a, f)


def _dauchot_manneville_system(s1: float, s2: float) -> PolySystem:
    a = np.array([[s1, 1.0], [0.0, s2]])
    f = MultiSeries(2, 2, 2, {(1, 1): [1.0, 0.0], (2, 0): [0.0, -1.0]})
    return PolySystem(a, f)


def _imaginary_sing_system() -> PolySystem:
    # x' = x, y' = -y + 2x/(1+x^2)^2 lifted to a polynomial field by
    # w = 1/(1+x^2) - 1: y' = -y + 2x(1+w)^2 and
    # w' = -2x^2(1+w)^2 - (w + x^2 + w x^2), whose last bracket vanishes on
    # the lift; the unstable manifold is y = x/(1+x^2), w = -x^2/(1+x^2)
    a = np.array([[1.0, 0.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    f = MultiSeries(3, 3, 4, {(1, 0, 1): [0.0, 4.0, 0.0],
                              (1, 0, 2): [0.0, 2.0, 0.0],
                              (2, 0, 0): [0.0, 0.0, -3.0],
                              (2, 0, 1): [0.0, 0.0, -5.0],
                              (2, 0, 2): [0.0, 0.0, -2.0]})
    return PolySystem(a, f)


def _shaw_pierre_system(k: float, c: float, gamma: float) -> PolySystem:
    # two unit masses, springs/dampers to ground and between, cubic spring on
    # the first mass; state (q1, q1', q2, q2')
    a = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-2.0 * k, -2.0 * c, k, c],
        [0.0, 0.0, 0.0, 1.0],
        [k, c, -2.0 * k, -2.0 * c],
    ])
    f = MultiSeries(4, 4, 3, {(3, 0, 0, 0): [0.0, -gamma, 0.0, 0.0]})
    return PolySystem(a, f)


# id -> (builder taking the parameters by name, default parameters)
_SYSTEMS: Dict[str, Tuple[Callable[..., PolySystem], Dict[str, float]]] = {
    "euler": (_euler_system, {}),
    "dauchot_manneville": (_dauchot_manneville_system,
                           {"s1": -0.038, "s2": -1.0}),
    "imaginary_sing": (_imaginary_sing_system, {}),
    "shaw_pierre": (_shaw_pierre_system, {"k": 3.0, "c": 0.003, "gamma": 0.5}),
}
SYSTEM_IDS = tuple(_SYSTEMS)


def make_system(system_id: str, **params) -> NamedSystem:
    if system_id not in _SYSTEMS:
        raise ValidationError(f"unknown system id {system_id!r}; "
                              f"known: {', '.join(SYSTEM_IDS)}")
    build, defaults = _SYSTEMS[system_id]
    for key, value in params.items():
        if key not in defaults:
            raise ValidationError(f"unknown parameter {key!r} for {system_id}")
        if not np.isfinite(value):
            raise ValidationError(f"parameter {key}={value} of {system_id} "
                                  f"is not a finite number")
    merged = {**defaults, **params}
    return NamedSystem(merged, build(**merged))
