"""Time-stamped samples of scalar or vector signals, with CSV round-trip."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .series import write_csv


@dataclass
class TrajectoryData:
    """Samples values[k] taken at times[k]; values has shape (K, m)."""

    times: np.ndarray
    values: np.ndarray
    flags: List[str] = field(default_factory=list)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float).reshape(-1)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != self.times.shape[0]:
            raise ValidationError("times and values disagree on sample count")
        self.values = vals

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]

    @property
    def n_components(self) -> int:
        return self.values.shape[1]

    def component(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n_components:
            raise ValidationError(f"component {i} out of range for "
                                  f"{self.n_components} data columns")
        return self.values[:, i]

    def uniform_dt(self) -> float:
        """The common sampling step; rejects timestamps whose steps differ
        by more than 1e-9 of the first."""
        if self.n_samples < 2:
            raise ValidationError("need at least two samples")
        steps = np.diff(self.times)
        dt = steps[0]
        if dt == 0 or np.max(np.abs(steps - dt)) > 1e-9 * abs(dt):
            raise ValidationError("sampling is not uniform")
        return float(dt)


def trajectory_to_csv(traj: TrajectoryData, path: str,
                      names: Optional[Sequence[str]] = None) -> None:
    if names is None:
        names = [f"x{i + 1}" for i in range(traj.n_components)]
    if len(names) != traj.n_components:
        raise ValidationError("one column name per component required")
    write_csv(path, ["t", *names], np.column_stack([traj.times, traj.values]))


def trajectory_from_csv(path: str) -> TrajectoryData:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValidationError(f"empty trajectory file {path}")
    start = 0
    try:
        [float(tok) for tok in lines[0].split(",")]
    except ValueError:
        start = 1
    rows = []
    for ln in lines[start:]:
        try:
            rows.append([float(tok) for tok in ln.split(",")])
        except ValueError as exc:
            raise ValidationError(f"bad trajectory row {ln!r}") from exc
    if len({len(row) for row in rows}) != 1:
        raise ValidationError("trajectory rows differ in length")
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValidationError("trajectory rows need a time and one value")
    return TrajectoryData(data[:, 0], data[:, 1:])
