"""Accuracy/cost trade-off analysis over measured design points.

Works on ingested measurements (per-class AP, GMAdd, fps); computation is
exact rational arithmetic, with half-up rounding applied only for display.
"""
from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import inf
from pathlib import Path

from .core import FrozenMap, PillarcostError, Record, _set, exact_fraction, read_json

CLASSES = ("Car", "Pedestrian", "Cyclist")
DIFFICULTIES = ("Easy", "Moderate", "Hard")
SCOPES = ("overall",) + tuple(c.lower() for c in CLASSES)

_DIFFICULTY_ALIASES = {"Mod": "Moderate", "Mod.": "Moderate"}


class AnalysisError(PillarcostError):
    pass


def fmt2(value: Fraction | float) -> str:
    """Half-up rounding to 2 decimals, as the text with two decimals that
    the commands and plots print, exact at any size.  A negative value that
    rounds to zero keeps its sign, as ``decimal`` does."""
    if not isinstance(value, Fraction):
        value = Fraction(Decimal(repr(float(value))))
    num, den = abs(value.numerator), value.denominator
    cents = (200 * num + den) // (2 * den)  # floor(|value| * 100 + 1/2)
    # through Decimal: str(int) refuses more than 4,300 digits
    digits = str(Decimal(cents)).rjust(3, "0")
    return f"{'-' if value < 0 else ''}{digits[:-2]}.{digits[-2:]}"


class DesignPoint(Record):
    """One backbone variant's measured operating point."""

    name: str
    gmadds: Fraction
    ap: FrozenMap[tuple[str, str], Fraction] = FrozenMap()
    fps_backbone: Fraction | None = None
    fps_total: Fraction | None = None

    def __post_init__(self) -> None:
        _set(self, "ap", FrozenMap(self.ap))  # not the caller's dict
        if not 0 < self.gmadds < inf:  # not <= 0, which nan passes; inf has no ratio
            raise AnalysisError(f"{self.name}: gmadds must be positive")
        for field in ("fps_backbone", "fps_total"):
            value = getattr(self, field)
            if value is not None and not 0 < value < inf:
                raise AnalysisError(f"{self.name}: {field} must be positive")
        for key, value in self.ap.items():
            if not 0 <= value <= 100:
                raise AnalysisError(f"{self.name}: AP {key} out of [0, 100]")


def map_of(point: DesignPoint, scope: str = "overall") -> Fraction:
    """Mean AP over the 3 difficulties of one class, or over all 9 entries."""
    scope = scope.lower()
    if scope == "overall":
        wanted = [(c, d) for c in CLASSES for d in DIFFICULTIES]
    else:
        matches = [c for c in CLASSES if c.lower() == scope]
        if not matches:
            raise AnalysisError(f"unknown scope {scope!r}; use one of {SCOPES}")
        wanted = [(matches[0], d) for d in DIFFICULTIES]
    values = []
    for key in wanted:
        if key not in point.ap:
            raise AnalysisError(f"{point.name}: missing AP entry {key}")
        values.append(point.ap[key])
    return Fraction(sum(values), len(values))


def pareto_front(points: list[DesignPoint], scope: str = "overall") -> list[str]:
    """Names of non-dominated points (minimize gmadds, maximize mAP),
    sorted by ascending gmadds.

    A dominates B when gmadds(A) <= gmadds(B) and mAP(A) >= mAP(B) with at
    least one strict inequality (weak dominance: of two equally accurate
    points the cheaper one survives).
    """
    if not points:
        raise AnalysisError("pareto_front needs at least one point")
    scored = [(p.gmadds, map_of(p, scope), p.name) for p in points]
    front = []
    for cost, score, name in scored:
        dominated = any(
            (oc <= cost and os >= score) and (oc < cost or os > score)
            for oc, os, _ in scored)
        if not dominated:
            front.append((cost, name))
    return [name for _, name in sorted(front)]


def amdahl(fraction: Fraction | float, stage_speedup: Fraction | float) -> Fraction:
    """Whole-pipeline speedup when a stage taking ``fraction`` of the time
    is accelerated ``stage_speedup`` times."""
    limit = amdahl_max(fraction)  # checks the fraction
    if stage_speedup == float("inf"):
        return limit
    if not stage_speedup > 0:  # compared before Fraction, which refuses -inf and nan
        raise AnalysisError(f"stage speedup must be positive, got {stage_speedup}")
    p = Fraction(fraction)
    return 1 / ((1 - p) + p / Fraction(stage_speedup))


def amdahl_max(fraction: Fraction | float) -> Fraction:
    """Limit speedup 1/(1-p) as the stage's own speedup grows unbounded."""
    if not 0 < fraction < 1:  # compared before Fraction, which refuses nan and inf
        raise AnalysisError(f"stage fraction must be in (0, 1), got {fraction}")
    return 1 / (1 - Fraction(fraction))


class TimingProfile(Record):
    """Fractional latency shares of named pipeline stages; shares may sum to
    less than 1, the remainder being unprofiled time."""

    stage_fractions: FrozenMap[str, Fraction]
    base_latency_ms: Fraction

    def __post_init__(self) -> None:
        _set(self, "stage_fractions", FrozenMap(self.stage_fractions))  # as DesignPoint.ap
        if not 0 < self.base_latency_ms < inf:  # as DesignPoint.gmadds
            raise AnalysisError("base latency must be positive")
        for stage, frac in self.stage_fractions.items():
            if not 0 < frac <= 1:
                raise AnalysisError(f"stage {stage!r} fraction {frac} not in (0, 1]")
        if sum(self.stage_fractions.values()) > 1:
            raise AnalysisError("stage fractions sum to more than 1")

    @property
    def base_fps(self) -> Fraction:
        return 1000 / self.base_latency_ms

    @classmethod
    def from_file(cls, path: str | Path) -> "TimingProfile":
        doc = read_json(path, AnalysisError)
        try:
            fractions = {stage: exact_fraction(value) for stage, value
                         in _object(doc["stage_fractions"], "stage_fractions").items()}
            return cls(fractions, exact_fraction(doc["base_latency_ms"]))
        except (AnalysisError, KeyError, TypeError, ValueError, ArithmeticError) as err:
            raise AnalysisError(f"{path}: bad timing profile: {err}") from err


def project_fps(profile: TimingProfile,
                speedups: dict[str, Fraction | float]) -> Fraction:
    """Projected whole-pipeline fps after per-stage accelerations.

    Unlisted stages and the unprofiled remainder keep their original time.
    A speedup of ``inf`` removes a stage's time entirely.
    """
    for stage in speedups:
        if stage not in profile.stage_fractions:
            raise AnalysisError(f"stage {stage!r} not in timing profile")
    total = 1 - sum(profile.stage_fractions.values())  # unprofiled remainder
    for stage, frac in profile.stage_fractions.items():
        s = speedups.get(stage, 1)
        if s == float("inf"):
            continue
        if not s > 0:  # before Fraction, as in amdahl
            raise AnalysisError(f"stage {stage!r} speedup must be positive")
        total += frac / Fraction(s)
    if total <= 0:
        raise AnalysisError("all pipeline time was accelerated away")
    return 1000 / (profile.base_latency_ms * total)


_METRICS = ("gmadds", "fps_backbone", "fps_total")


def ratio_table(points: list[DesignPoint], metric: str,
                base_name: str = "base") -> dict[str, Fraction]:
    """Per-variant speedup relative to ``base_name``.

    For gmadds the ratio is base/x (fewer ops = faster); for fps metrics it
    is x/base.
    """
    if metric not in _METRICS:
        raise AnalysisError(f"unknown metric {metric!r}; use one of {_METRICS}")
    by_name = {p.name: p for p in points}
    if base_name not in by_name:
        raise AnalysisError(f"base point {base_name!r} not present")

    def get(point: DesignPoint) -> Fraction:
        value = getattr(point, metric)
        if value is None:
            raise AnalysisError(f"{point.name}: metric {metric!r} not measured")
        return Fraction(value)

    base = get(by_name[base_name])
    if metric == "gmadds":
        return {p.name: base / get(p) for p in points}
    return {p.name: get(p) / base for p in points}


# --------------------------------------------------------------------------
# Measurement ingestion
# --------------------------------------------------------------------------

def _object(value, what: str) -> dict:
    """``value`` if it is a JSON object; a loader turns the TypeError into an
    AnalysisError."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be an object, got {value!r}")
    return value


def load_points(path: str | Path) -> list[DesignPoint]:
    """Read design points from a JSON document of per-variant records."""
    doc = read_json(path, AnalysisError)
    records = doc.get("points") if isinstance(doc, dict) else doc
    if not isinstance(records, list):
        raise AnalysisError(f"{path}: expected a list of design point records")
    points = []
    for record in records:
        if not isinstance(record, dict):
            raise AnalysisError(f"{path}: design point record is not an object")
        try:
            ap: dict[tuple[str, str], Fraction] = {}
            for cls_name, by_diff in _object(record.get("ap", {}), "ap").items():
                for diff, value in _object(by_diff, f"ap[{cls_name!r}]").items():
                    key = (cls_name, _DIFFICULTY_ALIASES.get(diff, diff))
                    if key in ap:  # "Mod" and "Moderate" name one cell
                        raise ValueError(f"AP cell {key} is given twice")
                    ap[key] = exact_fraction(value)
            name = record["name"]
            if type(name) is not str:
                raise TypeError(f"name {name!r} is not a string")
            points.append(DesignPoint(
                name=name, gmadds=exact_fraction(record["gmadds"]), ap=ap,
                **{key: None if record.get(key) is None else exact_fraction(record[key])
                   for key in ("fps_backbone", "fps_total")}))
        except (AnalysisError, KeyError, TypeError, ValueError, ArithmeticError) as err:
            raise AnalysisError(f"{path}: bad design point record: {err}") from err
    if not points:
        raise AnalysisError(f"{path}: no design points found")
    names = set()
    for point in points:  # the commands look points up by name
        if point.name in names:
            raise AnalysisError(f"{path}: design point name {point.name!r} is given twice")
        names.add(point.name)
    return points


def default_dataset_path() -> Path:
    return Path(__file__).parent / "data" / "paper_kitti_val.json"
