"""Accuracy/cost trade-off analysis over measured design points.

Works on ingested measurements (per-class AP, GMAdd, fps); computation is
exact rational arithmetic, with half-up rounding applied only for display.
"""
from __future__ import annotations

from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from pathlib import Path

from .core import PillarcostError, Record, exact_fraction, read_json

CLASSES = ("Car", "Pedestrian", "Cyclist")
DIFFICULTIES = ("Easy", "Moderate", "Hard")
SCOPES = ("overall",) + tuple(c.lower() for c in CLASSES)

_DIFFICULTY_ALIASES = {"Mod": "Moderate", "Mod.": "Moderate"}


class AnalysisError(PillarcostError):
    pass


class MissingEntry(AnalysisError):
    pass


class MissingMetric(AnalysisError):
    pass


class UnknownStage(AnalysisError):
    pass


class DomainError(AnalysisError):
    pass


def fmt2(value: Fraction | float) -> str:
    """Half-up rounding to 2 decimals, as the text with two decimals that
    the commands and plots print, at any size.

    The value is first divided out to 28 significant digits, as in
    ``decimal``'s default context; from 10**26 - 1 up, where 28 digits
    could not hold the integer part and two decimals, to 3 digits more than
    the integer part has, or a few more.
    """
    if not isinstance(value, Fraction):
        value = Fraction(Decimal(repr(float(value))))
    whole = abs(value.numerator) // value.denominator
    # a digit is over 3 bits, so bit_length() // 3 is at least whole's digits
    context = Context(prec=28 if whole < 10 ** 26 - 1 else whole.bit_length() // 3 + 3)
    dec = context.divide(Decimal(value.numerator), Decimal(value.denominator))
    # the exponent is -2, so the text is never in exponent notation
    return str(dec.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP, context=context))


class DesignPoint(Record):
    """One backbone variant's measured operating point."""

    name: str
    gmadds: Fraction
    ap: dict[tuple[str, str], Fraction] = {}
    fps_backbone: Fraction | None = None
    fps_total: Fraction | None = None

    def __post_init__(self) -> None:
        if self.gmadds <= 0:
            raise AnalysisError(f"{self.name}: gmadds must be positive")
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
            raise MissingEntry(f"{point.name}: missing AP entry {key}")
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
    p = Fraction(fraction)
    if not 0 < p < 1:
        raise DomainError(f"stage fraction must be in (0, 1), got {fraction}")
    if stage_speedup == float("inf"):
        return amdahl_max(p)
    s = Fraction(stage_speedup)
    if s <= 0:
        raise DomainError(f"stage speedup must be positive, got {stage_speedup}")
    return 1 / ((1 - p) + p / s)


def amdahl_max(fraction: Fraction | float) -> Fraction:
    """Limit speedup 1/(1-p) as the stage's own speedup grows unbounded."""
    p = Fraction(fraction)
    if not 0 < p < 1:
        raise DomainError(f"stage fraction must be in (0, 1), got {fraction}")
    return 1 / (1 - p)


class TimingProfile(Record):
    """Fractional latency shares of named pipeline stages; shares may sum to
    less than 1, the remainder being unprofiled time."""

    stage_fractions: dict[str, Fraction]
    base_latency_ms: Fraction

    def __post_init__(self) -> None:
        if self.base_latency_ms <= 0:
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
            latency = exact_fraction(doc["base_latency_ms"])
        except (KeyError, TypeError, ValueError, ArithmeticError) as err:
            raise AnalysisError(f"{path}: bad timing profile: {err}") from err
        return cls(fractions, latency)


def project_fps(profile: TimingProfile,
                speedups: dict[str, Fraction | float]) -> Fraction:
    """Projected whole-pipeline fps after per-stage accelerations.

    Unlisted stages and the unprofiled remainder keep their original time.
    A speedup of ``inf`` removes a stage's time entirely.
    """
    for stage in speedups:
        if stage not in profile.stage_fractions:
            raise UnknownStage(f"stage {stage!r} not in timing profile")
    total = 1 - sum(profile.stage_fractions.values())  # unprofiled remainder
    for stage, frac in profile.stage_fractions.items():
        s = speedups.get(stage, 1)
        if s == float("inf"):
            continue
        s = Fraction(s)
        if s <= 0:
            raise DomainError(f"stage {stage!r} speedup must be positive")
        total += frac / s
    if total <= 0:
        raise DomainError("all pipeline time was accelerated away")
    return 1000 / (profile.base_latency_ms * total)


_METRICS = ("gmadds", "fps_backbone", "fps_total")


def ratio_table(points: list[DesignPoint], metric: str,
                base_name: str = "base") -> dict[str, Fraction]:
    """Per-variant speedup relative to ``base_name``.

    For gmadds the ratio is base/x (fewer ops = faster); for fps metrics it
    is x/base.
    """
    if metric not in _METRICS:
        raise MissingMetric(f"unknown metric {metric!r}; use one of {_METRICS}")
    by_name = {p.name: p for p in points}
    if base_name not in by_name:
        raise AnalysisError(f"base point {base_name!r} not present")

    def get(point: DesignPoint) -> Fraction:
        value = getattr(point, metric) if metric != "gmadds" else point.gmadds
        if value is None:
            raise MissingMetric(f"{point.name}: metric {metric!r} not measured")
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
                name=name,
                gmadds=exact_fraction(record["gmadds"]),
                ap=ap,
                fps_backbone=(exact_fraction(record["fps_backbone"])
                              if record.get("fps_backbone") is not None else None),
                fps_total=(exact_fraction(record["fps_total"])
                           if record.get("fps_total") is not None else None),
            ))
        except (KeyError, TypeError, ValueError, ArithmeticError) as err:
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
