"""Declarative attack-scenario specifications.

A :class:`ScenarioSpec` names everything one threat scenario needs — the
attack *family* (which network parameter a supply fault corrupts), fixed
parameters, a swept parameter grid, an evaluation strategy (dense grid or
adaptive bisection), defenses to co-evaluate, and the scale it runs at —
as plain data.  Specs round-trip losslessly through ``dict`` / JSON /
YAML, so scenarios can live in version-controlled files and be validated
before any pipeline run starts.

The translation from a spec to concrete :class:`~repro.attacks.attacks`
objects happens in :meth:`ScenarioSpec.variants`: the cartesian product of
the grid (in declaration order) becomes one attack per point, and each
requested defense adds a *defended* variant whose parameter excursion is
scaled by the defense's residual factor
(:func:`repro.defenses.evaluation.residual_defense_factors`).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.attacks.attacks import (
    Attack1InputSpikeCorruption,
    Attack2ExcitatoryThreshold,
    Attack3InhibitoryThreshold,
    Attack4BothLayerThreshold,
    Attack5GlobalSupply,
    PowerAttack,
)
from repro.attacks.injector import FaultSiteSelection
from repro.utils.validation import check_in_choices

#: Evaluation strategies a spec may request.
STRATEGIES = ("grid", "bisect")

#: Characters allowed in scenario names (they become artifact file names).
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _value_tuple(values) -> tuple:
    """Normalise a spec-field value list into a tuple.

    A bare scalar (string or number, the natural YAML spelling for a
    single entry) becomes a one-element tuple instead of being char-split
    or raising TypeError; anything else must be an iterable.
    """
    if isinstance(values, (str, int, float)) and not isinstance(values, bool):
        return (values,)
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(
            f"expected a value or list of values, got {values!r}"
        ) from None


def _is_finite_number(value) -> bool:
    """Whether ``value`` is a finite int/float (``bool`` does not count)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def check_scenario_name(name: str) -> str:
    """Validate a scenario name (it is interpolated into artifact paths).

    Names must be non-empty, start with an alphanumeric character and use
    only ``[A-Za-z0-9._-]`` — a file-loaded spec named ``../evil`` must
    not write artifacts outside the results directory.
    """
    if not name:
        raise ValueError("a scenario needs a non-empty name")
    if not _NAME_PATTERN.match(name) or ".." in name:
        raise ValueError(
            f"invalid scenario name {name!r}: names become artifact file "
            "names and may only contain letters, digits, '.', '_' and '-' "
            "(starting with a letter or digit)"
        )
    return name


@dataclass(frozen=True)
class AttackFamily:
    """One targetable (layer, parameter) fault family.

    ``builder`` turns a flat parameter dict into a concrete attack;
    ``parameters`` maps every accepted parameter name to its *nominal*
    (no-fault) value, which is what defense co-evaluation scales
    excursions against; ``primary`` names the parameter that defenses act
    on and bisection searches over by default; ``categorical`` lists the
    parameters whose values are strings rather than numbers.
    """

    name: str
    builder: Callable[..., PowerAttack]
    parameters: Mapping[str, float]
    primary: str
    categorical: Tuple[str, ...] = ()
    description: str = ""


def _selection(value) -> FaultSiteSelection:
    if isinstance(value, FaultSiteSelection):
        return value
    return FaultSiteSelection(str(value))


def _build_input_gain(**params) -> PowerAttack:
    return Attack1InputSpikeCorruption(
        theta_change=float(params["theta_change"]),
        fraction=float(params.get("fraction", 1.0)),
        selection=_selection(params.get("selection", "random")),
    )


def _build_layer_threshold(**params) -> PowerAttack:
    layer = check_in_choices(
        params.get("layer", "excitatory"), "layer", ("excitatory", "inhibitory")
    )
    cls = Attack2ExcitatoryThreshold if layer == "excitatory" else Attack3InhibitoryThreshold
    return cls(
        threshold_change=float(params["threshold_change"]),
        fraction=float(params.get("fraction", 1.0)),
        selection=_selection(params.get("selection", "random")),
    )


def _build_both_thresholds(**params) -> PowerAttack:
    return Attack4BothLayerThreshold(threshold_change=float(params["threshold_change"]))


def _build_global_vdd(**params) -> PowerAttack:
    return Attack5GlobalSupply(
        vdd=float(params["vdd"]),
        neuron_type=str(params.get("neuron_type", "if_amplifier")),
    )


#: Registry of attack families addressable from a spec.  The nominal values
#: are the "no corruption" points: changes are 0, the supply is 1 V.
FAMILIES: Dict[str, AttackFamily] = {
    family.name: family
    for family in (
        AttackFamily(
            name="input_gain",
            builder=_build_input_gain,
            parameters={"theta_change": 0.0, "fraction": 1.0, "selection": "random"},
            primary="theta_change",
            categorical=("selection",),
            description="Driver-domain VDD fault scaling the per-spike charge "
            "(Attack 1).",
        ),
        AttackFamily(
            name="layer_threshold",
            builder=_build_layer_threshold,
            parameters={
                "threshold_change": 0.0,
                "fraction": 1.0,
                "layer": "excitatory",
                "selection": "random",
            },
            primary="threshold_change",
            categorical=("layer", "selection"),
            description="Laser-localised threshold fault on one layer "
            "(Attacks 2/3; the layer itself is sweepable).",
        ),
        AttackFamily(
            name="both_thresholds",
            builder=_build_both_thresholds,
            parameters={"threshold_change": 0.0},
            primary="threshold_change",
            description="Shared-domain threshold fault on both layers (Attack 4).",
        ),
        AttackFamily(
            name="global_vdd",
            builder=_build_global_vdd,
            parameters={"vdd": 1.0, "neuron_type": "if_amplifier"},
            primary="vdd",
            categorical=("neuron_type",),
            description="Black-box fault on the single shared supply (Attack 5).",
        ),
    )
}


@dataclass(frozen=True)
class BisectionSettings:
    """Adaptive-search settings for ``strategy="bisect"`` specs.

    The spec's grid must sweep exactly one parameter; its values, **in
    declaration order**, are the candidate collapse thresholds and must be
    ordered from *mildest to most severe corruption* — numerically
    ascending for positive excursions (``0.025 … 0.2``), descending for
    negative ones (``-0.025 … -0.2``) or for a drooping supply
    (``0.975 … 0.8``).  The search assumes the relative degradation is
    monotone non-decreasing along that order and finds the first value
    whose degradation reaches ``target_degradation`` in at most
    ``max(1, ceil(log2(n - 1)) - 1)`` passes on the lockstep engine (2 for
    8 candidates), or ``2 + ceil(log2(n - 1))`` pipeline runs on the scalar
    engine or a process pool, instead of n runs.  Values that are not
    strictly monotone in either direction are rejected at validation time.
    """

    target_degradation: float = 0.5
    parameter: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.target_degradation, (int, float)) or isinstance(
            self.target_degradation, bool
        ):
            raise ValueError(
                "target_degradation must be a number in (0, 1], got "
                f"{self.target_degradation!r}"
            )
        if not (0.0 < self.target_degradation <= 1.0):
            raise ValueError(
                "target_degradation must be in (0, 1], got "
                f"{self.target_degradation!r}"
            )


@dataclass(frozen=True)
class ScenarioVariant:
    """One concrete grid point of a scenario: parameters and the attack.

    ``defense`` is empty for the undefended variant and carries the
    defense name (with ``defense_factor`` the surviving fraction of the
    excursion) for co-evaluated defended variants.  ``label_extra``
    disambiguates variants whose attack labels coincide — swept
    categorical axes (e.g. ``selection``) that the attack's own ``label()``
    does not encode.
    """

    params: Tuple[Tuple[str, object], ...]
    attack: PowerAttack
    defense: str = ""
    defense_factor: float = 1.0
    label_extra: str = ""

    @property
    def label(self) -> str:
        """Display label: attack label + categorical axes + defense."""
        label = self.attack.label()
        if self.label_extra:
            label = f"{label}[{self.label_extra}]"
        if self.defense:
            label = f"{label}|{self.defense}"
        return label


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative threat scenario.

    Attributes
    ----------
    name:
        Registry name (unique).
    family:
        Attack family key (see :data:`FAMILIES`).
    title, description, tags:
        Presentation metadata (tags feed ``scenarios list`` filtering).
    fixed:
        Parameters held constant across the sweep.
    grid:
        Swept parameters: name → tuple of values.  The cartesian product
        in declaration order is the scenario's variant list.
    strategy:
        ``"grid"`` evaluates the full product; ``"bisect"`` runs the
        adaptive collapse-threshold search of :class:`BisectionSettings`.
    search:
        Bisection settings (required when ``strategy="bisect"``).
    defenses:
        Defense names co-evaluated against every grid point (see
        :func:`repro.defenses.evaluation.residual_defense_factors`).
    scale:
        Optional scale preset pin; ``None`` defers to the runner/CLI.
    """

    name: str
    family: str
    title: str = ""
    description: str = ""
    tags: Tuple[str, ...] = ()
    fixed: Mapping[str, object] = field(default_factory=dict)
    grid: Mapping[str, Tuple[object, ...]] = field(default_factory=dict)
    strategy: str = "grid"
    search: Optional[BisectionSettings] = None
    defenses: Tuple[str, ...] = ()
    scale: Optional[str] = None

    # ------------------------------------------------------------- validation
    def __post_init__(self) -> None:
        check_scenario_name(self.name)
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown attack family {self.family!r}; "
                f"known: {', '.join(sorted(FAMILIES))}"
            )
        check_in_choices(self.strategy, "strategy", STRATEGIES)
        family = FAMILIES[self.family]
        # Freeze the mappings so the (frozen) spec is hashable-by-content
        # and cannot be mutated after validation.  Scalars are normalised
        # to one-element tuples — the natural YAML spellings
        # ``tags: attack`` and ``grid: {selection: random}`` must not be
        # char-split by tuple() into ('a','t','t','a','c','k').
        object.__setattr__(self, "fixed", dict(self.fixed))
        object.__setattr__(
            self,
            "grid",
            {
                key: _value_tuple(values)
                for key, values in dict(self.grid).items()
            },
        )
        object.__setattr__(self, "tags", _value_tuple(self.tags))
        object.__setattr__(self, "defenses", _value_tuple(self.defenses))
        for source, params in (("fixed", self.fixed), ("grid", self.grid)):
            unknown = sorted(set(params) - set(family.parameters))
            if unknown:
                raise ValueError(
                    f"scenario {self.name!r}: unknown {source} parameter(s) "
                    f"{', '.join(unknown)} for family {self.family!r} "
                    f"(accepted: {', '.join(sorted(family.parameters))})"
                )
        overlap = sorted(set(self.fixed) & set(self.grid))
        if overlap:
            raise ValueError(
                f"scenario {self.name!r}: parameter(s) {', '.join(overlap)} "
                "appear in both fixed and grid"
            )
        if not self.grid:
            raise ValueError(f"scenario {self.name!r}: the grid sweeps nothing")
        if family.primary not in self.fixed and family.primary not in self.grid:
            raise ValueError(
                f"scenario {self.name!r}: family {self.family!r} requires "
                f"parameter {family.primary!r} in fixed or grid"
            )
        for key, value in self.fixed.items():
            if key not in family.categorical and not _is_finite_number(value):
                raise ValueError(
                    f"scenario {self.name!r}: fixed parameter {key!r} must "
                    f"be numeric and finite, got {value!r}"
                )
        for key, values in self.grid.items():
            if len(values) == 0:
                raise ValueError(
                    f"scenario {self.name!r}: grid parameter {key!r} has no values"
                )
            if key not in family.categorical:
                bad = [v for v in values if not _is_finite_number(v)]
                if bad:
                    raise ValueError(
                        f"scenario {self.name!r}: grid parameter {key!r} must "
                        f"be numeric and finite, got {bad[0]!r}"
                    )
            if len(set(values)) != len(values):
                raise ValueError(
                    f"scenario {self.name!r}: grid parameter {key!r} repeats values"
                )
        if self.strategy == "bisect":
            if self.defenses:
                raise ValueError(
                    f"scenario {self.name!r}: defenses cannot be co-evaluated "
                    "in a bisect search (the probe sequence is undefended); "
                    "use a grid scenario for attack-under-defense matrices"
                )
            if self.search is None:
                object.__setattr__(self, "search", BisectionSettings())
            if len(self.grid) != 1:
                raise ValueError(
                    f"scenario {self.name!r}: bisect needs exactly one swept "
                    f"parameter, got {len(self.grid)}"
                )
            parameter = self.search.parameter or next(iter(self.grid))
            if parameter not in self.grid:
                raise ValueError(
                    f"scenario {self.name!r}: bisect parameter {parameter!r} "
                    "is not the swept grid parameter"
                )
            if parameter in family.categorical:
                raise ValueError(
                    f"scenario {self.name!r}: cannot bisect over categorical "
                    f"parameter {parameter!r}"
                )
            values = [float(v) for v in self.grid[parameter]]
            ascending = all(a < b for a, b in zip(values, values[1:]))
            descending = all(a > b for a, b in zip(values, values[1:]))
            if len(values) > 1 and not (ascending or descending):
                raise ValueError(
                    f"scenario {self.name!r}: bisect candidate values must be "
                    "strictly monotone, declared mildest corruption first "
                    f"(got {values})"
                )
            object.__setattr__(
                self,
                "search",
                dataclasses.replace(self.search, parameter=parameter),
            )
        if self.defenses:
            from repro.defenses.evaluation import residual_defense_factors

            known = residual_defense_factors()
            unknown = sorted(set(self.defenses) - set(known))
            if unknown:
                raise ValueError(
                    f"scenario {self.name!r}: unknown defense(s) "
                    f"{', '.join(unknown)} (known: {', '.join(sorted(known))})"
                )
        # The attack constructors own the parameter ranges (a supply must
        # be positive, a fraction in [0, 1], ...); building every point now
        # makes a bad value fail at load, named, not mid-campaign.
        for point in self.grid_points():
            try:
                self.build_attack(point)
            except ValueError as error:
                raise ValueError(
                    f"scenario {self.name!r}: grid point {point} is not a valid "
                    f"{self.family!r} attack: {error}"
                ) from None

    # -------------------------------------------------------------- expansion
    @property
    def family_spec(self) -> AttackFamily:
        """The resolved :class:`AttackFamily` this spec targets."""
        return FAMILIES[self.family]

    def grid_points(self) -> List[Dict[str, object]]:
        """Every grid point as a flat parameter dict (cartesian product).

        The product iterates in grid-declaration order with the *last*
        declared parameter varying fastest, and includes the fixed
        parameters, so each dict fully determines one attack.
        """
        names = list(self.grid)
        points = []
        for combo in itertools.product(*(self.grid[name] for name in names)):
            params = dict(self.fixed)
            params.update(zip(names, combo))
            points.append(params)
        return points

    def build_attack(self, params: Mapping[str, object]) -> PowerAttack:
        """Construct the concrete attack for one parameter dict."""
        return self.family_spec.builder(**params)

    def _defended_params(
        self, params: Mapping[str, object], factor: float
    ) -> Dict[str, object]:
        """Scale the primary parameter's excursion from nominal by ``factor``."""
        family = self.family_spec
        nominal = float(family.parameters[family.primary])
        value = float(params.get(family.primary, nominal))
        defended = dict(params)
        defended[family.primary] = nominal + factor * (value - nominal)
        return defended

    def _label_extra(self, point: Mapping[str, object]) -> str:
        """Disambiguating label suffix: the swept categorical axes.

        Attack ``label()`` strings encode the numeric parameters but not
        categorical ones like ``selection`` — two variants differing only
        there would otherwise render identically in tables and cases.
        """
        swept_categorical = [
            key for key in self.grid if key in self.family_spec.categorical
        ]
        return ",".join(f"{key}={point[key]}" for key in swept_categorical)

    def variants(self) -> List[ScenarioVariant]:
        """The scenario's full variant list: undefended grid + defended copies.

        Order is deterministic — all undefended points in grid order, then
        per defense (in declaration order) the defended copies — which is
        what sharding (:mod:`repro.exec.shard`) slices.
        """
        points = self.grid_points()
        variants = [
            ScenarioVariant(
                params=tuple(sorted(point.items(), key=lambda kv: kv[0])),
                attack=self.build_attack(point),
                label_extra=self._label_extra(point),
            )
            for point in points
        ]
        if self.defenses:
            from repro.defenses.evaluation import residual_defense_factors

            factors = residual_defense_factors()
            for defense in self.defenses:
                factor = factors[defense]
                for point in points:
                    defended = self._defended_params(point, factor)
                    variants.append(
                        ScenarioVariant(
                            params=tuple(sorted(defended.items(), key=lambda kv: kv[0])),
                            attack=self.build_attack(defended),
                            defense=defense,
                            defense_factor=factor,
                            label_extra=self._label_extra(defended),
                        )
                    )
        return variants

    # ----------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, object]:
        """A JSON/YAML-ready plain-dict form that round-trips exactly."""
        document: Dict[str, object] = {
            "name": self.name,
            "family": self.family,
            "title": self.title,
            "description": self.description,
            "tags": list(self.tags),
            "fixed": dict(self.fixed),
            "grid": {key: list(values) for key, values in self.grid.items()},
            "strategy": self.strategy,
            "defenses": list(self.defenses),
            "scale": self.scale,
        }
        if self.search is not None:
            document["search"] = {
                "target_degradation": self.search.target_degradation,
                "parameter": self.search.parameter,
            }
        return document

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "ScenarioSpec":
        """Build and validate a spec from a plain dict (JSON/YAML payload).

        Unknown keys raise a :class:`ValueError` naming them — a typo in a
        scenario file fails loudly instead of silently dropping a field.
        """
        if not isinstance(document, Mapping):
            raise ValueError(
                f"a scenario document must be a mapping, got {type(document).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(document) - known)
        if unknown:
            raise ValueError(
                f"unknown scenario field(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(known))})"
            )
        required = {
            f.name
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        }
        missing = sorted(required - set(document))
        if missing:
            raise ValueError(
                f"scenario document is missing required field(s): "
                f"{', '.join(missing)}"
            )
        payload = dict(document)
        search = payload.pop("search", None)
        if search is not None:
            if not isinstance(search, Mapping):
                raise ValueError("scenario 'search' must be a mapping")
            unknown = sorted(set(search) - {"target_degradation", "parameter"})
            if unknown:
                raise ValueError(
                    f"unknown search field(s): {', '.join(unknown)}"
                )
            search = BisectionSettings(**search)
        return cls(search=search, **payload)


def load_scenario_file(path: Path | str) -> List[ScenarioSpec]:
    """Load one or more specs from a ``.json`` / ``.yaml`` / ``.yml`` file.

    The document may be a single scenario mapping or a list of them.
    YAML support requires PyYAML; without it, a clear error points to the
    JSON alternative instead of an ImportError deep in a parse.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:  # pragma: no cover - environment-dependent
            raise RuntimeError(
                f"cannot load {path}: PyYAML is not installed; "
                "use the JSON form of the scenario file instead"
            ) from None
        try:
            payload = yaml.safe_load(text)
        except yaml.YAMLError as error:
            raise ValueError(f"{path} is not valid YAML: {error}") from None
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path} is not valid JSON: {error}") from None
    documents = payload if isinstance(payload, list) else [payload]
    return [ScenarioSpec.from_dict(document) for document in documents]
