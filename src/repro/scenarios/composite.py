"""Composite scenarios: sequence and product composition of specs.

Two composition modes cover the scenario space beyond single-parameter
sweeps:

* ``sequence`` — run every member scenario independently and report them
  side by side (e.g. the same droop applied to the excitatory vs the
  inhibitory layer).  The members share one executor, so common
  configurations (most importantly the baseline) are evaluated once.
* ``product`` — the cartesian product of the members' grids, with each
  combination fused into one
  :class:`~repro.attacks.attacks.CompositeAttack` applied to a *single*
  network (e.g. a driver VDD droop *while* a laser shifts a layer
  threshold).  The product is still a flat variant list, so it shards,
  caches and lockstep-batches exactly like a plain grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.attacks.attacks import CompositeAttack
from repro.scenarios.spec import ScenarioSpec, ScenarioVariant, check_scenario_name
from repro.utils.validation import check_in_choices

#: Composition modes of :class:`CompositeScenario`.
MODES = ("sequence", "product")


@dataclass(frozen=True)
class CompositeScenario:
    """A named composition of member :class:`ScenarioSpec` instances.

    Attributes
    ----------
    name, title, description, tags:
        Presentation metadata, mirroring :class:`ScenarioSpec`.
    members:
        The member specs, in declaration order.
    mode:
        ``"sequence"`` or ``"product"`` (see module docstring).
    scale:
        Scale pin, applied to the composition as a whole (member pins are
        ignored so one composite runs under one config).
    """

    name: str
    members: Tuple[ScenarioSpec, ...]
    title: str = ""
    description: str = ""
    tags: Tuple[str, ...] = ()
    mode: str = "product"
    scale: Optional[str] = None

    def __post_init__(self) -> None:
        check_scenario_name(self.name)
        check_in_choices(self.mode, "mode", MODES)
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "tags", tuple(self.tags))
        if len(self.members) < 2:
            raise ValueError(
                f"composite {self.name!r} needs >= 2 members, got {len(self.members)}"
            )
        for member in self.members:
            if member.strategy != "grid":
                # Composites evaluate as flat variant lists; silently
                # dense-expanding a bisect member would discard the
                # O(log n) search the user asked for.
                raise ValueError(
                    f"composite {self.name!r}: members must use the grid "
                    f"strategy ({member.name!r} uses {member.strategy!r}); "
                    "run adaptive searches as standalone scenarios"
                )
        if self.mode == "product":
            for member in self.members:
                if member.defenses:
                    raise ValueError(
                        f"composite {self.name!r}: defenses belong on the "
                        f"composite's members only in sequence mode "
                        f"({member.name!r} declares defenses)"
                    )

    @property
    def strategy(self) -> str:
        """Composites always evaluate as (possibly fused) grids."""
        return "grid"

    def variants(self) -> List[ScenarioVariant]:
        """The composition's flat variant list.

        ``product`` mode fuses one variant per member-combination into a
        :class:`CompositeAttack`; ``sequence`` mode concatenates the
        members' own variant lists, prefixing each variant's parameters
        with the member name so the report stays unambiguous.
        """
        if self.mode == "product":
            combos = itertools.product(*(member.variants() for member in self.members))
            fused: List[ScenarioVariant] = []
            for combo in combos:
                params: List[Tuple[str, object]] = []
                for member, variant in zip(self.members, combo):
                    params.extend(
                        (f"{member.name}.{key}", value) for key, value in variant.params
                    )
                extras = [variant.label_extra for variant in combo if variant.label_extra]
                fused.append(
                    ScenarioVariant(
                        params=tuple(params),
                        attack=CompositeAttack(
                            attacks=tuple(variant.attack for variant in combo)
                        ),
                        label_extra=";".join(extras),
                    )
                )
            return fused
        variants: List[ScenarioVariant] = []
        for member in self.members:
            for variant in member.variants():
                variants.append(
                    ScenarioVariant(
                        params=tuple(
                            ((f"{member.name}.{key}", value) for key, value in variant.params)
                        ),
                        attack=variant.attack,
                        defense=variant.defense,
                        defense_factor=variant.defense_factor,
                        label_extra=variant.label_extra,
                    )
                )
        return variants

    def to_dict(self) -> dict:
        """Plain-dict form (members inlined) for listings and provenance."""
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "tags": list(self.tags),
            "mode": self.mode,
            "scale": self.scale,
            "members": [member.to_dict() for member in self.members],
        }
