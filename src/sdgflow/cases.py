"""Named experiment presets and mesh family construction helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import mesh as meshmod
from .mesh import StaggeredMesh


@dataclass(frozen=True)
class ExperimentPreset:
    """A convergence-study configuration bundled under a short name."""

    name: str
    family: str
    levels: tuple[int, ...]
    orders: tuple[int, ...]
    eps: float
    alpha: float = 1.0
    delta: float = 0.25
    seed: int = 42


_STANDARD_LEVELS = (2, 4, 8, 16, 32)
_STANDARD_ORDERS = (1, 2, 3)
_EPS_LADDER = (1.0, 1e-2, 1e-4, 1e-8)

_PRESETS: dict[str, ExperimentPreset] = {}
for _i, _eps in enumerate(_EPS_LADDER):
    _PRESETS[f"table{_i + 1}"] = ExperimentPreset(
        name=f"table{_i + 1}",
        family="square",
        levels=_STANDARD_LEVELS,
        orders=_STANDARD_ORDERS,
        eps=_eps,
    )
    _PRESETS[f"table{_i + 5}"] = ExperimentPreset(
        name=f"table{_i + 5}",
        family="distorted",
        levels=_STANDARD_LEVELS,
        orders=_STANDARD_ORDERS,
        eps=_eps,
    )


def preset_names() -> list[str]:
    return sorted(_PRESETS, key=lambda s: (len(s), s))


def preset(name: str) -> ExperimentPreset:
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(preset_names())
        raise KeyError(f"unknown preset {name!r}; available: {known}") from None


def build_mesh(family: str, n: int, delta: float = 0.25, seed: int = 42) -> StaggeredMesh:
    """Build a staggered mesh of the named family at resolution n."""
    if family == "square":
        primal = meshmod.build_square_grid(n)
    elif family == "distorted":
        primal = meshmod.build_distorted_grid(n, delta=delta, seed=seed)
    elif family == "hanging":
        primal = meshmod.build_hanging_grid(n)
    else:
        raise ValueError(f"unknown mesh family {family!r}")
    return meshmod.build_staggered(primal)
