"""Post-processing of the mechanical response into the designer-facing
cross-section resistance ratio and its binary classification.

For a beam fibre with axial stress sigma and torsional shear tau the
equivalent stress is sqrt(sigma^2 + 3 tau^2) (deviatoric-invariant yield
measure); the resistance ratio is that equivalent stress over the yield
stress.  Axial stress superposes conservatively as |N|/A + |My|/Wy + |Mz|/Wz
evaluated at both element ends; transverse shear is neglected (negligible
for slender members).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import StructuralModel, cell_properties

ELASTIC_LIMIT = 1.0


def classify(u_el: float) -> str:
    """'exceeded' for ratios strictly above ``ELASTIC_LIMIT``, else 'ok'."""
    if u_el < 0:
        raise ValueError("resistance ratio cannot be negative")
    return "exceeded" if u_el > ELASTIC_LIMIT else "ok"


@dataclass(eq=False)
class ResultSet:
    """Solved response: per-point displacements/rotations, per-cell local end
    forces and resistance ratios, reactions and the applied-load record."""

    displacements: np.ndarray  # (n_points, 6), mm / rad
    end_forces: np.ndarray  # (n_cells, 2, 6), local (N, Vy, Vz, T, My, Mz)
    u_el: np.ndarray  # (n_cells,)
    exceeded: np.ndarray  # (n_cells,) bool
    max_u_el: float
    max_total_displacement: float
    reactions: np.ndarray  # (n_points, 6)
    applied_loads: np.ndarray  # (n_points, 6)


def build_result_set(
    model: StructuralModel,
    displacements: np.ndarray,
    end_forces: np.ndarray,
    reactions: np.ndarray | None = None,
    applied_loads: np.ndarray | None = None,
) -> ResultSet:
    n = len(model.points)
    m = len(model.cells)
    disp = np.asarray(displacements, dtype=float).reshape(n, 6)
    ef = np.asarray(end_forces, dtype=float).reshape(m, 2, 6)
    props = cell_properties(model)
    if np.any(props.Ry <= 0):
        raise ValueError("material yield stress must be positive")
    f = np.abs(ef.transpose(1, 0, 2))  # (2, m, 6): both ends against the (m,) section values
    sigma = f[..., 0] / props.A + f[..., 4] / props.Wy + f[..., 5] / props.Wz
    tau = f[..., 3] / props.Wt
    u_el = np.max(np.sqrt(sigma**2 + 3.0 * tau**2), axis=0) / props.Ry
    loads = [np.zeros((n, 6)) if v is None else np.asarray(v, dtype=float)
             for v in (reactions, applied_loads)]
    return ResultSet(disp, ef, u_el, u_el > ELASTIC_LIMIT, float(u_el.max(initial=0.0)),
                     float(np.linalg.norm(disp[:, :3], axis=1).max(initial=0.0)), *loads)


def equilibrium_residual(model: StructuralModel, results: ResultSet) -> float:
    """Global balance of reactions plus applied loads: the force and the
    moment about the origin, relative to the applied force resultant (the
    moment also over the model's extent).  Self-balancing loads fall back to
    the sum of the load magnitudes as the reference."""
    xyz = model.points.coords
    total = results.reactions + results.applied_loads
    force = total[:, :3].sum(axis=0)
    moment = (np.cross(xyz, total[:, :3]) + total[:, 3:]).sum(axis=0)
    extent = (float(np.linalg.norm(np.ptp(xyz, axis=0))) if len(xyz) else 0.0) or 1.0
    loads = results.applied_loads
    reference = np.linalg.norm(loads[:, :3].sum(axis=0)) or (
        np.linalg.norm(loads[:, :3], axis=1).sum()
        + np.linalg.norm(loads[:, 3:], axis=1).sum() / extent
    )
    residual = max(np.linalg.norm(force), np.linalg.norm(moment) / extent)
    return float(residual / reference) if reference else float(residual)


def deformed_geometry(model: StructuralModel, displacements, scale: float) -> np.ndarray:
    """Point coordinates displaced by scale times the translation field."""
    if not 0 <= scale < np.inf:
        raise ValueError(f"deformation scale must be finite and non-negative, got {scale:g}")
    disp = np.asarray(displacements, dtype=float)
    coords = model.points.coords
    if disp.shape != (coords.shape[0], 6):
        raise ValueError("displacement array does not match the point count")
    return coords + scale * disp[:, :3]
