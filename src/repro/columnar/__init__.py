"""Columnar feasibility core: struct-of-arrays snapshots + vectorised kernels.

``repro.columnar`` turns a batch's worker/task populations into contiguous
columns (:class:`ColumnarBatch`) and evaluates the pair-feasibility
predicate over whole tiles at once (:func:`feasible_pairs` /
:func:`feasible_dense`) — numpy-backed when available, with a pure-python
``array``-module fallback that keeps the core dependency-free.  Decisions
and distances are bit-identical to the scalar
:func:`repro.core.constraints.pair_feasible` oracle on both backends; see
:mod:`repro.columnar.kernels` for the exactness contract.

The process-wide toggle (:func:`set_default_columnar`, surfaced as the CLI
``--columnar/--no-columnar`` flags) defaults to *auto*: on exactly when
numpy is importable.

:mod:`repro.columnar.game_kernels` extends the same seam to the
best-response and local-search hot loops: :class:`GameSweeper` computes a
dirty worker's whole candidate-utility vector in one columnar sweep and
:class:`SearchColumns` drives the fill/relocate scans through dense masks —
bit-identical to the scalar loops on both backends, toggled by
:func:`set_default_game_kernels` / the CLI ``--game-kernels`` flags.
"""

from repro.columnar.batch import (
    ColumnarBatch,
    flatten_rows,
    intern_skills,
)
from repro.columnar.store import RowArena
from repro.columnar.game_kernels import (
    GAME_KERNEL_MIN_CANDIDATES,
    GAME_KERNEL_MIN_PAIRS,
    GameColumns,
    GameSweeper,
    SearchColumns,
    default_game_kernels,
    set_default_game_kernels,
)
from repro.columnar.kernels import (
    CODES,
    REASON_DEADLINE,
    REASON_FEASIBLE,
    REASON_NAMES,
    REASON_REACH,
    REASON_SKILL,
    available_backends,
    default_columnar,
    feasible_dense,
    feasible_pairs,
    numpy_available,
    rejection_reasons,
    rejection_reasons_dense,
    resolve_backend,
    set_default_columnar,
    skill_candidates_dense,
    true_positions,
)

__all__ = [
    "CODES",
    "ColumnarBatch",
    "GAME_KERNEL_MIN_CANDIDATES",
    "GAME_KERNEL_MIN_PAIRS",
    "GameColumns",
    "GameSweeper",
    "REASON_DEADLINE",
    "REASON_FEASIBLE",
    "REASON_NAMES",
    "REASON_REACH",
    "REASON_SKILL",
    "RowArena",
    "SearchColumns",
    "available_backends",
    "default_columnar",
    "default_game_kernels",
    "feasible_dense",
    "feasible_pairs",
    "flatten_rows",
    "intern_skills",
    "numpy_available",
    "rejection_reasons",
    "rejection_reasons_dense",
    "resolve_backend",
    "set_default_columnar",
    "set_default_game_kernels",
    "skill_candidates_dense",
    "true_positions",
]
