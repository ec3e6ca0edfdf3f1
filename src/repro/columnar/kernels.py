"""Blockwise feasibility kernels over :class:`ColumnarBatch` snapshots.

The kernels evaluate the scalar predicate of
:func:`repro.core.constraints.pair_feasible` — skill coverage, reach and
the time-dependent deadline test — across whole worker x task tiles in one
sweep.  Two interchangeable backends implement them:

* ``numpy`` views the batch's ``array`` buffers zero-copy and computes the
  masks with vectorised float64 arithmetic;
* ``fallback`` is a pure-python loop over the same columns, keeping the
  core dependency-free when numpy is absent.

Exactness contract
------------------
Both backends return **bit-identical** decisions and distances to the
scalar oracle.  Every operation in the predicate — subtraction, abs,
addition, division, max, comparison — is exactly rounded under IEEE-754,
so numpy float64 reproduces CPython float for float... with one exception:
``numpy.hypot`` is *not* correctly rounded and disagrees with
``math.hypot`` (the scalar Euclidean metric) in the last ulp on ~0.6% of
inputs.  The Euclidean distance column is therefore filled by a C-level
``map(math.hypot, ...)`` sweep on both backends — the deltas vectorise,
the final hypot matches libm-exactly — while Manhattan (abs/add only)
vectorises end to end.  Scalar edge semantics carry over verbatim:
``dist == 0.0`` is feasible even at ``velocity <= 0`` (the division's
``inf``/``nan`` is masked exactly as the scalar short-circuit does),
``now = -inf`` flows through the departure ``max`` unchanged, and
duplicate locations simply produce equal distance entries.

``feasible_pairs`` returns plain buffers (``bytes`` masks, float lists)
rather than backend arrays so callers replaying per-pair sequences — the
engine's distance-cache replay — index python ints/floats, not array
scalars.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.columnar.batch import ColumnarBatch
from repro.obs.metrics import REGISTRY

try:  # pragma: no cover - exercised via the numpy-less CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Metric codes the kernels implement.  A metric advertises eligibility by
#: setting :attr:`repro.spatial.distance.DistanceMetric.columnar_code` to
#: one of these.
CODES = ("euclidean", "manhattan")

_KERNEL_PAIRS = REGISTRY.counter(
    "columnar_kernel_pairs", "worker x task pairs decided by the columnar kernels"
)
_KERNEL_CALLS = REGISTRY.counter(
    "columnar_kernel_calls", "columnar kernel invocations (tiles evaluated)"
)

#: Process-default columnar toggle: True / False, or None for *auto*
#: (enabled exactly when numpy is importable — the fallback backend is
#: decision-identical but has no speed advantage over the scalar path).
_DEFAULT_COLUMNAR: Optional[bool] = None


def set_default_columnar(enabled: Optional[bool]) -> Optional[bool]:
    """Set the process-wide columnar default; returns the previous value.

    ``None`` restores *auto* (on when numpy is available).  Mirrors
    :func:`repro.spatial.roadnet.set_default_acceleration`.
    """
    global _DEFAULT_COLUMNAR
    previous = _DEFAULT_COLUMNAR
    _DEFAULT_COLUMNAR = enabled
    return previous


def default_columnar() -> bool:
    """The resolved process default (auto -> numpy availability)."""
    if _DEFAULT_COLUMNAR is None:
        return _np is not None
    return _DEFAULT_COLUMNAR


def numpy_available() -> bool:
    return _np is not None


def available_backends() -> Tuple[str, ...]:
    return ("numpy", "fallback") if _np is not None else ("fallback",)


def resolve_backend(backend: Optional[str] = None) -> str:
    """``None`` -> the fastest available backend; names are validated."""
    if backend is None:
        return "numpy" if _np is not None else "fallback"
    if backend not in ("numpy", "fallback"):
        raise ValueError(f"backend must be 'numpy' or 'fallback', got {backend!r}")
    if backend == "numpy" and _np is None:
        raise RuntimeError("numpy backend requested but numpy is not importable")
    return backend


# -- tile kernels ------------------------------------------------------------------


def feasible_pairs(
    batch: ColumnarBatch,
    widx: Sequence[int],
    tidx: Sequence[int],
    now: float,
    code: str,
    backend: Optional[str] = None,
) -> Tuple[bytes, bytes, List[float]]:
    """Feasibility over a flattened tile of (worker, task) positions.

    Args:
        batch: the columnar snapshot.
        widx / tidx: parallel position lists (``widx[k]``-th worker against
            ``tidx[k]``-th task).
        now: the batch timestamp (``-inf`` for the static setting).
        code: metric code (``euclidean`` / ``manhattan``).
        backend: force ``numpy`` / ``fallback``; None picks automatically.

    Returns:
        ``(mask, skill_mask, dists)`` — per-pair full-predicate decisions,
        per-pair skill-only decisions (callers replaying the scalar path's
        metric-access sequence need to know which pairs the scalar code
        would have evaluated a distance for), and the exact distances.
        Masks are ``bytes`` (0/1 per pair); distances a python-float list.
    """
    if code not in CODES:
        raise ValueError(f"unknown columnar metric code {code!r}")
    count = len(widx)
    if count != len(tidx):
        raise ValueError(f"widx/tidx length mismatch: {count} vs {len(tidx)}")
    _KERNEL_CALLS.inc()
    _KERNEL_PAIRS.inc(count)
    if count == 0:
        return b"", b"", []
    if resolve_backend(backend) == "numpy":
        return _feasible_pairs_numpy(batch, widx, tidx, now, code)
    return _feasible_pairs_fallback(batch, widx, tidx, now, code)


def _feasible_pairs_numpy(
    batch: ColumnarBatch,
    widx: Sequence[int],
    tidx: Sequence[int],
    now: float,
    code: str,
) -> Tuple[bytes, bytes, List[float]]:
    np = _np
    wi = np.asarray(widx, dtype=np.intp)
    ti = np.asarray(tidx, dtype=np.intp)
    words = batch.n_skill_words
    wskills = np.frombuffer(batch.wskills, dtype=np.uint64).reshape(
        batch.n_workers, words
    )
    tword = np.frombuffer(batch.tskill_word, dtype=np.int64)
    tbit = np.frombuffer(batch.tskill_bitmask, dtype=np.uint64)
    skill = (wskills[wi, tword[ti]] & tbit[ti]) != 0

    wx = np.frombuffer(batch.wx, dtype=np.float64)[wi]
    wy = np.frombuffer(batch.wy, dtype=np.float64)[wi]
    tx = np.frombuffer(batch.tx, dtype=np.float64)[ti]
    ty = np.frombuffer(batch.ty, dtype=np.float64)[ti]
    dx = wx - tx
    dy = wy - ty
    if code == "manhattan":
        dist = np.abs(dx) + np.abs(dy)
        dist_list = dist.tolist()
    else:
        dist_list = list(map(math.hypot, dx.tolist(), dy.tolist()))
        dist = np.asarray(dist_list, dtype=np.float64)

    wstart = np.frombuffer(batch.wstart, dtype=np.float64)[wi]
    wdeadline = np.frombuffer(batch.wdeadline, dtype=np.float64)[wi]
    velocity = np.frombuffer(batch.wvelocity, dtype=np.float64)[wi]
    reach = np.frombuffer(batch.wmax_distance, dtype=np.float64)[wi]
    tstart = np.frombuffer(batch.tstart, dtype=np.float64)[ti]
    tdeadline = np.frombuffer(batch.tdeadline, dtype=np.float64)[ti]

    # depart = max(s_w, s_t, now); the scalar window tests reduce to the
    # two departure comparisons (depart >= both starts by construction).
    depart = np.maximum(wstart, tstart)
    if now != -math.inf:
        depart = np.maximum(depart, now)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # velocity == 0, dist > 0 -> inf -> fails the comparison, exactly
        # the scalar early-return; 0/0's nan is masked by the dist == 0 arm.
        arrival_ok = depart + dist / velocity <= tdeadline
    mask = (
        skill
        & (dist <= reach)
        & (depart <= tdeadline)
        & (depart <= wdeadline)
        & ((dist == 0.0) | arrival_ok)
    )
    return (
        mask.astype(np.uint8).tobytes(),
        skill.astype(np.uint8).tobytes(),
        dist_list,
    )


def _feasible_pairs_fallback(
    batch: ColumnarBatch,
    widx: Sequence[int],
    tidx: Sequence[int],
    now: float,
    code: str,
) -> Tuple[bytes, bytes, List[float]]:
    # Local bindings: the loop reads columns, never objects.
    wx, wy = batch.wx, batch.wy
    wstart, wdeadline = batch.wstart, batch.wdeadline
    velocity, reach = batch.wvelocity, batch.wmax_distance
    wskills, words = batch.wskills, batch.n_skill_words
    tx, ty = batch.tx, batch.ty
    tstart, tdeadline = batch.tstart, batch.tdeadline
    tword, tbit = batch.tskill_word, batch.tskill_bitmask
    hypot = math.hypot
    manhattan = code == "manhattan"

    count = len(widx)
    mask = bytearray(count)
    skill_mask = bytearray(count)
    dists: List[float] = [0.0] * count
    for k in range(count):
        i = widx[k]
        j = tidx[k]
        skilled = wskills[i * words + tword[j]] & tbit[j]
        if skilled:
            skill_mask[k] = 1
        if manhattan:
            dist = abs(wx[i] - tx[j]) + abs(wy[i] - ty[j])
        else:
            dist = hypot(wx[i] - tx[j], wy[i] - ty[j])
        dists[k] = dist
        if not skilled or dist > reach[i]:
            continue
        depart = wstart[i]
        if tstart[j] > depart:
            depart = tstart[j]
        if now > depart:
            depart = now
        if depart > tdeadline[j] or depart > wdeadline[i]:
            continue
        if dist == 0.0:
            mask[k] = 1
        elif velocity[i] > 0.0 and depart + dist / velocity[i] <= tdeadline[j]:
            mask[k] = 1
    return bytes(mask), bytes(skill_mask), dists


def skill_candidates_dense(
    batch: ColumnarBatch,
    now: float,
    code: str,
    backend: Optional[str] = None,
) -> Tuple[List[int], List[int], List[float], bytes]:
    """Skill-passing pairs of the full cross product, with their verdicts.

    The dense counterpart of :func:`feasible_pairs` for callers that must
    *replay* the scalar path's metric-access sequence (the engine's
    distance-cache replay): the skill filter — which rejects the bulk of a
    dense tile and costs the scalar path nothing but a set probe — runs
    vectorised, and only the surviving pairs are materialised as python
    lists.  Returns ``(widx, tidx, dists, mask)`` in row-major
    (worker-then-task) order — exactly the order the scalar build evaluates
    the metric in — where ``mask`` holds the full-predicate verdict of each
    *candidate* (skill already passed).
    """
    n_w, n_t = batch.n_workers, batch.n_tasks
    _KERNEL_CALLS.inc()
    _KERNEL_PAIRS.inc(n_w * n_t)
    if n_w == 0 or n_t == 0:
        return [], [], [], b""
    if resolve_backend(backend) == "numpy":
        np = _np
        words = batch.n_skill_words
        wskills = np.frombuffer(batch.wskills, dtype=np.uint64).reshape(n_w, words)
        tword = np.frombuffer(batch.tskill_word, dtype=np.int64)
        tbit = np.frombuffer(batch.tskill_bitmask, dtype=np.uint64)
        skill = (wskills[:, tword] & tbit[None, :]) != 0
        wi, ti = np.nonzero(skill)
        if len(wi) == 0:
            return [], [], [], b""

        wx = np.frombuffer(batch.wx, dtype=np.float64)[wi]
        wy = np.frombuffer(batch.wy, dtype=np.float64)[wi]
        tx = np.frombuffer(batch.tx, dtype=np.float64)[ti]
        ty = np.frombuffer(batch.ty, dtype=np.float64)[ti]
        dx = wx - tx
        dy = wy - ty
        if code == "manhattan":
            dist = np.abs(dx) + np.abs(dy)
            dist_list = dist.tolist()
        else:
            dist_list = list(map(math.hypot, dx.tolist(), dy.tolist()))
            dist = np.asarray(dist_list, dtype=np.float64)

        wstart = np.frombuffer(batch.wstart, dtype=np.float64)[wi]
        wdeadline = np.frombuffer(batch.wdeadline, dtype=np.float64)[wi]
        velocity = np.frombuffer(batch.wvelocity, dtype=np.float64)[wi]
        reach = np.frombuffer(batch.wmax_distance, dtype=np.float64)[wi]
        tstart = np.frombuffer(batch.tstart, dtype=np.float64)[ti]
        tdeadline = np.frombuffer(batch.tdeadline, dtype=np.float64)[ti]

        depart = np.maximum(wstart, tstart)
        if now != -math.inf:
            depart = np.maximum(depart, now)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            arrival_ok = depart + dist / velocity <= tdeadline
        mask = (
            (dist <= reach)
            & (depart <= tdeadline)
            & (depart <= wdeadline)
            & ((dist == 0.0) | arrival_ok)
        )
        return (
            wi.tolist(),
            ti.tolist(),
            dist_list,
            mask.astype(np.uint8).tobytes(),
        )
    wx, wy = batch.wx, batch.wy
    wstart, wdeadline = batch.wstart, batch.wdeadline
    velocity, reach = batch.wvelocity, batch.wmax_distance
    wskills, words = batch.wskills, batch.n_skill_words
    tx, ty = batch.tx, batch.ty
    tstart, tdeadline = batch.tstart, batch.tdeadline
    tword, tbit = batch.tskill_word, batch.tskill_bitmask
    hypot = math.hypot
    manhattan = code == "manhattan"
    widx: List[int] = []
    tidx: List[int] = []
    dists: List[float] = []
    mask = bytearray()
    for i in range(n_w):
        base = i * words
        for j in range(n_t):
            if not (wskills[base + tword[j]] & tbit[j]):
                continue
            if manhattan:
                dist = abs(wx[i] - tx[j]) + abs(wy[i] - ty[j])
            else:
                dist = hypot(wx[i] - tx[j], wy[i] - ty[j])
            widx.append(i)
            tidx.append(j)
            dists.append(dist)
            ok = 0
            if dist <= reach[i]:
                depart = wstart[i]
                if tstart[j] > depart:
                    depart = tstart[j]
                if now > depart:
                    depart = now
                if depart <= tdeadline[j] and depart <= wdeadline[i]:
                    if dist == 0.0:
                        ok = 1
                    elif (
                        velocity[i] > 0.0
                        and depart + dist / velocity[i] <= tdeadline[j]
                    ):
                        ok = 1
            mask.append(ok)
    return widx, tidx, dists, bytes(mask)


#: Per-pair verdict codes produced by the reason kernels.  ``0`` means the
#: pair is feasible; the rejection codes index :data:`REASON_NAMES` and
#: follow the scalar short-circuit precedence of
#: :func:`repro.core.constraints.pair_rejection_reason` exactly:
#: skill before reach before deadline.
REASON_FEASIBLE = 0
REASON_SKILL = 1
REASON_REACH = 2
REASON_DEADLINE = 3

#: Reason-code -> journal reason string (position 0 is the feasible verdict).
REASON_NAMES = ("", "skill", "reach", "deadline")


def rejection_reasons(
    batch: ColumnarBatch,
    widx: Sequence[int],
    tidx: Sequence[int],
    now: float,
    code: str,
    backend: Optional[str] = None,
) -> bytes:
    """Per-pair verdict codes over a flattened tile of (worker, task) positions.

    The reason-coded twin of :func:`feasible_pairs`: entry ``k`` is
    :data:`REASON_FEASIBLE` exactly when ``feasible_pairs`` would set
    ``mask[k]``, and otherwise names the first failing constraint under the
    scalar precedence (skill -> reach -> deadline).  Runs only when the
    event journal is enabled, and is observational-only: it does **not**
    touch the kernel counters, so engine_stats stay bit-identical with
    events on or off.
    """
    count = len(widx)
    if count != len(tidx):
        raise ValueError(f"widx/tidx length mismatch: {count} vs {len(tidx)}")
    if count == 0:
        return b""
    if resolve_backend(backend) == "numpy":
        return _rejection_reasons_numpy(batch, widx, tidx, now, code)
    return _rejection_reasons_fallback(batch, widx, tidx, now, code)


def _rejection_reasons_numpy(
    batch: ColumnarBatch,
    widx: Sequence[int],
    tidx: Sequence[int],
    now: float,
    code: str,
) -> bytes:
    np = _np
    wi = np.asarray(widx, dtype=np.intp)
    ti = np.asarray(tidx, dtype=np.intp)
    words = batch.n_skill_words
    wskills = np.frombuffer(batch.wskills, dtype=np.uint64).reshape(
        batch.n_workers, words
    )
    tword = np.frombuffer(batch.tskill_word, dtype=np.int64)
    tbit = np.frombuffer(batch.tskill_bitmask, dtype=np.uint64)
    skill = (wskills[wi, tword[ti]] & tbit[ti]) != 0

    wx = np.frombuffer(batch.wx, dtype=np.float64)[wi]
    wy = np.frombuffer(batch.wy, dtype=np.float64)[wi]
    tx = np.frombuffer(batch.tx, dtype=np.float64)[ti]
    ty = np.frombuffer(batch.ty, dtype=np.float64)[ti]
    dx = wx - tx
    dy = wy - ty
    if code == "manhattan":
        dist = np.abs(dx) + np.abs(dy)
    else:
        dist = np.fromiter(
            map(math.hypot, dx.tolist(), dy.tolist()),
            dtype=np.float64,
            count=len(widx),
        )

    wstart = np.frombuffer(batch.wstart, dtype=np.float64)[wi]
    wdeadline = np.frombuffer(batch.wdeadline, dtype=np.float64)[wi]
    velocity = np.frombuffer(batch.wvelocity, dtype=np.float64)[wi]
    reach = np.frombuffer(batch.wmax_distance, dtype=np.float64)[wi]
    tstart = np.frombuffer(batch.tstart, dtype=np.float64)[ti]
    tdeadline = np.frombuffer(batch.tdeadline, dtype=np.float64)[ti]

    depart = np.maximum(wstart, tstart)
    if now != -math.inf:
        depart = np.maximum(depart, now)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        arrival_ok = depart + dist / velocity <= tdeadline
    time_ok = (
        (depart <= tdeadline) & (depart <= wdeadline) & ((dist == 0.0) | arrival_ok)
    )
    reach_ok = dist <= reach

    codes = np.zeros(len(widx), dtype=np.uint8)
    codes[~skill] = REASON_SKILL
    codes[skill & ~reach_ok] = REASON_REACH
    codes[skill & reach_ok & ~time_ok] = REASON_DEADLINE
    return codes.tobytes()


def _rejection_reasons_fallback(
    batch: ColumnarBatch,
    widx: Sequence[int],
    tidx: Sequence[int],
    now: float,
    code: str,
) -> bytes:
    wx, wy = batch.wx, batch.wy
    wstart, wdeadline = batch.wstart, batch.wdeadline
    velocity, reach = batch.wvelocity, batch.wmax_distance
    wskills, words = batch.wskills, batch.n_skill_words
    tx, ty = batch.tx, batch.ty
    tstart, tdeadline = batch.tstart, batch.tdeadline
    tword, tbit = batch.tskill_word, batch.tskill_bitmask
    hypot = math.hypot
    manhattan = code == "manhattan"

    count = len(widx)
    codes = bytearray(count)
    for k in range(count):
        i = widx[k]
        j = tidx[k]
        if not (wskills[i * words + tword[j]] & tbit[j]):
            codes[k] = REASON_SKILL
            continue
        if manhattan:
            dist = abs(wx[i] - tx[j]) + abs(wy[i] - ty[j])
        else:
            dist = hypot(wx[i] - tx[j], wy[i] - ty[j])
        if dist > reach[i]:
            codes[k] = REASON_REACH
            continue
        depart = wstart[i]
        if tstart[j] > depart:
            depart = tstart[j]
        if now > depart:
            depart = now
        if depart > tdeadline[j] or depart > wdeadline[i]:
            codes[k] = REASON_DEADLINE
        elif dist == 0.0:
            pass
        elif velocity[i] <= 0.0 or depart + dist / velocity[i] > tdeadline[j]:
            codes[k] = REASON_DEADLINE
    return bytes(codes)


def rejection_reasons_dense(
    batch: ColumnarBatch,
    now: float,
    code: str,
    backend: Optional[str] = None,
) -> bytes:
    """Verdict codes over the full worker x task cross product.

    Row-major (worker-then-task) order, matching :func:`feasible_dense`:
    ``codes[i * n_tasks + j]`` is :data:`REASON_FEASIBLE` exactly when
    ``(i, j)`` appears in the dense feasible-pair list.
    """
    n_w, n_t = batch.n_workers, batch.n_tasks
    if n_w == 0 or n_t == 0:
        return b""
    widx = [i for i in range(n_w) for _ in range(n_t)]
    tidx = list(range(n_t)) * n_w
    return rejection_reasons(batch, widx, tidx, now, code, backend=backend)


def true_positions(mask: bytes, backend: Optional[str] = None) -> List[int]:
    """Indices of the set entries of a kernel mask.

    Vectorised under numpy (``nonzero`` over a zero-copy view), a list
    comprehension otherwise — callers building rows from a tile mask touch
    only the surviving pairs either way.
    """
    if resolve_backend(backend) == "numpy":
        return _np.frombuffer(mask, dtype=_np.uint8).nonzero()[0].tolist()
    return [k for k, bit in enumerate(mask) if bit]


def feasible_dense(
    batch: ColumnarBatch,
    now: float,
    code: str,
    backend: Optional[str] = None,
) -> List[Tuple[int, int]]:
    """Feasible ``(worker_pos, task_pos)`` pairs over the full cross product.

    The numpy backend broadcasts the whole ``n_workers x n_tasks``
    rectangle without materialising index columns and extracts only the
    surviving pairs; the fallback delegates to the flat kernel.  Pairs are
    returned in row-major (worker-then-task) order.
    """
    n_w, n_t = batch.n_workers, batch.n_tasks
    if n_w == 0 or n_t == 0:
        _KERNEL_CALLS.inc()
        return []
    if resolve_backend(backend) == "numpy":
        _KERNEL_CALLS.inc()
        _KERNEL_PAIRS.inc(n_w * n_t)
        np = _np
        words = batch.n_skill_words
        wskills = np.frombuffer(batch.wskills, dtype=np.uint64).reshape(n_w, words)
        tword = np.frombuffer(batch.tskill_word, dtype=np.int64)
        tbit = np.frombuffer(batch.tskill_bitmask, dtype=np.uint64)
        skill = (wskills[:, tword] & tbit[None, :]) != 0

        wx = np.frombuffer(batch.wx, dtype=np.float64)[:, None]
        wy = np.frombuffer(batch.wy, dtype=np.float64)[:, None]
        tx = np.frombuffer(batch.tx, dtype=np.float64)[None, :]
        ty = np.frombuffer(batch.ty, dtype=np.float64)[None, :]
        dx = (wx - tx).ravel()
        dy = (wy - ty).ravel()
        if code == "manhattan":
            dist = (np.abs(dx) + np.abs(dy)).reshape(n_w, n_t)
        else:
            dist = np.fromiter(
                map(math.hypot, dx.tolist(), dy.tolist()),
                dtype=np.float64,
                count=n_w * n_t,
            ).reshape(n_w, n_t)

        wstart = np.frombuffer(batch.wstart, dtype=np.float64)[:, None]
        wdeadline = np.frombuffer(batch.wdeadline, dtype=np.float64)[:, None]
        velocity = np.frombuffer(batch.wvelocity, dtype=np.float64)[:, None]
        reach = np.frombuffer(batch.wmax_distance, dtype=np.float64)[:, None]
        tstart = np.frombuffer(batch.tstart, dtype=np.float64)[None, :]
        tdeadline = np.frombuffer(batch.tdeadline, dtype=np.float64)[None, :]

        depart = np.maximum(wstart, tstart)
        if now != -math.inf:
            depart = np.maximum(depart, now)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            arrival_ok = depart + dist / velocity <= tdeadline
        mask = (
            skill
            & (dist <= reach)
            & (depart <= tdeadline)
            & (depart <= wdeadline)
            & ((dist == 0.0) | arrival_ok)
        )
        rows, cols = np.nonzero(mask)
        return list(zip(rows.tolist(), cols.tolist()))
    widx = [i for i in range(n_w) for _ in range(n_t)]
    tidx = list(range(n_t)) * n_w
    mask, _, _ = feasible_pairs(batch, widx, tidx, now, code, backend="fallback")
    return [
        (widx[k], tidx[k]) for k in range(len(mask)) if mask[k]
    ]
