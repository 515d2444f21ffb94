"""GPU grouping: constrained k-means + random-swap perturbation.

Algorithm 2 steps 1 and 3: partition the admissible GPUs into ``P_pipe``
groups of exactly ``P_tens`` members, clustering by pairwise
interconnection latency (the offline ``D_(i,j)`` matrix), then improve
with random swaps between groups, keeping a swap iff it lowers the
objective. The paper reports convergence within five perturbation rounds.

The constrained k-means is the size-constrained variant of Lloyd's
algorithm on the latency metric: seeds are chosen farthest-first
(k-means++ style on a metric, vectorised), then members are assigned
greedily by seed distance under the exact-size constraint.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.obs.profile import NULL_PROFILER
from repro.util.rng import make_rng


def farthest_first_seeds(
    dist: np.ndarray, k: int, rng: np.random.Generator
) -> list[int]:
    """Pick ``k`` mutually distant seed indices from a distance matrix."""
    n = dist.shape[0]
    if k > n:
        raise ValueError(f"cannot seed {k} groups from {n} points")
    first = int(rng.integers(n))
    seeds = [first]
    min_d = dist[first].copy()
    for _ in range(k - 1):
        nxt = int(np.argmax(min_d))
        seeds.append(nxt)
        np.minimum(min_d, dist[nxt], out=min_d)
    return seeds


def constrained_kmeans_groups(
    dist: np.ndarray,
    n_groups: int,
    group_size: int,
    rng: np.random.Generator | None = None,
) -> list[list[int]]:
    """Partition ``n_groups * group_size`` points into equal-size groups.

    Greedy balanced assignment: process (point, seed) pairs by ascending
    distance, filling each group to exactly ``group_size``. This is the
    assignment step of k-means-constrained; one round suffices because
    the subsequent swap perturbation polishes the result.
    """
    n = dist.shape[0]
    need = n_groups * group_size
    if need > n:
        raise ValueError(
            f"need {need} points for {n_groups}x{group_size}, have {n}"
        )
    rng = rng or make_rng()
    seeds = farthest_first_seeds(dist, n_groups, rng)
    # Distance of every point to every seed: (n, k).
    d2seed = dist[:, seeds]
    order = np.argsort(d2seed, axis=None, kind="stable")
    # Decode every (point, group) pair up front — one vectorised divmod
    # instead of a Python divmod per visited pair.
    points, gs = np.divmod(order, n_groups)
    groups: list[list[int]] = [[] for _ in range(n_groups)]
    assigned = np.zeros(n, dtype=bool)
    placed = 0
    for point, g in zip(points.tolist(), gs.tolist()):
        if assigned[point] or len(groups[g]) >= group_size:
            continue
        groups[g].append(point)
        assigned[point] = True
        placed += 1
        if placed == need:
            break
    if placed < need:  # pragma: no cover - defensive
        raise RuntimeError("balanced assignment failed to place all points")
    return groups


def group_cohesion_cost(dist: np.ndarray, group: Sequence[int]) -> float:
    """Worst intra-group pairwise latency (gates the group's collective)."""
    if len(group) < 2:
        return 0.0
    idx = np.asarray(group, dtype=np.int64)
    return float(dist[np.ix_(idx, idx)].max())


def _memoized(
    cost_fn: Callable[[Sequence[int]], float], memoize: bool
) -> Callable[[Sequence[int]], float]:
    """Wrap ``cost_fn`` with an exact-order tuple-keyed memo.

    The perturbation loop re-prices the same group composition many
    times: rejected swaps restore the previous membership, and later
    swaps frequently revisit compositions seen rounds ago. Keys preserve
    member order (group evaluation is order-sensitive for HYBRID/INA —
    see :mod:`repro.core.estcache`), so a memo hit returns the exact
    float the evaluation would have recomputed and cannot change any
    accept/reject decision.
    """
    if not memoize:
        return cost_fn
    memo: dict[tuple[int, ...], float] = {}

    def eval_cost(g: Sequence[int]) -> float:
        key = tuple(g)
        v = memo.get(key)
        if v is None:
            v = cost_fn(g)
            memo[key] = v
        return v

    return eval_cost


def swap_perturbation(
    groups: list[list[int]],
    cost_fn: Callable[[Sequence[int]], float],
    rng: np.random.Generator | None = None,
    max_rounds: int = 5,
    swaps_per_round: int | None = None,
    memoize: bool = False,
    spare: Sequence[int] = (),
) -> tuple[list[list[int]], float, int]:
    """Algorithm 2 lines 12-22: random swaps kept iff the cost drops.

    ``cost_fn`` scores a single group (lower is better); the objective is
    the sum over groups. Each round tries random cross-group member swaps
    and keeps improving ones; rounds stop early when no swap helped
    (``improvement = false``), matching the paper's loop structure.
    Only the two swapped groups are ever re-evaluated; with ``memoize``
    previously-seen compositions are not re-evaluated at all (the rng
    draw sequence and accept/reject decisions are unchanged, so the
    result is identical to the unmemoized run). A non-empty ``spare``
    pool joins as a zero-cost last group, so swaps can trade a member
    for idle hardware; it is never scored and not returned.

    Returns (groups, final_cost, rounds_used).
    """
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    rng = rng or make_rng()
    eval_cost = _memoized(cost_fn, memoize)
    groups = [list(g) for g in groups]
    costs = [eval_cost(g) for g in groups]
    n_real = len(groups)
    if spare:
        groups.append(list(spare))
        costs.append(0.0)
    n_groups = len(groups)
    if n_groups < 2:
        return groups[:n_real], sum(costs), 0
    if swaps_per_round is None:
        swaps_per_round = 4 * sum(len(g) for g in groups)
    rounds = 0
    for _ in range(max_rounds):
        improvement = False
        for _ in range(swaps_per_round):
            ga, gb = rng.choice(n_groups, size=2, replace=False)
            if not groups[ga] or not groups[gb]:
                continue
            ia = int(rng.integers(len(groups[ga])))
            ib = int(rng.integers(len(groups[gb])))
            a, b = groups[ga][ia], groups[gb][ib]
            groups[ga][ia], groups[gb][ib] = b, a
            new_a = 0.0 if ga == n_real else eval_cost(groups[ga])
            new_b = 0.0 if gb == n_real else eval_cost(groups[gb])
            if new_a + new_b < costs[ga] + costs[gb] - 1e-15:
                costs[ga], costs[gb] = new_a, new_b
                improvement = True
            else:
                groups[ga][ia], groups[gb][ib] = a, b
        rounds += 1
        if not improvement:
            break
    return groups[:n_real], float(sum(costs[:n_real])), rounds


def group_gpus(
    latency_matrix: np.ndarray,
    gpu_ids: Sequence[int],
    n_groups: int,
    group_size: int,
    cost_fn: Callable[[Sequence[int]], float] | None = None,
    rng: np.random.Generator | None = None,
    perturb: bool = True,
    max_rounds: int = 5,
    profiler=None,
    memoize: bool = False,
) -> list[list[int]]:
    """Full Algorithm 2 grouping: k-means-constrained + perturbation.

    ``latency_matrix`` is indexed by *position* in ``gpu_ids`` (the
    planner passes ``CommContext.gpu_distance_matrix``). ``cost_fn``
    scores a group given GPU *node ids*; the default is the worst
    intra-group latency. Returns groups of GPU node ids.

    ``profiler`` (a :class:`repro.obs.profile.PhaseProfiler`) splits the
    wall time into the k-means and perturbation phases for the planner
    breakdown. ``memoize`` enables the perturbation's per-composition
    cost memo (identical output, fewer ``cost_fn`` calls).
    """
    profiler = profiler or NULL_PROFILER
    gpu_ids = list(gpu_ids)
    dist = np.asarray(latency_matrix, dtype=np.float64)
    if dist.shape != (len(gpu_ids), len(gpu_ids)):
        raise ValueError("latency matrix shape must match gpu_ids")
    rng = rng or make_rng()
    with profiler.phase("grouping.kmeans"):
        idx_groups = constrained_kmeans_groups(
            dist, n_groups, group_size, rng
        )

    if cost_fn is None:
        def pos_cost(g: Sequence[int]) -> float:
            return group_cohesion_cost(dist, g)
    else:
        def pos_cost(g: Sequence[int]) -> float:
            return cost_fn([gpu_ids[i] for i in g])

    # Unassigned GPUs join as a zero-cost spare group so the perturbation
    # can swap idle hardware into real groups (Algorithm 2's random swaps
    # draw from the whole admissible cluster, not only placed GPUs).
    used = {i for g in idx_groups for i in g}
    spare = [i for i in range(len(gpu_ids)) if i not in used]

    if perturb:
        with profiler.phase("grouping.perturb"):
            idx_groups, _, _ = swap_perturbation(
                idx_groups, pos_cost, rng, max_rounds=max_rounds,
                memoize=memoize, spare=spare,
            )
    return [[gpu_ids[i] for i in g] for g in idx_groups]
