"""The line-by-line count of a ``families.CountPlan``: the literal reference for its plane sweep.

It reads only the plan's rows, bounds and box.  The box's two rows along the
last coordinate m_l are appended, and the rows are split by the sign of their
entry a_l.  A line along m_l is one interval: rows rising along it (and the box)
bound it above, falling ones below, and a flat one keeps or drops it.  The
slacks b - a . m step along the other coordinates, one scan line per call.
"""

import operator


def line_count(plan, k: int) -> int:
    """The points m of ``plan.box(k)`` with a . m <= b on every row, one line of m_l at a time."""
    box = plan.box(k)
    last = len(box) - 1
    unit = (0,) * last + (1,)
    rows = [*plan.rows, unit, tuple(-x for x in unit)]
    bounds = [min(u + k * v for u, v in b) for b in plan.bounds] + [box[-1].stop - 1, -box[-1].start]
    sides = (operator.gt, operator.lt, operator.eq)  # rising, falling, flat along m_l
    groups = [[i for i, a in enumerate(rows) if side(a[last], 0)] for side in sides]
    slopes = [[abs(rows[i][last]) for i in g] for g in groups[:2]]
    steps = [[[rows[i][j] for i in g] for g in groups] for j in range(last)]

    def scan(j: int, slack: list[list[int]]) -> int:  # slack: rising, falling, flat
        if j == last:  # the line is [-min(falling // slope), min(rising // slope)]
            if min(slack[2], default=0) < 0:
                return 0
            return max(0, sum(min(map(operator.floordiv, s, t)) for s, t in zip(slack, slopes)) + 1)
        total = 0
        slack = [[x - a * box[j].start for x, a in zip(s, step)] for s, step in zip(slack, steps[j])]
        for _ in box[j]:
            total += scan(j + 1, slack)
            slack = [list(map(operator.sub, s, step)) for s, step in zip(slack, steps[j])]
        return total

    return scan(0, [[bounds[i] for i in g] for g in groups])
