"""2-D convex hull (Andrew's monotone chain).

Used to order polygon vertices, to compute areas, and by the tuple
constructor :meth:`GeneralizedTuple.from_vertices_2d`.
"""

from __future__ import annotations

from typing import Sequence

Vec2 = tuple[float, float]

#: Collinearity cut of :func:`convex_hull_2d`: a turn whose cross product
#: is at most ``HULL_EPS · scale²`` pops the middle point.
HULL_EPS = 1e-12


def _cross(o: Vec2, a: Vec2, b: Vec2) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points: Sequence[Vec2], eps: float = HULL_EPS) -> list[Vec2]:
    """Counter-clockwise convex hull of a 2-D point set.

    Collinear boundary points are dropped. Degenerate inputs return what
    is left after deduplication: a single point or the two endpoints of a
    segment.
    """
    unique = sorted(set((float(x), float(y)) for x, y in points))
    if len(unique) <= 2:
        return unique
    scale = max(
        1.0,
        max(abs(x) for x, _ in unique),
        max(abs(y) for _, y in unique),
    )
    tol = eps * scale * scale

    lower: list[Vec2] = []
    for p in unique:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= tol:
            lower.pop()
        lower.append(p)
    upper: list[Vec2] = []
    for p in reversed(unique):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= tol:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all points collinear
        return [unique[0], unique[-1]]
    return hull


def polygon_area(hull: Sequence[Vec2]) -> float:
    """Shoelace area of a counter-clockwise simple polygon."""
    if len(hull) < 3:
        return 0.0
    twice = 0.0
    n = len(hull)
    for i in range(n):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % n]
        twice += x1 * y2 - x2 * y1
    return abs(twice) / 2.0


def clip_polygon_to_box(
    polygon: Sequence[Vec2],
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
) -> list[Vec2]:
    """Sutherland–Hodgman clip of a convex polygon against a box.

    Returns the clipped vertex ring (possibly empty). O(v) per box edge;
    used by the R+-tree piece refiner, where clipped pieces must be
    bounding boxes of actual object geometry.
    """
    def clip_edge(points, inside, intersect):
        result: list[Vec2] = []
        n = len(points)
        for i in range(n):
            current = points[i]
            previous = points[i - 1]
            cur_in = inside(current)
            prev_in = inside(previous)
            if cur_in:
                if not prev_in:
                    result.append(intersect(previous, current))
                result.append(current)
            elif prev_in:
                result.append(intersect(previous, current))
        return result

    def x_cross(p, q, x):
        t = (x - p[0]) / (q[0] - p[0])
        return (x, p[1] + t * (q[1] - p[1]))

    def y_cross(p, q, y):
        t = (y - p[1]) / (q[1] - p[1])
        return (p[0] + t * (q[0] - p[0]), y)

    pts = list(polygon)
    for inside, intersect in (
        (lambda p: p[0] >= xmin, lambda p, q: x_cross(p, q, xmin)),
        (lambda p: p[0] <= xmax, lambda p, q: x_cross(p, q, xmax)),
        (lambda p: p[1] >= ymin, lambda p, q: y_cross(p, q, ymin)),
        (lambda p: p[1] <= ymax, lambda p, q: y_cross(p, q, ymax)),
    ):
        if not pts:
            return []
        pts = clip_edge(pts, inside, intersect)
    return pts


def polygon_centroid(hull: Sequence[Vec2]) -> Vec2:
    """Centroid of a counter-clockwise simple polygon.

    Falls back to the vertex mean for degenerate (zero-area) inputs.
    """
    if len(hull) == 0:
        raise ValueError("centroid of an empty polygon")
    if len(hull) < 3:
        xs = sum(p[0] for p in hull) / len(hull)
        ys = sum(p[1] for p in hull) / len(hull)
        return (xs, ys)
    a2 = 0.0
    cx = 0.0
    cy = 0.0
    n = len(hull)
    for i in range(n):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % n]
        w = x1 * y2 - x2 * y1
        a2 += w
        cx += (x1 + x2) * w
        cy += (y1 + y2) * w
    if abs(a2) < 1e-14:
        xs = sum(p[0] for p in hull) / len(hull)
        ys = sum(p[1] for p in hull) / len(hull)
        return (xs, ys)
    return (cx / (3.0 * a2), cy / (3.0 * a2))
