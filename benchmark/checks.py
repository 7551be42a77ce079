"""Reference results and output checks for the benchmark.

Every reference here is computed by the benchmark from the planted edges
it generated, with numpy alone; nothing compares against a stored copy of
an earlier output, and nothing calls staggrid.

Bounds.  The center-to-edge matrix A = (I + shift) / 2 has condition
number kappa_inf = M for odd M, and about M / pi on the complement of the
checkerboard for even M.  A solve that loses no more than the conditioning
allows is therefore off by a small multiple of M * eps, relative to the
largest edge of its line; ``SOLVE_FACTOR`` is that multiple.  Averaging
edges to centers is well conditioned, so its bound is a few eps.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)

#: Allowed relative error of a center-to-edge solve, in units of M * eps.
SOLVE_FACTOR = 16.0
#: Allowed relative error of an edge-to-center average, in units of eps.
AVERAGE_FACTOR = 4.0
#: Relative tolerance the program applies to the even-N consistency test.
PROGRAM_TOLERANCE = 1e-10


class CheckError(AssertionError):
    """An output the program returned is wrong."""


class KnownFault(Exception):
    """An operation failed because of a fault the benchmark names."""


def checkerboard(m: int, ndim: int = 1, axis: int = 0) -> np.ndarray:
    """(+1, -1, +1, ...) of length m, shaped to broadcast along ``axis``."""
    n = np.ones(m)
    n[1::2] = -1.0
    shape = [1] * ndim
    shape[axis] = m
    return n.reshape(shape)


def centers_of(edges: np.ndarray, axis: int = 0) -> np.ndarray:
    """c_i = (e_i + e_{i+1}) / 2 along ``axis``, with periodic wrap."""
    return (edges + np.roll(edges, -1, axis=axis)) / 2


def min_norm_of(edges: np.ndarray, axis: int = 0) -> np.ndarray:
    """Planted edges minus their projection on the checkerboard (even M)."""
    m = edges.shape[axis]
    n = checkerboard(m, edges.ndim, axis)
    return edges - (np.sum(edges * n, axis=axis, keepdims=True) / m) * n


def pinned_of(edges: np.ndarray, pin_index: int, pin_value: float,
              axis: int = 0) -> np.ndarray:
    """The family member through the planted edges with e_pin = pin_value."""
    m = edges.shape[axis]
    n = checkerboard(m, edges.ndim, axis)
    k = pin_index - 1
    at_pin = np.take(edges, [k], axis=axis)
    return edges + ((pin_value - at_pin) / n.flat[k]) * n


def rel_err(out: np.ndarray, ref: np.ndarray, axis: int = 0) -> float:
    """Worst over lines of max|out - ref| / max|ref| along ``axis``."""
    if out.shape != ref.shape:
        raise CheckError(f"shape {out.shape} differs from reference {ref.shape}")
    num = np.max(np.abs(out - ref), axis=axis)
    den = np.max(np.abs(ref), axis=axis)
    return float(np.max(num / den))


def solve_bound(m: int) -> float:
    return SOLVE_FACTOR * m * EPS


def check_close(out: np.ndarray, ref: np.ndarray, bound: float, what: str,
                axis: int = 0) -> float:
    err = rel_err(out, ref, axis)
    if not err <= bound:
        raise CheckError(f"{what}: relative error {err:.3g} exceeds {bound:.3g}")
    return err


def check_odd(out: np.ndarray, planted: np.ndarray, axis: int = 0) -> float:
    """Odd N: the unique solution is the planted edge field."""
    return check_close(out, planted, solve_bound(planted.shape[axis]),
                       "odd-N edges vs planted edges", axis)


def check_min_norm(out: np.ndarray, planted: np.ndarray, axis: int = 0) -> float:
    """Even N, min-norm: the closed form, and orthogonal to the checkerboard."""
    m = planted.shape[axis]
    bound = solve_bound(m)
    err = check_close(out, min_norm_of(planted, axis), bound,
                      "min-norm edges vs closed form", axis)
    n = checkerboard(m, out.ndim, axis)
    cosine = np.abs(np.sum(out * n, axis=axis)) / (
        np.sqrt(np.sum(out * out, axis=axis)) * math.sqrt(m))
    worst = float(np.max(cosine))
    if not worst <= bound:
        raise CheckError(f"min-norm edges not orthogonal to the checkerboard: "
                         f"cosine {worst:.3g} exceeds {bound:.3g}")
    return err


def check_pinned(out: np.ndarray, planted: np.ndarray, pin_index: int,
                 pin_value: float, axis: int = 0) -> float:
    """Even N, pinned: e_pin equals pin_value, and the member is the closed form.

    e_pin comes out of one subtraction and one addition, so it may sit one
    rounding away from pin_value; the check allows that and no more.
    """
    m = planted.shape[axis]
    err = check_close(out, pinned_of(planted, pin_index, pin_value, axis),
                      solve_bound(m), "pinned edges vs closed form", axis)
    at_pin = np.take(out, pin_index - 1, axis=axis)
    scale = np.maximum(np.max(np.abs(out), axis=axis), abs(pin_value))
    miss = float(np.max(np.abs(at_pin - pin_value) / scale))
    if not miss <= 2 * EPS:
        raise CheckError(f"pinned edge e_{pin_index} misses pin value {pin_value!r} "
                         f"by {miss:.3g} relative")
    return err


def check_centers(out: np.ndarray, planted: np.ndarray, axis: int = 0) -> float:
    """Edge-to-center: the round trip to the centers made from the planted edges."""
    return check_close(out, centers_of(planted, axis), AVERAGE_FACTOR * EPS,
                       "centers vs centers of planted edges", axis)


def read_field_text(path) -> tuple[np.ndarray, int | None]:
    """Parse a staggrid field file without staggrid: (values, staggered axis)."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 5 or lines[0] != "staggrid-field 1":
        raise CheckError(f"{path}: not a staggrid field file")
    shape = tuple(int(t) for t in lines[2].split()[1:])
    axis_token = lines[3].split()[1]
    count = int(lines[4].split()[1])
    values = np.array(lines[5:], dtype=np.float64)
    if values.size != count or count != math.prod(shape):
        raise CheckError(f"{path}: {values.size} values for count {count}, shape {shape}")
    return values.reshape(shape), (None if axis_token == "none" else int(axis_token))


def explain_inconsistent(centers: np.ndarray, reported_residual: float) -> str:
    """Name the fault behind an Inconsistent outcome on consistent-by-construction data.

    The centers are averages of planted edges, so their true alternating sum
    is only the rounding of that averaging.  ``math.fsum`` computes it
    correctly rounded; if it passes the program's own test, the program's
    residual was wrong and the failure is the known fault in
    ``grid.alternating_residual`` (a BLAS dot product, ``signs @ vals``).
    """
    m = centers.shape[0]
    signs = np.where((m - 1 - np.arange(m)) % 2 == 0, 1.0, -1.0)
    true_residual = 2.0 * math.fsum((signs * centers).tolist())
    threshold = PROGRAM_TOLERANCE * max(1.0, float(np.max(np.abs(centers))))
    if abs(true_residual) > threshold:
        raise CheckError(f"centers are inconsistent by construction "
                         f"(|2S| / threshold = {abs(true_residual) / threshold:.3g})")
    return (f"grid.alternating_residual: |2S|/threshold = "
            f"{abs(reported_residual) / threshold:.3g} from signs @ vals, "
            f"{abs(true_residual) / threshold:.2g} by math.fsum")
