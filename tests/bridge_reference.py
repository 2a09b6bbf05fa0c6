"""The affine bridge of a one-shot pair in plain Fraction arithmetic: the
reference for the integer segment, the class check, the profiles built on A
and the bridge the CNE derives.

With B := -M, a strictly competitive pair has A == ratio * B + shift
(direction "doctor") or B == ratio * A + shift (direction "hospital") with
0 < ratio <= 1, or is constant.  The rescaled side is read on the other
side's matrix, the zero-sum image, whose values span [z_min, z_max].  The
``ref_*`` functions answer the frontier questions and build the profiles on
that image, with the doctor's payoff f, or -g in the direction "doctor", as
the image value.
"""

from fractions import Fraction as F

from matchgames import qcqp, stability
from matchgames.core import _scaled_matrix


def reference_bridge(a, m):
    """(ratio, shift, direction) of the ratio-<=-1 bridge, or the
    (message, entry) of the error that the class check raises."""
    b = tuple(tuple(-v for v in row) for row in m)
    cells = [(i, j) for i in range(len(a)) for j in range(len(a[0]))]
    a_min, a_max = min(map(min, a)), max(map(max, a))
    b_min, b_max = min(map(min, b)), max(map(max, b))
    a_range, b_range = a_max - a_min, b_max - b_min
    if a_range == 0 and b_range == 0:
        return F(1), a[0][0] + m[0][0], "doctor"
    if a_range == 0 or b_range == 0:
        i, j = next((i, j) for i, j in cells if a[i][j] != a[0][0] or b[i][j] != b[0][0])
        return "one matrix is constant and the other is not", (i, j, a[i][j], b[i][j])
    if a_range <= b_range:
        ratio = a_range / b_range
        shift, left, right, direction = a_min - b_min * ratio, a, b, "doctor"
    else:
        ratio = b_range / a_range
        shift, left, right, direction = b_min - a_min * ratio, b, a, "hospital"
    for i, j in cells:
        expected = ratio * right[i][j] + shift
        if left[i][j] != expected:
            return (f"no affine variant: entry ({i},{j}) is {left[i][j]}, expected {expected}",
                    (i, j, left[i][j], expected))
    return ratio, shift, direction


class Bridge:
    """A bridge (ratio, shift, direction, image) with its image interval and
    the conversions between payoffs and image values."""

    def __init__(self, ratio, shift, direction, image):
        self.ratio, self.shift, self.direction, self.image = ratio, shift, direction, image
        values = [v for row in image for v in row]
        self.z_min, self.z_max = min(values), max(values)

    def image_doctor_value(self, f):
        return (f - self.shift) / self.ratio if self.direction == "doctor" else f

    def original_doctor_value(self, z):
        return self.ratio * z + self.shift if self.direction == "doctor" else z

    def image_hospital_value(self, g):
        return g if self.direction == "doctor" else (g + self.shift) / self.ratio

    def original_hospital_value(self, ih):
        return ih if self.direction == "doctor" else self.ratio * ih - self.shift

    def point(self, z):
        """(f, g, z): the payoffs at image value z, and z."""
        return self.original_doctor_value(z), self.original_hospital_value(-z), z


def bridge(game):
    """The Bridge of a valid one-shot game, from its matrices alone."""
    a, m = game.doctor_matrix, game.hospital_matrix
    ratio, shift, direction = reference_bridge(a, m)
    image = tuple(tuple(-v for v in row) for row in m) if direction == "doctor" else a
    return Bridge(ratio, shift, direction, image)


def ref_max_f(br, theta, strict):
    c = -br.image_hospital_value(theta)
    if c < br.z_min or (strict and c == br.z_min):
        return None
    return br.point(min(c, br.z_max))


def ref_max_g(br, beta, strict):
    b = br.image_doctor_value(beta)
    if b > br.z_max or (strict and b == br.z_max):
        return None
    return br.point(max(b, br.z_min))


def ref_exact(br, f, g):
    z = br.image_doctor_value(f)
    if br.z_min <= z <= br.z_max and br.original_hospital_value(-z) == g:
        return f, g, z
    return None


def _image_block_point(br, f_floor, g_floor):
    """An image value paying both sides above their floors, or None."""
    if f_floor >= br.point(br.z_max)[0] or g_floor >= br.point(br.z_min)[1]:
        return None
    z_lo, z_hi = br.image_doctor_value(f_floor), -br.image_hospital_value(g_floor)
    return stability._open_interval_point(z_lo, z_hi, br.z_min, br.z_max)


def ref_pays_above(br, f_floor, g_floor):
    return _image_block_point(br, f_floor, g_floor) is not None


def ref_pair_block_profile(game, f_floor, g_floor):
    """``stability._pair_block_profile`` of a one-shot game, on the image."""
    br = bridge(game)
    point = _image_block_point(br, f_floor, g_floor)
    if point is None:
        return None
    x, y, _ = qcqp.achieve_value_zero_sum(_scaled_matrix(br.image), point)
    return x, y, None, stability.EXACT_INTERVAL


def ref_value_grid(game, mesh):
    """``stability._value_grid``: an even grid over the image interval."""
    br = bridge(game)
    lo, hi = br.z_min, br.z_max
    values = [lo + (hi - lo) * F(k, mesh) for k in range(mesh + 1)] if hi > lo else [lo]
    return [br.point(z)[:2] for z in values]
