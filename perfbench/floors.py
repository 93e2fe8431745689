"""Hand-written NumPy floors for the benchmark's apps under the four border patterns.

A floor is the plain-NumPy kernel a user would write for the same work: one
``np.pad`` of the input, then every tap of the window accumulated in place
into buffers allocated once per (app, pattern, shape).

The masks are written out here rather than imported from ``repro.filters``.
That keeps the floor an oracle independent of the code it checks: a change to
a mask in the program shows up as a failed output check.
"""

from __future__ import annotations

import numpy as np

#: Border pattern -> ``np.pad`` mode.
PAD_MODES = {
    "clamp": "edge",
    "mirror": "symmetric",
    "repeat": "wrap",
    "constant": "constant",
}

#: The constant pattern's border value: a Request's default ``constant``.
CONSTANT = 0.0

#: Output check: every pixel must satisfy |out - floor| <= ATOL + RTOL*|floor|.
#: The floor accumulates in another order than the program, so float32
#: results agree to a few ulps per tap, not bit for bit.
RTOL = 1e-4
ATOL = 1e-4

_F32 = np.float32


def _taps(mask, dilation: int = 1) -> list[tuple[int, int, np.float32]]:
    """Nonzero (dy, dx, coefficient) taps of a square mask, row-major."""
    mask = np.asarray(mask, dtype=np.float64)
    r = mask.shape[0] // 2
    return [
        (dilation * (i - r), dilation * (j - r), _F32(mask[i, j]))
        for i in range(mask.shape[0])
        for j in range(mask.shape[1])
        if mask[i, j] != 0.0
    ]


_BINOMIAL = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]) / 16.0
_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)

GAUSSIAN_TAPS = _taps(_BINOMIAL)
SOBEL_X_TAPS = _taps(_SOBEL_X)
SOBEL_Y_TAPS = _taps(_SOBEL_X.T)
#: 5x5 Laplacian: 24 at the centre, -1 elsewhere. The centre tap goes first
#: so the other 24 taps are plain in-place subtractions.
LAPLACE_TAPS = [(0, 0, _F32(24.0))] + [
    (dy, dx, _F32(-1.0))
    for dy in range(-2, 3) for dx in range(-2, 3) if (dy, dx) != (0, 0)
]
NIGHT_DILATIONS = (1, 2, 4, 8)
NIGHT_WHITE = 1.0

APPS = ("gaussian", "laplace", "sobel", "night")


class Floor:
    """The floor of one app and pattern on ``(..., H, W)`` inputs of one shape.

    Calling it returns its output buffer, which the next call overwrites.
    """

    def __init__(self, app: str, pattern: str, shape: tuple[int, ...]):
        if app not in APPS:
            raise ValueError(f"no floor for app {app!r}")
        self.app = app
        self.mode = PAD_MODES[pattern]
        self.shape = tuple(shape)
        self.out = np.empty(self.shape, _F32)
        self._tmp = [np.empty(self.shape, _F32) for _ in range(2)]
        if app == "sobel":
            self._dy = np.empty(self.shape, _F32)

    def __call__(self, image: np.ndarray) -> np.ndarray:
        return getattr(self, "_" + self.app)(image)

    # ------------------------------------------------------------ helpers

    def _pad(self, image: np.ndarray, r: int) -> np.ndarray:
        widths = [(0, 0)] * (image.ndim - 2) + [(r, r), (r, r)]
        if self.mode == "constant":
            return np.pad(image, widths, mode="constant",
                          constant_values=CONSTANT)
        return np.pad(image, widths, mode=self.mode)

    def _accumulate(self, padded, r, taps, out) -> None:
        """out = sum of coeff * shifted input, in place."""
        h, w = self.shape[-2:]
        t = self._tmp[0]
        for i, (dy, dx, c) in enumerate(taps):
            src = padded[..., r + dy: r + dy + h, r + dx: r + dx + w]
            if i == 0:
                np.multiply(src, c, out=out)
            elif c == 1.0:
                np.add(out, src, out=out)
            elif c == -1.0:
                np.subtract(out, src, out=out)
            else:
                np.multiply(src, c, out=t)
                np.add(out, t, out=out)

    # --------------------------------------------------------------- apps

    def _gaussian(self, image):
        self._accumulate(self._pad(image, 1), 1, GAUSSIAN_TAPS, self.out)
        return self.out

    def _laplace(self, image):
        self._accumulate(self._pad(image, 2), 2, LAPLACE_TAPS, self.out)
        return self.out

    def _sobel(self, image):
        padded = self._pad(image, 1)
        out, dy = self.out, self._dy
        self._accumulate(padded, 1, SOBEL_X_TAPS, out)
        self._accumulate(padded, 1, SOBEL_Y_TAPS, dy)
        np.multiply(out, out, out=out)
        np.multiply(dy, dy, out=dy)
        np.add(out, dy, out=out)
        np.sqrt(out, out=out)
        return out

    def _night(self, image):
        out = self.out
        current = image
        for d in NIGHT_DILATIONS:
            # np.pad copies, so each stage may overwrite its own input.
            self._accumulate(self._pad(current, d), d, _taps(_BINOMIAL, d), out)
            current = out
        t, u = self._tmp
        # out * (1 + out / white^2) / (1 + out)
        np.multiply(out, _F32(1.0 / (NIGHT_WHITE * NIGHT_WHITE)), out=t)
        np.add(t, _F32(1.0), out=t)
        np.multiply(t, out, out=t)
        np.add(out, _F32(1.0), out=u)
        np.divide(t, u, out=out)
        return out


def within_tolerance(output: np.ndarray, floor: np.ndarray) -> bool:
    """Whether ``output`` matches the floor's output within RTOL/ATOL."""
    output = np.asarray(output)
    if output.shape != floor.shape:
        return False
    return bool(np.all(np.abs(output - floor) <= ATOL + RTOL * np.abs(floor)))
