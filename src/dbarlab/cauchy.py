"""Solid Cauchy transform on the grid: a discrete right inverse of d/dzbar.

f(z) = (1/pi) * sum over masked nodes zeta of g(zeta) / (z - zeta) * h^2,
with the singular node zeta = z contributing zero: the kernel 1/w is odd
under w -> -w, so its principal-value integral over the centered square cell
vanishes, and dropping the cell is second-order consistent.

Two independent evaluation paths are kept alive deliberately.  The direct
path is the literal O(N^4) double sum.  The fast path observes that the sum
is a discrete convolution with the kernel sampled on signed node offsets and
evaluates it by zero-padded FFT (circular length m >= 2N-1 per axis, so no
wrap-around reaches the output window).  The input is real in the solver, so
the fast path convolves it with Re k and Im k separately through real FFTs,
and it transforms only the N rows and columns that carry data (a pruned FFT,
see http://www.fftw.org/pruned.html).  Both paths must agree to 1e-10
relative; tests and the acceptance suite enforce that.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft

from .grid import ComplexField

AGREEMENT_RTOL = 1e-10


class CauchyTransform:
    """Pruned real-FFT evaluator bound to one (grid, mask) pair.

    Set-up caches the half spectra of Re k and Im k, halved along y, so the
    length-m passes along x run over contiguous rows.  An apply to real
    values does one rfft down the N data columns, one fft along the m/2+1
    half-spectrum rows, and then, per kernel part, one ifft along those rows
    cropped to N columns and one irfft down the N columns cropped to N rows.
    Complex values go through the same path as T(Re u) + i T(Im u).
    """

    def __init__(self, spec, mask: np.ndarray):
        self.spec = spec
        self.mask = np.asarray(mask, dtype=bool)
        n = spec.resolution
        h = spec.spacing
        m = sfft.next_fast_len(2 * n - 1)
        idx = np.arange(m)
        # wrapped signed offsets; slots that no data pair can reach stay zero
        off = np.where(idx <= n - 1, idx, idx - m)
        live = np.abs(off) <= n - 1
        ox = (off * h)[np.newaxis, :]
        oy = (off * h)[:, np.newaxis]
        d = ox + 1j * oy
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.where(d == 0, 0.0 + 0.0j, 1.0 / d)
        k = np.where(live[:, np.newaxis] & live[np.newaxis, :], k, 0.0 + 0.0j)
        self._m = m
        self._scale = h * h / np.pi
        # (2, m//2+1, m): rfft over y, then fft over x, of [Re k, Im k]
        self._kernel_rfft = np.stack([sfft.rfft2(part, axes=(1, 0)) for part in (k.real, k.imag)])

    def _convolve_real(self, u: np.ndarray) -> np.ndarray:
        n, m = self.spec.resolution, self._m
        spectrum = sfft.fft(sfft.rfft(u, n=m, axis=0), n=m, axis=1)
        back = sfft.ifft(spectrum * self._kernel_rfft, axis=2, overwrite_x=True)[:, :, :n]
        conv = sfft.irfft(back, n=m, axis=1)[:, :n, :]
        out = np.empty((n, n), dtype=np.complex128)
        out.real = conv[0]
        out.imag = conv[1]
        return out

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        u = np.where(self.mask, values, 0) * self._scale
        if np.iscomplexobj(u):
            return self._convolve_real(u.real) + 1j * self._convolve_real(u.imag)
        return self._convolve_real(u)

    def apply(self, g: ComplexField) -> ComplexField:
        return ComplexField(g.spec, self.apply_values(g.values), g.margin, g.mask)


def _direct_values(spec, mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    n = spec.resolution
    zz = spec.nodes()
    w = np.where(mask, values, 0) * (spec.spacing ** 2 / np.pi)
    wf = w.ravel()
    zf = zz.ravel()
    out = np.empty(n * n, dtype=np.complex128)
    chunk = max(1, (1 << 22) // (n * n))  # keep the difference table around 64 MB
    for lo in range(0, n * n, chunk):
        hi = min(lo + chunk, n * n)
        d = zf[lo:hi, np.newaxis] - zf[np.newaxis, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = wf[np.newaxis, :] / d
        t[d == 0] = 0.0
        out[lo:hi] = t.sum(axis=1)
    return out.reshape(n, n)


def cauchy_transform(g: ComplexField, method: str = "fft") -> ComplexField:
    """Apply the transform along the requested path ("fft" or "direct").

    The result keeps g's grid, margin, and mask; its values are defined at
    every node (the kernel sum is finite everywhere) and satisfy
    wirtinger_dzbar(result) ~ g on the mask interior to first order.
    """
    vals = np.asarray(g.values)
    if method == "fft":
        return CauchyTransform(g.spec, g.mask).apply(g)
    if method == "direct":
        out = _direct_values(g.spec, g.mask, vals)
        return ComplexField(g.spec, out, g.margin, g.mask)
    raise ValueError(f"unknown method {method!r}; expected 'fft' or 'direct'")

