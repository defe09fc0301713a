"""Solid Cauchy transform on the grid: a discrete right inverse of d/dzbar.

f(z) = (1/pi) * sum over masked nodes zeta of g(zeta) / (z - zeta) * h^2,
with the singular node zeta = z contributing zero: the kernel 1/w is odd
under w -> -w, so its principal-value integral over the centered square cell
vanishes, and dropping the cell is second-order consistent.

Two independent evaluation paths are kept alive deliberately.  The direct
path is the literal O(N^4) double sum.  The fast path observes that the sum
is a discrete convolution with the kernel sampled on signed node offsets and
evaluates it by zero-padded FFT.  The output window is the whole N x N grid
but the data sit on the mask, so the kernel needs only the offsets from a
masked row or column to the far edge of the window; with R the largest such
offset, a circular length m >= 2R+1 per axis keeps wrap-around out of the
window.  R = N-1 when the mask touches the edge of the grid, and R = N-3 for
the solver's discs with a two-cell margin.  The input is real in the solver, so
the fast path convolves it with Re k and Im k separately through real FFTs,
and it transforms only the N rows and columns that carry data (a pruned FFT,
see http://www.fftw.org/pruned.html).  Both convolutions are real, so one
complex inverse FFT of their packed spectra gives conv(Re k) + i conv(Im k)
at once.  Both paths must agree to 1e-10 relative; tests and the acceptance
suite enforce that.

The FFTs are numpy.fft's (pocketfft, as in scipy.fft), so importing this
module loads no scipy; of the package, only certify.sqrt_branch uses scipy,
and it imports scipy.ndimage when called.
"""

from __future__ import annotations

import numpy as np

from .grid import ComplexField

AGREEMENT_RTOL = 1e-10


def _next_fast_len(target: int) -> int:
    """The smallest 11-smooth integer >= target: a length pocketfft splits into small radices."""
    n = target
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


class CauchyTransform:
    """Pruned real-FFT evaluator bound to one (grid, mask) pair.

    The padded length is m = _next_fast_len(2R+1), where the reach R is the
    largest distance, in nodes, from the mask's first or last row or column
    to the opposite edge of the grid; kernel offsets beyond R stay zero.
    Set-up caches the half spectra of Re k and Im k, halved along y and
    scaled by h^2/pi, so the length-m passes along x run over contiguous
    rows.  It also binds the buffers an apply works in: an m x N real input
    whose unmasked nodes and rows past N stay zero, the two kernel products,
    and an m x N packed column spectrum.  An apply to real values copies
    them onto the mask, does one rfft down the N data columns, one fft along
    the m/2+1 half-spectrum rows and, in place, one ifft along those rows
    per kernel part.  Both products are y half spectra of real convolutions,
    with Re k and with Im k, so their first N columns pack, with the rows
    above m/2 taken from the mirrored conjugates, into the full spectrum of
    conv(Re k) + i conv(Im k); one complex ifft down the columns inverts it.
    Complex values go through the same path as T(Re u) + i T(Im u).  The
    buffers make an instance unsafe to share across threads; every apply
    returns a fresh array.
    """

    def __init__(self, spec, mask: np.ndarray):
        self.spec = spec
        self.mask = np.asarray(mask, dtype=bool)
        n = spec.resolution
        h = spec.spacing
        rows = np.flatnonzero(self.mask.any(axis=1))
        cols = np.flatnonzero(self.mask.any(axis=0))
        # data rows r0..r1 reach output rows 0..n-1 through offsets in
        # [-r1, n-1-r0], likewise for columns; an empty mask carries no data
        # and keeps the full-square padding
        if rows.size:
            reach = int(max(rows[-1], n - 1 - rows[0], cols[-1], n - 1 - cols[0]))
        else:
            reach = n - 1
        m = _next_fast_len(2 * reach + 1)
        idx = np.arange(m)
        # wrapped signed offsets; slots that no data pair can reach stay zero
        off = np.where(idx <= reach, idx, idx - m)
        live = np.abs(off) <= reach
        ox = (off * h)[np.newaxis, :]
        oy = (off * h)[:, np.newaxis]
        d = ox + 1j * oy
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.where(d == 0, 0.0 + 0.0j, 1.0 / d)
        k = np.where(live[:, np.newaxis] & live[np.newaxis, :], k, 0.0 + 0.0j)
        self._m = m
        # (2, m//2+1, m): rfft over y, then fft over x, of h^2/pi [Re k, Im k]
        self._kernel_rfft = np.stack([np.fft.rfft2(part, axes=(1, 0)) for part in (k.real, k.imag)])
        self._kernel_rfft *= h * h / np.pi
        self._pad = np.zeros((m, n))
        self._products = np.empty((2, m // 2 + 1, m), dtype=np.complex128)
        self._packed = np.empty((m, n), dtype=np.complex128)

    def _convolve_real(self, values: np.ndarray) -> np.ndarray:
        n, m = self.spec.resolution, self._m
        pad, prod, packed = self._pad, self._products, self._packed
        np.copyto(pad[:n], values, where=self.mask)
        np.fft.fft(np.fft.rfft(pad, axis=0), n=m, axis=1, out=prod[0])
        np.multiply(prod[0], self._kernel_rfft[1], out=prod[1])
        prod[0] *= self._kernel_rfft[0]
        np.fft.ifft(prod, axis=2, out=prod)
        # rows 0..m/2 hold A + iB; row m-k holds conj(A_k) + i conj(B_k)
        a, b = prod[0, :, :n], prod[1, :, :n]
        top, bottom = packed[: m // 2 + 1], packed[m // 2 + 1 :]
        np.subtract(a.real, b.imag, out=top.real)
        np.add(a.imag, b.real, out=top.imag)
        a, b = a[len(bottom) : 0 : -1], b[len(bottom) : 0 : -1]
        np.add(a.real, b.imag, out=bottom.real)
        np.subtract(b.real, a.imag, out=bottom.imag)
        np.fft.ifft(packed, axis=0, out=packed)
        return packed[:n].copy()

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(values):
            return self._convolve_real(values.real) + 1j * self._convolve_real(values.imag)
        return self._convolve_real(values)

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

