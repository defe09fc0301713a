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
the solver's discs with a two-cell margin.  The input is real in the solver,
so the fast path runs real FFTs and transforms only the N rows and columns
that carry data (a pruned FFT, see http://www.fftw.org/pruned.html).  The
kernel is cached as two spectra, K+ and K-, of Re k + i Im k and
Re k - i Im k, with h^2/pi and the 1/m^2 of both inverse passes folded in.
The zero-padded real input borrows the memory of the packed column
spectrum, which is idle until the last pass.  The forward rfft writes into
a zero-padded product buffer and its fft runs in place; one product with
each of K+ and K- and one inverse FFT along the rows then give the column
spectrum of conv(Re k) + i conv(Im k) as a copy and a conjugate, and one
complex inverse FFT down the columns yields both real convolutions at
once.  Both paths must agree to 1e-10 relative; tests and the acceptance
suite enforce that.

The FFTs are numpy.fft's (pocketfft, as in scipy.fft); no module of the
package imports scipy, so numpy is its only runtime dependency.
"""

from __future__ import annotations

import numpy as np

from .grid import ComplexField, mask_window

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


def _kernel_spectra(m: int, reach: int, h: float) -> np.ndarray:
    """K+ on rows 0..m/2 and K- on rows m/2+1..m-1 of one m x m array.

    With S the rfft down y and then the fft along x of a real m x m array,
    K+ = S(Re k) + i S(Im k) and K- = S(Re k) - i S(Im k), scaled by
    h^2/(pi m^2); K- keeps only its rows 1..m-m/2-1.  k = 1/(x + iy) is
    sampled on the wrapped offsets with |offset| <= reach and zero
    elsewhere, through the real arrays x/(x^2+y^2) and -y/(x^2+y^2).
    """
    top = m // 2 + 1
    idx = np.arange(m)
    # wrapped signed offsets; slots that no data pair can reach stay zero
    off = np.where(idx <= reach, idx, idx - m)
    live = np.abs(off) <= reach
    ox = (off * h)[np.newaxis, :]
    oy = (off * h)[:, np.newaxis]
    r2 = ox * ox + oy * oy
    nonzero = (r2 != 0) & live[:, np.newaxis] & live[np.newaxis, :]
    kernel = np.empty((m, m), dtype=np.complex128)
    plus, minus = kernel[:top], kernel[top:]
    part = np.zeros((m, m))
    np.divide(-oy, r2, out=part, where=nonzero)
    np.fft.rfft(part, axis=0, out=plus)
    plus *= 1j
    np.divide(ox, r2, out=part, where=nonzero)
    # S is linear, so the y half spectra combine before the fft along x
    re_k = np.fft.rfft(part, axis=0)
    np.subtract(re_k[1 : m - top + 1], plus[1 : m - top + 1], out=minus)
    plus += re_k
    np.fft.fft(kernel, axis=1, out=kernel)
    kernel *= h * h / (np.pi * m * m)
    return kernel


class CauchyTransform:
    """Pruned real-FFT evaluator bound to one (grid, mask) pair.

    The padded length is m = _next_fast_len(2R+1), where the reach R is the
    largest distance, in nodes, from the mask's first or last row or column
    to the opposite edge of the grid; kernel offsets beyond R stay zero.
    Set-up caches the kernel spectra K+ and K- of _kernel_spectra, with
    1/m^2 folded in so that both inverse passes run unnormalised, and binds
    the two buffers an apply works in: an m x m product buffer and an m x N
    packed column spectrum.

    An apply to real values zeroes an m x N real view of the packed
    spectrum's memory, copies the values onto the mask in it, does one rfft
    down the N data columns into the first N columns of the product
    buffer's top m/2+1 rows, zeroes the rest of those rows and runs one fft
    along them in place.  That spectrum U times K+ stays on top, its rows
    1..m-m/2-1 times K- fill the bottom, and one in-place ifft along x runs
    over all m rows.  With A and B the y half spectra of conv(Re k) and
    conv(Im k), the top now holds A + iB and the bottom A - iB, whose
    conjugates, rows reversed, are rows m/2+1..m-1 of the full spectrum of
    conv(Re k) + i conv(Im k).  The packed spectrum is therefore one copy
    and one conjugate, written over the spent input, and one complex ifft
    down the columns inverts it.  Complex values go through
    the same path as T(Re u) + i T(Im u).  The buffers make an instance
    unsafe to share across threads; every apply returns a fresh N x N array
    and keeps no reference to it.
    """

    def __init__(self, spec, mask: np.ndarray):
        self.spec = spec
        self.mask = np.asarray(mask, dtype=bool)
        n = spec.resolution
        rows, cols = mask_window(self.mask, 0)
        # data rows r0..r1 reach output rows 0..n-1 through offsets in
        # [-r1, n-1-r0], likewise for columns; an empty mask has the empty
        # window 0:0, carries no data and keeps the full-square padding
        reach = max(rows.stop - 1, n - 1 - rows.start, cols.stop - 1, n - 1 - cols.start)
        m = _next_fast_len(2 * reach + 1)
        self._m = m
        self._kernel = _kernel_spectra(m, reach, spec.spacing)
        self._products = np.empty((m, m), dtype=np.complex128)
        self._packed = np.empty((m, n), dtype=np.complex128)

    def _convolve_real(self, values: np.ndarray) -> np.ndarray:
        n, m = self.spec.resolution, self._m
        top = m // 2 + 1
        prod, packed, kernel = self._products, self._packed, self._kernel
        # the packed spectrum is written only after the rfft has read its
        # input, so its memory holds the zero-padded input until then; an
        # N x N input with rfft(n=m) doing the padding is 5-7% slower
        pad = packed.view(np.float64)[:, :n]
        pad.fill(0.0)
        np.copyto(pad[:n], values, where=self.mask)
        up, down = prod[:top], prod[top:]
        np.fft.rfft(pad, axis=0, out=up[:, :n])
        up[:, n:] = 0.0
        np.fft.fft(up, axis=1, out=up)
        np.multiply(up[1 : m - top + 1], kernel[top:], out=down)
        up *= kernel[:top]
        np.fft.ifft(prod, axis=1, norm="forward", out=prod)
        # row k of the top holds A_k + iB_k, row m-k of the spectrum needs
        # conj(A_k) + i conj(B_k) = conj(A_k - iB_k), the bottom's row k-1
        packed[:top] = up[:, :n]
        np.conjugate(down[::-1, :n], out=packed[top:])
        np.fft.ifft(packed, axis=0, norm="forward", out=packed)
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

