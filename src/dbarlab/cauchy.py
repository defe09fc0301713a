"""Solid Cauchy transform on the grid: a discrete right inverse of d/dzbar.

f(z) = (1/pi) * sum over masked nodes zeta of g(zeta) / (z - zeta) * h^2,
with the singular node zeta = z contributing zero: the kernel 1/w is odd
under w -> -w, so its principal-value integral over the centered square cell
vanishes, and dropping the cell is second-order consistent.

Two independent evaluation paths are kept alive deliberately.  The direct
path, cauchy_transform_direct, is the literal O(N^4) double sum.  The fast
path, CauchyTransform, observes that the sum is a discrete convolution with
the kernel sampled on signed node offsets and evaluates it by zero-padded
FFT.  The output window is the whole N x N grid but the data sit on the
mask, so the kernel needs only the offsets from a masked row or column to
the far edge of the window; with R the largest such offset, a circular
length m >= 2R+1 per axis keeps wrap-around out of the window.  R = N-1 when
the mask touches the edge of the grid, and R = N-3 for the solver's discs
with a two-cell margin.  The solver's right side is real, so the fast path
runs real FFTs and transforms only the N rows and columns that carry data
(a pruned FFT, see http://www.fftw.org/pruned.html).  The
kernel enters as two spectra, K+ and K-, of Re k + i Im k and
Re k - i Im k, with h^2/pi and the 1/m^2 of both inverse passes folded in.
Only one half of one of them is cached, built from the real kernel arrays
in column strips: Re k is odd in x and even in y and Im k the reverse, so
both have purely imaginary spectra and K- = -conj K+, and the rows
m/2+1..m-1 of the full spectrum are conjugates of rows 1..m-m/2-1.  An
instance keeps that half and a product buffer; each apply allocates its
m x N packed column spectrum, and the zero-padded real input borrows that
memory, which is idle until the last pass.  The forward rfft writes into
the top rows of the product buffer and its fft runs in place; products with
K+ and, a block of rows at a time, with K- and inverse FFTs along the rows
then give the column spectrum of conv(Re k) + i conv(Im k) as copies and
conjugates, and one complex inverse FFT down the columns yields both real
convolutions at once, whose first N rows are the result.  Both paths must
agree to 1e-10 relative; tests and the acceptance suite enforce that.

The FFTs are numpy.fft's (pocketfft, as in scipy.fft); no module of the
package imports scipy, so numpy is its only runtime dependency.
"""

from __future__ import annotations

import numpy as np

from .grid import ComplexField, mask_window

AGREEMENT_RTOL = 1e-10
# bytes one block of the lower spectrum rows may take in the product buffer
BLOCK_BYTES = 1 << 19


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


def _kernel_half(m: int, reach: int, h: float, scratch: np.ndarray) -> np.ndarray:
    """K+ on the half spectrum rows 0..m/2, as a new (m/2+1) x m array.

    With S the rfft down y and then the fft along x of a real m x m array,
    K+ = S(Re k) + i S(Im k), scaled by h^2/(pi m^2).  k = 1/(x + iy) is
    sampled on the wrapped offsets with |offset| <= reach and zero
    elsewhere, through the real arrays x/(x^2+y^2) and -y/(x^2+y^2).  Each
    column's rfft down y depends on that column alone, so the real arrays
    are formed and transformed in column strips, and K+ does not depend on
    the strip width; the y half spectrum of Re k goes through the first
    m/2+1 rows of scratch.
    """
    top = m // 2 + 1
    idx = np.arange(m)
    # wrapped signed offsets; slots that no data pair can reach stay zero
    off = np.where(idx <= reach, idx, idx - m)
    live = np.abs(off) <= reach
    oy = (off * h)[:, np.newaxis]
    plus = np.empty((top, m), dtype=np.complex128)
    re_k = scratch[:top]
    # columns per strip: its two real arrays, r2 and part, take at most BLOCK_BYTES
    width = max(1, BLOCK_BYTES // (2 * m * np.dtype(np.float64).itemsize))
    for lo in range(0, m, width):
        cols = slice(lo, min(lo + width, m))
        ox = (off[cols] * h)[np.newaxis, :]
        r2 = ox * ox + oy * oy
        nonzero = (r2 != 0) & live[:, np.newaxis] & live[np.newaxis, cols]
        part = np.zeros(r2.shape)
        np.divide(-oy, r2, out=part, where=nonzero)
        np.fft.rfft(part, axis=0, out=plus[:, cols])
        np.divide(ox, r2, out=part, where=nonzero)
        np.fft.rfft(part, axis=0, out=re_k[:, cols])
        # the next strip's arrays must not stack on these
        del r2, nonzero, part
    plus *= 1j
    # S is linear, so the y half spectra combine before the fft along x
    plus += re_k
    np.fft.fft(plus, axis=1, out=plus)
    plus *= h * h / (np.pi * m * m)
    return plus


class CauchyTransform:
    """Pruned real-FFT evaluator bound to one (grid, mask) pair.

    The padded length is m = _next_fast_len(2R+1), where the reach R is the
    largest distance, in nodes, from the mask's first or last row or column
    to the opposite edge of the grid; kernel offsets beyond R stay zero.

    Set-up caches one kernel half, K+ on the spectrum rows 0..m/2 from
    _kernel_half, with 1/m^2 folded in so that both inverse passes run
    unnormalised.  The other half needs no storage: on the wrapped offsets
    Re k is odd in x and even in y, and Im k is even in x and odd in y, so
    both spectra are purely imaginary and K- = -conj K+.  _kernel_half forms
    the real kernel arrays in column strips whose two arrays take at most
    BLOCK_BYTES, so the build's temporaries are one strip's, and K+ is the
    same for every strip width.  Set-up also binds a product buffer of
    m/2+1+B rows of length m.  The lower rows 1..m-m/2-1 go B at a time,
    where B is their number or fewer if that many would take more than
    BLOCK_BYTES.  When one block holds them all, which is so up to N = 129
    on the solver's discs, set-up forms that K- slice once and keeps it, and
    an apply runs the products of the full spectrum.  Otherwise set-up
    negates the cached half, so that each apply conjugates each block's K-
    slice straight into the buffer's tail, and negates the top rows once
    they are inverted; numpy forms a plain conjugate far faster than a
    negated one.  At N = 257 (m = 512, four blocks of up to 64 rows) an
    instance keeps about 4.8 MB: K+ and the product buffer.

    The product buffer is idle between applies, and scratch is an N x N
    real view of it that a caller may fill and pass as an apply's input:
    the apply copies its input onto the mask before its first FFT writes
    into the buffer.  Every apply overwrites scratch.

    An apply takes real values.  It allocates the m x N packed column
    spectrum, zeroes an m x N real view of its memory, copies the values
    onto the mask in it, does one rfft down the N data columns into the
    first N columns of the product buffer's top m/2+1 rows, zeroes the rest
    of those rows and runs one fft along them in place, which gives the
    spectrum U.  With A and B the y half spectra of conv(Re k) and
    conv(Im k), the inverse along x of U times K+ is A + iB on rows 0..m/2,
    and that of U times K- is A - iB on rows 1..m-m/2-1, whose conjugates,
    rows reversed, are rows m/2+1..m-1 of the full spectrum of
    conv(Re k) + i conv(Im k).  The lower rows go B at a time through the
    buffer's tail: multiply the rows of U by the K- slice, inverse along x,
    and conjugate into the packed spectrum over the spent input.  The last
    block waits in the tail until the top rows are multiplied by the kernel,
    and one in-place ifft along x runs over both.  The packed spectrum then
    takes the top rows as one copy and the last block as one conjugate, and
    one complex ifft down the columns inverts it.  The result is its first
    N rows, returned without a copy: a view that keeps the m x N spectrum
    alive while the caller holds it, and that no later apply touches.  The
    buffers make an instance unsafe to share across threads.
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
        top = m // 2 + 1
        lower = m - top
        block = max(1, min(lower, BLOCK_BYTES // (m * np.dtype(np.complex128).itemsize)))
        self._m = m
        # the kernel build borrows the product buffer; the rest comes after
        self._products = np.empty((top + block, m), dtype=np.complex128)
        self._kernel = _kernel_half(m, reach, spec.spacing, self._products)
        # spectrum rows lo..hi-1 of the lower half, B at a time
        self._blocks = [(lo, min(lo + block, lower + 1)) for lo in range(1, lower + 1, block)]
        if block == lower:
            # K- is formed once, and an apply runs the full-spectrum products
            self._minus = -np.conjugate(self._kernel[1 : lower + 1])
        else:
            # a K- slice is then one conjugate, and the top rows' copy undoes the sign
            self._minus = None
            np.negative(self._kernel, out=self._kernel)
        # the product buffer is idle between applies; it holds m/2+1 >= N/2
        # rows of m >= N complex values, room for N x N reals
        self.scratch = self._products.view(np.float64).reshape(-1)[: n * n].reshape(n, n)

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """The transform of real values on the mask; complex ones raise numpy's TypeError."""
        n, m = self.spec.resolution, self._m
        top = m // 2 + 1
        prod, kernel = self._products, self._kernel
        packed = np.empty((m, n), dtype=np.complex128)
        # the packed spectrum is written only after the rfft has read its
        # input, so its memory holds the zero-padded input until then; an
        # N x N input with rfft(n=m) doing the padding is 5-7% slower.  The
        # values are copied before the first write to the product buffer,
        # so they may be read from scratch
        pad = packed.view(np.float64)[:, :n]
        pad.fill(0.0)
        np.copyto(pad[:n], values, where=self.mask)
        up, tail = prod[:top], prod[top:]
        np.fft.rfft(pad, axis=0, out=up[:, :n])
        up[:, n:] = 0.0
        np.fft.fft(up, axis=1, out=up)
        # row k of the top holds A_k + iB_k, row m-k of the spectrum needs
        # conj(A_k) + i conj(B_k) = conj(A_k - iB_k), the tail's row k-lo
        for lo, hi in self._blocks:
            rows = tail[: hi - lo]
            if self._minus is None:
                np.conjugate(kernel[lo:hi], out=rows)
                # U first, as in the one-block product: numpy's complex
                # product is not bitwise commutative, and in this order
                # the block layout does not change the result
                np.multiply(up[lo:hi], rows, out=rows)
            else:
                np.multiply(up[lo:hi], self._minus, out=rows)
            if hi <= m - top:
                np.fft.ifft(rows, axis=1, norm="forward", out=rows)
                np.conjugate(rows[::-1, :n], out=packed[m - hi + 1 : m - lo + 1])
        up *= kernel
        last = prod[: top + len(rows)]
        np.fft.ifft(last, axis=1, norm="forward", out=last)
        if self._minus is None:
            # numpy's complex negative is several times slower than this product
            np.multiply(up[:, :n], -1.0, out=packed[:top])
        else:
            packed[:top] = up[:, :n]
        np.conjugate(rows[::-1, :n], out=packed[top : top + len(rows)])
        np.fft.ifft(packed, axis=0, norm="forward", out=packed)
        return packed[:n]


def cauchy_transform_direct(g) -> ComplexField:
    """The transform of a complex or real field g by the literal O(N^4) double sum.

    The reference the FFT path is checked against; same grid, margin and
    mask as g.
    """
    spec = g.spec
    n = spec.resolution
    zf = spec.nodes().ravel()
    wf = (np.where(g.mask, g.values, 0) * (spec.spacing ** 2 / np.pi)).ravel()
    out = np.empty(n * n, dtype=np.complex128)
    chunk = max(1, (1 << 22) // (n * n))  # keep the difference table around 64 MB
    for lo in range(0, n * n, chunk):
        hi = min(lo + chunk, n * n)
        d = zf[lo:hi, np.newaxis] - zf[np.newaxis, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = wf[np.newaxis, :] / d
        t[d == 0] = 0.0
        out[lo:hi] = t.sum(axis=1)
    return ComplexField(spec, out.reshape(n, n), g.margin, g.mask)
