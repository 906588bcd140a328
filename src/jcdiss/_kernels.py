"""Fixed-step RK4 integration of a Lindblad generator, on its sectors.

Integration runs in the frame rotating at the cavity frequency
(generated by omega * N with N the total excitation operator). Every
jump operator used here shifts the excitation number by exactly +/-1, so
the rotating-frame generator is again Lindblad with H replaced by
H - omega N and the jumps unchanged; the transform is exact, not an
approximation. It removes the fast optical phases, which is what makes
tight step-size targets affordable at large photon number.

On the column-stacked vec(rho) the frame change only adds the diagonal
i omega (N_r - N_c) to the superoperator, with N_r and N_c the
excitation numbers of the row and column index of each entry, and the
generator conserves k = N_r - N_c. RK4 steps the dense sectors k >= 0
of propagate.spectral_decomposition, the blocks that the spectral route
of the phenomenological generator exponentiates, from the state at
t = 0. An RK4Source hands out their values as the spectral route's
steppers do, and SpectralDecomposition.propagate_vec turns them into
lab-frame states: it applies the frame phases and fills sector -k with
the conjugates of the transposed entries of sector k.

With G one sector, one RK4 step of size h is exactly the step matrix
P(h) = I + hG (I + hG/2 (I + hG/3 (I + hG/4))), the degree-4 Taylor
polynomial of exp(hG) that the four stages compute, and n steps are
exactly P(h)^n. The source keeps one _Gap per distinct (h, n) of its
run. It builds P(h), and P(h)^n by binary powering, one dense matrix
per sector, and keeps them and the state paired into one stack of
equal square blocks (_Packing), so that a step is one batched product,
not one small product per sector: at n_max = 8, ten products a step
took longer than the sparse step matrix they replace, on their calls
alone. Sector k of 1 .. n_max has 4 (n_max + 1 - k) rows, so the
largest sector left and the smallest fill about 4 n_max + 4 rows
together, and the pairs hold about 1.5 times the entries of the
sectors.

A gap steps with P, or applies P(h)^n as one product. A dense power is
the same size as its step, so only the cost decides when to build it,
from n and the sector sizes: a gap whose steps cost more than its power
builds the power on its first call, and any other gap on its second,
so a short gap met once builds nothing.
"""

import numpy as np

# most gaps cached per run: a linspace grid from t = 0 needs one, a
# grid whose every gap differs (logspace) would keep one per time
_MAX_GAPS = 64


def packed_entries(n_max):
    """Entries of the stack of _Packing at n_max, exact in Python ints
    whatever the size of n_max: sector 0 has 4 n_max + 2 rows, sector k
    of 1 .. n_max has 4 (n_max + 1 - k) and sector n_max + 1 one, so the
    pairs make ceil((n_max + 2) / 2) blocks of side 4 n_max + 4 (7 at
    n_max = 1, where sectors 0 and 2 make the largest pair)."""
    side = 4 * n_max + 4 if n_max > 1 else 7
    return -(-(n_max + 2) // 2) * side * side


class _Packing:
    """Sectors of the given sizes paired into one stack of equal square
    blocks: the largest sector left with the smallest, the two on the
    diagonal of their block, zeros around them and in the padding.

    spans holds the (block, start, stop) of each sector, in the given
    order, and rows the flat row of the stack of each value of the
    sectors, concatenated in that order."""

    def __init__(self, sizes):
        self.sizes = sizes
        order = np.argsort(sizes, kind="stable")
        pairs = [order[[-1 - i, i]] for i in range(len(order) // 2)]
        if len(order) % 2:
            pairs.append(order[[len(order) // 2]])
        self.shape = (len(pairs), max(sum(sizes[j] for j in pair) for pair in pairs))
        self.spans = [None] * len(sizes)
        for row, pair in enumerate(pairs):
            start = 0
            for j in pair:
                self.spans[j] = (row, start, start + sizes[j])
                start += sizes[j]
        side = self.shape[1]
        self.rows = np.concatenate(
            [np.arange(start, stop) + row * side for row, start, stop in self.spans]
        )

    def stack(self, matrices):
        """The matrices of the sectors, in the given order, packed."""
        out = np.zeros(self.shape + self.shape[1:], dtype=complex)
        for (row, start, stop), matrix in zip(self.spans, matrices):
            out[row, start:stop, start:stop] = matrix
        return out

    def unstack(self, stack):
        """The matrices of the sectors in a stack, as views of it."""
        return [stack[row, start:stop, start:stop] for row, start, stop in self.spans]


def _step_polynomial(generator, dt):
    """I + hG (I + hG/2 (I + hG/3 (I + hG/4))) with h = dt, one dense
    matrix per sector of the generator."""
    steps = []
    for _, _, block in generator.blocks:
        hg = dt * block
        eye = np.eye(block.shape[0], dtype=complex)
        p = eye + hg / 4.0
        for order in (3.0, 2.0, 1.0):
            p = eye + (hg @ p) / order
        steps.append(p)
    return steps


def _powering(step, n):
    """step^n for n >= 1 by binary powering: the product of the squares
    step^(2^j) over the set bits j of n."""
    power = None
    while True:
        if n & 1:
            power = step if power is None else power @ step
        n >>= 1
        if not n:
            return power
        step = step @ step


class _Gap:
    """n_steps RK4 steps of one size h, taken as repeat products with
    matrix, the packed step matrices of the sectors: P(h) n_steps times,
    or P(h)^n_steps once.

    A step costs one product of the stack with a vector, the stack's
    size, and the power bit_length(n) + popcount(n) - 2 products per
    sector, each of size^3, on the sectors' blocks of the stack. When
    the steps of one call cost at least as much as the power, the gap
    builds it on its first call; otherwise it steps on its first call
    and builds the power on its second, so a gap that recurs, as the one
    gap of a uniform grid does hundreds of times, is one product from
    then on, and a gap met once builds nothing.
    """

    def __init__(self, packing, step, n_steps):
        self.packing = packing
        self.matrix = step
        self.repeat = n_steps
        self.calls = 0
        products = n_steps.bit_length() + bin(n_steps).count("1") - 2
        cubes = products * sum(size**3 for size in packing.sizes)
        self.power_call = 1 if n_steps * step.size >= cubes else 2

    def advance(self, v):
        self.calls += 1
        if self.repeat > 1 and self.calls == self.power_call:
            blocks = self.packing.unstack(self.matrix)
            self.matrix = self.packing.stack([_powering(b, self.repeat) for b in blocks])
            self.repeat = 1
        for _ in range(self.repeat):
            v = self.matrix @ v
        return v


class RK4Source:
    """The values of the sectors k >= 0 of a SpectralDecomposition at
    consecutive output times, handed out in order by take(count), as
    propagate._Stepper hands out those of one sector: the columns of a
    new array, the sectors' values concatenated in the decomposition's
    order, for its propagate_vec.

    The state starts from v0 = vec(rho) at t = 0 and stays packed
    (_Packing) to the end of the run. schedule holds the (h, n) of each
    output time (propagate._rk4_gaps): n steps of size h reach it from
    the time before, by one rk4_advance call. The source owns its
    packing and its _Gap per distinct (h, n), so they last one run.
    """

    def __init__(self, decomp, v0, schedule):
        self.blocks = decomp.blocks
        self.packing = packing = _Packing([idx.size for idx, _, _ in self.blocks])
        self.schedule = schedule
        self.gaps = {}
        self.taken = 0
        v = np.zeros(packing.shape[0] * packing.shape[1], dtype=complex)
        v[packing.rows] = np.concatenate([v0[idx] for idx, _, _ in self.blocks])
        self.v = v.reshape(packing.shape + (1,))

    def take(self, count):
        """The next count states, as the columns of a new array."""
        out = np.empty((self.packing.rows.size, count), dtype=complex)
        for c, (h, n) in enumerate(self.schedule[self.taken : self.taken + count]):
            if n:
                self.v = rk4_advance(self, self.v, h, n)
            out[:, c] = self.v.ravel()[self.packing.rows]
        self.taken += count
        return out


def rk4_advance(source, v, dt, n_steps):
    """The packed values v of an RK4Source advanced by n_steps RK4 steps
    of size dt, by the source's _Gap of (dt, n_steps); a new array, or v
    itself for no steps. Beyond _MAX_GAPS gaps the oldest is dropped."""
    gaps = source.gaps
    gap = gaps.get((dt, n_steps))
    if gap is None:
        if len(gaps) >= _MAX_GAPS:
            del gaps[next(iter(gaps))]
        step = source.packing.stack(_step_polynomial(source, dt))
        gap = gaps[dt, n_steps] = _Gap(source.packing, step, n_steps)
    return gap.advance(v)
