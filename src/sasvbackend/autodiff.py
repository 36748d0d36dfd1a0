"""Minimal reverse-mode autodiff over dense float64 arrays.

The training step does not run on these generic ops: each back-end block
records one tape entry whose hand-derived backward replays the ops'
expressions (``record``), built from the numpy helpers below. The
generic ops stay for the tests, which compose them into an independent
oracle of the step, and for the benchmark, which counts them by name.

A tensor is a 2-D matrix (vectors are 1 x n rows, scalars are 1 x 1), a
1-D column holding one value per trial, or a stack of matrices with one or
two leading batch axes (at most 4 axes). Operations record backward
closures on a ``Tape``; ``Tape.backward`` replays them in reverse
execution order, which makes repeated backward passes over the same
forward computation bitwise identical.

Broadcasting follows numpy in the elementwise ops and in ``matmul``'s
batch axes, with one addition: a 1 x 1 tensor acts as a scalar against any
shape, and ``softmax_masked`` broadcasts its logits against a larger mask.
Every gradient is summed back to its operand's shape. ``reshape`` regroups
a tensor's values under another shape. ``pair_dot`` takes dot products of
indexed row pairs without putting the rows on the tape.

Not a general autodiff library: no higher-order gradients. Parameters
are views of one flat vector (``flat_parameters``) whose gradients are
views of a second one, accumulated in place; every other array is an
immutable value as far as the ops are concerned, safe to share across
threads for read-only scoring.
"""

from __future__ import annotations

import math
import weakref

import numpy as np


# pairs whose rows pair_dot picks at a time: two blocks of rows stay in
# cache where two P x d copies would not. The values do not depend on it
# (each pair is its own einsum row). Whether glibc maps and trims a
# block's two row copies (2 x 196 KB at 192-d) on every block depends on
# the heap's history, so the cost of a size varies between processes;
# 128 was not slower than 256 in any process measured
PAIR_BLOCK = 128


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateMaskError(ValueError):
    """A masked softmax was asked to normalize over zero unmasked entries."""


class TrackingError(RuntimeError):
    """backward() was called on a value that is not on the tape."""


def _as_array(value) -> np.ndarray:
    a = np.asarray(value, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim > 4:
        raise ShapeError(f"expected scalar, vector, matrix or stack, got ndim={a.ndim}")
    return np.ascontiguousarray(a)


class Tensor:
    """A float64 array, optionally tracked on a tape.

    ``grad`` is populated by ``Tape.backward`` and mirrors ``value``'s shape.
    """

    __slots__ = ("value", "grad", "tape", "__weakref__")

    def __init__(self, value, tape: "Tape | None" = None):
        self.value = _as_array(value)
        self.grad: np.ndarray | None = None
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise ShapeError(f"item() requires a single value, got shape {self.value.shape}")
        return float(self.value.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Untracked view sharing the same underlying array."""
        return _make(self.value, None)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape}, tracked={self.tape is not None})"


class Parameter(Tensor):
    """A leaf tensor whose gradient lives in a fixed buffer, typically a
    view of a flat gradient vector: gradients accumulate into it in place,
    and assigning .grad copies into it."""

    __slots__ = ("_grad",)

    def __init__(self, value: np.ndarray, grad: np.ndarray, tape: "Tape | None" = None):
        self.value = value
        self._grad = grad
        self.tape = tape

    @property
    def grad(self) -> np.ndarray:
        return self._grad

    @grad.setter
    def grad(self, g) -> None:
        self._grad[...] = g


class Tape:
    """Execution-ordered record of tracked operations plus registered parameters.

    The tape holds its parameters by weak reference, because each of them
    refers back to the tape: a dropped tape and its parameters are freed as
    soon as nothing else refers to them, not at the next cyclic collection.
    A parameter nothing else refers to leaves the tape.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, callable]] = []
        self._params: list[weakref.ref] = []
        self._grads: list[np.ndarray] = []

    def parameter(self, value) -> Tensor:
        """Create a tracked parameter (a view of value's array) whose
        gradient is accumulated by backward()."""
        value = _as_array(value)
        (p,), _ = flat_parameters(value.reshape(-1), [value.shape], self)
        return p

    @property
    def parameters(self) -> list[Tensor]:
        return [p for p in (ref() for ref in self._params) if p is not None]

    def _record(self, out: Tensor, backward_fn) -> None:
        self._records.append((out, backward_fn))

    def clear(self) -> None:
        """Drop recorded operations but keep registered parameters."""
        self._records.clear()

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(param) into each registered parameter's .grad.

        Every gradient vector is zeroed in place first, then the records'
        backwards run in reverse execution order and add into it in place,
        so two backward passes over the same forward computation give
        bitwise-identical results. Parameters untouched by the computation
        keep all-zero gradients.
        """
        if loss.tape is not self:
            raise TrackingError("loss is not tracked on this tape")
        if loss.value.size != 1:
            raise ShapeError(f"loss must be a single value, got shape {loss.shape}")
        for grad in self._grads:
            grad.fill(0.0)
        for out, _ in self._records:
            out.grad = None
        loss.grad = np.ones_like(loss.value)
        for out, backward_fn in reversed(self._records):
            if out.grad is None:
                continue  # nothing downstream consumed this value
            backward_fn(out.grad)


def split(vector: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of a 1-D vector, one per shape, covering all of it."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(vector[start:stop].reshape(shape))
        start = stop
    if start != vector.size:
        raise ShapeError(f"shapes hold {start} values, the vector {vector.size}")
    return views


def flat_parameters(values: np.ndarray, shapes,
                    tape: Tape | None = None) -> tuple[list[Tensor], np.ndarray]:
    """Parameters that are consecutive views of the 1-D float64 vector
    values, one per shape, and their gradient vector: zeros of the same
    layout, whose views are the parameters' gradients. On a tape,
    backward() zeroes that vector in place and accumulates into it."""
    grad = np.zeros_like(values)
    params = [Parameter(v, g, tape) for v, g in zip(split(values, shapes), split(grad, shapes))]
    if tape is not None:
        tape._grads.append(grad)
        tape._params.extend(weakref.ref(p) for p in params)
    return params, grad


def _result_tape(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and t.tape is not tape:
                raise TrackingError("operands are tracked on different tapes")
            tape = t.tape
    return tape


def sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to an operand's shape."""
    if shape == (1, 1):
        return np.full((1, 1), g.sum())
    if g.ndim > len(shape):
        g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g, summed down to t's shape, to t's gradient when t is tracked:
    in place in a parameter's buffer; elsewhere by a new array, because
    the gradient arrays of intermediate values may be shared."""
    if t.tape is None:
        return
    if g.shape != t.value.shape:
        g = sum_to(g, t.value.shape)
    if type(t) is Parameter:
        t._grad += g
    else:
        t.grad = g if t.grad is None else t.grad + g


def _make(value: np.ndarray, tape: Tape | None) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.value = value
    out.grad = None
    out.tape = tape
    return out


def constant(value: np.ndarray) -> Tensor:
    """An untracked tensor of the array value, its shape kept as is."""
    return _make(value, None)


def _op(value: np.ndarray, *inputs) -> Tensor:
    """Wrap an op's value; inputs are (tensor, grad_fn) pairs.

    When any input is tracked, the result is recorded with a backward that
    adds grad_fn(g) to each tracked input, in input order. Untracked inputs
    (embeddings, constants) never have their gradient computed.
    """
    def backward(g):
        for t, grad_fn in inputs:
            if t.tape is not None:
                accumulate(t, grad_fn(g))
    return record(value, [t for t, _ in inputs], backward)


def record(value: np.ndarray, inputs, backward) -> Tensor:
    """Wrap a value computed from inputs as one tape entry, tracked when
    any input is. backward(g), given the gradient of the value, must
    accumulate() the gradient of every tracked input itself, so a whole
    block of computation can record one entry with one hand-derived
    backward."""
    tape = _result_tape(*inputs)
    out = _make(value, tape)
    if tape is not None:
        tape._record(out, backward)
    return out


def _operands(a: Tensor, b: Tensor, op: str) -> tuple[np.ndarray, np.ndarray]:
    """Values of a binary elementwise op; a 1 x 1 operand acts as a scalar."""
    x, y = a.value, b.value
    if x.shape == (1, 1) and y.shape != (1, 1):
        x = x.reshape(())
    elif y.shape == (1, 1) and x.shape != (1, 1):
        y = y.reshape(())
    try:
        np.broadcast_shapes(x.shape, y.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None
    return x, y


def add(a: Tensor, b: Tensor) -> Tensor:
    x, y = _operands(a, b, "add")
    return _op(x + y, (a, lambda g: g), (b, lambda g: g))


# older name for adding a 1 x cols bias row, kept for existing callers;
# add broadcasts the row itself
add_bias = add


def sub(a: Tensor, b: Tensor) -> Tensor:
    x, y = _operands(a, b, "sub")
    return _op(x - y, (a, lambda g: g), (b, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product."""
    x, y = _operands(a, b, "mul")
    return _op(x * y, (a, lambda g: g * y), (b, lambda g: g * x))


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient; b must be nonzero."""
    x, y = _operands(a, b, "div")
    return _op(x / y, (a, lambda g: g / y), (b, lambda g: -g * x / (y * y)))


def affine(a: Tensor, scale, shift=0.0) -> Tensor:
    """scale * a + shift with constant scale and shift (floats or arrays
    that broadcast to a's shape)."""
    return _op(scale * a.value + shift, (a, lambda g: scale * g))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, broadcasting any batch axis.

    A stack times a plain matrix runs as one 2-D product over all rows.
    """
    if a.value.ndim < 2 or b.value.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    av, bv = a.value, b.value
    if bv.ndim == 2:
        a2 = av.reshape(-1, av.shape[-1])

        def rows(g):
            return g.reshape(-1, g.shape[-1])
        return _op((a2 @ bv).reshape(av.shape[:-1] + bv.shape[-1:]),
                   (a, lambda g: (rows(g) @ bv.T).reshape(av.shape)),
                   (b, lambda g: a2.T @ rows(g)))
    return _op(av @ bv, (a, lambda g: g @ np.swapaxes(bv, -1, -2)),
               (b, lambda g: np.swapaxes(av, -1, -2) @ g))


def reshape(a: Tensor, shape) -> Tensor:
    """The same values in row-major order under another shape."""
    shape_in = a.shape
    return _op(a.value.reshape(shape), (a, lambda g: g.reshape(shape_in)))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    def swapped(x):
        return np.ascontiguousarray(np.swapaxes(x, -1, -2))
    return _op(swapped(a.value), (a, swapped))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.value)
    return _op(y, (a, lambda g: g * (1.0 - y * y)))


def logistic(x: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)); its gradient is g * y * (1 - y)."""
    e = np.exp(-np.abs(x))  # in (0, 1], so nothing overflows at any |x|
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic function 1 / (1 + exp(-x))."""
    y = logistic(a.value)
    return _op(y, (a, lambda g: g * y * (1.0 - y)))


def log(a: Tensor) -> Tensor:
    av = a.value
    return _op(np.log(av), (a, lambda g: g / av))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values into [lo, hi]; gradient passes only where unclipped."""
    inside = (a.value >= lo) & (a.value <= hi)
    return _op(np.clip(a.value, lo, hi), (a, lambda g: g * inside))


def row_dots(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """Dot product along the last axis, broadcasting the other axes; the
    last axis is dropped."""
    if av.shape[-1] != bv.shape[-1]:
        raise ShapeError(f"row_dot: row lengths differ, {av.shape} vs {bv.shape}")
    try:
        shape = np.broadcast_shapes(av.shape[:-1], bv.shape[:-1])
    except ValueError:
        raise ShapeError(f"row_dot: shapes {av.shape} and {bv.shape} do not broadcast") from None
    # einsum reduces each row on its own, so a row's result does not depend
    # on how many rows share the call
    return np.einsum("...i,...i->...", av, bv).reshape(shape)


def row_dot(a: Tensor, b: Tensor) -> Tensor:
    """Dot product along the last axis, broadcasting the other axes (a
    1 x n row meets every row of a stack). The last axis is dropped."""
    av, bv = a.value, b.value

    def grad_b(g):
        if bv.shape == (1, bv.shape[-1]):
            return g.reshape(1, -1) @ av.reshape(-1, av.shape[-1])
        return g[..., None] * av
    return _op(row_dots(av, bv), (a, lambda g: g[..., None] * bv), (b, grad_b))


def pair_dots(av: np.ndarray, bv: np.ndarray, ia, ib) -> np.ndarray:
    """Dot products of indexed row pairs, out[p] = av[ia[p]] . bv[ib[p]],
    each bitwise row_dots of its two rows. The rows are picked PAIR_BLOCK
    pairs at a time."""
    ia, ib = np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[1] or ia.shape != ib.shape:
        raise ShapeError(f"pair_dot: rows {av.shape}, {bv.shape} with indices {ia.shape}, "
                         f"{ib.shape}")
    flat_a, flat_b = ia.reshape(-1), ib.reshape(-1)
    out = np.empty(flat_a.size)
    for s in range(0, flat_a.size, PAIR_BLOCK):
        block = slice(s, s + PAIR_BLOCK)
        out[block] = np.einsum("...i,...i->...", np.take(av, flat_a[block], axis=0),
                               np.take(bv, flat_b[block], axis=0))
    return out.reshape(ia.shape)


def pair_weights(g: np.ndarray, ia, ib, n_a: int, n_b: int) -> np.ndarray:
    """Each (i, j) pair's gradients summed in pair order into an n_a x n_b
    matrix W: pair_dots' backward is W @ b for a and W.T @ a for b."""
    return np.bincount((np.asarray(ia) * n_b + ib).ravel(), weights=g.ravel(),
                       minlength=n_a * n_b).reshape(n_a, n_b)


def pair_dot(a: Tensor, b: Tensor, ia, ib) -> Tensor:
    """Dot products of indexed row pairs, out[p] = a[ia[p]] . b[ib[p]] (see
    pair_dots and pair_weights)."""
    av, bv = a.value, b.value
    out = pair_dots(av, bv, ia, ib)
    return _op(out, (a, lambda g: pair_weights(g, ia, ib, len(av), len(bv)) @ bv),
               (b, lambda g: pair_weights(g, ia, ib, len(av), len(bv)).T @ av))


def row_norms(av: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, over the last axis; a zero norm raises
    ValueError. The gradient is (g / n)[..., None] * av."""
    n = np.sqrt(np.einsum("...i,...i->...", av, av))
    if np.any(n == 0.0):  # a NaN row passes, for the caller's finiteness check
        raise ValueError("norm of a zero row is not differentiable")
    return n


def norm(a: Tensor) -> Tensor:
    """Euclidean norm of each row, over the last axis. A zero row is rejected."""
    av = a.value
    n = row_norms(av)
    return _op(n, (a, lambda g: (g / n)[..., None] * av))


# no package code calls zero_rows; the benchmark's tracer counts it by name
def zero_rows(a: Tensor, row_mask) -> Tensor:
    """Zero out the rows (last-axis vectors) where row_mask is True;
    gradient is blocked there. row_mask has a's shape without the last axis."""
    mask = np.asarray(row_mask, dtype=bool)
    if mask.shape != a.shape[:-1]:
        raise ShapeError(f"zero_rows: mask shape {mask.shape} does not match rows of {a.shape}")

    def zeroed(x):
        x = x.copy()
        x[mask] = 0.0
        return x
    return _op(zeroed(a.value), (a, zeroed))


def gather(a: Tensor, index) -> Tensor:
    """Rows of a picked by an integer index array: out[i] = a[index[i]].

    The result has shape index.shape + a.shape[1:]. Backward sums the
    gradients of each picked row in index order, so a row picked many times
    accumulates deterministically.
    """
    index = np.asarray(index, dtype=np.intp)
    return _op(np.take(a.value, index, axis=0), (a, lambda g: scatter_rows(g, index, a.shape)))


def scatter_rows(g: np.ndarray, index, shape) -> np.ndarray:
    """gather's backward: zeros of shape, plus the gradient of each picked
    row summed in index order. An index already in order (a test row
    repeated once per pair, say) is summed in contiguous runs, unsorted."""
    picked = np.asarray(index, dtype=np.intp).reshape(-1)
    g = g.reshape((-1,) + tuple(shape[1:]))
    ga = np.zeros(shape)
    if picked.size == 0:
        return ga
    if np.any(picked[1:] < picked[:-1]):
        order = np.argsort(picked, kind="stable")
        picked, g = picked[order], g[order]
    starts = np.flatnonzero(np.concatenate(([True], picked[1:] != picked[:-1])))
    ga[picked[starts]] = np.add.reduceat(g, starts, axis=0)
    return ga


def softmax_values(x: np.ndarray, mask=None) -> np.ndarray:
    """softmax_masked's values: a softmax over the last axis that gives
    exactly zero weight to masked entries (see softmax_masked)."""
    mask = np.zeros(x.shape[-1], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    try:
        if mask.ndim == 0 or mask.shape[-1] != x.shape[-1]:
            raise ValueError
        z = np.where(mask, -np.inf, x)
    except ValueError:
        raise ShapeError(
            f"softmax_masked: mask shape {mask.shape} does not match logits {x.shape}") from None
    if mask.all(axis=-1).any():  # every broadcast row is one of the mask's rows
        raise DegenerateMaskError("softmax_masked: every entry of a row is masked")
    w = np.exp(z - z.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per-row softmax jacobian applied to g; masked entries carry y == 0."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax_masked(logits: Tensor, mask=None) -> Tensor:
    """Softmax over the last axis that gives exactly zero weight to masked entries.

    ``mask`` (True = excluded) and the logits broadcast against each other:
    a vector over the last axis is shared by every row, a per-set mask such
    as (S, 1, K) for (S, R, K) logits gives each set its own, and
    (G, 1, K, K) logits against a (G, R, 1, K) mask give R softmaxes of
    each group's logits, one per set's mask. The result has the broadcast
    shape. ``None`` means nothing is masked. Stabilized by subtracting each
    row's maximum over unmasked entries.
    """
    y = softmax_values(logits.value, mask)
    return _op(y, (logits, lambda g: softmax_grad(y, g)))
