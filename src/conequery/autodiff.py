"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A Tape records tensors in creation order; backward() walks that order in
reverse, which is a reverse topological order by construction, visiting each
node once and accumulating gradients additively.  Ops accept either Tensor
or plain numpy inputs: with no Tensor among the inputs they run as ordinary
numpy functions, which gives a tape-free fast path sharing the exact same
forward arithmetic.

``backward`` spends its tape: it cuts each node's link to the tape and drops
the node's pulls once they have run, so ops on the tape's tensors, new
leaves and a second ``backward`` raise ValueError.  The link would otherwise
close a reference cycle (tape -> node -> tape) that keeps a finished step's
whole graph allocated until the cyclic collector happens to run; without it,
reference counting frees the graph as soon as the caller drops it, so a
training loop holds one step's memory.  The nodes keep their values and
gradients for inspection.

A tensor's first gradient is the array its pull returned, not a copy, and
later contributions rebind ``.grad`` to a new sum, so several tensors may
share one ``.grad`` array (``wrap`` passes its own on): treat it as read-only.

Subgradient conventions (fixed, documented):
  |x| at 0 -> 0;  pairwise min ties -> first argument;  clamp outside the
  range -> 0;  ReLU at 0 -> 0;  angle wrap -> identity.

Gather's gradient scatter-adds each gathered row into its table row in the
flattened order of the indices, the order ``np.add.at`` uses, so gradients of
repeated ids sum in a fixed order.  ``scatter_rows`` is that scatter.  The
entity points of ``model.entity_points`` are no gathered tensor: the
distance's fused VJP sums the entity gradients of a DNF's disjuncts (the last
disjunct's first) and scatters that sum into the entity table itself with
``scatter_rows``, in the flattened order of the entity ids.  So the table
gradient is what a gather of the wrapped rows would give, bit for bit, and
per call it arrives when the backward pass reaches that distance op.

A fused op (``fused``) records one tape node for a whole formula over several
inputs; its hand-written VJP returns every input's gradient in one call and
keeps the conventions above.  The one in use is the cone-entity distance of
``model.cone_entity_distance``,
  min(L1(upper, e), L1(lower, e)) + lam * min(L1(axis, e), L1(upper, axis)),
with L1 the summed |cos a - cos b| + |sin a - sin b| over dimensions:
  each |.| has slope 0 where its argument is exactly 0 (an entity on a
  boundary or on the axis, an aperture of 0);  outside-min ties (aperture 0
  or 2*pi among them) go to the upper boundary and inside-min ties to the
  axis term, the first argument of each;  the aperture enters through
  upper/lower = axis +/- aperture/2, so it gets half the upper gradient minus
  half the lower one.
The VJP routes each outside-min tie through the forward's choice: it copies
the cos and sin of the chosen boundary (the upper one on a tie) and
differentiates that boundary alone, and ``np.sign`` gives each |.| its
slope 0 at an exact 0.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .cones import wrap_angle

_LOG_FLOOR = 1e-300  # log_sigmoid takes log(sigmoid) at or above it, x - log1p(e^x) below
_DENOM_FLOOR = 1e-30


_SPENT = "backward has already run on this tape; record the next graph on a new Tape"
_SPENT_INPUT = ("input belongs to a spent tape (backward has already run on it); "
                "record the next graph on a new Tape")


class Tape:
    """Single-writer op record; independent tapes may run concurrently."""

    def __init__(self) -> None:
        self._nodes: list[Tensor] = []
        self._spent = False

    def leaf(self, values) -> "Tensor":
        if self._spent:
            raise ValueError(_SPENT)
        return Tensor(np.asarray(values, dtype=np.float64), self)

    def backward(self, loss: "Tensor") -> None:
        """Populate grad on every tensor that the scalar loss depends on, and
        spend the tape (see the module docstring): each node's ``tape`` is
        set to None and its pulls are dropped once they have run, while
        ``_nodes`` keeps every node's values and gradient.
        """
        if self._spent:
            raise ValueError(_SPENT)
        if loss.values.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.values.shape}")
        if loss.tape is not self:
            raise ValueError("loss was built on a different tape")
        self._spent = True
        loss.grad = np.ones_like(loss.values)
        for node in reversed(self._nodes):
            node.tape = None
            parents, node._parents = node._parents, ()
            if node.grad is None:
                continue
            for parent, pull in parents:
                contrib = pull(node.grad)
                if parent.grad is None:
                    parent.grad = contrib
                else:
                    parent.grad = parent.grad + contrib


class Tensor:
    __slots__ = ("values", "grad", "tape", "_parents")

    def __init__(self, values: np.ndarray, tape: Tape, parents=()) -> None:
        self.values = values
        self.grad: np.ndarray | None = None
        self.tape = tape
        self._parents: tuple = parents
        tape._nodes.append(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape})"


def values_of(x) -> np.ndarray:
    return x.values if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _tape_of(*xs) -> Tape | None:
    tape = None
    for x in xs:
        if isinstance(x, Tensor):
            if x.tape is None:
                raise ValueError(_SPENT_INPUT)
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise ValueError("inputs live on different tapes")
    return tape


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _result(out: np.ndarray, inputs: Sequence, vjps: Sequence[Callable | None]):
    out = np.asarray(out, dtype=np.float64)
    tape = _tape_of(*inputs)
    if tape is None:
        return out
    parents = tuple(
        (x, fn) for x, fn in zip(inputs, vjps) if isinstance(x, Tensor) and fn is not None
    )
    return Tensor(out, tape, parents)


def fused(out: np.ndarray, inputs: Sequence, vjp: Callable):
    """Record a multi-input op whose gradients are computed together.

    ``vjp(g)`` maps the output gradient to a tuple holding one gradient per
    entry of ``inputs``, shaped like that input (None where the input is no
    Tensor).  It runs once, when the first parent pulls, and is dropped right
    after (a tape runs one backward), so the forward intermediates it holds
    are freed before the rest of the backward pass.  With no Tensor among
    the inputs this returns ``out`` as is.
    """
    out = np.asarray(out, dtype=np.float64)
    tape = _tape_of(*inputs)
    if tape is None:
        return out
    live = [i for i, x in enumerate(inputs) if isinstance(x, Tensor)]
    pending: dict[int, np.ndarray] = {}

    def make_pull(i):
        def pull(g):
            nonlocal vjp
            if vjp is not None:  # the first parent to pull
                grads, vjp = vjp(g), None
                pending.update((j, grads[j]) for j in live)
            return pending.pop(i)
        return pull

    return Tensor(out, tape, tuple((inputs[i], make_pull(i)) for i in live))


# ---------------------------------------------------------------------------
# elementwise arithmetic (with broadcasting used by batched model ops)
# ---------------------------------------------------------------------------


def add(a, b):
    av, bv = values_of(a), values_of(b)
    return _result(
        av + bv,
        (a, b),
        (lambda g: _unbroadcast(g, av.shape), lambda g: _unbroadcast(g, bv.shape)),
    )


def subtract(a, b):
    av, bv = values_of(a), values_of(b)
    return _result(
        av - bv,
        (a, b),
        (lambda g: _unbroadcast(g, av.shape), lambda g: _unbroadcast(-g, bv.shape)),
    )


def multiply(a, b):
    av, bv = values_of(a), values_of(b)
    return _result(
        av * bv,
        (a, b),
        (lambda g: _unbroadcast(g * bv, av.shape), lambda g: _unbroadcast(g * av, bv.shape)),
    )


def matmul(a, b):
    av, bv = values_of(a), values_of(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError("matmul expects two matrices")
    return _result(av @ bv, (a, b), (lambda g: g @ bv.T, lambda g: av.T @ g))


# ---------------------------------------------------------------------------
# pointwise functions
# ---------------------------------------------------------------------------


def sin(x):
    xv = values_of(x)
    return _result(np.sin(xv), (x,), (lambda g: g * np.cos(xv),))


def cos(x):
    xv = values_of(x)
    return _result(np.cos(xv), (x,), (lambda g: -g * np.sin(xv),))


def atan2(y, x):
    yv, xv = values_of(y), values_of(x)
    denom = np.maximum(xv * xv + yv * yv, _DENOM_FLOOR)
    return _result(
        np.arctan2(yv, xv),
        (y, x),
        (
            lambda g: _unbroadcast(g * xv / denom, yv.shape),
            lambda g: _unbroadcast(-g * yv / denom, xv.shape),
        ),
    )


def absval(x):
    xv = values_of(x)
    return _result(np.abs(xv), (x,), (lambda g: g * np.sign(xv),))


def relu(x):
    xv = values_of(x)
    mask = xv > 0.0
    return _result(np.where(mask, xv, 0.0), (x,), (lambda g: g * mask,))


def sigmoid(x):
    xv = values_of(x)
    z = np.exp(-np.abs(xv))  # stable on both tails
    out = np.where(xv >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
    return _result(out, (x,), (lambda g: g * out * (1.0 - out),))


def log_sigmoid(x):
    """log(sigmoid(x)) as one op.  With s = ``sigmoid(x)``: where s >=
    ``_LOG_FLOOR``, the value is log(s) and the gradient g / s * s * (1 - s),
    the chain rule through log and ``sigmoid`` in that order.  Below it (x <
    about -690.8), the value is x - log1p(e^x), which rounds to x, and the
    gradient g * (1 - s): the slope stays about 1 where log(s) loses its
    precision and, once s underflows, its value."""
    xv = values_of(x)
    s = sigmoid(xv)
    deep = s < _LOG_FLOOR
    safe = np.maximum(s, _LOG_FLOOR)
    return _result(np.where(deep, xv, np.log(safe)), (x,),
                   (lambda g: np.where(deep, g * (1.0 - s), g / safe * s * (1.0 - s)),))


def clamp(x, lo: float, hi: float):
    xv = values_of(x)
    mask = (xv >= lo) & (xv <= hi)
    return _result(np.clip(xv, lo, hi), (x,), (lambda g: g * mask,))


def wrap(x):
    """Reduce angles into [-pi, pi); gradient passes through unchanged."""
    return _result(wrap_angle(values_of(x)), (x,), (lambda g: g,))


# ---------------------------------------------------------------------------
# minima
# ---------------------------------------------------------------------------


def minimum(a, b):
    """Pairwise min; on ties the gradient goes to the first argument."""
    av, bv = values_of(a), values_of(b)
    take_a = av <= bv
    return _result(
        np.where(take_a, av, bv),
        (a, b),
        (
            lambda g: _unbroadcast(g * take_a, av.shape),
            lambda g: _unbroadcast(g * ~take_a, bv.shape),
        ),
    )


# ---------------------------------------------------------------------------
# reductions and shape plumbing
# ---------------------------------------------------------------------------


def total(x, axis=None):
    xv = values_of(x)

    def pull(g):
        if axis is None:
            return np.broadcast_to(g, xv.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis), xv.shape).copy()

    return _result(np.sum(xv, axis=axis), (x,), (pull,))


def mean(x, axis=None):
    xv = values_of(x)
    count = xv.size if axis is None else xv.shape[axis]

    def pull(g):
        if axis is None:
            return np.broadcast_to(g / count, xv.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis) / count, xv.shape).copy()

    return _result(np.mean(xv, axis=axis), (x,), (pull,))


def softmax(x, axis: int = -1):
    xv = values_of(x)
    shifted = xv - xv.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    return _result(
        out,
        (x,),
        (lambda g: (g - np.sum(g * out, axis=axis, keepdims=True)) * out,),
    )


def concat(parts: Sequence, axis: int = -1):
    vals = [values_of(p) for p in parts]
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def make_pull(i):
        sl = [slice(None)] * vals[0].ndim
        sl[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
        return lambda g: g[tuple(sl)]

    return _result(
        np.concatenate(vals, axis=axis), tuple(parts), tuple(make_pull(i) for i in range(len(vals)))
    )


def stack(parts: Sequence, axis: int = 0):
    vals = [values_of(p) for p in parts]

    def make_pull(i):
        return lambda g: np.take(g, i, axis=axis)

    return _result(
        np.stack(vals, axis=axis), tuple(parts), tuple(make_pull(i) for i in range(len(vals)))
    )


def reshape(x, shape):
    xv = values_of(x)
    return _result(xv.reshape(shape), (x,), (lambda g: g.reshape(xv.shape),))


def scatter_rows(rows: np.ndarray, idx, shape: tuple, flat=None) -> np.ndarray:
    """A zero 2-D table of ``shape`` with each of ``rows`` (shaped
    ``idx.shape + (width,)``) added into its table row ``idx``, in the
    flattened order of ``idx`` (see the module docstring).  ``flat``, when
    given, is a contiguous int64 array of ``rows.size`` entries that
    receives the flat index, which is otherwise allocated."""
    width = shape[-1]
    idx = np.asarray(idx, dtype=np.int64).reshape(-1, 1)
    if flat is None:
        flat = (idx * width + np.arange(width)).reshape(-1)
    else:
        np.add(idx * width, np.arange(width), out=flat.reshape(-1, width))
    return np.bincount(flat, weights=rows.reshape(-1), minlength=shape[0] * width).reshape(shape)


def gather(table, idx):
    """Rows of a 2-D table by integer index; gradients scatter-add back, in
    index order (see the module docstring), with 0 for rows never gathered."""
    tv = values_of(table)
    idx = np.asarray(idx)
    return _result(tv[idx], (table,), (lambda g: scatter_rows(g, idx, tv.shape),))


# ---------------------------------------------------------------------------
# finite-difference audit
# ---------------------------------------------------------------------------


#: ``grad_check``'s finite-difference step.
_STEP = 1e-5


def grad_check(f, xs: Sequence[np.ndarray], coords: Sequence | None = None,
               subgradient: bool = False,
               zero_floor: float = 0.0) -> float:
    """Max relative disagreement between analytic and central-difference grads.

    f must map its inputs (Tensor or ndarray alike) to a scalar; relative
    error per coordinate is |a - n| / (|a| + |n| + 1e-12).

    ``coords`` optionally gives, per input, the flat indices to probe (None
    entries mean "all of this input"); callers use it to skip coordinates
    that provably cannot influence f, such as embedding-table rows the
    computation never gathers.

    With ``subgradient=True`` a coordinate also passes when the analytic
    value lies between the two one-sided difference quotients.  Central
    differences carry no information across a kink of |.|, min or clamp; at
    such points the valid check is that the analytic gradient is a
    subgradient, i.e. inside the one-sided-slope interval.  On smooth
    coordinates that interval is only O(``_STEP``) wide, so the relaxation
    stays as sharp as the central-difference test.

    ``zero_floor`` bounds the method's resolution: central differences read
    a gradient as (f(x+h)-f(x-h))/2h with h = ``_STEP``, so one ulp of noise
    on f becomes eps*|f|/h of noise on the quotient (~3e-10 for a loss of
    magnitude 10), and a coordinate whose true gradient sits at
    that scale yields a relative error near 1 against any analytic value,
    correct or not.  Coordinates where analytic and numeric are both below
    the floor are therefore counted as agreeing zeros.  The default of 0
    disables the floor.
    """
    xs = [np.asarray(x, dtype=np.float64) for x in xs]
    tape = Tape()
    leaves = [tape.leaf(x) for x in xs]
    loss = f(*leaves)
    tape.backward(loss)
    base = float(values_of(loss))
    worst = 0.0
    for i, x in enumerate(xs):
        analytic = leaves[i].grad
        if analytic is None:
            analytic = np.zeros_like(x)
        flat = x.reshape(-1)
        probe = range(flat.size) if coords is None or coords[i] is None else coords[i]
        for j in probe:
            bumped = flat.copy()
            bumped[j] += _STEP
            hi = float(values_of(f(*_swap(xs, i, bumped.reshape(x.shape)))))
            bumped[j] -= 2.0 * _STEP
            lo = float(values_of(f(*_swap(xs, i, bumped.reshape(x.shape)))))
            numeric = (hi - lo) / (2.0 * _STEP)
            a = float(analytic.reshape(-1)[j])
            if max(abs(a), abs(numeric)) <= zero_floor:
                continue
            err = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
            if subgradient and err > 0.0:
                s_hi = (hi - base) / _STEP
                s_lo = (base - lo) / _STEP
                side_lo, side_hi = min(s_lo, s_hi), max(s_lo, s_hi)
                gap = max(side_lo - a, a - side_hi, 0.0)
                err = min(err, gap / (abs(a) + max(abs(side_lo), abs(side_hi)) + 1e-12))
            worst = max(worst, err)
    return worst


def _swap(xs, i, replacement):
    out = list(xs)
    out[i] = replacement
    return out
