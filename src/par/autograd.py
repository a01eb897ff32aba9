"""Dense tensors with reverse-mode differentiation, Adam, and the training loop.

The graph is define-by-run: every op that gradients can flow through records
a `Node`: a closure that maps the output gradient back to the operand
gradients, and where each operand's gradient goes. A node keeps only what
its closure reads (shapes for the structural ops, the output of an
activation, the input arrays of a product), never a tensor, so an
intermediate that the forward drops is freed at once unless a vjp reads it.
Values are numpy arrays and are treated as immutable once a tensor is built;
only the ``grad`` slot mutates, and `backward` fills it on leaves only
(parameters and inputs built with ``requires_grad``), so a step holds no
gradient of an interior tensor.

A graph computes in the dtype of its inputs. A float32 array stays float32;
anything else (float64, ints, Python scalars, lists) becomes float64. A
constant operand (anything not a Tensor) takes the dtype of the tensor it
meets, and gradients keep the dtype of their tensors, so a float32 graph never
upcasts and a float64 graph never downcasts. Training, Adam and the gradient
checks run in float64, so that analytic gradients can be checked against
central finite differences at 1e-4 relative tolerance; page scoring runs in
float32 (`trainer._score_pages`).
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, NumericError

Array = np.ndarray

_log = logging.getLogger(__name__)


def _as_array(values) -> Array:
    if isinstance(values, (np.ndarray, np.generic)) and values.dtype == np.float32:
        return np.asarray(values)
    return np.asarray(values, dtype=np.float64)


def _operands(a, b) -> tuple["Tensor", "Tensor"]:
    """Both operands as tensors; a constant takes the dtype of the tensor operand."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.values.dtype))
    elif isinstance(b, Tensor) and not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.values.dtype))
    return as_tensor(a), as_tensor(b)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` over the axes that numpy broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus a gradient slot and the graph node that made it.

    ``_node`` is set only on a tensor an op made while gradients could flow,
    so inference graphs carry no bookkeeping. A tensor that requires grad and
    has no node is a leaf.
    """

    __slots__ = ("values", "grad", "requires_grad", "_node")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_array(values)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise ContractError("division is supported by scalar constants only")
        return mul(self, 1.0 / float(scalar))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, *axes)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def backward(self):
        backward(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_grad_enabled = True


class no_grad:
    """Context manager: skip graph recording (read-only inference)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Node:
    """One recorded op: its vjp, and per input the target of that input's gradient.

    `vjp` maps the output gradient to one gradient per input; it may give
    None for an input that takes none. An input's entry in `inputs` is its
    own node when an op made it, the tensor itself when it is a leaf, and
    None when it takes no gradient.
    """

    __slots__ = ("vjp", "inputs")

    def __init__(self, vjp: Callable, inputs: tuple):
        self.vjp = vjp
        self.inputs = inputs


def _edge(t: Tensor) -> Node | Tensor | None:
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def _make(values: Array, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(values)
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._node = Node(vjp, tuple(_edge(t) for t in inputs))
    return out


# -- elementwise arithmetic ---------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    try:
        out = a.values + b.values
    except ValueError:
        raise DimensionError(f"cannot broadcast {a.shape} + {b.shape}") from None
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    try:
        out = a.values - b.values
    except ValueError:
        raise DimensionError(f"cannot broadcast {a.shape} - {b.shape}") from None
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _make(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    try:
        out = a.values * b.values
    except ValueError:
        raise DimensionError(f"cannot broadcast {a.shape} * {b.shape}") from None
    a_shape, b_shape = a.shape, b.shape
    av = a.values if b.requires_grad else None  # each operand is read for the other's grad
    bv = b.values if a.requires_grad else None

    def vjp(g):
        return (None if bv is None else _unbroadcast(g * bv, a_shape),
                None if av is None else _unbroadcast(g * av, b_shape))

    return _make(out, (a, b), vjp)


# -- activations ----------------------------------------------------------


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.values)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _make(out, (x,), vjp)


def sigmoid(x: Tensor) -> Tensor:
    # tanh form is overflow-safe on both tails
    out = 0.5 * (1.0 + np.tanh(0.5 * x.values))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _make(out, (x,), vjp)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.values, 0.0)

    def vjp(g):  # out > 0 exactly where x > 0
        return (g * (out > 0.0),)

    return _make(out, (x,), vjp)


def softplus(x: Tensor) -> Tensor:
    # exp only ever sees -|x|, so neither tail overflows
    out = np.maximum(x.values, 0.0) + np.log1p(np.exp(-np.abs(x.values)))

    def vjp(g):
        # the derivative sigmoid(x) equals 1 - exp(-softplus(x))
        return (g * -np.expm1(-out),)

    return _make(out, (x,), vjp)


def log(x: Tensor) -> Tensor:
    xv = x.values
    out = np.log(xv)

    def vjp(g):
        return (g / xv,)

    return _make(out, (x,), vjp)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.values)

    def vjp(g):
        return (g * out,)

    return _make(out, (x,), vjp)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient is zero where the clamp is active."""
    out = np.clip(x.values, lo, hi)
    inside = (x.values > lo) & (x.values < hi)

    def vjp(g):
        return (g * inside,)

    return _make(out, (x,), vjp)


# -- softmax ---------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along `axis` (max-subtraction)."""
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"axis {axis} invalid for shape {x.shape}")
    if not np.all(np.isfinite(x.values)):
        raise NumericError("softmax requires finite input")
    shifted = x.values - x.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _make(out, (x,), vjp)


# -- linear algebra / structure --------------------------------------------


def _matmul_forward(av: Array, bv: Array) -> Array:
    # shape-specialized paths fold a broadcast batch into a few large GEMMs.
    # Measured with bench/run.py's eval workload (2-vCPU x86-64, OpenBLAS,
    # medians of 3 interleaved pairs): plain `av @ bv` instead lowers eval
    # from 4,301 to 4,098 pages/s and rerank from 5,047 to 4,879 pages/s.
    if bv.ndim == 2 and av.ndim > 2:
        return (av.reshape(-1, av.shape[-1]) @ bv).reshape(av.shape[:-1] + (bv.shape[-1],))
    if av.ndim == 4 and bv.ndim == 3:
        b0, p, q = av.shape[0], av.shape[-2], av.shape[-1]
        if av.shape[1] == bv.shape[0]:  # (b, n, p, q) @ (n, q, r): n big GEMMs
            flat = av.transpose(1, 0, 2, 3).reshape(bv.shape[0], b0 * p, q)
            return (flat @ bv).reshape(bv.shape[0], b0, p, -1).transpose(1, 0, 2, 3)
        if av.shape[1] == 1:            # (b, 1, p, q) @ (n, q, r): n big GEMMs
            out = av.reshape(b0 * p, q) @ bv
            return out.reshape(bv.shape[0], b0, p, -1).transpose(1, 0, 2, 3)
    return av @ bv


def _matmul_grads(av: Array, bv: Array, g: Array) -> tuple[Array, Array]:
    # dB = sum over broadcast batch of A^T @ g, summed inside the GEMMs: a
    # plain `_unbroadcast(A^T @ g)` builds the whole batch of products (the
    # towers' (b, n, 80, 80)) and raised bench/run.py's peak RSS from 266 to
    # 283 MB on train and 247 to 263 MB on eval (one pair each, same machine).
    # For per-list weights, dA is n GEMMs on the list-major copy of g that dB
    # reads, not b * n small broadcast GEMMs: the backward of the towers'
    # (128, 4, 10, 80) @ (4, 80, 80) went from 6.7 to 6.0 ms, of
    # (128, 1, 10, 80) @ (4, 80, 80) from 3.4 to 2.4 ms (2-vCPU Xeon,
    # OpenBLAS). dB keeps its gathered copy of A: a GEMM on A's list-major
    # view, transposed, rounds differently and moves tests/test_golden.py's
    # trained checkpoint.
    if bv.ndim == 2:
        q, r = bv.shape
        return ((g.reshape(-1, r) @ bv.T).reshape(av.shape),
                av.reshape(-1, q).T @ g.reshape(-1, r))
    if (av.ndim == 4 and bv.ndim == 3 and av.shape[1] in (1, bv.shape[0])
            and g.shape[:2] == (av.shape[0], bv.shape[0])):
        n, (b0, lists, p, q) = bv.shape[0], av.shape
        gt = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(n, b0 * p, -1)
        da = gt @ bv.swapaxes(-1, -2)  # (n, b0 * p, q)
        if lists == n:
            at = np.ascontiguousarray(av.transpose(1, 3, 0, 2)).reshape(n, q, b0 * p)
            return da.reshape(n, b0, p, q).transpose(1, 0, 2, 3), at @ gt
        return da.sum(axis=0).reshape(av.shape), av.reshape(b0 * p, q).T[None] @ gt
    return (_unbroadcast(g @ bv.swapaxes(-1, -2), av.shape),
            _unbroadcast(av.swapaxes(-1, -2) @ g, bv.shape))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting over leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    av, bv = a.values, b.values
    try:
        out = _matmul_forward(av, bv)
    except ValueError:
        raise DimensionError(f"matmul batch dims disagree: {a.shape} @ {b.shape}") from None

    def vjp(g):
        return _matmul_grads(av, bv, g)

    return _make(out, (a, b), vjp)


EXPERT_BLOCK = 1024  # rows per block of expert_mixture's passes, rounded to whole pages


def expert_mixture(page: Tensor, slot: Tensor, gamma: Tensor, weights: list[Tensor],
                   biases: list[Tensor]) -> Tensor:
    """Gate-weighted sum of E relu MLP experts that all read the same rows.

    page: (P, d_p) page vectors; slot: (N, d_s) per-slot columns, P pages of
    N / P consecutive rows each, so row r reads z[r] = [page[r // (N / P)] |
    slot[r]]; gamma: (N, E) mixing weights; weights[i]: (E, d_i, d_i+1), with
    d_0 = d_p + d_s and the page rows first, and biases[i]: (E, d_i+1) per
    layer, relu between layers and none after the last. Returns (N, d_last)
    with row r = sum_e gamma[r, e] * expert_e(z[r]).

    The first layer of all experts is one slot-rows GEMM, to which each page's
    `page @ W1[page rows] + b1` is added once for all its slots; deeper hidden
    layers are one GEMM per expert on strided (rows, E, h) column blocks; the
    last layer is one (rows, E*h) x (E*h, d_last) GEMM on the gate-scaled
    activations. Both passes walk whole pages, about `EXPERT_BLOCK` rows at a
    time, in activation buffers of one block that every block reuses, and
    backward recomputes each block's hidden activations: the graph keeps only
    the input arrays, and no pass allocates an activation of the batch's
    size. Only arrays this op allocates are written in place.
    """
    page, slot, gamma = as_tensor(page), as_tensor(slot), as_tensor(gamma)
    if (page.ndim != 2 or slot.ndim != 2 or gamma.ndim != 2
            or gamma.shape[0] != slot.shape[0]):
        raise DimensionError(f"expert_mixture needs (P, d) pages, (N, d) slots and (N, E) "
                             f"gates, got {page.shape}, {slot.shape} and {gamma.shape}")
    n_pages, d_page = page.shape
    n_rows, d_slot = slot.shape
    if n_pages == 0 or n_rows % n_pages:
        raise DimensionError(f"{n_rows} slot rows do not split into {n_pages} pages")
    n_experts = gamma.shape[1]
    width = d_page + d_slot
    for w, b in zip(weights, biases):
        if w.shape[:2] != (n_experts, width) or b.shape != (n_experts, w.shape[-1]):
            raise DimensionError(f"expert layer {w.shape} + {b.shape} does not take "
                                 f"{n_experts} experts of width {width}")
        width = w.shape[-1]

    per_page = n_rows // n_pages
    step = max(1, EXPERT_BLOCK // per_page)
    blocks = [(p, min(p + step, n_pages)) for p in range(0, n_pages, step)]
    block_rows = min(step, n_pages) * per_page
    pv, sv, gv = page.values, slot.values, gamma.values
    ws, bs = [w.values for w in weights], [b.values for b in biases]
    h1 = ws[0].shape[-1]
    w1 = ws[0].transpose(1, 0, 2).reshape(d_page + d_slot, n_experts * h1)
    w1_page, w1_slot = w1[:d_page], w1[d_page:]
    b1 = bs[0].reshape(-1)
    deep = len(ws) > 1
    w_last = ws[-1].reshape(-1, width)   # (E * h, d_last) when deep
    b_last = bs[-1]

    def buffers(layers: list[Array]) -> list[Array]:
        """One (block rows, E, width) array per layer, reused by every block."""
        return [np.empty((block_rows, n_experts, w.shape[-1]), dtype=w1.dtype) for w in layers]

    def hidden(p0: int, p1: int, bufs: list[Array]) -> list[Array]:
        """A block's activations, in `bufs`: post-relu hidden layers, or the one layer's output."""
        rows = slice(p0 * per_page, p1 * per_page)
        acts = [buf[:rows.stop - rows.start] for buf in bufs]
        first = acts[0].reshape(len(acts[0]), -1)
        np.matmul(sv[rows], w1_slot, out=first)
        by_page = first.reshape(p1 - p0, per_page, -1)
        by_page += (pv[p0:p1] @ w1_page + b1)[:, None]
        for i, (w, b) in enumerate(zip(ws[1:-1], bs[1:-1]), 1):
            prev, nxt = acts[i - 1], acts[i]
            np.maximum(prev, 0.0, out=prev)
            for e in range(n_experts):
                np.matmul(prev[:, e], w[e], out=nxt[:, e])
            nxt += b
        if deep:
            np.maximum(acts[-1], 0.0, out=acts[-1])
        return acts

    hidden_layers = ws[:-1] if deep else ws
    out = np.empty((n_rows, width), dtype=w1.dtype)
    bufs = buffers(hidden_layers)
    for p0, p1 in blocks:
        rows = slice(p0 * per_page, p1 * per_page)
        acts, gm = hidden(p0, p1, bufs), gv[rows]
        if deep:
            scaled = acts[-1]
            scaled *= gm[:, :, None]
            np.matmul(scaled.reshape(len(gm), -1), w_last, out=out[rows])
            out[rows] += gm @ b_last
        else:
            np.einsum("ne,nek->nk", gm, acts[0], out=out[rows])

    def vjp(g):
        d_page = np.empty_like(pv)
        d_slot = np.empty_like(sv)
        d_gamma = np.empty_like(gv)
        d_ws = [np.zeros_like(w) for w in ws]
        d_bs = [np.zeros_like(b) for b in bs]
        bufs = buffers(hidden_layers)
        d_buf = buffers(hidden_layers[-1:])[0] if deep else None
        for p0, p1 in blocks:
            rows = slice(p0 * per_page, p1 * per_page)
            acts, gm, gb = hidden(p0, p1, bufs), gv[rows], g[rows]
            if deep:
                h = acts[-1]
                for e in range(n_experts):  # the last layer read the gate-scaled h
                    d_ws[-1][e] += h[:, e].T @ (gm[:, e, None] * gb)
                d_bs[-1] += gm.T @ gb
                d_act = d_buf[:len(gm)]
                np.matmul(gb, w_last.T, out=d_act.reshape(len(gm), -1))
                d_gamma[rows] = np.einsum("nej,nej->ne", d_act, h)
                d_gamma[rows] += gb @ b_last.T
                d_act *= gm[:, :, None]
                d_act *= h > 0.0
            else:
                d_gamma[rows] = np.einsum("nk,nek->ne", gb, acts[0])
                d_act = gm[:, :, None] * gb[:, None, :]
            for i in range(len(ws) - 2, 0, -1):
                prev, w = acts[i - 1], ws[i]
                d_prev = np.empty_like(prev)
                for e in range(n_experts):
                    d_ws[i][e] += prev[:, e].T @ d_act[:, e]
                    np.matmul(d_act[:, e], w[e].T, out=d_prev[:, e])
                d_bs[i] += d_act.sum(axis=0)
                np.multiply(d_prev, prev > 0.0, out=d_prev)
                d_act = d_prev
            d_first = d_act.reshape(len(gm), n_experts * h1)
            d_first_page = d_first.reshape(p1 - p0, per_page, -1).sum(axis=1)
            d_w1 = np.concatenate([pv[p0:p1].T @ d_first_page, sv[rows].T @ d_first])
            d_ws[0] += d_w1.reshape(-1, n_experts, h1).transpose(1, 0, 2)
            d_bs[0] += d_first_page.sum(axis=0).reshape(n_experts, h1)
            np.matmul(d_first, w1_slot.T, out=d_slot[rows])
            np.matmul(d_first_page, w1_page.T, out=d_page[p0:p1])
        return (d_page, d_slot, d_gamma, *d_ws, *d_bs)

    return _make(out, (page, slot, gamma, *weights, *biases), vjp)


def spatial_attention(q: Tensor, k: Tensor, val: Tensor, bias: Array,
                      factor: Tensor | None = None) -> Tensor:
    """Multi-head attention softmax(logits + bias) @ val in one op.

    q, k, val: (b, B, nm, d_a); bias: an additive key mask, constant,
    broadcast to (b, B, nm, nm); factor: (B, nm, nm) per-head influence
    factors. The logits are softplus(q @ k^T) * factor / sqrt(d_a) with a
    factor, and the plain q @ k^T / sqrt(d_a) without one. Returns
    (b, B, nm, d_a). Of the (b, B, nm, nm) arrays, the graph keeps only the
    attention weights and, with a factor, the softplus output. Refuses
    non-finite logits with a NumericError, as `softmax` does.
    """
    q, k, val = as_tensor(q), as_tensor(k), as_tensor(val)
    qv, kv, vv = q.values, k.values, val.values
    if q.ndim != 4 or k.shape != q.shape or val.shape[:3] != q.shape[:3]:
        raise DimensionError(f"spatial_attention needs (b, B, nm, d) queries, keys and "
                             f"values, got {q.shape}, {k.shape} and {val.shape}")
    scale = 1.0 / math.sqrt(q.shape[-1])
    bias = np.asarray(bias, dtype=qv.dtype)
    logits = qv @ kv.swapaxes(-1, -2)                              # (b, B, nm, nm)
    if factor is None:
        rect = scaled_factor = factor_shape = None
        logits *= scale
        inputs = (q, k, val)
    else:
        factor = as_tensor(factor)
        rect = np.abs(logits)             # softplus, overflow-safe: exp sees only -|x|
        np.negative(rect, out=rect)
        np.exp(rect, out=rect)
        np.log1p(rect, out=rect)
        rect += np.maximum(logits, 0.0)
        scaled_factor, factor_shape = factor.values * scale, factor.shape
        np.multiply(rect, scaled_factor, out=logits)
        inputs = (q, k, val, factor)
    logits += bias
    if not np.all(np.isfinite(logits)):
        raise NumericError("softmax requires finite input")
    attn = logits
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    out = attn @ vv

    def vjp(g):
        d_val = attn.swapaxes(-1, -2) @ g
        d_logits = g @ vv.swapaxes(-1, -2)
        d_logits -= (d_logits * attn).sum(axis=-1, keepdims=True)
        d_logits *= attn
        if rect is None:
            d_raw = d_logits
            d_raw *= scale
            grads = ()
        else:
            d_factor = _unbroadcast(d_logits * rect, factor_shape) * scale
            d_raw = d_logits
            d_raw *= scaled_factor
            slope = np.negative(rect)  # softplus' derivative sigmoid(x) = 1 - exp(-softplus(x))
            np.expm1(slope, out=slope)
            np.negative(slope, out=slope)
            d_raw *= slope
            grads = (d_factor,)
        return (d_raw @ kv, d_raw.swapaxes(-1, -2) @ qv, d_val, *grads)

    return _make(out, inputs, vjp)


def transpose(x: Tensor, *axes) -> Tensor:
    """Permute axes; default swaps the last two."""
    if not axes:
        perm = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        perm = tuple(axes[0])
    else:
        perm = tuple(axes)
    out = np.transpose(x.values, perm)
    inv = tuple(np.argsort(perm))

    def vjp(g):
        return (np.transpose(g, inv),)

    return _make(out, (x,), vjp)


def reshape(x: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = x.values.reshape(shape)
    orig = x.shape

    def vjp(g):
        return (g.reshape(orig),)

    return _make(out, (x,), vjp)


def broadcast_to(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out = np.broadcast_to(x.values, shape)
    except ValueError:
        raise DimensionError(f"cannot broadcast {x.shape} to {shape}") from None
    x_shape = x.shape

    def vjp(g):
        return (_unbroadcast(g, x_shape),)

    return _make(out, (x,), vjp)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), vjp)


def slice_axis(x: Tensor, start: int, stop: int, axis: int) -> Tensor:
    """Entries start:stop of `axis`; backward places g in zeros of x's shape."""
    key = (slice(None),) * (axis % x.ndim) + (slice(start, stop),)
    x_shape, dtype = x.shape, x.values.dtype

    def vjp(g):
        grad = np.zeros(x_shape, dtype)
        grad[key] = g
        return (grad,)

    return _make(x.values[key], (x,), vjp)


def gather(table: Tensor, ids: Array) -> Tensor:
    """Row lookup with id 0 as padding; backward sums into the table rows.

    Id k reads `table[k - 1]`; id 0 reads a constant zero row in front of the
    table, which takes no gradient.
    """
    ids = np.asarray(ids)
    rows = table.shape[0] + 1
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise ContractError(f"gather ids out of range for a padded table of {rows} rows")
    out = table.values[ids - 1]
    out[ids == 0] = 0.0
    row_shape = table.shape[1:]

    def vjp(g):
        # np.bincount adds each cell's terms in order from 0.0, as np.add.at does
        width = math.prod(row_shape)
        cells = ids.astype(np.intp)[..., None] * width + np.arange(width)
        gt = np.bincount(cells.reshape(-1), weights=g.reshape(-1), minlength=rows * width)
        return (gt.astype(g.dtype, copy=False).reshape((rows,) + row_shape)[1:],)

    return _make(out, (table,), vjp)


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.values.sum(axis=axis, keepdims=keepdims)
    shape = x.shape

    def vjp(g):  # a read-only view: no vjp writes into an incoming gradient
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return _make(out, (x,), vjp)


# -- backward pass ----------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate `.grad` on every leaf that a scalar loss depends on.

    A leaf is a tensor that requires grad and that no op made: a parameter,
    or an input built with `requires_grad`. Interior tensors get no `.grad`;
    each interior gradient lives only until its node's vjp has consumed it.
    The graph outlives the call, so repeated calls accumulate into the
    leaves' grads; callers zero them (set to None) between optimization steps.
    """
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")

    root = loss if loss._node is None else loss._node
    topo: list[Node | Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Node | Tensor, bool]] = [(root, False)]
    while stack:
        vertex, processed = stack.pop()
        if processed:
            topo.append(vertex)
            continue
        if id(vertex) in visited:
            continue
        visited.add(id(vertex))
        stack.append((vertex, True))
        if isinstance(vertex, Node):
            for src in vertex.inputs:
                if src is not None and id(src) not in visited:
                    stack.append((src, False))

    local: dict[int, Array] = {id(root): np.ones_like(loss.values)}

    for vertex in reversed(topo):
        g_in = local.pop(id(vertex), None)
        if g_in is None:
            continue
        if isinstance(vertex, Tensor):
            vertex.grad = g_in if vertex.grad is None else vertex.grad + g_in
            continue
        for src, g in zip(vertex.inputs, vertex.vjp(g_in)):
            if g is None or src is None:
                continue
            g = np.asarray(g)
            prev = local.get(id(src))
            local[id(src)] = g if prev is None else prev + g


# -- Adam --------------------------------------------------------------------


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass
class AdamState:
    """Adam optimizer state: learning rate, L2 weight, moments, step counter.

    `l2` couples into the gradient (g <- g + l2 * theta) before the moment
    updates, keeping the loss itself regularization-free.
    """

    lr: float = 2e-4
    l2: float = 0.0
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_step(params: list[Tensor], grads: list[Array], state: AdamState) -> None:
    """One bias-corrected Adam update, in place on `params`."""
    if len(params) != len(grads):
        raise ContractError(f"{len(params)} params vs {len(grads)} grads")
    if not state.m:
        state.m = [np.zeros_like(p.values) for p in params]
        state.v = [np.zeros_like(p.values) for p in params]
    if len(state.m) != len(params):
        raise ContractError(f"optimizer state holds {len(state.m)} moments for {len(params)} params")

    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            g = np.zeros_like(p.values)
        if state.l2:
            g = g + state.l2 * p.values
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.values = p.values - state.lr * m_hat / (np.sqrt(v_hat) + EPS)


def train_step(params: list[Tensor], loss_of: Callable[[Array], Tensor], idx: Array,
               state: AdamState) -> float:
    """One Adam step on the loss of rows `idx`; returns that loss.

    The step's graph is referenced only from this frame, so it is freed when
    the step returns, before the next step's forward builds its own. A
    non-finite loss raises FloatingPointError before any parameter moves.
    """
    for p in params:
        p.grad = None
    loss = loss_of(idx)
    if not np.isfinite(loss.values):
        raise FloatingPointError(f"non-finite loss {float(loss.values)}")
    backward(loss)
    adam_step(params, [p.grad for p in params], state)
    return float(loss.values)


def fit(params: list[Tensor], loss_of: Callable[[Array], Tensor], size: int,
        batch_size: int, epochs: int, rng: np.random.Generator, state: AdamState
        ) -> list[float]:
    """Mini-batch Adam on `params` over `size` rows; the mean loss of each epoch.

    Each epoch takes the rows in the order of one `rng.permutation(size)`,
    `batch_size` at a time, and `loss_of(idx)` is the scalar loss of rows
    `idx`. An epoch's mean weights each step's loss by its row count. A
    non-finite loss, or a FloatingPointError that numpy raises under `par`'s
    np.errstate, stops training with a NumericError naming the epoch and step.
    """
    means: list[float] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(size)
        total = 0.0
        for step, start in enumerate(range(0, size, batch_size), 1):
            idx = order[start:start + batch_size]
            try:
                total += train_step(params, loss_of, idx, state) * len(idx)
            except FloatingPointError as exc:
                raise NumericError(f"{exc} at epoch {epoch}, step {step}") from None
        means.append(total / size)
        _log.info("epoch %d/%d: mean loss %.6f", epoch, epochs, means[-1])
    return means


# -- gradient verification ----------------------------------------------------


@dataclass
class GradCheckReport:
    """Per-parameter max relative error between analytic and numeric grads."""

    tol_rel: float
    per_param: dict[str, float]

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol_rel

    def lines(self) -> list[str]:
        out = []
        for name, err in self.per_param.items():
            status = "ok" if err <= self.tol_rel else "FAIL"
            out.append(f"{status:4s} {name:32s} max_rel_err={err:.3e}")
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"{verdict}: max relative error {self.max_rel_err:.3e} (tol {self.tol_rel:.1e})")
        return out


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def finite_diff_check(model_fn, params: dict[str, Tensor], h: float = 1e-5,
                      tol_rel: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of `model_fn` to central finite differences.

    `model_fn` must rebuild the graph from the current parameter values and
    return the scalar loss tensor; it is re-evaluated 2x per parameter scalar.
    """
    for p in params.values():
        p.grad = None
    loss = model_fn()
    backward(loss)
    analytic = {name: (p.grad if p.grad is not None else np.zeros_like(p.values))
                for name, p in params.items()}

    per_param: dict[str, float] = {}
    for name, p in params.items():
        flat = p.values.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(model_fn().values)
            flat[i] = orig - h
            down = float(model_fn().values)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            worst = max(worst, _rel_err(float(analytic[name].reshape(-1)[i]), numeric))
        per_param[name] = worst
    return GradCheckReport(tol_rel=tol_rel, per_param=per_param)
