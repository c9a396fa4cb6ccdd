"""Cone-shaped query embeddings in the complex plane.

Every query is embedded, per dimension, as a closed circular-sector ("cone")
described by an axis angle in [-pi, pi) and an aperture in [0, 2*pi].
Entities are unit-circle points (aperture-zero cones).  The four geometric
operators map onto the logical connectives:

    existential edge -> per-dimension aperture-additive rotation
    intersection     -> attention over axes + shrunken minimum aperture
    union            -> list of disjunct cones (disjunctive normal form)
    negation         -> the complement cone (axis + pi, 2*pi - aperture)

All operators are written against :mod:`conequery.autodiff` primitives, so the
same code path serves evaluation (plain numpy arrays in, arrays out) and
training (tape-backed tensors in, gradients out).

Batching convention: a ``ConeBatch`` holds an axis array and an aperture array
of shape ``(batch, d)`` (broadcast-compatible shapes also work); a batch mixes
only queries of one structure, so the computation graph is shared.
"""

from __future__ import annotations

import functools
import math
import threading
import types
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .cones import PI, TWO_PI, wrap_angle
from .queries import (
    STRUCTURE_TEMPLATES,
    Intersection,
    Negation,
    Node,
    Nominal,
    Projection,
    Union,
    dnf_disjuncts,
)

__all__ = [
    "PI",
    "TWO_PI",
    "ROTATION_MODES",
    "ConeBatch",
    "EntityPoints",
    "ModelParams",
    "ParameterStore",
    "entity_points",
    "nominal_cone",
    "relation_rotation",
    "project_cone",
    "intersect_cones",
    "negate_cone",
    "embed_query",
    "embed_structure",
    "cone_entity_distance",
    "dnf_entity_distance",
    "margin_loss",
    "batch_loss",
    "param_breakdown",
]

#: How an existential edge changes the aperture: "additive" adds the
#: relation's aperture offset (the default and the ablation winner),
#: "multiplicative" scales by it.
ROTATION_MODES = ("additive", "multiplicative")


class ConeBatch(NamedTuple):
    """Axis/aperture angle arrays (or tensors) of shape (..., d)."""

    axis: object
    aperture: object


# ---------------------------------------------------------------------------
# parameter store
# ---------------------------------------------------------------------------


def _shapes(n_entities: int, n_relations: int, d: int) -> dict[str, tuple[int, ...]]:
    """Every parameter array's shape, in the fixed order that seeding and
    checkpoints rely on: entity angles, relation axis and aperture, the
    intersection network (an attention MLP 2d -> 2d -> d and a DeepSets pair,
    inner 2d -> d -> d and outer d -> d -> d), then the margin."""
    return {
        "entity_axis": (n_entities, d),
        "relation_axis": (n_relations, d),
        "relation_aperture": (n_relations, d),
        "attn_w1": (2 * d, 2 * d),
        "attn_b1": (2 * d,),
        "attn_w2": (2 * d, d),
        "attn_b2": (d,),
        "ds_in_w1": (2 * d, d),
        "ds_in_b1": (d,),
        "ds_in_w2": (d, d),
        "ds_in_b2": (d,),
        "ds_out_w1": (d, d),
        "ds_out_b1": (d,),
        "ds_out_w2": (d, d),
        "ds_out_b2": (d,),
        "margin": (1,),
    }


def _check_sizes(n_entities: int, n_relations: int, d: int) -> None:
    if min(n_entities, n_relations, d) <= 0:
        raise ValueError("n_entities, n_relations, d must be positive")


class ModelParams(types.SimpleNamespace):
    """A view of the parameter arrays, either plain numpy (evaluation) or
    tape-backed tensors (training): ``d``, ``rotation_mode`` and one
    attribute per trainable ``_shapes`` name.  Produced by
    ``ParameterStore.tensors``."""


class ParameterStore:
    """Owns every parameter array of one model instance, shaped and ordered
    by ``_shapes``:

    - ``entity_axis``        entity point angles, raw; wrapped into
      [-pi, pi) on read
    - ``relation_axis``      rotation angles, raw; wrapped
    - ``relation_aperture``  aperture offsets, raw; read through absolute
      value so the offset is always >= 0
    - intersection-network weights (Glorot-uniform) and biases (zero)
    - ``margin``             the fixed loss margin, carried with the
      parameters (and counted in audits) but never updated by the optimizer
    """

    def __init__(self, n_entities: int, n_relations: int, d: int, *,
                 seed: int = 0, rotation_mode: str = "additive",
                 margin: float = 20.0):
        if rotation_mode not in ROTATION_MODES:
            raise ValueError(f"rotation_mode must be one of {ROTATION_MODES}")
        _check_sizes(n_entities, n_relations, d)
        self.n_entities = int(n_entities)
        self.n_relations = int(n_relations)
        self.d = int(d)
        self.rotation_mode = rotation_mode
        rng = np.random.default_rng(seed)
        self.arrays: dict[str, np.ndarray] = {}
        for name, shape in _shapes(self.n_entities, self.n_relations, self.d).items():
            if name in ("entity_axis", "relation_axis"):
                self.arrays[name] = rng.uniform(-PI, PI, size=shape)
            elif name == "relation_aperture":
                self.arrays[name] = rng.uniform(0.0, PI / 16.0, size=shape)
            elif name == "margin":
                self.arrays[name] = np.full(shape, float(margin))
            elif name.endswith(("b1", "b2")):
                self.arrays[name] = np.zeros(shape)
            else:
                bound = math.sqrt(6.0 / (shape[0] + shape[1]))
                self.arrays[name] = rng.uniform(-bound, bound, size=shape)

    @property
    def margin(self) -> float:
        return float(self.arrays["margin"][0])

    def trainable_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.arrays if n != "margin")

    def tensors(self, tape: ad.Tape | None = None) -> ModelParams:
        """Plain-array view (tape=None) or tape-leaf view for a train step.

        When a tape is given, each trainable array becomes a leaf tensor;
        after ``tape.backward`` its ``.grad`` aligns with the stored array.
        """
        view: dict[str, object] = {}
        for name in self.trainable_names():
            view[name] = tape.leaf(self.arrays[name]) if tape else self.arrays[name]
        return ModelParams(d=self.d, rotation_mode=self.rotation_mode, **view)


# ---------------------------------------------------------------------------
# geometric operators
# ---------------------------------------------------------------------------


class EntityPoints(NamedTuple):
    """Unit-circle points: ``cos`` and ``sin`` arrays of shape (..., d), and
    where the distance sends their gradient.

    ``table`` is an array or tape tensor of angles.  With ``ids``, the points
    are its rows ``ids`` (wrapped, see ``entity_points``) and their gradient
    is scatter-added into it; with ``ids`` None, ``table`` holds the (..., d)
    angles themselves.
    """

    table: object
    ids: np.ndarray | None
    cos: np.ndarray
    sin: np.ndarray


def _as_points(entity) -> EntityPoints:
    """EntityPoints as given; bare angles get their cos and sin."""
    if isinstance(entity, EntityPoints):
        return entity
    values = ad.values_of(entity)
    return EntityPoints(entity, None, np.cos(values), np.sin(values))


def _checked_ids(table, ids, kind: str) -> np.ndarray:
    """``ids`` as int64, each a row of ``table``."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= ad.values_of(table).shape[0]):
        raise ValueError(f"{kind} id out of range")
    return ids


def _entity_points(m: ModelParams, *id_arrays, pooled: bool = False) -> list[EntityPoints]:
    """``entity_points`` of each id array, wrapping and taking the cos and
    sin of each distinct row among all of them once.  With ``pooled``, the
    per-id cos and sin are ``_workspace`` views, for a caller that keeps them
    inside one step."""
    table = ad.values_of(m.entity_axis)
    ids = [_checked_ids(m.entity_axis, x, "entity") for x in id_arrays]
    seen = np.zeros(table.shape[0], dtype=bool)
    for x in ids:
        seen[x] = True
    rows = np.flatnonzero(seen)
    slot = np.empty(table.shape[0], dtype=np.int64)  # table row -> index in rows
    slot[rows] = np.arange(rows.size)

    def per_id(values, name):  # one coordinate of the distinct rows, per id array
        # mode "clip" (the ids are in range) lets take write into out unbuffered
        return [np.take(values, slot[x], axis=0, mode="clip",
                        out=_workspace(f"{name}{k}", x.shape + values.shape[1:])
                        if pooled else None)
                for k, x in enumerate(ids)]

    angles = wrap_angle(table[rows])  # a fresh array, so its sin may overwrite it
    cos = per_id(np.cos(angles), "cos")
    sin = per_id(np.sin(angles, out=angles), "sin")
    return [EntityPoints(m.entity_axis, x, c, s) for x, c, s in zip(ids, cos, sin)]


def entity_points(m: ModelParams, entity_ids) -> EntityPoints:
    """Unit-circle points for entity ids: the cos and sin of their wrapped
    angles, taken once per distinct id.  No gathered angle array is built;
    the distance scatter-adds the points' gradient into ``m.entity_axis``."""
    return _entity_points(m, entity_ids)[0]


def nominal_cone(m: ModelParams, entity_ids) -> ConeBatch:
    """The singleton set {e}: a cone at the entity's angles with aperture 0."""
    ids = _checked_ids(m.entity_axis, entity_ids, "entity")
    axis = ad.wrap(ad.gather(m.entity_axis, ids))
    return ConeBatch(axis, np.zeros(ad.values_of(axis).shape))


def relation_rotation(m: ModelParams, relation_ids) -> tuple[object, object]:
    """Axis shift (wrapped) and nonnegative aperture offset for relation ids."""
    ids = _checked_ids(m.relation_axis, relation_ids, "relation")
    rot_axis = ad.wrap(ad.gather(m.relation_axis, ids))
    rot_aperture = ad.absval(ad.gather(m.relation_aperture, ids))
    return rot_axis, rot_aperture


def project_cone(m: ModelParams, cone: ConeBatch, relation_ids) -> ConeBatch:
    """Existential edge traversal: rotate the axis, widen the aperture.

    Additive mode adds the relation aperture offset and clamps to [0, 2*pi];
    multiplicative mode scales the aperture by the (nonnegative) offset
    instead.  Both keep the invariants axis in [-pi, pi), aperture in
    [0, 2*pi].
    """
    rot_axis, rot_aperture = relation_rotation(m, relation_ids)
    axis = ad.wrap(ad.add(cone.axis, rot_axis))
    if m.rotation_mode == "additive":
        aperture = ad.clamp(ad.add(cone.aperture, rot_aperture), 0.0, TWO_PI)
    else:
        aperture = ad.clamp(ad.multiply(cone.aperture, rot_aperture), 0.0, TWO_PI)
    return ConeBatch(axis, aperture)


def _mlp(x, w1, b1, w2, b2):
    hidden = ad.relu(ad.add(ad.matmul(x, w1), b1))
    return ad.add(ad.matmul(hidden, w2), b2)


def intersect_cones(m: ModelParams, cones: Sequence[ConeBatch]) -> ConeBatch:
    """Intersection of >= 2 cones.

    The axis is the argument of an attention-weighted sum of the input axis
    unit vectors; the attention weights are a per-dimension softmax (across
    inputs) of an MLP over each cone's boundary angles.  The aperture is the
    per-dimension minimum input aperture scaled by a sigmoid factor in (0,1)
    from a DeepSets network, so it never exceeds any input aperture.  Both
    parts are order-independent by construction.

    The k inputs are stacked, so their axes (and their apertures) must share
    one (batch, d) shape; each network then runs once over all k * batch
    rows.
    """
    if len(cones) < 2:
        raise ValueError("intersection needs at least 2 inputs")
    axes = ad.stack([c.axis for c in cones], axis=0)  # (k, batch, d)
    half = ad.multiply(ad.stack([c.aperture for c in cones], axis=0), 0.5)
    # per input row: its lower-boundary angles, then its upper-boundary ones
    feats = ad.concat((ad.subtract(axes, half), ad.add(axes, half)), axis=-1)
    stacked = ad.values_of(feats).shape[:-1] + (m.d,)
    rows = ad.reshape(feats, (-1, 2 * m.d))

    scores = ad.reshape(_mlp(rows, m.attn_w1, m.attn_b1, m.attn_w2, m.attn_b2), stacked)
    attn = ad.softmax(scores, axis=0)  # convex across inputs
    x = ad.total(ad.multiply(attn, ad.cos(axes)), axis=0)
    y = ad.total(ad.multiply(attn, ad.sin(axes)), axis=0)
    axis = ad.wrap(ad.atan2(y, x))

    inner = _mlp(rows, m.ds_in_w1, m.ds_in_b1, m.ds_in_w2, m.ds_in_b2)
    pooled = ad.mean(ad.reshape(inner, stacked), axis=0)
    factor = ad.sigmoid(_mlp(pooled, m.ds_out_w1, m.ds_out_b1, m.ds_out_w2, m.ds_out_b2))
    min_aperture = cones[0].aperture
    for c in cones[1:]:
        min_aperture = ad.minimum(min_aperture, c.aperture)
    return ConeBatch(axis, ad.multiply(min_aperture, factor))


def negate_cone(cone: ConeBatch) -> ConeBatch:
    """The complement cone: opposite axis, complementary aperture.

    An exact involution: wrapping the axis twice by pi returns the original
    angle, and 2*pi - (2*pi - ap) = ap.
    """
    axis = ad.wrap(ad.add(cone.axis, PI))
    aperture = ad.subtract(TWO_PI, cone.aperture)
    return ConeBatch(axis, aperture)


# ---------------------------------------------------------------------------
# query embedding along the computation graph
# ---------------------------------------------------------------------------


def _embed_node(m: ModelParams, node: Node, anchor_ids, relation_ids) -> ConeBatch:
    if isinstance(node, Nominal):
        return nominal_cone(m, anchor_ids(node.entity))
    if isinstance(node, Projection):
        child = _embed_node(m, node.child, anchor_ids, relation_ids)
        return project_cone(m, child, relation_ids(node.relation))
    if isinstance(node, Intersection):
        return intersect_cones(
            m, [_embed_node(m, c, anchor_ids, relation_ids) for c in node.children]
        )
    if isinstance(node, Negation):
        return negate_cone(_embed_node(m, node.child, anchor_ids, relation_ids))
    if isinstance(node, Union):
        raise ValueError("unions must be at the root; rewrite to DNF first")
    raise ValueError(f"unknown AST node: {node!r}")


#: Each structure template's DNF disjuncts, rewritten once.
_DISJUNCTS: dict[str, tuple[Node, ...]] = {
    tag: tuple(dnf_disjuncts(template)) for tag, template in STRUCTURE_TEMPLATES.items()
}


def embed_query(m: ModelParams, ast: Node) -> list[ConeBatch]:
    """Embed one grounded query; returns the disjunct cones (batch size 1).

    The AST is rewritten to disjunctive normal form internally, so unions
    appear only as the length of the returned list.
    """
    return [
        _embed_node(m, d, lambda e: np.array([e]), lambda r: np.array([r]))
        for d in dnf_disjuncts(ast)
    ]


def embed_structure(m: ModelParams, tag: str, anchors, relations) -> list[ConeBatch]:
    """Embed a batch of same-structure queries from id matrices.

    ``anchors`` is (batch, n_anchor_slots), ``relations`` (batch,
    n_relation_slots); returns one (batch, d) ConeBatch per DNF disjunct.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    return [
        _embed_node(m, node, lambda e: anchors[:, e], lambda r: relations[:, r])
        for node in _DISJUNCTS[tag]
    ]


# ---------------------------------------------------------------------------
# distances and the training objective
# ---------------------------------------------------------------------------


#: Size of one scratch temporary of the distance kernel.  Where cones
#: broadcast against many entity rows, the rows are processed in tiles this
#: size, so no (batch, entities, d) array is ever allocated.  The forward
#: keeps up to eight such temporaries (two buffers, six repeated cone
#: operands); in ranking, this 2 MB working set measured faster than the
#: 8 MB that 1 MB tiles make.  A taped forward's two buffers and the VJP's
#: three come from ``_workspace``; taken from there, ranking's two measured
#: slower in evaluation, so an untaped forward allocates its own.
#: Ranking (``evaluation``) sizes each of its blocks by it too.
_TILE_BYTES = 1 << 18

#: The largest buffer ``_workspace`` keeps.  It sits above every buffer the
#: benchmark workloads request (wide-mix's (b, n, d) arrays are 2 MiB) and
#: below the paper default's 400 MiB (b, n, d) arrays: at that size a step
#: takes seconds, so faulting its arrays in again costs little, while
#: keeping them raised its peak RSS by about 670 MB.
_WORKSPACE_CAP = 64 << 20

_workspace_cache = threading.local()


def _workspace(key: str, shape) -> np.ndarray:
    """An uninitialised float64 array of ``shape``: a view into this
    thread's buffer for ``key``, grown to the key's largest request and kept
    from one training step to the next, so the step's large arrays are not
    freed and faulted in again.  The view is valid until the thread's next
    request for ``key``; no op lets one escape (return values and ``.grad``
    arrays are fresh).  A request over ``_WORKSPACE_CAP`` bytes gets a fresh
    array instead, freed with its last reference.  ``_drop_workspace`` frees
    the thread's buffers."""
    size = math.prod(shape)
    if size * 8 > _WORKSPACE_CAP:
        return np.empty(shape)
    pool = vars(_workspace_cache).setdefault("pool", {})
    buf = pool.get(key)
    if buf is None or buf.size < size:
        buf = pool[key] = np.empty(size)
    return buf[:size].reshape(shape)


def _drop_workspace() -> None:
    """Free this thread's ``_workspace`` buffers."""
    vars(_workspace_cache).pop("pool", None)


@functools.lru_cache(maxsize=None)
def _ones(width: int, dtype) -> np.ndarray:
    """A read-only ones vector, built once per (width, dtype)."""
    ones = np.ones(width, dtype)
    ones.flags.writeable = False
    return ones


def _chord_l1(cos_a, sin_a, cos_b, sin_b, buf, tmp):
    """Sum over the trailing axis of |cos a - cos b| + |sin a - sin b|, the L1
    distance between unit-circle points, through two contiguous scratch
    buffers shaped like the broadcast of the operands.  Float32 rows are
    summed by a ones matvec: there numpy's ``sum`` over a short trailing axis
    measured as slow as in float64."""
    np.abs(np.subtract(cos_a, cos_b, out=buf), out=buf)
    np.abs(np.subtract(sin_a, sin_b, out=tmp), out=tmp)
    np.add(buf, tmp, out=buf)
    if buf.dtype == np.float64:
        return buf.sum(axis=-1)
    width = buf.shape[-1]
    return (buf.reshape(-1, width) @ _ones(width, buf.dtype)).reshape(buf.shape[:-1])


#: A float64 tile of ``_tiled_distance`` skips its axis chords p_a when
#: every pair has p_u > fl(_FAR * p_ua): then every computed p_a exceeds
#: p_ua, so the inside min takes p_ua, as the skipped chords would have shown.
#:
#: The three chords are L1 distances between points of R^2d, the float64
#: trig of the upper boundary U, the axis A and the entity E, so the exact
#: chords over those values keep the triangle inequality P_a >= P_u - P_ua.
#: A computed chord sums 2d terms |a - b| >= 0, each rounded once by the
#: subtraction, once by the pair add and at most d - 1 times by the row sum,
#: in whatever order (sums and differences incur no underflow error), so it
#: lies within g P of its exact P, with g = g_{d+1} = (d + 1) u / (1 - (d +
#: 1) u) and u = 2^-53 (Higham, §4.2).  Then p_a >= (1 - g) P_a >= (1 - g)
#: (p_u / (1 + g) - p_ua / (1 - g)), which is above p_ua whenever p_u > 2 (1
#: + g) / (1 - g) p_ua = 2 p_ua / (1 - 2 (d + 1) u).  For d < 2^31 that
#: factor is at most 2 / (1 - 2^-21).  The test gives p_u > (1 - u) _FAR p_ua
#: = 2 (1 + 2^-20) (1 - u) p_ua, which is larger: where the product is
#: normal it rounds by at most u, and below 2^-1021, where doubles are
#: 2^-1074 apart, by half that spacing, which p_u, a larger double, clears.
#: NaN chords fail the test, so their tiles take every chord.
_FAR = 2.0 * (1.0 + 2.0 ** -20)


def _cone_trig(axis, aperture):
    """cos and sin of a cone's upper boundary, lower boundary and axis."""
    half = aperture * 0.5
    upper, lower = axis + half, axis - half
    return [np.cos(upper), np.sin(upper), np.cos(lower), np.sin(lower),
            np.cos(axis), np.sin(axis)]


def _tiles(full, itemsize):
    """Entity rows per tile and the tiles' row spans, for operands that
    broadcast to ``full`` (rank >= 2, entity rows on axis -2) and hold
    ``itemsize``-byte values."""
    rows, width = full[-2], full[-1]
    outer = math.prod(full[:-2])
    tile = min(rows, max(1, _TILE_BYTES // (itemsize * max(1, outer * width))))
    return tile, [slice(lo, min(lo + tile, rows)) for lo in range(0, rows, tile)]


def _rows_of(x, span, rows):
    """A (..., rows, d) operand's share of one tile."""
    if x.shape[-2] == rows:
        return x[..., span, :]
    return x[..., :span.stop - span.start, :]  # identical rows: any will do


def _tiled_distance(trig, ce, se, lam, take=None):
    """outside + lam * inside over entity-row tiles, in the dtype of ``ce``;
    with ``lam`` None, the outside term alone.

    ``trig`` is a cone's ``_cone_trig`` (with ``lam`` None, its first four
    arrays, the boundaries') and ``ce``/``se`` the entity cos and sin, all
    of one rank >= 2 with the entity rows on axis -2.  ``take``, when given
    (a taped forward, whose tile buffers come from ``_workspace``), is two
    boolean arrays shaped like the result; they receive where the outside
    min took the upper boundary and the inside min the axis.  A tile whose
    pairs are all far from the cone (see ``_FAR``, whose bound is float64's:
    float32 callers take the outside term alone) takes no axis chord.
    """
    full = np.broadcast_shapes(trig[0].shape, ce.shape)
    rows, width = full[-2], full[-1]
    tile, spans = _tiles(full, ce.itemsize)
    if lam is not None:
        cu, su, _, _, ca, sa = trig
        p_ua = _chord_l1(cu, su, ca, sa, np.empty(cu.shape, ce.dtype),
                         np.empty(cu.shape, ce.dtype))

    def cols_of(x, span):  # a (..., rows) distance array's share of one tile
        return x if x.shape[-1] == 1 else x[..., span]

    def tiled(x):  # with several tiles, a one-row cone operand is repeated
        # to a tile's rows once, so each tile's ops run without broadcasting
        return np.repeat(x, tile, axis=-2) if x.shape[-2] == 1 < tile < rows else x

    out = np.empty(full[:-1], ce.dtype)
    cone_trig = [tiled(x) for x in trig]
    buf = None
    for span in spans:
        if buf is None or buf.shape[-2] != span.stop - span.start:
            shape = full[:-2] + (span.stop - span.start, width)
            buf, tmp = ((np.empty(shape, ce.dtype) if take is None
                         else _workspace(f"tile{i}", shape)) for i in range(2))
        ce_t, se_t = _rows_of(ce, span, rows), _rows_of(se, span, rows)
        cu_t, su_t, cl_t, sl_t, *axis_t = (_rows_of(x, span, rows) for x in cone_trig)
        p_u = _chord_l1(cu_t, su_t, ce_t, se_t, buf, tmp)
        p_l = _chord_l1(cl_t, sl_t, ce_t, se_t, buf, tmp)
        tu = p_u <= p_l
        if lam is None:
            out[..., span] = np.where(tu, p_u, p_l)
            continue
        p_ua_t = cols_of(p_ua, span)
        if np.all(p_u > p_ua_t * _FAR):  # every p_a > p_ua: the inside min is p_ua
            ta, inside = False, p_ua_t
        else:
            p_a = _chord_l1(*axis_t, ce_t, se_t, buf, tmp)
            ta = p_a <= p_ua_t
            inside = np.where(ta, p_a, p_ua_t)
        out[..., span] = np.where(tu, p_u, p_l) + inside * lam
        if take is not None:
            take[0][..., span] = tu
            take[1][..., span] = ta
    return out


def _cone_distance(trig, axis_shape, aperture_shape, cos, sin, lam: float,
                   taped: bool, need_ent: bool, ent_key: str | None = None):
    """One cone's distances to the entity points ``cos``/``sin`` (the cone
    given by its ``_cone_trig`` and the shapes of its axis and aperture) and,
    when ``taped``, the VJP that maps their gradient to the axis, aperture and
    (when ``need_ent``) entity-angle gradients, the last shaped like ``cos``;
    else None in place of the VJP.  With ``ent_key``, the entity gradient is
    written into that ``_workspace`` buffer."""
    shape = np.broadcast_shapes(trig[0].shape, cos.shape)
    nd = max(len(shape), 2)

    def pad(x):
        return x.reshape((1,) * (nd - x.ndim) + x.shape)

    full = (1,) * (nd - len(shape)) + shape
    cu, su, cl, sl, ca, sa = trig = [pad(x) for x in trig]
    ce, se = pad(cos), pad(sin)
    cone_shape = cu.shape
    rows, width = full[-2], full[-1]
    tile, spans = _tiles(full, ce.itemsize)
    take_u = np.empty(full[:-1], dtype=bool) if taped else None
    take_a = np.empty(full[:-1], dtype=bool) if taped else None
    out = _tiled_distance(trig, ce, se, lam, (take_u, take_a) if taped else None)
    if not taped:
        return out.reshape(shape[:-1]), None

    def rows_of(x, span):
        return _rows_of(x, span, rows)

    def vjp(g):
        g = g.reshape(full[:-1])
        # weights[..., j, r]: row r's weight on term j (upper, lower, axis)
        weights = np.stack((g * take_u, g * ~take_u, g * lam * take_a), axis=-2)
        gather = cone_shape[-2] == 1 < tile  # sum a tile's rows for the one cone row
        prod = np.empty(full[:-2] + (3, width)) if gather else None
        # per term (upper, lower, axis), the gradient through its angle:
        # cos * (weighted sin signs) - sin * (weighted cos signs), tile by tile
        trig = ((cu, su), (cl, sl), (ca, sa))
        g_cone = [np.zeros(cone_shape) for _ in trig]
        g_ent = None
        if need_ent:
            g_ent = np.empty(full) if ent_key is None else _workspace(ent_key, full)
        bufs = [_workspace(f"vjp{i}", full[:-2] + (tile, width)) for i in range(3)]
        for span in spans:
            diff, s_o, s_a = (b[..., :span.stop - span.start, :] for b in bufs)
            w_t = weights[..., span]
            tu = take_u[..., span, None]
            # where the inside min never took the axis, its terms add only +-0
            axis = take_a[..., span].any()
            # one-row operands, not the forward's repeats: measured faster here
            cone_t = [rows_of(x, span) for x in (cu, su, cl, sl, ca, sa)]
            for k in (1, 0):  # sin first: it writes the entity tile, cos completes it
                e_t = rows_of((ce, se)[k], span)
                # one sign for the boundary the outside min took, one for the
                # axis; sign whose output aliases its input runs about 4x slower
                np.copyto(diff, cone_t[2 + k])
                np.copyto(diff, cone_t[k], where=tu)
                np.sign(np.subtract(diff, e_t, out=diff), out=s_o)
                signs = [(s_o, (0, 1))]
                if axis:
                    np.sign(np.subtract(cone_t[4 + k], e_t, out=diff), out=s_a)
                    signs.append((s_a, (2,)))
                for sign, terms in signs:
                    if gather:  # 3 weight rows: 1 would run gemv, which sums in another order
                        np.matmul(w_t, sign, out=prod)
                    for j in terms:
                        part = prod[..., j, None, :] if gather else sign * w_t[..., j, :, None]
                        g_j = rows_of(g_cone[j], span)
                        if k:
                            g_j += rows_of(trig[j][0], span) * ad._unbroadcast(part, g_j.shape)
                        else:
                            g_j -= rows_of(trig[j][1], span) * ad._unbroadcast(part, g_j.shape)
                if need_ent:  # this coordinate's share of the entity gradient
                    np.multiply(s_o, g[..., span, None], out=s_o)
                    if axis:
                        s_o += np.multiply(s_a, w_t[..., 2, :, None], out=s_a)
                    g_t = g_ent[..., span, :]
                    if k:  # ce * acc_s, which the cos pass subtracts
                        np.multiply(rows_of(ce, span), s_o, out=g_t)
                    else:  # se * acc_c - ce * acc_s
                        np.subtract(np.multiply(rows_of(se, span), s_o, out=s_o), g_t, out=g_t)
        g_u, g_l, g_a = g_cone
        # the cone-only upper-to-axis term of the inside min
        w = ad._unbroadcast(g * lam * ~take_a, cone_shape[:-1])[..., None]
        sc, ss = np.sign(cu - ca) * w, np.sign(su - sa) * w
        g_u += cu * ss - su * sc
        g_a += sa * sc - ca * ss
        return (ad._unbroadcast(g_u + g_l + g_a, axis_shape),
                ad._unbroadcast((g_u - g_l) * 0.5, aperture_shape),
                ad._unbroadcast(g_ent, ce.shape).reshape(cos.shape) if need_ent else None)

    return out.reshape(shape[:-1]), vjp


def _dnf_distance(cones: Sequence[ConeBatch], trigs, points: EntityPoints, lam: float,
                  reuse_cos: bool = False):
    """``dnf_entity_distance`` of ``cones`` to ``points``, with each cone's
    ``_cone_trig`` given in ``trigs``: one fused op over every disjunct.

    With ``reuse_cos`` (the points' cos is a ``_workspace`` buffer that only
    this op reads), the VJP writes the entity scatter's flat index over it
    once every disjunct's VJP has read it, so the step allocates no index.
    """
    lam = float(lam)
    cos, sin = (np.asarray(x, dtype=np.float64) for x in (points.cos, points.sin))
    ids, table = points.ids, points.table  # so the VJP keeps no cos/sin alive
    flat = cos.reshape(-1).view(np.int64) if reuse_cos and ids is not None else None
    # the disjuncts last first, as the VJP visits them: the order in which a
    # chain of ad.minimum over one op per disjunct reached them
    inputs = (*(x for c in reversed(cones) for x in c), table)
    taped = any(isinstance(x, ad.Tensor) for x in inputs)
    need_ent = isinstance(table, ad.Tensor)
    outs, vjps = [], []
    for k, (c, trig) in enumerate(zip(cones, trigs)):
        # scattered into the table, the entity gradients never leave the VJP:
        # the last disjunct's, which the VJP visits first, is the accumulator
        key = None if ids is None else ("ent_grad" if k == len(cones) - 1 else "ent_grad_part")
        out, cone_vjp = _cone_distance(trig, ad.values_of(c.axis).shape,
                                       ad.values_of(c.aperture).shape, cos, sin, lam,
                                       taped, need_ent, key)
        outs.append(out)
        vjps.append(cone_vjp)
    dist, takes, shapes = outs[0], [], []
    for out in outs[1:]:
        shapes.append(dist.shape)
        takes.append(dist <= out)  # ad.minimum's choice: ties to the earlier disjunct
        dist = np.where(takes[-1], dist, out)

    def vjp(g):
        grads, g_ent = [], None
        for k in reversed(range(len(outs))):
            g_k = g
            if k:  # ad.minimum's pulls, in the chain's order
                g_k = ad._unbroadcast(g * ~takes[k - 1], outs[k].shape)
                g = ad._unbroadcast(g * takes[k - 1], shapes[k - 1])
            # popped, so each disjunct's forward arrays are freed once used
            g_axis, g_aperture, g_e = vjps.pop()(g_k)
            grads += (g_axis, g_aperture)
            if need_ent:
                g_ent = g_e if g_ent is None else np.add(g_ent, g_e, out=g_ent)
        if need_ent and ids is not None:
            g_ent = ad.scatter_rows(g_ent, ids, table.values.shape, flat)
        return (*grads, g_ent)

    return ad.fused(dist, inputs, vjp)


def cone_entity_distance(cone: ConeBatch, entity, lam: float):
    """Combined outside+inside distance between cones and entity points.

    outside = min(L1 to the upper boundary, L1 to the lower boundary);
    inside  = min(L1 to the axis, L1 between upper boundary and axis);
    combined = outside + lam * inside, where L1 is the distance between
    unit-circle points summed over all 2d real coordinates.  Shapes
    broadcast; the trailing axis is reduced.

    ``entity`` is ``EntityPoints`` (see ``entity_points``), whose cos/sin
    are used as given, or bare angles, whose cos/sin are computed here.
    One fused autodiff op (see ``autodiff`` for its subgradient conventions
    and where the entity gradient goes): the entity rows (the second-to-last
    axis of the broadcast) are processed in tiles of at most ``_TILE_BYTES``
    per temporary.  A tile in which every pair has L1(upper, e) > ``_FAR``
    * L1(upper, axis), with ``_FAR`` = 2 (1 + 2^-20), takes no L1(axis, e):
    the triangle inequality, with the float64 rounding of both chords
    bounded (see ``_FAR``), proves the inside min takes the other term.
    The VJP takes one sign per coordinate of the boundary the outside min
    chose and, in tiles where the inside min took the axis anywhere, one of
    the axis, in tile buffers reused per thread; where one cone row serves
    every entity row, a matmul sums the cone's share over the rows.  The
    skipped work adds only zeros, so values and gradients are the same
    floats.  Tape inputs and plain arrays take the same path.
    """
    return dnf_entity_distance([cone], entity, lam)


def dnf_entity_distance(disjuncts: Sequence[ConeBatch], entity, lam: float):
    """Distance to a DNF embedding: the minimum over the disjunct cones, a
    tie going to the earlier one.  ``entity`` is as in
    ``cone_entity_distance``; its cos/sin serve every disjunct.  One fused
    op: the disjuncts' entity gradients are summed, the last disjunct's
    first, before one scatter into the entity table."""
    if not disjuncts:
        raise ValueError("a DNF embedding needs at least one disjunct")
    trigs = [_cone_trig(ad.values_of(c.axis), ad.values_of(c.aperture)) for c in disjuncts]
    return _dnf_distance(disjuncts, trigs, _as_points(entity), lam)


def margin_loss(pos_dist, neg_dist, margin: float):
    """-log sigmoid(margin - d_pos) - (1/k) sum_i log sigmoid(d_neg_i - margin),
    averaged over the batch.  ``pos_dist`` is (batch,), ``neg_dist`` (batch, k).
    Each log sigmoid is ``ad.log_sigmoid``, so a distance far beyond the
    margin (as an untrained store's are at the default d = 800) still has
    loss about d_pos - margin and gradient about 1.
    """
    if ad.values_of(neg_dist).shape[-1] < 1:
        raise ValueError("need at least one negative sample")
    pos_term = ad.log_sigmoid(ad.subtract(float(margin), pos_dist))
    neg_term = ad.mean(ad.log_sigmoid(ad.subtract(neg_dist, float(margin))), axis=-1)
    return ad.multiply(ad.mean(ad.add(pos_term, neg_term)), -1.0)


def batch_loss(m: ModelParams, tag: str, anchors, relations, positives, negatives,
               lam: float, margin: float):
    """The training objective of one single-structure batch: embed the
    queries, score each against its positive, widen every disjunct to
    (batch, 1, d) to score it against its (batch, k) negatives, and return
    the margin loss.  Training and the full-loss gradient audit both run it.

    Bit for bit, values and gradients alike, this is ``entity_points`` then
    ``dnf_entity_distance`` for the positives and again for the negatives;
    it takes the trig of each distinct entity row and of each disjunct's
    cone once for both.  The points' cos and sin are ``_workspace`` views
    that the distances' VJPs read (and then write their scatter index over),
    so on a tape, run its backward before this thread's next ``batch_loss``.
    """
    size = positives.shape[0]
    disjuncts = embed_structure(m, tag, anchors, relations)
    trigs = [_cone_trig(ad.values_of(c.axis), ad.values_of(c.aperture)) for c in disjuncts]
    pos, neg = _entity_points(m, positives, negatives, pooled=True)
    pos_dist = _dnf_distance(disjuncts, trigs, pos, lam, reuse_cos=True)
    wide = [ConeBatch(ad.reshape(c.axis, (size, 1, m.d)),
                      ad.reshape(c.aperture, (size, 1, m.d)))
            for c in disjuncts]
    neg_dist = _dnf_distance(wide, [[x[:, None] for x in trig] for trig in trigs], neg, lam,
                             reuse_cos=True)
    return margin_loss(pos_dist, neg_dist, margin)


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------


def param_breakdown(n_entities: int, n_relations: int, d: int) -> dict[str, int]:
    """Itemized scalar-parameter count of a ``ParameterStore``, summed from
    ``_shapes`` (no arrays are allocated): entity angles; relation axis and
    aperture; the intersection net (11 d^2 + 7 d); the stored margin."""
    _check_sizes(n_entities, n_relations, d)
    size = {name: math.prod(s) for name, s in _shapes(n_entities, n_relations, d).items()}
    entity, axis, aperture, margin = (size.pop(name) for name in (
        "entity_axis", "relation_axis", "relation_aperture", "margin"))
    parts = {
        "entity_angles": entity,
        "relation_angles": axis + aperture,
        "intersection_net": sum(size.values()),
        "margin_scalar": margin,
    }
    parts["total"] = sum(parts.values())
    return parts
