"""Lazily generated Bass-Serre tree of an HNN extension.

Vertices are the cosets g L of the base group; an oriented edge g H runs from
g L to g t L, so every vertex has one outgoing edge per H-coset and one
incoming edge per K-coset.  A vertex is named by its backtrack-free path word
from the base vertex, a sequence of coset-representative steps, held as a
cons cell: a label holds its parent's label, its last step, its depth and a
hash made once from the parent's hash and that step.  This is hash-consing
(Filliatre and Conchon, "Type-safe modular hash-consing", ML Workshop 2006)
without the table: a step costs one cell and one small hash at any depth,
labels that share a prefix share its cells, equal paths hash equal whatever
built them, and the tree metric is a climb to the deepest common ancestor.

A word moves a vertex by one walk, ``_walk``, which splits each base element
by ``_split_right`` into a left-coset representative (the next step) and a
subgroup part carried across the stable letter, and pops back to the parent
where the word leads back; the steps it pushes become cells only if it
returns them.  The descent to Min gamma reads its one candidate step per
level off the same split.  Only ``base_vertex`` and ``_child`` make cells;
the public constructor is a walk of ``_child`` steps, each checked by the
canonical-representative and backtrack rules.

``ball`` and ``fixed_subtree`` are one walk over a fixed set, by classes of
vertices, not by vertices: whether a child of a fixed vertex v is fixed
depends only on v's conjugate v^-1 gamma v and the sign of v's last step
(Serre, *Trees*, I.6.4).  A central conjugate is its own conjugate by every
representative, so the child test runs once per class and sign, and a
class's children are counted by the transversal's size.  The ball is the
fixed set of the identity, walked from the base vertex; ``fixed_subtree``
walks from the end of the descent.  The walk counts each level by classes
first, which gives the exact size, and refuses a request past the vertex or
path-step limit of ``calculus._LIMITS`` before any representative is listed
or any label is built.  Then it extends the cells level by level, in BFS
order, each vertex by its class's row of steps.  No walk lists the steps of
every edge of a vertex, so the tree's degree costs nothing until the
vertices of a request are built.

Isometries are classified through the cyclic core: a word with trivial core
fixes a vertex, otherwise it translates along an axis by the core's
stable-letter length.  The minimum displacement is also found without the
core, by a descent from the base vertex towards Min gamma (the fixed subtree
or the axis), so the identity between the two is a tested theorem rather than
an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional

from .calculus import (
    BaseOracle,
    HnnWord,
    VerificationError,
    _LIMITS,
    _core,
    _more_than,
    _peel,
    _reduced_word,
    _same_oracle,
    _unpinch,
    base_word,
    britton_reduce,
    format_word,
    inv,
)
from .bs import make_bs

__all__ = [
    "ELLIPTIC",
    "HYPERBOLIC",
    "VertexLabel",
    "EdgeRef",
    "IsometryClass",
    "DeltaPoint",
    "NotEllipticError",
    "NotHyperbolicError",
    "TrivialElementError",
    "base_vertex",
    "label_str",
    "neighbors",
    "to_vertex_label",
    "act",
    "distance",
    "ball",
    "classify",
    "min_displacement_bfs",
    "fixed_subtree",
    "unbounded_fixed_witness_bs",
    "center",
    "delta",
    "axes_overlap",
    "tree_dot",
]

ELLIPTIC = "ELLIPTIC"
HYPERBOLIC = "HYPERBOLIC"


class NotEllipticError(ValueError):
    """Operation requires an elliptic isometry."""


class NotHyperbolicError(ValueError):
    """Operation requires hyperbolic isometries."""


class TrivialElementError(ValueError):
    """The trivial element has no attracting point or fixed-tree center."""


# the step and hash of the base vertex: no representative, and the sign 0
# that no step backtracks against; the hash is the empty tuple's,
# which, unlike None's, is the same in every process
_BASE_STEP = (None, 0)
_BASE_HASH = hash(())
_new = object.__new__


class VertexLabel:
    """Backtrack-free path word naming a vertex coset, as a cons cell.

    The path's entries are (representative, sign): a step (r, +1) crosses
    the outgoing edge g r H, a step (r, -1) the incoming edge g r t^-1
    K-side.  A label holds its ``oracle``, its ``parent`` (the label of the
    path less its last step, None at the base vertex), that last step, its
    ``depth`` (the path length, which is the distance to the base vertex)
    and a hash made once from the parent's hash and the step.  The fields
    are read-only, as the hash depends on them.  ``path`` builds the tuple
    of steps by one climb.

    ``VertexLabel(oracle, path)`` builds the cells of a path, one
    ``_child`` per step from a new base vertex, and refuses a step that is
    not a child step, whose representative is not the canonical one of its
    coset or that leads back to the parent: equality and ``distance``
    compare paths, so a second path to a vertex would name another.  The
    walks build one cell per step they return.  Labels compare by value:
    equal paths over equal oracles are equal labels and hash equal, whatever
    built them."""

    __slots__ = ("_oracle", "_parent", "_step", "_depth", "_hash")

    def __new__(cls, oracle: BaseOracle, path: tuple[tuple[object, int], ...] = ()):
        v = base_vertex(oracle)
        for step in path:
            rep, sign = step
            if (
                sign not in (1, -1)
                or _split_right(oracle, sign, rep)[0] != rep
                or _backtracks(oracle, v._step[1], rep, sign)
            ):
                raise ValueError(f"{step!r} is not a child step at depth {v._depth}")
            v = _child(v, step)
        return v

    @property
    def oracle(self) -> BaseOracle:
        return self._oracle

    @property
    def parent(self) -> Optional["VertexLabel"]:
        """The label of the path less its last step, None at the base vertex."""
        return self._parent

    @property
    def depth(self) -> int:
        """The path length, which is the distance to the base vertex."""
        return self._depth

    @property
    def path(self) -> tuple[tuple[object, int], ...]:
        """The steps from the base vertex, as a new tuple: one climb, so
        O(depth) per call."""
        return tuple(_steps(self))

    def word(self) -> HnnWord:
        """The path word ``r_1 t^s_1 ... r_k t^s_k``.  It is pinch-free: a
        representative lies in its subgroup only when it is the identity,
        and an identity step against the previous sign would backtrack."""
        head, tokens = _path_tokens(self)
        return _reduced_word(self._oracle, head, tuple(tokens))

    def step(self, rep, sign: int) -> "VertexLabel":
        """Move across the edge of ``rep t^sign``: any base element names
        the edge of its coset, and a step back pops to the parent."""
        return _walk(self, rep, ((sign, self._oracle.identity),))[0]

    def __eq__(self, other) -> bool:
        """Equal hashes and depths, a common prefix as long as the paths,
        found by the climb that ``distance`` makes (``_common_prefix``), and
        equal oracles, compared by ``is`` before ``==``.  Two equal labels of
        different chains are then found equal by one climb, after which the
        right operand shares the left one's cells, so that comparing more
        labels of the two chains, as a set intersection does, costs O(1)
        each.  A dict or set lookup compares its stored key on the left, so
        a probe built for the lookup moves onto the stored cells and leaves
        its own chain to be freed."""
        if not isinstance(other, VertexLabel):
            return NotImplemented
        if (
            self._hash != other._hash
            or self._depth != other._depth
            or _common_prefix(self, other) != self._depth
            or self._oracle is not other._oracle and self._oracle != other._oracle
        ):
            return False
        # equal: other's chain takes self's cells, which hold the same steps,
        # so that the next comparison of the two chains stops at once; each
        # parent is replaced by an equal label, so no label changes
        u, v = self, other
        while u is not v and v._parent is not None:
            vp = v._parent
            v._parent = u._parent
            u, v = u._parent, vp
        return True

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # the path, not the chain of cells, which would pickle and copy
        # one nested call per step
        return type(self), (self._oracle, tuple(_steps(self)))

    def __repr__(self) -> str:
        return f"VertexLabel(oracle={self._oracle!r}, path={tuple(_steps(self))!r})"

    def __str__(self) -> str:
        return label_str(self)


def _child(parent: VertexLabel, step: tuple[object, int]) -> VertexLabel:
    """The cell of ``parent``'s path extended by ``step``."""
    v = _new(VertexLabel)
    v._oracle = parent._oracle
    v._parent = parent
    v._step = step
    v._depth = parent._depth + 1
    v._hash = hash((parent._hash, step))
    return v


def _path_tokens(v: VertexLabel) -> tuple[object, Iterator[tuple[int, object]]]:
    """The head r_1 and the tokens (s_i, r_i+1) of v's path word
    r_1 t^s_1 ... r_k t^s_k, with r_k+1 the identity, made as a walk reads
    them, so that no list of them outlives it."""
    steps = _steps(v)
    reps = [rep for rep, _ in steps] + [v._oracle.identity]
    return reps[0], ((sign, r) for (_, sign), r in zip(steps, reps[1:]))


def _steps(v: VertexLabel) -> list[tuple[object, int]]:
    """The steps of v's path, from the base vertex down, by one climb."""
    steps = []
    while v._parent is not None:
        steps.append(v._step)
        v = v._parent
    steps.reverse()
    return steps


@dataclass(frozen=True)
class EdgeRef:
    """Oriented edge reference; ``sign`` +1 is an outgoing edge g H from g L
    to g t L, -1 an incoming edge traversed backwards."""

    source: VertexLabel
    rep: object
    sign: int

    @property
    def target(self) -> VertexLabel:
        return self.source.step(self.rep, self.sign)


def base_vertex(oracle: BaseOracle) -> VertexLabel:
    v = _new(VertexLabel)
    v._oracle, v._parent, v._step, v._depth, v._hash = oracle, None, _BASE_STEP, 0, _BASE_HASH
    return v


def label_str(v: VertexLabel) -> str:
    return format_word(v.word())


def neighbors(v: VertexLabel) -> list[EdgeRef]:
    """[L:H] outgoing then [L:K] incoming edges, in transversal order: the
    steps from the base vertex into its radius-1 ball, where no step
    backtracks.  A degree past the vertex limit is refused as that ball
    is, before an edge is built."""
    return [EdgeRef(v, *u._step) for u in ball(v._oracle, 1)[1:]]


def _split_right(oracle: BaseOracle, sign: int, x) -> tuple[object, object]:
    """``(rep, y)`` with x t^sign = rep t^sign y: x = rep s for the
    canonical representative rep of x H (sign +1) or x K (sign -1), and y
    is the subgroup part carried across the letter, phi(s) resp.
    phi^-1(s) (h t = t phi(h), k t^-1 = t^-1 phi^-1(k))."""
    if sign == 1:
        rep, s = oracle.decompose_right_H(x)
        return rep, oracle.phi(s)
    rep, s = oracle.decompose_right_K(x)
    return rep, oracle.phi_inv(s)


def _walk(v: VertexLabel, x, tail) -> tuple[VertexLabel, object]:
    """The label of v x t^s1 l1 ... t^sk lk L, for the tokens ``(s_i, l_i)``
    of ``tail``, reduced or not, and the base element left over.  At each
    t^s, x splits by ``_split_right`` into a left-coset representative r,
    the step (r, s), and a subgroup part carried across the letter; but
    where t^s' x t^s is a pinch for the path's last step (r', s'), the walk
    pops that step and r' times the unpinched element becomes x.  A pop
    past the steps pushed so far is v's parent; the pushed steps become
    cells only once the walk is done."""
    oracle = v._oracle
    omul = oracle.mul
    pushed = []
    last = v._step
    for sign, lam in tail:
        y = _unpinch(oracle, last[1], x, sign) if last[1] == -sign else None
        if y is not None:
            x = omul(last[0], y)
            if pushed:
                pushed.pop()
            else:
                v = v._parent
            last = pushed[-1] if pushed else v._step
        else:
            rep, x = _split_right(oracle, sign, x)
            last = (rep, sign)
            pushed.append(last)
        x = omul(x, lam)
    for step in pushed:
        v = _child(v, step)
    return v, x


def to_vertex_label(g: HnnWord) -> VertexLabel:
    """Canonical label of the coset g L: the walk of g's tokens from the
    base vertex, reduced or not."""
    return _walk(base_vertex(g.oracle), g.head, g.tail)[0]


def act(g: HnnWord, v: VertexLabel) -> VertexLabel:
    """Left translation g v of a vertex: the walk of g's tokens from the
    base vertex stops at g L with a base element x left over, and resumes
    from x r_1 over the tokens of v's path word ``r_1 t^s_1 ... r_k t^s_k``.
    Where v's path undoes g, the resumed walk pops back through the first
    walk's cells."""
    oracle = _same_oracle(g, v)
    head, tokens = _path_tokens(v)
    u, x = _walk(base_vertex(oracle), g.head, g.tail)
    return _walk(u, oracle.mul(x, head), tokens)[0]


def _common_prefix(u: VertexLabel, v: VertexLabel) -> int:
    """Length of the longest common prefix of the two paths: the deeper
    label climbs to the other's depth, then both climb together, until they
    reach one shared cell or the base vertex, and the highest step where
    they differ ends the prefix."""
    while u._depth > v._depth:
        u = u._parent
    while v._depth > u._depth:
        v = v._parent
    common = u._depth
    while u is not v and u._parent is not None:
        if u._step != v._step:
            common = u._depth - 1
        u, v = u._parent, v._parent
    return common


def distance(u: VertexLabel, v: VertexLabel) -> int:
    """Tree metric: strip the longest common prefix, add remaining lengths."""
    if u._oracle != v._oracle:
        raise ValueError("labels belong to different oracles")
    common = _common_prefix(u, v)
    return (u._depth - common) + (v._depth - common)


def _backtracks(oracle: BaseOracle, last_sign: int, rep, sign: int) -> bool:
    """Whether the step ``(rep, sign)`` leads back to the parent of a vertex
    whose path ends in a step of sign ``last_sign`` (0 at the base vertex)."""
    return sign == -last_sign and oracle.is_identity(rep)


def _class_levels(oracle: BaseOracle, path: tuple, c, radius: int):
    """The fixed vertices of gamma from the vertex v of ``path`` down,
    counted by classes of vertices rather than built, given the base element
    c = v^-1 gamma v.

    The class of a fixed vertex u is ``(x, last)``: its conjugate
    x = u^-1 gamma u, a base element, and the sign of the last step of its
    path (0 at the base vertex).  The child u rep t^sign is fixed when
    t^-sign rep^-1 x rep t^sign is a pinch, and its conjugate is then the
    unpinched base element.  So which children are fixed, and their classes,
    depend on the class of u alone (Serre, *Trees*, I.6.4).  Classes compare
    by value, so this holds over any base oracle.  When x is central,
    rep^-1 x rep = x for every rep, so the children of one sign are all
    fixed, in one class, or none is: the class gets one child test per sign,
    and its fixed children of that sign are counted as the transversal's
    size, less the step back to the parent.  Every BS and Z^d element is
    central; any other class gets one test per representative.  The identity
    fixes every child, and its walk from the base vertex has three classes.

    Returns a table from each class met to its fixed children, as entries
    ``(sign, reps, count, class)``: the children across ``rep t^sign`` for
    the ``reps`` of the entry, less the step back, are ``count`` vertices of
    that class.  No representative is listed for a central class.  Also
    returns a generator of the levels from v's depth down, each a dict from
    class to its number of vertices on the level.  The generator stops at
    the radius or after the last nonempty level, and fills the table as it
    goes, so a caller that stops early pays only for the levels it read.
    """
    omul, oinv = oracle.mul, oracle.inv
    transversals = ((1, oracle.h_transversal()), (-1, oracle.k_transversal()))
    children = {}

    def fixed_children(x, last):
        if oracle.is_central(x):
            for sign, reps in transversals:
                y = _unpinch(oracle, -sign, x, sign)
                # the size only of a transversal whose children are fixed
                count = 0 if y is None else len(reps) - (sign == -last)
                if count:
                    yield sign, reps, count, (y, sign)
            return
        for sign, reps in transversals:
            for rep in reps:
                if not _backtracks(oracle, last, rep, sign):
                    y = _unpinch(oracle, -sign, omul(oinv(rep), omul(x, rep)), sign)
                    if y is not None:
                        yield sign, (rep,), 1, (y, sign)

    def levels():
        if len(path) > radius:
            return
        level = {(c, path[-1][1] if path else 0): 1}
        for _ in range(len(path), radius):
            yield level
            nxt = {}
            for key, count in level.items():
                if key not in children:
                    children[key] = list(fixed_children(*key))
                for _, _, k, child in children[key]:
                    nxt[child] = nxt.get(child, 0) + count * k
            if not nxt:
                return
            level = nxt
        yield level

    return children, levels()


def _class_walk(oracle: BaseOracle, path: tuple, c, radius: int, what: str) -> list[VertexLabel]:
    """The vertices of ``_class_levels`` within the radius, in BFS order.

    The levels are counted first, and a walk past the vertex or path-step
    limit is refused before any representative is listed or any label is
    built: on a tree of degree 2 a million vertices have paths of up to half
    a million steps each, which ``fixed`` and ``tree-dot`` would print, and
    on BS(10^9, 2) a vertex has 10^9 + 2 neighbors.  A transversal too
    large for ``len``, past ``sys.maxsize`` as on BS(10^20, 2), is past the
    vertex limit too, so the ``OverflowError`` of its count is the same
    refusal.  Then each class with children gets its row once, a
    ``(step, child row)`` pair per fixed child in transversal order, and
    each vertex of a level one cell per step of its row, a child of its
    own."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    children, levels = _class_levels(oracle, path, c, radius)
    max_vertices, max_steps = _LIMITS["vertices"], _LIMITS["path steps"]
    vertices = path_steps = 0
    # a count past a limit and a transversal too large for len (which
    # raises OverflowError in _class_levels) are one refusal
    try:
        for depth, level in enumerate(levels, len(path)):
            count = sum(level.values())
            vertices += count
            path_steps += depth * count
            if vertices > max_vertices or path_steps > max_steps:
                raise OverflowError
    except OverflowError:
        raise ValueError(
            f"{what} within radius {radius} holds {_more_than('vertices', 'path steps')}"
        ) from None
    if not vertices:
        return []
    # the table holds the classes above the last level, whose children were
    # counted; a class met only on the last level is never extended
    rows = {key: [] for key in children}
    for key, row in rows.items():
        last = key[1]
        row.extend(
            ((rep, sign), rows.get(child, ()))
            for sign, reps, _, child in children[key]
            for rep in reps
            if not _backtracks(oracle, last, rep, sign)
        )
    level = [VertexLabel(oracle, path)]
    level_rows = [rows.get((c, path[-1][1] if path else 0), ())]
    labels = list(level)
    for d in range(len(path) + 1, depth + 1):
        level = [_child(p, step) for p, row in zip(level, level_rows) for step, _ in row]
        labels += level
        if d < depth:
            level_rows = [child for row in level_rows for _, child in row]
    return labels


def ball(oracle: BaseOracle, radius: int) -> list[VertexLabel]:
    """Vertices within the given distance of the base vertex, in BFS order.

    The ball is the fixed set of the identity, so it is the class walk from
    the base vertex with conjugate the identity, and every child is fixed.
    A ball past the vertex or path-step limit is refused before it is built."""
    return _class_walk(oracle, (), oracle.identity, radius, "the tree ball")


def _descend(gamma: HnnWord, radius: Optional[int] = None):
    """Greedy walk from the base vertex towards Min gamma, to depth at most
    ``radius``: the path of the vertex v where it stops, with v^-1 gamma v
    as a pinch-free ``(head, tail)`` pair whose stable-letter count is
    distance(v, gamma v).

    Off Min gamma exactly one neighbor u of v lowers the displacement, by
    two (Serre, *Trees*, I.6.4), and it is read off the reduced conjugate
    x = h t^s1 l1 ... t^sk lk = v^-1 gamma v.  For the step rep t^sign,
    u^-1 gamma u = t^-sign rep^-1 x rep t^sign loses two stable letters
    only when both of its ends pinch.  The left end t^-sign rep^-1 h t^s1
    pinches only for sign = s1 and rep the representative of h's coset,
    which ``_split_right`` of h gives, with the element y the pinch leaves:
    that is the one candidate.  Where the right end t^sk lk rep t^s1
    pinches too, to z, u^-1 gamma u = (y l1) t^s2 ... t^sk-1 (lk-1 z) and
    the walk goes on from u.  Otherwise v is on Min gamma and the walk
    stops.  A step back to the parent is never taken: v was reached by a
    drop, so that step is a rise.  Only the two ends change, so the
    conjugate is a window into the list of gamma's reduced tokens, and a
    level costs O(1) base operations."""
    oracle = gamma.oracle
    omul = oracle.mul
    g = britton_reduce(gamma)
    head, tokens = g.head, list(g.tail)
    path, i, j = [], 0, len(tokens)
    while j - i > 1 and (radius is None or len(path) < radius):
        sign, lam = tokens[i]
        last_sign, last = tokens[j - 1]
        rep, y = _split_right(oracle, sign, head)
        z = _unpinch(oracle, last_sign, omul(last, rep), sign)
        if z is None:
            break
        path.append((rep, sign))
        head, i, j = omul(y, lam), i + 1, j - 1
        if j > i:
            s, x = tokens[j - 1]
            tokens[j - 1] = (s, omul(x, z))
        else:
            head = omul(head, z)
    return tuple(path), head, tuple(tokens[i:j])


def min_displacement_bfs(gamma: HnnWord, radius: int) -> tuple[int, VertexLabel]:
    """Minimum of distance(v, gamma v) over the radius ball, with the first
    BFS witness.  Independent of the cyclic-core classification.

    On a tree without inversions distance(v, gamma v) = l(gamma) +
    2 d(v, Min gamma), where Min gamma is the fixed subtree or the axis
    (Serre, *Trees*, I.6.4).  So off Min gamma exactly one neighbor, the next
    vertex on the geodesic to it, lowers the displacement, and on Min gamma
    none does.  The minimum over the ball is taken at one vertex only: the
    projection of the base vertex onto Min gamma, or the vertex at depth
    ``radius`` on the geodesic to it.  This unique witness is also the first
    in BFS order, and the descent reaches it by one candidate step per
    level, O(1) base operations each, after one Britton reduction of gamma,
    whatever the tree's degree.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    path, _, tail = _descend(gamma, radius)
    return len(tail), VertexLabel(gamma.oracle, path)


@dataclass(frozen=True)
class IsometryClass:
    """ELLIPTIC with a fixed vertex witness and the cyclic-reduction
    conjugator, or HYPERBOLIC with translation length and an axis sample.

    Two classes compare and hash by their kind, witness, translation length
    and sample.  The conjugator is a certificate left out of both: words
    compare by identity, so it would make no two classes equal."""

    kind: str
    fixed_vertex: Optional[VertexLabel] = None
    conjugator: Optional[HnnWord] = field(default=None, compare=False)
    translation_length: Optional[int] = None
    axis_sample: Optional[tuple[VertexLabel, ...]] = None


def _axis_labels(conj: HnnWord, word: HnnWord) -> Iterator[VertexLabel]:
    """The vertices conj * (prefixes of word^k) L for k = 0, 1, ..., the
    start conj L first: one walk through conj, resumed by one step per
    syllable of the word, period after period.  Each period multiplies the
    word's head into the base element the walk left over, then walks the
    word's tokens.  A word with no stable letter has the start alone."""
    oracle = word.oracle
    v, x = _walk(base_vertex(oracle), conj.head, conj.tail)
    yield v
    while word.tail:
        x = oracle.mul(x, word.head)
        for token in word.tail:
            v, x = _walk(v, x, (token,))
            yield v


def classify(gamma: HnnWord) -> IsometryClass:
    """Elliptic when the cyclic core is a base element, else hyperbolic with
    translation length tl the core's stable-letter count.  The sample is one
    walk of three periods along the axis, or the witness conj L when tl = 0.
    One rule checks both by three ``act`` walks: the sample is a geodesic,
    and gamma moves sample[i] to sample[i + tl] for i = 0, tl and the start
    of the last period.  Then d(v, gamma^2 v) = 2 d(v, gamma v) = 2 tl for
    v = sample[0], so gamma fixes v or has v on its axis (Serre, *Trees*,
    I.6.4), and so has the start of the last period, as it is moved by tl.
    A sample of more labels than the vertex limit, 1 + 3 tl, is refused
    after the O(n) peel of the cyclic reduction, which gives tl, and before
    its rotation scan."""
    peel = _peel(gamma)
    _, i, j, _ = peel
    if 1 + 3 * (j - i) > _LIMITS["vertices"]:
        raise ValueError(f"the axis sample holds {_more_than('vertices')}")
    return _classify(gamma, *_core(*peel))


def _classify(gamma: HnnWord, core: HnnWord, conj: HnnWord, periods: int = 3) -> IsometryClass:
    """``classify`` of gamma = conj core conj^-1, from its cyclic reduction,
    with a sample of ``periods`` periods."""
    tl = len(core.tail)
    sample = tuple(islice(_axis_labels(conj, core), 1 + periods * tl)) if tl else (to_vertex_label(conj),)
    if distance(sample[0], sample[-1]) != periods * tl or any(
        sample[i + tl] != act(gamma, sample[i]) for i in {0, tl, (periods - 1) * tl}
    ):
        raise VerificationError("gamma must move its sample along itself by the translation length")
    if not tl:
        return IsometryClass(ELLIPTIC, fixed_vertex=sample[0], conjugator=conj)
    return IsometryClass(HYPERBOLIC, conjugator=conj, translation_length=tl, axis_sample=sample)


def fixed_subtree(gamma: HnnWord, radius: int) -> tuple[frozenset[VertexLabel], bool]:
    """All vertices of the radius ball fixed by an elliptic gamma, plus a
    flag telling whether the fixed set reaches the ball boundary (in which
    case unboundedness cannot be refuted at this radius).

    The fixed set is the intersection of two subtrees, hence connected, so a
    search restricted to fixed vertices starting at the projection of the
    base vertex is complete.  The descent finds that vertex, and the class
    walk that ``ball`` also runs (see ``_class_levels``) goes down from it:
    it counts the fixed set exactly first, and refuses one past the vertex
    or path-step limit before any label is built.  Only returned vertices
    get a cell."""
    oracle = gamma.oracle
    # the descent stops at the projection of the base vertex onto Min gamma,
    # which for an elliptic gamma is the fixed subtree; its parent is not
    # fixed, so every other fixed vertex lies below it
    entry, c, tail = _descend(gamma)
    if tail:
        raise NotEllipticError("fixed subtrees exist only for elliptic elements")
    fixed = _class_walk(oracle, entry, c, radius, "the fixed subtree")
    return frozenset(fixed), bool(fixed) and fixed[-1]._depth == radius


def unbounded_fixed_witness_bs(m: int, n: int) -> tuple[HnnWord, Callable[[int], VertexLabel]]:
    """A nontrivial element fixing an unbounded family of vertices, with the
    family as an explicit map index -> vertex, checked at indices 0 to 5.

    When n | m, b^n fixes a^l L for every l; when m | n (and not the previous
    case), b^m fixes a^-l L; otherwise b^n commutes with the commutator
    c = a b a^-1 b^-1 and fixes c^l L at distance 2l.
    """
    oracle = make_bs(m, n)
    # the tail of the word whose l-th power names the l-th vertex: t, t^-1,
    # or the commutator t b t^-1 b^-1
    if m % n == 0:
        gamma, step = base_word(oracle, n), ((1, 0),)
    elif n % m == 0:
        gamma, step = base_word(oracle, m), ((-1, 0),)
    else:
        gamma, step = base_word(oracle, n), ((1, 1), (-1, -1))

    def family(l: int) -> VertexLabel:
        return to_vertex_label(HnnWord(oracle, oracle.identity, step * l))

    for l in range(6):
        v = family(l)
        if v != act(gamma, v) or v._depth != len(step) * l:
            raise VerificationError(f"unbounded fixed family fails at index {l}")
    return gamma, family


def _geodesic(u: VertexLabel, v: VertexLabel) -> list[VertexLabel]:
    """The vertices from u to v: u's cells up to the common prefix, then
    v's from there down."""
    common = _common_prefix(u, v)
    up, down = [], []
    while u._depth > common:
        up.append(u)
        u = u._parent
    while v._depth > common:
        down.append(v)
        v = v._parent
    return up + [v] + down[::-1]


def center(labels: Iterable[VertexLabel]) -> VertexLabel:
    """Center of a nonempty finite vertex set by double sweep: the midpoint
    of a diametral pair, taking the lexicographically least of the two middle
    vertices on odd diameters.  The vertices are sorted by text, and distinct
    vertices have distinct texts, so each sweep takes the least text at the
    largest distance as the first; a single vertex is its own sweep."""
    vs = sorted(set(labels), key=label_str)
    if not vs:
        raise ValueError("center of an empty set")
    u = max(vs, key=lambda v: distance(vs[0], v))
    w = max(vs, key=lambda v: distance(u, v))
    geo = _geodesic(u, w)
    diameter = len(geo) - 1
    if diameter % 2 == 0:
        return geo[diameter // 2]
    a, b = geo[diameter // 2], geo[diameter // 2 + 1]
    return min(a, b, key=label_str)


@dataclass(frozen=True)
class DeltaPoint:
    """Attracting point of an isometry: an end descriptor for hyperbolic
    elements, the center of the fixed subtree for elliptic ones whose fixed
    set is certified bounded at the exploration radius, and an explicit
    possibly-unbounded report otherwise."""

    kind: str  # "end" | "vertex" | "possibly_unbounded"
    vertex: Optional[VertexLabel] = None
    ray: Optional[tuple[VertexLabel, ...]] = None
    period: Optional[HnnWord] = None
    note: str = ""


def delta(gamma: HnnWord, radius: int) -> DeltaPoint:
    """Equivariant attracting-point assignment, computed at a finite radius.

    Hyperbolic: the attracting end, described by the axis ray in the
    attracting direction with its eventual period (the cyclic core); the ray
    is classify's checked sample, of max(2, ceil(radius / tl)) periods.
    Elliptic: the center of the fixed subtree when that set stays strictly
    inside the ball; when it reaches the boundary the fixed subtree may be
    unbounded and no center is guessed.  A ray of more labels than the
    vertex limit, 1 + periods * tl, is refused after the peel of the cyclic
    reduction and before its rotation scan, as in :func:`classify`.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    peel = _peel(gamma)
    _, i, j, x = peel
    tl = j - i
    # gamma is trivial exactly when its conjugate core is; x is that core
    # when it is elliptic
    if not tl and gamma.oracle.is_identity(x):
        raise TrivialElementError("delta is undefined on the trivial element")
    periods = max(2, -(-radius // max(1, tl)))
    if 1 + periods * tl > _LIMITS["vertices"]:
        raise ValueError(f"the axis ray within radius {radius} holds {_more_than('vertices')}")
    core, conj = _core(*peel)
    cls = _classify(gamma, core, conj, periods)
    if cls.kind == HYPERBOLIC:
        return DeltaPoint(kind="end", ray=cls.axis_sample, period=core)
    fixed, touches = fixed_subtree(gamma, radius)
    if touches or not fixed:
        note = (
            "fixed subtree reaches the exploration boundary"
            if fixed
            else "fixed subtree lies outside the explored ball"
        )
        return DeltaPoint(kind="possibly_unbounded", note=f"{note} (radius {radius})")
    return DeltaPoint(kind="vertex", vertex=center(fixed))


def axes_overlap(gamma1: HnnWord, gamma2: HnnWord, radius: int) -> int:
    """Number of common axis vertices of two hyperbolic isometries inside
    the radius ball.  Each axis is walked from its start conj L, count
    labels each way, enough to leave the ball; conj is reduced, so the
    start's depth is its stable-letter count, and an axis of more than the
    vertex limit, 1 + 2 count labels, is refused before either is walked.
    conj has at least i stable letters for the i wrap pinches of the peel
    of the cyclic reduction, and count grows with its length, so an axis
    past the limit at i is refused before the rotation scan, as in
    :func:`classify`."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    _same_oracle(gamma1, gamma2)
    axes = []
    for gamma in (gamma1, gamma2):
        peel = _peel(gamma)
        _, i, j, _ = peel
        if i == j:
            raise NotHyperbolicError("axes exist only for hyperbolic elements")
        # checked at the least length of conj first, then at its own
        for depth in (i, None):
            if depth is None:
                core, conj = _core(*peel)
                depth = len(conj.tail)
            count = (-(-(radius + depth) // (j - i)) + 1) * (j - i)
            if 1 + 2 * count > _LIMITS["vertices"]:
                raise ValueError(f"the axis within radius {radius} holds {_more_than('vertices')}")
        # walks not yet started: no cell is built until both axes are admitted
        forward, back = _axis_labels(conj, core), _axis_labels(conj, inv(core))
        axes.append((islice(forward, count + 1), islice(back, 1, count + 1)))
    sets = [{v for walk in axis for v in walk if v._depth <= radius} for axis in axes]
    return len(sets[0] & sets[1])


def tree_dot(oracle: BaseOracle, radius: int, gamma: Optional[HnnWord] = None) -> str:
    """DOT digraph of the radius ball: nodes in BFS order, solid oriented
    edges within the ball, and optionally dashed edges v -> gamma v.  Each
    label is formatted once.

    The solid edges out of v are read off the ball's cells, in
    ``h_transversal`` order: one to each child across a step of sign +1,
    and, when v's own last step has sign -1, one to its parent, across the
    identity, which the transversal lists first."""
    vs = ball(oracle, radius)
    names = {v: label_str(v) for v in vs}
    lines = ["digraph bass_serre_ball {"]
    lines += [f'  "{name}";' for name in names.values()]
    out = {v: [] for v in vs}
    for v in vs[1:]:
        if v._step[1] == 1:
            out[v._parent].append(v)
        else:
            out[v].append(v._parent)
    lines += [f'  "{names[v]}" -> "{names[u]}";' for v in vs for u in out[v]]
    if gamma is not None:
        for v in vs:
            target = act(gamma, v)
            if target in names:
                lines.append(f'  "{names[v]}" -> "{names[target]}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
