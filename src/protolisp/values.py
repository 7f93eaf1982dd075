"""Value models for the two kernels.

The list kernel knows atomic symbols and finite sequences, nothing else.
The empty sequence () is a value in its own right and is not an atom.
A sequence is a chain of immutable cells, the list structure of McCarthy
(1960) with one constraint on top: each cell holds an element (head), the
sequence of the elements after it (tail) and its length, and the chain
ends at the one empty sequence, NULL.  A tail can only ever be a
sequence and no field can be assigned once the cell is made, so improper
or circular structure simply cannot be expressed.  Cells are shared, not
copied: the rest of a sequence is its tail, and putting an element in
front of a sequence makes one new cell.

The pair kernel knows atomic symbols and ordered pairs.  A pair is a cell
of the same make as a list cell, with two slots, head and tail, that may
hold any values and cannot be assigned once it is made.  The atom NIL is
ordinary data that by convention marks the end of a list, so a chain of
pairs may be a proper list, or may end somewhere else entirely.

Each cell and pair has one more slot, _node, which is no part of its
value: the evaluator keeps a form's analysis there.

This module alone makes and walks cells and pairs.  A cell is made as a
plain slotted _Cell or _PairCell and becomes a ProperList or a Pair once
its fields are set: _cell and Pair make one, _list and _pairs a chain of
them from a list of items.  What a sequence and a pair share, immutability,
structural equality, a hash, copy, pickle and repr, is one base class,
_Compound.

`list_to_pair` embeds the first world in the second; `pair_to_list` goes
back when the structure allows it.

The front end runs with CPython's cycle collector paused (see _paused):
the readers (sexpr.read_sexpr and read_sexprs, fexpr.read_fexpr and
read_program), translate.translate and translate_program, the printers
(_text, behind sexpr.print_sexpr and every repr, and fexpr.print_fexpr),
list_to_pair and pair_to_list.  Reference counting alone frees all they
make, since no field can be assigned once its cell is made: a value can
only refer to values made before it, so none is part of a cycle.  The one
way to make a cycle is unsafe_set_tail, a test backdoor that no paused
function calls.  Without the pause, the collector walks every cell a
deep or long input makes, again and again as the young generations fill,
for nothing.  The pause is the process's: a gc.disable() that another
thread makes during a paused call is undone when that call returns.  The
evaluator is not paused: it runs user programs for as long as they take,
and any cyclic garbage made meanwhile, an exception held with its
traceback for one, would pile up until the run ended.
"""

from __future__ import annotations

import enum
import functools
import gc
import re

from .errors import CyclicStructureError, ImproperStructureError, KindMismatchError

_SYMBOL_RE = re.compile(r"[A-Z][A-Z0-9]*\Z")
_SYMBOLS = {}  # name -> the Symbol of that name


def _paused(fn):
    """fn, run with the cycle collector off.

    A call that finds the collector on turns it off, and back on when it
    returns or raises; a call that finds it off, a nested call among them,
    leaves it alone.  So a caller that turned it off finds it off after,
    and a gc.disable() of another thread during a paused call is undone
    when that call returns.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class Symbol:
    """An atomic symbol: uppercase letters and digits, letter first.

    Symbols are interned: Symbol(name) returns the one object with that
    name, so equality is identity and the hash is the object's own.  Copies
    and unpickled symbols are that same object too.  A symbol is immutable.
    """

    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name):
        sym = _SYMBOLS.get(name)
        if sym is None:
            if not _SYMBOL_RE.match(name):
                raise ValueError(f"invalid symbol name: {name!r}")
            sym = object.__new__(cls)
            object.__setattr__(sym, "name", name)
            # setdefault: of two threads making the same new name, both
            # get the object stored first.
            sym = _SYMBOLS.setdefault(name, sym)
        return sym

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r} of a symbol")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r} of a symbol")

    def __reduce__(self):
        return Symbol, (self.name,)

    def __repr__(self):
        return self.name


class _Compound:
    """What a sequence and a pair share.

    No field can be assigned or deleted; _noun names the value in the
    messages.  Equality and hashing are structural (see equal_values and
    _hash), copy and pickle take any nesting depth and keep sharing (see
    _graph), and the repr is the value's text (see _text).
    """

    __slots__ = ()

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r} of a {self._noun}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r} of a {self._noun}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return equal_values(self, other)

    def __hash__(self):
        return _hash(self)

    def __reduce__(self):
        return _rebuild, _graph(self)

    def __repr__(self):
        return _text(self)


class _Cell:
    """A list cell while it is being made; see _cell."""

    __slots__ = ("head", "tail", "length", "_node")


class ProperList(_Compound, _Cell):
    """A finite sequence of values; the only compound value of the list kernel.

    ProperList(iterable) makes the cells of the iterable's elements, last
    to first, ending at NULL (see _list); ProperList(()) is NULL itself.
    A cell has head, its first element, tail, the sequence of the rest,
    and length; NULL has length 0 and no head or tail.  None of them can
    be assigned.  items is the tuple of the elements, made on each use: a
    cell keeps no copy of it, so that it has four slots.  A list evaluated
    as a form keeps its analysis in _node, which is set past __setattr__
    and is no part of the value (see evaluator._analyse), nor of what copy
    and pickle carry.
    """

    __slots__ = ()
    __match_args__ = ("items",)
    _noun = "list"

    def __new__(cls, items):
        return _list(tuple(items))

    @property
    def items(self):
        out, seq = [], self
        while seq is not NULL:
            out.append(seq.head)
            seq = seq.tail
        return tuple(out)


def _cell(head, tail):
    """The sequence whose first element is head and whose rest is tail.

    tail must be a ProperList, which combine checks.  The cell is made as
    a plain _Cell, whose fields take the interpreter's fastest stores, and
    becomes a ProperList once they are set; from then on __setattr__
    refuses every assignment, __class__ included.
    """
    cell = _Cell()
    cell.head, cell.tail, cell.length = head, tail, tail.length + 1
    cell.__class__ = ProperList
    return cell


def _list(items):
    """The sequence of items, a list or a tuple: _cell's steps, last to first."""
    seq, length = NULL, 0
    for x in reversed(items):
        length += 1
        cell = _Cell()
        cell.head, cell.tail, cell.length = x, seq, length
        cell.__class__ = ProperList
        seq = cell
    return seq


NULL = _Cell()
NULL.length = 0
NULL.__class__ = ProperList


def _heads(seq):
    """The elements of a sequence, first to last, along its cells."""
    while seq is not NULL:
        yield seq.head
        seq = seq.tail


class _PairCell:
    """A pair while it is being made; see Pair."""

    __slots__ = ("head", "tail", "_node")


class Pair(_Compound, _PairCell):
    """An ordered pair; the only compound value of the pair kernel.

    Pair(head, tail) makes one cell with two fields, head and tail, which
    may be any values; neither can be assigned.  As with a list cell (see
    _cell), the cell is made as a plain _PairCell, its fields are set, and
    it becomes a Pair, whose __setattr__ refuses every assignment,
    __class__ included.  A pair evaluated as a form keeps its analysis in
    its _node slot, set past __setattr__, which is no part of the value
    (see evaluator._analyse).  Copy and pickle keep cycles (see _graph).
    """

    __slots__ = ()
    __match_args__ = ("head", "tail")
    _noun = "pair"

    def __new__(cls, head, tail):
        pair = _PairCell()
        pair.head, pair.tail = head, tail
        pair.__class__ = Pair
        return pair


def _pairs(items, tail):
    """The chain of pairs of items, a list or a tuple, ending at tail: Pair's steps."""
    for x in reversed(items):
        pair = _PairCell()
        pair.head, pair.tail = x, tail
        pair.__class__ = Pair
        tail = pair
    return tail


NIL = Symbol("NIL")


class Dialect(enum.Enum):
    """Concrete S-expression notations.

    AIM8: comma-separated proper lists, bare (), no dots.
    CLASSIC: space-separated list sugar over dotted pairs, NIL terminator.
    """

    AIM8 = "aim8"
    CLASSIC = "classic"


CYCLE_MARKER = "#cycle"


@_paused
def _text(v, dialect=None):
    """The text of a value, built on an explicit stack.

    With no dialect this is the repr: a sequence prints as (A, B), a pair
    as (A . B), any other value by its own repr.  With a dialect it is
    that dialect's printout (see sexpr.print_sexpr): AIM8 prints sequences
    as the repr does, CLASSIC prints pairs with list sugar, so a chain A, B
    ending in C prints as (A B . C) and one ending in NIL as (A B); a
    value of the other kernel raises KindMismatchError.  Either way a pair
    met again inside itself prints as #cycle.

    Each open compound value has a frame on the stack: [the cell or pair
    whose head is being written, and for a classic chain the ids of its
    pairs].  A sequence's frame moves along its cells.  A classic chain's
    frame moves along its pairs, each of which joins the path as the walk
    reaches it, and closes with ")" at NIL, " . A)" at another atom and
    " . #cycle)" at a pair already on the path.  A pair's repr frame stays
    at the pair, with None in place of ids until its tail is reached; its
    pair is on the path while it is open.  A MemoryError lets go of the
    stack, the path and the text so far first, so that whatever handles it
    has memory to do so.
    """
    out, path, frames = [], set(), []
    aim8, classic = dialect is Dialect.AIM8, dialect is Dialect.CLASSIC
    try:
        while True:
            # write v, opening each compound value down its first heads
            while True:
                cls = v.__class__
                if cls is Symbol:
                    out.append(v.name)
                elif cls is ProperList and not classic:
                    if v is NULL:
                        out.append("()")
                    else:
                        out.append("(")
                        frames.append([v, None])
                        v = v.head
                        continue
                elif cls is Pair and not aim8:
                    if id(v) in path:
                        out.append(CYCLE_MARKER)
                    else:
                        path.add(id(v))
                        out.append("(")
                        frames.append([v, [id(v)] if classic else None])
                        v = v.head
                        continue
                elif dialect is None:
                    out.append(repr(v))
                else:
                    raise _mismatch(v, dialect)
                break
            # v is written: write the atoms after it up to the next compound
            # element, which becomes v, closing each frame that ends on the way
            while frames:
                frame = frames[-1]
                at = frame[0]
                if at.__class__ is ProperList:
                    at = at.tail
                    while at is not NULL:
                        out.append(", ")
                        v = at.head
                        if v.__class__ is not Symbol:
                            break
                        out.append(v.name)
                        at = at.tail
                    else:
                        out.append(")")
                        frames.pop()
                        continue
                elif classic:
                    ids = frame[1]
                    at = at.tail
                    while at.__class__ is Pair and (i := id(at)) not in path:
                        path.add(i)
                        ids.append(i)
                        out.append(" ")
                        v = at.head
                        if v.__class__ is not Symbol:
                            break
                        out.append(v.name)
                        at = at.tail
                    else:
                        if at.__class__ is Pair:
                            out.append(f" . {CYCLE_MARKER})")
                        elif at is NIL:
                            out.append(")")
                        elif at.__class__ is Symbol:
                            out.append(f" . {at.name})")
                        else:
                            raise _mismatch(at, dialect)
                        path.difference_update(ids)
                        frames.pop()
                        continue
                elif frame[1] is None:  # a pair's repr, its head written
                    frame[1] = ()
                    out.append(" . ")
                    v = at.tail
                else:  # a pair's repr, its tail written
                    out.append(")")
                    path.discard(id(at))
                    frames.pop()
                    continue
                frame[0] = at
                break
            else:
                return "".join(out)
    except MemoryError:  # let go of what the walk holds first
        out.clear()
        path.clear()
        frames.clear()
        raise


def _mismatch(v, dialect):
    if isinstance(v, Pair):
        kind = "a pair-kernel value"
    elif isinstance(v, ProperList):
        kind = "a list-kernel value"
    else:
        kind = "a value of neither kernel"
    return KindMismatchError(f"cannot print {kind} in {dialect.value}: {v!r}")


def equal_values(a, b) -> bool:
    """Structural equality; values of different kinds are never equal.

    Two sequences are equal when they have the same length and equal
    elements, two pairs when their heads and their tails are equal, and
    any other two values when == says so.  Pairs made cyclic through
    unsafe_set_tail are equal when they unfold to the same infinite tree:
    two pairs are assumed equal once compared, and the assumption is
    kept as a union-find over pairs (Adams and Dybvig, "Efficient
    nondestructive equality checking for trees and graphs", ICFP 2008),
    so every walk ends.  The walk keeps its own stack, so any nesting
    depth compares.
    """
    todo = [(a, b)]
    union = {}  # id of a pair -> a pair assumed equal to it, nearer its root
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if x.__class__ is ProperList:
            if y.__class__ is not ProperList or x.length != y.length:
                return False
            while x is not y:  # an identical tail is an equal one
                if x.head is not y.head:
                    todo.append((x.head, y.head))
                x, y = x.tail, y.tail
        elif x.__class__ is Pair:
            if y.__class__ is not Pair:
                return False
            root_x, root_y = _root(union, x), _root(union, y)
            if root_x is not root_y:
                union[id(root_x)] = root_y
                todo.append((x.tail, y.tail))
                todo.append((x.head, y.head))
        elif not x == y:
            return False
    return True


def _root(union, pair):
    """The pair that stands for pair's class in union.

    Each pair passed on the way is pointed at the one above its parent
    (path splitting), so later walks are shorter.
    """
    while (up := union.get(id(pair))) is not None:
        above = union.get(id(up))
        if above is not None:
            union[id(pair)] = above
        pair = up
    return pair


# The most parts of a value that _hash reads.
_HASH_PARTS = 64


def _hash(v):
    """A hash of v that agrees with equal_values, read from a bounded prefix.

    v is unfolded in pre-order into parts: the length of each sequence,
    -1 for each pair, and hash(x) for any other value x, each followed by
    the parts of its elements or of its head and tail.  The hash is that
    of the first _HASH_PARTS parts.  Equal values, cyclic pairs included,
    unfold alike, so they read the same parts and hash alike; and the walk
    ends, at any nesting depth or length and on any cycle, since it stops
    after _HASH_PARTS parts.  Values that agree on those parts collide.
    """
    parts, todo = [], [iter((v,))]  # the parts read; the rest of each open value
    while todo and len(parts) < _HASH_PARTS:
        for x in todo[-1]:
            if x.__class__ is ProperList:
                parts.append(x.length)
                todo.append(_heads(x))
            elif x.__class__ is Pair:
                parts.append(-1)
                todo.append(iter((x.head, x.tail)))
            else:
                parts.append(hash(x))
            break
        else:
            todo.pop()
    return hash(tuple(parts))


def _graph(v):
    """The compound values reachable from v, flat: (rows, atoms).

    This is what pickle and copy see of a sequence or a pair (see
    _rebuild), so any nesting depth pickles and copies.  Each compound
    value gets a row, numbered in the order it is first met, v's first: a
    sequence's row is (0, its elements...), a pair's (1, head, tail).  An
    element, head or tail is given as the number of its row, or, for any
    other value, as -1 - its index in atoms.  A value met twice is given
    the same number, so sharing, cycles included, is kept.
    """
    rows, atoms, numbers, todo = [], [], {}, []

    def number(x):
        n = numbers.get(id(x))
        if n is None:
            if x.__class__ is ProperList or x.__class__ is Pair:
                n = len(rows)
                rows.append(None)
                todo.append(x)
            else:
                n = -1 - len(atoms)
                atoms.append(x)
            numbers[id(x)] = n
        return n

    number(v)
    while todo:
        x = todo.pop()
        if x.__class__ is Pair:
            row = (1, number(x.head), number(x.tail))
        else:
            row = (0, *[number(h) for h in _heads(x)])
        rows[numbers[id(x)]] = row
    return tuple(rows), tuple(atoms)


def _rebuild(rows, atoms):
    """The value of row 0 of a _graph, made without recursion.

    Every pair and every cell is made first, its elements unset, so a row
    may name any other; the elements are set next, and the cells become
    ProperLists last, as in _cell.
    """
    made, cells = [], []
    for row in rows:
        if row[0]:
            made.append(object.__new__(Pair))
            continue
        seq = NULL
        for length in range(1, len(row)):
            cell = _Cell()
            cell.tail, cell.length = seq, length
            cells.append(cell)
            seq = cell
        made.append(seq)
    value = lambda n: made[n] if n >= 0 else atoms[-1 - n]  # noqa: E731
    for x, row in zip(made, rows):
        if row[0]:
            object.__setattr__(x, "head", value(row[1]))
            object.__setattr__(x, "tail", value(row[2]))
            continue
        for n in row[1:]:
            x.head = value(n)
            x = x.tail
    for cell in cells:
        cell.__class__ = ProperList
    return made[0]


@_paused
def list_to_pair(v):
    """Embed a list-kernel value into the pair kernel.

    Atoms map to themselves; a sequence becomes the chain of pairs ending
    in NIL.  Note the embedding conflates two things: both () and the
    ordinary atom named NIL land on the pair-kernel atom NIL.

    The walk keeps its own stack, so any nesting depth converts.  Items
    are converted last first, each chain built from its end.  A
    MemoryError lets go of the stack and the chains so far first.
    """
    if not isinstance(v, ProperList):
        if isinstance(v, Symbol):
            return v
        raise TypeError(f"not a list-kernel value: {v!r}")
    stack = []  # (items left, chain so far) of each enclosing sequence
    items, out = reversed([*_heads(v)]), NIL
    try:
        while True:
            for x in items:
                if x.__class__ is Symbol:
                    pair = _PairCell()  # Pair(x, out), inlined
                    pair.head, pair.tail = x, out
                    pair.__class__ = Pair
                    out = pair
                elif x.__class__ is ProperList:
                    stack.append((items, out))
                    items, out = reversed([*_heads(x)]), NIL
                    break
                else:
                    raise TypeError(f"not a list-kernel value: {x!r}")
            else:
                if not stack:
                    return out
                items, chain = stack.pop()
                pair = _PairCell()
                pair.head, pair.tail = out, chain
                pair.__class__ = Pair
                out = pair
    except MemoryError:  # let go of what the walk holds first
        stack.clear()
        items = out = chain = pair = None
        raise


@_paused
def pair_to_list(v):
    """Read a pair-kernel value back as a list-kernel value.

    NIL maps to (), other atoms to themselves, and a chain of pairs to the
    sequence of its converted heads.  Raises ImproperStructureError when a
    tail chain ends at an atom other than NIL, and CyclicStructureError
    when the structure loops back on itself.

    The walk keeps its own stack, so any nesting depth converts.  The
    pairs of the open chains are the path: a pair met again on it is a
    cycle, while a pair shared by two subtrees is not.  A MemoryError lets
    go of the stack, the path and the lists so far first.
    """
    path, stack = set(), []
    # The innermost open chain: its converted heads, the ids of its pairs,
    # and the pair whose head is being converted.
    items = ids = pair = None
    try:
        while True:
            if isinstance(v, Pair):
                stack.append((items, ids, pair))
                items, ids, node = [], [], v
            else:
                if not isinstance(v, Symbol):
                    raise TypeError(f"not a pair-kernel value: {v!r}")
                out = NULL if v is NIL else v
                while True:  # out is a converted head: move along its chain
                    if items is None:
                        return out
                    items.append(out)
                    node = pair.tail
                    if isinstance(node, Pair):
                        break
                    if not isinstance(node, Symbol):
                        raise TypeError(f"not a pair-kernel value: {node!r}")
                    if node is not NIL:
                        raise ImproperStructureError(
                            f"tail chain ends at atom {node.name}, not NIL"
                        )
                    path.difference_update(ids)
                    out = _list(items)
                    items, ids, pair = stack.pop()
            # node is the next pair of the innermost chain: convert its head
            if id(node) in path:
                raise CyclicStructureError("cycle in pair structure")
            path.add(id(node))
            ids.append(id(node))
            pair, v = node, node.head
    except MemoryError:  # let go of what the walk holds first
        path.clear()
        stack.clear()
        items = ids = out = None
        raise


def unsafe_set_tail(pair: Pair, tail) -> None:
    """Test-harness backdoor: overwrite a pair's tail in place.

    The public constructors can only build finite trees; tests use this to
    create the circular structures that proper() and the printer must
    survive.  The interpreter itself never mutates values.
    """
    object.__setattr__(pair, "tail", tail)
