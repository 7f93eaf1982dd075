"""Every reader error, pinned by its full text: line:column: kind: detail.

One or more inputs for each place the aim8, classic and F-language readers
raise a ParseError, including inputs whose error lies across lines, after
tabs, after "#" comments, after Unicode blanks that do not end a line, and
at the end of the input.  A word begins with a letter, so a word that
starts with a digit is an unexpected character ('9x').  Last, a reader
that runs out of memory lets go of what it holds before the MemoryError
goes on.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import protolisp
from protolisp import scanner
from protolisp import (
    Dialect,
    ParseError,
    read_fexpr,
    read_program,
    read_sexpr,
    read_sexprs,
)

READERS = {
    "aim8": lambda text: read_sexpr(text, Dialect.AIM8),
    "classic": lambda text: read_sexpr(text, Dialect.CLASSIC),
    "aim8s": lambda text: read_sexprs(text, Dialect.AIM8),
    "classics": lambda text: read_sexprs(text, Dialect.CLASSIC),
    "fexpr": read_fexpr,
    "program": read_program,
}

ERRORS = [
    ('aim8', '  # only a comment\n\t', '2:2: empty input'),
    ('classic', '', '1:1: empty input'),
    ('aim8', '(A, B)\n  C', '2:3: trailing input: text continues after a complete expression'),
    ('classic', 'A\n\t# c\n  (B)', '3:3: trailing input: text continues after a complete expression'),
    ('aim8', '(A,\n', '2:1: unbalanced parenthesis: unexpected end of input'),
    ('classic', '(A\n  # c', "2:6: unbalanced parenthesis: unclosed '('"),
    ('classics', '(A)\n(B . ', '2:6: unbalanced parenthesis: unexpected end of input'),
    ('aim8', '(A . B)', '1:4: dot misuse: this dialect has no dot notation'),
    ('aim8s', 'A\n.', '2:1: dot misuse: this dialect has no dot notation'),
    ('classic', '. A', '1:1: dot misuse: a dot cannot begin an expression'),
    ('classic', '(A . . B)', '1:6: dot misuse: a dot cannot begin an expression'),
    ('aim8', '(A, [B])', "1:5: unexpected character: '['"),
    ('classic', '\t\t]', "1:3: unexpected character: ']'"),
    ('aim8', '(A, é)', "1:5: unexpected character: 'é'"),
    ('aim8', '(a)', "1:2: unexpected character: 'a'"),
    ('aim8', '(A,\n  # c\n  )', "3:3: unexpected character: ')' directly after a separator"),
    ('aim8', '(A,\r\n)', "2:1: unexpected character: ')' directly after a separator"),
    ('aim8', '(,A)', "1:2: unexpected character: ','"),
    ('classic', '(\n  , A)', "2:3: unexpected character: ','"),
    ('aim8', ', A', "1:1: unexpected character: ','"),
    ('classics', 'A\n# c\n, B', "3:1: unexpected character: ','"),
    ('aim8', 'A, B', '1:2: trailing input: text continues after a complete expression'),
    ('aim8', '(A,,B)', "1:4: unexpected character: ','"),
    ('classic', '(A, ,B)', "1:5: unexpected character: ','"),
    ('aim8', '(A, B,', '1:7: unbalanced parenthesis: unexpected end of input'),
    ('classic', '(A . , B)', "1:6: unexpected character: ','"),
    ('classic', '(A .,)', "1:5: unexpected character: ','"),
    ('classic', '(A . B, C)', '1:7: dot misuse: more than one expression after dot'),
    ('classic', '(A . B,)', '1:7: dot misuse: more than one expression after dot'),
    ('aim8', '(A, B  # c', "1:11: unbalanced parenthesis: unclosed '('"),
    ('aim8s', '(A, (B,\n C)', "2:4: unbalanced parenthesis: unclosed '('"),
    ('classic', '( . A)', '1:3: dot misuse: dot before any list element'),
    ('classic', '(A .\n )', '2:2: dot misuse: dot must be followed by exactly one expression'),
    ('classic', '(A . B', "1:7: unbalanced parenthesis: unclosed '('"),
    ('classic', '(A . B\t# c\n', "2:1: unbalanced parenthesis: unclosed '('"),
    ('classic', '(A . B C)', '1:8: dot misuse: more than one expression after dot'),
    ('classic', '(A . B . C)', '1:8: dot misuse: more than one expression after dot'),
    ('classic', '(A, )', "1:5: unexpected character: ')' directly after a separator"),
    ('classic', '(A B', "1:5: unbalanced parenthesis: unclosed '('"),
    ('classic', '((A) (B)\n', "2:1: unbalanced parenthesis: unclosed '('"),
    ('fexpr', '\n  # c\n', '3:1: empty input'),
    ('fexpr', 'f[x]\n\ty', '2:2: trailing input: text continues after a complete expression'),
    ('program', 'f[x]]', "1:5: unexpected character: ']'"),
    ('fexpr', 'f[x;\n  Ab]', "2:3: mixed-case identifier: 'Ab'"),
    ('fexpr', 'é', "1:1: mixed-case identifier: 'é'"),
    ('program', 'abC = x', "1:1: mixed-case identifier: 'abC'"),
    ('program', 'x² = A', "1:1: mixed-case identifier: 'x²'"),
    ('fexpr', 'f[', '1:3: unbalanced parenthesis: unexpected end of input'),
    ('fexpr', 'f[x;\n', '2:1: unbalanced parenthesis: unexpected end of input'),
    ('program', 'x = # c\n', '2:1: unbalanced parenthesis: unexpected end of input'),
    ('fexpr', 'f[.]', '1:3: dot misuse: this notation has no dot'),
    ('fexpr', 'f[x; 9]', "1:6: unexpected character: '9'"),
    ('fexpr', '9x', "1:1: unexpected character: '9'"),
    ('fexpr', '²', "1:1: unexpected character: '²'"),
    ('fexpr', 'f[x; ,]', "1:6: unexpected character: ','"),
    ('program', 'x = A\nB = C', "2:3: unexpected character: '='"),
    ('fexpr', '[x', '1:3: unbalanced parenthesis: unexpected end of input'),
    ('fexpr', '[x -', '1:5: unbalanced parenthesis: unexpected end of input'),
    ('fexpr', '[x; y]', "1:3: unexpected character: expected '->' after the test"),
    ('fexpr', '[x - y]', "1:6: unexpected character: expected '->' after the test"),
    ('fexpr', '[x -\n> y; z > w]', "2:8: unexpected character: expected '->' after the test"),
    ('fexpr', 'lambda', '1:7: unbalanced parenthesis: unexpected end of input'),
    ('fexpr', 'lambda(x)', "1:7: reserved word misuse: 'lambda' is reserved and must open an abstraction"),
    ('program', 'lambda = x', "1:8: reserved word misuse: 'lambda' is reserved and must open an abstraction"),
    ('fexpr', 'lambda[x]', "1:8: unexpected character: expected '[' opening the parameter list"),
    ('fexpr', 'lambda[[x] x]', "1:12: unexpected character: expected ';' between parameter list and body"),
    ('fexpr', 'lambda[[x]; x; y]', "1:14: unexpected character: expected ']' closing the abstraction"),
    ('fexpr', 'lambda[[x]; x', '1:14: unbalanced parenthesis: unexpected end of input'),
    ('fexpr', 'label(f)', "1:6: reserved word misuse: 'label' is reserved and must open a recursion form"),
    ('fexpr', 'label[f x]', "1:9: unexpected character: expected ';' between label name and body"),
    ('fexpr', 'label[f; x; y]', "1:11: unexpected character: expected ']' closing the recursion form"),
    ('fexpr', 'label[f;\n x', '2:3: unbalanced parenthesis: unexpected end of input'),
    ('fexpr', '[ # c\n ]', '2:2: unexpected character: a conditional needs at least one clause'),
    ('fexpr', '[x -> y', "1:8: unbalanced parenthesis: unclosed '['"),
    ('fexpr', '[x -> y, z]', "1:8: unexpected character: ',' (expected ';' or ']')"),
    ('fexpr', 'f[x; y', "1:7: unbalanced parenthesis: unclosed '['"),
    ('fexpr', 'f[x y]', "1:5: unexpected character: 'y' (expected ';' or ']')"),
    ('fexpr', 'f[x; y](A)', '1:8: trailing input: text continues after a complete expression'),
    ('fexpr', 'lambda[[', '1:9: unbalanced parenthesis: unexpected end of input'),
    ('fexpr', 'lambda[[x; 1]; x]', '1:12: unexpected character: expected a parameter'),
    ('fexpr', 'label[; x]', '1:7: unexpected character: expected a label'),
    ('fexpr', 'lambda[[label]; x]', "1:9: reserved word misuse: 'label' cannot name a parameter"),
    ('fexpr', 'label[lambda; x]', "1:7: reserved word misuse: 'lambda' cannot name a label"),
    ('fexpr', 'lambda[[X]; x]', '1:9: unexpected character: a parameter must be a lowercase identifier'),
    ('fexpr', 'label[F; x]', '1:7: unexpected character: a label must be a lowercase identifier'),
    ('fexpr', 'lambda[[x; Yz]; x]', "1:12: mixed-case identifier: 'Yz'"),
    ('fexpr', 'lambda[[x; y', "1:13: unbalanced parenthesis: unclosed '['"),
    ('fexpr', 'lambda[[x, y]; x]', "1:10: unexpected character: ',' (expected ';' or ']')"),
    ('fexpr', 'f[(A, B]', "1:8: unexpected character: ']'"),
    ('fexpr', 'f[(A . B)]', '1:6: dot misuse: this dialect has no dot notation'),
    ('fexpr', 'f[(A,\n  B', "2:4: unbalanced parenthesis: unclosed '('"),
    ('program', 'f\n  [x]', "2:5: unexpected character: expected '->' after the test"),
    ('program', 'g = f # c\n[x -> ]', "2:7: unexpected character: ']'"),
    ('program', '\u3000x\u2028= [T -> (A,\xa0)]', "1:16: unexpected character: ')' directly after a separator"),
    # A word that runs on past an atom: the S-notation's atom ends at the
    # first character that is no capital or digit, the F-language's word
    # only at the first that is not alphanumeric.
    ('fexpr', 'f[(Ab)]', "1:5: unexpected character: 'b'"),
    ('fexpr', 'f[Ab]', "1:3: mixed-case identifier: 'Ab'"),
    ('fexpr', 'f[(AB9x)]', "1:7: unexpected character: 'x'"),
    ('program', 'x = (Bc)\ny', "1:7: unexpected character: 'c'"),
    ('fexpr', 'f[x; yZ]', "1:6: mixed-case identifier: 'yZ'"),
    ('fexpr', 'f[x y2]', "1:5: unexpected character: 'y' (expected ';' or ']')"),
    ('fexpr', 'lambda[[x; 9y]; x]', '1:12: unexpected character: expected a parameter'),
    ('fexpr', 'f[A_B]', "1:4: unexpected character: '_' (expected ';' or ']')"),
    ('aim8', 'Ab', '1:2: trailing input: text continues after a complete expression'),
    ('aim8', 'AB_C', '1:3: trailing input: text continues after a complete expression'),
    ('classic', '(X . AB9x)', '1:9: dot misuse: more than one expression after dot'),
    ('classic', '(A . Bé)', '1:7: dot misuse: more than one expression after dot'),
    ('aim8', '(A,Bé C)', "1:5: unexpected character: 'é'"),
    ('aim8', '(A, 9B)', "1:5: unexpected character: '9'"),
    ('aim8', '(A²)', "1:3: unexpected character: '²'"),
    ('classics', 'A\nBc', "2:2: unexpected character: 'c'"),
    # A "(" where no expression may begin, and one in a comment.
    ('classic', '(A . B (C))', '1:8: dot misuse: more than one expression after dot'),
    ('aim8', 'A (B)', '1:3: trailing input: text continues after a complete expression'),
    ('fexpr', 'f[x (A)]', "1:5: unexpected character: '(' (expected ';' or ']')"),
    ('fexpr', 'f[(A)\n(B)]', "2:1: unexpected character: '(' (expected ';' or ']')"),
    ('fexpr', '[x (A)]', "1:4: unexpected character: expected '->' after the test"),
    ('fexpr', 'lambda[(A)]', "1:8: unexpected character: expected '[' opening the parameter list"),
    ('fexpr', 'lambda[[(A)]; x]', '1:9: unexpected character: expected a parameter'),
    ('fexpr', 'lambda[[x] (A)]', "1:12: unexpected character: expected ';' between parameter list and body"),
    ('fexpr', 'label[f (A)]', "1:9: unexpected character: expected ';' between label name and body"),
    ('fexpr', 'label[f; x (A)]', "1:12: unexpected character: expected ']' closing the recursion form"),
    ('classics', '(A) # (B\n (C', "2:4: unbalanced parenthesis: unclosed '('"),
    ('program', 'f[x]\n(A)(B', "2:6: unbalanced parenthesis: unclosed '('"),
    ('aim8', '(A, # (\n (B,)', "2:5: unexpected character: ')' directly after a separator"),
]


@pytest.mark.parametrize("reader, text, message", ERRORS)
def test_parse_error_text(reader, text, message):
    with pytest.raises(ParseError) as exc:
        READERS[reader](text)
    assert str(exc.value) == message


@pytest.mark.parametrize("window", [1, 2, 7])
def test_parse_errors_are_the_same_in_short_windows(monkeypatch, window):
    # The lexer ends a window before a "(" outside comments this many
    # characters on or more, which reads as that "(" wherever a reader
    # meets it; where an expression begins, the reader lexes on from it.
    monkeypatch.setattr(scanner, "_WINDOW", window)
    for reader, text, message in ERRORS:
        with pytest.raises(ParseError) as exc:
            READERS[reader](text)
        assert str(exc.value) == message, (reader, text)


_MEMORY_CHILD = """
from protolisp import Dialect, read_fexpr, read_sexpr
depth = ({cap} << 20) // {per}
text = {opener!r} * depth + "A" + {closer!r} * depth
try:
    {read}(text{dialect})
except MemoryError:
    room = bytearray({cap} << 18)  # what the reading held is free again
    print("MemoryError")
"""

_DEEP = {  # opener, closer, bytes of the cap per level, the call
    "aim8": ("(", ")", 64, "read_sexpr", ""),
    "classic": ("(", ")", 64, "read_sexpr", ", Dialect.CLASSIC"),
    "fexpr": ("f[", "]", 128, "read_fexpr", ""),
}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS as on Linux")
@pytest.mark.parametrize("notation", sorted(_DEEP))
def test_a_reading_that_exhausts_memory_lets_go_of_it(notation):
    # The input nests so deep that the reader's stack of open lists does not
    # fit in the cap.  The reader clears it and its token list before the
    # MemoryError goes on, so the child's handler has memory: it
    # allocates a quarter of the cap and prints.  Where the reading's memory
    # is still held, the handler fails; so two caps, the two children at a
    # time, each capped in its own process and given 60 s from its start.
    import resource  # not on every platform

    def capped(mb):
        return lambda: resource.setrlimit(resource.RLIMIT_AS, (mb << 20, mb << 20))

    opener, closer, per, read, dialect = _DEEP[notation]
    env = dict(os.environ, PYTHONPATH=str(Path(protolisp.__file__).parent.parent))
    caps = (320, 512)
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _MEMORY_CHILD.format(
                cap=cap, per=per, opener=opener, closer=closer, read=read, dialect=dialect)],
            env=env, preexec_fn=capped(cap),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for cap in caps
    ]
    deadline = time.monotonic() + 60
    try:
        for cap, child in zip(caps, children):
            try:
                out, err = child.communicate(timeout=max(deadline - time.monotonic(), 0))
            except subprocess.TimeoutExpired:
                pytest.fail(f"still running after 60 s under {cap} MB")
            assert (child.returncode, out) == (0, "MemoryError\n"), (cap, err[-2000:])
    finally:
        for child in children:
            child.kill()
            child.wait()
