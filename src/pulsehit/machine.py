"""Deterministic Turing machines over a line-oriented text format.

A machine is a finite table of rules ``(state, symbol) -> (state', symbol',
move)`` acting on a two-way infinite tape.  The first declared alphabet
symbol is the blank; tapes are stored sparsely as ``{cell: symbol}`` with
blank cells absent, so two tapes are equal exactly when they agree on every
cell.

Document format (UTF-8, ``#`` starts a comment, tokens are separated by
whitespace)::

    states:   q0 q1 qH
    alphabet: _ 0 1
    start:    q0
    halt:     qH
    input:    101
    rule:     q0 1 -> q1 0 R

``states``, ``alphabet``, ``start`` and ``halt`` are mandatory and may each
appear once.  ``input`` and ``rule`` lines are optional; a machine with no
rules and ``start`` equal to ``halt`` halts immediately.  The input word is
written either as separate symbol tokens or, when every character is itself
a declared single-character symbol, as one compact token (``input: 101``).
Input symbols must be non-blank.  Moves are ``L``, ``R`` or ``S`` (stay).

Parsing is bit-exact: no case folding, no renaming, and serialization
reproduces the declaration order, so parse -> serialize -> parse is the
identity on accepted documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .errors import (
    IllFormedMachineError,
    MachineSemanticsError,
    MachineSyntaxError,
    as_count,
)

MOVES = ("L", "R", "S")
_OFFSET = {"L": -1, "R": 1, "S": 0}

_SECTIONS = ("states:", "alphabet:", "start:", "halt:", "input:", "rule:")


@dataclass(frozen=True)
class Rule:
    """One transition: in ``state`` reading ``read``, write ``write``,
    move the head by ``move`` and enter ``next_state``."""

    state: str
    read: str
    next_state: str
    write: str
    move: str


@dataclass(frozen=True)
class MachineSpec:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]  # first symbol is the blank
    start_state: str
    halt_state: str
    rules: tuple[Rule, ...]
    input_word: tuple[str, ...] = ()

    @property
    def blank(self) -> str:
        return self.alphabet[0]


def rule_table(spec: MachineSpec) -> dict[tuple[str, str], tuple[int, Rule]]:
    """Map ``(state, symbol)`` to ``(rule_index, rule)``.

    Rule indices follow declaration order and are the identifiers recorded
    in reversible histories, so they must be stable across runs.
    """
    return {(r.state, r.read): (i, r) for i, r in enumerate(spec.rules)}


@dataclass(frozen=True, eq=True)
class Configuration:
    """A classical snapshot.  ``tape`` maps cell index to a non-blank
    symbol; equality compares state, head and tape (and step count)."""

    state: str
    head: int
    tape: dict[int, str]
    step_count: int

    __hash__ = None  # type: ignore[assignment]  # dict field; never hashed

    def same_snapshot(self, other: "Configuration") -> bool:
        """Equality ignoring the step counter (used by loop certificates)."""
        return (
            self.state == other.state
            and self.head == other.head
            and self.tape == other.tape
        )


@dataclass(frozen=True)
class Halted:
    steps: int
    final: Configuration


@dataclass(frozen=True)
class StillRunning:
    at: Configuration


# ---------------------------------------------------------------------------
# parsing


def read_document(path) -> str:
    """The text of the document at ``path`` (a :class:`Path` or an
    ``importlib.resources`` Traversable), decoded as UTF-8; a byte that is
    not UTF-8 is a :class:`MachineSyntaxError` at its line and column."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "?" stands in for the bad byte: it ends the last line at its column
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
        raise MachineSyntaxError(
            f"byte 0x{data[exc.start]:02x} is not UTF-8", len(lines), len(lines[-1])
        ) from None


def _tokenize(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """Yield ``(line_number, line, tokens)`` for nonempty lines, with
    comments stripped from ``line``; line numbers are 1-based.  The tokens
    are ``line.split()``: no column is computed here, only by
    :func:`_column` for an error."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = line.split()
        if toks:
            yield lineno, line, toks


def _column(line: str, index: int) -> int:
    """The 1-based column of token ``index`` of a line from :func:`_tokenize`
    (``\\S+`` and ``str.split`` agree on whitespace); computed only for a
    :class:`MachineSyntaxError`, never for an accepted document."""
    return list(re.finditer(r"\S+", line))[index].start() + 1


def parse_machine(text: str) -> MachineSpec:
    """Parse a machine document.

    Raises :class:`MachineSyntaxError` (with line and column) for malformed
    lines and :class:`MachineSemanticsError` (naming the offending item) for
    structural violations such as duplicate ``(state, symbol)`` rules or a
    rule leaving the halt state.  A line's tokens come from ``str.split``;
    a token's column is found only for the error that names it
    (:func:`_column`), so an accepted document costs no column.
    """
    sections: dict[str, tuple[int, str, list[str]]] = {}
    rule_lines: list[tuple[int, str, list[str]]] = []
    for lineno, line, toks in _tokenize(text):
        head = toks[0]
        if head not in _SECTIONS:
            raise MachineSyntaxError(
                f"unknown directive {head!r} (expected one of {', '.join(_SECTIONS)})",
                lineno,
                _column(line, 0),
            )
        body = toks[1:]
        if head == "rule:":
            rule_lines.append((lineno, line, body))
            continue
        key = head[:-1]
        if key in sections:
            raise MachineSemanticsError(f"duplicate section {head!r} on line {lineno}")
        sections[key] = (lineno, line, body)

    for key in ("states", "alphabet", "start", "halt"):
        if key not in sections:
            raise MachineSemanticsError(f"missing mandatory section '{key}:'")

    def distinct_tokens(key: str, what: str) -> tuple[str, ...]:
        lineno, _, body = sections[key]
        if not body:
            raise MachineSyntaxError(f"empty '{key}:' line", lineno, 1)
        toks = tuple(body)
        if len(set(toks)) != len(toks):
            raise MachineSemanticsError(f"duplicate {what} in '{key}:'")
        return toks

    states = distinct_tokens("states", "state name")
    alphabet = distinct_tokens("alphabet", "symbol")

    def one_token(key: str) -> str:
        lineno, line, body = sections[key]
        if len(body) != 1:
            raise MachineSyntaxError(
                f"'{key}:' takes exactly one token", lineno, _column(line, 1) if body else 1
            )
        return body[0]

    start = one_token("start")
    halt = one_token("halt")
    state_set = set(states)
    if start not in state_set:
        raise MachineSemanticsError(f"start state {start!r} is not declared")
    if halt not in state_set:
        raise MachineSemanticsError(f"halt state {halt!r} is not declared")

    symbol_set = set(alphabet)
    blank = alphabet[0]

    input_word: tuple[str, ...] = ()
    if "input" in sections:
        toks = sections["input"][2]
        if len(toks) == 1 and toks[0] not in symbol_set:
            # compact form: each character must be a declared symbol
            chars = list(toks[0])
            if not all(c in symbol_set for c in chars):
                bad = next(c for c in chars if c not in symbol_set)
                raise MachineSemanticsError(
                    f"input token {toks[0]!r} is neither a symbol nor a word of"
                    f" single-character symbols (offending character {bad!r})"
                )
            toks = chars
        for sym in toks:
            if sym not in symbol_set:
                raise MachineSemanticsError(f"input symbol {sym!r} is not declared")
            if sym == blank:
                raise MachineSemanticsError("input word may not contain the blank")
        input_word = tuple(toks)

    rules: list[Rule] = []
    seen: dict[tuple[str, str], int] = {}
    for lineno, line, body in rule_lines:
        if len(body) != 6 or body[2] != "->":
            raise MachineSyntaxError(
                "rule line must read 'rule: STATE SYMBOL -> STATE SYMBOL MOVE'",
                lineno,
                _column(line, 1) if body else 1,
            )
        q, s, _, q2, s2, mv = body
        for name, kind in ((q, "state"), (q2, "state")):
            if name not in state_set:
                raise MachineSemanticsError(
                    f"rule on line {lineno} references undeclared {kind} {name!r}"
                )
        for sym in (s, s2):
            if sym not in symbol_set:
                raise MachineSemanticsError(
                    f"rule on line {lineno} references undeclared symbol {sym!r}"
                )
        if mv not in MOVES:
            raise MachineSyntaxError(
                f"move must be one of {MOVES}, got {mv!r}", lineno, _column(line, 6)
            )
        if q == halt:
            raise MachineSemanticsError(
                f"rule on line {lineno} leaves the halt state ({q!r}, {s!r})"
            )
        if (q, s) in seen:
            raise MachineSemanticsError(
                f"duplicate rule for ({q!r}, {s!r}): lines {seen[(q, s)]} and {lineno}"
            )
        seen[(q, s)] = lineno
        rules.append(Rule(q, s, q2, s2, mv))

    return MachineSpec(states, alphabet, start, halt, tuple(rules), input_word)


def serialize_machine(spec: MachineSpec) -> str:
    """Render a spec back to the text format (canonical single spaces,
    declaration order preserved).  Re-parsing yields an equal spec."""
    lines = [
        "states: " + " ".join(spec.states),
        "alphabet: " + " ".join(spec.alphabet),
        "start: " + spec.start_state,
        "halt: " + spec.halt_state,
    ]
    if spec.input_word:
        lines.append("input: " + " ".join(spec.input_word))
    for r in spec.rules:
        lines.append(f"rule: {r.state} {r.read} -> {r.next_state} {r.write} {r.move}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# classical execution


def classical_run(
    spec: MachineSpec, max_steps: int
) -> Union[Halted, StillRunning]:
    """Run from the initial configuration for at most ``max_steps`` steps.

    Returns ``Halted(K, final)`` with the exact halting step when the halt
    state is reached within the bound, else ``StillRunning`` at the bound;
    either configuration holds the tape the run built, not a copy.
    This is the ground-truth side of every halting-versus-hitting check, so
    it deliberately shares no code with the reversible dynamics, not even a
    rule-table helper: it builds its own table, state -> symbol ->
    (next state, symbol written or None when it keeps the cell, head
    offset), and looks each step's rule up by two subscripts.
    """
    as_count(max_steps, "max_steps")
    table: dict[str, dict[str, tuple[str, Optional[str], int]]] = {}
    for r in spec.rules:
        table.setdefault(r.state, {})[r.read] = (
            r.next_state, None if r.write == r.read else r.write, _OFFSET[r.move])
    blank = spec.blank
    halt = spec.halt_state
    tape = dict(enumerate(spec.input_word))
    head = 0
    state = spec.start_state
    k = 0
    while True:
        if state == halt:
            return Halted(k, Configuration(state, head, tape, k))
        if k == max_steps:
            return StillRunning(Configuration(state, head, tape, k))
        read = tape.get(head, blank)
        try:
            state, write, off = table[state][read]
        except KeyError:
            raise IllFormedMachineError(
                f"no rule for ({state!r}, {read!r}) at step {k}"
            ) from None
        if write is not None:
            if write == blank:
                del tape[head]
            else:
                tape[head] = write
        head += off
        k += 1


def classical_trace(spec: MachineSpec, n: int) -> Iterator[Configuration]:
    """Yield configurations 0..n (or up to the halting configuration if it
    comes first; the halted configuration is yielded once).  Snapshots
    share a tape until a step writes to it."""
    table = rule_table(spec)
    blank = spec.blank
    c = Configuration(spec.start_state, 0, dict(enumerate(spec.input_word)), 0)
    yield c
    for k in range(n):
        if c.state == spec.halt_state:
            return
        read = c.tape.get(c.head, blank)
        hit = table.get((c.state, read))
        if hit is None:
            raise IllFormedMachineError(
                f"no rule for ({c.state!r}, {read!r}) at step {k}"
            )
        _, rule = hit
        tape = c.tape
        if rule.write != read:
            tape = dict(tape)
            if rule.write == blank:
                tape.pop(c.head, None)
            else:
                tape[c.head] = rule.write
        c = Configuration(rule.next_state, c.head + _OFFSET[rule.move], tape, k + 1)
        yield c
