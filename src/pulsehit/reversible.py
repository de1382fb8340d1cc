"""Reversible beacon dynamics on an extended machine basis.

A classical deterministic machine is compiled into a step map on labels
``(state, head, tape, history, clock, halt flag, beacon bit)``.  The
history records the index of every rule applied so far, which is what makes
un-stepping possible; the clock counts steps; the halt flag latches when the
halt state is entered; and the beacon bit toggles on every step taken after
halting, so a run that halts at classical step K is in the beacon subspace
(b = 1) for the first time exactly at clock value K + 1, whether or not
K = 0.

Two clock conventions are supported.  ``Unbounded`` runs the clock over all
integers, with negative times occupied by pure idle shifts of the t = 0
label, so the step map has a two-sided orbit through every label a run
reaches.  ``Cyclic(L)`` wraps the clock modulo L; after halting, the orbit of
a label closes into a finite cycle of length lcm(L, 2) (clock period L,
beacon period 2), which is the property the continuous-time lift exploits.

The run rule says which clock value tau, history length K, halt flag h and
beacon bit b can occur together on a run.  Before the halt, b = 0 and
tau = K (mod L on a ``Cyclic(L)`` clock); below clock 0 of an unbounded
clock only h = 0, b = 0, K = 0 occur.  After the halt, b = (tau - K) mod 2,
and an unbounded clock also has tau >= max(K, 1); a cyclic clock checks the
parity only for even L, since an odd-L cycle visits both parities.

The step map is injective on labels that keep the run rule but for one
point of a cyclic clock: the halt-entry label (the first with the halt flag
set) has two preimages that a run reaches, the last tail label and its
predecessor on the post-halt cycle, since a ray that enters a finite cycle
is never injective.  The backward map tries its candidate preimages in one
order, tail first, and returns the first that keeps the run rule and maps
onto the image under the forward map; every other label gets
``None``.

Up to the halt flag's rise, a run's labels differ only in the work half,
which the run rule lets :class:`LiveRun` step in place: a step there
builds no label, and a label is built only where a caller asks for one.
The step is written once, as :meth:`BeaconStep.advance`: its idle jump
below clock 0, :meth:`LiveRun.run` up to the halt, and the closed form
:meth:`BeaconStep._halted_after` past it; ``forward`` is ``advance(x, 1)``.
:meth:`LiveRun.run` steps in bulk, in one loop over local variables:
``run(k)`` takes k steps unless the flag rises or a rule is missing.  It
watches the work half for a revisit by Brent's cycle detection, on a save
schedule of its own and with a save that copies no tape, and records a
revisit it proves without stopping there.  Where a label sits past a
halted one is :meth:`BeaconStep._offset`, on either clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Union

from .errors import IllFormedMachineError, LabelError, OrbitNotClosedError
from .errors import ParameterRangeError, as_count, is_count
from .machine import MachineSpec

_OFFSET = {"L": -1, "R": 1, "S": 0}


@dataclass(frozen=True)
class Unbounded:
    """Clock over all integers; negative times are idle shifts."""


@dataclass(frozen=True)
class Cyclic:
    """Clock wraps modulo ``period`` (at least 2)."""

    period: int

    def __post_init__(self):
        if not isinstance(self.period, int) or self.period < 2:
            raise ParameterRangeError(
                f"cyclic clock period must be an integer >= 2, got {self.period!r}"
            )


ClockMode = Union[Unbounded, Cyclic]


@dataclass(frozen=True)
class BeaconSubspace:
    """Target: the span of all labels with beacon bit 1."""


@dataclass(frozen=True)
class ExactLabel:
    """Target: one specific basis label."""

    phi: "ExtendedBasisState"

    def __post_init__(self):
        _require_label(self.phi)


# ---------------------------------------------------------------------------
# labels and their serialization


def _uvarint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _zigzag(n: int) -> int:
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


class ExtendedBasisState:
    """One basis label of the extended space.

    ``tape`` is sparse (blank cells absent) and must never be mutated;
    ``hist`` is the tuple of rule indices applied so far, oldest first.
    Labels are value objects whose identity is their seven fields: equality
    compares the small fields first, then the history and the tape (each by
    identity before content, since the labels of one cycle share them).
    The hash covers only O(1) fields, the history's length among them, so
    it never walks the history or the tape; equal labels agree on all of
    them.  :attr:`serial` is the canonical byte form of the same identity,
    built on demand for ordering and printing.
    """

    __slots__ = ("state", "head", "tape", "hist", "tau", "h", "b", "_serial", "_hash")

    def __init__(
        self,
        state: str,
        head: int,
        tape: dict[int, str],
        hist: tuple[int, ...],
        tau: int,
        h: int,
        b: int,
    ):
        self.state = state
        self.head = head
        self.tape = tape
        self.hist = hist
        self.tau = tau
        self.h = h
        self.b = b
        self._serial = None
        self._hash = None

    @property
    def serial(self) -> bytes:
        """Canonical byte form; two labels are equal iff their serials are.
        It costs O(len(history) + len(tape)) to build, so it orders and
        prints labels but never compares or hashes them.

        Layout is tag/length/value with tags 1..7 in fixed order: state
        (utf-8), head (zigzag varint), tape (count, then sorted cell
        entries), history (count, then rule indices oldest first), clock
        (zigzag varint), halt flag, beacon bit.
        """
        if self._serial is None:
            head, tape, hist, tau = bytearray(), bytearray(), bytearray(), bytearray()
            _uvarint(head, _zigzag(self.head))
            _uvarint(tape, len(self.tape))
            for cell in sorted(self.tape):
                _uvarint(tape, _zigzag(cell))
                sym = self.tape[cell].encode("utf-8")
                _uvarint(tape, len(sym))
                tape.extend(sym)
            _uvarint(hist, len(self.hist))
            for idx in self.hist:
                _uvarint(hist, idx)
            _uvarint(tau, _zigzag(self.tau))
            payloads = self.state.encode("utf-8"), head, tape, hist, tau, (self.h,), (self.b,)
            out = bytearray()
            for tag, payload in enumerate(payloads, 1):
                out.append(tag)
                _uvarint(out, len(payload))
                out.extend(payload)
            self._serial = bytes(out)
        return self._serial

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (len(self.hist), self.tau, self.h, self.b, self.head, self.state)
            )
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ExtendedBasisState):
            return NotImplemented
        return (
            self.tau == other.tau
            and self.b == other.b
            and self.h == other.h
            and self.head == other.head
            and self.state == other.state
            and (self.hist is other.hist or self.hist == other.hist)
            and (self.tape is other.tape or self.tape == other.tape)
        )

    def __repr__(self) -> str:
        tape = {k: self.tape[k] for k in sorted(self.tape)}
        return (
            f"<{self.state}@{self.head} tape={tape} hist={list(self.hist)}"
            f" tau={self.tau} h={self.h} b={self.b}>"
        )


def _require_label(label) -> None:
    """Typed refusal of anything that is not a basis label."""
    if not isinstance(label, ExtendedBasisState):
        raise LabelError(f"not a basis label: {label!r}")


# ---------------------------------------------------------------------------
# the step permutation


class BeaconStep:
    """Forward and backward reversible step for one machine and clock mode.

    Forward semantics, in priority order, each written once (in
    :meth:`advance`'s idle jump, :meth:`LiveRun.run` and
    :meth:`_halted_after`):

    1. Unbounded clock, negative time: pure idle shift, only the clock
       moves.
    2. Halt flag set, or the control state is the halt state: the work half
       (state, head, tape, history) freezes, the clock ticks, the halt flag
       latches to 1, and the beacon bit flips.
    3. Otherwise one machine rule fires: tape, head and state update, the
       rule's index is appended to the history, the clock ticks, and the
       halt flag becomes 1 exactly when the new state is the halt state.

    A live label whose (state, symbol) pair has no rule raises
    :class:`IllFormedMachineError`; machines fed to the dynamics are
    expected to be total along their reachable configurations.

    The step also owns its orbit facts: :attr:`cycle_length` is the length
    lcm(L, 2) of every post-halt orbit on a ``Cyclic(L)`` clock (the clock
    ticks modulo L and the beacon toggles modulo 2 while the work half is
    frozen), or ``None`` on an unbounded clock, where no orbit closes;
    :meth:`advance` takes n steps with at most K + 1 of them stepped, in
    place, on a run that halts at step K, on either clock; and
    :meth:`_offset` places a label past a halted one, on either clock,
    which :meth:`cycle_offset` does on a cycle.
    """

    def __init__(self, spec: MachineSpec, clock: ClockMode):
        if not isinstance(clock, (Unbounded, Cyclic)):
            raise ParameterRangeError(f"unknown clock mode {clock!r}")
        for r in spec.rules:
            if r.state == spec.halt_state:
                raise IllFormedMachineError(
                    f"rule out of halt state ({r.state!r}, {r.read!r})"
                )
        self.spec = spec
        self.clock = clock
        # state -> symbol -> (rule index, symbol written or None when it
        # keeps the cell, head offset, next state, 1 into the halt state):
        # a step looks its rule up by two subscripts and hashes no pair
        moves: dict[str, dict[str, tuple]] = {}
        for idx, r in enumerate(spec.rules):
            moves.setdefault(r.state, {})[r.read] = (
                idx, None if r.write == r.read else r.write, _OFFSET[r.move],
                r.next_state, int(r.next_state == spec.halt_state))
        self._moves = moves
        self._rules = spec.rules
        self._blank = spec.blank
        self._halt = spec.halt_state
        self._cyclic = clock.period if isinstance(clock, Cyclic) else None
        self.cycle_length = None if self._cyclic is None else math.lcm(self._cyclic, 2)

    # -- construction helpers ------------------------------------------------

    def initial_label(self) -> ExtendedBasisState:
        tape = dict(enumerate(self.spec.input_word))
        return ExtendedBasisState(self.spec.start_state, 0, tape, (), 0, 0, 0)

    def make_label(
        self,
        state: str,
        head: int,
        tape: dict[int, str],
        hist: Iterable[int],
        tau: int,
        h: int,
        b: int,
    ) -> ExtendedBasisState:
        """Validated public constructor; ``hist`` is any iterable of rule
        indices, stored as a tuple (the step's own methods build labels
        directly and skip these checks)."""
        spec = self.spec
        if state not in spec.states:
            raise LabelError(f"undeclared state {state!r}")
        hist = tuple(hist)
        if not all(map(is_count, (head, tau, *tape, *hist))):
            raise LabelError("head, clock, tape cells and history indices must be integers")
        symbols = set(spec.alphabet)
        for sym in tape.values():
            if sym not in symbols:
                raise LabelError(f"undeclared tape symbol {sym!r}")
            if sym == spec.blank:
                raise LabelError("sparse tapes must omit blank cells")
        for idx in hist:
            if not 0 <= idx < len(spec.rules):
                raise LabelError(f"history rule index {idx} out of range")
        if self._cyclic is not None and not 0 <= tau < self._cyclic:
            raise LabelError(
                f"clock value {tau} outside cyclic range [0, {self._cyclic})"
            )
        if not all(is_count(bit) and bit in (0, 1) for bit in (h, b)):
            raise LabelError("halt flag and beacon bit must be 0 or 1")
        return ExtendedBasisState(state, head, dict(tape), hist, tau, h, b)

    # -- forward ---------------------------------------------------------------

    def _tick(self, tau: int, r: int = 1) -> int:
        if self._cyclic is None:
            return tau + r
        return (tau + r) % self._cyclic

    def _halted_after(self, x: ExtendedBasisState, r: int) -> ExtendedBasisState:
        """The label r steps after (r < 0: before) a halted label at a
        nonnegative clock: frozen work half, clock moved by r, r toggles."""
        return ExtendedBasisState(
            x.state, x.head, x.tape, x.hist, self._tick(x.tau, r), 1, x.b ^ (r & 1)
        )

    def forward(self, x: ExtendedBasisState) -> ExtendedBasisState:
        """The label one step after ``x``: ``advance(x, 1)``, with its
        :class:`LabelError` for a non-label.  A live step copies the
        history and the tape into a :class:`LiveRun` and out again,
        O(K + tape) at depth K; a halted or idle step shares both."""
        return self.advance(x, 1)

    def advance(self, x: ExtendedBasisState, n: int) -> ExtendedBasisState:
        """The label ``n`` forward steps from ``x``: the one statement of
        the step, which :meth:`forward` takes with ``n = 1``.  The idle
        shift below clock 0 of an unbounded clock is one jump; the live
        steps up to the halt flag are one :meth:`LiveRun.run` call in
        place, with one label built at their end; the rest is
        :meth:`_halted_after`.  A run that halts at step K costs O(K + len
        of the tape) on either clock, whatever ``n`` is."""
        _require_label(x)
        as_count(n, "step count")
        if self._cyclic is None and x.tau < 0:
            r = min(n, -x.tau)
            x = ExtendedBasisState(x.state, x.head, x.tape, x.hist, x.tau + r, x.h, x.b)
            n -= r
        if n and not x.h:
            run = LiveRun(self, x)
            run.run(n)
            n -= run.n
            x = run.label()
        return self._halted_after(x, n) if n else x

    def _require_cycle(self, x: ExtendedBasisState) -> None:
        """Typed refusal of a non-label, or of a label whose forward orbit
        never closes."""
        _require_label(x)
        if self.cycle_length is None:
            raise OrbitNotClosedError("unbounded clock strictly increases; no orbit closes")
        if x.h == 0:
            raise OrbitNotClosedError(
                "pre-halt label: its history grows every step, so the orbit "
                "cannot return (halt the machine or use an integer time)"
            )

    def cycle_offset(self, x: ExtendedBasisState, y: ExtendedBasisState) -> Optional[int]:
        """The r < :attr:`cycle_length` with ``y`` r steps after the halted
        label ``x``, or ``None`` off x's cycle: :meth:`_offset`, after the
        refusals of ``dynamics.cycle_of`` (a non-label, an unbounded clock,
        a pre-halt ``x``).  Member r is x's frozen work half at clock
        (x.tau + r) mod L and beacon x.b xor (r mod 2)."""
        self._require_cycle(x)
        _require_label(y)
        return self._offset(x, y)

    def _offset(self, x: ExtendedBasisState, y: ExtendedBasisState) -> Optional[int]:
        """The least r >= 0 with ``y`` r steps after the halted label
        ``x``, that is ``_halted_after(x, r) == y``, or ``None``: on an
        unbounded clock r is the clock difference, and on a ``Cyclic(L)``
        clock the r < :attr:`cycle_length` that CRT gives from the clock
        (mod L) and the beacon (mod 2)."""
        period = self._cyclic
        if period is None:
            r = y.tau - x.tau
            if r < 0:
                return None
        else:
            r = (y.tau - x.tau) % period
            r += period * ((r ^ x.b ^ y.b) & 1)  # the other parity, on odd periods
        return r if self._halted_after(x, r) == y else None

    # -- backward ----------------------------------------------------------------

    def _unapply(self, y: ExtendedBasisState, idx: int) -> Optional[tuple[str, int, dict]]:
        """Reverse the work-half effect of rule ``idx``, or None if the
        label is not consistent with having just fired it."""
        if not 0 <= idx < len(self._rules):
            return None
        r = self._rules[idx]
        if r.next_state != y.state:
            return None
        head = y.head - _OFFSET[r.move]
        if y.tape.get(head, self._blank) != r.write:
            return None
        tape = y.tape
        if r.write != r.read:
            tape = dict(tape)
            if r.read == self._blank:
                tape.pop(head, None)
            else:
                tape[head] = r.read
        return r.state, head, tape

    def _on_run(self, x: ExtendedBasisState) -> bool:
        """The run rule of the module docstring."""
        k = len(x.hist)
        if x.h == 0:
            if self._cyclic is None:
                return x.b == 0 and (x.tau == k or (x.tau < 0 and k == 0))
            return x.b == 0 and (x.tau - k) % self._cyclic == 0
        if self._cyclic is None:
            return x.tau >= max(k, 1) and x.b == (x.tau - k) % 2
        return self._cyclic % 2 == 1 or x.b == (x.tau - k) % 2

    def _candidates(self, y: ExtendedBasisState) -> Iterator[ExtendedBasisState]:
        """The labels that may step onto ``y`` on a run, tail first."""
        if len(y.hist) == 0:  # the flag's rise out of a step-0 halt
            yield ExtendedBasisState(y.state, y.head, y.tape, y.hist, 0, 0, y.b ^ 1)
        else:  # the last rule undone
            work = self._unapply(y, y.hist[-1])
            if work is not None:
                yield ExtendedBasisState(*work, y.hist[:-1], self._tick(y.tau, -1), 0, y.b)
        yield self._halted_after(y, -1)
        if self._cyclic is None:  # the idle shift below clock 0
            yield ExtendedBasisState(y.state, y.head, y.tape, y.hist, y.tau - 1, y.h, y.b)

    def backward(self, y: ExtendedBasisState) -> Optional[ExtendedBasisState]:
        """The preimage of ``y`` on a run, or ``None``.

        The answer is the first candidate, in the order last rule undone,
        step-0 flag rise, post-halt step, idle shift, that keeps the run
        rule (b = 0 and tau = K before the halt, b = (tau - K) mod 2 after
        it; see the module docstring) and steps onto ``y``.  The tail comes
        first, so a cyclic clock's halt-entry pinch resolves to the tail.
        Undoing a rule copies the history without its last index, O(K) at
        depth K.
        """
        _require_label(y)
        for cand in self._candidates(y):
            try:
                if self._on_run(cand) and self.forward(cand) == y:
                    return cand
            except IllFormedMachineError:
                pass
        return None

    # -- targets -----------------------------------------------------------------

    def target_predicate(
        self, target: Union[BeaconSubspace, ExactLabel]
    ) -> Callable[[ExtendedBasisState], bool]:
        if isinstance(target, BeaconSubspace):
            return lambda label: label.b == 1
        if isinstance(target, ExactLabel):
            phi = target.phi
            return lambda label: label == phi
        raise ParameterRangeError(f"unknown target {target!r}")


# ---------------------------------------------------------------------------
# the live run, in place


class LiveRun:
    """The run from a live label x (halt flag 0, at a nonnegative clock),
    with its work half stepped in place.

    By the run rule, n steps after x and up to the step that sets the halt
    flag, the label is the work half (state, head, tape) at step n, the
    history x.hist extended by the n rule indices applied, clock x.tau + n
    (mod L), h = 0 and b = x.b.  The flag rises on a rule into the halt
    state, with b kept, or on the step out of a live label that already
    sits in the halt state (the step-0 halt), with the work half frozen
    and b toggled.  So a step updates one tape dict, the head, the state,
    the step count n and a list of rule indices, and builds no label,
    history or tape copy; :meth:`label` builds the current label on
    request, in O(history + tape).  The tape is the run's own and changes
    with every step that writes.  :meth:`run` is the step map's only
    statement of a rule firing and of the flag's rise.

    The run also watches its work half for a revisit, by R. P. Brent's
    cycle detection: it saves (head, state) at run steps 0, 1, 2, 4, 8,
    ... and, until the next save, an undo log of each cell written since
    the save with its symbol at the save.  A save is O(1), and a compare
    with the saved work half, made only where the head and the state
    match, is O(cells written since the save), never O(tape).  Each save
    s is compared with the steps after it up to the next save point.  So
    a run whose work half at step mu + lam first repeats the one at step
    mu is proved to revisit at n = s + lam, for the first save point s >=
    mu with s + lam up to the next save point (Brent's bound): s < 2 *
    max(mu, lam), and n <= 2 * max(mu, lam) + lam - 1.  The proof is a
    record, not a stop: :attr:`revisit` = (s, n) is the pair of run steps
    a ``LoopsForever`` certificate carries, set once, after which the
    detector is off and the run steps on.  So ``run(k)`` takes exactly k
    steps unless the flag rises or a rule is missing, and the save
    schedule is the run's own.
    """

    __slots__ = (
        "state", "head", "tape", "n", "h", "b", "revisit",
        "_step", "_tau", "_hist", "_saved", "_undo",
    )

    def __init__(self, step: BeaconStep, x: ExtendedBasisState):
        self._step = step
        self.state, self.head, self.tape = x.state, x.head, dict(x.tape)
        self.n, self.h, self.b = 0, x.h, x.b
        self._tau = x.tau
        self._hist = list(x.hist)
        self.revisit: Optional[tuple[int, int]] = None
        # the save at step 0: (its step s, head, state), the head None once
        # a revisit is proved; and the cells written since, by their symbol
        # at the save.  The next save is at step 2s, or 1 after step 0.
        self._saved = (0, x.head, x.state)
        self._undo: dict[int, str] = {}

    @property
    def tau(self) -> int:
        """The clock of the current label."""
        return self._step._tick(self._tau, self.n)

    def run(self, k: int) -> None:
        """Take ``k`` steps of the live label in place, or fewer: the run
        stops after the step that raises the flag.  A step looks its rule
        up by its state, then by the symbol under its head, and fires it.
        A failed lookup is the step-0 halt in the halt state, which raises
        the flag and toggles the beacon, or else a missing rule: an
        ill-formed machine, raised with the clock of the label it could not
        step, after the steps before it are kept.  A revisit the detector
        proves on the way is recorded in :attr:`revisit` and does not stop
        the run.  Called on a live run only (``h`` still 0)."""
        beacon = self._step
        moves, blank = beacon._moves, beacon._blank
        tape = self.tape
        get = tape.get
        push = self._hist.append
        state, head, n = self.state, self.head, self.n
        (s, sh, ss), undo, revisit = self._saved, self._undo, self.revisit
        save_at, limit = 2 * s or 1, n + k
        stop = min(save_at, limit)
        h, missing = 0, None
        while True:
            if (
                head == sh
                and state == ss
                and n != s
                and all(get(cell, blank) == sym for cell, sym in undo.items())
            ):
                revisit, sh = (s, n), None
            if n >= stop:
                if n == save_at:
                    s, undo, save_at = n, {}, 2 * n
                    if sh is not None:
                        sh, ss = head, state
                if n >= limit:
                    break
                stop = min(save_at, limit)
            read = get(head, blank)
            try:
                idx, write, off, state, h = moves[state][read]
            except KeyError:  # the step-0 halt, or a missing rule
                if state == beacon._halt:
                    h, self.b = 1, self.b ^ 1
                    n += 1
                else:
                    missing = read
                break
            if write is not None:
                if head not in undo:
                    undo[head] = read
                if write == blank:
                    del tape[head]
                else:
                    tape[head] = write
            push(idx)
            head += off
            n += 1
            if h:
                break
        self.state, self.head, self.n, self.h = state, head, n, h
        self._saved, self._undo, self.revisit = (s, sh, ss), undo, revisit
        if missing is not None:
            raise IllFormedMachineError(f"no rule for ({state!r}, {missing!r}) at clock {self.tau}")

    def label(self) -> ExtendedBasisState:
        """The current label, with copies of the history and the tape."""
        return ExtendedBasisState(
            self.state, self.head, dict(self.tape), tuple(self._hist), self.tau, self.h, self.b
        )
