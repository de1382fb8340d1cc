"""Shared test helpers: the shipped corpus machines, random machine
strategies, the 2-state census, beacon instances, a forward walk and a
counter of reversible steps."""

from fractions import Fraction
from importlib import resources

from hypothesis import strategies as st

from pulsehit.dynamics import PulseSchedule
from pulsehit.hitting import InstanceDescriptor, grid_for
from pulsehit.machine import MachineSpec, Rule, parse_machine, read_document
from pulsehit.reversible import BeaconStep, BeaconSubspace


def corpus_text(name: str) -> str:
    """The document of the shipped machine ``corpus/<name>.tm``."""
    return read_document(resources.files("pulsehit").joinpath("corpus", f"{name}.tm"))


def corpus_machine(name: str) -> MachineSpec:
    """The shipped machine ``corpus/<name>.tm``, parsed."""
    return parse_machine(corpus_text(name))


MOVE_RIGHT_3 = corpus_machine("move-right-3")  # three cells right, halts at K = 3
HALT_NOW = corpus_machine("halt-now")  # the start state is the halt state
LOOP_STAY = corpus_machine("loop-stay")  # spins in place on one blank
BINARY_INC = corpus_machine("binary-inc")  # 111 -> 1000, halts at K = 4

QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)


def beacon_instance(spec, clock, horizon, *, epsilon=QUARTER, delta=HALF, grid=None):
    """The beacon-target instance of ``spec``, on the grid ``grid_for``
    picks for ``epsilon`` unless ``grid`` is given."""
    sched = PulseSchedule(delta, clock)
    if grid is None:
        grid = grid_for(epsilon)
    return InstanceDescriptor(spec, epsilon, sched, BeaconSubspace(), horizon, grid)


def walk(step, label, n):
    """``label`` and the n labels after it, each from ``step.forward``
    (``advance(x, 1)``), one step at a time."""
    out = [label]
    for _ in range(n):
        label = step.forward(label)
        out.append(label)
    return out


name_st = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=3)


@st.composite
def machines(draw, total=False):
    """A random well-formed machine.

    With ``total=True`` every live (state, symbol) pair gets a rule, so
    classical runs and reversible orbits never fall off the rule table.
    """
    states = tuple(draw(st.lists(name_st, min_size=2, max_size=4, unique=True)))
    alphabet = tuple(draw(st.lists(name_st, min_size=1, max_size=3, unique=True)))
    start = draw(st.sampled_from(states))
    halt = draw(st.sampled_from(states))
    live = [q for q in states if q != halt]
    pairs = [(q, s) for q in live for s in alphabet]
    if total:
        chosen = pairs
    else:
        chosen = [p for p in pairs if draw(st.booleans())]
    rules = tuple(
        Rule(
            q,
            s,
            draw(st.sampled_from(states)),
            draw(st.sampled_from(alphabet)),
            draw(st.sampled_from(["L", "R", "S"])),
        )
        for q, s in chosen
    )
    nonblank = alphabet[1:]
    word = ()
    if nonblank:
        word = tuple(draw(st.lists(st.sampled_from(nonblank), max_size=4)))
    return MachineSpec(states, alphabet, start, halt, rules, word)


# census machines by index: right-mover writing 1s and left-mover
# (translated loopers, no revisit), loopers with a prefix (revisits (1, 7),
# (4, 6), (5, 7)), a 5-cycle from step 0, loop-stay, and halters at steps
# 6 and 5
NAMED_CENSUS = [4, 0, 47764, 19630, 18981, 1681, 2, 19666, 30355]

# the (state, symbol) pairs of the 2-state census, in digit order
_CENSUS_PAIRS = (("q0", "_"), ("q0", "1"), ("q1", "_"), ("q1", "1"))
CENSUS_SIZE = 18 ** len(_CENSUS_PAIRS)


def census_machine(index: int) -> MachineSpec:
    """Machine ``index`` of the 18^4 machines with live states q0, q1,
    halt state qH, alphabet {_, 1}, moves L/R/S and a blank input.  Digit
    k (base 18, least significant first) is the rule of pair k: next
    state q0/q1/qH by d // 6, write _/1 by d // 3 % 2, move L/R/S by
    d % 3."""
    rules = []
    for state, read in _CENSUS_PAIRS:
        index, d = divmod(index, 18)
        rules.append(Rule(state, read, ("q0", "q1", "qH")[d // 6], "_1"[d // 3 % 2], "LRS"[d % 3]))
    return MachineSpec(("q0", "q1", "qH"), ("_", "1"), "q0", "qH", tuple(rules), ())


def count_forward(monkeypatch):
    """The list of labels ``BeaconStep.forward`` is called on from now on,
    through a counting wrapper left in place for the rest of the test."""
    calls = []
    forward = BeaconStep.forward

    def counting_forward(self, x):
        calls.append(x)
        return forward(self, x)

    monkeypatch.setattr(BeaconStep, "forward", counting_forward)
    return calls
