"""Reversible Turing-machine dynamics with a halt beacon.

The package compiles a deterministic machine into a reversible step
permutation on an extended basis (tape, head, state, rule history, clock,
halt flag, beacon bit), lifts that permutation to pulsed unitary dynamics in
continuous time, and semi-decides whether the evolved state ever comes
within a fidelity threshold of a beacon-marked target.  On top of that it
ships a halting-to-hitting reduction with a verified corpus and budgeted
decision protocols that exhibit the reduction's hardness operationally.
"""

from .errors import (
    BasisNotClosedError,
    CorpusBugError,
    IllFormedMachineError,
    LabelError,
    MachineSemanticsError,
    MachineSyntaxError,
    NoiseMarginError,
    OrbitNotClosedError,
    ParameterRangeError,
    PrecisionBudgetError,
    PulsehitError,
    SearchRangeExhaustedError,
    StateNormError,
    TimeTagError,
)
from .machine import (
    Configuration,
    Halted,
    MachineSpec,
    Rule,
    StillRunning,
    classical_run,
    classical_trace,
    parse_machine,
    serialize_machine,
)
from .reversible import (
    BeaconStep,
    BeaconSubspace,
    ClockMode,
    Cyclic,
    ExactLabel,
    ExtendedBasisState,
    Unbounded,
)
from .dynamics import (
    Amplitude,
    PulseSchedule,
    RationalMatrix,
    SparseState,
    approx_unitary,
    cycle_of,
    evolve_integer,
    evolve_to,
    fidelity,
    fractional_coeffs,
    state_to_json,
    subspace_fidelity,
)
from .hitting import (
    Exhausted,
    Hit,
    HitReport,
    InstanceDescriptor,
    fidelity_trace,
    grid_for,
    hit_report_json,
    trace_to_csv,
    uhit_semidecide,
)
from .reduction import (
    CorpusEntry,
    GroundTruth,
    Halts,
    LoopsForever,
    ReductionReport,
    builtin_corpus,
    counter_family,
    encode,
    load_corpus,
    reduction_report_json,
    validate_entry,
    verify_corpus,
)
from .protocol import (
    NoiseModel,
    ProtocolBudget,
    ProtocolOutcome,
    ReachableAt,
    ReportedUnreachable,
    Resources,
    SweepWitness,
    adversarial_sweep,
    classify_with_noise,
    run_bounded_protocol,
    sweep_report_json,
    work_to_reach,
)

__version__ = "0.1.0"
