"""The paper's ATPG building blocks (§5).

The pipeline itself lives in :mod:`repro.flow` (``Flow.default()``:
collapse → random TPG → 3-phase → compaction, over one
``RunContext``).  This package holds the algorithms the stages call —

1. CSSG construction lives in :mod:`repro.sgraph` (§4);
2. **random TPG** with parallel-ternary fault simulation (§5.4) —
   :mod:`repro.core.random_tpg`;
3. **3-phase deterministic ATPG** — activation, justification,
   differentiation (§5.1–5.3) — :mod:`repro.core.three_phase`;
4. **fault simulation** of generated sequences (§5.4) —
   :func:`repro.flow.stages.fault_simulate` over :mod:`repro.sim`;

— plus the shared data contract (:mod:`repro.core.atpg`:
``AtpgOptions`` / ``AtpgResult``),
collapsing, compaction, verification, and reporting.
"""

from repro.core.sequences import Test, TestSet
from repro.core.atpg import AtpgOptions, AtpgResult, FaultStatus
from repro.core.random_tpg import random_tpg
from repro.core.three_phase import ThreePhaseGenerator, GenerationOutcome
from repro.core.report import format_table, result_row
from repro.core.verify import VerificationReport, audit_result, verify_test_set
from repro.core.compact import compact_test_set
from repro.core.collapse import collapse_faults

__all__ = [
    "Test",
    "TestSet",
    "AtpgOptions",
    "AtpgResult",
    "FaultStatus",
    "random_tpg",
    "ThreePhaseGenerator",
    "GenerationOutcome",
    "format_table",
    "result_row",
    "VerificationReport",
    "audit_result",
    "verify_test_set",
    "compact_test_set",
    "collapse_faults",
]
