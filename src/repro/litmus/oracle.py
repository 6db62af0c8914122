"""The testing oracle: classifying outcomes against the memory model.

Built once per test by exhaustively enumerating candidate executions
(:mod:`repro.memory_model.enumeration`) and projecting them onto
observable outcomes, the oracle answers two questions in O(1) at
runtime:

* **Is this outcome a conformance violation?**  Yes iff *no* allowed
  candidate execution explains the observables.
* **Does this outcome witness the test's target behaviour?**  Yes iff
  the observables are produced by some target-class execution and by
  *no* execution outside the class — i.e. the signature is an
  unambiguous witness.  This is what "killing a mutant" means
  operationally.

The oracle also powers a key validity check from Sec. 3 of the paper:
a conformance test's target behaviour must be *disallowed* and its
mutant's target behaviour must be *allowed*; see :meth:`TestOracle.target_allowed`.
"""

from __future__ import annotations

from functools import cached_property
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.errors import EnvironmentError_, WitnessError
from repro.litmus.outcomes import Outcome, Signature, outcome_of_execution
from repro.litmus.program import LitmusTest, structural_test_key
from repro.memo import Memo, MemoStats
from repro.memory_model.enumeration import enumerate_executions
from repro.memory_model.execution import Execution


class TestOracle:
    """Ground-truth outcome classification for one litmus test."""

    # Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, test: LitmusTest) -> None:
        self.test = test
        self._allowed_signatures: Set[Signature] = set()
        self._target_signatures: Set[Signature] = set()
        self._nontarget_signatures: Set[Signature] = set()
        self._target_allowed: Optional[bool] = None
        self._analyze()

    def _analyze(self) -> None:
        threads = self.test.event_threads()
        target = self.test.target
        target_seen = False
        for execution in enumerate_executions(threads):
            signature = outcome_of_execution(self.test, execution).signature()
            allowed = self.test.model.allows(execution)
            if allowed:
                self._allowed_signatures.add(signature)
            if target is not None:
                if target.matches(self.test, execution):
                    target_seen = True
                    self._target_signatures.add(signature)
                    # The behaviour is *allowed* iff some allowed
                    # execution realises it.  (The class may also
                    # contain disallowed members — e.g. variants with
                    # incoherent observer reads — which do not make the
                    # behaviour itself illegal.)
                    if allowed:
                        self._target_allowed = True
                    elif self._target_allowed is None:
                        self._target_allowed = False
                elif allowed:
                    # Only *allowed* non-target executions make a witness
                    # ambiguous: disallowed look-alikes cannot occur on a
                    # conforming implementation, and on a buggy one they
                    # are bugs worth counting anyway.
                    self._nontarget_signatures.add(signature)
        if target is not None and not target_seen:
            raise WitnessError(
                f"test {self.test.name!r}: no candidate execution realises "
                f"target behaviour {target.describe()}"
            )
        # Unambiguous witnesses only.
        self._target_signatures -= self._nontarget_signatures
        if target is not None and not self._target_signatures:
            raise WitnessError(
                f"test {self.test.name!r}: target behaviour "
                f"{target.describe()} has no unambiguous observable "
                f"witness; add an observer thread"
            )

    # -- classification ---------------------------------------------------

    @property
    def allowed_signatures(self) -> FrozenSet[Signature]:
        return frozenset(self._allowed_signatures)

    @property
    def target_signatures(self) -> FrozenSet[Signature]:
        """Signatures that unambiguously witness the target behaviour."""
        return frozenset(self._target_signatures)

    def target_allowed(self) -> bool:
        """Whether the target behaviour is legal under the test's model.

        For a conformance test this must be False; for a mutant, True.
        """
        if self.test.target is None:
            raise WitnessError(
                f"test {self.test.name!r} has no target behaviour"
            )
        assert self._target_allowed is not None
        return self._target_allowed

    def is_violation(self, outcome: Outcome) -> bool:
        """True iff no allowed candidate execution explains ``outcome``."""
        return outcome.signature() not in self._allowed_signatures

    def matches_target(self, outcome: Outcome) -> bool:
        """True iff ``outcome`` unambiguously witnesses the target.

        For mutants this is the *kill* predicate; for conformance tests
        it identifies the specific disallowed behaviour of interest
        (used by the correlation analysis, Sec. 5.4).
        """
        return outcome.signature() in self._target_signatures

    def is_interesting(self, outcome: Outcome) -> bool:
        """Violation or target witness — what a test run tallies."""
        return self.is_violation(outcome) or self.matches_target(outcome)

    # -- diagnostics --------------------------------------------------------

    @cached_property
    def witness_executions(self) -> Tuple[Execution, ...]:
        """Target-class executions whose outcomes are unambiguous."""
        if self.test.target is None:
            return ()
        result: List[Execution] = []
        for execution in enumerate_executions(self.test.event_threads()):
            if not self.test.target.matches(self.test, execution):
                continue
            signature = outcome_of_execution(self.test, execution).signature()
            if signature in self._target_signatures:
                result.append(execution)
        return tuple(result)

    def describe(self) -> str:
        lines = [
            f"oracle for {self.test.name}:",
            f"  allowed outcome signatures: {len(self._allowed_signatures)}",
        ]
        if self.test.target is not None:
            legality = "allowed" if self.target_allowed() else "DISALLOWED"
            lines.append(
                f"  target ({self.test.target.describe()}): {legality}, "
                f"{len(self._target_signatures)} witness signature(s)"
            )
        return "\n".join(lines)


#: Oracle construction enumerates every candidate execution, so it is
#: by far the most expensive per-test step.  One bounded process-wide
#: memo, keyed structurally, serves every layer that needs an oracle
#: (mutant verification, characterization, operational execution), so
#: a campaign over an unbounded stream of generated tests cannot grow
#: process memory without limit.
_ORACLE_MEMO = Memo("oracle", maxsize=512)


def oracle_for(test: LitmusTest) -> TestOracle:
    """The memoized oracle of ``test``."""
    return _ORACLE_MEMO.get_or_compute(
        structural_test_key(test), lambda: TestOracle(test)
    )


def oracle_cache_stats() -> MemoStats:
    """Current hit/miss/eviction counters of the oracle memo."""
    return _ORACLE_MEMO.stats()


def reset_oracle_cache(maxsize: Optional[int] = None) -> None:
    """Empty the oracle memo (and optionally rebound it)."""
    if maxsize is not None:
        if maxsize < 1:
            raise EnvironmentError_("oracle cache maxsize must be >= 1")
        _ORACLE_MEMO.maxsize = maxsize
    _ORACLE_MEMO.clear()
