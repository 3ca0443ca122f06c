"""Byzantine adversary layer: message tampering, slander, quorum safety.

The crash/omission fault subsystem (:mod:`repro.faults`) assumes every
delivered message is honest.  This package drops that assumption:

* :class:`AdversaryPlan` declares a set of Byzantine nodes with
  :class:`TamperRule` message-tampering behaviors (corrupt, forge,
  replay, equivocate) and :class:`SlanderWindow` detector slander
  (falsely accusing alive peers of death).  It rides on
  :class:`~repro.faults.FaultPlan.adversary` and is applied inside
  :meth:`~repro.faults.runtime.FaultRuntime.delivered_payloads` on both
  object engines — every existing fault plan, scenario and benchmark can
  be re-run under hostile conditions by attaching one.
* :class:`QuorumPolicy` and :class:`VoteLedger` provide majority-quorum
  commit gating with the vote-once rule — the arithmetic that makes two
  same-epoch leaders impossible (hypothesis-tested in
  ``tests/test_quorum_property.py``).
* :class:`QuorumReElectionElection` / :class:`AsyncQuorumReElectionElection`
  (registered as ``quorum_reelect``) close the plain re-election
  wrapper's split-brain holes: minority components abstain, commits are
  ack-gated on a quorum, and slandered stragglers rejoin via
  authenticated coord catch-up.  Specified for ``f < n/2`` combined
  crash + slander adversaries.

Everything remains deterministic per ``(seed, FaultPlan)``; see
``DESIGN.md`` ("Adversary subsystem") and ``docs/MODEL.md``.
"""

from repro._exports import lazy_exports


def _plan():
    from repro.adversary.plan import (  # noqa: F401
        TAMPER_MODES,
        AdversaryPlan,
        SlanderWindow,
        TamperRule,
    )

    return locals()


def _quorum():
    from repro.adversary.quorum import (  # noqa: F401
        QACK,
        AsyncQuorumReElectionElection,
        QuorumPolicy,
        QuorumReElectionElection,
        VoteLedger,
    )

    return locals()


def _runtime():
    from repro.adversary.runtime import AdversaryRuntime, payload_kinds  # noqa: F401

    return locals()


__all__ = [
    "TAMPER_MODES",
    "TamperRule",
    "SlanderWindow",
    "AdversaryPlan",
    "AdversaryRuntime",
    "payload_kinds",
    "QACK",
    "QuorumPolicy",
    "VoteLedger",
    "QuorumReElectionElection",
    "AsyncQuorumReElectionElection",
]

__getattr__ = lazy_exports(globals(), _plan, _quorum, _runtime)
