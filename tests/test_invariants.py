"""The datapath invariant checker, driven directly through its hooks.

The chaos and migration harnesses only assert that a run ends with no
violation; these tests feed the checker hand-built emission, forward and
EOF sequences and check what it flags, what it keeps, and what it
reports.  The detection tests use the emission and forward hooks only.
"""

from repro.faults import InvariantChecker

UID = 7


def emit(checker, seqs, nbytes=100, uid=UID):
    for seq in seqs:
        checker.on_data_emitted(uid, seq, nbytes)


def forward(checker, seqs, nbytes=100, uid=UID):
    for seq in seqs:
        checker.on_data_forwarded(uid, seq, nbytes)


def flagged(checker, text):
    return [v for v in checker.violations if text in v]


def holds(checker, uid=UID):
    """Whether the checker still keeps any state for flow ``uid``."""
    return any(
        uid in table
        for table in (
            checker._emitted_seqs,
            checker._next_forward,
            checker._emitted_bytes,
            checker._forwarded_bytes,
            checker._eof_pending,
        )
    )


# -- detection -----------------------------------------------------------------
def test_an_in_order_stream_is_clean():
    checker = InvariantChecker()
    emit(checker, range(3))
    forward(checker, range(3))
    assert checker.audit() == [] and checker.ok
    assert checker.report() == "invariants: OK (1 flows, 300 bytes forwarded)"


def test_a_duplicate_delivery_is_flagged():
    checker = InvariantChecker()
    emit(checker, range(2))
    forward(checker, [0, 1, 1])
    assert flagged(checker, f"flow {UID}: duplicate delivery of seq 1")
    assert not checker.ok


def test_a_gap_or_reorder_is_flagged():
    checker = InvariantChecker()
    emit(checker, range(3))
    forward(checker, [0, 2])
    assert flagged(checker, f"flow {UID}: gap/reorder — forwarded seq 2, expected 1")


def test_a_forward_of_a_seq_never_emitted_is_flagged():
    checker = InvariantChecker()
    emit(checker, range(2))
    forward(checker, [0, 1, 2])
    assert flagged(checker, f"flow {UID}: forwarded seq 2 that was never emitted")
    other = InvariantChecker()
    forward(other, [0], uid=UID + 1)
    assert flagged(other, f"flow {UID + 1}: forwarded seq 0 that was never emitted")


def test_forwarded_bytes_beyond_emitted_bytes_are_flagged():
    checker = InvariantChecker()
    emit(checker, [0], nbytes=100)
    forward(checker, [0], nbytes=250)
    assert checker.violations == []  # conservation is a ledger check
    found = checker.audit()
    assert found == [f"flow {UID}: forwarded 250B but only 100B emitted"]
    assert checker.violations == found


def test_a_skipped_emission_is_flagged():
    checker = InvariantChecker()
    emit(checker, [0, 2])
    assert flagged(checker, f"flow {UID}: emitted seq 2, expected 1")


# -- settling finished flows -----------------------------------------------------
def test_a_flow_is_dropped_only_after_its_eof_and_every_forward():
    checker = InvariantChecker()
    emit(checker, range(3))
    forward(checker, range(3))
    assert holds(checker)  # every nqe forwarded, but no EOF yet
    checker.on_eof(UID)
    assert not holds(checker)
    assert checker.ok and checker.audit() == []


def test_an_eof_ahead_of_the_last_data_nqe_keeps_the_flow_until_it_arrives():
    checker = InvariantChecker()
    emit(checker, range(3))
    forward(checker, range(2))
    checker.on_eof(UID)  # overtook DATA seq 2, as under a migration
    assert holds(checker)
    forward(checker, [2])
    assert not holds(checker)
    assert checker.ok
    assert checker.report() == "invariants: OK (1 flows, 300 bytes forwarded)"


def test_an_eof_with_no_data_keeps_nothing():
    checker = InvariantChecker()
    checker.on_eof(UID)
    assert not holds(checker)
    assert checker.report() == "invariants: OK (0 flows, 0 bytes forwarded)"


def test_settling_runs_the_conservation_check():
    checker = InvariantChecker()
    emit(checker, [0], nbytes=100)
    forward(checker, [0], nbytes=250)
    checker.on_eof(UID)
    assert not holds(checker)
    assert checker.violations == [f"flow {UID}: forwarded 250B but only 100B emitted"]


def test_a_late_forward_for_a_dropped_flow_is_flagged():
    checker = InvariantChecker()
    emit(checker, range(2))
    forward(checker, range(2))
    checker.on_eof(UID)
    forward(checker, [1])  # a duplicate of a delivered nqe
    assert flagged(checker, f"flow {UID}: forwarded seq 1 that was never emitted")


def test_a_late_emission_for_a_dropped_flow_is_flagged():
    checker = InvariantChecker()
    emit(checker, range(2))
    forward(checker, range(2))
    checker.on_eof(UID)
    emit(checker, [2])  # DATA after the flow's EOF
    assert flagged(checker, f"flow {UID}: emitted seq 2, expected 0")


def test_report_counts_settled_and_open_flows_as_before():
    """The same traffic with and without EOFs reports the same counts."""

    def run(with_eof):
        checker = InvariantChecker()
        for uid in range(1, 6):
            emit(checker, range(uid), nbytes=10 * uid, uid=uid)
            forward(checker, range(uid), nbytes=10 * uid, uid=uid)
            if with_eof and uid % 2:
                checker.on_eof(uid)
        emit(checker, [0], nbytes=64, uid=99)  # open, nothing forwarded yet
        checker.audit()
        return checker

    settled, kept = run(True), run(False)
    assert settled.report() == kept.report()
    assert settled.report() == "invariants: OK (6 flows, 550 bytes forwarded)"
    assert repr(settled) == repr(kept)
    assert sum(holds(settled, uid) for uid in (1, 2, 3, 4, 5, 99)) == 3
