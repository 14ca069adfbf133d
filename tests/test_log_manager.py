"""Unit tests for the WAL log manager (repro.wal.log_manager)."""

import pytest

from repro.common.errors import LogTruncationError, WALViolationError
from repro.common.identifiers import NULL_SI
from repro.core.operation import Operation, OpKind
from repro.storage import IOStats
from repro.wal.log_manager import LogManager
from repro.wal.records import CheckpointRecord, LogRecord


def _op(name: str = "op") -> Operation:
    return Operation(
        name,
        OpKind.PHYSICAL,
        reads=set(),
        writes={"x"},
        payload={"x": b"v"},
    )


class TestAppend:
    def test_lsis_monotonic_from_one(self):
        log = LogManager()
        first = log.append(LogRecord())
        second = log.append(LogRecord())
        assert first == NULL_SI + 1
        assert second == first + 1

    def test_append_operation_sets_op_lsi(self):
        log = LogManager()
        op = _op()
        lsi = log.append_operation(op)
        assert op.lsi == lsi

    def test_accounting(self):
        stats = IOStats()
        log = LogManager(stats)
        log.append_operation(_op())
        assert stats.log_records == 1
        assert stats.log_bytes > 0
        assert stats.log_value_bytes == 1  # the one payload byte


class TestForce:
    def test_records_volatile_until_forced(self):
        log = LogManager()
        lsi = log.append(LogRecord())
        assert not log.is_stable(lsi)
        log.force()
        assert log.is_stable(lsi)

    def test_force_through_prefix_only(self):
        log = LogManager()
        first = log.append(LogRecord())
        second = log.append(LogRecord())
        third = log.append(LogRecord())
        log.force_through(second)
        assert log.is_stable(first)
        assert log.is_stable(second)
        assert not log.is_stable(third)
        assert log.buffered_lsis() == [third]

    def test_force_counts_only_when_work_done(self):
        stats = IOStats()
        log = LogManager(stats)
        log.force()
        assert stats.log_forces == 0
        log.append(LogRecord())
        log.force()
        log.force()
        assert stats.log_forces == 1

    def test_force_through_before_buffer_is_noop(self):
        log = LogManager()
        lsi = log.append(LogRecord())
        log.force()
        log.append(LogRecord())
        log.force_through(lsi)  # already stable; nothing to do
        assert len(log.buffered_lsis()) == 1

    def test_assert_stable(self):
        log = LogManager()
        lsi = log.append(LogRecord())
        with pytest.raises(WALViolationError):
            log.assert_stable(lsi)
        log.force()
        log.assert_stable(lsi)
        log.assert_stable(NULL_SI)  # the null SI is vacuously stable


class TestCrash:
    def test_crash_drops_buffer_keeps_stable(self):
        log = LogManager()
        first = log.append(LogRecord())
        log.force()
        second = log.append(LogRecord())
        log.crash()
        assert log.is_stable(first)
        assert [r.lsi for r in log.stable_records()] == [first]
        assert log.buffered_lsis() == []
        # The lost lSI is never reused.
        third = log.append(LogRecord())
        assert third > second


class TestReading:
    def test_stable_records_from_lsi(self):
        log = LogManager()
        lsis = [log.append(LogRecord()) for _ in range(4)]
        log.force()
        got = [r.lsi for r in log.stable_records(from_lsi=lsis[2])]
        assert got == lsis[2:]

    def test_end_and_start_lsi(self):
        log = LogManager()
        assert log.stable_end_lsi() == NULL_SI
        lsis = [log.append(LogRecord()) for _ in range(3)]
        log.force()
        assert log.stable_end_lsi() == lsis[-1]
        assert log.stable_start_lsi() == lsis[0]


def _filtered(log: LogManager, from_lsi: int) -> list:
    """The whole-list filter the bisecting scan must reproduce."""
    return [r.lsi for r in log._stable if r.lsi >= from_lsi]


def _adopted(lsis) -> LogManager:
    log = LogManager()
    records = []
    for lsi in lsis:
        record = LogRecord()
        record.lsi = lsi
        records.append(record)
    log.adopt_records(records)
    return log


class TestStableScanFrom:
    """``stable_records(from_lsi)`` starts at a bisect, not a filter."""

    @pytest.mark.parametrize("from_lsi", range(0, 23))
    def test_gapped_adopted_log(self, from_lsi):
        # A witness's log keeps the primary's lSIs, with gaps where the
        # primary's private bookkeeping records were never shipped.
        log = _adopted([3, 4, 9, 12, 13, 20])
        got = [r.lsi for r in log.stable_records(from_lsi)]
        assert got == _filtered(log, from_lsi)

    @pytest.mark.parametrize("from_lsi", [NULL_SI, 1, 5, 6, 7, 9, 10, 11, 99])
    def test_after_truncate_before(self, from_lsi):
        log = LogManager()
        for _ in range(10):
            log.append(LogRecord())
        log.force()
        log.truncate_before(6, redo_start=6)
        assert log.stable_start_lsi() == 6
        got = [r.lsi for r in log.stable_records(from_lsi)]
        assert got == _filtered(log, from_lsi)

    def test_below_between_and_past_the_end(self):
        log = _adopted([5, 8, 11])
        assert [r.lsi for r in log.stable_records(NULL_SI)] == [5, 8, 11]
        assert [r.lsi for r in log.stable_records(6)] == [8, 11]
        assert [r.lsi for r in log.stable_records(8)] == [8, 11]
        assert list(log.stable_records(12)) == []
        assert list(LogManager().stable_records(3)) == []

    def test_records_forced_mid_scan_are_yielded(self):
        log = LogManager()
        for _ in range(2):
            log.append(LogRecord())
        log.force()
        scan = log.stable_records(2)
        assert next(scan).lsi == 2
        log.append(LogRecord())
        log.force()
        assert [r.lsi for r in scan][-1] == 3

    def test_faulty_log_scan_is_one_fault_point(self):
        from repro.storage.faults import FaultModel
        from repro.wal.faulty_log import FaultyLog

        model = FaultModel()  # counting only
        log = FaultyLog(model)
        for _ in range(6):
            log.append(LogRecord())
        log.force()
        before = model.next_point
        got = [r.lsi for r in log.stable_records(3)]
        assert got == _filtered(log, 3)
        assert model.next_point == before + 1


class TestTruncation:
    def test_truncate_discards_prefix(self):
        log = LogManager()
        lsis = [log.append(LogRecord()) for _ in range(5)]
        log.force()
        dropped = log.truncate_before(lsis[2], redo_start=lsis[3])
        assert dropped == 2
        assert [r.lsi for r in log.stable_records()] == lsis[2:]

    def test_truncated_lsis_count_as_stable(self):
        log = LogManager()
        lsis = [log.append(LogRecord()) for _ in range(3)]
        log.force()
        log.truncate_before(lsis[2], redo_start=lsis[2])
        assert log.is_stable(lsis[0])

    def test_truncation_past_redo_start_refused(self):
        log = LogManager()
        lsis = [log.append(LogRecord()) for _ in range(3)]
        log.force()
        with pytest.raises(LogTruncationError):
            log.truncate_before(lsis[2], redo_start=lsis[1])


class TestFlushTransactionProtocol:
    def test_append_flush_transaction(self):
        from repro.storage.stable_store import StoredVersion

        log = LogManager()
        commit_lsi = log.append_flush_transaction(
            {"a": StoredVersion(b"v", 9)}
        )
        log.force()
        records = list(log.stable_records())
        assert records[-1].lsi == commit_lsi
        assert len(records) == 2  # values + commit
