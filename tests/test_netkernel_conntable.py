"""Connection mapping table: bijection invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netkernel import ConnectionTable


def test_insert_and_lookup_both_ways():
    table = ConnectionTable()
    table.insert(1, 3, 7, 100)
    assert table.to_nsm(1, 3) == (7, 100)
    assert table.to_vm(7, 100) == (1, 3)


def test_missing_lookup_returns_none():
    table = ConnectionTable()
    assert table.to_nsm(1, 3) is None
    assert table.to_vm(7, 100) is None


def test_duplicate_vm_key_rejected():
    table = ConnectionTable()
    table.insert(1, 3, 7, 100)
    with pytest.raises(KeyError):
        table.insert(1, 3, 8, 200)


def test_duplicate_nsm_key_rejected():
    table = ConnectionTable()
    table.insert(1, 3, 7, 100)
    with pytest.raises(KeyError):
        table.insert(2, 4, 7, 100)


def test_remove_by_vm_clears_both_directions():
    table = ConnectionTable()
    table.insert(1, 3, 7, 100)
    table.remove_by_vm(1, 3)
    assert table.to_nsm(1, 3) is None
    assert table.to_vm(7, 100) is None
    assert len(table) == 0


def test_remove_missing_is_noop():
    table = ConnectionTable()
    table.remove_by_vm(9, 9)


def test_fd_allocation_starts_at_3_and_increments():
    table = ConnectionTable()
    assert table.allocate_fd(1) == 3
    assert table.allocate_fd(1) == 4
    assert table.allocate_fd(2) == 3  # per-VM namespaces


def test_cid_allocation_per_nsm():
    table = ConnectionTable()
    assert table.allocate_cid(1) == 1
    assert table.allocate_cid(1) == 2
    assert table.allocate_cid(9) == 1


def test_family_defaults_to_tcp_and_is_queryable():
    table = ConnectionTable()
    table.insert(1, 3, 7, 100)
    table.insert(1, 4, 8, 200, family="quic")
    assert table.connections_of_vm(1, family="tcp") == [(1, 3)]
    assert table.connections_of_vm(1, family="quic") == [(1, 4)]
    assert (1, 99) not in table._family


def test_connections_of_vm_filters_by_family():
    table = ConnectionTable()
    table.insert(1, 3, 7, 100)
    table.insert(1, 4, 8, 200, family="quic")
    table.insert(1, 5, 8, 201, family="quic")
    assert sorted(table.connections_of_vm(1)) == [(1, 3), (1, 4), (1, 5)]
    assert sorted(table.connections_of_vm(1, family="quic")) == [(1, 4), (1, 5)]
    assert table.connections_of_vm(1, family="tcp") == [(1, 3)]


def test_removal_drops_the_family_mapping():
    table = ConnectionTable()
    table.insert(1, 3, 7, 100, family="quic")
    table.remove_by_vm(1, 3)
    assert table._family == {}
    table.insert(2, 3, 7, 101, family="quic")
    table.evict_nsm(7)
    assert table._family == {}


def test_connections_of_vm_and_nsm():
    table = ConnectionTable()
    table.insert(1, 3, 7, 100)
    table.insert(1, 4, 7, 101)
    table.insert(2, 3, 7, 102)
    assert sorted(table.connections_of_vm(1)) == [(1, 3), (1, 4)]
    assert len(table.connections_of_nsm(7)) == 3


@settings(max_examples=100, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["insert", "remove_vm", "evict_nsm"]),
                  st.integers(1, 4), st.integers(3, 8)),
        max_size=40,
    )
)
def test_property_table_stays_a_bijection(operations):
    """After any operation sequence, forward and reverse maps agree."""
    table = ConnectionTable()
    for op, vm_id, fd in operations:
        if op == "insert":
            if table.to_nsm(vm_id, fd) is None:
                cid = table.allocate_cid(1)
                table.insert(vm_id, fd, 1, cid)
        elif op == "remove_vm":
            table.remove_by_vm(vm_id, fd)
        else:
            table.evict_nsm(1)
    # Invariant: every forward entry has a matching reverse entry.
    for vm_key, nsm_key in table._vm_to_nsm.items():
        assert table._nsm_to_vm[nsm_key] == vm_key
    assert len(table._vm_to_nsm) == len(table._nsm_to_vm)
