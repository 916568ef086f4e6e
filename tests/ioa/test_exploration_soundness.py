"""Property: the exploration over-approximates concrete reachability.

The Theorem 2.1 verification direction depends on the channel
set-abstraction visiting a *superset* of the station states reachable
in concrete executions.  These tests drive real systems with random
adversaries and check every concrete station state was predicted by the
abstract exploration.  The forgery-free exploration must cover every
state a concrete run visits before its first forged delivery.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.adversary import RandomAdversary
from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.flooding import make_capacity_flooding
from repro.datalink.sequence import make_sequence_protocol
from repro.datalink.sequence_mod import make_modular_sequence
from repro.datalink.system import make_system
from repro.ioa.exploration import explore_station_states

FACTORIES = {
    "alternating-bit": make_alternating_bit,
    "modular-M3": lambda: make_modular_sequence(3),
}

#: E1's four protocol rows plus modular-M3.
FORGERY_FREE_FACTORIES = {
    "alternating-bit": make_alternating_bit,
    "capacity-flood(K=2,B=1)": lambda: make_capacity_flooding(2, 1),
    "capacity-flood(K=3,B=1)": lambda: make_capacity_flooding(3, 1),
    "sequence-number": make_sequence_protocol,
    "modular-M3": lambda: make_modular_sequence(3),
}


def concrete_states(factory, seed, n_messages, max_steps=2_000,
                    stop_at_forgery=False):
    """Station protocol states observed along one concrete run.

    With ``stop_at_forgery`` the run is cut at the first step after
    which the receiver has delivered more messages than were
    submitted, and that step's states are left out.
    """
    sender, receiver = factory()
    system = make_system(
        sender,
        receiver,
        adversary=RandomAdversary(seed=seed, p_deliver=0.4, p_drop=0.15),
    )
    sender_states = {sender.protocol_state()}
    receiver_states = {receiver.protocol_state()}
    pending = ["m"] * n_messages
    for _ in range(max_steps):
        if pending and sender.ready_for_message():
            system.submit_message(pending.pop(0))
        system.step()
        submitted = n_messages - len(pending)
        if stop_at_forgery and receiver.messages_delivered > submitted:
            break
        sender_states.add(sender.protocol_state())
        receiver_states.add(receiver.protocol_state())
        if not pending and sender.ready_for_message():
            break
    return sender_states, receiver_states


def assert_covered(abstract, sender_states, receiver_states):
    missing_senders = sender_states - abstract.sender_states
    assert not missing_senders, missing_senders
    # Concrete receiver states may carry transient non-empty output
    # queues (mid-step observations); compare on the flushed view the
    # abstraction stores.
    flushed = {
        state for state in receiver_states if not state[0] and not state[1]
    }
    missing_receivers = flushed - abstract.receiver_states
    assert not missing_receivers, missing_receivers


@pytest.mark.parametrize("name", sorted(FACTORIES))
@given(seed=st.integers(0, 500), n_messages=st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_abstraction_covers_concrete_runs(name, seed, n_messages):
    factory = FACTORIES[name]
    abstract = explore_station_states(
        *factory(), ["m"], max_messages=max(n_messages, 1) + 1
    )
    assert_covered(abstract, *concrete_states(factory, seed, n_messages))


@pytest.mark.parametrize("name", sorted(FORGERY_FREE_FACTORIES))
@given(seed=st.integers(0, 500), n_messages=st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_forgery_free_region_covers_runs_until_a_forgery(
    name, seed, n_messages
):
    factory = FORGERY_FREE_FACTORIES[name]
    abstract = explore_station_states(
        *factory(), ["m"], max_messages=max(n_messages, 1) + 1,
        forgery_free=True,
    )
    assert not abstract.truncated
    assert_covered(abstract, *concrete_states(
        factory, seed, n_messages, stop_at_forgery=True
    ))
