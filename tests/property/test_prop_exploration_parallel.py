"""Property-based tests: the level-barrier exploration entry is exact.

For random small protocols and exploration parameters, the
level-barrier entry of :mod:`repro.ioa.exploration_parallel` promises
the same :class:`~repro.ioa.exploration.ExplorationResult` observables
as the serial entry -- state sets, configuration counts, the Theorem
2.1 state product.  Serial equivalence is only guaranteed when the
search completes within its visit budget (the entries cut a truncated
search at different granularities), so properties comparing against
the serial entry discard truncated draws.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.flooding import make_capacity_flooding
from repro.datalink.sequence import make_sequence_protocol
from repro.datalink.sequence_mod import make_modular_sequence
from repro.ioa.exploration import explore_station_states
from repro.ioa.exploration_parallel import explore_station_states_parallel

PROTOCOLS = {
    "abp": make_alternating_bit,
    "sequence": make_sequence_protocol,
    "modseq3": lambda: make_modular_sequence(3),
    "capflood21": lambda: make_capacity_flooding(2, 1),
    "capflood32": lambda: make_capacity_flooding(3, 2),
}

PROTOCOL_NAMES = st.sampled_from(sorted(PROTOCOLS))
ALPHABETS = st.sampled_from([["m"], ["m0", "m1"]])
BUDGETS = st.integers(min_value=1, max_value=2)


def observables(result):
    return {
        "k_t": result.k_t,
        "k_r": result.k_r,
        "state_product": result.state_product,
        "pair_count": result.pair_count,
        "configurations": result.configurations,
        "truncated": result.truncated,
        "sender_states": result.sender_states,
        "receiver_states": result.receiver_states,
        "packet_values": {
            direction: set(values)
            for direction, values in result.packet_values.items()
        },
    }


@given(
    protocol=PROTOCOL_NAMES, alphabet=ALPHABETS, max_messages=BUDGETS
)
@settings(max_examples=20, deadline=None)
def test_serial_and_worker_counts_agree(protocol, alphabet, max_messages):
    """serial == level-barrier entry on completed searches."""
    factory = PROTOCOLS[protocol]
    serial = explore_station_states(
        *factory(), alphabet, max_messages=max_messages
    )
    assume(not serial.truncated)
    parallel = explore_station_states_parallel(
        *factory(), alphabet, max_messages=max_messages,
    )
    assert observables(parallel) == observables(serial)

