"""The transport's memoised route per host pair (``Topology.path``).

``Transport.send`` takes a message's link and header tags from a memo
on its :class:`~repro.network.Topology`, keyed by the host-name pair
and cleared by every topology mutator.  A generated sequence of
mutations and sends, spread over two topologies that share the same
machines, must see exactly what a topology rebuilt from scratch with
the same mutations classifies: the same link, or the same
:class:`~repro.network.NetworkError`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import standard_park
from repro.network import (
    CAMPUS_GATEWAYS,
    ETHERNET,
    INTERNET_1993,
    LOOPBACK,
    NetworkError,
    Topology,
    Transport,
    VirtualClock,
)
from repro.network.clock import Timeline
from repro.serve import SharedInstallation

PARK = standard_park()
NICKS = sorted(nick for nick, _ in PARK.machines.items())
SITES = sorted({m.site for m in PARK})
LINKS = (ETHERNET, CAMPUS_GATEWAYS, INTERNET_1993, LOOPBACK)

host = st.sampled_from(NICKS)
site = st.sampled_from(SITES)
op = st.one_of(
    st.tuples(st.just("register"), host),
    st.tuples(st.just("set_override"), host, host, st.sampled_from(LINKS)),
    st.tuples(st.just("partition"), site, site),
    st.tuples(st.just("heal"), site, site),
    st.tuples(st.just("gateway_down"), site),
    st.tuples(st.just("gateway_restore"), site),
    st.tuples(st.just("send"), host, host),
)


def registered():
    topo = Topology()
    for m in PARK:
        topo.register(m)
    return topo


def apply(topo, step):
    name, *args = step
    machines = [PARK[a] if a in NICKS else a for a in args]
    getattr(topo, name)(*machines)


def outcome(fn):
    try:
        return ("link", fn())
    except NetworkError as exc:
        return ("unreachable", str(exc))


def fresh_topology(history):
    fresh = registered()
    for step in history:
        apply(fresh, step)
    return fresh


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), op), max_size=40))
def test_memoised_route_equals_a_fresh_topology(steps):
    topos = [registered(), registered()]
    transports = [Transport(topology=t, clock=VirtualClock()) for t in topos]
    history = [[], []]
    sent = [set(), set()]  # host pairs each topology may have memoised
    for which, step in steps:
        topo = topos[which]
        if step[0] != "send":
            apply(topo, step)
            history[which].append(step)
            # every pair sent so far reads what a fresh topology says
            fresh = fresh_topology(history[which])
            for a, b in sent[which]:
                src, dst = PARK[a], PARK[b]
                want = outcome(lambda: fresh.classify(src, dst))
                assert outcome(lambda: topo.path(src, dst)[0]) == want
            continue
        sent[which].add(step[1:])
        src, dst = PARK[step[1]], PARK[step[2]]
        want = outcome(lambda: fresh_topology(history[which]).classify(src, dst))
        assert outcome(lambda: topo.path(src, dst)[0]) == want
        # a timeline at t=0, so the transfer time reads back exactly
        probe = Timeline(name="probe", clock=transports[which].clock)
        try:
            msg = transports[which].send(src, dst, "call", None, 100, timeline=probe)
        except NetworkError as exc:
            assert want == ("unreachable", str(exc))
        else:
            assert want[0] == "link"
            assert msg.transfer_seconds == want[1].transfer_seconds(100 + 64)


def test_session_topology_never_sees_another_topologys_entries():
    inst = SharedInstallation.standard()
    a, b = inst.park["ua-sparc10"], inst.park["lerc-cray"]
    shared = inst.topology
    assert shared.path(a, b)[0] is shared.internet
    private = inst.session_topology()
    assert private._paths == {}
    private.partition(a.site, b.site)
    with pytest.raises(NetworkError):
        private.path(a, b)
    # the shared view keeps its memo and its link; the private one
    # memoised nothing for the unreachable pair
    assert shared.path(a, b)[0] is shared.internet
    assert (a.hostname, b.hostname) not in private._paths
    shared.set_override(a, b, ETHERNET)
    private.heal(a.site, b.site)
    assert private.path(a, b)[0] is private.internet
    assert shared.path(a, b)[0] is ETHERNET
