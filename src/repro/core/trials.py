"""Batched trial engines over integer station kernels.

The Monte Carlo sweeps (Theorem 5.1 / experiment E4) and the pumping
drivers (Theorem 4.1 / experiment E3) spend their whole budget stepping
one station pair through millions of engine events.  The interpreted
path pays, per event, engine method dispatch, ``TransitCopy`` minting,
and the sink-stack announcement.  This module runs the *same* control
flow -- transcribed statement-for-statement from
:class:`~repro.datalink.system.DataLinkSystem` (``step`` /
``flush_mandatory`` / ``pump_receiver`` / ``pump_sender`` / ``run``)
and :func:`~repro.core.pumping.pump_message` -- over the live stations,
wrapped in the integer kernels of :mod:`repro.ioa.compile`
(``InterpretedSender`` / ``InterpretedReceiver``), with channels
reduced to value-id multisets and the Definition-2 counters kept in
local integers.  Each run builds its kernels from one
``pair_factory()`` call; nothing is shared between runs.

Bit-identity is the contract, not an aspiration:

* the probabilistic channels draw from the same
  ``random.Random(seed)`` / ``Random(seed + 1)`` streams in the same
  order (one coin per send, flipped at send time), so every coin
  lands the same way;
* a run of receipts the receiver absorbs without output
  (``ReceiverStation.silent_copies``) is replayed in bulk: the same
  coins in the same order, read from the Mersenne-Twister words in
  blocks (:meth:`_TrialChannel.quiet_sends`), with the counters and
  both stations reconciled afterwards, because nothing else moves
  meanwhile;
* so is a run of copies the receiver answers with one echo each
  (``ReceiverStation.echo_packet``) while the sender absorbs the
  echoes without changing what it offers
  (``SenderStation.silent_copies``): each block of coins on one
  channel, then the echoes' coins on the other (:func:`echo_sends`);
* the per-message loop of
  :func:`~repro.core.theorem51.run_probabilistic_delivery` and the
  two-phase hoarding of :func:`~repro.core.theorem41.plant_backlog`
  are reproduced exactly, including their stopping conditions and
  error messages;
* the pumping engine hands its final configuration back as a live
  :class:`~repro.datalink.system.DataLinkSystem` (the kernels' own
  stations, real channel bags with the same copy ids and
  ``at_index``es, an execution whose counters and distinct-packet
  sets match event-for-event), so the downstream probe machinery
  (:func:`~repro.core.extensions.find_extension`,
  :func:`~repro.core.replay.attempt_replay`) runs unchanged.

The delivery engine also checks (DL1) at each ``receive_msg``: with one
constant payload it reduces to ``rm <= sm``.

The equivalence tests drive both paths on identical inputs and compare
every result field; the batch path is only auto-selected in
configurations where the transcription is exact (see
:func:`probabilistic_batch_refusal` and :func:`pump_batch_refusal`).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from struct import unpack_from
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from repro.channels.packets import TransitCopy
from repro.channels.probabilistic import TricklePolicy
from repro.core.pumping import ReservePool
from repro.ioa.actions import Direction
from repro.ioa.compile import (
    NO_VALUE,
    InterpretedReceiver,
    InterpretedSender,
    PoolOracle,
    ValueIntern,
)
from repro.ioa.execution import TraceMode
from repro.ioa.sinks import ExecutionSink, MetricsSink

#: The ``engine=`` choices of the trial entry points (delivery runs and
#: backlog planting); nothing above :mod:`repro.core` takes one.
#: ``auto`` runs the batch engine whenever its gate accepts and the
#: interpreted reference otherwise; the tiers are bit-identical.
TRIAL_ENGINES = ("auto", "batch", "interpreted")


#: Coins per ``getrandbits`` call in :meth:`_TrialChannel.quiet_sends`:
#: 512 KiB of Mersenne-Twister output.
COIN_BLOCK = 65_536


@functools.lru_cache(maxsize=64)
def _coin_test(q: float) -> Tuple[int, bytes]:
    """``(threshold, table)`` for reading q-coins off raw MT words.

    CPython's ``random()`` is ``x / 2**53`` with the 53-bit integer
    ``x = (a >> 5) * 2**26 + (b >> 6)`` of its next two 32-bit words,
    so ``random() >= q`` iff ``x >= threshold = ceil(q * 2**53)``
    (scaling by a power of two is exact).  The top byte ``t`` of ``a``
    is the top 8 of x's 53 bits; ``table[t]`` is 1 when every x with
    that top byte is lucky, 0 when none is, and 2 (one byte value in
    256) when the low 45 bits decide.
    """
    threshold = math.ceil(q * 2**53)
    table = bytes(
        1 if t << 45 >= threshold else 0 if (t + 1) << 45 <= threshold else 2
        for t in range(256)
    )
    return threshold, table


class _TrialChannel:
    """A probabilistic channel reduced to value-id bookkeeping.

    Mirrors :class:`~repro.channels.probabilistic.ProbabilisticChannel`
    under ``TricklePolicy.NEVER``: the q-coin is flipped at send time
    from the channel's own rng (one coin per send, same order as the
    interpreted channel), lucky copies queue as due, delayed copies
    stay in the pool forever.  :meth:`quiet_sends` flips a run of
    one value's coins in blocks.  Individual copy ids are
    unnecessary -- nothing is ever dropped or force-delivered, so the
    due queue can carry value ids directly.  ``value_counts``/``size``
    present the pool to :class:`~repro.ioa.compile.PoolOracle` exactly
    as the real bag would.
    """

    __slots__ = (
        "q", "_rand", "_getrandbits", "due", "value_counts", "size",
        "sent_total",
    )

    def __init__(self, q: float, rng: random.Random) -> None:
        if not 0.0 <= q < 1.0:
            raise ValueError(f"error probability q={q} must be in [0, 1)")
        self.q = q
        self._rand = rng.random
        self._getrandbits = rng.getrandbits
        self.due: List[int] = []
        self.value_counts: dict = {}
        self.size = 0
        self.sent_total = 0

    def send(self, vid: int) -> None:
        self.sent_total += 1
        self.size += 1
        counts = self.value_counts
        counts[vid] = counts.get(vid, 0) + 1
        if self._rand() >= self.q:
            self.due.append(vid)

    def quiet_sends(
        self, vid: int, k: int, limit: int, peak: int
    ) -> Tuple[int, int, int]:
        """Up to ``limit`` sends of ``vid``, each lucky copy delivered
        at once, stopping right after the ``k``-th lucky one
        (``k >= 1``); returns ``(sends, lucky, peak)`` with ``peak``
        raised to the highest outstanding count after a send.

        Bit-identical to flipping one ``random()`` coin per send, rng
        state included.  ``getrandbits(64 * m)`` returns the 2m words
        that m ``random()`` calls would consume, the first in the
        least significant bits, so its little-endian bytes hold each
        coin's ``a`` word at ``8 * i`` and its top byte at
        ``8 * i + 3``; :func:`_coin_test` decides a coin from that
        byte alone 255 times in 256.  A block holds at most as many
        coins as lucky ones are still needed, so no draw passes the
        k-th lucky coin.  The outstanding count (``size``) never
        falls within the run, so its peak follows the last send.
        """
        threshold, table = _coin_test(self.q)
        getrandbits = self._getrandbits
        sends = lucky = 0
        raw = tops = b""
        while sends < limit and lucky < k:
            m = min(k - lucky, limit - sends, COIN_BLOCK)
            raw = getrandbits(64 * m).to_bytes(8 * m, "little")
            tops = raw[3::8].translate(table)
            lucky += tops.count(1)
            at = tops.find(2)
            while at >= 0:
                a, b = unpack_from("<II", raw, 8 * at)
                if (a >> 5) << 26 | b >> 6 >= threshold:
                    lucky += 1
                at = tops.find(2, at + 1)
            sends += m
        self.sent_total += sends
        self.size += sends - lucky
        counts = self.value_counts
        counts[vid] = counts.get(vid, 0) + sends - lucky
        if sends:
            # The peak is before the last copy's delivery, if it was
            # lucky: always when the run ended on the k-th lucky one.
            last = 1 if lucky == k else tops[-1]
            if last == 2:
                a, b = unpack_from("<II", raw, len(raw) - 8)
                last = (a >> 5) << 26 | b >> 6 >= threshold
            peak = max(peak, self.size + last)
        return sends, lucky, peak

    def deliver(self, vid: int) -> None:
        self.value_counts[vid] -= 1
        self.size -= 1


def echo_sends(
    t2r: _TrialChannel,
    r2t: _TrialChannel,
    vid: int,
    echo: int,
    k: int,
    limit: int,
    peak_t2r: int,
    peak_r2t: int,
) -> Tuple[int, int, int, int, int]:
    """Up to ``limit`` steps of an echo exchange, stopping right after
    the ``k``-th absorbed echo (``k >= 1``); returns ``(steps, lucky,
    absorbed, peak_t2r, peak_r2t)``.

    Each step sends ``vid`` on ``t2r``; a lucky copy is delivered at
    once and answered with one ``echo`` on ``r2t``, and a lucky echo is
    delivered at once too.  ``lucky`` counts the delivered copies (and
    so the echoes sent), ``absorbed`` the delivered echoes.  The
    channels draw from independent rngs, so a block of ``m`` steps
    draws its ``m`` t2r coins first and then one r2t coin per lucky
    copy, both with :meth:`_TrialChannel.quiet_sends`.  A block has at
    most ``k - absorbed`` steps, and a step absorbs at most one echo,
    so no block passes the k-th absorbed echo and both rngs end where
    the per-step loop leaves them.
    """
    steps = lucky = absorbed = 0
    while absorbed < k and steps < limit:
        m = min(k - absorbed, limit - steps)
        _, got, peak_t2r = t2r.quiet_sends(vid, m, m, peak_t2r)
        steps += m
        if got:
            lucky += got
            _, acked, peak_r2t = r2t.quiet_sends(echo, m, got, peak_r2t)
            absorbed += acked
    return steps, lucky, absorbed, peak_t2r, peak_r2t


def probabilistic_batch_refusal(
    trickle: TricklePolicy,
    trace_mode: TraceMode,
    sinks: Optional[Sequence[ExecutionSink]],
) -> Optional[str]:
    """Why the batch delivery engine is not exact here, or ``None``.

    The transcription covers the Theorem 5.1 regime: delayed packets
    stay delayed (NEVER), only counters are recorded (COUNTS -- there
    is no trace sink to feed), and the only observers are fresh
    step-mark-declining :class:`~repro.ioa.sinks.MetricsSink` objects
    (their counters are reconstructed exactly at the end; a pre-used
    sink would need the event-by-event peak interleaving).  Everything
    else falls back to the interpreted engine.
    """
    if trickle is not TricklePolicy.NEVER:
        return f"trickle={trickle.name} (the batch engine needs NEVER)"
    if trace_mode is not TraceMode.COUNTS:
        return f"trace_mode={trace_mode.name} (the batch engine needs COUNTS)"
    for sink in sinks or ():
        if type(sink) is not MetricsSink or sink.wants_internal:
            return (
                f"observer {type(sink).__name__} is not a "
                "step-mark-declining MetricsSink"
            )
        if (
            sink.sent_t2r or sink.sent_r2t
            or sink.received_t2r or sink.received_r2t
            or sink.messages_sent or sink.messages_delivered
            or sink.peak_outstanding_t2r or sink.peak_outstanding_r2t
        ):
            return "a MetricsSink observer already holds counts"
    return None


def pump_batch_refusal(trace_mode: TraceMode) -> Optional[str]:
    """Why the batch pumping engine is not exact here, or ``None``.

    :func:`plant_backlog_batch` materialises counters only, so it
    reproduces COUNTS-mode planting and nothing else.
    """
    if trace_mode is not TraceMode.COUNTS:
        return (
            f"trace_mode={trace_mode.name} (the batch pumping engine "
            "needs COUNTS)"
        )
    return None


def _kernels(pair_factory: Callable[[], Tuple], t2r, r2t) -> Tuple:
    """One fresh station pair as ``(values, sender, receiver)`` kernels
    over one value space, with a :class:`PoolOracle` reading the
    engine's two pools for stations that consult the oracle."""
    sender, receiver = pair_factory()
    values = ValueIntern()
    oracle = PoolOracle(values, {Direction.T2R: t2r, Direction.R2T: r2t})
    return (
        values,
        InterpretedSender(sender, values, oracle),
        InterpretedReceiver(receiver, values, oracle),
    )


def run_probabilistic_batch(
    pair_factory: Callable[[], Tuple],
    q: float,
    n: int,
    seed: int = 0,
    message: Hashable = "m",
    max_steps: int = 2_000_000,
    packet_budget: Optional[int] = None,
    sinks: Optional[Sequence[ExecutionSink]] = None,
):
    """Batch back end of
    :func:`~repro.core.theorem51.run_probabilistic_delivery`: one
    trial, bit-identical to the interpreted engine for supported
    configurations (see :func:`probabilistic_batch_refusal`); the
    arguments mean what they mean there.

    Every message carries the one payload ``message``, so (DL1) holds
    at a ``receive_msg`` iff it delivers that payload and ``rm < sm``
    before it; the result's ``dl1_violated_at`` is the first event
    where that fails."""
    from repro.core.theorem51 import ProbabilisticRunResult

    t2r = _TrialChannel(q, random.Random(seed))
    r2t = _TrialChannel(q, random.Random(seed + 1))
    values, snd, rcv = _kernels(pair_factory, t2r, r2t)
    mvid = values.intern(message)

    # Definition-2 counters and the event index, as local ints
    # (the CountsSink/Execution.length equivalents).
    length = 0
    sm = rm = 0
    sp_t2r = sp_r2t = rp_t2r = rp_r2t = 0
    peak_t2r = peak_r2t = 0
    dl1_violated_at: Optional[int] = None

    snd_ready = snd.ready
    snd_offer = snd.offer
    snd_commit = snd.commit
    snd_accept_msg = snd.accept_message
    snd_accept_pkt = snd.accept_packet
    rcv_accept = rcv.accept
    rcv_pop_delivery = rcv.pop_delivery
    rcv_pop_control = rcv.pop_control
    # The receiver's output deques: pending output is a C-level
    # truthiness test per event, not a call.
    deliveries, outgoing = rcv.queues
    t2r_deliver = t2r.deliver
    r2t_deliver = r2t.deliver

    # Channel internals, hoisted so the hot loops can inline
    # ``_TrialChannel.send`` (the due lists are stable objects --
    # drained with ``clear()``, never rebound -- so their bound
    # ``append`` survives the whole trial).
    t2r_due = t2r.due
    r2t_due = r2t.due
    t2r_due_append = t2r_due.append
    r2t_due_append = r2t_due.append
    t2r_counts = t2r.value_counts
    r2t_counts = r2t.value_counts
    t2r_rand = t2r._rand
    r2t_rand = r2t._rand

    def pump_receiver() -> None:
        # DataLinkSystem.pump_receiver: deliveries first, then
        # control packets, until quiescent.
        nonlocal length, rm, sp_r2t, peak_r2t, dl1_violated_at
        while True:
            if deliveries:
                if rcv_pop_delivery() != mvid or rm >= sm:
                    if dl1_violated_at is None:
                        dl1_violated_at = length
                length += 1
                rm += 1
            elif outgoing:
                v = rcv_pop_control()
                r2t.sent_total += 1
                r2t.size += 1
                r2t_counts[v] = r2t_counts.get(v, 0) + 1
                if r2t_rand() >= q:
                    r2t_due_append(v)
                length += 1
                sp_r2t += 1
                outstanding = sp_r2t - rp_r2t
                if outstanding > peak_r2t:
                    peak_r2t = outstanding
            else:
                break

    def step() -> None:
        # DataLinkSystem.step without the (absent) adversary:
        # pump_receiver; pump_sender(burst=1); flush_mandatory;
        # pump_receiver.
        nonlocal length, sp_t2r, rp_t2r, rp_r2t, peak_t2r
        if deliveries or outgoing:
            pump_receiver()
        v = snd_offer()
        if v >= 0:
            t2r.sent_total += 1
            t2r.size += 1
            t2r_counts[v] = t2r_counts.get(v, 0) + 1
            if t2r_rand() >= q:
                t2r_due_append(v)
            length += 1
            sp_t2r += 1
            outstanding = sp_t2r - rp_t2r
            if outstanding > peak_t2r:
                peak_t2r = outstanding
            snd_commit()
        # flush_mandatory: the due lists receive no appends while
        # they drain (the sender only transmits through the burst
        # above, and receiver sends during the t2r drain land on the
        # r2t queue, which drains after), so iterate in place and
        # clear.
        while t2r_due or r2t_due:
            if t2r_due:
                for dvid in t2r_due:
                    t2r_deliver(dvid)
                    length += 1
                    rp_t2r += 1
                    rcv_accept(dvid)
                    if deliveries or outgoing:
                        pump_receiver()
                t2r_due.clear()
            if r2t_due:
                for dvid in r2t_due:
                    r2t_deliver(dvid)
                    length += 1
                    rp_r2t += 1
                    snd_accept_pkt(dvid)
                r2t_due.clear()
        if deliveries or outgoing:
            pump_receiver()

    # Bulk hooks: only kernels whose sender commits without changing
    # state, and whose receiver absorbs copies without output (quiet
    # runs) or answers each with one echo the sender absorbs (echo
    # runs), expose them.
    rcv_silent = rcv.silent
    rcv_absorb = rcv.absorb
    rcv_echo = rcv.echo
    snd_silent = snd.silent
    snd_absorb = snd.absorb
    snd_commit_run = snd.commit_run
    t2r_quiet_sends = t2r.quiet_sends
    quiet = rcv_silent is not None and snd_commit_run is not None
    echoes = (
        rcv_echo is not None
        and snd_silent is not None
        and snd_commit_run is not None
    )

    def quiet_run(v: int, k: int, limit: int) -> int:
        # Up to ``limit`` steps while the sender re-sends ``v`` and
        # the receiver absorbs the next ``k`` copies silently; ends
        # right after the k-th absorbed copy.  Each step is step()
        # with its no-op parts removed: one send and its t2r coin,
        # and the copy, if lucky, delivered at once -- the channel's
        # quiet_sends, which draws the coins in blocks.  Nothing else
        # moves -- the receiver sends nothing (r2t and its rng stay
        # untouched), the sender receives nothing and its commit is
        # idle (so ready() and offer() hold), and the oracle is only
        # read outside this loop -- so the counters and both stations
        # are reconciled in bulk afterwards.
        nonlocal length, sp_t2r, rp_t2r, peak_t2r
        sends, absorbed, peak_t2r = t2r_quiet_sends(v, k, limit, peak_t2r)
        length += sends + absorbed
        sp_t2r += sends
        rp_t2r += absorbed
        snd_commit_run(sends)
        rcv_absorb(v, absorbed)
        return sends

    def echo_run(v: int, e: int, k: int, limit: int) -> int:
        # Up to ``limit`` steps while the sender re-sends ``v``, the
        # receiver answers each copy it gets with the echo ``e``, and
        # the sender absorbs the next ``k`` echoes silently; ends
        # right after the k-th absorbed echo.  Each step is step()
        # with its no-op parts removed (echo_sends draws the coins).
        # Nothing else moves -- the receiver's state and queues are
        # as they were after each step, the sender's absorbed echoes
        # and idle commits leave ready() and offer() alone, and the
        # oracle is only read outside this loop -- so the counters and
        # the sender are reconciled in bulk afterwards.
        nonlocal length, sp_t2r, rp_t2r, sp_r2t, rp_r2t
        nonlocal peak_t2r, peak_r2t
        steps, lucky, absorbed, peak_t2r, peak_r2t = echo_sends(
            t2r, r2t, v, e, k, limit, peak_t2r, peak_r2t
        )
        length += steps + 2 * lucky + absorbed
        sp_t2r += steps
        rp_t2r += lucky
        sp_r2t += lucky
        rp_r2t += absorbed
        snd_commit_run(steps)
        snd_absorb(e, absorbed)
        return steps

    def run_one(budget: int) -> Tuple[int, bool]:
        # DataLinkSystem.run([message], max_steps=budget).  The
        # local ``rm`` counter tracks the station's
        # messages_delivered exactly (both increment per committed
        # delivery), so the goal test stays in plain integers.
        nonlocal length, sm
        pending = True
        goal = rm + 1
        steps = 0
        while steps < budget:
            if pending and snd_ready():
                length += 1
                sm += 1
                snd_accept_msg(mvid)
                pending = False
            if not pending and rm >= goal and snd_ready():
                break
            if (quiet or echoes) and not (deliveries or outgoing):
                v = snd_offer()
                if v >= 0:
                    k = rcv_silent(v) if quiet else 0
                    if k > 0:
                        steps += quiet_run(v, k, budget - steps)
                        continue
                    e = rcv_echo(v) if echoes else NO_VALUE
                    if e >= 0:
                        k = snd_silent(e)
                        if k > 0:
                            steps += echo_run(v, e, k, budget - steps)
                            continue
            step()
            steps += 1
        completed = not pending and rm >= goal and snd_ready()
        return steps, completed

    # The per-message loop of run_probabilistic_delivery.
    cumulative: List[int] = []
    steps_used = 0
    delivered = 0
    for _ in range(n):
        steps, completed = run_one(max_steps - steps_used)
        steps_used += steps
        if not completed:
            break
        delivered += 1
        cumulative.append(sp_t2r + sp_r2t)
        if packet_budget is not None and cumulative[-1] >= packet_budget:
            break
        if steps_used >= max_steps:
            break
    per_message = [
        cumulative[i] - (cumulative[i - 1] if i else 0)
        for i in range(len(cumulative))
    ]
    for sink in sinks or ():
        sink.sent_t2r += sp_t2r
        sink.sent_r2t += sp_r2t
        sink.received_t2r += rp_t2r
        sink.received_r2t += rp_r2t
        sink.messages_sent += sm
        sink.messages_delivered += rm
        if peak_t2r > sink.peak_outstanding_t2r:
            sink.peak_outstanding_t2r = peak_t2r
        if peak_r2t > sink.peak_outstanding_r2t:
            sink.peak_outstanding_r2t = peak_r2t
    return ProbabilisticRunResult(
        q=q,
        n=n,
        delivered=delivered,
        seed=seed,
        cumulative_packets=cumulative,
        per_message_packets=per_message,
        final_backlog_t2r=t2r.size,
        completed=delivered >= n,
        steps=steps_used,
        events_elided=length,
        dl1_violated_at=dl1_violated_at,
    )


class _PumpBag:
    """A non-FIFO channel bag in value-id space, with enough recorded
    per copy (id, value id, send index) to materialise the real
    :class:`~repro.channels.base.Channel` bag afterwards."""

    __slots__ = (
        "pool", "next_cid", "value_counts", "size",
        "sent_total", "delivered_total",
    )

    def __init__(self) -> None:
        self.pool: dict = {}
        self.next_cid = 0
        self.value_counts: dict = {}
        self.size = 0
        self.sent_total = 0
        self.delivered_total = 0

    def send(self, vid: int, at_index: int) -> int:
        cid = self.next_cid
        self.next_cid = cid + 1
        self.pool[cid] = (vid, at_index)
        counts = self.value_counts
        counts[vid] = counts.get(vid, 0) + 1
        self.size += 1
        self.sent_total += 1
        return cid

    def deliver(self, cid: int) -> int:
        vid, _ = self.pool.pop(cid)
        self.value_counts[vid] -= 1
        self.size -= 1
        self.delivered_total += 1
        return vid


def plant_backlog_batch(
    pair_factory: Callable[[], Tuple],
    backlog: int,
    message: Hashable = "m",
    max_messages: int = 4096,
    max_steps_per_message: int = 50_000,
    discovery_messages: int = 8,
):
    """Batch back end of :func:`~repro.core.theorem41.plant_backlog`
    (COUNTS mode).

    Runs the discovery and spread-hoarding phases in value-id space --
    integer kernels over the live stations, integer bags, inlined quota
    arithmetic -- then materialises the final configuration into a
    live ``(system, pool, messages_spent)`` triple indistinguishable
    from the interpreted one: same station states, same channel bags
    (copy ids, values, send indices), same execution counters and
    distinct-packet sets, same reserve pool.
    """
    from repro.datalink.system import make_system

    t2r = _PumpBag()
    r2t = _PumpBag()
    values, snd, rcv = _kernels(pair_factory, t2r, r2t)
    mvid = values.intern(message)

    length = 0
    sm = rm = 0
    sp_t2r = sp_r2t = rp_t2r = rp_r2t = 0
    distinct_t2r: set = set()
    distinct_r2t: set = set()
    last_t2r = last_r2t = -1
    # The hoard: reserved copy id -> value id (insertion-ordered, so
    # the materialised ReservePool reserves in the same order).
    reserved: dict = {}
    pool_counts: dict = {}
    # Unreserved forward copies (cid -> vid).  The interpreted sweep
    # rescans the whole bag -- mostly hoarded copies it immediately
    # skips -- every step; keeping the unreserved remainder separately
    # makes the per-step sweep O(live copies) instead of O(backlog).
    t2r_active: dict = {}

    snd_ready = snd.ready
    snd_offer = snd.offer
    snd_commit = snd.commit
    snd_accept_pkt = snd.accept_packet
    rcv_accept = rcv.accept
    rcv_pop_delivery = rcv.pop_delivery
    rcv_pop_control = rcv.pop_control
    deliveries, outgoing = rcv.queues

    def pump_receiver() -> None:
        nonlocal length, rm, sp_r2t, last_r2t
        while True:
            if deliveries:
                rcv_pop_delivery()
                length += 1
                rm += 1
            elif outgoing:
                pvid = rcv_pop_control()
                r2t.send(pvid, length)
                length += 1
                sp_r2t += 1
                if pvid != last_r2t:
                    distinct_r2t.add(pvid)
                    last_r2t = pvid
            else:
                break

    def pump_msg(per_value: Optional[int], target_total: int) -> bool:
        # pumping.pump_message, with the plant_backlog quota closures
        # inlined: per_value=None is the discovery quota (always 0,
        # never reserve), otherwise reserve below per_value per value
        # until the hoard reaches target_total.  The local ``rm``
        # counter tracks the station's messages_delivered exactly, so
        # the goal test stays in plain integers.
        nonlocal length, sm, sp_t2r, rp_t2r, rp_r2t, last_t2r
        if not snd_ready():
            raise RuntimeError(
                "pump_message needs the sender to be ready; deliver the "
                "outstanding message first"
            )
        length += 1
        sm += 1
        snd.accept_message(mvid)
        goal = rm + 1
        steps = 0
        while (
            not (rm >= goal and snd_ready())
            and steps < max_steps_per_message
        ):
            if deliveries or outgoing:
                pump_receiver()
            v = snd_offer()
            if v >= 0:
                cid = t2r.send(v, length)
                t2r_active[cid] = v
                length += 1
                sp_t2r += 1
                if v != last_t2r:
                    distinct_t2r.add(v)
                    last_t2r = v
                snd_commit()
            # Forward channel: hoard up to quota, deliver the rest.
            # Only unreserved copies are swept (same decisions, same
            # insertion order as the interpreted in_transit() snapshot
            # minus the copies it would skip as reserved).
            if t2r_active:
                for cid, vid in list(t2r_active.items()):
                    if (
                        per_value is not None
                        and len(reserved) < target_total
                        and pool_counts.get(vid, 0) < per_value
                    ):
                        reserved[cid] = vid
                        pool_counts[vid] = pool_counts.get(vid, 0) + 1
                        del t2r_active[cid]
                    else:
                        del t2r_active[cid]
                        t2r.deliver(cid)
                        length += 1
                        rp_t2r += 1
                        rcv_accept(vid)
            # Reverse channel: prompt delivery keeps the exchange
            # moving.
            if r2t.pool:
                for cid in list(r2t.pool):
                    vid = r2t.deliver(cid)
                    length += 1
                    rp_r2t += 1
                    snd_accept_pkt(vid)
            if deliveries or outgoing:
                pump_receiver()
            steps += 1
        return rm >= goal and snd_ready()

    # Phase 1: discovery.
    messages_spent = 0
    for _ in range(discovery_messages):
        delivered = pump_msg(None, 0)
        messages_spent += 1
        if not delivered:
            raise RuntimeError(
                "protocol failed to deliver during backlog discovery"
            )
    k = max(1, len(distinct_t2r))
    per_value = max(1, backlog // k)
    target_total = per_value * k

    # Phase 2: spread hoarding.
    while len(reserved) < target_total and messages_spent < max_messages:
        delivered = pump_msg(per_value, target_total)
        messages_spent += 1
        if not delivered:
            raise RuntimeError(
                f"backlog pumping starved the protocol after "
                f"{messages_spent} messages with pool {len(reserved)}"
            )

    # Materialise the final configuration as a live system.
    vals = values.values
    system = make_system(
        snd.station, rcv.station, trace_mode=TraceMode.COUNTS
    )
    for chan, bag in ((system.chan_t2r, t2r), (system.chan_r2t, r2t)):
        chan._in_transit = {
            cid: TransitCopy(cid, vals[vid], at_index)
            for cid, (vid, at_index) in bag.pool.items()
        }
        chan._sent_total = bag.sent_total
        chan._delivered_total = bag.delivered_total
        chan._copy_ids = itertools.count(bag.next_cid)
    counts = system.execution._counts
    counts.sm = sm
    counts.rm = rm
    counts.sp_t2r = sp_t2r
    counts.sp_r2t = sp_r2t
    counts.rp_t2r = rp_t2r
    counts.rp_r2t = rp_r2t
    counts.distinct_t2r = {vals[vid] for vid in distinct_t2r}
    counts.distinct_r2t = {vals[vid] for vid in distinct_r2t}
    if last_t2r >= 0:
        counts._last_sent_t2r = vals[last_t2r]
    if last_r2t >= 0:
        counts._last_sent_r2t = vals[last_r2t]
    system.execution.length = length
    pool = ReservePool()
    for cid, vid in reserved.items():
        pool.reserve(cid, vals[vid])
    return system, pool, messages_spent
