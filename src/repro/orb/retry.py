"""Client-side retry policies over ORB invocations.

CORBA's TRANSIENT/TIMEOUT semantics say "retrying may succeed"; this
module packages the standard client loop (bounded attempts, exponential
backoff with full jitter, an optional total deadline) so protocol code
and applications don't hand-roll it.

Jitter draws from the simulation's seeded RNG registry — never from
``random`` — so retry schedules are de-synchronized across the fleet
yet identical across runs of the same seed.  When an observability hub
is installed on the ORB, the whole retry loop becomes one ``retry:``
span whose per-attempt client spans (including the failed ones) parent
under it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.orb.exceptions import (
    COMM_FAILURE,
    MINOR_BREAKER_OPEN,
    SystemException,
    TIMEOUT,
    TRANSIENT,
    UserException,
)
from repro.orb.ior import IOR
from repro.orb.model import OperationDef

if TYPE_CHECKING:
    from repro.orb.core import ORB

#: Exception types it makes sense to retry; anything else (BAD_PARAM,
#: user exceptions...) is a real answer and propagates immediately.
RETRYABLE = (TRANSIENT, TIMEOUT, COMM_FAILURE)

#: Named RNG stream the jittered backoff draws from.
JITTER_STREAM = "orb.retry.jitter"


@dataclass(frozen=True)
class RetryPolicy:
    """How persistently to retry a remote call.

    ``deadline`` caps the *total* simulated time the loop may consume
    (attempt timeouts are clipped to the remaining budget); without it,
    ``attempts × (timeout + backoff)`` silently decides the caller's
    worst case.  ``jitter`` turns each backoff into a uniform draw from
    ``[0, scheduled_backoff]`` ("full jitter"), preventing a fleet that
    failed together from retrying together.
    """

    attempts: int = 3
    timeout: float = 2.0          # per attempt
    backoff: float = 0.5          # sleep before retry #1
    backoff_factor: float = 2.0   # multiplied per further retry
    deadline: Optional[float] = None  # total budget across all attempts
    jitter: bool = True

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("need at least one attempt")
        if self.timeout <= 0:
            raise ValueError(f"per-attempt timeout must be > 0, "
                             f"got {self.timeout}")
        if self.backoff <= 0:
            raise ValueError(f"backoff must be > 0, got {self.backoff}")
        if self.backoff_factor <= 0:
            raise ValueError(f"backoff_factor must be > 0, "
                             f"got {self.backoff_factor}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")

    def delay_before(self, retry_index: int, rng=None) -> float:
        """Backoff before the given retry (retry_index >= 1).

        Deterministic schedule when *rng* is None; full jitter —
        ``uniform(0, scheduled)`` drawn from *rng* — otherwise.
        """
        scheduled = self.backoff * (self.backoff_factor ** (retry_index - 1))
        if rng is None:
            return scheduled
        return float(rng.uniform(0.0, scheduled))


class RetryBudget:
    """Global retry-amplification cap shared by a client's retry loops.

    A retry loop multiplies load exactly when the system can least
    afford it: a partition that times out every first attempt turns N
    requests/s into ``N × attempts`` requests/s of pure amplification.
    The budget is a token bucket over *retries* (first attempts are
    never charged): each first attempt deposits ``ratio`` tokens, each
    retry withdraws one, and the bucket refills at ``refill_rate``
    tokens per simulated second up to ``max_tokens``.  While the bucket
    is dry, retries are *shed* — the loop surfaces its last failure
    immediately instead of hammering a melting network — and counted
    under ``orb.retries.shed``.

    With the default ``ratio`` a sustained failure storm settles at
    roughly ``ratio`` retries per first attempt plus the trickle the
    refill allows, instead of ``attempts - 1`` per first attempt.
    """

    def __init__(self, env, metrics, ratio: float = 0.1,
                 refill_rate: float = 0.5,
                 max_tokens: float = 50.0,
                 initial: Optional[float] = None) -> None:
        if ratio < 0:
            raise ValueError(f"ratio must be >= 0, got {ratio}")
        if refill_rate < 0:
            raise ValueError(f"refill_rate must be >= 0, "
                             f"got {refill_rate}")
        if max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
        self.env = env
        self.metrics = metrics
        self.ratio = ratio
        self.refill_rate = refill_rate
        self.max_tokens = max_tokens
        self.tokens = max_tokens if initial is None else float(initial)
        self.shed = 0
        self.spent = 0
        self._last_refill = env.now

    def _refill(self) -> None:
        now = self.env.now
        if now > self._last_refill:
            self.tokens = min(self.max_tokens, self.tokens +
                              (now - self._last_refill) * self.refill_rate)
            self._last_refill = now

    def available(self) -> float:
        """Current token balance (after time-based refill)."""
        self._refill()
        return self.tokens

    def on_attempt(self) -> None:
        """A first attempt went out: deposit its retry allowance."""
        self._refill()
        self.tokens = min(self.max_tokens, self.tokens + self.ratio)

    def try_spend(self) -> bool:
        """Withdraw one retry token; False (and counted) when dry."""
        self._refill()
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.shed += 1
        if self.metrics is not None:
            self.metrics.counter("orb.retries.shed").inc()
        return False


class CircuitBreaker:
    """Client-side circuit breaker for one sick peer.

    Standard three-state machine: CLOSED counts consecutive retryable
    failures; at ``failure_threshold`` the breaker OPENs and every call
    fast-fails locally (TRANSIENT, minor = breaker-open, no wire
    traffic) until ``reset_timeout`` simulated seconds pass; then it
    goes HALF_OPEN and admits up to ``half_open_probes`` probe calls —
    one success re-CLOSEs it, one failure re-OPENs it and re-arms the
    timer.  Used via :func:`invoke_with_retry`'s ``breaker`` argument,
    which stops a retry loop from hammering a node that is down,
    partitioned or shedding.

    Every state transition is counted (``breaker.opened`` /
    ``breaker.closed`` / ``breaker.half_open``), appended to
    :attr:`transitions` as ``(time, from_state, to_state)``, and — when
    the owning ORB has an observability hub installed — emitted as a
    zero-length ``breaker:`` span so traces show exactly when a client
    gave up on (and came back to) a peer.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, orb: ORB, peer: str,
                 failure_threshold: int = 5,
                 reset_timeout: float = 10.0,
                 half_open_probes: int = 1) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be > 0")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.orb = orb
        self.peer = peer
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self.state = self.CLOSED
        self.failures = 0          # consecutive retryable failures
        self.fast_fails = 0        # calls rejected while OPEN
        self._opened_at = 0.0
        self._probes_in_flight = 0
        #: (sim time, from_state, to_state) for every transition.
        self.transitions: list[tuple[float, str, str]] = []

    # -- state machine -----------------------------------------------------
    def _transition(self, to_state: str) -> None:
        from_state = self.state
        if from_state == to_state:
            return
        self.state = to_state
        now = self.orb.env.now
        self.transitions.append((now, from_state, to_state))
        self.orb.metrics.counter(f"breaker.{to_state}"
                                 if to_state != self.OPEN
                                 else "breaker.opened").inc()
        hub = self.orb.obs
        if hub is not None:
            span = hub.tracer.start_span(
                f"breaker:{from_state}->{to_state}", kind="internal",
                parent=hub.context.current(self.orb.env),
                host=self.orb.host_id,
                attrs={"peer": self.peer, "failures": self.failures})
            hub.tracer.end_span(span, status="ok")

    def allow(self) -> bool:
        """May a call be attempted right now?  (Counts a probe slot.)"""
        if self.state == self.OPEN:
            if self.orb.env.now - self._opened_at >= self.reset_timeout:
                self._probes_in_flight = 0
                self._transition(self.HALF_OPEN)
            else:
                self.fast_fails += 1
                self.orb.metrics.counter("breaker.fast_fails").inc()
                return False
        if self.state == self.HALF_OPEN:
            if self._probes_in_flight >= self.half_open_probes:
                self.fast_fails += 1
                self.orb.metrics.counter("breaker.fast_fails").inc()
                return False
            self._probes_in_flight += 1
        return True

    def on_success(self) -> None:
        """The peer answered (any reply, even a user exception)."""
        self.failures = 0
        if self.state == self.HALF_OPEN:
            self._transition(self.CLOSED)

    def on_failure(self) -> None:
        """A retryable failure (timeout, unreachable, shed) occurred."""
        if self.state == self.HALF_OPEN:
            self._opened_at = self.orb.env.now
            self._transition(self.OPEN)
            return
        self.failures += 1
        if self.state == self.CLOSED and \
                self.failures >= self.failure_threshold:
            self._opened_at = self.orb.env.now
            self._transition(self.OPEN)

    def reject_exception(self) -> TRANSIENT:
        """The exception a fast-failed call surfaces to its caller."""
        return TRANSIENT(
            f"circuit breaker open to {self.peer} "
            f"({self.failures} consecutive failures)",
            minor=MINOR_BREAKER_OPEN,
        )


class BreakerRegistry:
    """One :class:`CircuitBreaker` per peer host, created on first use.

    Clients that talk to many peers keep one registry; breaker state is
    per-peer, so one sick node never blocks calls to healthy ones.
    """

    def __init__(self, orb: ORB,
                 retry_budget: Optional[RetryBudget] = None,
                 **breaker_kwargs) -> None:
        self.orb = orb
        self.breaker_kwargs = breaker_kwargs
        #: optional shared :class:`RetryBudget` capping the aggregate
        #: retry amplification of every loop using this registry.
        self.retry_budget = retry_budget
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker_for(self, peer: str) -> CircuitBreaker:
        breaker = self._breakers.get(peer)
        if breaker is None:
            breaker = CircuitBreaker(self.orb, peer, **self.breaker_kwargs)
            self._breakers[peer] = breaker
        return breaker

    def breakers(self) -> dict[str, CircuitBreaker]:
        return dict(self._breakers)


def invoke_with_retry(orb: ORB, ior: IOR, odef: OperationDef,
                      args: Sequence[Any],
                      policy: Optional[RetryPolicy] = None,
                      meter: Optional[str] = None,
                      breaker: Optional[CircuitBreaker] = None,
                      budget: Optional[RetryBudget] = None):
    """Generator: invoke with retries; yields events, returns the result.

    Use from simulation processes::

        result = yield from invoke_with_retry(orb, ior, odef, args)

    Raises the last retryable exception once attempts (or the policy
    deadline) are exhausted.  When *budget* is given, every retry must
    first win a token from it; a dry budget sheds the remaining
    retries (the last failure surfaces immediately), capping the
    fleet-wide amplification a correlated failure can cause.
    """
    policy = policy or RetryPolicy()
    env = orb.env
    if budget is not None:
        budget.on_attempt()
    rng = (orb.network.rngs.stream(JITTER_STREAM) if policy.jitter
           else None)
    start = env.now

    # Open a retry span so every attempt (and the server work it causes)
    # lands in one causally-linked trace.
    hub = orb.obs
    span = None
    prev_ctx = None
    bound_proc = None
    if hub is not None:
        span = hub.tracer.start_span(
            f"retry:{odef.name}", kind="internal",
            parent=hub.context.current(env), host=orb.host_id,
            attrs={"max_attempts": policy.attempts, "peer": ior.host_id})
        bound_proc = env.active_process
        prev_ctx = hub.context.bind(bound_proc, span.context)

    last_exc: Optional[SystemException] = None
    attempts_made = 0
    try:
        for attempt in range(policy.attempts):
            remaining = (None if policy.deadline is None
                         else policy.deadline - (env.now - start))
            if attempt > 0:
                if budget is not None and not budget.try_spend():
                    break  # retry budget dry: shed instead of amplify
                delay = policy.delay_before(attempt, rng=rng)
                if remaining is not None and delay >= remaining:
                    break  # sleeping would blow the budget; give up now
                orb.metrics.counter("orb.retries").inc()
                orb.metrics.counter(f"orb.retries.{odef.name}").inc()
                yield env.timeout(delay)
                if remaining is not None:
                    remaining = policy.deadline - (env.now - start)
            attempt_timeout = policy.timeout
            if remaining is not None:
                if remaining <= 0:
                    break
                attempt_timeout = min(attempt_timeout, remaining)
            if breaker is not None and not breaker.allow():
                # Fast-fail locally: no marshalling, no wire bytes, no
                # pending-table entry — the whole point of the breaker.
                last_exc = breaker.reject_exception()
                continue
            attempts_made += 1
            try:
                result = yield orb.invoke(ior, odef, args,
                                          timeout=attempt_timeout,
                                          meter=meter)
                if breaker is not None:
                    breaker.on_success()
                if span is not None:
                    span.attrs["attempts"] = attempts_made
                    hub.tracer.end_span(span, status="ok")
                return result
            except RETRYABLE as exc:
                if breaker is not None:
                    breaker.on_failure()
                last_exc = exc
                continue
            except (SystemException, UserException):
                # A definitive (non-retryable) answer still proves the
                # peer is alive; it must not keep the breaker open.
                if breaker is not None:
                    breaker.on_success()
                raise
        if last_exc is None:
            last_exc = TIMEOUT(
                f"retry deadline {policy.deadline}s exhausted before "
                f"any attempt of {odef.name} could run"
            )
        raise last_exc
    except BaseException as exc:
        if span is not None:
            span.attrs["attempts"] = attempts_made
            hub.tracer.end_span(span, status="error",
                                error=getattr(exc, "repo_id", None)
                                or type(exc).__name__)
        raise
    finally:
        if hub is not None:
            hub.context.bind(bound_proc, prev_ctx)
            if span is not None and not span.finished:
                span.attrs["attempts"] = attempts_made
                hub.tracer.end_span(span, status="ok")


def call_with_retry(orb: ORB, ior: IOR, odef: OperationDef,
                    args: Sequence[Any],
                    policy: Optional[RetryPolicy] = None,
                    breaker: Optional[CircuitBreaker] = None,
                    budget: Optional[RetryBudget] = None):
    """Synchronous variant for test/driver code outside the simulation."""
    return orb.sync(orb.env.process(
        invoke_with_retry(orb, ior, odef, args, policy=policy,
                          breaker=breaker, budget=budget)))
