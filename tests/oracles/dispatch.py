"""The process-per-request dispatch: the oracle for the listener's one path.

Until the listener served every request from its delivery callback, a
request went through :func:`_dispatch_process` -- one kernel process per
request -- whenever its ORB had worker slots or its servant method was a
generator function.  :func:`process_per_request` swaps that path back in
for :meth:`Listener.dispatch`, so one scenario can run both ways
(``tests/orb/test_processless_oracle.py``): results, span trees and
histogram counts must be equal, and only the kernel-event count may
differ.  The function is kept as it was, but for setting
``ORB.current_client`` beside ``current_request`` as the listener does;
it drives the listener's shared stages (``_resolve_target``,
``_run_generator``, ``_complete_dispatch``, ``_dispatch_error``,
``_dispatch_done``) and its worker slots.
"""

from __future__ import annotations

import contextlib
from typing import Optional

from repro.orb import giop
from repro.orb.cdr import CDRDecoder
from repro.orb.interception import ServerRequestInfo
from repro.orb.listener import Listener
from repro.orb.model import OperationDef


def _dispatch_process(self, request: giop.RequestMessage, client: str,
                      info: Optional[ServerRequestInfo]):
    """Process one admitted request (runs as a simulation process)."""
    odef: Optional[OperationDef] = None
    orb = self.orb
    try:
        method, odef = self._resolve_target(request, info)
        codec = odef.codec()
        if request.response_expected:
            args = codec.decode_in(CDRDecoder(request.args))
        else:
            args = codec.decode_oneway(request.args)

        slots = self._slots
        if slots is not None:
            # Wait (FIFO) for a worker slot: servant execution is
            # serialized through the host's CPU parallelism.
            yield slots.acquire()
        try:
            # Charge the operation's CPU cost at this host's speed.
            cost_s = odef.cpu_cost / self.host.profile.cpu_power
            for listener in self.dispatch_listeners:
                listener(cost_s)
            if cost_s > 0:
                yield self.env.timeout(cost_s)

            prev, orb.current_request = orb.current_request, info
            prev_client, orb.current_client = orb.current_client, client
            try:
                result = method(*args)
            finally:
                orb.current_request = prev
                orb.current_client = prev_client
            if hasattr(result, "send") and hasattr(result, "throw"):
                # Servant method is a generator: drive it to completion.
                result = yield self._run_generator(result, info)
        finally:
            if slots is not None:
                slots.release()

        self._complete_dispatch(request, client, odef, result, info)
    except Exception as exc:
        self._dispatch_error(request, client, odef, exc, info)
    finally:
        self._dispatch_done(info)


def _dispatch(self, request: giop.RequestMessage, client: str,
              info: Optional[ServerRequestInfo]) -> None:
    self.env.process(_dispatch_process(self, request, client, info))


@contextlib.contextmanager
def process_per_request():
    """Run the block with every listener dispatching through one kernel
    process per request."""
    saved = Listener.dispatch
    Listener.dispatch = _dispatch
    try:
        yield
    finally:
        Listener.dispatch = saved
